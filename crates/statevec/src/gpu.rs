//! The simulated-GPU engine.
//!
//! Plays the role of CUDA-Q's `nvidia` target on one A100: the circuit is
//! fused into multiplexed kernels (§2.2 "kernel transformation"; Appendix
//! D.2 `gate fusion = 5`) and each kernel sweeps the state vector
//! **data-parallel** — rayon worker tasks stand in for CUDA thread blocks,
//! with each task owning a disjoint set of amplitude groups exactly as a
//! thread block owns a tile of the state.
//!
//! Execution is bit-identical to sequential application of the same fused
//! kernels (each amplitude group is computed independently), so the
//! oracle tests compare against `qgear-ir`'s reference simulator directly.
//! The inner loops additionally run in explicit SIMD lane form
//! (`f64x4`/`f32x8`, see [`crate::simd`]) on every span with
//! `log2(LANES)` bits outside the kernel's support, wherever the kernel's
//! own qubits sit; the lane kernels replicate the scalar complex
//! arithmetic operation-for-operation, so this too preserves bit
//! identity — `tests/differential.rs` pins it down by diffing whole runs
//! with SIMD forced off.
//!
//! The device itself is a name and a memory size. What the performance
//! model in `qgear-perfmodel` converts into projected A100 timings are
//! the per-kernel launch and byte counters a run charges to `ExecStats`.
//!
//! Kernel arithmetic exists once. A fused block's mask
//! ([`FusedBlock::mixed`], made exact when the fuser closed the block)
//! is the kernel decision: an empty mask is a diagonal table, any other
//! a group kernel over the bits it names (dense being the all-mixed
//! case) — the planner prices a kernel from the same mask — and
//! `KernelPlan` owns the one gather / mul-add / scatter body; a
//! full-state kernel ([`GpuDevice::apply_block`]) is that body driven
//! over the whole state, a shard step
//! ([`GpuDevice::apply_to_slices`]) one plan driven over every slice in
//! turn, a sweep ([`GpuDevice::apply_sweep`]) the same body driven over
//! cache-sized tiles.
//!
//! This module holds the device and its kernels only. The plan those
//! kernels execute, the loop that walks it and the stats it charges live
//! once, in [`crate::segment`]; [`Simulator::run`] here is one unbounded
//! segment of that stepper.

use crate::backend::{RunOptions, RunOutput, SimError, Simulator};
use crate::segment::{straight_through, SegmentedRun};
use crate::simd::{self, DiagTable};
use qgear_ir::fusion::FusedBlock;
use qgear_ir::schedule::Sweep;
use qgear_ir::Circuit;
use qgear_num::{AlignedVec, CLanes, Complex, Scalar};
use qgear_telemetry::clock::WallClock;
use rayon::prelude::*;

/// Simulated GPU device description. Defaults model one NVIDIA A100
/// (40 GB HBM2e as on Perlmutter's original GPU partition).
#[derive(Debug, Clone)]
pub struct GpuDevice {
    /// Marketing name, for reports.
    pub name: String,
    /// Device memory in bytes (enforced when `RunOptions::memory_limit`
    /// is `None`).
    pub memory_bytes: u128,
}

impl Default for GpuDevice {
    fn default() -> Self {
        GpuDevice::a100_40gb()
    }
}

impl GpuDevice {
    /// Perlmutter's A100 with 40 GB HBM2e — the Fig. 4a single-GPU device.
    pub fn a100_40gb() -> Self {
        GpuDevice {
            name: "NVIDIA A100 40GB (simulated)".to_owned(),
            memory_bytes: 40_000_000_000,
        }
    }

    /// The 80 GB HBM2e variant (`-C "gpu&hbm80g"`, Appendix E.3).
    pub fn a100_80gb() -> Self {
        GpuDevice {
            name: "NVIDIA A100 80GB (simulated)".to_owned(),
            memory_bytes: 80_000_000_000,
        }
    }

    /// Maximum register width this device can hold at `amp_bytes` per
    /// amplitude (8 for fp32, 16 for fp64).
    pub fn max_qubits(&self, amp_bytes: u128) -> u32 {
        let mut n = 0u32;
        while (1u128 << (n + 1)) * amp_bytes <= self.memory_bytes {
            n += 1;
        }
        n
    }

    /// Execute one fused block over the state, data-parallel.
    ///
    /// A block that mixes nothing (QFT's cr1 chains, rz runs) is one
    /// element-wise table pass with no gather/scatter, exactly like a
    /// cuQuantum diagonal kernel; anything else a mul-add chain over the
    /// bits it mixes, which skips only entries that are exactly zero and
    /// so is bit for bit the dense `2^k` chain — and the full-state
    /// driver splits the independent
    /// amplitude groups across rayon workers. The sweep path runs the
    /// *same* plan body over its tiles, which is why order-preserving
    /// sweeps are bit-identical to this kernel-at-a-time path.
    pub fn apply_block<T: Scalar>(state: &mut [Complex<T>], block: &FusedBlock) {
        GpuDevice::apply_to_slices([state], block, &block.qubits);
    }

    /// Execute one kernel on every slice of a partitioned state: `block`
    /// is planned **once**, with its local bit `j` at slice
    /// bit `positions[j]`, and that plan runs over each of the equally
    /// long `slices` in turn with the full-state driver.
    /// [`GpuDevice::apply_block`] is the one-slice case, so a slice gets
    /// bit for bit what a whole state would, without a block, a
    /// relabelled qubit list or a second plan ever being built. A
    /// partitioned state calls it once per kernel, or once per rank-bit
    /// pattern with the sub-table that pattern selects
    /// ([`FusedBlock::select`]).
    pub fn apply_to_slices<'a, T: Scalar>(
        slices: impl IntoIterator<Item = &'a mut [Complex<T>]>,
        block: &FusedBlock,
        positions: &[u32],
    ) {
        let mut slices = slices.into_iter().peekable();
        let Some(first) = slices.peek() else { return };
        let masks: Vec<usize> = positions.iter().map(|&p| 1usize << p).collect();
        let plan = KernelPlan::new(block, &masks, first.len());
        for slice in slices {
            plan.launch(slice);
        }
    }

    /// Execute one scheduled sweep — several mutually-reorderable fused
    /// kernels — in a single cache-blocked pass over the state.
    ///
    /// This is the sweep-fusion analogue of CUDA shared-memory tiling. An
    /// all-diagonal sweep is one element-wise pass at any width. Any other
    /// sweep of several kernels acts on low qubits only (the scheduler's
    /// rule), so its tile is a contiguous slice of the state: the low
    /// `max(top + 1, widest + log2(LANES))` qubits, `top` the sweep's
    /// highest qubit and `widest` its widest kernel — wide enough that
    /// every kernel has lane bits to spare (see `GroupKernel`). Each
    /// rayon task applies *every* kernel of the sweep to its tiles in
    /// place while they are hot, so DRAM-level traffic is one read + one
    /// write of the state per *sweep* instead of per kernel, with no
    /// scratch copy.
    ///
    /// Each kernel is the plan [`GpuDevice::apply_block`] builds, run by
    /// the same body, so sweep execution is **bit-identical** to applying
    /// the sweep's kernels sequentially over the full state in the same
    /// order. A kernel of width `k` that mixes only `μ` of its qubits
    /// splits into `2^(k-μ)` independent `2^μ × 2^μ` sub-unitaries indexed
    /// by the unmixed (control/phase) bits, cutting the per-amplitude cost
    /// from `2^k` to `2^μ` mul-adds — 16× for QFT kernels, which mix only
    /// the single `h` qubit of each block.
    pub fn apply_sweep<T: Scalar>(state: &mut [Complex<T>], blocks: &[FusedBlock], sweep: &Sweep) {
        if let [only] = sweep.kernels.as_slice() {
            GpuDevice::apply_block(state, &blocks[*only]);
            return;
        }
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::APPLY_SWEEP);
        // One pass: the whole state is read and written once.
        qgear_telemetry::counter_add(
            qgear_telemetry::names::AMPLITUDES_TOUCHED,
            2 * state.len() as u128,
        );
        // All-diagonal sweeps: one element-wise pass applies every phase
        // pattern in order. Each kernel gets its own DiagTable; applying
        // the tables kernel-major per chunk keeps every amplitude's
        // multiplies in sweep order, so the pass stays bit-identical to
        // sequential application.
        if sweep.diagonal {
            let tables: Vec<DiagTable<T>> = sweep
                .kernels
                .iter()
                .map(|&ki| {
                    let b = &blocks[ki];
                    let masks: Vec<usize> = b.qubits.iter().map(|&q| 1usize << q).collect();
                    DiagTable::new(b, &masks, state.len())
                })
                .collect();
            let chunk = tables.first().map_or(state.len(), |t| t.chunk());
            for t in &tables {
                simd::record_dispatch::<T>(simd::simd_enabled() && t.chunk() >= T::LANES);
            }
            let min = min_items::<T>(chunk);
            state.par_chunks_mut(chunk).with_min_len(min).enumerate().for_each(|(ci, cs)| {
                for t in &tables {
                    t.apply(cs, ci * chunk);
                }
            });
            return;
        }

        // The tile: the low qubits, through the sweep's highest one and
        // wide enough for lanes. Slot `j` of tile `g` *is* amplitude
        // `g·2^u + j`, so every kernel is planned on global masks.
        let n = state.len().trailing_zeros() as usize;
        let top = sweep.qubits.last().map_or(0, |&q| q as usize + 1);
        let widest = sweep.kernels.iter().map(|&ki| blocks[ki].qubits.len()).max().unwrap_or(0);
        let tile = 1usize << top.max(widest + simd::lane_log2::<T>()).min(n);
        let plans: Vec<KernelPlan<T>> = sweep
            .kernels
            .iter()
            .map(|&ki| {
                let b = &blocks[ki];
                let masks: Vec<usize> = b.qubits.iter().map(|&q| 1usize << q).collect();
                KernelPlan::new(b, &masks, tile)
            })
            .collect();
        for plan in &plans {
            simd::record_dispatch::<T>(plan.lane_eligible());
        }
        qgear_telemetry::counter_add(
            qgear_telemetry::names::SWEEP_ZERO_COPY_TILES,
            (state.len() / tile) as u128,
        );
        state.par_chunks_mut(tile).with_min_len(min_items::<T>(tile)).for_each(|tile_slice| {
            for plan in &plans {
                plan.run_tile(tile_slice);
            }
        });
    }
}

/// Bytes of state a parallel task should own at least. Below two tasks'
/// worth a kernel pass runs inline on the calling thread: waking a parked
/// helper costs about what a core needs to stream this much, and an
/// L1/L2-resident state gains nothing from a second core.
const MIN_TASK_BYTES: usize = 64 << 10;

/// The `with_min_len` of a kernel drive site whose parallel item — one
/// amplitude group, lane block, table chunk or sweep tile — covers
/// `amps_per_item` amplitudes: items per [`MIN_TASK_BYTES`]. This is the
/// one go-parallel rule; every site hands the pool its natural item and
/// lets the byte count decide how many make a task.
pub(crate) fn min_items<T: Scalar>(amps_per_item: usize) -> usize {
    min_items_of_bytes(amps_per_item * std::mem::size_of::<Complex<T>>())
}

/// [`min_items`] for an item that reads `item_bytes` of anything, not
/// amplitudes: the sampler's blocks of `f64` probabilities.
pub(crate) fn min_items_of_bytes(item_bytes: usize) -> usize {
    (MIN_TASK_BYTES / item_bytes).max(1)
}

/// Expand a group index around `sorted_bits` (ascending): reinsert a zero
/// bit at every listed position, so distinct group indices address
/// disjoint amplitude sets and `index | offset` ranges over the group.
#[inline(always)]
fn expand_index(mut index: usize, sorted_bits: &[usize]) -> usize {
    for &p in sorted_bits {
        let low = index & ((1usize << p) - 1);
        index = ((index >> p) << (p + 1)) | low;
    }
    index
}

/// One fused kernel, planned once and ready to run over `span`
/// amplitudes: a contiguous sweep tile, a shard slice or the whole state
/// (masks are bit masks of that span) — the plan is span agnostic, and
/// both drivers ([`KernelPlan::run_tile`], [`KernelPlan::run_full`])
/// execute the same per-group body, so tile and full-state application
/// of one plan are bit-identical. Everything derivable once per kernel — local-index
/// address offsets, the factored sub-unitaries, diagonal lookup tables,
/// the lane layout — is computed at build time and shared read-only
/// across every tile and worker.
enum KernelPlan<T: Scalar> {
    /// Pure phase pattern: element-wise multiply, no data movement.
    Diag {
        /// Precomputed chunked lookup table (see [`DiagTable`]).
        table: DiagTable<T>,
    },
    /// Gather / mul-add / scatter over amplitude groups.
    Grouped(GroupKernel<T>),
}

/// A kernel applied group by group: the block's `μ` *mixed* bits span a
/// group of `2^μ` amplitudes, and every assignment of its unmixed
/// (control/phase) bits selects one `2^μ × 2^μ` sub-unitary of the
/// block's table — `2^μ` mul-adds per amplitude however many qubits the
/// block spans. A dense kernel is the `μ = k` case: every bit mixed, one
/// sub-unitary, nothing to select.
///
/// The body works an *item* at a time. On the lane path an item is the
/// amplitudes that differ only in the span's lowest `log2(LANES)` bits,
/// the kernel's mixed bits and, when `m` kernel bits are among those
/// lowest bits, the lowest `m` spectator bits above them (see
/// [`LaneSplit`]): `LANES` spectator groups per sub-unitary it applies,
/// lane `l` running exactly the chain its group runs alone. When the
/// kernel's unmixed bits cover the lowest bits, nothing is split: an
/// item is `LANES` groups, each lane under its own sub-unitary
/// (`lane_subs`). On the scalar
/// path (a span with fewer than `log2(LANES)` spare bits, or SIMD switched
/// off) an item is one group.
struct GroupKernel<T: Scalar> {
    /// The sub-unitaries, each row-major `2^μ × 2^μ` in execution
    /// precision, concatenated in order of the unmixed bits packed in
    /// kernel-local order. Cache-line aligned like the state: the body
    /// broadcasts every entry from here, and a `2×2` sub-unitary — one
    /// line at fp64, half a line at fp32 — then never straddles two.
    /// Empty when `lane_subs` holds them.
    subs: AlignedVec<Complex<T>>,
    /// The same table when the unmixed bits include every lane bit:
    /// entry `d·4^μ + i` holds, in lane `l`, entry `i` of the sub-unitary
    /// that lane bits `l` and `d` (the other unmixed bits, packed among
    /// themselves) select, so every lane reads its own and no item is
    /// split. Empty otherwise.
    lane_subs: Vec<T::Lanes>,
    /// Address offset of each mixed-bit local index inside the span.
    offs: Vec<usize>,
    /// Span bit positions an item index expands around, ascending: the
    /// mixed bits, and on the lane path the lane bits and the bits that
    /// stand in for kernel lane bits too.
    expand: Vec<usize>,
    /// `(span mask, packed weight)` pairs extracting the sub-unitary
    /// index from an item's base address: every unmixed bit the base
    /// carries.
    extract: Vec<(usize, usize)>,
    /// The `extract` masks together: consecutive items share a
    /// sub-unitary while their bases agree on these bits.
    unmixed: usize,
    /// Sub-unitary dimension `2^μ`.
    mdim: usize,
    /// Amplitudes per application; every address the body forms is below
    /// it (checked at build time, and against the slice by the driver).
    span: usize,
    /// How an item's lanes are loaded (decided at build time).
    lanes: LaneLayout,
}

/// Scalar groups, or the one lane layout.
enum LaneLayout {
    /// No lane path: an item is a single group.
    Scalar,
    /// Lanes over the span's lowest `log2(LANES)` bits, every vector one
    /// contiguous load and store; kernel bits among them are split out in
    /// registers, unless unmixed kernel bits cover them all.
    Lanes(LaneSplit),
}

/// How a lane item with `m` kernel bits among the lane bits is loaded.
///
/// Each kernel lane bit is paired with one of the `m` lowest span bits
/// above the lane width outside the kernel's support, its stand-in. The
/// item loads, per column, the `2^m` vectors that differ in the stand-ins
/// — a group — and one [`CLanes::split`] per pair of the group and level
/// exchanges each kernel lane bit with its stand-in, after which every
/// vector holds one value of the kernel lane bits for `LANES` spectator
/// groups: a column of one sub-unitary. Splitting the outputs again and
/// storing them undoes it. With `m = 0` nothing is loaded this way: a
/// column is the vector at its offset and none of this runs.
struct LaneSplit {
    /// `(address offset, slot)` of every vector an item loads, in groups
    /// of `2^m`: vector `v` of a group sets the stand-ins of `v`'s bits.
    /// Slot `u·2^μ + c` receives column `c` of the sub-unitary that
    /// assignment `u` of the unmixed kernel lane bits selects.
    loads: Vec<(usize, usize)>,
    /// Level `i < m` exchanges lane bit `bits[i]` with group index bit `i`.
    bits: [usize; 3],
    /// Sub-unitary index contributed by each assignment `u < B` of the
    /// unmixed kernel lane bits (`0` when there are none).
    subs_low: [usize; 8],
    /// `(B, K)`: the sub-unitaries an item applies, one per assignment of
    /// the unmixed kernel lane bits, and the vectors of a group, `2^m`;
    /// `(0, 0)` when `m = 0`.
    shape: (usize, usize),
}

impl<T: Scalar> KernelPlan<T> {
    /// Plan `block` over spans of `span` amplitudes/slots, `masks[j]`
    /// being the span mask of kernel-local bit `j`: a block that mixes
    /// nothing becomes a [`DiagTable`] of its table, anything else a
    /// [`GroupKernel`] over the bits it mixes.
    fn new(block: &FusedBlock, masks: &[usize], span: usize) -> Self {
        if block.mixed() == 0 {
            KernelPlan::Diag { table: DiagTable::new(block, masks, span) }
        } else {
            KernelPlan::Grouped(GroupKernel::new(block, masks, span, simd::simd_enabled()))
        }
    }

    /// True when this plan runs on the SIMD lane path (telemetry dispatch
    /// accounting).
    fn lane_eligible(&self) -> bool {
        match self {
            KernelPlan::Diag { table } => simd::simd_enabled() && table.chunk() >= T::LANES,
            KernelPlan::Grouped(kernel) => !matches!(kernel.lanes, LaneLayout::Scalar),
        }
    }

    /// One kernel pass over a whole state or shard slice, accounted as
    /// one: the `apply_block` span, every amplitude read and written once,
    /// one SIMD dispatch decision, then the full-state driver.
    fn launch(&self, state: &mut [Complex<T>]) {
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::APPLY_BLOCK);
        qgear_telemetry::counter_add(
            qgear_telemetry::names::AMPLITUDES_TOUCHED,
            2 * state.len() as u128,
        );
        simd::record_dispatch::<T>(self.lane_eligible());
        self.run_full(state);
    }

    /// Tile driver: apply the plan to one exclusively borrowed span —
    /// a contiguous sweep tile — item after item on the calling thread.
    fn run_tile(&self, tile: &mut [Complex<T>]) {
        match self {
            KernelPlan::Diag { table } => table.apply(tile, 0),
            KernelPlan::Grouped(kernel) => kernel.run(tile, false),
        }
    }

    /// Full-state driver: apply the plan to the whole state, its items
    /// (or table chunks) split across the kernel pool. [`min_items`]
    /// turns an item's size — a group, lane block or table chunk — into
    /// the items a task takes (a group kernel's run, a table's minimum
    /// task length), so a task owns at least [`MIN_TASK_BYTES`] of state
    /// and a pass smaller than two tasks stays on the calling thread.
    fn run_full(&self, state: &mut [Complex<T>]) {
        match self {
            KernelPlan::Diag { table } => {
                let chunk = table.chunk();
                state
                    .par_chunks_mut(chunk)
                    .with_min_len(min_items::<T>(chunk))
                    .enumerate()
                    .for_each(|(ci, cs)| table.apply(cs, ci * chunk));
            }
            KernelPlan::Grouped(kernel) => kernel.run(state, true),
        }
    }
}

impl<T: Scalar> GroupKernel<T> {
    /// Plan `block` over the local bits it mixes, its table cast to the
    /// execution precision. `simd` allows the lane path, which a span
    /// with `log2(LANES)` bits outside `masks` then takes.
    fn new(block: &FusedBlock, masks: &[usize], span: usize, simd: bool) -> Self {
        let k = block.qubits.len();
        // The unsafe body's bounds argument: item bases and offsets only
        // ever combine bits below a power-of-two span.
        assert!(
            span.is_power_of_two() && masks.iter().all(|&m| m.is_power_of_two() && m < span),
            "kernel bit masks must lie inside the span"
        );
        let (mixed_bits, diag_bits): (Vec<usize>, Vec<usize>) =
            (0..k).partition(|&j| block.mixed() >> j & 1 == 1);
        let mdim = 1usize << mixed_bits.len();
        let mixed_masks: Vec<usize> = mixed_bits.iter().map(|&j| masks[j]).collect();
        let offs = simd::local_offsets(&mixed_masks);
        // Kernel lane bits, ascending, and the spare bits above the lane
        // width that stand in for them: one each, or no lane path.
        let support = masks.iter().fold(0usize, |acc, &m| acc | m);
        let (mut lane_kernel, mut spare) = ([0usize; 3], [0usize; 3]);
        let m = (0..k).filter(|&j| masks[j] < T::LANES).zip(&mut lane_kernel).map(|(j, slot)| *slot = j).count();
        let spares = (simd::lane_log2::<T>()..span.trailing_zeros() as usize)
            .map(|b| 1usize << b)
            .filter(|m| support & m == 0)
            .zip(&mut spare[..m])
            .map(|(b, slot)| *slot = b)
            .count();
        let on_lanes = simd && span >= T::LANES && spares == m;
        // Every lane bit an unmixed kernel bit: the lanes read their own
        // sub-unitaries (`lane_subs`, the table's size), and nothing is
        // split.
        let per_lane = on_lanes
            && m == simd::lane_log2::<T>()
            && lane_kernel[..m].iter().all(|&j| block.mixed() >> j & 1 == 0);
        let split = if per_lane { 0 } else { m };
        let on_lane_bits = |j: usize| on_lanes && masks[j] < T::LANES;
        // The unmixed bits outside the lane width, weighted as the table
        // packs them, or among themselves for `lane_subs`.
        let extract: Vec<(usize, usize)> = diag_bits
            .iter()
            .enumerate()
            .filter(|&(_, &j)| !on_lane_bits(j))
            .enumerate()
            .map(|(s, (t, &j))| (masks[j], 1usize << if per_lane { s } else { t }))
            .collect();
        let mut expand: Vec<usize> =
            mixed_bits.iter().filter(|&&j| !on_lane_bits(j)).map(|&j| masks[j].trailing_zeros() as usize).collect();
        let lanes = if on_lanes {
            expand.extend(0..simd::lane_log2::<T>());
            expand.extend(spare[..split].iter().map(|m| m.trailing_zeros() as usize));
            LaneLayout::Lanes(LaneSplit::new(&mixed_bits, &diag_bits, masks, &lane_kernel[..split], &spare[..split]))
        } else {
            LaneLayout::Scalar
        };
        expand.sort_unstable();
        let mut subs = AlignedVec::with_capacity(if per_lane { 0 } else { block.table().len() });
        let lane_subs = if per_lane {
            lane_subs::<T>(block.table(), &diag_bits, masks, mdim)
        } else {
            subs.extend(block.table().iter().map(|e| e.cast()));
            Vec::new()
        };
        GroupKernel {
            unmixed: extract.iter().fold(0, |acc, &(m, _)| acc | m),
            offs,
            subs,
            lane_subs,
            expand,
            extract,
            mdim,
            span,
            lanes,
        }
    }

    /// Drive the body over every item of `amps`, on the calling thread or
    /// (`pooled`) split across the kernel pool. The one place the group
    /// dimension `M = 2^μ` becomes a constant: each arm is the driver loop
    /// and the body compiled for it. The split shape `(B, K)` is the
    /// plan's, read at run time.
    fn run(&self, amps: &mut [Complex<T>], pooled: bool) {
        assert_eq!(amps.len(), self.span, "plan built for another span");
        let shared = SharedState(amps.as_mut_ptr());
        match self.mdim {
            2 => self.drive::<2>(&shared, pooled),
            4 => self.drive::<4>(&shared, pooled),
            8 => self.drive::<8>(&shared, pooled),
            16 => self.drive::<16>(&shared, pooled),
            32 => self.drive::<32>(&shared, pooled),
            64 => self.drive::<64>(&shared, pooled),
            other => unreachable!("a group kernel mixes 1 to 6 bits, not 2^μ = {other}"),
        }
    }

    /// The sub-unitary an item's base selects: its index in `subs`, or
    /// its block of `lane_subs`.
    #[inline(always)]
    fn sub_index(&self, base: usize) -> usize {
        self.extract.iter().fold(0, |d, &(mask, weight)| if base & mask != 0 { d | weight } else { d })
    }

    fn drive<const M: usize>(&self, shared: &SharedState<T>, pooled: bool) {
        let items = self.span >> self.expand.len();
        // A run is the items one task works through: a whole tile on the
        // calling thread, [`MIN_TASK_BYTES`] of state in the pool. Only a
        // run's first base is expanded from its index; the rest step to
        // the next value of the bits outside `expand` by carrying across
        // the bits inside it, and the sub-unitary is chosen again only
        // where that step changes an unmixed bit.
        let run = if pooled { min_items::<T>(1usize << self.expand.len()).min(items) } else { items };
        let skip = self.expand.iter().fold(0usize, |acc, &p| acc | 1 << p);
        let subs_per_item = match &self.lanes {
            LaneLayout::Lanes(split) => split.shape.0,
            LaneLayout::Scalar => 0,
        };
        let work = move |r: usize| {
            // The columns and rows of an item's `B` sub-unitaries, `B`
            // below `LANES` and so at most four: none unless the kernel
            // has lane bits to split.
            let mut scratch;
            let (cols, rows) = if subs_per_item == 0 {
                (&mut [][..], &mut [][..])
            } else {
                scratch = [[[T::Lanes::splat(Complex::ZERO); M]; 4]; 2];
                let [cols, rows] = &mut scratch;
                (&mut cols[..subs_per_item], &mut rows[..subs_per_item])
            };
            let mut base = expand_index(r * run, &self.expand);
            let mut d = self.sub_index(base);
            for _ in 0..run {
                // SAFETY: the pointer addresses the `span` amplitudes of
                // the exclusively borrowed slice (`run` checked its
                // length), `base` is the expansion of an item below
                // `span >> expand.len()` (runs tile the items), `M` is
                // `mdim`, and distinct items touch disjoint amplitudes, so
                // no two tasks alias.
                unsafe { self.apply::<M>(shared.0, base, d, cols, rows) };
                let next = ((base | skip) + 1) & !skip;
                if (next ^ base) & self.unmixed != 0 {
                    d = self.sub_index(next);
                }
                base = next;
            }
        };
        if pooled {
            (0..items / run).into_par_iter().for_each(work);
        } else {
            (0..items / run).for_each(work);
        }
    }

    /// The one gather / mul-add / scatter body. `base` is an item index
    /// expanded around `expand` — it carries an assignment of every other
    /// span bit, this kernel's unmixed bits outside the lane width
    /// included, which picked sub-unitary `d`. Gathers the group's `2^μ`
    /// amplitudes, accumulates each output row in column order with one
    /// `mul_add` per entry, and scatters. On the lane path the same runs
    /// for `LANES` groups at once, one lane vector per column, same
    /// accumulation order, bitwise identical; `cols` and `rows` hold the
    /// split columns and rows of an item of several groups, and are empty
    /// for a kernel without lane bits to split.
    ///
    /// # Safety
    /// `ptr` must address `self.span` amplitudes; `base` must be below
    /// `span` with every `expand` bit clear; `M` must be `self.mdim`; and
    /// no other thread may access the item's amplitudes during the call.
    /// Distinct items are disjoint: their bases differ outside the
    /// `expand` positions and the offsets set only those bits.
    #[inline(always)]
    unsafe fn apply<const M: usize>(
        &self,
        ptr: *mut Complex<T>,
        base: usize,
        d: usize,
        cols: &mut [[T::Lanes; M]],
        rows: &mut [[T::Lanes; M]],
    ) {
        // Sliced to `M` once, so the loops below index it unchecked.
        let offs = &self.offs[..M];
        let split = match &self.lanes {
            LaneLayout::Scalar => {
                let mut group = [Complex::<T>::ZERO; M];
                for c in 0..M {
                    // SAFETY: `base | offs[c] < span` (bits below a
                    // power-of-two span, checked in `new`), owned by this
                    // call's group.
                    group[c] = unsafe { *ptr.add(base | offs[c]) };
                }
                for (r, row) in self.subs[d * M * M..(d + 1) * M * M].chunks_exact(M).enumerate() {
                    let mut acc = Complex::<T>::ZERO;
                    for c in 0..M {
                        acc = row[c].mul_add(group[c], acc);
                    }
                    // SAFETY: same address set as the gather.
                    unsafe { *ptr.add(base | offs[r]) = acc };
                }
                return;
            }
            LaneLayout::Lanes(split) => split,
        };
        // SAFETY: the caller's contract — `base | off` for an offset of
        // this item is the first of `LANES` in-bounds amplitudes (the
        // lane bits are below it, all clear in both), owned by this call.
        let load = |off: usize| T::Lanes::load(unsafe { std::slice::from_raw_parts(ptr.add(base | off), T::LANES) }, 0);
        let store = |v: T::Lanes, off: usize| {
            // SAFETY: as for `load`; each vector is stored after its loads.
            v.store(unsafe { std::slice::from_raw_parts_mut(ptr.add(base | off), T::LANES) }, 0)
        };
        if cols.is_empty() {
            let mut cols = [T::Lanes::splat(Complex::ZERO); M];
            for c in 0..M {
                cols[c] = load(offs[c]);
            }
            let put = |r: usize, v| store(v, offs[r]);
            if self.lane_subs.is_empty() {
                let m = &self.subs[d * M * M..][..M * M];
                simd::dense_block_lanes::<T, M>(|i| T::Lanes::splat(m[i]), &cols, put);
            } else {
                let m = &self.lane_subs[d * M * M..][..M * M];
                simd::dense_block_lanes::<T, M>(|i| m[i], &cols, put);
            }
            return;
        }
        // Every group is loaded and split in registers and its vectors go
        // to their column slots; the rows come back the same way.
        split_groups(split, |(off, _)| load(off), |(_, slot), v| cols.as_flattened_mut()[slot] = v);
        for (u, (cols, rows)) in cols.iter().zip(rows.iter_mut()).enumerate() {
            let m = &self.subs[(d | split.subs_low[u]) * M * M..][..M * M];
            simd::dense_block_lanes::<T, M>(|i| T::Lanes::splat(m[i]), cols, |r, v| rows[r] = v);
        }
        let rows = rows.as_flattened();
        split_groups(split, |(_, slot)| rows[slot], |(off, _), v| store(v, off));
    }
}

/// Every group of `split`'s load list through the exchange: its `K`
/// vectors read by `(offset, slot)`, split, and handed back with theirs.
/// `K` is read at run time and becomes a constant here, once per item
/// and direction, so that a group stays in registers: the same exchange
/// as a runtime loop went through memory and cost the split kernels
/// 1.8–2.3× their time.
#[inline(always)]
fn split_groups<L: CLanes<T>, T: Scalar>(
    split: &LaneSplit,
    read: impl Fn((usize, usize)) -> L,
    write: impl FnMut((usize, usize), L),
) {
    match split.shape.1 {
        2 => split_groups_of::<L, T, 2>(split, read, write),
        4 => split_groups_of::<L, T, 4>(split, read, write),
        _ => split_groups_of::<L, T, 8>(split, read, write),
    }
}

/// [`split_groups`] at `K` vectors a group: level `i` pairs the vectors
/// whose index differs in bit `i` and exchanges that index bit with lane
/// bit `bits[i]`. Its own inverse, as each level is.
#[inline(always)]
fn split_groups_of<L: CLanes<T>, T: Scalar, const K: usize>(
    split: &LaneSplit,
    read: impl Fn((usize, usize)) -> L,
    mut write: impl FnMut((usize, usize), L),
) {
    for group in split.loads.chunks_exact(K) {
        let mut x: [L; K] = std::array::from_fn(|v| read(group[v]));
        // Constant bounds and indices only, so the group stays in registers.
        for i in 0..K.trailing_zeros() as usize {
            let bit = split.bits[i];
            for v in 0..K {
                if v >> i & 1 == 0 {
                    (x[v], x[v | 1 << i]) = x[v].split(x[v | 1 << i], bit);
                }
            }
        }
        for (&v, &at) in x.iter().zip(group) {
            write(at, v);
        }
    }
}

/// The table of a kernel whose `unmixed` local bits (in local order) at
/// span `masks` include every lane bit, cast to execution precision as
/// lane vectors: entry `d·M² + i`, `M` being `mdim`, holds in lane `l`
/// entry `i` of the sub-unitary that lane bits `l` and `d` (the other
/// unmixed bits, packed among themselves in local order) select. Its
/// lanes are the table's sub-unitaries, so it is the table's size.
fn lane_subs<T: Scalar>(table: &[Complex<f64>], unmixed: &[usize], masks: &[usize], mdim: usize) -> Vec<T::Lanes> {
    let mut of_lane = [0usize; 8];
    for (t, &j) in unmixed.iter().enumerate().filter(|&(_, &j)| masks[j] < T::LANES) {
        for (l, sub) in of_lane[..T::LANES].iter_mut().enumerate() {
            if l & masks[j] != 0 {
                *sub |= 1 << t;
            }
        }
    }
    let others: Vec<usize> = (0..unmixed.len()).filter(|&t| masks[unmixed[t]] >= T::LANES).map(|t| 1 << t).collect();
    let sq = mdim * mdim;
    let mut out = Vec::with_capacity(table.len() / T::LANES);
    let mut lanes = [Complex::<T>::ZERO; 8];
    for d in simd::local_offsets(&others) {
        for i in 0..sq {
            for (v, &sub) in lanes.iter_mut().zip(&of_lane[..T::LANES]) {
                *v = table[(sub | d) * sq + i].cast();
            }
            out.push(T::Lanes::load(&lanes, 0));
        }
    }
    out
}

impl LaneSplit {
    /// The split of a kernel with `mixed` and `unmixed` local bits (in
    /// local order) at span `masks`, its lane bits `lane_kernel` standing
    /// in for `spare` (ascending, one each). Built for every kernel of
    /// every job, so it allocates only what it keeps.
    fn new(mixed: &[usize], unmixed: &[usize], masks: &[usize], lane_kernel: &[usize], spare: &[usize]) -> Self {
        if lane_kernel.is_empty() {
            return LaneSplit { loads: Vec::new(), bits: [0; 3], subs_low: [0; 8], shape: (0, 0) };
        }
        let is_lane = |j: &usize| lane_kernel.contains(j);
        let mdim = 1usize << mixed.len();
        // `(slot bit, lane bit)` of each kernel lane bit: a column bit when
        // it is mixed, an assignment bit above the columns when not, whose
        // sub-unitary weight goes in `weights`.
        let (mut by_slot, mut m) = ([(0usize, 0usize); 3], 0);
        let (mut weights, mut b) = ([0usize; 3], 0);
        for (t, &j) in mixed.iter().enumerate().filter(|(_, j)| is_lane(j)) {
            by_slot[m] = (1 << t, masks[j].trailing_zeros() as usize);
            m += 1;
        }
        for (t, &j) in unmixed.iter().enumerate().filter(|(_, j)| is_lane(j)) {
            (by_slot[m], weights[b]) = ((mdim << b, masks[j].trailing_zeros() as usize), 1 << t);
            (m, b) = (m + 1, b + 1);
        }
        // Group index bit `i` is the `i`-th lowest slot bit of a kernel
        // lane bit: vector `v` of a group sets the stand-ins `stand[v]`
        // and goes to slot `g | slot[v]`, `g` the group's column bits.
        let by_slot = &mut by_slot[..m];
        by_slot.sort_unstable();
        let (k, mut stand, mut slot, mut subs_low) = (1usize << m, [0usize; 8], [0usize; 8], [0usize; 8]);
        for v in 1..k {
            let (i, rest) = (v.trailing_zeros() as usize, v & (v - 1));
            (stand[v], slot[v]) = (stand[rest] | spare[i], slot[rest] | by_slot[i].0);
            if v < 1 << b {
                subs_low[v] = subs_low[rest] | weights[i];
            }
        }
        // `(column bit, address mask)` of each mixed bit that is not a
        // lane bit: every assignment of them is one group.
        let (mut high, mut h) = ([(0usize, 0usize); 6], 0);
        for (t, &j) in mixed.iter().enumerate().filter(|(_, j)| !is_lane(j)) {
            (high[h], h) = ((1 << t, masks[j]), h + 1);
        }
        let mut loads = Vec::with_capacity(mdim << b);
        for a in 0..1usize << h {
            let (g, off) = (0..h).filter(|i| a >> i & 1 == 1).fold((0, 0), |(g, o), i| (g | high[i].0, o | high[i].1));
            loads.extend((0..k).map(|v| (off | stand[v], g | slot[v])));
        }
        let mut bits = [0usize; 3];
        for (bit, &(_, lane)) in bits.iter_mut().zip(by_slot.iter()) {
            *bit = lane;
        }
        LaneSplit { loads, bits, subs_low, shape: (1 << b, k) }
    }
}

/// Raw shared pointer wrapper used to hand disjoint slices of the state to
/// rayon tasks. All accesses go to group-disjoint indices (see
/// [`expand_index`]), so no two tasks alias.
struct SharedState<T>(*mut Complex<T>);
// SAFETY: the one field points into a `&mut [Complex<T>]` that the kernel
// creating the wrapper holds for the whole parallel region, and tasks
// reach it only through `&SharedState` (`drive` borrows it), so no task
// outlives that borrow. Sharing the wrapper shares only the address:
// every dereference is an `unsafe` call whose caller owns its indices,
// and distinct tasks touch disjoint ones, which is handing `&mut` to
// disjoint `T: Scalar` amplitudes (plain `Send` data) to other threads.
unsafe impl<T: Scalar> Sync for SharedState<T> {}

impl<T: Scalar> Simulator<T> for GpuDevice {
    fn name(&self) -> &'static str {
        "nvidia"
    }

    /// One [`SegmentedRun`] through the one tail, [`straight_through`],
    /// timed on the wall clock: the plan and the kernel loop live there.
    fn run(&self, circuit: &Circuit, opts: &RunOptions) -> Result<RunOutput<T>, SimError> {
        let run = SegmentedRun::new(self, circuit, opts)?;
        let Ok(out) = straight_through(run, circuit, opts, &WallClock::new());
        Ok(out)
    }
}

/// `μ` of the group kernel `KernelPlan::new` really builds, `None` for a
/// diagonal table: what the planner's pricing tests hold the priced
/// `2^μ` against.
#[cfg(test)]
pub(crate) fn built_mixed_count(block: &FusedBlock) -> Option<u32> {
    let k = block.qubits.len();
    let masks: Vec<usize> = (0..k).map(|j| 1usize << j).collect();
    match KernelPlan::<f64>::new(block, &masks, 1 << k) {
        KernelPlan::Diag { .. } => None,
        KernelPlan::Grouped(kernel) => Some(kernel.mdim.trailing_zeros()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aer::AerCpuBackend;
    use crate::state::StateVector;
    use qgear_ir::reference;
    use qgear_num::approx::max_deviation;
    use qgear_num::C64;

    fn rich_circuit(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        push_rich_gates(&mut c, n, seed);
        c
    }

    /// Append 80 seeded h/ry/rz/cx gates on the low `n` qubits of `c`.
    fn push_rich_gates(c: &mut Circuit, n: u32, seed: u64) {
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..80 {
            match rnd(5) {
                0 => {
                    c.h(rnd(n as u64) as u32);
                }
                1 => {
                    c.ry(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                2 => {
                    c.rz(rnd(628) as f64 / 100.0, rnd(n as u64) as u32);
                }
                _ => {
                    let a = rnd(n as u64) as u32;
                    let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
                    c.cx(a, b);
                }
            }
        }
    }

    #[test]
    fn gpu_matches_reference_all_fusion_widths() {
        let c = rich_circuit(7, 3);
        let expect = reference::run(&c);
        for width in 1..=5usize {
            // Exercise all three execution modes: plain fused
            // (sweep_width 0), order-preserving sweeps, reordering sweeps.
            for (sweep_width, sweep_reorder) in [(0, false), (6, false), (6, true)] {
                let opts = RunOptions { fusion_width: width, sweep_width, sweep_reorder, ..Default::default() };
                let out: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &opts).unwrap();
                let got = out.state.unwrap();
                assert!(
                    max_deviation(got.amplitudes(), &expect) < 1e-11,
                    "width {width} sweep {sweep_width}/{sweep_reorder}"
                );
            }
        }
    }

    #[test]
    fn gpu_matches_aer_baseline() {
        for seed in [11u64, 12, 13] {
            let c = rich_circuit(8, seed);
            let aer: RunOutput<f64> = AerCpuBackend.run(&c, &RunOptions::default()).unwrap();
            let gpu: RunOutput<f64> = GpuDevice::default().run(&c, &RunOptions::default()).unwrap();
            let a = aer.state.unwrap();
            let g = gpu.state.unwrap();
            assert!(a.fidelity(&g) > 1.0 - 1e-10, "seed {seed}");
        }
    }

    #[test]
    fn fusion_reduces_kernel_launches() {
        // Plain fused path (sweep_width 0): fusion alone must cut both
        // launches and DRAM traffic — the §2.2 claim.
        let c = rich_circuit(6, 21);
        let narrow: RunOutput<f64> = GpuDevice::default()
            .run(&c, &RunOptions { fusion_width: 1, sweep_width: 0, ..Default::default() })
            .unwrap();
        let wide: RunOutput<f64> = GpuDevice::default()
            .run(&c, &RunOptions { fusion_width: 5, sweep_width: 0, ..Default::default() })
            .unwrap();
        assert!(wide.stats.kernels_launched < narrow.stats.kernels_launched);
        assert_eq!(wide.stats.gates_applied, narrow.stats.gates_applied);
        assert!(wide.stats.bytes_touched < narrow.stats.bytes_touched);
        // `sweep_width: 0` groups nothing: every kernel is a pass of its own.
        assert_eq!(wide.stats.sweeps_executed, wide.stats.kernels_launched);
    }

    #[test]
    fn sweeps_reduce_state_passes_below_kernel_count() {
        // A QFT-shaped ladder: diagonal cr1 chains commute past the h
        // kernels, so the scheduler packs many kernels per pass.
        let n = 10u32;
        let mut c = Circuit::new(n);
        for i in (0..n).rev() {
            c.h(i);
            for j in (0..i).rev() {
                c.cr1(std::f64::consts::TAU / f64::powi(2.0, (i - j + 1) as i32), j, i);
            }
        }
        let fused: RunOutput<f64> = GpuDevice::default()
            .run(&c, &RunOptions { sweep_width: 0, ..Default::default() })
            .unwrap();
        let swept: RunOutput<f64> = GpuDevice::default()
            .run(&c, &RunOptions::default())
            .unwrap();
        assert!(swept.stats.sweeps_executed > 0);
        assert!(
            swept.stats.sweeps_executed < swept.stats.kernels_launched,
            "sweeps {} must undercut kernels {}",
            swept.stats.sweeps_executed,
            swept.stats.kernels_launched
        );
        assert_eq!(swept.stats.kernels_launched, fused.stats.kernels_launched);
        assert!(swept.stats.bytes_touched < fused.stats.bytes_touched);
        assert_eq!(swept.stats.flops, fused.stats.flops, "sweeping reorders, never re-does, arithmetic");
        let a = fused.state.unwrap();
        let b = swept.state.unwrap();
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }

    #[test]
    fn order_preserving_sweeps_are_bit_identical_to_plain_fused() {
        // With reorder off, sweeps only group adjacent kernels and the
        // tile arithmetic replays the full-state op sequence exactly —
        // results must match the plain fused path bit for bit.
        let mut circuits: Vec<Circuit> = [2u64, 9, 40].iter().map(|&s| rich_circuit(8, s)).collect();
        // n = 16, where a tile pass over the low qubits is many tiles in
        // pooled tasks ([`min_items`]): gates on the low six qubits alone
        // (multi-kernel sweeps, each a contiguous tile), then on all
        // sixteen (kernels above the cap, each a full-state pass of its
        // own), on a dense state.
        let mut wide = Circuit::new(16);
        for q in 0..16 {
            wide.h(q);
        }
        push_rich_gates(&mut wide, 6, 77);
        push_rich_gates(&mut wide, 16, 78);
        let program = qgear_ir::fusion::fuse(&wide, RunOptions::default().fusion_width);
        let opts = qgear_ir::schedule::SweepOptions { max_width: 6, reorder: false };
        let schedule = qgear_ir::schedule::sweeps(&program, &opts);
        let (tiled, alone): (Vec<&Sweep>, Vec<&Sweep>) =
            schedule.sweeps.iter().filter(|s| !s.diagonal).partition(|s| s.kernels.len() > 1);
        assert!(!tiled.is_empty(), "multi-kernel dense sweeps run");
        assert!(alone.iter().any(|s| s.qubits.iter().any(|&q| q >= 6)), "high kernels run alone");
        for s in &tiled {
            assert!(s.qubits.iter().all(|&q| q < 6), "dense sweep {:?} is not a low-prefix tile", s.qubits);
        }
        circuits.push(wide);
        for (i, c) in circuits.iter().enumerate() {
            let plain: RunOutput<f64> = GpuDevice::default()
                .run(c, &RunOptions { sweep_width: 0, ..Default::default() })
                .unwrap();
            let swept: RunOutput<f64> = GpuDevice::default()
                .run(c, &RunOptions { sweep_width: 6, sweep_reorder: false, ..Default::default() })
                .unwrap();
            let a = plain.state.unwrap();
            let b = swept.state.unwrap();
            for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
                assert!(x.re == y.re && x.im == y.im, "circuit {i}: sweep drift");
            }
        }
    }

    /// One width-5 fused block whose first `mu` local bits are mixed
    /// (random rotations and CXs among them) and whose other bits only
    /// ever control or phase, relabelled onto `qubits`.
    fn width5_block(mu: u32, qubits: &[u32; 5], seed: u64) -> FusedBlock {
        let mut s = seed | 1;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as f64 / (1u64 << 31) as f64 * std::f64::consts::TAU
        };
        let mut c = Circuit::new(5);
        for round in 0..3u32 {
            for q in 0..mu {
                c.u(rnd(), rnd(), rnd(), q);
                if mu > 1 {
                    c.cx(q, (q + 1 + round % (mu - 1)) % mu);
                }
            }
            for ctl in mu..5 {
                c.rz(rnd(), ctl).cx(ctl, (ctl + round) % mu).cr1(rnd(), ctl, ctl % mu);
            }
        }
        let mut blocks = qgear_ir::fusion::fuse(&c, 5).blocks;
        assert_eq!(blocks.len(), 1, "one width-5 kernel");
        let mut block = blocks.pop().unwrap();
        assert_eq!(block.mixing_mask().iter().filter(|&&m| m).count(), mu as usize);
        for q in &mut block.qubits {
            *q = qubits[*q as usize];
        }
        block
    }

    /// `u`'s group kernel as [`KernelPlan::new`] plans it, lanes allowed
    /// or forced off — what `set_simd_enabled` selects, without racing the
    /// process-wide toggle.
    fn group_plan<T: Scalar>(u: &FusedBlock, masks: &[usize], span: usize, simd: bool) -> KernelPlan<T> {
        assert_ne!(u.mixed(), 0, "not a diagonal block");
        KernelPlan::Grouped(GroupKernel::new(u, masks, span, simd))
    }

    /// `plan` through the full-state driver and through the tile driver
    /// with the whole state as the one tile: both outputs' bits.
    fn both_drivers<T: Scalar>(plan: &KernelPlan<T>, state: &[Complex<T>]) -> [Vec<u64>; 2] {
        let (mut full, mut tile) = (state.to_vec(), state.to_vec());
        plan.run_full(&mut full);
        plan.run_tile(&mut tile);
        [bits(&full), bits(&tile)]
    }

    fn bits<T: Scalar>(amps: &[Complex<T>]) -> Vec<u64> {
        amps.iter().flat_map(|a| [a.re.to_f64().to_bits(), a.im.to_f64().to_bits()]).collect()
    }

    fn layout<T: Scalar>(plan: &KernelPlan<T>) -> &'static str {
        let KernelPlan::Grouped(kernel) = plan else { panic!("a group kernel") };
        match &kernel.lanes {
            LaneLayout::Scalar => "scalar",
            LaneLayout::Lanes(_) if !kernel.lane_subs.is_empty() => "per-lane",
            LaneLayout::Lanes(split) if split.shape.1 == 0 => "contiguous",
            LaneLayout::Lanes(_) => "split",
        }
    }

    fn rich_state<T: Scalar>(n: u32) -> Vec<Complex<T>> {
        (0..1usize << n)
            .map(|i| Complex::new(T::from_f64((i as f64 * 0.37).sin()), T::from_f64((i as f64 * 0.11).cos())))
            .collect()
    }

    /// `block` on `n` qubits at precision `T`: lanes and scalar agree bit
    /// for bit, through both drivers. Returns the lane plan's layout.
    fn assert_lanes_are_the_scalar_chain<T: Scalar>(block: &FusedBlock, n: u32, what: &str) -> &'static str {
        let masks: Vec<usize> = block.qubits.iter().map(|&q| 1usize << q).collect();
        let state = rich_state::<T>(n);
        let on = group_plan::<T>(block, &masks, state.len(), true);
        let off = group_plan::<T>(block, &masks, state.len(), false);
        assert_eq!(layout(&off), "scalar");
        let ([full, tile], [off_full, off_tile]) = (both_drivers(&on, &state), both_drivers(&off, &state));
        let what = format!("{what} {}", T::PRECISION_NAME);
        assert!(full == tile, "{what}: full vs tile");
        assert!(off_full == off_tile, "{what}: full vs tile, scalar");
        assert!(full == off_full, "{what}: lanes vs scalar");
        layout(&on)
    }

    #[test]
    fn full_state_driver_and_tile_driver_are_one_body_bit_for_bit() {
        // n = 16: 512 KiB of fp32 state, 1 MiB of fp64 — 8 and 16 tasks of
        // `MIN_TASK_BYTES` whatever the item (group, lane block) weighs,
        // so on a multi-core host the full-state driver really runs pooled
        // on every placement.
        let n = 16;
        // Placements: low bits, high bits in ascending and in scrambled
        // local order, and high leading bits over low trailing ones (a low
        // mixed bit for the dense block, a low extract bit for the
        // factored ones). Every one has eleven spectator bits, so every
        // one runs on lanes — split where a kernel bit sits below the lane
        // width, or per lane where the unmixed bits cover it (qubits 0
        // and 1 at fp64 while μ ≤ 3).
        let placements: [([u32; 5], &str); 4] = [
            ([0, 1, 2, 7, 15], "split"),
            ([4, 6, 9, 11, 15], "contiguous"),
            ([15, 6, 11, 4, 9], "contiguous"),
            ([15, 14, 11, 1, 0], "split"),
        ];
        for mu in [5, 1, 3] {
            for (qubits, expect) in placements {
                let block = width5_block(mu, &qubits, 17 + mu as u64);
                let what = format!("μ={mu} on {qubits:?}");
                let fp64 = if qubits[3..] == [1, 0] && mu <= 3 { "per-lane" } else { expect };
                assert_eq!(assert_lanes_are_the_scalar_chain::<f64>(&block, n, &what), fp64, "{what}");
                assert_eq!(assert_lanes_are_the_scalar_chain::<f32>(&block, n, &what), expect, "{what}");
            }
        }
    }

    #[test]
    fn every_placement_class_runs_on_lanes_and_changes_no_bit() {
        // n = 14 (fp64: four pooled tasks), kernel-local bits 0..μ mixed,
        // the rest extract. Per class, the layout at (fp64, fp32).
        let classes: [(&str, [u32; 5], [&str; 2]); 7] = [
            ("all low", [0, 1, 2, 3, 4], ["split", "split"]),
            ("straddling, lane bits 0, 2, 4", [1, 3, 6, 9, 13], ["split", "split"]),
            ("above both lane widths", [4, 6, 9, 11, 13], ["contiguous", "contiguous"]),
            ("scrambled local order", [13, 6, 11, 4, 9], ["contiguous", "contiguous"]),
            ("extract bits below mixed bits", [13, 12, 11, 1, 0], ["split", "split"]),
            ("between the lane widths", [2, 5, 8, 10, 12], ["contiguous", "split"]),
            ("all high", [9, 10, 11, 12, 13], ["contiguous", "contiguous"]),
        ];
        for (class, qubits, expect) in classes {
            for mu in 1..=5 {
                let block = width5_block(mu, &qubits, 40 + mu as u64);
                let what = format!("{class}: μ={mu} on {qubits:?}");
                let got = [
                    assert_lanes_are_the_scalar_chain::<f64>(&block, 14, &what),
                    assert_lanes_are_the_scalar_chain::<f32>(&block, 14, &what),
                ];
                // Unmixed qubits 0 and 1 cover the fp64 lane bits while μ ≤ 3.
                let expect = if qubits[3..] == [1, 0] && mu <= 3 { ["per-lane", expect[1]] } else { expect };
                assert_eq!(got, expect, "{what}");
            }
        }
        // Scalar is what is left when the span has no bits to spare: a
        // width-5 kernel needs n = 7 for `f64x4` and n = 8 for `f32x8`.
        let block = width5_block(5, &[0, 1, 2, 3, 4], 45);
        for (n, expect) in [(6, ["scalar", "scalar"]), (7, ["split", "scalar"]), (8, ["split", "split"])] {
            let got = [
                assert_lanes_are_the_scalar_chain::<f64>(&block, n, "small span"),
                assert_lanes_are_the_scalar_chain::<f32>(&block, n, "small span"),
            ];
            assert_eq!(got, expect, "n = {n}");
        }
    }

    /// The split shape `(B, K)` of `block`'s lane plan on `n` qubits at
    /// precision `T`, after holding it bit for bit to the scalar chain.
    fn split_shape_of<T: Scalar>(block: &FusedBlock, n: u32, what: &str) -> (usize, usize) {
        assert_eq!(assert_lanes_are_the_scalar_chain::<T>(block, n, what), "split", "{what}");
        let masks: Vec<usize> = block.qubits.iter().map(|&q| 1usize << q).collect();
        let KernelPlan::Grouped(kernel) = group_plan::<T>(block, &masks, 1 << n, true) else { panic!("grouped") };
        let LaneLayout::Lanes(split) = &kernel.lanes else { panic!("{what}: on lanes") };
        split.shape
    }

    /// A block of `mu` mixed bits with every lane bit of precision `T` a
    /// kernel bit: lane bit 0 unmixed, the others mixed while `mu` lasts
    /// and unmixed after, the rest of the mixed bits from qubit 4 up. At
    /// `mu = 6` every bit is mixed, as a table of `2^u` sub-unitaries of
    /// `2^μ × 2^μ` holds `u + 2μ ≤ 2·MAX_FUSION_WIDTH`.
    fn controlled_on_the_lane_bits<T: Scalar>(mu: u32, rnd: &mut impl FnMut() -> f64) -> FusedBlock {
        let lanes = simd::lane_log2::<T>() as u32;
        let mixed_lanes = if mu == 6 { 0..lanes } else { 1..lanes.min(mu + 1) };
        let qubits: Vec<u32> = (0..lanes).chain(4..4 + mu - mixed_lanes.len() as u32).collect();
        let unmixed = (0..lanes).filter(|j| !mixed_lanes.contains(j)).fold(0, |acc, j| acc | 1 << j);
        let block = FusedBlock::from_dense(qubits.clone(), shaped_matrix(qubits.len(), Shape::Controlled(unmixed), rnd));
        assert_eq!(block.mixed().count_ones(), mu, "μ of {qubits:?}, unmixed {unmixed:#b}");
        block
    }

    #[test]
    fn row_blocked_lanes_are_the_scalar_chain_at_every_group_size() {
        // A dense `2^μ × 2^μ` block for every `2^μ` a kernel can have, 2
        // to 64 (width 6), with its qubits lowest (split lanes) and above
        // both lane widths (contiguous lanes): fewer rows than one row
        // block, exactly one, and many.
        let mut s = 0x5EED_u64;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        for mu in 1..=qgear_ir::fusion::MAX_FUSION_WIDTH as u32 {
            let table: Vec<C64> = (0..1usize << (2 * mu)).map(|_| C64::new(rnd(), rnd())).collect();
            for (low, expect) in [(0, "split"), (4, "contiguous")] {
                let block = FusedBlock::from_dense((low..low + mu).collect(), table.clone());
                assert_eq!(block.mixed(), (1 << mu) - 1);
                let what = format!("dense μ={mu} from qubit {low}");
                assert_eq!(assert_lanes_are_the_scalar_chain::<f64>(&block, 14, &what), expect);
                assert_eq!(assert_lanes_are_the_scalar_chain::<f32>(&block, 14, &what), expect);
            }
            // The one split body at this `2^μ` with several sub-unitaries
            // an item and groups of `LANES` vectors: every lane bit a
            // kernel bit, lane bit 0 unmixed (all mixed at μ = 6).
            let what = format!("controlled μ={mu} on the lane bits");
            let b64 = if mu == 6 { 1 } else { 2 };
            let b32 = match mu {
                1 => 4,
                6 => 1,
                _ => 2,
            };
            let fp64 = controlled_on_the_lane_bits::<f64>(mu, &mut rnd);
            assert_eq!(split_shape_of::<f64>(&fp64, 14, &what), (b64, 4), "{what} fp64");
            let fp32 = controlled_on_the_lane_bits::<f32>(mu, &mut rnd);
            assert_eq!(split_shape_of::<f32>(&fp32, 14, &what), (b32, 8), "{what} fp32");
        }
    }

    /// Every assignment of kernel bits — absent, mixed or unmixed — to the
    /// span's lowest `log2(LANES) + 1` bits, alone and with a mixed bit
    /// above them, at precision `T`: the lane plan through the full-state,
    /// tile and slice drivers is the scalar plan bit for bit, and it reads
    /// per-lane sub-unitaries when every lane bit is an unmixed kernel bit
    /// and splits when any other kernel bit is a lane bit.
    fn every_lane_bit_assignment_is_the_scalar_chain<T: Scalar>(rnd: &mut impl FnMut() -> f64) {
        let low = simd::lane_log2::<T>() + 1;
        let n = 10u32;
        let (state, slices) = (rich_state::<T>(n), 4);
        let slice = state.len() / slices;
        let mut split = 0;
        for code in 0..3usize.pow(low as u32) {
            // Digit `b` of `code` in base 3: bit `b` absent, mixed or unmixed.
            let digit = |b: usize| code / 3usize.pow(b as u32) % 3;
            for high in [None, Some(slice.trailing_zeros() as usize - 1)] {
                let positions: Vec<usize> = (0..low).filter(|&b| digit(b) != 0).chain(high).collect();
                let unmixed: usize =
                    positions.iter().enumerate().filter(|&(_, &p)| p < low && digit(p) == 2).fold(0, |acc, (j, _)| acc | 1 << j);
                let k = positions.len();
                if k == unmixed.count_ones() as usize {
                    continue; // nothing mixed: a diagonal table
                }
                let shape = if unmixed == 0 { Shape::Dense } else { Shape::Controlled(unmixed) };
                let block = FusedBlock::from_dense((0..k as u32).collect(), shaped_matrix(k, shape, rnd));
                assert_eq!(block.mixed(), (1 << k) - 1 - unmixed, "random entries mix every other bit");
                let masks: Vec<usize> = positions.iter().map(|&p| 1usize << p).collect();
                let what = format!("{} kernel bits {positions:?}, unmixed {unmixed:#b}", T::PRECISION_NAME);
                let on = group_plan::<T>(&block, &masks, state.len(), true);
                let lane_bit = positions.iter().any(|&p| p < low - 1);
                let per_lane = (0..low - 1).all(|b| digit(b) == 2);
                let expect = if per_lane { "per-lane" } else if lane_bit { "split" } else { "contiguous" };
                assert_eq!(layout(&on), expect, "{what}");
                split += usize::from(lane_bit);
                let mut want = state.clone();
                group_plan::<T>(&block, &masks, state.len(), false).run_tile(&mut want);
                let want = bits(&want);
                let [full, tile] = both_drivers(&on, &state);
                assert!(full == want, "{what}: run_full");
                assert!(tile == want, "{what}: run_tile");
                // One plan over every slice, as `apply_to_slices` runs it.
                let per_slice = group_plan::<T>(&block, &masks, slice, true);
                let mut sliced = state.clone();
                for s in sliced.chunks_mut(slice) {
                    per_slice.run_full(s);
                }
                assert!(bits(&sliced) == want, "{what}: slices");
            }
        }
        assert!(split > 3usize.pow(low as u32 - 1), "most assignments put a kernel bit on a lane bit");
    }

    #[test]
    fn every_kernel_bit_assignment_over_the_lane_bits_splits_in_registers_and_changes_no_bit() {
        let mut s = 0x5A17_u64;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        every_lane_bit_assignment_is_the_scalar_chain::<f64>(&mut rnd);
        every_lane_bit_assignment_is_the_scalar_chain::<f32>(&mut rnd);
    }

    /// Every set of diagonal kernel bits over the span's lowest
    /// `log2(LANES) + 1` bits, alone and with the span's top bit, through a
    /// [`DiagTable`] at a span below [`simd::DIAG_CHUNK`] and one above:
    /// the scalar `amp * d[local]` bit for bit.
    fn every_lane_bit_assignment_of_a_diagonal<T: Scalar>() {
        let low = simd::lane_log2::<T>() + 1;
        for n in [10u32, 13] {
            let state = rich_state::<T>(n);
            for code in 1..1usize << low {
                for high in [None, Some(n as usize - 1)] {
                    let positions: Vec<usize> = (0..low).filter(|&b| code >> b & 1 == 1).chain(high).collect();
                    let masks: Vec<usize> = positions.iter().map(|&p| 1usize << p).collect();
                    let d: Vec<Complex<T>> =
                        (0..1usize << masks.len()).map(|i| C64::cis(0.7 + 1.3 * i as f64).cast()).collect();
                    let mut want = state.clone();
                    for (i, amp) in want.iter_mut().enumerate() {
                        let local: usize = masks.iter().enumerate().filter(|&(_, &m)| i & m != 0).map(|(j, _)| 1 << j).sum();
                        *amp *= d[local];
                    }
                    let table = DiagTable::build(d, &masks, state.len());
                    assert!((state.len() > simd::DIAG_CHUNK) == (table.chunk() < state.len()));
                    let mut got = state.clone();
                    for (ci, cs) in got.chunks_mut(table.chunk()).enumerate() {
                        table.apply(cs, ci * table.chunk());
                    }
                    assert!(bits(&got) == bits(&want), "{} n={n} diagonal bits {positions:?}", T::PRECISION_NAME);
                }
            }
        }
    }

    #[test]
    fn every_diagonal_bit_assignment_over_the_lane_bits_changes_no_bit() {
        every_lane_bit_assignment_of_a_diagonal::<f64>();
        every_lane_bit_assignment_of_a_diagonal::<f32>();
    }

    #[test]
    fn an_unmixed_bit_flipping_inside_a_pooled_run_or_at_its_edge_changes_no_bit() {
        let mut s = 0xF11F_u64;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        // n = 16 at fp64: 1 MiB, sixteen pooled runs. A kernel mixing bit
        // 15 has items of `2^expand` amplitudes, `run` of them a task, and
        // item index bit `i` is the `i`-th span bit outside `expand`: the
        // one at `log2(run)` flips exactly where one run ends and the next
        // begins, the one three below flips every eight items inside a run.
        let n = 16;
        let mixed = 1usize << 15;
        let h = FusedBlock::from_dense(vec![0], shaped_matrix(1, Shape::Dense, &mut rnd));
        let KernelPlan::Grouped(probe) = group_plan::<f64>(&h, &[mixed], 1 << n, true) else { panic!("grouped") };
        let run = min_items::<f64>(1 << probe.expand.len());
        let free: Vec<usize> = (0..n).filter(|b| !probe.expand.contains(b)).collect();
        let edge = free[run.trailing_zeros() as usize];
        let inside = free[run.trailing_zeros() as usize - 3];
        assert!(run < (1 << n) >> probe.expand.len(), "several runs");
        let state = rich_state::<f64>(n as u32);
        for (what, unmixed) in [("inside a run", inside), ("at a run's edge", edge)] {
            let block = FusedBlock::from_dense(vec![0, 1], shaped_matrix(2, Shape::Controlled(0b10), &mut rnd));
            assert_eq!(block.mixed(), 0b01);
            let masks = [mixed, 1usize << unmixed];
            let on = group_plan::<f64>(&block, &masks, state.len(), true);
            let KernelPlan::Grouped(kernel) = &on else { panic!("grouped") };
            assert_eq!((&kernel.expand, kernel.unmixed), (&probe.expand, 1 << unmixed), "{what}: same items");
            let mut want = state.clone();
            group_plan::<f64>(&block, &masks, state.len(), false).run_tile(&mut want);
            let [full, tile] = both_drivers(&on, &state);
            assert!(full == bits(&want) && tile == bits(&want), "{what}: bit {unmixed}");
        }
    }

    /// A `2^k × 2^k` matrix of one structure class (not necessarily
    /// unitary — the kernels never ask). Entries outside the structure
    /// are exact zeros of either sign.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Dense,
        /// Block-diagonal over the local bits of this mask.
        Controlled(usize),
        /// One entry per column, unimodular.
        PhasedPermutation,
        /// A diagonal plus entries of `1e-14 … 1e-18`: nonzero, so every
        /// bit one of them crosses stays mixed.
        NearDiagonal,
    }

    fn shaped_matrix(k: usize, shape: Shape, rnd: &mut impl FnMut() -> f64) -> Vec<C64> {
        let dim = 1usize << k;
        let signed_zero = |negative: bool| if negative { -0.0 } else { 0.0 };
        let mut m: Vec<qgear_num::C64> = (0..dim * dim)
            .map(|i| qgear_num::C64::new(signed_zero((i / dim) & 1 == 1), signed_zero(i & 1 == 0)))
            .collect();
        match shape {
            Shape::Dense | Shape::Controlled(_) => {
                let unmixed = if let Shape::Controlled(mask) = shape { mask } else { 0 };
                for r in 0..dim {
                    for c in (0..dim).filter(|c| (r ^ c) & unmixed == 0) {
                        m[r * dim + c] = qgear_num::C64::new(rnd() - 0.5, rnd() - 0.5);
                    }
                }
            }
            Shape::PhasedPermutation => {
                let mut rows: Vec<usize> = (0..dim).collect();
                for i in (1..dim).rev() {
                    rows.swap(i, (rnd() * (i + 1) as f64) as usize);
                }
                if rows.iter().enumerate().all(|(c, &r)| r == c) {
                    rows.swap(0, 1);
                }
                for (c, &r) in rows.iter().enumerate() {
                    m[r * dim + c] = qgear_num::C64::cis(rnd() * std::f64::consts::TAU);
                }
            }
            Shape::NearDiagonal => {
                for i in 0..dim {
                    m[i * dim + i] = qgear_num::C64::cis(rnd() * std::f64::consts::TAU);
                }
                for c in 0..dim {
                    let r = (c + 1 + (rnd() * (dim - 1) as f64) as usize) % dim;
                    m[r * dim + c] = qgear_num::C64::new(10f64.powi(-14 - (c % 5) as i32), -1e-16);
                }
            }
        }
        m
    }

    /// The dense `2^k` chain of the row-major matrix `m` over `masks`:
    /// every output row one `mul_add` chain over all `2^k` columns in
    /// order, zero entries included. The bits of the result.
    fn dense_chain<T: Scalar>(m: &[C64], masks: &[usize], state: &[Complex<T>]) -> Vec<u64> {
        let dim = 1usize << masks.len();
        let m: Vec<Complex<T>> = m.iter().map(|e| e.cast()).collect();
        let offs = simd::local_offsets(masks);
        let support = masks.iter().fold(0usize, |acc, &x| acc | x);
        let mut out = state.to_vec();
        for base in (0..state.len()).filter(|b| b & support == 0) {
            for (r, row) in m.chunks_exact(dim).enumerate() {
                let mut acc = Complex::<T>::ZERO;
                for (e, &off) in row.iter().zip(&offs) {
                    acc = e.mul_add(state[base | off], acc);
                }
                out[base | offs[r]] = acc;
            }
        }
        bits(&out)
    }

    /// The plan of `from_dense(m)` against the dense chain of `m` on one
    /// state, every driver and lane form.
    fn assert_plan_is_the_dense_chain<T: Scalar>(
        m: &[C64],
        masks: &[usize],
        state: &[Complex<T>],
        what: &str,
    ) {
        let u = FusedBlock::from_dense((0..masks.len() as u32).collect(), m.to_vec());
        let dense = dense_chain(m, masks, state);
        for simd in [true, false] {
            let [full, tile] = both_drivers(&group_plan::<T>(&u, masks, state.len(), simd), state);
            assert!(full == dense, "{what}, simd {simd}: run_full");
            assert!(tile == dense, "{what}, simd {simd}: run_tile");
        }
    }

    #[test]
    fn the_exact_plan_skips_exact_zeros_and_changes_no_bit() {
        let mut s = 0x5EED_u64;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut case = 0u32;
        for k in 1..=5usize {
            let mut shapes = vec![Shape::Dense, Shape::NearDiagonal];
            if k >= 2 {
                shapes.push(Shape::PhasedPermutation);
                // 1 to min(4, k - 1) unmixed bits, at scattered local positions.
                for unmixed in 1..k.min(5) {
                    let mut mask = 0usize;
                    while mask.count_ones() < unmixed as u32 {
                        mask |= 1 << (rnd() * k as f64) as usize;
                    }
                    shapes.push(Shape::Controlled(mask));
                }
            }
            for shape in shapes {
                case += 1;
                let n = 8 + case % 7;
                let m = shaped_matrix(k, shape, &mut rnd);
                // Scattered positions, in no order.
                let mut positions: Vec<u32> = (0..n).collect();
                for i in (1..positions.len()).rev() {
                    positions.swap(i, (rnd() * (i + 1) as f64) as usize);
                }
                let masks: Vec<usize> = positions[..k].iter().map(|&q| 1usize << q).collect();
                // A rich state with exact zeros of both signs in it.
                let state: Vec<Complex<f64>> = (0..1usize << n)
                    .map(|i| {
                        let mut pick = |v: f64| match (rnd() * 8.0) as u32 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => v,
                        };
                        Complex::new(pick((i as f64 * 0.37).sin()), pick((i as f64 * 0.11).cos()))
                    })
                    .collect();
                let what = format!("k={k} {shape:?} at {:?} of n={n}", &positions[..k]);
                if let Shape::Controlled(unmixed) = shape {
                    let u = FusedBlock::from_dense((0..k as u32).collect(), m.clone());
                    let plan = KernelPlan::<f64>::new(&u, &masks, state.len());
                    let KernelPlan::Grouped(kernel) = plan else { panic!("{what}: grouped") };
                    let mixed = k - unmixed.count_ones() as usize;
                    assert_eq!(kernel.mdim, 1 << mixed, "{what}: factored");
                }
                assert_plan_is_the_dense_chain::<f64>(&m, &masks, &state, &what);
                let state32: Vec<Complex<f32>> = state.iter().map(|a| a.cast()).collect();
                assert_plan_is_the_dense_chain::<f32>(&m, &masks, &state32, &what);
            }
        }
    }

    #[test]
    fn an_entry_of_1e_minus_200_is_mixed_in_the_exact_plan() {
        // Block-diagonal over local bit 1 but for one entry whose norm
        // squares to zero — and which moves amplitude 2's 1e250 into
        // amplitude 0 as 1e50.
        let z = C64::ZERO;
        let e = |re: f64| C64::new(re, 0.0);
        #[rustfmt::skip]
        let m = vec![
            e(0.6), e(0.8), e(1e-200), z,
            e(-0.8), e(0.6), z, z,
            z, z, e(0.6), e(-0.8),
            z, z, e(0.8), e(0.6),
        ];
        let u = FusedBlock::from_dense(vec![0, 1], m.clone());
        assert_eq!(u.mixed(), 0b11);
        let masks = [1usize << 3, 1 << 6];
        let mut state: Vec<Complex<f64>> =
            (0..1 << 8).map(|i| Complex::new(f64::from(i), 0.5)).collect();
        state[1 << 6] = Complex::new(1e250, 0.0);
        let KernelPlan::Grouped(kernel) = KernelPlan::<f64>::new(&u, &masks, state.len())
        else { panic!("grouped") };
        assert_eq!(kernel.mdim, 4, "both bits mixed");
        assert_plan_is_the_dense_chain::<f64>(&m, &masks, &state, "1e-200");
        let mut out = state.clone();
        KernelPlan::<f64>::new(&u, &masks, state.len()).run_full(&mut out);
        assert!((out[0].re / 1e50 - 1.0).abs() < 1e-12, "the entry acted");
    }

    #[test]
    fn a_near_diagonal_block_is_grouped_over_the_bit_its_tiny_entry_crosses() {
        // A phase pattern but for one cross entry of 1e-16, which moves
        // amplitude 2's 1e10 into amplitude 0 as 1e-6: a tolerance of
        // 1e-15 would call the block diagonal and drop it.
        let z = C64::ZERO;
        let d = |t: f64| C64::cis(t);
        #[rustfmt::skip]
        let m = vec![
            d(0.1), z, C64::new(1e-16, 0.0), z,
            z, d(0.2), z, z,
            z, z, d(0.3), z,
            z, z, z, d(0.4),
        ];
        let u = FusedBlock::from_dense(vec![0, 1], m.clone());
        assert_eq!(u.mixed(), 0b10, "local bit 1 is crossed, bit 0 is not");
        let masks = [1usize << 3, 1 << 6];
        let mut state: Vec<Complex<f64>> =
            (0..1 << 8).map(|i| Complex::new(f64::from(i), 0.5)).collect();
        state[1 << 6] = Complex::new(1e10, 0.0);
        let KernelPlan::Grouped(kernel) = KernelPlan::<f64>::new(&u, &masks, state.len())
        else { panic!("grouped") };
        assert_eq!((kernel.mdim, &kernel.offs[..]), (2, &[0, 1usize << 6][..]), "grouped over bit 1");
        assert_plan_is_the_dense_chain::<f64>(&m, &masks, &state, "1e-16");
        let mut out = state.clone();
        KernelPlan::<f64>::new(&u, &masks, state.len()).run_full(&mut out);
        assert!(((out[0] - d(0.1) * state[0]).re / 1e-6 - 1.0).abs() < 1e-9, "the entry acted");
    }

    #[test]
    fn device_memory_is_default_limit() {
        // A tiny simulated device rejects an 18-qubit fp64 state (4 MiB).
        let tiny = GpuDevice { memory_bytes: 1 << 20, ..GpuDevice::a100_40gb() };
        let mut c = Circuit::new(18);
        c.h(0);
        let err = <GpuDevice as Simulator<f64>>::run(&tiny, &c, &RunOptions::default());
        assert!(matches!(err, Err(SimError::OutOfMemory { .. })));
        // Explicit memory_limit overrides the device bound.
        let opts = RunOptions { memory_limit: Some(u128::MAX), ..Default::default() };
        assert!(<GpuDevice as Simulator<f64>>::run(&tiny, &c, &opts).is_ok());
    }

    #[test]
    fn max_qubits_reproduces_paper_capacities() {
        // fp32 (8 B/amp): one 40 GB A100 holds 32 qubits, not 33 — §3.
        assert_eq!(GpuDevice::a100_40gb().max_qubits(8), 32);
        // fp64 halves it to 31.
        assert_eq!(GpuDevice::a100_40gb().max_qubits(16), 31);
        // 80 GB variant: 33 at fp32.
        assert_eq!(GpuDevice::a100_80gb().max_qubits(8), 33);
    }

    #[test]
    fn ccx_rejected_with_guidance() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let err = <GpuDevice as Simulator<f64>>::run(&GpuDevice::default(), &c, &RunOptions::default());
        assert!(matches!(err, Err(SimError::UnsupportedGate(_))));
    }

    #[test]
    fn sampling_ghz_state() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
        let opts = RunOptions { shots: 50_000, ..Default::default() };
        let out: RunOutput<f64> = GpuDevice::default().run(&c, &opts).unwrap();
        let counts = out.counts.unwrap();
        assert_eq!(counts.total(), 50_000);
        // Only |0000⟩ and |1111⟩ occur.
        assert_eq!(counts.get(0) + counts.get(0b1111), 50_000);
        assert!((counts.probability(0) - 0.5).abs() < 0.02);
    }

    #[test]
    fn fp32_run_close_to_fp64() {
        let c = rich_circuit(6, 5);
        let o32: RunOutput<f32> = GpuDevice::default().run(&c, &RunOptions::default()).unwrap();
        let o64: RunOutput<f64> = GpuDevice::default().run(&c, &RunOptions::default()).unwrap();
        let s32: StateVector<f64> = o32.state.unwrap().cast();
        assert!(o64.state.unwrap().fidelity(&s32) > 0.9999);
    }

    #[test]
    fn diagonal_fast_path_matches_reference() {
        // A cr1/rz ladder fuses into purely diagonal kernels; the fast
        // path must produce the same state as the oracle.
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q); // dense prologue so the diagonal acts on a rich state
        }
        for i in 0..5u32 {
            c.cr1(0.3 + i as f64 * 0.2, i, i + 1);
            c.rz(0.1 * i as f64, i);
        }
        let out: RunOutput<f64> = GpuDevice::a100_40gb()
            .run(&c, &RunOptions::default())
            .unwrap();
        let expect = reference::run(&c);
        assert!(max_deviation(out.state.unwrap().amplitudes(), &expect) < 1e-12);
    }

    #[test]
    fn diagonal_extraction_on_fused_ladder() {
        use qgear_ir::fusion;
        let mut c = Circuit::new(4);
        c.cr1(0.5, 0, 1).rz(0.2, 2).cr1(0.7, 2, 3).rz(-0.4, 0);
        let prog = fusion::fuse(&c, 4);
        assert_eq!(prog.blocks.len(), 1);
        assert_eq!(prog.blocks[0].mixed(), 0, "ladder is diagonal");
        let diag = prog.blocks[0].table();
        assert_eq!(diag.len(), 16);
        for z in diag {
            assert!((z.norm() - 1.0).abs() < 1e-13, "diagonal of a unitary is unimodular");
        }
    }

    #[test]
    fn stats_flops_scale_with_block_width() {
        let mut c = Circuit::new(6);
        c.h(0); // one 1-qubit block: 2 flops/amp
        let o1: RunOutput<f64> = GpuDevice::default()
            .run(&c, &RunOptions { fusion_width: 1, ..Default::default() })
            .unwrap();
        assert_eq!(o1.stats.flops, 64 * 2);
    }
}
