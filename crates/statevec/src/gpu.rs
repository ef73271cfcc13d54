//! The simulated-GPU engine.
//!
//! Plays the role of CUDA-Q's `nvidia` target on one A100: the circuit is
//! fused into dense kernels (§2.2 "kernel transformation"; Appendix D.2
//! `gate fusion = 5`) and each kernel sweeps the state vector
//! **data-parallel** — rayon worker tasks stand in for CUDA thread blocks,
//! with each task owning a disjoint set of amplitude groups exactly as a
//! thread block owns a tile of the state.
//!
//! Execution is bit-identical to sequential application of the same fused
//! kernels (each amplitude group is computed independently), so the
//! oracle tests compare against `qgear-ir`'s reference simulator directly.
//! The inner loops additionally run in explicit SIMD lane form
//! (`f64x4`/`f32x8`, see [`crate::simd`]) whenever a kernel's group
//! layout allows it; the lane kernels replicate the scalar complex
//! arithmetic operation-for-operation, so this too preserves bit
//! identity — `tests/differential.rs` pins it down by diffing whole runs
//! with SIMD forced off.
//!
//! The device also models the *structure* of a GPU — SM count, warp size,
//! per-kernel launch accounting — because the performance model in
//! `qgear-perfmodel` converts those counters into projected A100 timings.
//!
//! This module holds the device and its kernels only. The plan those
//! kernels execute, the loop that walks it and the stats it charges live
//! once, in [`crate::segment`]; [`Simulator::run`] here is one unbounded
//! segment of that stepper.

use crate::arena;
use crate::backend::{RunOptions, RunOutput, SimError, Simulator};
use crate::simd::{self, DiagTable};
use qgear_ir::fusion::{FusedBlock, KernelStructure};
use qgear_ir::schedule::Sweep;
use qgear_ir::Circuit;
use qgear_num::{Complex, Scalar};
use rayon::prelude::*;

/// Simulated GPU device description. Defaults model one NVIDIA A100
/// (Ampere: 108 SMs, 32-thread warps, 40 GB HBM2e as on Perlmutter's
/// original GPU partition).
#[derive(Debug, Clone)]
pub struct GpuDevice {
    /// Marketing name, for reports.
    pub name: String,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Threads per warp.
    pub warp_size: u32,
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
            sm_count: 108,
            warp_size: 32,
            memory_bytes: 40_000_000_000,
        }
    }

    /// The 80 GB HBM2e variant (`-C "gpu&hbm80g"`, Appendix E.3).
    pub fn a100_80gb() -> Self {
        GpuDevice {
            name: "NVIDIA A100 80GB (simulated)".to_owned(),
            sm_count: 108,
            warp_size: 32,
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
    /// Splits the `2^(n-k)` independent amplitude groups across rayon
    /// workers; each group gathers its `2^k` amplitudes, multiplies by the
    /// dense kernel, and scatters back. Groups are disjoint by
    /// construction, which is the safety argument for the shared-pointer
    /// write access below.
    pub fn apply_block<T: Scalar>(state: &mut [Complex<T>], block: &FusedBlock) {
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::APPLY_BLOCK);
        // Each kernel reads and writes every amplitude once.
        qgear_telemetry::counter_add(
            qgear_telemetry::names::AMPLITUDES_TOUCHED,
            2 * state.len() as u128,
        );
        let k = block.qubits.len();
        let dim = 1usize << k;
        debug_assert!(dim <= 64);
        // Diagonal fast path: fused phase ladders (QFT's cr1 chains, rz
        // runs) need no gather/scatter — one element-wise sweep, exactly
        // like a cuQuantum diagonal kernel. The precomputed DiagTable
        // replaces the per-amplitude mask-test loop with a table lookup
        // and multiplies `T::LANES` amplitudes per step.
        if let Some(diag) = block.unitary.diagonal(1e-15) {
            let d: Vec<Complex<T>> = diag.iter().map(|c| c.cast()).collect();
            let masks: Vec<usize> = block.qubits.iter().map(|&q| 1usize << q).collect();
            let table = DiagTable::build(d, &masks, state.len());
            simd::record_dispatch::<T>(simd::simd_enabled() && table.chunk() >= T::LANES);
            let chunk = table.chunk();
            state
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(ci, cs)| table.apply(cs, ci * chunk));
            return;
        }
        // Kernel matrix in execution precision.
        let m: Vec<Complex<T>> = block.unitary.elements().iter().map(|c| c.cast()).collect();
        // Sorted bit positions for group-index expansion.
        let mut sorted = block.qubits.clone();
        sorted.sort_unstable();
        // Masks in local-bit order (block.qubits[j] ↔ local bit j) and the
        // per-local-index address offsets they induce (hoisted out of the
        // per-group gather loop).
        let masks: Vec<usize> = block.qubits.iter().map(|&q| 1usize << q).collect();
        let offs = simd::local_offsets(&masks);
        let groups = state.len() >> k;
        let sorted_bits: Vec<usize> = sorted.iter().map(|&q| q as usize).collect();
        let vector = simd::simd_enabled() && simd::lanes_ok::<T>(&sorted_bits, groups);
        simd::record_dispatch::<T>(vector);

        let shared = SharedState(state.as_mut_ptr());
        let shared = &shared;
        let offs = &offs;
        let sorted = &sorted;
        if vector {
            // Lane path: with every block qubit at or above the lane
            // width, `T::LANES` consecutive groups sit at consecutive
            // addresses — one lane vector per matrix column, same
            // accumulation order as the scalar loop, bitwise identical.
            let msplat = simd::splat_all::<T>(&m);
            let msplat = &msplat;
            (0..groups / T::LANES).into_par_iter().for_each(move |gb| {
                let mut base = gb * T::LANES;
                for &q in sorted {
                    let low = base & ((1usize << q) - 1);
                    base = ((base >> q) << (q + 1)) | low;
                }
                // SAFETY: distinct groups expand to disjoint index sets
                // (zero bits reinserted at every block qubit position), so
                // lane blocks never alias each other.
                unsafe { simd::dense_block_lanes::<T>(shared.0, base, msplat, dim, offs) };
            });
            return;
        }
        (0..groups).into_par_iter().for_each(move |g| {
            // Expand the group index around the block's qubit bits.
            let mut base = g;
            for &q in sorted {
                let low = base & ((1usize << q) - 1);
                base = ((base >> q) << (q + 1)) | low;
            }
            // Gather.
            let mut scratch = [Complex::<T>::ZERO; 64];
            for local in 0..dim {
                // SAFETY: every index derived from a distinct group `g` is
                // distinct: `base` reinserts zero bits at the block qubit
                // positions, so two groups never share any gathered index.
                scratch[local] = unsafe { shared.read(base | offs[local]) };
            }
            // Multiply + scatter.
            for (local, row) in m.chunks_exact(dim).enumerate() {
                let mut acc = Complex::<T>::ZERO;
                for c in 0..dim {
                    acc = row[c].mul_add(scratch[c], acc);
                }
                // SAFETY: same disjointness argument as the gather.
                unsafe { shared.write(base | offs[local], acc) };
            }
        });
    }

    /// Execute one fused block through the kernel matching its structure
    /// class — the planner's "fused stops meaning dense `2^k` apply"
    /// dispatch (see [`KernelStructure`] and `crate::planner`).
    ///
    /// `Diagonal` and `Dense` fall through to [`GpuDevice::apply_block`]
    /// (which already has the element-wise diagonal fast path);
    /// `Permutation` runs a gather/permute/scatter pass with one complex
    /// multiply per amplitude; `Controlled` runs the block-diagonal
    /// factorization over the full state, cutting per-amplitude cost from
    /// `2^k` to `2^μ` mul-adds. All four dispatch targets apply the same
    /// unitary: results agree with the dense kernel to the structure
    /// classifier's tolerance (1e-15, far below engine agreement bounds).
    pub fn apply_block_structured<T: Scalar>(
        state: &mut [Complex<T>],
        block: &FusedBlock,
        structure: &KernelStructure,
    ) {
        match structure {
            KernelStructure::Diagonal | KernelStructure::Dense => {
                GpuDevice::apply_block(state, block);
            }
            KernelStructure::Permutation(perm) => {
                GpuDevice::apply_block_permutation(state, block, perm);
            }
            KernelStructure::Controlled { mixing } => {
                GpuDevice::apply_block_controlled(state, block, mixing);
            }
        }
    }

    /// Permutation kernel: the fused block's matrix has exactly one
    /// nonzero per column (X/CX/SWAP ladders, optionally with phases).
    /// Where the structure dispatch sends `Dense` blocks through the
    /// `2^k`-wide mul-add accumulation (scalar or SIMD-lane form, see
    /// [`crate::simd`]), a permutation block reduces to an index shuffle
    /// plus one complex multiply per amplitude; the lane path performs
    /// that shuffle on `T::LANES` amplitude groups per step when every
    /// block qubit clears the lane width, and falls back to the scalar
    /// shuffle otherwise.
    fn apply_block_permutation<T: Scalar>(
        state: &mut [Complex<T>],
        block: &FusedBlock,
        perm: &[(usize, qgear_num::C64)],
    ) {
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::APPLY_BLOCK);
        qgear_telemetry::counter_add(
            qgear_telemetry::names::AMPLITUDES_TOUCHED,
            2 * state.len() as u128,
        );
        let k = block.qubits.len();
        let dim = 1usize << k;
        debug_assert!(dim <= 64);
        // Column `c` maps to row `rows[c]` with weight `phases[c]`.
        let rows: Vec<usize> = perm.iter().map(|&(r, _)| r).collect();
        let phases: Vec<Complex<T>> = perm.iter().map(|&(_, p)| p.cast()).collect();
        let mut sorted = block.qubits.clone();
        sorted.sort_unstable();
        let masks: Vec<usize> = block.qubits.iter().map(|&q| 1usize << q).collect();
        let offs = simd::local_offsets(&masks);
        let groups = state.len() >> k;
        let sorted_bits: Vec<usize> = sorted.iter().map(|&q| q as usize).collect();
        let vector = simd::simd_enabled() && simd::lanes_ok::<T>(&sorted_bits, groups);
        simd::record_dispatch::<T>(vector);

        let shared = SharedState(state.as_mut_ptr());
        let shared = &shared;
        let rows = &rows;
        let offs = &offs;
        let sorted = &sorted;
        if vector {
            let phase_splat = simd::splat_all::<T>(&phases);
            let phase_splat = &phase_splat;
            (0..groups / T::LANES).into_par_iter().for_each(move |gb| {
                let mut base = gb * T::LANES;
                for &q in sorted {
                    let low = base & ((1usize << q) - 1);
                    base = ((base >> q) << (q + 1)) | low;
                }
                // SAFETY: group-disjoint lane blocks, as in `apply_block`.
                unsafe {
                    simd::perm_block_lanes::<T>(shared.0, base, phase_splat, rows, dim, offs)
                };
            });
            return;
        }
        let phases = &phases;
        (0..groups).into_par_iter().for_each(move |g| {
            let mut base = g;
            for &q in sorted {
                let low = base & ((1usize << q) - 1);
                base = ((base >> q) << (q + 1)) | low;
            }
            let mut scratch = [Complex::<T>::ZERO; 64];
            for local in 0..dim {
                // SAFETY: group-disjoint indices, as in `apply_block`.
                scratch[local] = unsafe { shared.read(base | offs[local]) };
            }
            for c in 0..dim {
                // SAFETY: same disjointness argument as the gather.
                unsafe { shared.write(base | offs[rows[c]], phases[c] * scratch[c]) };
            }
        });
    }

    /// Controlled-structure kernel: the block mixes only `μ < k` of its
    /// qubits ([`FusedBlock::mixing_mask`]), so it factors into `2^(k-μ)`
    /// independent `2^μ × 2^μ` sub-unitaries indexed by the unmixed
    /// (control/phase) bits — the full-state analogue of the sweep path's
    /// `KernelPlan::Factored`, built by the same factorization.
    fn apply_block_controlled<T: Scalar>(
        state: &mut [Complex<T>],
        block: &FusedBlock,
        mixing: &[bool],
    ) {
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::APPLY_BLOCK);
        qgear_telemetry::counter_add(
            qgear_telemetry::names::AMPLITUDES_TOUCHED,
            2 * state.len() as u128,
        );
        // Global bit masks (the factorization is mask-space agnostic: it
        // works identically on tile slots and global indices).
        let masks: Vec<usize> = block.qubits.iter().map(|&q| 1usize << q).collect();
        let KernelPlan::Factored { subs, subs_splat, offs, sorted_mixed, diag_extract, min_extract_bit, mdim } =
            KernelPlan::<T>::factored(block, mixing, &masks)
        else {
            unreachable!("factored() always builds KernelPlan::Factored")
        };
        let mu = sorted_mixed.len();
        debug_assert!(mdim <= 64);
        let groups = state.len() >> mu;
        // Lane path needs both the mixed bits (address contiguity of
        // consecutive groups) and the extract bits (a lane-uniform
        // sub-unitary index) to clear the lane width.
        let vector = simd::simd_enabled()
            && simd::lanes_ok::<T>(&sorted_mixed, groups)
            && min_extract_bit >= simd::lane_log2::<T>();
        simd::record_dispatch::<T>(vector);

        let shared = SharedState(state.as_mut_ptr());
        let shared = &shared;
        let subs = &subs;
        let subs_splat = &subs_splat;
        let offs = &offs;
        let sorted_mixed = &sorted_mixed;
        let diag_extract = &diag_extract;
        if vector {
            (0..groups / T::LANES).into_par_iter().for_each(move |gb| {
                let mut base = gb * T::LANES;
                for &p in sorted_mixed {
                    let low = base & ((1usize << p) - 1);
                    base = ((base >> p) << (p + 1)) | low;
                }
                // Every extract bit clears the lane width, so the whole
                // lane block shares one sub-unitary.
                let mut d = 0usize;
                for &(mask, weight) in diag_extract {
                    if base & mask != 0 {
                        d |= weight;
                    }
                }
                // SAFETY: group-disjoint lane blocks — zero bits are
                // reinserted at every mixed position, as in `apply_block`.
                unsafe {
                    simd::dense_block_lanes::<T>(shared.0, base, &subs_splat[d], mdim, offs)
                };
            });
            return;
        }
        (0..groups).into_par_iter().for_each(move |g| {
            // Expand the group index around the mixed bits; the base then
            // carries every assignment of the unmixed bits.
            let mut base = g;
            for &p in sorted_mixed {
                let low = base & ((1usize << p) - 1);
                base = ((base >> p) << (p + 1)) | low;
            }
            let mut d = 0usize;
            for &(mask, weight) in diag_extract {
                if base & mask != 0 {
                    d |= weight;
                }
            }
            let sub = &subs[d];
            let mut scratch = [Complex::<T>::ZERO; 64];
            for a in 0..mdim {
                // SAFETY: groups expand to disjoint index sets (zero bits
                // reinserted at every mixed position), so tasks never
                // alias — same argument as `apply_block`.
                scratch[a] = unsafe { shared.read(base | offs[a]) };
            }
            for (r, row) in sub.chunks_exact(mdim).enumerate() {
                let mut acc = Complex::<T>::ZERO;
                for c in 0..mdim {
                    acc = row[c].mul_add(scratch[c], acc);
                }
                // SAFETY: same disjointness argument as the gather.
                unsafe { shared.write(base | offs[r], acc) };
            }
        });
    }

    /// Execute one scheduled sweep — several mutually-reorderable fused
    /// kernels — in a single cache-blocked pass over the state.
    ///
    /// This is the sweep-fusion analogue of CUDA shared-memory tiling:
    /// each rayon task gathers one `2^u`-amplitude tile (`u` = the
    /// sweep's union support) into a scratch buffer sized to stay
    /// cache-resident, applies *every* kernel of the sweep to the tile
    /// while it is hot, then scatters once. DRAM-level traffic is one
    /// read + one write of the state per *sweep* instead of per kernel.
    ///
    /// `exact` selects the tile arithmetic. When `true` (order-preserving
    /// schedules), each kernel runs the same `mul_add` accumulation as
    /// [`GpuDevice::apply_block`], so sweep execution is **bit-identical**
    /// to applying the sweep's kernels sequentially over the full state in
    /// the same order. When `false` (the default reordering schedules,
    /// which already only agree up to round-off), each kernel is instead
    /// applied through its block-diagonal factorization: a kernel of width
    /// `k` that mixes only `μ` of its qubits ([`FusedBlock::mixing_mask`])
    /// splits into `2^(k-μ)` independent `2^μ × 2^μ` sub-unitaries indexed
    /// by the unmixed (control/phase) bits, cutting the per-amplitude cost
    /// from `2^k` to `2^μ` mul-adds — 16× for QFT kernels, which mix only
    /// the single `h` qubit of each block.
    pub fn apply_sweep<T: Scalar>(
        state: &mut [Complex<T>],
        blocks: &[FusedBlock],
        sweep: &Sweep,
        exact: bool,
    ) {
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
        // All-diagonal sweeps need no gather/scatter at any width: one
        // element-wise pass applies every phase pattern in order. Each
        // kernel gets its own DiagTable; applying the tables kernel-major
        // per chunk keeps every amplitude's multiplies in sweep order, so
        // the pass stays bit-identical to sequential application.
        if sweep.diagonal {
            let tables: Vec<DiagTable<T>> = sweep
                .kernels
                .iter()
                .map(|&ki| {
                    let b = &blocks[ki];
                    let diag = b.unitary.diagonal(1e-15).expect("diagonal sweep member");
                    let masks: Vec<usize> = b.qubits.iter().map(|&q| 1usize << q).collect();
                    DiagTable::build(diag.iter().map(|c| c.cast()).collect(), &masks, state.len())
                })
                .collect();
            let chunk = tables.first().map_or(state.len(), |t| t.chunk());
            for t in &tables {
                simd::record_dispatch::<T>(simd::simd_enabled() && t.chunk() >= T::LANES);
            }
            state.par_chunks_mut(chunk).enumerate().for_each(|(ci, cs)| {
                for t in &tables {
                    t.apply(cs, ci * chunk);
                }
            });
            return;
        }

        let u = sweep.qubits.len();
        let tile = 1usize << u;
        debug_assert!(tile <= state.len());
        // Scratch-slot position of a sweep qubit (sweep.qubits is sorted).
        let pos = |q: u32| sweep.qubits.iter().position(|&x| x == q).expect("kernel qubit in sweep");
        let plans: Vec<KernelPlan<T>> = sweep
            .kernels
            .iter()
            .map(|&ki| {
                let b = &blocks[ki];
                let masks: Vec<usize> = b.qubits.iter().map(|&q| 1usize << pos(q)).collect();
                if let Some(diag) = b.unitary.diagonal(1e-15) {
                    return KernelPlan::diag(diag.iter().map(|c| c.cast()).collect(), &masks, tile);
                }
                let k = b.qubits.len();
                let mixing = b.mixing_mask();
                let mu = mixing.iter().filter(|&&m| m).count();
                if !exact && mu < k {
                    return KernelPlan::factored(b, &mixing, &masks);
                }
                KernelPlan::dense(b.unitary.elements().iter().map(|c| c.cast()).collect(), &masks)
            })
            .collect();
        for plan in &plans {
            simd::record_dispatch::<T>(plan.lane_eligible(tile));
        }
        let groups = state.len() >> u;

        // Zero-copy fast path: when the sweep's union support is exactly
        // the low `u` qubits, slot `j` of tile `g` *is* amplitude
        // `g·2^u + j` — the tile is a contiguous slice of the state, so
        // the kernels run in place and the gather/scatter round-trip
        // through scratch disappears.
        if sweep.qubits.iter().enumerate().all(|(j, &q)| q as usize == j) {
            qgear_telemetry::counter_add(
                qgear_telemetry::names::SWEEP_ZERO_COPY_TILES,
                groups as u128,
            );
            let plans = &plans;
            state.par_chunks_mut(tile).for_each(|tile_slice| {
                for plan in plans {
                    plan.apply(tile_slice, tile);
                }
            });
            return;
        }

        // Tile-slot → global-offset table: slot bit `j` lives at global
        // bit `sweep.qubits[j]`. Built once per sweep, shared read-only.
        let mut offs = vec![0usize; tile];
        for (j, &q) in sweep.qubits.iter().enumerate() {
            let bit = 1usize << q;
            for i in 0..(1usize << j) {
                offs[(1usize << j) | i] = offs[i] | bit;
            }
        }

        let shared = SharedState(state.as_mut_ptr());
        let shared = &shared;
        let plans = &plans;
        let offs = &offs;
        let union_qubits = &sweep.qubits;
        (0..groups).into_par_iter().for_each(move |g| {
            // Tile scratch comes from the per-thread arena: one aligned
            // buffer per worker is reused across every tile, sweep,
            // segment, and batch member of this size (scratch.reuse).
            arena::with_scratch::<T, _>(tile, |scratch| {
                // Expand the tile index around the union's qubit bits.
                let mut base = g;
                for &q in union_qubits {
                    let low = base & ((1usize << q) - 1);
                    base = ((base >> q) << (q + 1)) | low;
                }
                // Gather the tile. SAFETY: distinct `g` values produce
                // disjoint index sets (zero bits are reinserted at every
                // union qubit position), so tasks never alias.
                for (slot, &off) in offs.iter().enumerate() {
                    scratch[slot] = unsafe { shared.read(base | off) };
                }
                // Apply every kernel while the tile is hot.
                for plan in plans {
                    plan.apply(scratch, tile);
                }
                // Scatter once. SAFETY: same disjointness argument.
                for (slot, &off) in offs.iter().enumerate() {
                    unsafe { shared.write(base | off, scratch[slot]) };
                }
            });
        });
    }
}

/// One kernel's precomputed application plan inside a sweep tile: the
/// matrix (or diagonal) in execution precision plus its qubit positions
/// remapped into tile-slot space. Everything derivable once per kernel —
/// local-index address offsets, lane-splatted matrix entries, diagonal
/// lookup tables — is computed at build time and shared read-only across
/// every tile and worker.
enum KernelPlan<T: Scalar> {
    /// Pure phase pattern: element-wise multiply, no data movement.
    Diag {
        /// Precomputed chunked lookup table (see [`DiagTable`]).
        table: DiagTable<T>,
    },
    /// Dense kernel: gather/apply/scatter over tile sub-groups.
    Dense {
        /// Row-major kernel matrix in execution precision (scalar path).
        m: Vec<Complex<T>>,
        /// The same matrix with every entry pre-broadcast to a lane
        /// vector (lane path).
        msplat: Vec<<T as Scalar>::Lanes>,
        /// Address offset of each kernel-local index inside a tile.
        offs: Vec<usize>,
        /// Tile-slot positions of the kernel's qubits, ascending (for
        /// sub-group index expansion).
        sorted_local: Vec<usize>,
        /// Kernel dimension `2^k`.
        dim: usize,
    },
    /// Block-diagonal kernel factored over its unmixed (control/phase)
    /// bits: one `2^μ × 2^μ` sub-unitary per assignment of the unmixed
    /// bits, applied to the `μ` mixed bits only. Per-amplitude cost is
    /// `2^μ` mul-adds instead of the dense `2^k`.
    Factored {
        /// Sub-unitaries, row-major `2^μ × 2^μ`, indexed by the unmixed
        /// bits packed in kernel-local order.
        subs: Vec<Vec<Complex<T>>>,
        /// Lane-splatted sub-unitaries (lane path).
        subs_splat: Vec<Vec<<T as Scalar>::Lanes>>,
        /// Address offset of each mixed-bit local index.
        offs: Vec<usize>,
        /// Tile-slot positions of the mixed bits, ascending (sub-group
        /// index expansion).
        sorted_mixed: Vec<usize>,
        /// `(tile-slot mask, packed weight)` pairs extracting the
        /// sub-unitary index from a sub-group base slot.
        diag_extract: Vec<(usize, usize)>,
        /// Lowest bit position among the extract masks (`usize::MAX` when
        /// there are none): the lane path needs it to clear the lane
        /// width so one sub-unitary serves the whole lane block.
        min_extract_bit: usize,
        /// Sub-unitary dimension `2^μ`.
        mdim: usize,
    },
}

impl<T: Scalar> KernelPlan<T> {
    /// Diagonal kernel plan over spans of `span` amplitudes/slots.
    fn diag(d: Vec<Complex<T>>, masks: &[usize], span: usize) -> Self {
        KernelPlan::Diag { table: DiagTable::build(d, masks, span) }
    }

    /// Dense kernel plan. `masks[j]` is the tile-slot mask of
    /// kernel-local bit `j`; the matrix is row-major `2^k × 2^k`.
    fn dense(m: Vec<Complex<T>>, masks: &[usize]) -> Self {
        let mut sorted_local: Vec<usize> =
            masks.iter().map(|&mask| mask.trailing_zeros() as usize).collect();
        sorted_local.sort_unstable();
        KernelPlan::Dense {
            msplat: simd::splat_all::<T>(&m),
            offs: simd::local_offsets(masks),
            dim: 1usize << masks.len(),
            m,
            sorted_local,
        }
    }

    /// Build the block-diagonal factorization of a kernel that mixes only
    /// some of its qubits. `mixing` is the kernel-local mixing mask and
    /// `masks[j]` the tile-slot mask of kernel-local bit `j`. The dropped
    /// cross-block matrix entries are below the `mixing_mask` tolerance
    /// (1e-12), so the factored product matches the dense one to well
    /// under the engines' agreement tolerance.
    fn factored(b: &FusedBlock, mixing: &[bool], masks: &[usize]) -> Self {
        let k = b.qubits.len();
        let dim = 1usize << k;
        let mixed_bits: Vec<usize> = (0..k).filter(|&j| mixing[j]).collect();
        let diag_bits: Vec<usize> = (0..k).filter(|&j| !mixing[j]).collect();
        let mdim = 1usize << mixed_bits.len();
        // Kernel-local index with assignment `d` on the unmixed bits and
        // `a` on the mixed bits.
        let expand = |d: usize, a: usize| -> usize {
            let mut i = 0usize;
            for (t, &j) in diag_bits.iter().enumerate() {
                if d & (1 << t) != 0 {
                    i |= 1 << j;
                }
            }
            for (t, &j) in mixed_bits.iter().enumerate() {
                if a & (1 << t) != 0 {
                    i |= 1 << j;
                }
            }
            i
        };
        let u = b.unitary.elements();
        let subs: Vec<Vec<Complex<T>>> = (0..dim >> mixed_bits.len())
            .map(|d| {
                let mut sub = Vec::with_capacity(mdim * mdim);
                for r in 0..mdim {
                    let row = expand(d, r) * dim;
                    for c in 0..mdim {
                        sub.push(u[row + expand(d, c)].cast());
                    }
                }
                sub
            })
            .collect();
        let mut sorted_mixed: Vec<usize> =
            mixed_bits.iter().map(|&j| masks[j].trailing_zeros() as usize).collect();
        sorted_mixed.sort_unstable();
        let mixed_masks: Vec<usize> = mixed_bits.iter().map(|&j| masks[j]).collect();
        let diag_extract: Vec<(usize, usize)> = diag_bits
            .iter()
            .enumerate()
            .map(|(t, &j)| (masks[j], 1usize << t))
            .collect();
        KernelPlan::Factored {
            subs_splat: subs.iter().map(|sub| simd::splat_all::<T>(sub)).collect(),
            offs: simd::local_offsets(&mixed_masks),
            min_extract_bit: diag_extract
                .iter()
                .map(|&(mask, _)| mask.trailing_zeros() as usize)
                .min()
                .unwrap_or(usize::MAX),
            subs,
            sorted_mixed,
            diag_extract,
            mdim,
        }
    }

    /// True when [`KernelPlan::apply`] over a `tile`-slot span will take
    /// the SIMD lane path under the current toggle state (telemetry
    /// dispatch accounting).
    fn lane_eligible(&self, tile: usize) -> bool {
        if !simd::simd_enabled() {
            return false;
        }
        match self {
            KernelPlan::Diag { table } => table.chunk() >= T::LANES,
            KernelPlan::Dense { sorted_local, .. } => {
                simd::lanes_ok::<T>(sorted_local, tile >> sorted_local.len())
            }
            KernelPlan::Factored { sorted_mixed, min_extract_bit, .. } => {
                simd::lanes_ok::<T>(sorted_mixed, tile >> sorted_mixed.len())
                    && *min_extract_bit >= simd::lane_log2::<T>()
            }
        }
    }

    /// Apply this kernel to a gathered tile, in place. `Diag` and `Dense`
    /// arithmetic is bit-identical to the full-state paths in
    /// `apply_block` (on both the scalar and lane paths, which are
    /// themselves bitwise identical); `Factored` agrees to the
    /// factorization tolerance.
    fn apply(&self, scratch: &mut [Complex<T>], tile: usize) {
        let vector = self.lane_eligible(tile);
        match self {
            KernelPlan::Diag { table } => table.apply(scratch, 0),
            KernelPlan::Dense { m, msplat, offs, sorted_local, dim } => {
                let dim = *dim;
                let sub_groups = tile >> sorted_local.len();
                if vector {
                    let ptr = scratch.as_mut_ptr();
                    for sgb in 0..sub_groups / T::LANES {
                        let mut sbase = sgb * T::LANES;
                        for &p in sorted_local {
                            let low = sbase & ((1usize << p) - 1);
                            sbase = ((sbase >> p) << (p + 1)) | low;
                        }
                        // SAFETY: every touched slot `sbase | offs[c] + l`
                        // lies inside this exclusively borrowed tile, and
                        // sub-groups are disjoint.
                        unsafe { simd::dense_block_lanes::<T>(ptr, sbase, msplat, dim, offs) };
                    }
                    return;
                }
                for sg in 0..sub_groups {
                    let mut sbase = sg;
                    for &p in sorted_local {
                        let low = sbase & ((1usize << p) - 1);
                        sbase = ((sbase >> p) << (p + 1)) | low;
                    }
                    let mut tmp = [Complex::<T>::ZERO; 64];
                    for local in 0..dim {
                        tmp[local] = scratch[sbase | offs[local]];
                    }
                    for (local, row) in m.chunks_exact(dim).enumerate() {
                        let mut acc = Complex::<T>::ZERO;
                        for c in 0..dim {
                            acc = row[c].mul_add(tmp[c], acc);
                        }
                        scratch[sbase | offs[local]] = acc;
                    }
                }
            }
            KernelPlan::Factored {
                subs, subs_splat, offs, sorted_mixed, diag_extract, mdim, ..
            } => {
                let mdim = *mdim;
                let sub_groups = tile >> sorted_mixed.len();
                if vector {
                    let ptr = scratch.as_mut_ptr();
                    for sgb in 0..sub_groups / T::LANES {
                        let mut base = sgb * T::LANES;
                        for &p in sorted_mixed {
                            let low = base & ((1usize << p) - 1);
                            base = ((base >> p) << (p + 1)) | low;
                        }
                        let mut d = 0usize;
                        for &(mask, weight) in diag_extract {
                            if base & mask != 0 {
                                d |= weight;
                            }
                        }
                        // SAFETY: as in the Dense lane arm — in-tile,
                        // disjoint sub-groups, exclusive borrow.
                        unsafe {
                            simd::dense_block_lanes::<T>(ptr, base, &subs_splat[d], mdim, offs)
                        };
                    }
                    return;
                }
                for sg in 0..sub_groups {
                    // Expand the sub-group index around the mixed slots;
                    // the base ranges over every assignment of the other
                    // tile slots, including this kernel's unmixed bits.
                    let mut base = sg;
                    for &p in sorted_mixed {
                        let low = base & ((1usize << p) - 1);
                        base = ((base >> p) << (p + 1)) | low;
                    }
                    // The unmixed-bit assignment picks the sub-unitary.
                    let mut d = 0usize;
                    for &(mask, weight) in diag_extract {
                        if base & mask != 0 {
                            d |= weight;
                        }
                    }
                    let sub = &subs[d];
                    let mut tmp = [Complex::<T>::ZERO; 64];
                    for a in 0..mdim {
                        tmp[a] = scratch[base | offs[a]];
                    }
                    for (r, row) in sub.chunks_exact(mdim).enumerate() {
                        let mut acc = Complex::<T>::ZERO;
                        for c in 0..mdim {
                            acc = row[c].mul_add(tmp[c], acc);
                        }
                        scratch[base | offs[r]] = acc;
                    }
                }
            }
        }
    }
}

/// Raw shared pointer wrapper used to hand disjoint slices of the state to
/// rayon tasks. All writes go to group-disjoint indices (see
/// [`GpuDevice::apply_block`]), so no two tasks alias.
struct SharedState<T>(*mut Complex<T>);
unsafe impl<T> Send for SharedState<T> {}
unsafe impl<T> Sync for SharedState<T> {}

impl<T: Scalar> SharedState<T> {
    /// SAFETY: caller guarantees `i` is in bounds and no concurrent task
    /// writes the same index.
    #[inline(always)]
    unsafe fn read(&self, i: usize) -> Complex<T> {
        *self.0.add(i)
    }

    /// SAFETY: caller guarantees `i` is in bounds and uniquely owned by the
    /// calling task for the duration of the kernel.
    #[inline(always)]
    unsafe fn write(&self, i: usize, v: Complex<T>) {
        *self.0.add(i) = v;
    }
}

impl<T: Scalar> Simulator<T> for GpuDevice {
    fn name(&self) -> &'static str {
        "nvidia"
    }

    /// One segment of [`crate::SegmentedRun`], start to finish: the plan
    /// and the kernel loop live there, once.
    fn run(&self, circuit: &Circuit, opts: &RunOptions) -> Result<RunOutput<T>, SimError> {
        self.run_segmented(circuit, opts, usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aer::AerCpuBackend;
    use crate::state::StateVector;
    use qgear_ir::reference;
    use qgear_num::approx::max_deviation;

    fn rich_circuit(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
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
        c
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
        assert_eq!(wide.stats.sweeps_executed, 0, "sweep_width 0 disables sweeping");
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
        for seed in [2u64, 9, 40] {
            let c = rich_circuit(8, seed);
            let plain: RunOutput<f64> = GpuDevice::default()
                .run(&c, &RunOptions { sweep_width: 0, ..Default::default() })
                .unwrap();
            let swept: RunOutput<f64> = GpuDevice::default()
                .run(&c, &RunOptions { sweep_width: 6, sweep_reorder: false, ..Default::default() })
                .unwrap();
            let a = plain.state.unwrap();
            let b = swept.state.unwrap();
            for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
                assert!(x.re == y.re && x.im == y.im, "seed {seed}: sweep drift");
            }
        }
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
        let diag = prog.blocks[0].unitary.diagonal(1e-14).expect("ladder is diagonal");
        assert_eq!(diag.len(), 16);
        for z in &diag {
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
