//! The execution planner: the one step schedule every run walks.
//!
//! An [`ExecutionPlan`] cuts a circuit into *segments*, each annotated
//! with the [`SegmentMode`] it runs in: **unfused** (per-gate
//! specialized loops, [`AerCpuBackend::apply_gate`]) or **sweep** (one
//! cache-blocked tile pass; a one-kernel segment is the exact kernel,
//! [`GpuDevice::apply_block`]). A plan has one of two shapes:
//!
//! * the **per-gate plan**: one `Unfused` segment per unitary gate, in
//!   source order, with no fusion, no schedule and no blocks — the Aer
//!   baseline's run, and what the `Unfused` pin selects;
//! * the **scheduled plan**: the circuit's fused kernels, one segment
//!   per scheduled sweep (or per fused block at `sweep_width: 0`). Its
//!   modes differ in passes over the state, not in kernel arithmetic:
//!   what a kernel costs is decided once, by the mask the fuser closed
//!   the block with ([`FusedBlock::mixed`], which the kernel is built
//!   from), and read from there when a segment is priced.
//!
//! One selector decides the shape and the modes —
//! [`PlannerCosts::force_mode`]:
//!
//! * `Some(mode)` **pins** every segment to that mode. A pinned plan
//!   prices nothing and builds only what it runs: the `Unfused` pin is
//!   the per-gate plan, the `Sweep` pin a scheduled plan with no gate
//!   list (the default [`RunOptions`](crate::RunOptions) pins `Sweep`).
//! * `None` **prices** both modes per segment of the scheduled plan
//!   against the [`PlannerCosts`] constants and takes the cheaper,
//!   because each pin is a global bet that loses somewhere (dense
//!   width-5 kernels cost `2^5` mul-adds per amplitude where the gates
//!   they absorbed cost a handful; per-gate execution loses on
//!   QFT-shaped circuits where sweeps amortize state passes).
//!
//! Every mode applies the same unitaries in the same schedule order, so
//! any two plans of one circuit agree to floating-point round-off, and
//! two plans that made the same decisions — however they were selected
//! — are the same plan bit for bit. Plans are deterministic functions
//! of `(circuit, options, costs)`; [`ExecutionPlan::digest`] covers
//! what shapes the plan and every decision, and the checkpoint
//! fingerprint always covers the digest, so a resumed walker can never
//! continue under a different plan.
//!
//! See `docs/PIPELINE.md` § 4 for the cost model and the decision procedure.
//!
//! ```
//! use qgear_ir::Circuit;
//! use qgear_statevec::planner::{plan, PlannerCosts, SegmentMode};
//!
//! // A QFT-shaped phase ladder, priced: the planner walks the sweep
//! // schedule and picks the cheapest mode for every segment.
//! let mut c = Circuit::new(4);
//! c.h(0).cr1(0.5, 0, 1).cr1(0.25, 0, 2).h(1).cr1(0.5, 1, 2).h(2);
//! let priced = plan(&c, 5, 12, true, &PlannerCosts::host_reference(), 16).unwrap();
//! for seg in &priced.segments {
//!     // The chosen mode is never predicted slower than its rival.
//!     let p = seg.predicted.expect("priced segments carry their prediction");
//!     assert!(p.of(seg.mode) <= p.unfused && p.of(seg.mode) <= p.sweep);
//! }
//! // The same schedule pinned to one mode: nothing is priced.
//! let pinned = plan(&c, 5, 12, true, &PlannerCosts::pinned(SegmentMode::Sweep), 16).unwrap();
//! assert!(pinned.segments.iter().all(|s| s.mode == SegmentMode::Sweep && s.predicted.is_none()));
//! ```

use crate::aer::AerCpuBackend;
use crate::checkpoint::CheckpointCounters;
use crate::gpu::GpuDevice;
use qgear_ir::fusion::{self, FusedBlock, FusionError};
use qgear_ir::schedule::{self, Sweep, SweepOptions};
use qgear_ir::{Circuit, Gate, GateKind};
use qgear_num::{Complex, Scalar};
use qgear_telemetry::names;
use std::time::Instant;

/// Execution mode of one schedule segment. The discriminant is the word
/// [`ExecutionPlan::digest`] folds in per segment, so it is part of every
/// checkpoint fingerprint: `Sweep` stays 2 (1 was a structure-dispatched
/// kernel-at-a-time mode, which ran the kernels a one-kernel `Sweep`
/// segment runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentMode {
    /// Per-gate specialized loops (the Aer-style kernels): cheap
    /// arithmetic, one state pass per gate.
    Unfused = 0,
    /// One cache-blocked tile pass for the whole segment
    /// ([`GpuDevice::apply_sweep`]); a one-kernel segment is the exact
    /// [`GpuDevice::apply_block`].
    Sweep = 2,
}

impl SegmentMode {
    /// Stable lowercase label for telemetry and bench output.
    pub fn name(self) -> &'static str {
        match self {
            SegmentMode::Unfused => "unfused",
            SegmentMode::Sweep => "sweep",
        }
    }
}

/// The mode selector plus the throughput/overhead constants priced
/// plans rank modes with. [`PlannerCosts::host_reference`] is a hand fit
/// to one host (measure yours with `benchmark/`, see its README);
/// [`PlannerCosts::calibrated`] refits the constants from the
/// predicted-vs-actual telemetry of earlier priced runs. Only the
/// *ratios* between constants matter for mode ranking, so rough absolute
/// values are fine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerCosts {
    /// Streaming bandwidth for full-state passes, bytes/second.
    pub bytes_per_sec: f64,
    /// Dense-kernel inner-loop throughput, complex mul-adds/second
    /// (gather/scatter bookkeeping amortized in).
    pub madds_per_sec: f64,
    /// Element-wise diagonal-kernel throughput, complex
    /// multiplies/second.
    pub cmuls_per_sec: f64,
    /// Per-gate specialized-loop throughput of the unfused path,
    /// amplitude·gate-weight units/second.
    pub gate_amps_per_sec: f64,
    /// Fixed overhead per kernel launch / state pass, seconds.
    pub launch_seconds: f64,
    /// The one execution-mode selector: `Some(mode)` pins every segment
    /// to `mode` and the constants above go unread; `None` prices every
    /// segment and runs it in its cheapest mode.
    pub force_mode: Option<SegmentMode>,
}

impl Default for PlannerCosts {
    fn default() -> Self {
        PlannerCosts::host_reference()
    }
}

impl PlannerCosts {
    /// The priced selector with constants hand-fitted to a small x86
    /// host: dense width-5 kernels on a random circuit pin
    /// `madds_per_sec` (refit when the lanes moved onto AVX2 registers
    /// with four rows in flight: a dense pass at 16 to 20 qubits on two
    /// cores reads 5.2–8.3e9 at fp64 and 10–15e9 at fp32;
    /// docs/PIPELINE.md § 4), the per-gate
    /// loops on the same circuit pin `gate_amps_per_sec`, the chunked
    /// diagonal-table kernels of a QFT pin `cmuls_per_sec`,
    /// sweep-vs-per-kernel deltas pin the effective streaming bandwidth,
    /// and a 10-qubit per-gate run bounds the dispatch overhead at well
    /// under a microsecond. The numbers behind any fit go stale with the
    /// host; `benchmark/` measures them.
    pub fn host_reference() -> Self {
        PlannerCosts {
            bytes_per_sec: 1.6e10,
            madds_per_sec: 7.0e9,
            cmuls_per_sec: 2.5e9,
            gate_amps_per_sec: 1.0e9,
            launch_seconds: 5.0e-7,
            force_mode: None,
        }
    }

    /// The selector pinned to `mode`: every segment runs in it, nothing
    /// is priced.
    pub fn pinned(mode: SegmentMode) -> Self {
        PlannerCosts { force_mode: Some(mode), ..PlannerCosts::host_reference() }
    }

    /// Refit the constants from a telemetry snapshot of earlier priced
    /// runs: each per-mode `planner.cost_ratio.*` histogram records
    /// actual/predicted per executed priced segment, and its mean
    /// rescales the constants that mode is priced from — the per-gate
    /// rate for `Unfused`; bandwidth and both kernel rates for `Sweep`,
    /// together, since ranking two modes has one degree of freedom
    /// (clamped to `[0.25, 4]` per refit so one noisy run cannot wreck
    /// the model). Returns the costs unchanged for modes with no
    /// observations.
    pub fn calibrated(&self, snap: &qgear_telemetry::TelemetrySnapshot) -> PlannerCosts {
        let mean = |name: &str| {
            snap.histograms
                .get(name)
                .filter(|h| h.count > 0)
                .map(|h| (h.sum / h.count as f64).clamp(0.25, 4.0))
        };
        let mut c = *self;
        if let Some(r) = mean(names::PLANNER_RATIO_UNFUSED) {
            c.gate_amps_per_sec /= r;
        }
        if let Some(r) = mean(names::PLANNER_RATIO_SWEEP) {
            c.bytes_per_sec /= r;
            c.madds_per_sec /= r;
            c.cmuls_per_sec /= r;
        }
        c
    }

    /// Seconds for one full-state pass (read + write) of `n_amps`
    /// amplitudes at `amp_bytes` each, excluding arithmetic.
    fn pass_seconds(&self, n_amps: f64, amp_bytes: f64) -> f64 {
        2.0 * n_amps * amp_bytes / self.bytes_per_sec
    }

    /// Arithmetic seconds of one kernel as [`GpuDevice`] will run it:
    /// one multiply per amplitude for a block that mixes nothing (a
    /// diagonal table), `2^μ` mul-adds over the bits it mixes otherwise.
    fn kernel_flop_seconds(&self, block: &FusedBlock, n_amps: f64) -> f64 {
        match block.mixed() {
            0 => n_amps / self.cmuls_per_sec,
            mixed => n_amps * (1u64 << mixed.count_ones()) as f64 / self.madds_per_sec,
        }
    }

    /// Per-gate seconds of the unfused specialized loops. Two-qubit
    /// gates walk the masked full-index loop (≈2× the strided
    /// single-qubit cost), a `swap` the dense 4×4 product at its
    /// measured [`SWAP_WEIGHT`]; the launch term models per-gate
    /// dispatch.
    fn unfused_gate_seconds(&self, gate: &Gate, n_amps: f64) -> f64 {
        let weight = match gate.kind {
            GateKind::Swap => SWAP_WEIGHT,
            _ if gate.operands().len() >= 2 => 2.0,
            _ => 1.0,
        };
        self.launch_seconds + weight * n_amps / self.gate_amps_per_sec
    }

    /// Price one segment under both modes. `gates[ki]` are the source
    /// gates block `ki` absorbed, `pass` one state pass in seconds.
    fn price(
        &self,
        sweep: &Sweep,
        blocks: &[FusedBlock],
        gates: &[&[Gate]],
        n_amps: f64,
        pass: f64,
    ) -> ModeCosts {
        // One pass of the state whatever the segment holds: a one-kernel
        // sweep is `apply_block`, a diagonal sweep is element-wise and any
        // other sweep runs its kernels in place on contiguous tiles.
        let mut costs = ModeCosts { unfused: 0.0, sweep: self.launch_seconds + pass };
        for &ki in &sweep.kernels {
            costs.sweep += self.kernel_flop_seconds(&blocks[ki], n_amps);
            for g in gates[ki] {
                costs.unfused += self.unfused_gate_seconds(g, n_amps);
            }
        }
        costs
    }
}

/// The unfused price weight of a `swap`, in `N / gate_amps_per_sec`
/// units: one `AerCpuBackend::apply_gate` swap pass at fp64, best of 11,
/// read 2.98 at n = 20 and 3.15 at n = 22 (a `cx` 1.94 and 2.51). At
/// the generic two-qubit 2.0, fp64 QFT's closing swap pairs priced
/// below their one-kernel sweep and ran per gate at twice its time
/// (docs/PIPELINE.md § 4).
const SWAP_WEIGHT: f64 = 3.0;

/// The two predicted per-segment costs, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeCosts {
    /// Predicted seconds for per-gate unfused execution.
    pub unfused: f64,
    /// Predicted seconds for one cache-blocked sweep pass.
    pub sweep: f64,
}

impl ModeCosts {
    /// The predicted cost of a given mode.
    pub fn of(&self, mode: SegmentMode) -> f64 {
        match mode {
            SegmentMode::Unfused => self.unfused,
            SegmentMode::Sweep => self.sweep,
        }
    }

    /// The cheaper mode, a tie going to `Unfused` (deterministic: the
    /// costs are pure f64 arithmetic over the same inputs on every host).
    fn cheapest(&self) -> SegmentMode {
        if self.sweep < self.unfused {
            SegmentMode::Sweep
        } else {
            SegmentMode::Unfused
        }
    }
}

/// One scheduled segment with its execution mode.
#[derive(Debug, Clone)]
pub struct PlannedSegment {
    /// The scheduled sweep this segment executes (kernel indices into
    /// [`ExecutionPlan::blocks`], union support, diagonal flag); empty
    /// in the per-gate plan.
    pub sweep: Sweep,
    /// The mode the segment runs in.
    pub mode: SegmentMode,
    /// The segment's source gates in schedule order — materialized only
    /// for [`SegmentMode::Unfused`] segments (empty otherwise).
    pub gates: Vec<Gate>,
    /// The two predicted costs a priced decision was made from; `None`
    /// on a pinned segment, which was never priced.
    pub predicted: Option<ModeCosts>,
}

/// A fully-resolved execution plan: the fused kernels and one
/// mode-annotated segment per schedule step.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Register width.
    pub num_qubits: u32,
    /// Fused kernels, indexed by the segments' `sweep.kernels`.
    pub blocks: Vec<FusedBlock>,
    /// Mode-annotated segments in execution order.
    pub segments: Vec<PlannedSegment>,
    /// Source gates absorbed by the plan (pre-fusion count).
    pub source_gates: u64,
    /// Digest of the clamped fusion width, the sweep options and every
    /// segment's size and mode — not of how the modes were selected, so
    /// a pinned plan and a priced plan that decided the same share it.
    /// The per-gate plan's is of its gate count alone. The checkpoint
    /// fingerprint covers it: resume rejects a plan whose schedule or
    /// decisions differ.
    pub digest: u64,
}

impl ExecutionPlan {
    /// Segment count (checkpointable schedule steps).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the plan has no segments (empty circuit).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Kernel indices into [`Self::blocks`] in execution order — what a
    /// walker that runs kernel-at-a-time (the cluster engine) steps
    /// through.
    pub fn block_order(&self) -> Vec<usize> {
        self.segments.iter().flat_map(|s| s.sweep.kernels.iter().copied()).collect()
    }
}

/// The first word of every plan digest.
const DIGEST_SEED: u64 = 0x51D3_C0DE;

/// splitmix64 step, the same mixer `checkpoint::plan_fingerprint` uses.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the execution plan for a circuit — the only plan builder.
///
/// The `Unfused` pin gets the per-gate plan: one segment per unitary
/// gate, in source order, with no fusion, no schedule and no blocks.
/// Every other plan fuses at `fusion_width` (clamped to the fusion
/// ceiling, once, here), then segments the kernels: `sweep_width > 0`
/// schedules commutation-aware sweeps of that union support
/// (`sweep_reorder` as in [`SweepOptions`]); `sweep_width == 0` makes
/// one segment per fused block in program order — the
/// checkpoint-per-kernel, exact-kernel schedule. `costs.force_mode` then
/// pins or prices every segment (see the module docs). Measurements are
/// split off; errors surface exactly as fusion reports them, so the
/// per-gate plan has none.
///
/// `amp_bytes` is the bytes-per-amplitude of the execution precision
/// (8 for fp32, 16 for fp64) — it only scales the priced bandwidth term.
pub fn plan(
    circuit: &Circuit,
    fusion_width: usize,
    sweep_width: usize,
    sweep_reorder: bool,
    costs: &PlannerCosts,
    amp_bytes: usize,
) -> Result<ExecutionPlan, FusionError> {
    let (unitary, _) = circuit.split_measurements();
    // The source gate stream, where a segment may be priced or run gate
    // by gate; a `Sweep` pin never reads it.
    let gates: Vec<Gate> = match costs.force_mode {
        Some(SegmentMode::Unfused) => return Ok(per_gate(&unitary)),
        Some(SegmentMode::Sweep) => Vec::new(),
        None => unitary.gates().iter().filter(|g| g.is_unitary_op()).copied().collect(),
    };
    let width = fusion_width.clamp(1, fusion::MAX_FUSION_WIDTH);
    let n_amps = (1u128 << unitary.num_qubits()) as f64;
    let mut digest = mix(DIGEST_SEED, width as u64);
    digest = mix(digest, sweep_width as u64);
    digest = mix(digest, u64::from(sweep_reorder));
    let program = fusion::try_fuse(&unitary, width)?;
    let sweeps: Vec<Sweep> = if sweep_width == 0 {
        let singleton = |(ki, b): (usize, &FusedBlock)| {
            let mut qubits = b.qubits.clone();
            qubits.sort_unstable();
            Sweep { kernels: vec![ki], qubits, diagonal: b.mixed() == 0 }
        };
        program.blocks.iter().enumerate().map(singleton).collect()
    } else {
        let opts = SweepOptions { max_width: sweep_width, reorder: sweep_reorder };
        schedule::sweeps(&program, &opts).sweeps
    };

    // Partition the gate stream by block: fusion absorbs contiguous
    // runs, so block `i` owns the next `source_gates` gates.
    let mut block_gates: Vec<&[Gate]> = Vec::new();
    if !gates.is_empty() {
        let mut rest = gates.as_slice();
        for b in &program.blocks {
            let (own, tail) = rest.split_at(b.source_gates);
            block_gates.push(own);
            rest = tail;
        }
        debug_assert!(rest.is_empty(), "fusion partitions the gate stream");
    }
    let pass = costs.pass_seconds(n_amps, amp_bytes as f64);
    let mut segments = Vec::with_capacity(sweeps.len());
    digest = mix(digest, sweeps.len() as u64);
    for sweep in sweeps {
        let (mode, predicted) = match costs.force_mode {
            Some(pin) => (pin, None),
            None => {
                let priced = costs.price(&sweep, &program.blocks, &block_gates, n_amps, pass);
                (priced.cheapest(), Some(priced))
            }
        };
        let gates: Vec<Gate> = if mode == SegmentMode::Unfused {
            sweep.kernels.iter().flat_map(|&ki| block_gates[ki].iter().copied()).collect()
        } else {
            Vec::new()
        };
        digest = mix(digest, mode as u64);
        digest = mix(digest, sweep.kernels.len() as u64);
        segments.push(PlannedSegment { sweep, mode, gates, predicted });
    }

    Ok(ExecutionPlan {
        num_qubits: unitary.num_qubits(),
        source_gates: program.source_gate_count() as u64,
        blocks: program.blocks,
        segments,
        digest,
    })
}

/// The per-gate plan of a measurement-free circuit: one `Unfused`
/// segment per unitary gate, in source order — the Aer baseline's run,
/// with a resumable cursor at every gate boundary. Nothing is priced.
///
/// Its digest folds only what shapes it: the gate count, after a
/// marker no clamped fusion width equals, so it is distinct from every
/// scheduled plan whatever the fusion and sweep options it never reads.
fn per_gate(unitary: &Circuit) -> ExecutionPlan {
    let segments: Vec<PlannedSegment> = unitary
        .gates()
        .iter()
        .filter(|g| g.is_unitary_op())
        .map(|g| PlannedSegment {
            sweep: Sweep { kernels: Vec::new(), qubits: Vec::new(), diagonal: false },
            mode: SegmentMode::Unfused,
            gates: vec![*g],
            predicted: None,
        })
        .collect();
    ExecutionPlan {
        num_qubits: unitary.num_qubits(),
        blocks: Vec::new(),
        source_gates: segments.len() as u64,
        digest: mix(mix(DIGEST_SEED, u64::MAX), segments.len() as u64),
        segments,
    }
}

/// Execute segment `idx` of `plan` over the state — one
/// [`SegmentedRun`](crate::SegmentedRun) step — and charge its
/// deterministic counters. Telemetry reports what ran: the segment and
/// mode counters for every plan, predicted/actual/ratio only for priced
/// segments (a pinned segment has no prediction, and
/// [`PlannerCosts::calibrated`] must not be fed runs the model never
/// priced).
pub(crate) fn execute_segment<T: Scalar>(
    state: &mut [Complex<T>],
    plan: &ExecutionPlan,
    idx: usize,
    counters: &mut CheckpointCounters,
) {
    let seg = &plan.segments[idx];
    let telemetry_on = qgear_telemetry::is_enabled();
    let priced = seg.predicted.filter(|_| telemetry_on).map(|p| (p.of(seg.mode), Instant::now()));
    let n_amps = state.len() as u128;
    // One state pass (read + write), in bytes.
    let pass_bytes = 2 * n_amps * (2 * T::BYTES) as u128;
    match seg.mode {
        // One specialized loop, one pass, per gate; flops at the dense
        // `2^k` rate (the audited "kernel grid" figure, even where the
        // specialized loop does less work).
        SegmentMode::Unfused => {
            for g in &seg.gates {
                AerCpuBackend::apply_gate(state, g);
                counters.kernels_launched += 1;
                counters.bytes_touched += pass_bytes;
                counters.flops += n_amps << g.operands().len();
                if telemetry_on {
                    // Per-kind dispatch counters; the format! only runs
                    // while telemetry is recording.
                    qgear_telemetry::counter_inc(&format!("aer.dispatch.{}", g.kind.name()));
                }
            }
            if telemetry_on {
                let touched = 2 * n_amps * seg.gates.len() as u128;
                qgear_telemetry::counter_add(names::AMPLITUDES_TOUCHED, touched);
            }
        }
        // Every kernel of the segment in a single cache-blocked pass:
        // one pass of bytes, every kernel's arithmetic.
        SegmentMode::Sweep => {
            GpuDevice::apply_sweep(state, &plan.blocks, &seg.sweep);
            counters.kernels_launched += seg.sweep.kernels.len() as u64;
            counters.sweeps_executed += 1;
            counters.bytes_touched += pass_bytes;
            counters.flops +=
                seg.sweep.kernels.iter().map(|&ki| n_amps << plan.blocks[ki].qubits.len()).sum::<u128>();
        }
    }
    if telemetry_on {
        qgear_telemetry::counter_inc(names::PLANNER_SEGMENTS);
        let (chosen, ratio) = match seg.mode {
            SegmentMode::Unfused => (names::PLANNER_MODE_UNFUSED, names::PLANNER_RATIO_UNFUSED),
            SegmentMode::Sweep => (names::PLANNER_MODE_SWEEP, names::PLANNER_RATIO_SWEEP),
        };
        qgear_telemetry::counter_inc(chosen);
        if let Some((predicted, start)) = priced {
            let actual = start.elapsed().as_secs_f64();
            qgear_telemetry::histogram_record(names::PLANNER_PREDICTED_US, predicted * 1e6);
            qgear_telemetry::histogram_record(names::PLANNER_ACTUAL_US, actual * 1e6);
            if predicted > 0.0 {
                qgear_telemetry::histogram_record(ratio, actual / predicted);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu;

    /// How many segments run in each mode, in `(unfused, sweep)` order.
    fn mode_histogram(plan: &ExecutionPlan) -> (usize, usize) {
        let count = |m: SegmentMode| plan.segments.iter().filter(|s| s.mode == m).count();
        (count(SegmentMode::Unfused), count(SegmentMode::Sweep))
    }

    fn qft_like(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for i in (0..n).rev() {
            c.h(i);
            for j in (0..i).rev() {
                c.cr1(std::f64::consts::TAU / f64::powi(2.0, (i - j + 1) as i32), j, i);
            }
        }
        c
    }

    fn random_like(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..120 {
            let a = rnd(n as u64) as u32;
            let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
            c.ry(rnd(628) as f64 / 100.0, a);
            c.ry(rnd(628) as f64 / 100.0, b);
            c.cx(a, b);
        }
        c
    }

    /// `qft_like(n)` followed by the qubit-reversal swap network a full
    /// QFT ends with.
    fn qft_with_swaps(n: u32) -> Circuit {
        let mut c = qft_like(n);
        for q in 0..n / 2 {
            c.swap(q, n - 1 - q);
        }
        c
    }

    /// A QCrank-shaped encoder: uniform `h` over a (at most) 8-qubit
    /// address register, then per data qubit a Gray-code ladder of
    /// `ry` / `cx` pairs, one per address.
    fn qcrank_like(n: u32) -> Circuit {
        let addr = 8.min(n - 1);
        let mut c = Circuit::new(n);
        for q in 0..addr {
            c.h(q);
        }
        for d in addr..n {
            for a in 0..1u32 << addr {
                c.ry(0.1 + 0.01 * f64::from(a), d);
                c.cx((a + 1).trailing_zeros().min(addr - 1), d);
            }
        }
        c
    }

    #[test]
    fn a_priced_qft_runs_its_closing_swaps_as_sweeps() {
        // At the generic two-qubit weight, fp64 QFT's closing swap pairs
        // priced below their one-kernel sweep and ran per gate at twice
        // its time (docs/PIPELINE.md § 4); at `SWAP_WEIGHT` every
        // segment of either precision prices as a sweep.
        let costs = PlannerCosts::host_reference();
        for n in [14, 16, 18, 20] {
            for amp_bytes in [8, 16] {
                let p = plan(&qft_with_swaps(n), 5, 12, true, &costs, amp_bytes).unwrap();
                assert_eq!(mode_histogram(&p), (0, p.len()), "qft-{n}, {amp_bytes} B an amplitude");
            }
        }
    }

    #[test]
    fn a_priced_plan_fuses_however_small_the_state() {
        // No whole-circuit per-gate shortcut: at 10 and 11 qubits the
        // per-gate plan beat the sweep pin on some builders and lost on
        // others, on cells no single fuser rate separates
        // (docs/PIPELINE.md § 4). So a priced plan always fuses and
        // prices every segment; only the `Unfused` pin runs per gate.
        let priced = PlannerCosts::host_reference();
        for n in [10, 11] {
            for c in [qft_like(n), random_like(n, 7), qcrank_like(n)] {
                for amp_bytes in [8, 16] {
                    let p = plan(&c, 5, 12, true, &priced, amp_bytes).unwrap();
                    assert!(!p.blocks.is_empty(), "n = {n}");
                    for s in &p.segments {
                        assert!(!s.sweep.kernels.is_empty() && s.predicted.is_some(), "n = {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_partitions_every_kernel_and_gate() {
        let c = qft_like(8);
        let p = plan(&c, 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        let scheduled: usize = p.segments.iter().map(|s| s.sweep.kernels.len()).sum();
        assert_eq!(scheduled, p.blocks.len(), "segments partition the kernels");
        assert_eq!(p.source_gates as usize, c.unitary_count());
    }

    #[test]
    fn dense_random_blocks_plan_by_the_dense_kernel_rate() {
        // Fully-mixed random blocks are where the two modes sit closest:
        // a width-5 kernel spends 32 mul-adds per amplitude on the eight
        // or so gates it absorbed. At the rate group kernels ran at while
        // most of them were scalar, per-gate loops won; at the lane rate
        // `host_reference` holds now, the sweep does.
        let c = random_like(12, 7);
        let lanes = plan(&c, 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        assert_eq!(mode_histogram(&lanes).0, 0, "got {:?}", mode_histogram(&lanes));
        let scalar_rate = PlannerCosts { madds_per_sec: 7.0e8, ..PlannerCosts::default() };
        let scalar = plan(&c, 5, 12, true, &scalar_rate, 16).unwrap();
        let (unfused, _) = mode_histogram(&scalar);
        assert!(unfused * 2 > scalar.segments.len(), "got {:?}", mode_histogram(&scalar));
    }

    #[test]
    fn qft_ladders_plan_to_sweeps() {
        // Multi-kernel μ=1 segments amortize passes: sweeps must win.
        let p = plan(&qft_like(12), 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        let (_, sweep) = mode_histogram(&p);
        assert!(sweep > 0, "QFT should use sweep segments, got {:?}", mode_histogram(&p));
        // And a sweep only where it is predicted no dearer than per-gate.
        for seg in &p.segments {
            let predicted = seg.predicted.expect("priced");
            assert!(predicted.of(seg.mode) <= predicted.unfused);
        }
    }

    /// What `price` must have charged `sweep` for: the launch, one pass,
    /// and per kernel the arithmetic of the plan `gpu.rs` really builds
    /// for it.
    fn sweep_cost_of_the_built_kernels(
        costs: &PlannerCosts,
        sweep: &Sweep,
        blocks: &[FusedBlock],
        n_amps: f64,
        pass: f64,
    ) -> f64 {
        let flops: f64 = sweep
            .kernels
            .iter()
            .map(|&ki| match gpu::built_mixed_count(&blocks[ki]) {
                None => n_amps / costs.cmuls_per_sec,
                Some(mu) => n_amps * f64::from(1u32 << mu) / costs.madds_per_sec,
            })
            .sum();
        costs.launch_seconds + pass + flops
    }

    #[test]
    fn a_priced_sweep_costs_the_kernels_that_will_run() {
        let costs = PlannerCosts::host_reference();
        let (mut alone, mut several, mut factored, mut diagonal) = (0, 0, 0, 0);
        for (c, sweep_width, reorder) in [
            (qft_with_swaps(10), 0, true),
            (qft_with_swaps(14), 12, true),
            (qft_with_swaps(14), 6, false),
            (random_like(14, 5), 0, true),
            (random_like(14, 5), 12, false),
        ] {
            let n_amps = (1u64 << c.num_qubits()) as f64;
            let pass = costs.pass_seconds(n_amps, 16.0);
            let p = plan(&c, 5, sweep_width, reorder, &costs, 16).unwrap();
            for seg in &p.segments {
                let want = sweep_cost_of_the_built_kernels(&costs, &seg.sweep, &p.blocks, n_amps, pass);
                let got = seg.predicted.expect("priced").sweep;
                assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
                match seg.sweep.kernels.as_slice() {
                    [only] => {
                        alone += 1;
                        let block = &p.blocks[*only];
                        match gpu::built_mixed_count(block) {
                            None => diagonal += 1,
                            Some(mu) if (mu as usize) < block.qubits.len() => factored += 1,
                            Some(_) => {}
                        }
                    }
                    _ => several += 1,
                }
            }
        }
        // One-kernel and multi-kernel segments, and among the former
        // diagonal tables and kernels priced below the dense `2^k`.
        assert!(alone > 0 && several > 0 && factored > 0 && diagonal > 0);
    }

    #[test]
    fn pricing_follows_the_mask_execution_takes_for_the_segment() {
        // Block-diagonal over local bit 1 but for a cross entry of 1e-14:
        // both bits mixed, in a one-kernel segment and in a tile pass.
        let z = qgear_num::C64::ZERO;
        let e = |re: f64| qgear_num::C64::new(re, 0.0);
        #[rustfmt::skip]
        let block = FusedBlock::from_dense(vec![0, 1], vec![
            e(0.6), e(0.8), e(1e-14), z,
            e(-0.8), e(0.6), z, z,
            z, z, e(0.6), e(-0.8),
            z, z, e(0.8), e(0.6),
        ]);
        let blocks = [block.clone(), block];
        let costs = PlannerCosts::host_reference();
        let (n_amps, pass) = (1024.0, costs.pass_seconds(1024.0, 16.0));
        let pair = Sweep { kernels: vec![0, 1], qubits: vec![0, 1], diagonal: false };
        let single = Sweep { kernels: vec![0], ..pair.clone() };
        let madd = n_amps / costs.madds_per_sec;
        assert_eq!(blocks[0].mixed(), 0b11);
        for (sweep, flops) in [
            (&pair, 2.0 * 4.0 * madd), // tile pass: μ = 2 twice
            (&single, 4.0 * madd),     // `apply_block`: μ = 2
        ] {
            let gates: [&[Gate]; 2] = [&[], &[]];
            let got = costs.price(sweep, &blocks, &gates, n_amps, pass).sweep;
            let want = sweep_cost_of_the_built_kernels(&costs, sweep, &blocks, n_amps, pass);
            assert!((got - want).abs() <= 1e-12 * want);
            let by_hand = costs.launch_seconds + pass + flops;
            assert!((got - by_hand).abs() <= 1e-12 * by_hand, "{got} vs {by_hand}");
        }
    }

    #[test]
    fn a_swap_network_runs_as_group_kernels_within_round_off_of_the_reference() {
        use crate::{GpuDevice, RunOptions, RunOutput, Simulator};
        let n = 10;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q).ry(0.3 + 0.17 * f64::from(q), q);
        }
        c.barrier();
        for q in 0..n / 2 {
            c.swap(q, n - 1 - q);
        }
        let expect = qgear_ir::reference::run(&c);
        for costs in [PlannerCosts::host_reference(), PlannerCosts::pinned(SegmentMode::Sweep)] {
            let p = plan(&c, 5, 0, true, &costs, 16).unwrap();
            // The swap blocks are the permutation class no mode shuffles
            // any more: they mix bits, so they are priced and run as
            // group kernels, in either remaining mode.
            let swaps: Vec<_> = p.blocks.iter().filter(|b| b.source_gates <= 2).collect();
            assert!(!swaps.is_empty());
            for b in swaps {
                assert!(gpu::built_mixed_count(b).is_some_and(|mu| mu >= 2));
            }
            let opts = RunOptions {
                sweep_width: 0,
                planner_costs: costs,
                keep_state: true,
                ..Default::default()
            };
            let out: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &opts).unwrap();
            let got = out.state.expect("state");
            let worst = qgear_num::approx::max_deviation(got.amplitudes(), &expect);
            assert!(worst < 1e-12, "{worst}");
        }
    }

    #[test]
    fn a_pin_overrides_the_cost_model_and_builds_only_what_it_runs() {
        for mode in [SegmentMode::Unfused, SegmentMode::Sweep] {
            let p = plan(&qft_like(6), 5, 12, true, &PlannerCosts::pinned(mode), 16).unwrap();
            assert!(p.segments.iter().all(|s| s.mode == mode && s.predicted.is_none()));
            // No gate list is kept unless a segment runs gate by gate.
            let kept: usize = p.segments.iter().map(|s| s.gates.len()).sum();
            let expect = if mode == SegmentMode::Unfused { p.source_gates as usize } else { 0 };
            assert_eq!(kept, expect, "{mode:?}");
            // Nor a fused block unless a segment runs one: the `Unfused`
            // pin is the per-gate plan, one segment per gate.
            assert_eq!(p.blocks.is_empty(), mode == SegmentMode::Unfused, "{mode:?}");
            if mode == SegmentMode::Unfused {
                assert!(p.segments.iter().all(|s| s.gates.len() == 1));
            }
        }
    }

    #[test]
    fn digest_tracks_mode_decisions() {
        let base = plan(&qft_like(8), 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        let same = plan(&qft_like(8), 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        assert_eq!(base.digest, same.digest, "planning is deterministic");
        let pinned = PlannerCosts::pinned(SegmentMode::Unfused);
        let other = plan(&qft_like(8), 5, 12, true, &pinned, 16).unwrap();
        assert_ne!(base.digest, other.digest, "different decisions, different digest");
        // The digest is of the decisions, not of how they were reached:
        // costs under which every segment prices cheapest as `Sweep`
        // (ruinous per-gate loops) share the `Sweep` pin's.
        let all_sweep = PlannerCosts { gate_amps_per_sec: 1.0, ..PlannerCosts::host_reference() };
        let priced = plan(&qft_like(8), 5, 12, true, &all_sweep, 16).unwrap();
        assert_eq!(mode_histogram(&priced), (0, priced.len()));
        let pin = plan(&qft_like(8), 5, 12, true, &PlannerCosts::pinned(SegmentMode::Sweep), 16);
        assert_eq!(priced.digest, pin.unwrap().digest);
    }

    #[test]
    fn pinned_sweep_digests_are_what_every_stored_fingerprint_was_taken_over() {
        // Captured at 73fb931, when `SegmentMode` had a variant between
        // these two: a checkpoint written under the served default must
        // keep resuming, so `Sweep`'s digest word may never move. The two
        // QFT plans were re-taken when the table window let a block grow
        // through the `cr1` phases it does not mix: fewer, wider blocks
        // make a different schedule, and generations written under the
        // old one refuse to resume (`PlanMismatch`), as they should.
        let pin = PlannerCosts::pinned(SegmentMode::Sweep);
        for (c, fusion_width, sweep_width, reorder, digest) in [
            (qft_like(8), 5, 12, true, 0x9754_b535_3e64_00d5_u64),
            (random_like(6, 3), 2, 0, true, 0x35c8_22d7_61ff_0ae9),
            (qft_with_swaps(6), 3, 3, false, 0x25b7_27b5_154c_acfe),
        ] {
            let p = plan(&c, fusion_width, sweep_width, reorder, &pin, 16).unwrap();
            assert_eq!(p.digest, digest, "{:#018x}", p.digest);
        }
    }

    #[test]
    fn sweep_width_zero_is_one_segment_per_block_in_program_order() {
        for costs in [PlannerCosts::host_reference(), PlannerCosts::pinned(SegmentMode::Sweep)] {
            for (c, width) in [(qft_like(7), 5), (qft_like(8), 2), (random_like(6, 3), 2)] {
                let p = plan(&c, width, 0, true, &costs, 16).unwrap();
                assert!(p.len() > 1);
                assert_eq!(p.block_order(), (0..p.blocks.len()).collect::<Vec<_>>());
                assert!(p.segments.iter().all(|s| s.sweep.kernels.len() == 1));
            }
        }
    }

    #[test]
    fn calibration_rescales_toward_observed_ratios() {
        qgear_telemetry::reset();
        qgear_telemetry::enable();
        // Model twice too optimistic for sweep segments.
        qgear_telemetry::histogram_record(names::PLANNER_RATIO_SWEEP, 2.0);
        qgear_telemetry::histogram_record(names::PLANNER_RATIO_SWEEP, 2.0);
        let snap = qgear_telemetry::snapshot();
        qgear_telemetry::disable();
        qgear_telemetry::reset();
        let base = PlannerCosts::default();
        let cal = base.calibrated(&snap);
        assert!((cal.bytes_per_sec - base.bytes_per_sec / 2.0).abs() < 1.0);
        assert!((cal.madds_per_sec - base.madds_per_sec / 2.0).abs() < 1.0);
        assert!((cal.cmuls_per_sec - base.cmuls_per_sec / 2.0).abs() < 1.0);
        // Unobserved modes untouched.
        assert_eq!(cal.gate_amps_per_sec, base.gate_amps_per_sec);
    }
}
