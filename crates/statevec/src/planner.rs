//! The adaptive execution planner: cost-model-driven mode choice per
//! scheduled segment.
//!
//! The fixed execution modes are each a *global* bet, and
//! `BENCH_hotpath.json` shows every one of them losing somewhere: dense
//! fused kernels are 3–6× slower than the unfused per-gate baseline on
//! the `random` and `qcrank` workloads (a width-5 kernel costs `2^5`
//! mul-adds per amplitude where the gates it absorbed cost a handful),
//! while the unfused baseline loses badly on QFT-shaped circuits where
//! sweeps amortize state passes. The planner replaces the global bet
//! with a per-segment decision: walk the commutation-aware sweep
//! schedule segment by segment, price **unfused** (per-gate specialized
//! loops), **fused** (one structured kernel pass per block, dispatched
//! by [`KernelStructure`]), and **sweep** (one cache-blocked tile pass)
//! against a calibrated [`PlannerCosts`] model, and execute each segment
//! in its cheapest legal mode.
//!
//! Every mode applies the same unitaries in the same schedule order, so
//! the planned state agrees with any fixed mode to floating-point
//! round-off; with [`PlannerCosts::force_mode`] pinning one mode the
//! arithmetic is *bit-identical* to the corresponding fixed path, which
//! is how the differential suite anchors the planner. Plans are
//! deterministic functions of `(circuit, options, costs)` — the mode
//! digest is folded into the checkpoint plan fingerprint so a resumed
//! [`SegmentedRun`](crate::SegmentedRun) can never silently continue
//! under a different plan.
//!
//! See `docs/PLANNER.md` for the cost model's constants and the full
//! decision procedure.
//!
//! ```
//! use qgear_ir::Circuit;
//! use qgear_statevec::planner::{plan, PlannerCosts, SegmentMode};
//!
//! // A QFT-shaped phase ladder: the planner walks the sweep schedule
//! // and picks the cheapest mode for every segment.
//! let mut c = Circuit::new(4);
//! c.h(0).cr1(0.5, 0, 1).cr1(0.25, 0, 2).h(1).cr1(0.5, 1, 2).h(2);
//! let plan = plan(&c, 5, 12, true, &PlannerCosts::default(), 16).unwrap();
//! assert!(!plan.segments.is_empty());
//! for seg in &plan.segments {
//!     // The chosen mode is never predicted slower than either rival.
//!     let p = &seg.predicted;
//!     assert!(p.of(seg.mode) <= p.unfused && p.of(seg.mode) <= p.fused);
//!     assert!(p.of(seg.mode) <= p.sweep);
//! }
//! ```

use crate::aer::AerCpuBackend;
use crate::gpu::GpuDevice;
use qgear_ir::fusion::{self, FusedBlock, FusionError, KernelStructure};
use qgear_ir::schedule::{self, Sweep, SweepOptions};
use qgear_ir::{Circuit, Gate};
use qgear_num::{Complex, Scalar};
use qgear_telemetry::names;
use std::time::Instant;

/// Which engine strategy a run uses: the historical fixed modes
/// (selected by `sweep_width`/backend choice) or the adaptive planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// One global mode for the whole circuit, exactly as selected by the
    /// `sweep_width`/`sweep_reorder` knobs. Default for bit-compatibility
    /// with existing fixed-mode artifacts (checkpoints, cached results).
    #[default]
    Fixed,
    /// Per-segment cost-model-driven mode choice (see module docs) —
    /// the recommended path for performance-sensitive execution.
    Planned,
}

/// Execution mode chosen for one schedule segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentMode {
    /// Per-gate specialized loops (the Aer-style kernels): cheap
    /// arithmetic, one state pass per gate.
    Unfused,
    /// One structured kernel pass per fused block
    /// ([`GpuDevice::apply_block_structured`]): state passes amortized
    /// over fused gates, arithmetic priced by [`KernelStructure`].
    Fused,
    /// One cache-blocked tile pass for the whole segment
    /// ([`GpuDevice::apply_sweep`]).
    Sweep,
}

impl SegmentMode {
    /// Stable lowercase label for telemetry and bench output.
    pub fn name(self) -> &'static str {
        match self {
            SegmentMode::Unfused => "unfused",
            SegmentMode::Fused => "fused",
            SegmentMode::Sweep => "sweep",
        }
    }
}

/// Calibrated throughput/overhead constants the cost model prices
/// segments with. The defaults are fitted to the repo's reference VM
/// from the measured `BENCH_hotpath.json` grid (see `docs/PLANNER.md`
/// for the derivation); [`PlannerCosts::calibrated`] refits them from
/// the predicted-vs-actual telemetry of earlier planned runs. Only the
/// *ratios* between constants matter for mode ranking, so rough
/// absolute values are fine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerCosts {
    /// Streaming bandwidth for full-state passes, bytes/second.
    pub bytes_per_sec: f64,
    /// Dense-kernel inner-loop throughput, complex mul-adds/second
    /// (gather/scatter bookkeeping amortized in).
    pub madds_per_sec: f64,
    /// Element-wise diagonal/permutation throughput, complex
    /// multiplies/second.
    pub cmuls_per_sec: f64,
    /// Per-gate specialized-loop throughput of the unfused path,
    /// amplitude·gate-weight units/second.
    pub gate_amps_per_sec: f64,
    /// Fixed overhead per kernel launch / state pass, seconds.
    pub launch_seconds: f64,
    /// Pin every segment to one mode regardless of cost. The escape
    /// hatch that embeds the fixed modes into the planner: with a forced
    /// mode the planned path is bit-identical to the corresponding fixed
    /// path (the differential suite relies on this).
    pub force_mode: Option<SegmentMode>,
}

impl Default for PlannerCosts {
    fn default() -> Self {
        PlannerCosts::host_reference()
    }
}

impl PlannerCosts {
    /// Constants fitted to the 1-core reference VM from the measured
    /// hot-path grid, **after** the SIMD/FMA kernel overhaul (native
    /// codegen plus explicit lane kernels lifted every inner loop ~7–15×,
    /// so the pre-SIMD constants would misprice all three modes): fused
    /// `random@16` (122 dense width-5 kernels, 0.38 s) pins
    /// `madds_per_sec` ≈ 7e8; unfused `random@16` (960 gates, 0.065 s)
    /// pins `gate_amps_per_sec` ≈ 1e9; the chunked diagonal-table kernels
    /// behind the qft-fused series pin `cmuls_per_sec` ≈ 2.5e9; sweep
    /// deltas across the grid pin the effective streaming bandwidth; and
    /// unfused `random@10` (600 gates, 0.6 ms total) bounds the per-gate
    /// dispatch overhead at well under a microsecond.
    pub fn host_reference() -> Self {
        PlannerCosts {
            bytes_per_sec: 1.6e10,
            madds_per_sec: 7.0e8,
            cmuls_per_sec: 2.5e9,
            gate_amps_per_sec: 1.0e9,
            launch_seconds: 5.0e-7,
            force_mode: None,
        }
    }

    /// Refit the constants from a telemetry snapshot of earlier planned
    /// runs: each per-mode `planner.cost_ratio.*` histogram records
    /// actual/predicted per executed segment, and its mean rescales the
    /// constants that dominate that mode (clamped to `[0.25, 4]` per
    /// refit so one noisy run cannot wreck the model). Returns the
    /// costs unchanged for modes with no observations.
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
        if let Some(r) = mean(names::PLANNER_RATIO_FUSED) {
            c.madds_per_sec /= r;
            c.cmuls_per_sec /= r;
        }
        if let Some(r) = mean(names::PLANNER_RATIO_SWEEP) {
            c.bytes_per_sec /= r;
        }
        c
    }

    /// Seconds for one full-state pass (read + write) of `n_amps`
    /// amplitudes at `amp_bytes` each, excluding arithmetic.
    fn pass_seconds(&self, n_amps: f64, amp_bytes: f64) -> f64 {
        2.0 * n_amps * amp_bytes / self.bytes_per_sec
    }

    /// Per-kernel arithmetic seconds under structured dispatch.
    fn kernel_flop_seconds(&self, structure: &KernelStructure, k: usize, n_amps: f64) -> f64 {
        match structure {
            KernelStructure::Diagonal => n_amps / self.cmuls_per_sec,
            // A permutation pays the same single multiply plus the
            // gather/scatter shuffle.
            KernelStructure::Permutation(_) => 1.5 * n_amps / self.cmuls_per_sec,
            KernelStructure::Controlled { .. } | KernelStructure::Dense => {
                let mu = structure.mixed_count(k);
                n_amps * (1u64 << mu) as f64 / self.madds_per_sec
            }
        }
    }

    /// Per-gate seconds of the unfused specialized loops. Two-qubit
    /// gates walk the masked full-index loop (≈2× the strided
    /// single-qubit cost); the launch term models per-gate dispatch.
    fn unfused_gate_seconds(&self, gate: &Gate, n_amps: f64) -> f64 {
        let weight = if gate.operands().len() >= 2 { 2.0 } else { 1.0 };
        self.launch_seconds + weight * n_amps / self.gate_amps_per_sec
    }

    /// Estimated seconds to *build* the fused program: each absorbed
    /// gate multiplies into an accumulated dense block, ≈`4 · 4^w`
    /// mul-adds at full fusion width. This cost is paid once by every
    /// kernel-based mode but never by per-gate execution, so on small
    /// states it can exceed the entire unfused run — the planner skips
    /// fusion outright when it does (see [`plan`]).
    fn fusion_build_seconds(&self, gates: usize, fusion_width: usize) -> f64 {
        gates as f64 * 4.0 * (1u64 << (2 * fusion_width)) as f64 / self.madds_per_sec
    }
}

/// The three predicted per-segment costs, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeCosts {
    /// Predicted seconds for per-gate unfused execution.
    pub unfused: f64,
    /// Predicted seconds for structured kernel-at-a-time execution.
    pub fused: f64,
    /// Predicted seconds for one cache-blocked sweep pass.
    pub sweep: f64,
}

impl ModeCosts {
    /// The predicted cost of a given mode.
    pub fn of(&self, mode: SegmentMode) -> f64 {
        match mode {
            SegmentMode::Unfused => self.unfused,
            SegmentMode::Fused => self.fused,
            SegmentMode::Sweep => self.sweep,
        }
    }

    /// The cheapest mode, ties resolved in `Unfused → Fused → Sweep`
    /// declaration order (deterministic: the costs are pure f64
    /// arithmetic over the same inputs on every host).
    fn cheapest(&self) -> SegmentMode {
        let mut best = SegmentMode::Unfused;
        for mode in [SegmentMode::Fused, SegmentMode::Sweep] {
            if self.of(mode) < self.of(best) {
                best = mode;
            }
        }
        best
    }
}

/// One scheduled segment with its chosen execution mode.
#[derive(Debug, Clone)]
pub struct PlannedSegment {
    /// The scheduled sweep this segment executes (kernel indices into
    /// [`ExecutionPlan::blocks`], union support, diagonal flag).
    pub sweep: Sweep,
    /// The mode the cost model picked.
    pub mode: SegmentMode,
    /// The segment's source gates in schedule order — materialized only
    /// for [`SegmentMode::Unfused`] segments (empty otherwise).
    pub gates: Vec<Gate>,
    /// The three predicted costs the decision was made from.
    pub predicted: ModeCosts,
}

/// A fully-resolved execution plan: the fused kernels, their structure
/// classes, and one mode-annotated segment per scheduled sweep.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Register width.
    pub num_qubits: u32,
    /// Fused kernels, indexed by the segments' `sweep.kernels`.
    pub blocks: Vec<FusedBlock>,
    /// Structure class of each kernel, parallel to `blocks`.
    pub structures: Vec<KernelStructure>,
    /// Mode-annotated segments in execution order.
    pub segments: Vec<PlannedSegment>,
    /// Source gates absorbed by the plan (pre-fusion count).
    pub source_gates: u64,
    /// Order-preserving flag forwarded to sweep execution
    /// (`!sweep_reorder`, same as the fixed sweep path).
    pub exact: bool,
    /// Digest of the per-segment mode choices; folded into the
    /// checkpoint plan fingerprint so resume rejects a plan whose
    /// decisions differ (e.g. different calibrated costs).
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

    /// How many segments chose each mode, in
    /// `(unfused, fused, sweep)` order.
    pub fn mode_histogram(&self) -> (usize, usize, usize) {
        let count = |m: SegmentMode| self.segments.iter().filter(|s| s.mode == m).count();
        (
            count(SegmentMode::Unfused),
            count(SegmentMode::Fused),
            count(SegmentMode::Sweep),
        )
    }
}

/// splitmix64 step, the same mixer `checkpoint::plan_fingerprint` uses.
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build the adaptive execution plan for a circuit.
///
/// Fuses at `fusion_width` (clamped like the engines do), schedules
/// sweeps at `sweep_width` (`0` falls back to the scheduler default —
/// the planner always works on the scheduled segmentation), classifies
/// every kernel's structure, prices each segment under the three modes
/// and picks the cheapest. Measurements are split off; errors surface
/// exactly as fusion reports them.
///
/// `amp_bytes` is the bytes-per-amplitude of the execution precision
/// (8 for fp32, 16 for fp64) — it only scales the bandwidth term.
pub fn plan(
    circuit: &Circuit,
    fusion_width: usize,
    sweep_width: usize,
    sweep_reorder: bool,
    costs: &PlannerCosts,
    amp_bytes: usize,
) -> Result<ExecutionPlan, FusionError> {
    let (unitary, _) = circuit.split_measurements();
    let width = fusion_width.clamp(1, fusion::MAX_FUSION_WIDTH);

    // Whole-circuit shortcut: building fused kernels costs real time
    // (dense matrix products per absorbed gate) that per-gate execution
    // never pays. On small states that build alone can exceed the entire
    // unfused run, so when the model predicts it would, skip fusion and
    // emit a single all-unfused segment in source order. Forced modes
    // always take the full path (fused/sweep need the kernels to exist).
    let n_amps_f = (1u128 << unitary.num_qubits()) as f64;
    let unfused_total: f64 = unitary
        .gates()
        .iter()
        .filter(|g| g.is_unitary_op())
        .map(|g| costs.unfused_gate_seconds(g, n_amps_f))
        .sum();
    let gate_count = unitary.gates().iter().filter(|g| g.is_unitary_op()).count();
    if costs.force_mode.is_none()
        && gate_count > 0
        && unfused_total < costs.fusion_build_seconds(gate_count, width)
    {
        let gates: Vec<Gate> =
            unitary.gates().iter().filter(|g| g.is_unitary_op()).copied().collect();
        let predicted = ModeCosts {
            unfused: unfused_total,
            fused: f64::INFINITY,
            sweep: f64::INFINITY,
        };
        // Distinct digest arm: a shortcut plan has no kernel schedule, so
        // it must never fingerprint-collide with a scheduled plan.
        let mut digest = mix(0x51D3_C0DE, u64::MAX);
        digest = mix(digest, gates.len() as u64);
        if qgear_telemetry::is_enabled() {
            qgear_telemetry::counter_inc(names::PLANNER_SEGMENTS);
            qgear_telemetry::counter_inc(names::PLANNER_MODE_UNFUSED);
            qgear_telemetry::histogram_record(names::PLANNER_PREDICTED_US, unfused_total * 1e6);
        }
        return Ok(ExecutionPlan {
            num_qubits: unitary.num_qubits(),
            blocks: Vec::new(),
            structures: Vec::new(),
            segments: vec![PlannedSegment {
                sweep: Sweep { kernels: Vec::new(), qubits: Vec::new(), diagonal: false },
                mode: SegmentMode::Unfused,
                gates,
                predicted,
            }],
            source_gates: gate_count as u64,
            exact: !sweep_reorder,
            digest,
        });
    }

    let program = fusion::try_fuse(&unitary, width)?;
    let width = if sweep_width == 0 { schedule::DEFAULT_SWEEP_WIDTH } else { sweep_width };
    let sched = schedule::sweeps(&program, &SweepOptions { max_width: width, reorder: sweep_reorder });

    // Partition the unitary gate stream by block: fusion absorbs
    // contiguous runs, so block `i` owns the next `source_gates` gates.
    let unitary_gates: Vec<&Gate> = unitary.gates().iter().filter(|g| g.is_unitary_op()).collect();
    let mut block_gates: Vec<&[&Gate]> = Vec::with_capacity(program.blocks.len());
    let mut off = 0usize;
    for b in &program.blocks {
        block_gates.push(&unitary_gates[off..off + b.source_gates]);
        off += b.source_gates;
    }
    debug_assert_eq!(off, unitary_gates.len(), "fusion partitions the gate stream");

    let structures: Vec<KernelStructure> =
        program.blocks.iter().map(|b| b.structure()).collect();

    let n_amps = (1u128 << unitary.num_qubits()) as f64;
    let ab = amp_bytes as f64;
    let mut segments = Vec::with_capacity(sched.sweeps.len());
    let mut digest = mix(0x51D3_C0DE, sched.sweeps.len() as u64);
    for sweep in sched.sweeps {
        let pass = costs.pass_seconds(n_amps, ab);
        let mut unfused_cost = 0.0f64;
        let mut fused_cost = 0.0f64;
        let mut sweep_flops = 0.0f64;
        for &ki in &sweep.kernels {
            let k = program.blocks[ki].qubits.len();
            let flops = costs.kernel_flop_seconds(&structures[ki], k, n_amps);
            fused_cost += costs.launch_seconds + pass + flops;
            sweep_flops += flops;
            for g in block_gates[ki] {
                unfused_cost += costs.unfused_gate_seconds(g, n_amps);
            }
        }
        let sweep_cost = if let [only] = sweep.kernels.as_slice() {
            // Singleton sweeps delegate to `apply_block`, whose plan is
            // always the exact one: price diagonal or dense, not
            // structured.
            let k = program.blocks[*only].qubits.len();
            let flops = match &structures[*only] {
                KernelStructure::Diagonal => n_amps / costs.cmuls_per_sec,
                _ => n_amps * (1u64 << k) as f64 / costs.madds_per_sec,
            };
            costs.launch_seconds + pass + flops
        } else {
            // One tiled pass; gather/scatter index math inflates the
            // bandwidth term unless the sweep is all-diagonal
            // (element-wise, no data movement).
            let tile_factor = if sweep.diagonal { 1.0 } else { 1.5 };
            costs.launch_seconds + tile_factor * pass + sweep_flops
        };

        let predicted = ModeCosts { unfused: unfused_cost, fused: fused_cost, sweep: sweep_cost };
        let mode = costs.force_mode.unwrap_or_else(|| predicted.cheapest());
        let gates: Vec<Gate> = if mode == SegmentMode::Unfused {
            sweep.kernels.iter().flat_map(|&ki| block_gates[ki].iter().map(|&&g| g)).collect()
        } else {
            Vec::new()
        };
        digest = mix(digest, mode as u64);
        digest = mix(digest, sweep.kernels.len() as u64);
        segments.push(PlannedSegment { sweep, mode, gates, predicted });
    }

    if qgear_telemetry::is_enabled() {
        qgear_telemetry::counter_add(names::PLANNER_SEGMENTS, segments.len() as u128);
        for seg in &segments {
            let counter = match seg.mode {
                SegmentMode::Unfused => names::PLANNER_MODE_UNFUSED,
                SegmentMode::Fused => names::PLANNER_MODE_FUSED,
                SegmentMode::Sweep => names::PLANNER_MODE_SWEEP,
            };
            qgear_telemetry::counter_inc(counter);
            qgear_telemetry::histogram_record(
                names::PLANNER_PREDICTED_US,
                seg.predicted.of(seg.mode) * 1e6,
            );
        }
    }

    Ok(ExecutionPlan {
        num_qubits: unitary.num_qubits(),
        blocks: program.blocks,
        structures,
        segments,
        source_gates: unitary_gates.len() as u64,
        exact: !sweep_reorder,
        digest,
    })
}

/// Deterministic counters one executed step contributes, merged into
/// [`ExecStats`](crate::ExecStats)/checkpoint counters by
/// [`SegmentedRun::advance`](crate::SegmentedRun::advance). Bytes are
/// charged per state pass, flops at the dense `2^k`-per-kernel rate (the
/// audited "kernel grid" figure, even when structured or factored
/// dispatch does less work).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SegmentStats {
    pub kernels_launched: u64,
    pub sweeps_executed: u64,
    pub bytes_touched: u128,
    pub flops: u128,
}

impl SegmentStats {
    /// One kernel (or unfused gate) of `width` qubits in a state pass of
    /// its own.
    fn kernel_pass<T: Scalar>(n_amps: usize, width: usize) -> Self {
        let n_amps = n_amps as u128;
        SegmentStats {
            kernels_launched: 1,
            sweeps_executed: 0,
            bytes_touched: 2 * n_amps * (2 * T::BYTES) as u128,
            flops: n_amps << width,
        }
    }

    fn add(&mut self, step: SegmentStats) {
        self.kernels_launched += step.kernels_launched;
        self.sweeps_executed += step.sweeps_executed;
        self.bytes_touched += step.bytes_touched;
        self.flops += step.flops;
    }
}

/// The block step kind: one fused kernel in one full-state pass —
/// through the kernel matching `structure` when the caller has
/// classified it, the exact [`GpuDevice::apply_block`] otherwise.
pub(crate) fn block_step<T: Scalar>(
    state: &mut [Complex<T>],
    block: &FusedBlock,
    structure: Option<&KernelStructure>,
) -> SegmentStats {
    match structure {
        Some(structure) => GpuDevice::apply_block_structured(state, block, structure),
        None => GpuDevice::apply_block(state, block),
    }
    SegmentStats::kernel_pass::<T>(state.len(), block.qubits.len())
}

/// The sweep step kind: every kernel of one scheduled sweep in a single
/// cache-blocked pass — one pass of bytes, every kernel's arithmetic.
pub(crate) fn sweep_step<T: Scalar>(
    state: &mut [Complex<T>],
    blocks: &[FusedBlock],
    sweep: &Sweep,
    exact: bool,
) -> SegmentStats {
    GpuDevice::apply_sweep(state, blocks, sweep, exact);
    let n_amps = state.len() as u128;
    SegmentStats {
        kernels_launched: sweep.kernels.len() as u64,
        sweeps_executed: 1,
        bytes_touched: 2 * n_amps * (2 * T::BYTES) as u128,
        flops: sweep.kernels.iter().map(|&ki| n_amps << blocks[ki].qubits.len()).sum(),
    }
}

/// Execute one planned segment over the state, returning its counter
/// deltas — one [`SegmentedRun`](crate::SegmentedRun) step under
/// [`ExecStrategy::Planned`].
pub(crate) fn execute_segment<T: Scalar>(
    state: &mut [Complex<T>],
    plan: &ExecutionPlan,
    idx: usize,
) -> SegmentStats {
    let seg = &plan.segments[idx];
    let telemetry_on = qgear_telemetry::is_enabled();
    let start = telemetry_on.then(Instant::now);
    let mut st = SegmentStats::default();
    match seg.mode {
        SegmentMode::Unfused => {
            for g in &seg.gates {
                AerCpuBackend::apply_gate(state, g)
                    .expect("fused gates are executable by the per-gate path");
                st.add(SegmentStats::kernel_pass::<T>(state.len(), g.operands().len()));
            }
        }
        SegmentMode::Fused => {
            for &ki in &seg.sweep.kernels {
                st.add(block_step(state, &plan.blocks[ki], Some(&plan.structures[ki])));
                if telemetry_on {
                    qgear_telemetry::counter_inc(&names::planner_kernel(
                        plan.structures[ki].name(),
                    ));
                }
            }
        }
        SegmentMode::Sweep => st = sweep_step(state, &plan.blocks, &seg.sweep, plan.exact),
    }
    if let Some(start) = start {
        let actual = start.elapsed().as_secs_f64();
        qgear_telemetry::histogram_record(names::PLANNER_ACTUAL_US, actual * 1e6);
        let predicted = seg.predicted.of(seg.mode);
        if predicted > 0.0 {
            let ratio_name = match seg.mode {
                SegmentMode::Unfused => names::PLANNER_RATIO_UNFUSED,
                SegmentMode::Fused => names::PLANNER_RATIO_FUSED,
                SegmentMode::Sweep => names::PLANNER_RATIO_SWEEP,
            };
            qgear_telemetry::histogram_record(ratio_name, actual / predicted);
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn plan_partitions_every_kernel_and_gate() {
        let c = qft_like(8);
        let p = plan(&c, 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        let scheduled: usize = p.segments.iter().map(|s| s.sweep.kernels.len()).sum();
        assert_eq!(scheduled, p.blocks.len(), "segments partition the kernels");
        assert_eq!(p.source_gates as usize, c.unitary_count());
        assert_eq!(p.structures.len(), p.blocks.len());
    }

    #[test]
    fn dense_random_blocks_plan_to_unfused() {
        // The measured regression case: fully-mixed random blocks are
        // cheaper per gate than any dense kernel path.
        let p = plan(&random_like(12, 7), 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        let (unfused, _, _) = p.mode_histogram();
        assert!(
            unfused * 2 > p.segments.len(),
            "random workload should mostly plan unfused, got {:?}",
            p.mode_histogram()
        );
    }

    #[test]
    fn qft_ladders_plan_to_sweeps() {
        // Multi-kernel μ=1 segments amortize passes: sweeps must win.
        let p = plan(&qft_like(12), 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        let (_, _, sweep) = p.mode_histogram();
        assert!(
            sweep > 0,
            "QFT should use sweep segments, got {:?}",
            p.mode_histogram()
        );
        // And never a dense-fused regression segment: fused is only
        // chosen where it is predicted at least as cheap as unfused.
        for seg in &p.segments {
            assert!(seg.predicted.of(seg.mode) <= seg.predicted.unfused + 1e-12);
        }
    }

    #[test]
    fn force_mode_overrides_the_cost_model() {
        for mode in [SegmentMode::Unfused, SegmentMode::Fused, SegmentMode::Sweep] {
            let costs = PlannerCosts { force_mode: Some(mode), ..PlannerCosts::default() };
            let p = plan(&qft_like(6), 5, 12, true, &costs, 16).unwrap();
            assert!(p.segments.iter().all(|s| s.mode == mode));
        }
    }

    #[test]
    fn digest_tracks_mode_decisions() {
        let base = plan(&qft_like(8), 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        let same = plan(&qft_like(8), 5, 12, true, &PlannerCosts::default(), 16).unwrap();
        assert_eq!(base.digest, same.digest, "planning is deterministic");
        let forced = PlannerCosts {
            force_mode: Some(SegmentMode::Unfused),
            ..PlannerCosts::default()
        };
        let other = plan(&qft_like(8), 5, 12, true, &forced, 16).unwrap();
        assert_ne!(base.digest, other.digest, "different decisions, different digest");
    }

    #[test]
    fn sweep_width_zero_still_schedules() {
        let p = plan(&qft_like(8), 5, 0, true, &PlannerCosts::default(), 16).unwrap();
        assert!(!p.is_empty());
        let scheduled: usize = p.segments.iter().map(|s| s.sweep.kernels.len()).sum();
        assert_eq!(scheduled, p.blocks.len());
    }

    #[test]
    fn calibration_rescales_toward_observed_ratios() {
        qgear_telemetry::reset();
        qgear_telemetry::enable();
        // Model twice too optimistic for fused segments.
        qgear_telemetry::histogram_record(names::PLANNER_RATIO_FUSED, 2.0);
        qgear_telemetry::histogram_record(names::PLANNER_RATIO_FUSED, 2.0);
        let snap = qgear_telemetry::snapshot();
        qgear_telemetry::disable();
        qgear_telemetry::reset();
        let base = PlannerCosts::default();
        let cal = base.calibrated(&snap);
        assert!((cal.madds_per_sec - base.madds_per_sec / 2.0).abs() < 1.0);
        assert!((cal.cmuls_per_sec - base.cmuls_per_sec / 2.0).abs() < 1.0);
        // Unobserved modes untouched.
        assert_eq!(cal.gate_amps_per_sec, base.gate_amps_per_sec);
        assert_eq!(cal.bytes_per_sec, base.bytes_per_sec);
    }
}
