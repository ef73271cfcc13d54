//! The simulated-GPU execution core: a resumable cursor over an
//! [`ExecutionPlan`].
//!
//! [`SegmentedRun`] is the walker for a state resident on one
//! [`GpuDevice`]: it checks capacity, asks [`planner::plan`] — the only
//! plan builder — for the schedule the options select, and applies it
//! in bounded steps under caller control; [`Simulator::run`] is the
//! degenerate caller that advances to the end in a single segment.
//! Because the step kernels are deterministic over disjoint amplitude
//! groups, the state after `k` steps is bit-identical whether those
//! steps ran in one call, one per call, or across a checkpoint/restore
//! boundary on a different worker. That property is what makes a
//! [`StateCheckpoint`] safe to resume from: the cursor plus the
//! amplitudes *are* the execution state; there is nothing hidden.
//!
//! A step is one plan segment: one scheduled sweep, or one fused block
//! at `sweep_width: 0`, executed in the mode the plan's selector pinned
//! or priced for it (see [`crate::planner`]). The plan's digest is part
//! of the checkpoint fingerprint, so a cursor can only resume under the
//! identical plan.
//!
//! [`Simulator::run`]: crate::Simulator::run

use crate::backend::{
    check_capacity, sample_measured, ExecStats, RunOptions, RunOutput, SimError,
};
use crate::checkpoint::{
    encode_amplitudes, plan_fingerprint, CheckpointCounters, CheckpointError, CheckpointScalar,
    StateCheckpoint,
};
use crate::gpu::GpuDevice;
use crate::planner::{self, ExecutionPlan};
use crate::sampling::SamplingConfig;
use crate::state::StateVector;
use qgear_ir::Circuit;
use qgear_num::Scalar;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A partially-executed simulation: the evolving state plus a cursor
/// into its (fixed) plan.
pub struct SegmentedRun<T: Scalar> {
    state: StateVector<T>,
    plan: ExecutionPlan,
    measured: Vec<u32>,
    cursor: usize,
    counters: CheckpointCounters,
    /// Kept for the fingerprint, which Debug-formats the whole circuit:
    /// computed on first use, so a run that never checkpoints (every
    /// straight-through run) never pays for it.
    circuit: Circuit,
    fingerprint: OnceLock<u64>,
    sampling: SamplingConfig,
    /// Real wall-clock spent building the plan and in `advance` calls.
    elapsed: Duration,
}

impl<T: Scalar> SegmentedRun<T> {
    /// Check capacity, build the plan the options select, and position
    /// the cursor at step zero. Plan construction sits inside a
    /// `simulate` span and counts toward [`ExecStats::elapsed`], so a
    /// run's reported evolve time covers fusion and planning as well as
    /// the kernels.
    pub fn new(
        device: &GpuDevice,
        circuit: &Circuit,
        opts: &RunOptions,
    ) -> Result<Self, SimError> {
        // Device memory is the default capacity bound; an explicit option
        // overrides (used by the harnesses to model other devices).
        check_capacity::<T>(circuit.num_qubits(), opts.memory_limit.or(Some(device.memory_bytes)))?;
        let state: StateVector<T> = StateVector::zero(circuit.num_qubits());
        let start = Instant::now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let plan = planner::plan(
            circuit,
            opts.fusion_width,
            opts.sweep_width,
            opts.sweep_reorder,
            &opts.planner_costs,
            2 * T::BYTES,
        )
        // Fusion rejects arity-3 gates with a typed error; surface it as
        // an unsupported-gate failure instead of aborting the caller's
        // thread (the serving workers depend on this).
        .map_err(|e| {
            SimError::UnsupportedGate(format!(
                "{e} (transpile to the native set before kernel transformation)"
            ))
        })?;
        drop(sim_span);
        Ok(SegmentedRun {
            state,
            plan,
            measured: circuit.measured_qubits(),
            cursor: 0,
            counters: CheckpointCounters::default(),
            circuit: circuit.clone(),
            fingerprint: OnceLock::new(),
            sampling: opts.sampling(),
            elapsed: start.elapsed(),
        })
    }

    /// Apply up to `max_steps` further plan segments (at least one when
    /// not already done, even if `max_steps == 0` would stall;
    /// `usize::MAX` runs to the end). Returns the number of steps
    /// actually applied. DRAM traffic is charged per full-state pass
    /// (per sweep segment, per kernel or gate otherwise), arithmetic per
    /// kernel; the per-call telemetry deltas sum to the same totals
    /// whatever the segment size.
    pub fn advance(&mut self, max_steps: usize) -> usize {
        if self.is_done() {
            return 0;
        }
        let start = Instant::now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let from = self.cursor;
        let end = self.steps_total().min(self.cursor.saturating_add(max_steps.max(1)));
        let before = self.counters;
        while self.cursor < end {
            let amps = self.state.amplitudes_mut();
            planner::execute_segment(amps, &self.plan, self.cursor, &mut self.counters);
            self.cursor += 1;
        }
        let applied = self.counters;
        if applied.sweeps_executed > before.sweeps_executed {
            qgear_telemetry::counter_add(
                qgear_telemetry::names::SWEEPS_EXECUTED,
                (applied.sweeps_executed - before.sweeps_executed) as u128,
            );
        }
        qgear_telemetry::counter_add(
            qgear_telemetry::names::KERNELS_LAUNCHED,
            (applied.kernels_launched - before.kernels_launched) as u128,
        );
        if self.is_done() && self.counters.gates_applied == 0 {
            self.counters.gates_applied = self.plan.source_gates;
            qgear_telemetry::counter_add(
                qgear_telemetry::names::GATES_APPLIED,
                self.counters.gates_applied as u128,
            );
        }
        drop(sim_span);
        self.elapsed += start.elapsed();
        self.cursor - from
    }

    /// Steps applied so far.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Total steps in the schedule.
    pub fn steps_total(&self) -> usize {
        self.plan.len()
    }

    /// Whether every schedule step has been applied.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.plan.len()
    }

    /// The (possibly partially-evolved) state.
    pub fn state(&self) -> &StateVector<T> {
        &self.state
    }

    /// Give up the cursor and keep only the state, so a caller that
    /// samples for itself can free the amplitudes as early as it likes.
    pub fn into_state(self) -> StateVector<T> {
        self.state
    }

    /// Counters accumulated so far, as [`ExecStats`] (real wall-clock
    /// reflects only the work done *in this process* — resumed runs
    /// don't inherit a dead worker's timings).
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            gates_applied: self.counters.gates_applied,
            kernels_launched: self.counters.kernels_launched,
            sweeps_executed: self.counters.sweeps_executed,
            bytes_touched: self.counters.bytes_touched,
            flops: self.counters.flops,
            elapsed: self.elapsed,
            ..ExecStats::default()
        }
    }

    /// Finish the run: sample (if the circuit measures and shots were
    /// requested) and hand back the same shape as
    /// [`Simulator::run`](crate::Simulator::run). Panics if the
    /// schedule is not complete — call after `is_done()`.
    pub fn finish(self, opts: &RunOptions) -> RunOutput<T> {
        assert!(self.is_done(), "finish() before the schedule completed");
        let mut stats = self.stats();
        let sample_start = Instant::now();
        let sample_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SAMPLE);
        let counts = sample_measured(&self.state, &self.measured, opts);
        drop(sample_span);
        stats.sampling_elapsed = sample_start.elapsed();
        RunOutput { state: opts.keep_state.then_some(self.state), counts, stats }
    }
}

impl<T: CheckpointScalar> SegmentedRun<T> {
    /// Fingerprint of the plan this run executes (see
    /// [`plan_fingerprint`]); computed on first use and cached.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| plan_fingerprint(&self.circuit, T::PRECISION_TAG, self.plan.digest))
    }

    /// Snapshot the current execution state as an owned value (one
    /// amplitude-vector clone). To serialize the snapshot, call
    /// [`Self::encode_checkpoint`], which skips the clone.
    pub fn checkpoint(&self) -> StateCheckpoint<T> {
        StateCheckpoint {
            num_qubits: self.state.num_qubits(),
            cursor: self.cursor as u64,
            steps_total: self.steps_total() as u64,
            fingerprint: self.fingerprint(),
            counters: self.counters,
            sampling: self.sampling,
            state: self.state.clone(),
        }
    }

    /// [`encode`](crate::checkpoint::encode) of [`Self::checkpoint`],
    /// written from the live state: what a segment boundary stores costs
    /// no clone of the amplitudes.
    pub fn encode_checkpoint(&self) -> Vec<u8> {
        encode_amplitudes(
            self.state.amplitudes(),
            self.state.num_qubits(),
            self.cursor as u64,
            self.steps_total() as u64,
            self.fingerprint(),
            &self.counters,
            &self.sampling,
        )
    }

    /// Rebuild the plan for `(circuit, opts)` and install a verified
    /// checkpoint's state and cursor into it.
    ///
    /// The checkpoint must describe the *same* plan
    /// ([`StateCheckpoint::verify_against`]): a checkpoint from a
    /// different circuit, fusion width, sweep configuration or mode
    /// selection is rejected rather than silently producing wrong
    /// amplitudes. The sampling configuration is taken from `opts` (the
    /// job spec stays authoritative), which the codec round-trips for
    /// audit only.
    pub fn resume(
        device: &GpuDevice,
        circuit: &Circuit,
        opts: &RunOptions,
        ck: StateCheckpoint<T>,
    ) -> Result<Self, CheckpointError> {
        let mut run = SegmentedRun::new(device, circuit, opts)
            .map_err(|e| CheckpointError::Rebuild(e.to_string()))?;
        ck.verify_against(run.fingerprint(), run.steps_total(), run.state.num_qubits())?;
        run.state = ck.state;
        run.cursor = ck.cursor as usize;
        run.counters = ck.counters;
        Ok(run)
    }
}

impl GpuDevice {
    /// Run a circuit to completion in segments of `segment_steps`
    /// schedule steps each. Amplitudes, counts and counters are
    /// bit-identical for every segment size; [`Simulator::run`] is this
    /// with `usize::MAX` (one segment).
    ///
    /// [`Simulator::run`]: crate::Simulator::run
    pub fn run_segmented<T: Scalar>(
        &self,
        circuit: &Circuit,
        opts: &RunOptions,
        segment_steps: usize,
    ) -> Result<RunOutput<T>, SimError> {
        let mut run = SegmentedRun::new(self, circuit, opts)?;
        while !run.is_done() {
            run.advance(segment_steps);
        }
        Ok(run.finish(opts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{decode, encode};

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        for q in 0..n {
            c.measure(q);
        }
        c
    }

    fn bits<T: CheckpointScalar>(state: &StateVector<T>) -> Vec<u64> {
        state
            .amplitudes()
            .iter()
            .flat_map(|a| [a.re.to_f64().to_bits(), a.im.to_f64().to_bits()])
            .collect()
    }

    #[test]
    fn segmented_matches_straight_through() {
        use crate::Simulator;
        let c = ghz(4);
        let opts = RunOptions { shots: 64, fusion_width: 1, sweep_width: 0, ..Default::default() };
        let dev = GpuDevice::a100_40gb();
        let straight: RunOutput<f64> = dev.run(&c, &opts).unwrap();
        // `run` is the one-segment case of the same stepper, so this pins
        // interval-invariance: every segment size lands on the same bits.
        for interval in [1, 2, usize::MAX] {
            let segmented: RunOutput<f64> = dev.run_segmented(&c, &opts, interval).unwrap();
            assert_eq!(
                bits(straight.state.as_ref().unwrap()),
                bits(segmented.state.as_ref().unwrap())
            );
            assert_eq!(straight.counts, segmented.counts);
            assert_eq!(straight.stats.kernels_launched, segmented.stats.kernels_launched);
            assert_eq!(straight.stats.gates_applied, segmented.stats.gates_applied);
            assert_eq!(straight.stats.flops, segmented.stats.flops);
        }
    }

    #[test]
    fn advance_usize_max_from_a_mid_run_cursor_finishes_the_schedule() {
        let opts = RunOptions { fusion_width: 1, sweep_width: 0, ..Default::default() };
        let mut run: SegmentedRun<f64> =
            SegmentedRun::new(&GpuDevice::a100_40gb(), &ghz(4), &opts).unwrap();
        assert_eq!(run.advance(1), 1);
        // `cursor + usize::MAX` must saturate, not wrap to "apply nothing".
        assert_eq!(run.advance(usize::MAX), run.steps_total() - 1);
        assert!(run.is_done());
    }

    #[test]
    fn fingerprint_is_lazy_and_matches_the_eager_digest() {
        let c = ghz(3);
        let opts = RunOptions { fusion_width: 1, sweep_width: 0, ..Default::default() };
        let mut run: SegmentedRun<f64> =
            SegmentedRun::new(&GpuDevice::a100_40gb(), &c, &opts).unwrap();
        run.advance(usize::MAX);
        assert!(run.fingerprint.get().is_none(), "a run that never checkpoints never formats");
        let eager = plan_fingerprint(&c, f64::PRECISION_TAG, run.plan.digest);
        assert_eq!(run.checkpoint().fingerprint, eager);
        assert_eq!(run.fingerprint.get(), Some(&eager));
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let c = ghz(3);
        let opts = RunOptions { shots: 32, fusion_width: 1, sweep_width: 0, ..Default::default() };
        let dev = GpuDevice::a100_40gb();

        let mut clean: SegmentedRun<f64> = SegmentedRun::new(&dev, &c, &opts).unwrap();
        while !clean.is_done() {
            clean.advance(1);
        }

        let mut first: SegmentedRun<f64> = SegmentedRun::new(&dev, &c, &opts).unwrap();
        first.advance(2);
        let bytes = encode(&first.checkpoint());
        drop(first); // the "worker" dies here

        let ck = decode::<f64>(&bytes).unwrap();
        assert_eq!(ck.cursor, 2);
        let mut resumed = SegmentedRun::resume(&dev, &c, &opts, ck).unwrap();
        while !resumed.is_done() {
            resumed.advance(1);
        }
        assert_eq!(bits(clean.state()), bits(resumed.state()));
        assert_eq!(clean.stats().kernels_launched, resumed.stats().kernels_launched);
    }

    #[test]
    fn resume_rejects_a_different_plan() {
        let dev = GpuDevice::a100_40gb();
        let opts = RunOptions { fusion_width: 1, sweep_width: 0, ..Default::default() };
        let mut run: SegmentedRun<f64> = SegmentedRun::new(&dev, &ghz(3), &opts).unwrap();
        run.advance(1);
        let ck = run.checkpoint();
        let other = ghz(4);
        assert!(matches!(
            SegmentedRun::resume(&dev, &other, &opts, ck),
            Err(CheckpointError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn the_default_options_are_the_sweep_pin() {
        use crate::planner::{PlannerCosts, SegmentMode};
        let c = ghz(6);
        let dev = GpuDevice::a100_40gb();
        for sweep_width in [RunOptions::default().sweep_width, 2, 0] {
            let default = RunOptions { sweep_width, ..Default::default() };
            let pinned = RunOptions {
                planner_costs: PlannerCosts::pinned(SegmentMode::Sweep),
                ..default.clone()
            };
            let a: SegmentedRun<f64> = SegmentedRun::new(&dev, &c, &default).unwrap();
            let b: SegmentedRun<f64> = SegmentedRun::new(&dev, &c, &pinned).unwrap();
            assert_eq!(a.plan.digest, b.plan.digest);
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert!(a.plan.segments.iter().all(|s| s.mode == SegmentMode::Sweep));
            if sweep_width == 0 {
                // One step per fused block, in program order.
                assert_eq!(a.plan.block_order(), (0..a.plan.blocks.len()).collect::<Vec<_>>());
                assert_eq!(a.steps_total(), a.plan.blocks.len());
            }
        }
    }

    #[test]
    fn resume_refuses_another_pin_and_accepts_a_priced_plan_that_decided_the_same() {
        use crate::planner::{PlannerCosts, SegmentMode};
        let c = ghz(5);
        let dev = GpuDevice::a100_40gb();
        let with = |planner_costs| RunOptions {
            shots: 16,
            fusion_width: 2,
            sweep_width: 3,
            planner_costs,
            ..Default::default()
        };
        let swept = with(PlannerCosts::pinned(SegmentMode::Sweep));
        let mut run: SegmentedRun<f64> = SegmentedRun::new(&dev, &c, &swept).unwrap();
        assert!(run.steps_total() > 1);
        run.advance(1);
        let ck = run.checkpoint();

        // Same circuit, same widths, the other pin: a different plan.
        let unfused = with(PlannerCosts::pinned(SegmentMode::Unfused));
        let refused = SegmentedRun::resume(&dev, &c, &unfused, ck.clone());
        assert!(
            matches!(refused, Err(CheckpointError::PlanMismatch { .. })),
            "an Unfused pin resumed a Sweep pin's cursor"
        );

        // Costs under which every segment prices cheapest as `Sweep`
        // (ruinous per-gate loops): the same decisions, so the same
        // plan, however it was selected.
        let all_sweep = PlannerCosts { gate_amps_per_sec: 1.0, ..PlannerCosts::host_reference() };
        let mut resumed = SegmentedRun::resume(&dev, &c, &with(all_sweep), ck).unwrap();
        assert!(resumed.plan.segments.iter().all(|s| s.predicted.is_some()));
        resumed.advance(usize::MAX);
        run.advance(usize::MAX);
        assert_eq!(bits(run.state()), bits(resumed.state()));
        assert_eq!(run.stats().kernels_launched, resumed.stats().kernels_launched);
    }

    #[test]
    fn resume_reports_the_rebuilt_schedule_on_a_step_count_mismatch() {
        let dev = GpuDevice::a100_40gb();
        let opts = RunOptions { fusion_width: 1, sweep_width: 0, ..Default::default() };
        let run: SegmentedRun<f64> = SegmentedRun::new(&dev, &ghz(3), &opts).unwrap();
        let rebuilt = run.steps_total() as u64;
        let mut ck = run.checkpoint();
        ck.steps_total = rebuilt + 5;
        ck.cursor = rebuilt + 2;
        match SegmentedRun::resume(&dev, &ghz(3), &opts, ck) {
            Err(CheckpointError::CursorOutOfRange { cursor, steps_total }) => {
                assert_eq!((cursor, steps_total), (rebuilt + 2, rebuilt));
            }
            other => panic!("wrong verdict: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn sweep_schedule_checkpoints_at_sweep_granularity() {
        use crate::Simulator;
        let c = ghz(4);
        // Narrow sweeps without reordering: several sweeps, exact mode.
        let opts = RunOptions {
            shots: 16,
            fusion_width: 1,
            sweep_width: 2,
            sweep_reorder: false,
            ..Default::default()
        };
        let dev = GpuDevice::a100_40gb();
        let mut run: SegmentedRun<f64> = SegmentedRun::new(&dev, &c, &opts).unwrap();
        assert!(run.steps_total() > 1, "plan should have multiple sweeps");
        run.advance(1);
        let ck = decode::<f64>(&encode(&run.checkpoint())).unwrap();
        let mut resumed = SegmentedRun::resume(&dev, &c, &opts, ck).unwrap();
        while !resumed.is_done() {
            resumed.advance(1);
        }
        let straight: RunOutput<f64> = dev.run(&c, &opts).unwrap();
        assert_eq!(bits(straight.state.as_ref().unwrap()), bits(resumed.state()));
    }
}
