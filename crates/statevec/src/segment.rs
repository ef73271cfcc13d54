//! The simulated-GPU execution core: a resumable cursor over the
//! fused/sweep schedule.
//!
//! [`SegmentedRun`] is the only place [`GpuDevice`] builds an execution
//! plan (capacity check, fusion clamp, sweep scheduling decision,
//! planner call) and the only place it walks one. It applies the plan
//! in bounded steps under caller control; [`Simulator::run`] is the
//! degenerate caller that advances to the end in a single segment.
//! Because the step kernels ([`GpuDevice::apply_block`] /
//! [`GpuDevice::apply_sweep`]) are deterministic over disjoint amplitude
//! groups, the state after `k` steps is bit-identical whether those
//! steps ran in one call, one per call, or across a checkpoint/restore
//! boundary on a different worker. That property is what makes a
//! [`StateCheckpoint`] safe to resume from: the cursor plus the
//! amplitudes *are* the execution state; there is nothing hidden.
//!
//! Step granularity matches the plan the options select: one step per
//! cache-blocked sweep when sweeping is on and profitable
//! (`sweep_width > 0 && blocks > 1`), otherwise one step per fused
//! block. Under
//! [`ExecStrategy::Planned`](crate::planner::ExecStrategy) the steps are
//! the planner's segments — one per scheduled sweep, each executed in
//! its cost-model-chosen mode — and the planner's mode-decision digest
//! is folded into the checkpoint fingerprint so a cursor can only
//! resume under the identical plan.
//!
//! [`Simulator::run`]: crate::Simulator::run

use crate::backend::{
    check_capacity, sample_measured, ExecStats, RunOptions, RunOutput, SimError,
};
use crate::checkpoint::{
    encode_amplitudes, fold_strategy, plan_fingerprint, CheckpointCounters, CheckpointError,
    CheckpointScalar, StateCheckpoint,
};
use crate::gpu::GpuDevice;
use crate::planner::{self, ExecStrategy, ExecutionPlan};
use crate::sampling::SamplingConfig;
use crate::state::StateVector;
use qgear_ir::fusion::{self, FusedProgram};
use qgear_ir::schedule::{self, Sweep};
use qgear_ir::Circuit;
use qgear_num::Scalar;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The checkpointable step schedule a [`SegmentedRun`] walks.
enum StepPlan {
    /// Kernel-at-a-time: one step per fused block (`sweep_width == 0`
    /// or a single-block program).
    Blocks { program: FusedProgram },
    /// Sweep-fused: one step per cache-blocked sweep.
    Sweeps {
        program: FusedProgram,
        sweeps: Vec<Sweep>,
        /// Exact-mode flag passed to `apply_sweep` (`!sweep_reorder`).
        exact: bool,
    },
    /// Adaptive: one step per planner segment, each in its chosen mode.
    Planned { plan: ExecutionPlan },
}

/// What [`plan_fingerprint`] digests, kept so the fingerprint can be
/// computed on first use: it Debug-formats the whole circuit, which a
/// run that never checkpoints (every straight-through run) must not pay.
struct FingerprintInputs {
    circuit: Circuit,
    fusion_width: usize,
    sweep_width: usize,
    sweep_reorder: bool,
}

/// A partially-executed simulation: the evolving state plus a cursor
/// into its (fixed) kernel schedule.
pub struct SegmentedRun<T: Scalar> {
    state: StateVector<T>,
    plan: StepPlan,
    measured: Vec<u32>,
    cursor: usize,
    steps_total: usize,
    counters: CheckpointCounters,
    fingerprint_inputs: FingerprintInputs,
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
        let effective = RunOptions {
            memory_limit: opts.memory_limit.or(Some(device.memory_bytes)),
            ..opts.clone()
        };
        check_capacity::<T>(circuit.num_qubits(), &effective)?;
        let (unitary, measured) = circuit.split_measurements();
        let state: StateVector<T> = StateVector::zero(circuit.num_qubits());
        let start = Instant::now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        // Fusion rejects arity-3 gates with a typed error; surface it as
        // an unsupported-gate failure instead of aborting the caller's
        // thread (the serving workers depend on this).
        let unsupported = |e: fusion::FusionError| {
            SimError::UnsupportedGate(format!(
                "{e} (transpile to the native set before kernel transformation)"
            ))
        };
        let (plan, steps_total) = if effective.strategy == ExecStrategy::Planned {
            // Adaptive: the planner walks the sweep schedule and picks
            // every segment's mode from its cost model.
            let plan = planner::plan(
                &unitary,
                effective.fusion_width,
                effective.sweep_width,
                effective.sweep_reorder,
                &effective.planner_costs,
                2 * T::BYTES,
            )
            .map_err(unsupported)?;
            let steps = plan.len();
            (StepPlan::Planned { plan }, steps)
        } else {
            let fusion_width = opts.fusion_width.clamp(1, fusion::MAX_FUSION_WIDTH);
            let program = fusion::try_fuse(&unitary, fusion_width).map_err(unsupported)?;
            if effective.sweep_width > 0 && program.blocks.len() > 1 {
                // Group commuting/disjoint kernels into cache-blocked
                // passes.
                let sched_opts = schedule::SweepOptions {
                    max_width: effective.sweep_width,
                    reorder: effective.sweep_reorder,
                };
                let sweeps = schedule::sweeps(&program, &sched_opts).sweeps;
                let steps = sweeps.len();
                let exact = !effective.sweep_reorder;
                (StepPlan::Sweeps { program, sweeps, exact }, steps)
            } else {
                let steps = program.blocks.len();
                (StepPlan::Blocks { program }, steps)
            }
        };
        drop(sim_span);
        Ok(SegmentedRun {
            state,
            plan,
            measured,
            cursor: 0,
            steps_total,
            counters: CheckpointCounters::default(),
            fingerprint_inputs: FingerprintInputs {
                circuit: circuit.clone(),
                fusion_width: effective.fusion_width,
                sweep_width: effective.sweep_width,
                sweep_reorder: effective.sweep_reorder,
            },
            fingerprint: OnceLock::new(),
            sampling: SamplingConfig {
                shots: effective.shots,
                seed: effective.seed,
                batch_shots: effective.shot_batch,
            },
            elapsed: start.elapsed(),
        })
    }

    /// Apply up to `max_steps` further schedule steps (at least one when
    /// not already done, even if `max_steps == 0` would stall;
    /// `usize::MAX` runs to the end). Returns the number of steps
    /// actually applied. DRAM traffic is charged per full-state pass
    /// (per sweep, or per kernel without sweeps), arithmetic per kernel;
    /// the per-call telemetry deltas sum to the same totals whatever the
    /// segment size.
    pub fn advance(&mut self, max_steps: usize) -> usize {
        if self.cursor >= self.steps_total {
            return 0;
        }
        let start = Instant::now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let from = self.cursor;
        let end = self.steps_total.min(self.cursor.saturating_add(max_steps.max(1)));
        let before = self.counters;
        while self.cursor < end {
            let amps = self.state.amplitudes_mut();
            let step = match &self.plan {
                StepPlan::Sweeps { program, sweeps, exact } => {
                    planner::sweep_step(amps, &program.blocks, &sweeps[self.cursor], *exact)
                }
                StepPlan::Blocks { program } => {
                    planner::block_step(amps, &program.blocks[self.cursor], None)
                }
                StepPlan::Planned { plan } => planner::execute_segment(amps, plan, self.cursor),
            };
            self.counters.sweeps_executed += step.sweeps_executed;
            self.counters.kernels_launched += step.kernels_launched;
            self.counters.bytes_touched += step.bytes_touched;
            self.counters.flops += step.flops;
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
        if self.cursor >= self.steps_total && self.counters.gates_applied == 0 {
            self.counters.gates_applied = match &self.plan {
                StepPlan::Blocks { program } | StepPlan::Sweeps { program, .. } => {
                    program.source_gate_count() as u64
                }
                StepPlan::Planned { plan } => plan.source_gates,
            };
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
        self.steps_total
    }

    /// Whether every schedule step has been applied.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.steps_total
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
    /// [`plan_fingerprint`]); computed on first use and cached. Under
    /// the planner the mode-decision digest is folded in: it
    /// distinguishes plans that walk the same schedule with different
    /// per-segment choices (e.g. differently calibrated cost models).
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let inputs = &self.fingerprint_inputs;
            let base = plan_fingerprint(
                &inputs.circuit,
                inputs.fusion_width,
                inputs.sweep_width,
                inputs.sweep_reorder,
                T::PRECISION_TAG,
            );
            match &self.plan {
                StepPlan::Planned { plan } => fold_strategy(base, plan.digest),
                StepPlan::Blocks { .. } | StepPlan::Sweeps { .. } => base,
            }
        })
    }

    /// Snapshot the current execution state as an owned value (one
    /// amplitude-vector clone). To serialize the snapshot, call
    /// [`Self::encode_checkpoint`], which skips the clone.
    pub fn checkpoint(&self) -> StateCheckpoint<T> {
        StateCheckpoint {
            num_qubits: self.state.num_qubits(),
            cursor: self.cursor as u64,
            steps_total: self.steps_total as u64,
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
            self.steps_total as u64,
            self.fingerprint(),
            &self.counters,
            &self.sampling,
        )
    }

    /// Rebuild the plan for `(circuit, opts)` and install a verified
    /// checkpoint's state and cursor into it.
    ///
    /// The checkpoint must describe the *same* plan: the fingerprint,
    /// step count, and amplitude count are all cross-checked against the
    /// freshly-rebuilt schedule, so a checkpoint from a different
    /// circuit, fusion width, or sweep configuration is rejected rather
    /// than silently producing wrong amplitudes. The sampling
    /// configuration is taken from `opts` (the job spec stays
    /// authoritative), which the codec round-trips for audit only.
    pub fn resume(
        device: &GpuDevice,
        circuit: &Circuit,
        opts: &RunOptions,
        ck: StateCheckpoint<T>,
    ) -> Result<Self, CheckpointError> {
        let mut run = SegmentedRun::new(device, circuit, opts)
            .map_err(|e| CheckpointError::Rebuild(e.to_string()))?;
        if ck.fingerprint != run.fingerprint() {
            return Err(CheckpointError::PlanMismatch {
                expected: run.fingerprint(),
                found: ck.fingerprint,
            });
        }
        if ck.steps_total != run.steps_total as u64 || ck.cursor > ck.steps_total {
            return Err(CheckpointError::CursorOutOfRange {
                cursor: ck.cursor,
                steps_total: run.steps_total as u64,
            });
        }
        if ck.state.len() != run.state.len() {
            return Err(CheckpointError::AmplitudeMismatch {
                expected: 2 * run.state.len() as u64,
                found: 2 * ck.state.len() as u64,
            });
        }
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
        let eager = plan_fingerprint(&c, 1, 0, opts.sweep_reorder, f64::PRECISION_TAG);
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
