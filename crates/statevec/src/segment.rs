//! The execution core: one stepper contract, one straight-through tail,
//! and the walker for a state resident on one simulated GPU.
//!
//! [`Stepper`] is the contract of every engine that walks a schedule
//! with a cursor: [`SegmentedRun`] for a state resident on one
//! [`GpuDevice`], the cluster crate's `ShardedRun` for a state pooled
//! over a device group. [`straight_through`] is the one tail that drives
//! a stepper to the end, samples and keeps the state — [`Simulator::run`]
//! on a `GpuDevice` and on a `ClusterEngine` is a call to it — and
//! `qgear-serve` drives the same contract in segments, writing
//! checkpoints between them.
//!
//! [`SegmentedRun`] checks capacity, asks [`planner::plan`] — the only
//! plan builder — for the schedule the options select, and applies it
//! in bounded steps under caller control. Because the step kernels are
//! deterministic over disjoint amplitude groups, the state after `k`
//! steps is bit-identical whether those steps ran in one call, one per
//! call, or across a checkpoint/restore boundary on a different worker.
//! That property is what makes a [`StateCheckpoint`] safe to resume
//! from: the cursor plus the amplitudes *are* the execution state; there
//! is nothing hidden.
//!
//! A step is one plan segment: one scheduled sweep, or one fused block
//! at `sweep_width: 0`, executed in the mode the plan's selector pinned
//! or priced for it (see [`crate::planner`]). The plan's digest is part
//! of the checkpoint fingerprint, so a cursor can only resume under the
//! identical plan.
//!
//! [`Simulator::run`]: crate::Simulator::run

use crate::backend::{
    check_capacity, marginal_probs, sample_from_probs, ExecStats, RunOptions, RunOutput, SimError,
};
use crate::checkpoint::{
    encode_amplitudes, plan_fingerprint, CheckpointCounters, CheckpointError, StateCheckpoint,
};
use crate::gpu::GpuDevice;
use crate::planner::{self, ExecutionPlan};
use crate::sampling::SamplingConfig;
use crate::state::StateVector;
use qgear_ir::Circuit;
use qgear_num::Scalar;
use qgear_telemetry::clock::Clock;
use std::convert::Infallible;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A partially-executed run: evolving amplitudes plus a cursor into a
/// fixed, deterministic step schedule. A caller may advance in segments
/// of any size and snapshot at any boundary between them; the final
/// state is the same bits either way.
pub trait Stepper<T: Scalar> {
    /// Why [`Self::advance`] can fail: [`Infallible`] for a state
    /// resident on one device, a broken pairwise exchange for a
    /// partitioned one.
    type Fault;
    /// Apply up to `max_steps` further steps — at least one when not
    /// already done, even at `max_steps == 0`; `usize::MAX` runs to the
    /// end. On `Err` the state is inconsistent and this run must be
    /// discarded; the cursor still names the last completed step.
    fn advance(&mut self, max_steps: usize) -> Result<(), Self::Fault>;
    /// True once every step has been applied.
    fn is_done(&self) -> bool;
    /// Steps applied so far.
    fn cursor(&self) -> usize;
    /// Counters and evolve time accumulated so far.
    fn stats(&self) -> ExecStats;
    /// The execution state as QCKP wire bytes, written from where the
    /// amplitudes lie (a resident state, or a partitioned one's slices
    /// walked in logical order).
    fn encode_checkpoint(&self) -> Vec<u8>;
    /// The measurement marginal over `measured`, read from where the
    /// amplitudes lie (a partitioned state's slices are walked in logical
    /// order, never gathered): [`crate::marginal_of_runs`].
    fn marginal(&self, measured: &[u32]) -> Vec<f64>;
    /// The state in logical amplitude order, for `keep_state`.
    fn into_state(self) -> StateVector<T>;
}

/// The one straight-through tail: advance `run` to the end, sample the
/// circuit's measured qubits from [`Stepper::marginal`] with one seeded
/// draw — timed on `clock` — and keep the state if `opts` asks for it.
pub fn straight_through<T: Scalar, S: Stepper<T>>(
    mut run: S,
    circuit: &Circuit,
    opts: &RunOptions,
    clock: &dyn Clock,
) -> Result<RunOutput<T>, S::Fault> {
    while !run.is_done() {
        run.advance(usize::MAX)?;
    }
    let mut stats = run.stats();
    let measured = circuit.measured_qubits();
    let sample_start = clock.now();
    let sample_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SAMPLE);
    let counts = if opts.shots > 0 && !measured.is_empty() {
        sample_from_probs(&run.marginal(&measured), &measured, &opts.sampling())
    } else {
        None
    };
    drop(sample_span);
    stats.sampling_elapsed = clock.now().saturating_sub(sample_start);
    Ok(RunOutput { state: opts.keep_state.then(|| run.into_state()), counts, stats })
}

/// A partially-executed simulation: the evolving state plus a cursor
/// into its (fixed) plan.
pub struct SegmentedRun<T: Scalar> {
    state: StateVector<T>,
    plan: ExecutionPlan,
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
            cursor: 0,
            counters: CheckpointCounters::default(),
            circuit: circuit.clone(),
            fingerprint: OnceLock::new(),
            sampling: opts.sampling(),
            elapsed: start.elapsed(),
        })
    }

    /// Total steps in the schedule.
    pub fn steps_total(&self) -> usize {
        self.plan.len()
    }

    /// The (possibly partially-evolved) state.
    pub fn state(&self) -> &StateVector<T> {
        &self.state
    }

    /// Fingerprint of the plan this run executes (see
    /// [`plan_fingerprint`]); computed on first use and cached.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| plan_fingerprint(&self.circuit, T::BYTES as u8, self.plan.digest))
    }

    /// Snapshot the current execution state as an owned value (one
    /// amplitude-vector clone). To serialize the snapshot, call
    /// [`Stepper::encode_checkpoint`], which skips the clone.
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

impl<T: Scalar> Stepper<T> for SegmentedRun<T> {
    /// A state resident on one device has no link to lose.
    type Fault = Infallible;

    /// Timed on the host clock, even under a virtual service clock: the
    /// kernels are real work. DRAM traffic is charged per full-state
    /// pass (per sweep segment, per kernel or gate otherwise), arithmetic
    /// per kernel; the per-call telemetry deltas sum to the same totals
    /// whatever the segment size.
    fn advance(&mut self, max_steps: usize) -> Result<(), Infallible> {
        if self.is_done() {
            return Ok(());
        }
        let start = Instant::now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
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
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.cursor >= self.plan.len()
    }

    fn cursor(&self) -> usize {
        self.cursor
    }

    /// Real wall-clock reflects only the work done *in this process*:
    /// resumed runs don't inherit a dead worker's timings.
    fn stats(&self) -> ExecStats {
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

    /// [`encode`](crate::checkpoint::encode) of [`SegmentedRun::checkpoint`],
    /// written from the live state: what a segment boundary stores costs
    /// no clone of the amplitudes.
    fn encode_checkpoint(&self) -> Vec<u8> {
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

    fn marginal(&self, measured: &[u32]) -> Vec<f64> {
        marginal_probs(&self.state, measured)
    }

    fn into_state(self) -> StateVector<T> {
        self.state
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

    fn bits<T: Scalar>(state: &StateVector<T>) -> Vec<u64> {
        state
            .amplitudes()
            .iter()
            .flat_map(|a| [a.re.to_f64().to_bits(), a.im.to_f64().to_bits()])
            .collect()
    }

    #[test]
    fn segmented_matches_straight_through() {
        use crate::Simulator;
        use qgear_telemetry::clock::WallClock;
        let c = ghz(4);
        let opts = RunOptions { shots: 64, fusion_width: 1, sweep_width: 0, ..Default::default() };
        let dev = GpuDevice::a100_40gb();
        let straight: RunOutput<f64> = dev.run(&c, &opts).unwrap();
        // `run` is the one-segment case of the same stepper, so this pins
        // interval-invariance: every segment size lands on the same bits.
        for interval in [1, 2, usize::MAX] {
            let mut run: SegmentedRun<f64> = SegmentedRun::new(&dev, &c, &opts).unwrap();
            while !run.is_done() {
                let Ok(()) = run.advance(interval);
            }
            let Ok(segmented) = straight_through(run, &c, &opts, &WallClock::new());
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
    fn fingerprint_is_lazy_and_matches_the_eager_digest() {
        let c = ghz(3);
        let opts = RunOptions { fusion_width: 1, sweep_width: 0, ..Default::default() };
        let mut run: SegmentedRun<f64> =
            SegmentedRun::new(&GpuDevice::a100_40gb(), &c, &opts).unwrap();
        let Ok(()) = run.advance(usize::MAX);
        assert!(run.fingerprint.get().is_none(), "a run that never checkpoints never formats");
        let eager = plan_fingerprint(&c, 8, run.plan.digest);
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
            let Ok(()) = clean.advance(1);
        }

        let mut first: SegmentedRun<f64> = SegmentedRun::new(&dev, &c, &opts).unwrap();
        let Ok(()) = first.advance(2);
        let bytes = encode(&first.checkpoint());
        drop(first); // the "worker" dies here

        let ck = decode::<f64>(&bytes).unwrap();
        assert_eq!(ck.cursor, 2);
        let mut resumed = SegmentedRun::resume(&dev, &c, &opts, ck).unwrap();
        while !resumed.is_done() {
            let Ok(()) = resumed.advance(1);
        }
        assert_eq!(bits(clean.state()), bits(resumed.state()));
        assert_eq!(clean.stats().kernels_launched, resumed.stats().kernels_launched);
    }

    #[test]
    fn resume_rejects_a_different_plan() {
        let dev = GpuDevice::a100_40gb();
        let opts = RunOptions { fusion_width: 1, sweep_width: 0, ..Default::default() };
        let mut run: SegmentedRun<f64> = SegmentedRun::new(&dev, &ghz(3), &opts).unwrap();
        let Ok(()) = run.advance(1);
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
        let Ok(()) = run.advance(1);
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
        let Ok(()) = resumed.advance(usize::MAX);
        let Ok(()) = run.advance(usize::MAX);
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
        // Narrow sweeps without reordering: several sweeps in program order.
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
        let Ok(()) = run.advance(1);
        let ck = decode::<f64>(&encode(&run.checkpoint())).unwrap();
        let mut resumed = SegmentedRun::resume(&dev, &c, &opts, ck).unwrap();
        while !resumed.is_done() {
            let Ok(()) = resumed.advance(1);
        }
        let straight: RunOutput<f64> = dev.run(&c, &opts).unwrap();
        assert_eq!(bits(straight.state.as_ref().unwrap()), bits(resumed.state()));
    }
}
