//! The execution core: one stepper contract, one straight-through tail,
//! and the one walker, over either placement of the amplitudes.
//!
//! [`Stepper`] is the contract of every engine that walks a schedule
//! with a cursor, and [`SegmentedRun`] is the one type that keeps it: a
//! cursor over a plan's segments, applied by a [`Placement`] — a
//! [`StateVector`] resident on one [`GpuDevice`], or the cluster crate's
//! `DistributedState` pooled over a device group. [`straight_through`]
//! is the one tail that drives a stepper to the end, samples and keeps
//! the state — [`Simulator::run`] on the `AerCpuBackend`, a `GpuDevice`
//! and a `ClusterEngine` is a call to it — and `qgear-serve` drives the
//! same contract in segments, writing checkpoints between them.
//!
//! [`SegmentedRun::new`] checks capacity, asks [`planner::plan`] — the
//! only plan builder — for the schedule the options select, and applies
//! it in bounded steps under caller control. Because the step kernels
//! are deterministic over disjoint amplitude groups, the state after `k`
//! steps is bit-identical whether those steps ran in one call, one per
//! call, or across a checkpoint/restore boundary on a different worker.
//! That property is what makes a [`StateCheckpoint`] safe to resume
//! from: the cursor plus the amplitudes *are* the execution state; there
//! is nothing hidden.
//!
//! A step is one plan segment: one scheduled sweep, one fused block at
//! `sweep_width: 0`, or one gate of the per-gate plan, executed in the
//! mode the plan's selector pinned or priced for it (see
//! [`crate::planner`]). The plan's digest is part of the checkpoint
//! fingerprint, so a cursor can only resume under the identical plan —
//! on either placement, since both read their runs in logical order.
//!
//! [`Simulator::run`]: crate::Simulator::run

use crate::backend::{
    check_capacity, marginal_of_runs, sample_from_probs, ExecStats, RunOptions, RunOutput,
    SimError,
};
use crate::checkpoint::{
    encode_runs, plan_fingerprint, CheckpointCounters, CheckpointError, StateCheckpoint,
};
use crate::gpu::GpuDevice;
use crate::planner::{self, ExecutionPlan, PlannerCosts, SegmentMode};
use crate::sampling::SamplingConfig;
use crate::state::StateVector;
use qgear_ir::Circuit;
use qgear_num::{Complex, Scalar};
use qgear_telemetry::clock::{Clock, SharedClock, WallClock};
use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::{LazyLock, OnceLock};
use std::time::Duration;

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
    /// The execution state as QCKP wire bytes, written into `out` (cleared
    /// first; a buffer an earlier write left behind keeps its pages) from
    /// where the amplitudes lie (a resident state, or a partitioned one's
    /// slices walked in logical order).
    fn encode_checkpoint(&self, out: &mut Vec<u8>);
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

/// Where a walker's amplitudes lie, and how a plan segment runs there:
/// the one thing the two placements of a register do differently.
/// [`StateVector`] is a state resident on one device; the cluster
/// crate's `DistributedState` is one pooled over a device group.
pub trait Placement<T: Scalar> {
    /// Why [`Placement::apply`] can fail.
    type Fault;
    /// Apply segment `segment` of `plan` and, once the whole segment has
    /// run, charge its deterministic counters to `counters`. On `Err` the
    /// amplitudes are inconsistent and `counters` is as it was.
    fn apply(
        &mut self,
        plan: &ExecutionPlan,
        segment: usize,
        counters: &mut CheckpointCounters,
    ) -> Result<(), Self::Fault>;
    /// The register in logical amplitude order, as runs of amplitudes
    /// that lie side by side: what the marginal and the checkpoint writer
    /// read, neither gathering first.
    fn runs(&self) -> impl Iterator<Item = &[Complex<T>]> + '_;
    /// The state in logical amplitude order.
    fn into_state(self) -> StateVector<T>;
    /// Rebuild this placement from `state`, in logical amplitude order
    /// (a restored checkpoint's).
    fn restore(&mut self, state: StateVector<T>);
    /// Add what the placement moved between devices to `stats`: nothing
    /// for a state resident on one device.
    fn charge_traffic(&self, _stats: &mut ExecStats) {}
}

/// A state resident on one device: a segment is the planner's
/// `execute_segment` over its amplitudes, one tile pass for a sweep.
impl<T: Scalar> Placement<T> for StateVector<T> {
    /// A state resident on one device has no link to lose.
    type Fault = Infallible;

    fn apply(
        &mut self,
        plan: &ExecutionPlan,
        segment: usize,
        counters: &mut CheckpointCounters,
    ) -> Result<(), Infallible> {
        planner::execute_segment(self.amplitudes_mut(), plan, segment, counters);
        Ok(())
    }

    fn runs(&self) -> impl Iterator<Item = &[Complex<T>]> + '_ {
        std::iter::once(self.amplitudes())
    }

    fn into_state(self) -> StateVector<T> {
        self
    }

    fn restore(&mut self, state: StateVector<T>) {
        *self = state;
    }
}

/// The clock a resident state's walker is timed on: the host's, even
/// under a virtual service clock, since its kernels are real work.
fn host_clock() -> SharedClock {
    static HOST: LazyLock<SharedClock> = LazyLock::new(WallClock::shared);
    HOST.clone()
}

/// A partially-executed simulation: the evolving state, on either
/// placement, plus a cursor into its (fixed) plan. `SegmentedRun<T>` is
/// the walker of a state resident on one device.
pub struct SegmentedRun<T: Scalar, P = StateVector<T>> {
    state: P,
    plan: ExecutionPlan,
    cursor: usize,
    counters: CheckpointCounters,
    /// Kept for the fingerprint, which Debug-formats the whole circuit:
    /// computed on first use, so a run that never checkpoints (every
    /// straight-through run) never pays for it.
    circuit: Circuit,
    fingerprint: OnceLock<u64>,
    sampling: SamplingConfig,
    /// What `elapsed` is read from: the host clock for a resident state,
    /// the engine's for a partitioned one.
    clock: SharedClock,
    /// Time spent building the plan and in `advance` calls, on `clock`.
    elapsed: Duration,
    precision: PhantomData<T>,
}

impl<T: Scalar> SegmentedRun<T> {
    /// Check capacity, build the plan the options select, and position
    /// the cursor at step zero of `|0…0⟩` resident on `device`.
    pub fn new(
        device: &GpuDevice,
        circuit: &Circuit,
        opts: &RunOptions,
    ) -> Result<Self, SimError> {
        // Device memory is the default capacity bound; an explicit option
        // overrides (used by the harnesses to model other devices).
        check_capacity::<T>(circuit.num_qubits(), opts.memory_limit.or(Some(device.memory_bytes)))?;
        let state = StateVector::zero(circuit.num_qubits());
        Self::start(state, circuit, opts, opts.fusion_width, &opts.planner_costs, host_clock())
    }

    /// The per-gate plan on no device: the Aer baseline's run, bounded
    /// by [`RunOptions::memory_limit`] alone, reading none of the
    /// fusion, sweep or planner options.
    pub(crate) fn per_gate(circuit: &Circuit, opts: &RunOptions) -> Result<Self, SimError> {
        check_capacity::<T>(circuit.num_qubits(), opts.memory_limit)?;
        let state = StateVector::zero(circuit.num_qubits());
        let costs = PlannerCosts::pinned(SegmentMode::Unfused);
        Self::start(state, circuit, opts, opts.fusion_width, &costs, host_clock())
    }

    /// Rebuild the plan for `(circuit, opts)` and install a verified
    /// checkpoint into it ([`SegmentedRun::restore`]).
    pub fn resume(
        device: &GpuDevice,
        circuit: &Circuit,
        opts: &RunOptions,
        ck: StateCheckpoint<T>,
    ) -> Result<Self, CheckpointError> {
        SegmentedRun::new(device, circuit, opts)
            .map_err(|e| CheckpointError::Rebuild(e.to_string()))?
            .restore(ck)
    }
}

impl<T: Scalar, P: Placement<T>> SegmentedRun<T, P> {
    /// `state`, at step zero of the plan `costs` select for `circuit` at
    /// `fusion_width` under `opts`' sweep options; admission is the
    /// caller's. The plan build sits inside a `simulate` span and counts
    /// toward [`ExecStats::elapsed`], read from `clock`, so a run's
    /// reported evolve time covers fusion and planning as well as the
    /// kernels.
    pub fn start(
        state: P,
        circuit: &Circuit,
        opts: &RunOptions,
        fusion_width: usize,
        costs: &PlannerCosts,
        clock: SharedClock,
    ) -> Result<Self, SimError> {
        let start = clock.now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let plan = planner::plan(
            circuit,
            fusion_width,
            opts.sweep_width,
            opts.sweep_reorder,
            costs,
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
        let elapsed = clock.now().saturating_sub(start);
        Ok(SegmentedRun {
            state,
            plan,
            cursor: 0,
            counters: CheckpointCounters::default(),
            circuit: circuit.clone(),
            fingerprint: OnceLock::new(),
            sampling: opts.sampling(),
            clock,
            elapsed,
            precision: PhantomData,
        })
    }

    /// Install a checkpoint's amplitudes, cursor and counters into this
    /// run, in place of whatever it had run.
    ///
    /// The checkpoint must describe the *same* plan
    /// ([`StateCheckpoint::verify_against`]): a checkpoint from a
    /// different circuit, fusion width, sweep configuration or mode
    /// selection is rejected rather than silently producing wrong
    /// amplitudes. The amplitudes are in logical order, so a generation
    /// either placement wrote resumes on either. The sampling
    /// configuration stays the run's own (the job spec stays
    /// authoritative), which the codec round-trips for audit only.
    pub fn restore(mut self, ck: StateCheckpoint<T>) -> Result<Self, CheckpointError> {
        ck.verify_against(self.fingerprint(), self.steps_total(), self.circuit.num_qubits())?;
        self.state.restore(ck.state);
        self.cursor = ck.cursor as usize;
        self.counters = ck.counters;
        Ok(self)
    }

    /// Total steps in the schedule.
    pub fn steps_total(&self) -> usize {
        self.plan.len()
    }

    /// The (possibly partially-evolved) state, where it lies.
    pub fn state(&self) -> &P {
        &self.state
    }

    /// The state, where it lies, for fault injection: a change to its
    /// amplitudes is a change to the run.
    pub fn state_mut(&mut self) -> &mut P {
        &mut self.state
    }

    /// Fingerprint of the plan this run executes (see
    /// [`plan_fingerprint`]); computed on first use and cached.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| plan_fingerprint(&self.circuit, T::BYTES as u8, self.plan.digest))
    }

    /// Snapshot the current execution state as an owned value (one copy
    /// of the amplitudes, in logical order). To serialize the snapshot,
    /// call [`Stepper::encode_checkpoint`], which makes no copy.
    pub fn checkpoint(&self) -> StateCheckpoint<T> {
        let state = StateVector::from_runs(self.circuit.num_qubits(), self.state.runs());
        StateCheckpoint {
            num_qubits: self.circuit.num_qubits(),
            cursor: self.cursor as u64,
            steps_total: self.steps_total() as u64,
            fingerprint: self.fingerprint(),
            counters: self.counters,
            sampling: self.sampling,
            state,
        }
    }
}

impl<T: Scalar, P: Placement<T>> Stepper<T> for SegmentedRun<T, P> {
    /// A resident state's is [`Infallible`]; a partitioned one's, a
    /// pairwise exchange that failed mid-segment.
    type Fault = P::Fault;

    /// Timed on the run's clock. A segment's counters are charged once
    /// it completes, so after a fault they name the last completed step,
    /// as the cursor does. DRAM traffic is charged per full-state pass
    /// (per sweep segment on one device, per pass between exchanges on a
    /// device group, per gate in the per-gate plan), arithmetic per
    /// kernel; the per-call telemetry deltas sum to the
    /// same totals whatever the segment size.
    fn advance(&mut self, max_steps: usize) -> Result<(), P::Fault> {
        if self.is_done() {
            return Ok(());
        }
        let start = self.clock.now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let end = self.steps_total().min(self.cursor.saturating_add(max_steps.max(1)));
        let before = self.counters;
        let result = (self.cursor..end).try_for_each(|step| {
            self.state.apply(&self.plan, step, &mut self.counters)?;
            self.cursor = step + 1;
            Ok(())
        });
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
        self.elapsed += self.clock.now().saturating_sub(start);
        result
    }

    fn is_done(&self) -> bool {
        self.cursor >= self.plan.len()
    }

    fn cursor(&self) -> usize {
        self.cursor
    }

    /// The schedule counters a checkpoint carries — restored with it, so
    /// a resumed run counts an uninterrupted one's kernels, gates and
    /// arithmetic (a group's passes, and so its sweeps and bytes, follow
    /// its own layout) — plus what this instance's placement moved and
    /// the time it spent: a resumed run inherits neither a dead worker's
    /// timings nor a dead group's traffic.
    fn stats(&self) -> ExecStats {
        let mut stats = ExecStats {
            gates_applied: self.counters.gates_applied,
            kernels_launched: self.counters.kernels_launched,
            sweeps_executed: self.counters.sweeps_executed,
            bytes_touched: self.counters.bytes_touched,
            flops: self.counters.flops,
            elapsed: self.elapsed,
            ..ExecStats::default()
        };
        self.state.charge_traffic(&mut stats);
        stats
    }

    /// The bytes of [`encode`](crate::checkpoint::encode) of
    /// [`SegmentedRun::checkpoint`], written from the placement's runs
    /// where they lie: what a segment boundary stores copies no
    /// amplitudes, and the output is the only state-sized buffer.
    fn encode_checkpoint(&self, out: &mut Vec<u8>) {
        encode_runs(
            out,
            self.state.runs(),
            self.circuit.num_qubits(),
            self.cursor as u64,
            self.steps_total() as u64,
            self.fingerprint(),
            &self.counters,
            &self.sampling,
        )
    }

    fn marginal(&self, measured: &[u32]) -> Vec<f64> {
        marginal_of_runs(self.state.runs(), self.circuit.num_qubits(), measured)
    }

    fn into_state(self) -> StateVector<T> {
        self.state.into_state()
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

    /// At every cursor of a 13-qubit run (two container chunks of fp64,
    /// from |0…0⟩, which compresses, to a dense state, which does not),
    /// a write into a recycled buffer — longer than the checkpoint and
    /// full of 0xAA — gives the fresh write's bytes, and a buffer of
    /// exactly [`max_encoded_len`] is written in place.
    fn recycled_writes_match_fresh_ones<T: Scalar>() {
        use crate::checkpoint::max_encoded_len;
        let mut c = Circuit::new(13);
        for q in 0..13 {
            c.ry(0.3 + 0.1 * f64::from(q), q);
        }
        for q in 1..13 {
            c.cx(q - 1, q);
        }
        let opts = RunOptions { fusion_width: 2, sweep_width: 0, ..Default::default() };
        let mut run: SegmentedRun<T> = SegmentedRun::new(&GpuDevice::a100_40gb(), &c, &opts).unwrap();
        let mut exact = Vec::with_capacity(max_encoded_len::<T>(13));
        let at = exact.as_ptr();
        loop {
            let fresh = encode(&run.checkpoint());
            let mut recycled = vec![0xAA; fresh.len() + 4096];
            run.encode_checkpoint(&mut recycled);
            assert_eq!(recycled, fresh, "cursor {}", run.cursor());
            run.encode_checkpoint(&mut exact);
            assert_eq!(exact, fresh, "cursor {}", run.cursor());
            assert_eq!(exact.as_ptr(), at, "reallocated at cursor {}", run.cursor());
            if run.is_done() {
                break;
            }
            let Ok(()) = run.advance(3);
        }
    }

    #[test]
    fn a_write_into_a_recycled_buffer_is_the_fresh_write_in_both_precisions() {
        recycled_writes_match_fresh_ones::<f32>();
        recycled_writes_match_fresh_ones::<f64>();
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
                assert!(a.plan.segments.iter().enumerate().all(|(ki, s)| s.sweep.kernels == [ki]));
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

        // The priced selector on a register below the crossover: the
        // pin's decisions, so the pin's plan, however it was selected.
        let priced = with(PlannerCosts::host_reference());
        let mut resumed = SegmentedRun::resume(&dev, &c, &priced, ck).unwrap();
        assert!(resumed.plan.segments.iter().all(|s| s.predicted().is_none()));
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
