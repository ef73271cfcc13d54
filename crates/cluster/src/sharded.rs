//! The partitioned-state walker: a resumable cursor over an
//! [`ExecutionPlan`]'s kernels, executed on a [`DistributedState`].
//!
//! [`ShardedRun`] is to a state pooled over a device group what
//! [`qgear_statevec::SegmentedRun`] is to a state resident on one
//! device: it asks the same plan builder for the same schedule, applies
//! it in bounded steps under caller control, and keeps the same
//! contract, [`qgear_statevec::Stepper`], with a broken exchange as its
//! fault. [`ClusterEngine::run`](crate::ClusterEngine) hands it to the
//! one straight-through tail, [`qgear_statevec::straight_through`];
//! `qgear-serve` drives it in segments, snapshots it at segment
//! boundaries, and migrates the snapshots between shard groups.
//!
//! The distributed engine executes kernel-at-a-time (each kernel may
//! force a layout exchange), so a step is one fused block and of the
//! plan it takes the *ordering*: with sweep scheduling on, kernels with
//! shared support land adjacently, which keeps hot qubits local between
//! exchanges; at `sweep_width: 0` the order is the program's. Every
//! block runs as the exact kernel — one plan per step, run over every
//! slice ([`qgear_statevec::gpu::GpuDevice::apply_to_slices`]) —
//! whatever mode a single-device walker would give its segment, so the
//! plan is built under the [`SegmentMode::Sweep`] pin, which prices and
//! classifies nothing. "Exact" is bit-identical to sequential dense
//! application of the block to the gathered state, not the dense
//! arithmetic itself: the kernel skips matrix entries that are exactly
//! zero, which no result bit can see, short of a partial sum
//! underflowing to `-0.0` (the argument is on `KernelPlan::new` in
//! `qgear-statevec`'s `gpu.rs`).
//!
//! Everything here is deterministic, so equal `(circuit, options,
//! precision)` rebuild byte-identical schedules and a cursor is portable
//! across runs — and across group widths, since gathered amplitudes are
//! width-independent.

use crate::comm::{ClusterTopology, CommError, LinkClass};
use crate::distributed::DistributedState;
use crate::engine::ClusterEngine;
use qgear_ir::{fusion, Circuit};
use qgear_num::Scalar;
use qgear_statevec::checkpoint::{
    encode_runs, plan_fingerprint, CheckpointCounters, CheckpointError, StateCheckpoint,
};
use qgear_statevec::planner::{self, ExecutionPlan, PlannerCosts, SegmentMode};
use qgear_statevec::{
    marginal_of_runs, ExecStats, RunOptions, SamplingConfig, SimError, StateVector, Stepper,
};
use qgear_telemetry::clock::SharedClock;
use std::sync::OnceLock;
use std::time::Duration;

/// A partially-executed pooled simulation: the partitioned state plus a
/// cursor into its plan's kernel order.
pub struct ShardedRun<T: Scalar> {
    dist: DistributedState<T>,
    plan: ExecutionPlan,
    /// [`ExecutionPlan::block_order`]: the schedule this run steps
    /// through, one kernel per step.
    order: Vec<usize>,
    cursor: usize,
    /// Kept for the fingerprint a checkpoint carries, which
    /// Debug-formats the whole circuit: computed on first use, so a run
    /// that never checkpoints (`ClusterEngine::run`) never pays for it.
    circuit: Circuit,
    fingerprint: OnceLock<u64>,
    sampling: SamplingConfig,
    clock: SharedClock,
    /// Time this group instance spent in `advance` calls, on `clock`.
    elapsed: Duration,
}

/// Admission checks and the plan for `circuit` pooled over `engine`'s
/// devices: the group must be a power of two, every kernel must be
/// remappable onto local bits, and one slice must fit one device. The
/// plan is built inside a `simulate` span, as `SegmentedRun`'s is.
fn plan_for<T: Scalar>(
    engine: &ClusterEngine,
    circuit: &Circuit,
    opts: &RunOptions,
) -> Result<ExecutionPlan, SimError> {
    let n = circuit.num_qubits();
    if !engine.num_devices.is_power_of_two() {
        return Err(SimError::UnsupportedGate(format!(
            "mgpu requires a power-of-two device count, got {}",
            engine.num_devices
        )));
    }
    let p = engine.num_devices.trailing_zeros();
    // Kernels execute on local bits after remapping, so the fusion
    // window cannot exceed the local width; two local bits are the
    // floor (a CX kernel needs both operands resident).
    if p > n || n - p < 2 {
        return Err(SimError::TooManyQubits(n));
    }
    let width = opts.fusion_width.clamp(1, fusion::MAX_FUSION_WIDTH).min((n - p) as usize);
    let local_bytes = (1u128 << (n - p)) * (2 * T::BYTES) as u128;
    let limit = opts.memory_limit.unwrap_or(engine.device.memory_bytes);
    if local_bytes > limit {
        return Err(SimError::OutOfMemory { required: local_bytes, limit });
    }
    let _sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
    planner::plan(
        circuit,
        width,
        opts.sweep_width,
        opts.sweep_reorder,
        &PlannerCosts::pinned(SegmentMode::Sweep),
        2 * T::BYTES,
    )
    .map_err(|e| SimError::UnsupportedGate(e.to_string()))
}

impl<T: Scalar> ShardedRun<T> {
    /// Check that `engine`'s group can hold `circuit`, build the plan
    /// the options select, and position the cursor at step zero of
    /// `|0…0⟩`.
    pub fn new(
        engine: &ClusterEngine,
        circuit: &Circuit,
        opts: &RunOptions,
    ) -> Result<Self, SimError> {
        let plan = plan_for::<T>(engine, circuit, opts)?;
        let dist = DistributedState::zero(
            circuit.num_qubits(),
            engine.num_devices,
            ClusterTopology::default(),
        );
        Ok(ShardedRun::assemble(engine, circuit, opts, plan, dist, 0))
    }

    fn assemble(
        engine: &ClusterEngine,
        circuit: &Circuit,
        opts: &RunOptions,
        plan: ExecutionPlan,
        dist: DistributedState<T>,
        cursor: usize,
    ) -> Self {
        ShardedRun {
            dist,
            order: plan.block_order(),
            plan,
            cursor,
            circuit: circuit.clone(),
            fingerprint: OnceLock::new(),
            sampling: opts.sampling(),
            clock: engine.clock.clone(),
            elapsed: Duration::ZERO,
        }
    }

    /// Total fused blocks in the schedule.
    pub fn steps_total(&self) -> usize {
        self.order.len()
    }

    /// The partitioned state (for cross-device sampling, the traffic
    /// counters, and link-fault injection).
    pub fn dist(&self) -> &DistributedState<T> {
        &self.dist
    }

    /// Arm a one-shot link fault on the group's fabric (see
    /// [`DistributedState::inject_link_fault`]).
    pub fn inject_link_fault(&mut self, at_exchange: u64, err: CommError) {
        self.dist.inject_link_fault(at_exchange, err);
    }

    /// The full state in logical amplitude order.
    pub fn state(&self) -> StateVector<T> {
        self.dist.gather()
    }

    /// Deterministic engine counters for the blocks applied so far —
    /// derived from the cursor alone, so a resumed run's stats match an
    /// uninterrupted one regardless of which generation it restored.
    fn counters(&self) -> CheckpointCounters {
        let applied = self.order[..self.cursor].iter().map(|&ki| &self.plan.blocks[ki]);
        CheckpointCounters {
            gates_applied: applied.map(|b| b.source_gates as u64).sum(),
            kernels_launched: self.cursor as u64,
            ..CheckpointCounters::default()
        }
    }

    /// Fingerprint of the plan this run executes (see
    /// [`plan_fingerprint`]); computed on first use and cached.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| plan_fingerprint(&self.circuit, T::BYTES as u8, self.plan.digest))
    }

    /// Snapshot the run: gather the partitioned amplitudes (bit-exact at
    /// any layout) into a QCKP checkpoint that any later run — on any
    /// group width — can resume from. Prefer
    /// [`Stepper::encode_checkpoint`] when only the bytes are wanted.
    pub fn checkpoint(&self) -> StateCheckpoint<T> {
        StateCheckpoint {
            num_qubits: self.dist.num_qubits(),
            cursor: self.cursor as u64,
            steps_total: self.steps_total() as u64,
            fingerprint: self.fingerprint(),
            counters: self.counters(),
            sampling: self.sampling,
            state: self.dist.gather(),
        }
    }

    /// Rebuild the plan for `(circuit, opts)`, refuse a checkpoint that
    /// does not match it exactly ([`StateCheckpoint::verify_against`]),
    /// then re-scatter the snapshot amplitudes onto `engine`'s group.
    pub fn resume(
        engine: &ClusterEngine,
        circuit: &Circuit,
        opts: &RunOptions,
        ck: StateCheckpoint<T>,
    ) -> Result<Self, CheckpointError> {
        let plan = plan_for::<T>(engine, circuit, opts)
            .map_err(|e| CheckpointError::Rebuild(e.to_string()))?;
        let fingerprint = plan_fingerprint(circuit, T::BYTES as u8, plan.digest);
        ck.verify_against(fingerprint, plan.blocks.len(), circuit.num_qubits())?;
        let dist =
            DistributedState::from_state(&ck.state, engine.num_devices, ClusterTopology::default());
        Ok(ShardedRun::assemble(engine, circuit, opts, plan, dist, ck.cursor as usize))
    }
}

impl<T: Scalar> Stepper<T> for ShardedRun<T> {
    /// A pairwise exchange failed mid-segment.
    type Fault = CommError;

    /// Applies fused blocks, timed on the engine's clock, and records the
    /// `simulate` span and the `kernels.launched` / `gates.applied`
    /// counters where [`qgear_statevec::SegmentedRun`] does.
    fn advance(&mut self, max_blocks: usize) -> Result<(), CommError> {
        let start = self.clock.now();
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let from = self.cursor;
        let end = self.cursor.saturating_add(max_blocks.max(1)).min(self.order.len());
        let result = (self.cursor..end).try_for_each(|step| {
            self.dist.apply_block(&self.plan.blocks[self.order[step]])?;
            self.cursor = step + 1;
            Ok(())
        });
        qgear_telemetry::counter_add(
            qgear_telemetry::names::KERNELS_LAUNCHED,
            (self.cursor - from) as u128,
        );
        if self.is_done() && self.cursor > from {
            qgear_telemetry::counter_add(
                qgear_telemetry::names::GATES_APPLIED,
                self.counters().gates_applied as u128,
            );
        }
        drop(sim_span);
        self.elapsed += self.clock.now().saturating_sub(start);
        result
    }

    fn is_done(&self) -> bool {
        self.cursor >= self.order.len()
    }

    fn cursor(&self) -> usize {
        self.cursor
    }

    /// Schedule counters — including `bytes_touched` (one read + one
    /// write of the full state per block) and `flops` — are
    /// cursor-derived and therefore migration-invariant. Communication
    /// counters and `elapsed` are this group instance's: a replacement
    /// group does not inherit a dead one's traffic or time.
    fn stats(&self) -> ExecStats {
        let counters = self.counters();
        let n_amps = 1u128 << self.dist.num_qubits();
        let traffic = self.dist.traffic();
        let mut comm_bytes = [0u128; 3];
        for class in LinkClass::ALL {
            comm_bytes[class as usize] = traffic.bytes_over(class);
        }
        ExecStats {
            gates_applied: counters.gates_applied,
            kernels_launched: counters.kernels_launched,
            bytes_touched: 2 * n_amps * (2 * T::BYTES) as u128 * self.cursor as u128,
            flops: self.order[..self.cursor]
                .iter()
                .map(|&ki| n_amps << self.plan.blocks[ki].qubits.len())
                .sum(),
            elapsed: self.elapsed,
            comm_bytes,
            comm_messages: traffic.total_messages(),
            ..ExecStats::default()
        }
    }

    /// The QCKP bytes of [`ShardedRun::checkpoint`] —
    /// `encode(&self.checkpoint())` byte for byte — written from the
    /// slices where they lie: the encoder walks
    /// [`DistributedState::logical_runs`], so nothing is gathered and the
    /// output is the only state-sized buffer.
    fn encode_checkpoint(&self) -> Vec<u8> {
        encode_runs(
            self.dist.logical_runs(),
            self.dist.num_qubits(),
            self.cursor as u64,
            self.steps_total() as u64,
            self.fingerprint(),
            &self.counters(),
            &self.sampling,
        )
    }

    fn marginal(&self, measured: &[u32]) -> Vec<f64> {
        marginal_of_runs(self.dist.logical_runs(), self.dist.num_qubits(), measured)
    }

    /// The slices gathered into one state.
    fn into_state(self) -> StateVector<T> {
        self.dist.gather()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_statevec::checkpoint::{decode, encode};

    fn job_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2).cr1(0.7, 2, 3).cx(2, 3).measure_all();
        c
    }

    /// Program order, one gate per kernel.
    fn opts() -> RunOptions {
        RunOptions { shots: 100, seed: 7, fusion_width: 1, sweep_width: 0, ..Default::default() }
    }

    fn group(shards: usize) -> ClusterEngine {
        ClusterEngine::a100_cluster(shards)
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let c = job_circuit();
        let mut whole: ShardedRun<f64> = ShardedRun::new(&group(2), &c, &opts()).unwrap();
        while !whole.is_done() {
            whole.advance(1).expect("healthy fabric");
        }

        let mut front: ShardedRun<f64> = ShardedRun::new(&group(2), &c, &opts()).unwrap();
        front.advance(3).expect("healthy fabric");
        let bytes = encode(&front.checkpoint());
        let ck = decode::<f64>(&bytes).expect("decodes");
        // Resume onto a *wider* group: amplitudes are width-independent.
        let mut back: ShardedRun<f64> =
            ShardedRun::resume(&group(4), &c, &opts(), ck).expect("resumes");
        assert_eq!(back.cursor(), 3);
        while !back.is_done() {
            back.advance(1).expect("healthy fabric");
        }
        assert_eq!(
            whole.state().amplitudes(),
            back.state().amplitudes(),
            "resumed run must be bit-identical"
        );
        assert_eq!(whole.stats().gates_applied, back.stats().gates_applied);
    }

    #[test]
    fn the_gather_free_writer_emits_the_gathering_writers_bytes_at_every_cursor() {
        // Thirteen qubits over four shards (two container chunks of
        // fp64), mixing both global qubits: the identity layout, whole
        // slices in a new order, and local bits displaced so that a chunk
        // is many short runs all come by.
        let mut c = Circuit::new(13);
        c.h(0).h(12).cx(12, 0).ry(0.4, 11).cx(0, 11).h(3).cr1(0.3, 12, 2).cx(11, 12);
        c.ry(1.1, 0).h(10).cx(10, 12).measure_all();
        let check = |run: &ShardedRun<f64>| {
            let gathered = encode(&run.checkpoint());
            assert_eq!(run.encode_checkpoint(), gathered, "cursor {}", run.cursor());
        };
        let mut run: ShardedRun<f64> = ShardedRun::new(&group(4), &c, &opts()).unwrap();
        let mut layouts = std::collections::BTreeSet::new();
        check(&run);
        while !run.is_done() {
            run.advance(1).expect("healthy fabric");
            check(&run);
            layouts.insert((0..13).map(|q| run.dist().physical(q)).collect::<Vec<_>>());
        }
        assert!(layouts.len() >= 3, "the layout was remapped: {layouts:?}");
        assert!(layouts.iter().any(|l| l[10] != 10), "a local bit displaced: {layouts:?}");
        // fp32, whose chunks hold twice the amplitudes.
        let mut run: ShardedRun<f32> = ShardedRun::new(&group(4), &c, &opts()).unwrap();
        run.advance(7).expect("healthy fabric");
        assert_eq!(run.encode_checkpoint(), encode(&run.checkpoint()));
    }

    #[test]
    fn resume_refuses_a_mismatched_plan() {
        let c = job_circuit();
        let mut run: ShardedRun<f64> = ShardedRun::new(&group(2), &c, &opts()).unwrap();
        run.advance(2).expect("healthy fabric");
        let ck = run.checkpoint();
        // A different fusion width rebuilds a different schedule.
        let wider = RunOptions { fusion_width: 2, ..opts() };
        match ShardedRun::<f64>::resume(&group(2), &c, &wider, ck) {
            Err(CheckpointError::PlanMismatch { .. }) => {}
            Err(other) => panic!("wrong rejection: {other:?}"),
            Ok(_) => panic!("a mismatched plan must not resume"),
        }
    }

    #[test]
    fn resume_reports_the_rebuilt_schedule_on_a_step_count_mismatch() {
        let c = job_circuit();
        let run: ShardedRun<f64> = ShardedRun::new(&group(2), &c, &opts()).unwrap();
        let rebuilt = run.steps_total() as u64;
        let mut ck = run.checkpoint();
        ck.steps_total = rebuilt + 5;
        ck.cursor = rebuilt + 2;
        // The same verdict, field for field, as `SegmentedRun::resume`.
        match ShardedRun::<f64>::resume(&group(2), &c, &opts(), ck) {
            Err(CheckpointError::CursorOutOfRange { cursor, steps_total }) => {
                assert_eq!((cursor, steps_total), (rebuilt + 2, rebuilt));
            }
            other => panic!("wrong verdict: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn link_fault_surfaces_and_leaves_the_cursor_at_the_last_good_block() {
        let mut run: ShardedRun<f64> =
            ShardedRun::new(&group(4), &job_circuit(), &opts()).unwrap();
        run.inject_link_fault(0, CommError::Dropped);
        let mut failed_at = None;
        while !run.is_done() {
            if let Err(e) = run.advance(1) {
                failed_at = Some((e, run.cursor()));
                break;
            }
        }
        let (err, cursor) = failed_at.expect("the armed fault must fire");
        assert_eq!(err, CommError::Dropped);
        assert!(cursor < run.steps_total());
    }

    #[test]
    fn conservation_messages_are_twice_exchanges() {
        let mut run: ShardedRun<f64> =
            ShardedRun::new(&group(4), &job_circuit(), &opts()).unwrap();
        while !run.is_done() {
            run.advance(2).expect("healthy fabric");
        }
        let traffic = run.dist().traffic();
        assert_eq!(traffic.total_messages(), 2 * run.dist().exchanges());
        assert!(traffic.total_bytes() > 0, "4 qubits over 4 devices must exchange");
    }
}
