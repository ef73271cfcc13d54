//! Sharded distributed execution: one job partitioned across a worker
//! group.
//!
//! Jobs beyond the single-worker feasibility cutoff (the dense state
//! vector does not fit one device) are admitted as [`crate::job::Engine::Sharded`]
//! and executed on a [`qgear_cluster::DistributedState`] spread over a
//! power-of-two shard group (`qgear_perfmodel::memory::plan_shard_count`
//! picks the width at admission). The stepper driver advances a
//! [`ShardedRun`] in *segments* of fused blocks; every interior segment
//! boundary gathers the partitioned state and writes a QCKP-v1 checkpoint
//! generation, which makes the checkpoint — not the shard — the unit of
//! migration:
//!
//! * a [`crate::fault::FaultKind::ShardWorkerDeath`] tears the group
//!   down and requeues the job; the replacement dispatch restores the
//!   newest verified generation and re-scatters it onto a fresh group
//!   ([`qgear_cluster::DistributedState::from_state`]) — a live-shard
//!   migration;
//! * a [`crate::fault::FaultKind::LinkFault`] kills one pairwise
//!   exchange mid-segment; the same dispatch recovers in place from the
//!   newest verified generation.
//!
//! Both recoveries are bit-exact: gathered amplitudes are layout- and
//! width-independent, and the distributed engine applies the identical
//! fused kernels the dense engine would, so a migrated or recovered run
//! finishes byte-identical to an unfaulted (or unsharded) one.

use crate::pool::PoolDecision;
use crate::scheduler::QueuedJob;
use crate::service::{sampling_of, shard_min_local_width, Injected, Shared};
use crate::stepper::{StepSource, Stepper};
use qgear_cluster::{ClusterTopology, CommError, DistributedState, LinkClass};
use qgear_ir::fusion::{fuse, FusedProgram};
use qgear_ir::Circuit;
use qgear_perfmodel::memory::plan_shard_count;
use qgear_statevec::checkpoint::{
    encode, plan_fingerprint, CheckpointCounters, CheckpointError, CheckpointScalar,
    StateCheckpoint,
};
use qgear_statevec::sampling::SamplingConfig;
use qgear_statevec::{ExecStats, SimError, StateVector};
use qgear_telemetry::clock::Clock;
use qgear_telemetry::{counter_inc, names};
use std::cell::Cell;
use std::time::Duration;

/// Sharded-serving knobs. Attaching this to `ServeConfig::shard` turns
/// beyond-cutoff rejections into shard-group admissions (GPU backend
/// only — the shard slices are device slices).
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Largest shard group admission may plan (power-of-two widths up to
    /// this are considered, smallest sufficient wins).
    pub max_shards: u32,
    /// Interconnect layout for exchange-traffic classification.
    pub topology: ClusterTopology,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { max_shards: 64, topology: ClusterTopology::default() }
    }
}

/// One entry of the shard audit log ([`crate::Service::shard_log`]):
/// every group start, fault, recovery, and completion in the order the
/// workers performed them. Jobs are serving ids (`JobId.0`). The simtest
/// exchange-conservation and migration oracles replay this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRecord {
    /// A dispatch entered sharded execution on a group this wide.
    Started {
        /// Serving id.
        job: u64,
        /// Shard-group width.
        shards: u32,
    },
    /// A shard worker died; the group was torn down and the job requeued.
    WorkerLost {
        /// Serving id.
        job: u64,
        /// Shard rank whose worker died.
        shard: u32,
        /// Segments the group completed before the death.
        after_segments: u32,
    },
    /// A replacement dispatch restored a checkpoint generation onto a
    /// fresh group — the migration itself.
    Migrated {
        /// Serving id.
        job: u64,
        /// Schedule cursor of the restored generation.
        resumed_from: u64,
    },
    /// A pairwise exchange failed and the dispatch recovered in place.
    LinkFault {
        /// Serving id.
        job: u64,
        /// Zero-based index of the failed exchange.
        exchange: u64,
        /// `true` = corrupted payload, `false` = dropped partner.
        corrupt: bool,
        /// Cursor recovered to (`None` = no verified generation survived;
        /// the dispatch cold-restarted from `|0…0⟩`).
        resumed_from: Option<u64>,
    },
    /// No verified generation survived the ladder; the dispatch restarted
    /// from `|0…0⟩`.
    ColdRestarted {
        /// Serving id.
        job: u64,
    },
    /// The group finished the schedule and sampled. Traffic counters are
    /// the *final* group instance's (a migration or in-place recovery
    /// discards the counters of the instance it replaced).
    Completed {
        /// Serving id.
        job: u64,
        /// Shard-group width.
        shards: u32,
        /// Pairwise exchanges performed.
        exchanges: u64,
        /// Messages moved (two per exchange, one per direction).
        messages: u64,
        /// Payload bytes moved across all link classes.
        bytes: u128,
    },
}

/// A resumable sharded execution of one job: the partitioned state plus
/// a cursor into its fused schedule. The serving layer drives it in
/// segments and snapshots it at segment boundaries; everything here is
/// deterministic, so equal `(circuit, fusion_width, precision)` rebuild
/// byte-identical schedules and a cursor is portable across dispatches
/// — and across shard widths, since gathered amplitudes are
/// width-independent.
pub struct ShardedRun<T: CheckpointScalar> {
    dist: DistributedState<T>,
    prog: FusedProgram,
    cursor: usize,
    fingerprint: u64,
    sampling: SamplingConfig,
    /// Evolve time this group instance spent in driven `advance` calls,
    /// read from the service clock (see the [`Stepper`] impl).
    elapsed: Duration,
}

impl<T: CheckpointScalar> ShardedRun<T> {
    /// Start a fresh run of `circuit` (measurements stripped for the
    /// evolution schedule) over a `shards`-wide group.
    pub fn new(
        circuit: &Circuit,
        shards: u32,
        topology: ClusterTopology,
        fusion_width: usize,
        sampling: SamplingConfig,
    ) -> Self {
        let (evolve, _) = circuit.split_measurements();
        let prog = fuse(&evolve, fusion_width);
        let fingerprint =
            plan_fingerprint(circuit, fusion_width, 0, false, T::PRECISION_TAG);
        let dist = DistributedState::zero(circuit.num_qubits(), shards as usize, topology);
        ShardedRun { dist, prog, cursor: 0, fingerprint, sampling, elapsed: Duration::ZERO }
    }

    /// Resume from a decoded checkpoint: rebuild the schedule, refuse
    /// anything that does not match it bit-for-bit, then re-scatter the
    /// snapshot amplitudes onto a fresh `shards`-wide group.
    pub fn resume(
        circuit: &Circuit,
        shards: u32,
        topology: ClusterTopology,
        fusion_width: usize,
        ck: StateCheckpoint<T>,
    ) -> Result<Self, CheckpointError> {
        let expected = plan_fingerprint(circuit, fusion_width, 0, false, T::PRECISION_TAG);
        if ck.fingerprint != expected {
            return Err(CheckpointError::PlanMismatch {
                expected,
                found: ck.fingerprint,
            });
        }
        if ck.num_qubits != circuit.num_qubits() {
            return Err(CheckpointError::Malformed("register width mismatch"));
        }
        let (evolve, _) = circuit.split_measurements();
        let prog = fuse(&evolve, fusion_width);
        let steps_total = prog.blocks.len() as u64;
        if ck.steps_total != steps_total || ck.cursor > steps_total {
            return Err(CheckpointError::CursorOutOfRange {
                cursor: ck.cursor,
                steps_total: ck.steps_total,
            });
        }
        let dist = DistributedState::from_state(&ck.state, shards as usize, topology);
        Ok(ShardedRun {
            dist,
            prog,
            cursor: ck.cursor as usize,
            fingerprint: ck.fingerprint,
            sampling: ck.sampling,
            elapsed: Duration::ZERO,
        })
    }

    /// Fused blocks already applied.
    pub fn cursor(&self) -> u64 {
        self.cursor as u64
    }

    /// Total fused blocks in the schedule.
    pub fn steps_total(&self) -> u64 {
        self.prog.blocks.len() as u64
    }

    /// True once every block has been applied.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.prog.blocks.len()
    }

    /// Shard-group width.
    pub fn shards(&self) -> u32 {
        self.dist.num_devices() as u32
    }

    /// Arm a one-shot link fault on the group's fabric (see
    /// [`DistributedState::inject_link_fault`]).
    pub fn inject_link_fault(&mut self, at_exchange: u64, err: CommError) {
        self.dist.inject_link_fault(at_exchange, err);
    }

    /// Apply up to `max_blocks` further fused blocks (at least one;
    /// `usize::MAX` runs to the end). On a [`CommError`] the partitioned
    /// state is inconsistent and this run must be discarded — the cursor
    /// still names the last *completed* block, so callers know which
    /// checkpoint generation to prefer.
    pub fn advance(&mut self, max_blocks: usize) -> Result<(), CommError> {
        let end = self.cursor.saturating_add(max_blocks.max(1)).min(self.prog.blocks.len());
        while self.cursor < end {
            let block = &self.prog.blocks[self.cursor];
            self.dist.apply_block(block)?;
            self.cursor += 1;
        }
        Ok(())
    }

    /// Snapshot the run: gather the partitioned amplitudes (bit-exact at
    /// any layout) into a QCKP-v1 checkpoint that any later dispatch —
    /// or any other shard width — can resume from.
    pub fn checkpoint(&self) -> StateCheckpoint<T> {
        StateCheckpoint {
            num_qubits: self.dist.num_qubits(),
            cursor: self.cursor as u64,
            steps_total: self.steps_total(),
            fingerprint: self.fingerprint,
            counters: self.counters(),
            sampling: self.sampling,
            state: self.dist.gather(),
        }
    }

    /// The full state in logical amplitude order (for final sampling).
    pub fn state(&self) -> StateVector<T> {
        self.dist.gather()
    }

    /// Deterministic engine counters for the blocks applied so far —
    /// derived from the cursor alone, so a resumed run's stats match an
    /// uninterrupted one regardless of which generation it restored.
    fn counters(&self) -> CheckpointCounters {
        let gates: u64 = self.prog.blocks[..self.cursor]
            .iter()
            .map(|b| b.source_gates as u64)
            .sum();
        CheckpointCounters {
            gates_applied: gates,
            kernels_launched: self.cursor as u64,
            ..CheckpointCounters::default()
        }
    }

    /// Execution stats for the blocks applied so far. Schedule counters
    /// — including `bytes_touched` (one read + one write of the full
    /// state per block) and `flops`, by the same closed forms
    /// `ClusterEngine::run` charges — are cursor-derived and therefore
    /// migration-invariant. Communication counters and `elapsed` are
    /// this group instance's (see [`ShardRecord::Completed`]): a
    /// replacement group does not inherit a dead one's traffic or time.
    pub fn stats(&self) -> ExecStats {
        let counters = self.counters();
        let applied = &self.prog.blocks[..self.cursor];
        let n_amps = 1u128 << self.dist.num_qubits();
        let traffic = self.dist.traffic();
        let mut comm_bytes = [0u128; 3];
        for class in LinkClass::ALL {
            comm_bytes[class as usize] = traffic.bytes_over(class);
        }
        ExecStats {
            gates_applied: counters.gates_applied,
            kernels_launched: counters.kernels_launched,
            bytes_touched: 2 * n_amps * (2 * T::BYTES) as u128 * applied.len() as u128,
            flops: applied.iter().map(|b| n_amps * (1u128 << b.qubits.len())).sum(),
            elapsed: self.elapsed,
            comm_bytes,
            comm_messages: traffic.total_messages(),
            ..ExecStats::default()
        }
    }

    /// Pairwise exchanges performed by this group instance.
    pub fn exchanges(&self) -> u64 {
        self.dist.exchanges()
    }

    /// Messages moved by this group instance.
    pub fn messages(&self) -> u64 {
        self.dist.traffic().total_messages()
    }

    /// Payload bytes moved by this group instance.
    pub fn bytes(&self) -> u128 {
        self.dist.traffic().total_bytes()
    }
}

impl<T: CheckpointScalar> Stepper<T> for ShardedRun<T> {
    /// Evolve time accumulates from the service clock, as
    /// `ClusterEngine` times its phases — this crate reads no other.
    fn advance(&mut self, max_steps: usize, clock: &dyn Clock) -> Result<(), CommError> {
        let start = clock.now();
        let result = ShardedRun::advance(self, max_steps);
        self.elapsed += clock.now().saturating_sub(start);
        result
    }

    fn is_done(&self) -> bool {
        ShardedRun::is_done(self)
    }

    fn cursor(&self) -> u64 {
        ShardedRun::cursor(self)
    }

    fn encode_checkpoint(&self) -> Vec<u8> {
        encode(&ShardedRun::checkpoint(self))
    }

    fn stats(&self) -> ExecStats {
        ShardedRun::stats(self)
    }

    fn into_state(self) -> StateVector<T> {
        ShardedRun::state(&self)
    }
}

/// Steppers for one dispatch of a sharded job, and the shard-specific
/// reading of the driver's decisions:
///
/// * a generation restored at the **start** of a dispatch means a
///   previous dispatch's group died — restoring it onto this fresh group
///   *is* the migration. A partitioned state with a hole in it is
///   unusable, so a shard-worker death tears the whole group down and
///   requeues the job rather than patching the group;
/// * a run **broken** mid-segment by a link fault is discarded and the
///   dispatch continues on a fresh group without leaving the worker.
pub(crate) struct ShardSource<'a> {
    shared: &'a Shared,
    job: &'a QueuedJob,
    shards: u32,
    topology: ClusterTopology,
    lost_shard: u32,
    /// Armed on the first group this dispatch builds, then spent: the
    /// group that recovers from the fault must run clean.
    link_fault: Cell<Option<(u32, bool)>>,
}

impl<'a> ShardSource<'a> {
    /// Re-derive the group width admission planned (same pure function,
    /// same inputs) and log the dispatch's entry into sharded execution.
    pub(crate) fn plan(
        shared: &'a Shared,
        job: &'a QueuedJob,
        injected: &Injected,
    ) -> Result<Self, SimError> {
        let cfg = &shared.cfg;
        let shard_cfg = cfg.shard.expect("sharded admission implies a shard config");
        let shards = plan_shard_count(
            job.canonical.num_qubits(),
            job.spec.precision,
            cfg.backend.memory_bytes(),
            shard_min_local_width(cfg),
            shard_cfg.max_shards,
        )
        .ok_or_else(|| {
            SimError::Interconnect("admitted sharded job lost its shard plan".to_owned())
        })?;
        log(shared, ShardRecord::Started { job: job.id.0, shards });
        Ok(ShardSource {
            shared,
            job,
            shards,
            topology: shard_cfg.topology,
            lost_shard: injected.lost_shard,
            link_fault: Cell::new(injected.link_fault),
        })
    }

    fn arm<T: CheckpointScalar>(&self, mut run: ShardedRun<T>) -> ShardedRun<T> {
        if let Some((exchange, corrupt)) = self.link_fault.take() {
            let err = if corrupt { CommError::Corrupted } else { CommError::Dropped };
            run.inject_link_fault(u64::from(exchange), err);
        }
        run
    }
}

fn log(shared: &Shared, record: ShardRecord) {
    shared.state.lock().expect("serve state poisoned").shard_log.push(record);
}

impl<T: CheckpointScalar> StepSource<T> for ShardSource<'_> {
    type Run = ShardedRun<T>;

    fn fresh(&self) -> Result<Self::Run, SimError> {
        Ok(self.arm(ShardedRun::new(
            &self.job.canonical,
            self.shards,
            self.topology,
            self.shared.cfg.fusion_width,
            sampling_of(&self.job.spec),
        )))
    }

    fn resume(&self, ck: StateCheckpoint<T>) -> Result<Self::Run, CheckpointError> {
        let fusion_width = self.shared.cfg.fusion_width;
        ShardedRun::resume(&self.job.canonical, self.shards, self.topology, fusion_width, ck)
            .map(|run| self.arm(run))
    }

    fn settled(
        &self,
        restored: Option<u64>,
        had_generations: bool,
        broken: Option<(&Self::Run, CommError)>,
    ) {
        let job = self.job.id.0;
        if restored.is_none() && had_generations {
            log(self.shared, ShardRecord::ColdRestarted { job });
        }
        match (broken, restored) {
            (Some((run, err)), resumed_from) => {
                counter_inc(names::SERVE_SHARD_LINK_FAULTS);
                let exchange = run.exchanges().saturating_sub(1);
                let corrupt = matches!(err, CommError::Corrupted);
                log(self.shared, ShardRecord::LinkFault { job, exchange, corrupt, resumed_from });
            }
            (None, Some(resumed_from)) => {
                counter_inc(names::SERVE_SHARD_MIGRATIONS);
                log(self.shared, ShardRecord::Migrated { job, resumed_from });
            }
            (None, None) => {}
        }
    }

    /// The lost shard goes in the shard log and — when the pool is
    /// elastic — the replacement hand-off in the pool log.
    fn died(&self, after_segments: u32) {
        let (job, shard) = (self.job.id.0, self.lost_shard);
        let at = self.shared.cfg.clock.now();
        let mut st = self.shared.state.lock().expect("serve state poisoned");
        st.shard_log.push(ShardRecord::WorkerLost { job, shard, after_segments });
        if self.shared.cfg.pool.is_some() {
            st.pool_log.push(PoolDecision::Replace { at, job, shard });
        }
    }

    /// Record the surviving instance's traffic (the conservation oracle
    /// checks messages == 2 × exchanges against it).
    fn completed(&self, run: &Self::Run) {
        log(
            self.shared,
            ShardRecord::Completed {
                job: self.job.id.0,
                shards: self.shards,
                exchanges: run.exchanges(),
                messages: run.messages(),
                bytes: run.bytes(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_statevec::checkpoint::decode;

    fn job_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.3, 2).cx(1, 2).cr1(0.7, 2, 3).cx(2, 3).measure_all();
        c
    }

    fn sampling() -> SamplingConfig {
        SamplingConfig { shots: 100, seed: 7, batch_shots: 0 }
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let c = job_circuit();
        let topo = ClusterTopology::default();
        let mut whole: ShardedRun<f64> = ShardedRun::new(&c, 2, topo, 1, sampling());
        while !whole.is_done() {
            whole.advance(1).expect("healthy fabric");
        }

        let mut front: ShardedRun<f64> = ShardedRun::new(&c, 2, topo, 1, sampling());
        front.advance(3).expect("healthy fabric");
        let bytes = encode(&front.checkpoint());
        let ck = decode::<f64>(&bytes).expect("decodes");
        // Resume onto a *wider* group: amplitudes are width-independent.
        let mut back: ShardedRun<f64> =
            ShardedRun::resume(&c, 4, topo, 1, ck).expect("resumes");
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
    fn advance_usize_max_from_a_mid_run_cursor_finishes_the_schedule() {
        let mut run: ShardedRun<f64> =
            ShardedRun::new(&job_circuit(), 2, ClusterTopology::default(), 1, sampling());
        run.advance(1).expect("healthy fabric");
        // `cursor + usize::MAX` must saturate, not wrap to "apply nothing".
        run.advance(usize::MAX).expect("healthy fabric");
        assert!(run.is_done());
        assert_eq!(run.cursor(), run.steps_total());
    }

    #[test]
    fn resume_refuses_a_mismatched_plan() {
        let c = job_circuit();
        let topo = ClusterTopology::default();
        let mut run: ShardedRun<f64> = ShardedRun::new(&c, 2, topo, 1, sampling());
        run.advance(2).expect("healthy fabric");
        let ck = run.checkpoint();
        // A different fusion width rebuilds a different schedule.
        match ShardedRun::<f64>::resume(&c, 2, topo, 3, ck) {
            Err(CheckpointError::PlanMismatch { .. }) => {}
            Err(other) => panic!("wrong rejection: {other:?}"),
            Ok(_) => panic!("a mismatched plan must not resume"),
        }
    }

    #[test]
    fn link_fault_surfaces_and_leaves_the_cursor_at_the_last_good_block() {
        let c = job_circuit();
        let topo = ClusterTopology::default();
        let mut run: ShardedRun<f64> = ShardedRun::new(&c, 4, topo, 1, sampling());
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
        let c = job_circuit();
        let mut run: ShardedRun<f64> =
            ShardedRun::new(&c, 4, ClusterTopology::default(), 1, sampling());
        while !run.is_done() {
            run.advance(2).expect("healthy fabric");
        }
        assert_eq!(run.messages(), 2 * run.exchanges());
        assert!(run.bytes() > 0, "4 qubits over 4 devices must exchange");
    }
}
