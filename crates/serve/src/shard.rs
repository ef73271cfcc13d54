//! Sharded distributed execution: one job partitioned across a worker
//! group.
//!
//! Jobs beyond the single-worker feasibility cutoff (the dense state
//! vector does not fit one device) are admitted as [`crate::job::Engine::Sharded`]
//! and executed on a [`qgear_cluster::DistributedState`] spread over a
//! power-of-two shard group (`qgear_perfmodel::memory::plan_shard_count`
//! picks the width at admission). The stepper driver advances the one
//! walker, [`SegmentedRun`] over that partitioned placement (built by
//! [`ClusterEngine::stepper`], the same walker `ClusterEngine::run`
//! drives straight through and a dense job walks resident), in
//! *segments* of plan steps; what lives here is admission's group
//! width, fault arming and the audit hooks. Every interior segment
//! boundary writes a QCKP-v1 checkpoint generation — the bytes of the
//! gathered state, written from the slices without gathering them —
//! which makes the checkpoint, not the shard, the unit of migration:
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
//! width-independent, so a migrated or recovered run finishes
//! byte-identical to an unfaulted one. A group runs the plan the dense
//! service would run for the same job — the service's own run options,
//! one step per plan segment — so a sharded job's counts are also the
//! dense service's, bit for bit, at whatever fusion and sweep widths the
//! service is configured with.

use crate::event::EventKind;
use crate::scheduler::QueuedJob;
use crate::service::{shard_min_local_width, Injected, Shared};
use crate::stepper::StepSource;
use qgear_cluster::{ClusterEngine, CommError, DistributedState};
use qgear_num::Scalar;
use qgear_perfmodel::memory::plan_shard_count;
use qgear_statevec::checkpoint::{CheckpointError, StateCheckpoint};
use qgear_statevec::{RunOptions, SegmentedRun, SimError};
use qgear_telemetry::{counter_inc, names};
use std::cell::Cell;

/// Sharded-serving knobs. Attaching this to `ServeConfig::shard` turns
/// beyond-cutoff rejections into shard-group admissions. Groups run on
/// the default [`qgear_cluster::ClusterTopology`].
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Largest shard group admission may plan (power-of-two widths up to
    /// this are considered, smallest sufficient wins).
    pub max_shards: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { max_shards: 64 }
    }
}

/// One step of a shard group's life — an [`crate::EventKind::Shard`]
/// event: every group start, fault and completion in the order the
/// workers performed them. Jobs are serving ids (`JobId.0`). What the
/// recovery ladder then did — the migration onto the replacement group,
/// or a cold restart — is the job's next
/// [`crate::CheckpointRecord::Resumed`] / `ColdRestart` event and is not
/// repeated here. The simtest exchange-conservation and migration
/// oracles replay this.
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
    /// A pairwise exchange failed and the dispatch recovered in place.
    LinkFault {
        /// Serving id.
        job: u64,
        /// Zero-based index of the failed exchange.
        exchange: u64,
        /// `true` = corrupted payload, `false` = dropped partner.
        corrupt: bool,
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
    /// The shard group as the cluster walker sees it: admission's width,
    /// the default topology, the service clock.
    engine: ClusterEngine,
    /// The job's [`crate::service`] run options, as a dense dispatch
    /// gets them. The checkpoint plan fingerprint covers them, so every
    /// dispatch must rebuild the same.
    opts: RunOptions,
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
        opts: RunOptions,
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
            engine: ClusterEngine {
                clock: cfg.clock.clone(),
                ..ClusterEngine::a100_cluster(shards as usize)
            },
            opts,
            lost_shard: injected.lost_shard,
            link_fault: Cell::new(injected.link_fault),
        })
    }

    fn arm<T: Scalar>(&self, mut run: Walker<T>) -> Walker<T> {
        if let Some((exchange, corrupt)) = self.link_fault.take() {
            let err = if corrupt { CommError::Corrupted } else { CommError::Dropped };
            run.state_mut().inject_link_fault(u64::from(exchange), err);
        }
        run
    }
}

/// The one walker over a shard group's partitioned state.
type Walker<T> = SegmentedRun<T, DistributedState<T>>;

fn log(shared: &Shared, record: ShardRecord) {
    shared.record(&mut shared.lock(), EventKind::Shard(record));
}

impl<T: Scalar> StepSource<T> for ShardSource<'_> {
    type Run = Walker<T>;

    fn fresh(&self) -> Result<Self::Run, SimError> {
        self.engine.stepper(&self.job.canonical, &self.opts).map(|run| self.arm(run))
    }

    fn resume(&self, ck: StateCheckpoint<T>) -> Result<Self::Run, CheckpointError> {
        self.engine.resume(&self.job.canonical, &self.opts, ck).map(|run| self.arm(run))
    }

    fn settled(&self, restored: Option<u64>, broken: Option<(&Self::Run, CommError)>) {
        match (broken, restored) {
            (Some((run, err)), _) => {
                counter_inc(names::SERVE_SHARD_LINK_FAULTS);
                let job = self.job.id.0;
                let exchange = run.state().exchanges().saturating_sub(1);
                let corrupt = matches!(err, CommError::Corrupted);
                log(self.shared, ShardRecord::LinkFault { job, exchange, corrupt });
            }
            // The ladder's own `Resumed` event is the record of it.
            (None, Some(_)) => counter_inc(names::SERVE_SHARD_MIGRATIONS),
            (None, None) => {}
        }
    }

    /// The lost shard is a shard event; the replacement group is the
    /// job's next dispatch.
    fn died(&self, after_segments: u32) {
        let (job, shard) = (self.job.id.0, self.lost_shard);
        log(self.shared, ShardRecord::WorkerLost { job, shard, after_segments });
    }

    /// Record the surviving instance's traffic (the conservation oracle
    /// checks messages == 2 × exchanges against it).
    fn completed(&self, run: &Self::Run) {
        let traffic = run.state().traffic();
        log(
            self.shared,
            ShardRecord::Completed {
                job: self.job.id.0,
                shards: self.engine.num_devices as u32,
                exchanges: run.state().exchanges(),
                messages: traffic.total_messages(),
                bytes: traffic.total_bytes(),
            },
        );
    }
}
