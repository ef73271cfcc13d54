//! Sharded distributed execution: one job partitioned across a worker
//! group.
//!
//! Jobs beyond the single-worker feasibility cutoff (the dense state
//! vector does not fit one device) are admitted as [`crate::job::Engine::Sharded`]
//! and executed on a [`qgear_cluster::DistributedState`] spread over a
//! power-of-two shard group (`qgear_perfmodel::memory::plan_shard_count`
//! picks the width at admission). The stepper driver advances the
//! cluster crate's walker ([`ShardedRun`], the same one
//! `ClusterEngine::run` drives straight through) in *segments* of fused
//! blocks; what lives here is admission's group width, fault arming and
//! the audit hooks. Every interior segment
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
//! byte-identical to an unfaulted one. Against an *unsharded* run the
//! same holds only when that one also runs kernel-at-a-time in program
//! order — a service at `sweep_width: 0`, which is what a group steps at
//! whatever the service is configured with: the distributed engine then
//! applies the identical fused kernels the dense engine would. A dense
//! service at its default sweep width reorders commuting kernels and
//! agrees with a sharded run to round-off, not to the bit.

use crate::event::EventKind;
use crate::scheduler::QueuedJob;
use crate::service::{shard_min_local_width, Injected, Shared};
use crate::stepper::{StepSource, Stepper};
use qgear_cluster::{ClusterEngine, CommError, ShardedRun};
use qgear_perfmodel::memory::plan_shard_count;
use qgear_statevec::checkpoint::{CheckpointError, CheckpointScalar, StateCheckpoint};
use qgear_statevec::{marginal_of_runs, ExecStats, RunOptions, SimError};
use qgear_telemetry::{counter_inc, names};
use std::cell::Cell;

/// Sharded-serving knobs. Attaching this to `ServeConfig::shard` turns
/// beyond-cutoff rejections into shard-group admissions. Groups run on
/// [`ClusterEngine::a100_cluster`]'s topology.
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
        /// Cursor recovered to (`None` = no verified generation survived;
        /// the dispatch cold-restarted from `|0…0⟩`).
        resumed_from: Option<u64>,
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

impl<T: CheckpointScalar> Stepper<T> for ShardedRun<T> {
    fn advance(&mut self, max_steps: usize) -> Result<(), CommError> {
        ShardedRun::advance(self, max_steps)
    }

    fn is_done(&self) -> bool {
        ShardedRun::is_done(self)
    }

    fn cursor(&self) -> u64 {
        ShardedRun::cursor(self) as u64
    }

    fn encode_checkpoint(&self) -> Vec<u8> {
        ShardedRun::encode_checkpoint(self)
    }

    fn stats(&self) -> ExecStats {
        ShardedRun::stats(self)
    }

    fn marginal(&self, measured: &[u32]) -> Vec<f64> {
        let dist = self.dist();
        marginal_of_runs(dist.logical_runs(), dist.num_qubits(), measured)
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
    /// The shard group as the cluster walker sees it: admission's width,
    /// the default topology, the service clock.
    engine: ClusterEngine,
    /// The job's [`crate::service`] run options at `sweep_width: 0`: a
    /// group steps — and checkpoints — per fused block in program order.
    /// The checkpoint plan fingerprint covers them, so every dispatch
    /// must rebuild the same.
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
            opts: RunOptions { sweep_width: 0, ..opts },
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
    shared.record(&mut shared.lock(), EventKind::Shard(record));
}

impl<T: CheckpointScalar> StepSource<T> for ShardSource<'_> {
    type Run = ShardedRun<T>;

    fn fresh(&self) -> Result<Self::Run, SimError> {
        ShardedRun::new(&self.engine, &self.job.canonical, &self.opts).map(|run| self.arm(run))
    }

    fn resume(&self, ck: StateCheckpoint<T>) -> Result<Self::Run, CheckpointError> {
        ShardedRun::resume(&self.engine, &self.job.canonical, &self.opts, ck)
            .map(|run| self.arm(run))
    }

    fn settled(&self, restored: Option<u64>, broken: Option<(&Self::Run, CommError)>) {
        match (broken, restored) {
            (Some((run, err)), resumed_from) => {
                counter_inc(names::SERVE_SHARD_LINK_FAULTS);
                let job = self.job.id.0;
                let exchange = run.dist().exchanges().saturating_sub(1);
                let corrupt = matches!(err, CommError::Corrupted);
                log(self.shared, ShardRecord::LinkFault { job, exchange, corrupt, resumed_from });
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
        let traffic = run.dist().traffic();
        log(
            self.shared,
            ShardRecord::Completed {
                job: self.job.id.0,
                shards: self.engine.num_devices as u32,
                exchanges: run.dist().exchanges(),
                messages: traffic.total_messages(),
                bytes: traffic.total_bytes(),
            },
        );
    }
}
