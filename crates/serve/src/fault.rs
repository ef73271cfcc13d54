//! Deterministic fault injection: one fault script of targeted failures
//! plus an optional background rate of transient strikes.
//!
//! Real mQPU farms see transient device failures (ECC retirements, NVLink
//! hiccups, preempted containers); the serving layer must retry through
//! them. To keep the test suite reproducible, faults here are a pure
//! function of `(seed, job id, attempt)` — the same script always strikes
//! the same attempts, regardless of thread interleaving.
//!
//! [`FaultSchedule`] is the one script. Its explicit list of
//! [`FaultEvent`]s pins a specific [`FaultKind`] to a specific
//! `(job, attempt)` pair, for the deterministic simulation harness:
//! worker death mid-job, a corrupted cache entry, a panic, or a targeted
//! transient strike (e.g. one injected *during* another job's backoff
//! window). [`FaultSchedule::with_rate`] adds independent per-attempt
//! transient strikes at a configured rate, for statistical stress.
//! [`FaultSchedule::at`] answers both; a scheduled event outranks the
//! rate at the same coordinates.

/// What an injected fault does to the attempt it strikes. Every kind acts
/// the same on a lone job and on a member of a coalesced flush: both take
/// the one attempt loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The attempt fails transiently; the worker backs off and retries
    /// (counts against the retry budget).
    Transient,
    /// The worker dies mid-job: the job is requeued at the front of its
    /// tenant queue with its attempt ledger intact, and a (logically
    /// fresh) worker picks it up. In a flush, every member not yet run
    /// is requeued with it, each charged the dying dispatch. Does not
    /// consume a retry.
    WorkerDeath,
    /// The job's full-result cache entry is corrupted: the probe detects
    /// it, invalidates the entry, and falls through to a cold run.
    CorruptCache,
    /// The worker dies *mid-run*, after completing `after_segments`
    /// segments of segmented execution (so any checkpoints taken at
    /// earlier segment boundaries survive). Outside segmented dense
    /// execution (checkpointing off, or any other engine) this degrades
    /// to [`FaultKind::WorkerDeath`] at the attempt boundary. Does not
    /// consume a retry.
    WorkerDeathMidRun {
        /// Segments the attempt completes before the worker dies
        /// (≥ 1; the death lands strictly inside the run).
        after_segments: u32,
    },
    /// The checkpoint generation with this per-job generation number is
    /// corrupted at write time (one bit flipped in its encoded bytes).
    /// The recovery ladder must detect this via CRC verification and
    /// fall back to an older generation. The event's `attempt` field is
    /// ignored — corruption targets the write, whichever attempt
    /// performs it.
    CorruptCheckpoint {
        /// Zero-based per-job generation number to corrupt.
        generation: u32,
    },
    /// The engine call panics — the stand-in for a kernel or engine bug.
    /// The attempt loop contains it: the job ends
    /// `Failed(ServeError::Panicked)`, is not retried, and the worker goes
    /// on to its next job (in a flush, its next member).
    Panic,
    /// One worker of a *shard group* dies after the group completes
    /// `after_segments` segments of sharded execution. The whole
    /// partitioned run is torn down (a shard is useless alone), the job
    /// is requeued front-of-queue with its attempt ledger intact, and the
    /// replacement dispatch — on whichever worker pops it — restores the
    /// newest verified checkpoint generation and resumes: a live-shard
    /// migration. On a job that was not sharded this degrades to
    /// [`FaultKind::WorkerDeath`] at the attempt boundary. Does not
    /// consume a retry.
    ShardWorkerDeath {
        /// Shard rank whose worker dies (clamped to the group width).
        shard: u32,
        /// Segments the group completes before the death (≥ 1 to leave a
        /// checkpoint behind; 0 forces a cold restart on migration).
        after_segments: u32,
    },
    /// The `exchange`-th pairwise amplitude exchange of the struck
    /// attempt fails: `corrupt` models a payload rejected by the
    /// link-layer integrity check, otherwise the partner endpoint drops
    /// mid-rendezvous. Either way the partitioned state is dead; the
    /// attempt recovers *in place* from the newest verified checkpoint
    /// generation (transient-like: same dispatch, consumes a retry). On a
    /// job that was not sharded this degrades to
    /// [`FaultKind::Transient`].
    LinkFault {
        /// Zero-based index of the pairwise exchange to strike, counted
        /// across the whole attempt (out-of-range never fires).
        exchange: u32,
        /// `true` = corrupted payload, `false` = dropped partner.
        corrupt: bool,
    },
}

/// One scheduled fault: `kind` strikes `attempt` (0-based, cumulative
/// across worker deaths) of `job`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Target job id (admission order, starting at 0).
    pub job: u64,
    /// Target attempt index. For [`FaultKind::CorruptCache`] this is the
    /// cache-probe index and should be 0.
    pub attempt: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// The one fault script: scheduled events plus an optional background
/// rate of transient strikes.
///
/// [`FaultSchedule::at`] is the lookup the attempt loop makes. A schedule
/// both adds faults a rate never produces (worker death, cache
/// corruption, panics) and pins down exactly which attempts strike — the
/// property the simulation harness's replay and shrinking machinery
/// relies on.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    /// Probability in `[0, 1]` that any given attempt strikes
    /// transiently.
    rate: f64,
    /// Seed decorrelating the rate's strikes from another schedule's at
    /// the same rate.
    seed: u64,
}

impl FaultSchedule {
    /// No faults ever — the default for production-like runs.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Strike each attempt transiently, independently, with probability
    /// `rate`; add targeted events with [`FaultSchedule::with_event`].
    pub fn with_rate(rate: f64, seed: u64) -> Self {
        FaultSchedule { events: Vec::new(), rate, seed }
    }

    /// Builder: add one scheduled fault.
    pub fn with_event(mut self, job: u64, attempt: u32, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { job, attempt, kind });
        self
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The fault that strikes `attempt` (0-based, cumulative across
    /// worker deaths) of `job`, if any: the first event scheduled there
    /// that acts at the attempt boundary, else a rate strike
    /// ([`FaultKind::Transient`]). [`FaultKind::CorruptCache`] is consumed
    /// at the cache probe and [`FaultKind::CorruptCheckpoint`] at the
    /// checkpoint write, so neither is answered here.
    pub fn at(&self, job: u64, attempt: u32) -> Option<FaultKind> {
        self.events_for(job, attempt)
            .find(|kind| {
                !matches!(kind, FaultKind::CorruptCache | FaultKind::CorruptCheckpoint { .. })
            })
            .or_else(|| self.strikes(job, attempt).then_some(FaultKind::Transient))
    }

    /// All scheduled faults for `(job, attempt)`, in insertion order.
    /// Multiple events at the same coordinates compose: e.g. a
    /// [`FaultKind::WorkerDeathMidRun`] paired with a
    /// [`FaultKind::CorruptCheckpoint`] models "the worker dies and the
    /// checkpoint it just wrote is torn".
    fn events_for(&self, job: u64, attempt: u32) -> impl Iterator<Item = FaultKind> + '_ {
        self.events
            .iter()
            .filter(move |e| e.job == job && e.attempt == attempt)
            .map(|e| e.kind)
    }

    /// Does the background rate strike `attempt` of `job`?
    fn strikes(&self, job: u64, attempt: u32) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        if self.rate >= 1.0 {
            return true;
        }
        let mixed = splitmix64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(job)
                .wrapping_add((u64::from(attempt)) << 48),
        );
        // Top 53 bits → uniform f64 in [0, 1).
        let unit = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.rate
    }

    /// True when `job`'s cache probe is scheduled to find corruption.
    pub fn corrupts_cache(&self, job: u64) -> bool {
        self.events
            .iter()
            .any(|e| e.job == job && e.kind == FaultKind::CorruptCache)
    }

    /// True when `job`'s checkpoint write of `generation` is scheduled
    /// to be corrupted. Attempt-independent: corruption strikes the
    /// write itself, whichever attempt performs it.
    pub fn corrupts_checkpoint(&self, job: u64, generation: u64) -> bool {
        self.events.iter().any(|e| {
            e.job == job
                && matches!(e.kind, FaultKind::CorruptCheckpoint { generation: g }
                    if u64::from(g) == generation)
        })
    }
}

/// SplitMix64 finalizer — a full-avalanche 64-bit mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let schedule = FaultSchedule::with_rate(0.3, 42);
        for job in 0..50u64 {
            for attempt in 0..4 {
                assert_eq!(schedule.at(job, attempt), schedule.at(job, attempt));
            }
        }
    }

    #[test]
    fn rate_extremes() {
        let never = FaultSchedule::none();
        let always = FaultSchedule::with_rate(1.0, 7);
        for job in 0..20u64 {
            assert_eq!(never.at(job, 0), None);
            assert_eq!(always.at(job, 0), Some(FaultKind::Transient));
        }
    }

    #[test]
    fn empirical_rate_tracks_requested_rate() {
        let schedule = FaultSchedule::with_rate(0.25, 1234);
        let strikes = (0..4000u64).filter(|&j| schedule.at(j, 0).is_some()).count();
        let rate = strikes as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn schedule_events_hit_only_their_coordinates() {
        let schedule = FaultSchedule::none()
            .with_event(3, 0, FaultKind::WorkerDeath)
            .with_event(3, 2, FaultKind::Transient)
            .with_event(5, 0, FaultKind::CorruptCache);
        assert_eq!(schedule.events_for(3, 0).next(), Some(FaultKind::WorkerDeath));
        assert_eq!(schedule.events_for(3, 1).next(), None);
        assert_eq!(schedule.events_for(3, 2).next(), Some(FaultKind::Transient));
        assert_eq!(schedule.events_for(4, 0).next(), None);
        assert!(schedule.corrupts_cache(5));
        assert!(!schedule.corrupts_cache(3), "non-corrupt kinds don't corrupt");
        assert!(FaultSchedule::none().is_empty());
        assert_eq!(schedule.events().len(), 3);
    }

    #[test]
    fn multiple_events_per_attempt_compose() {
        let schedule = FaultSchedule::none()
            .with_event(2, 1, FaultKind::WorkerDeathMidRun { after_segments: 2 })
            .with_event(2, 1, FaultKind::CorruptCheckpoint { generation: 1 })
            .with_event(2, 1, FaultKind::Transient);
        // events_for yields every match, in insertion order.
        let all: Vec<FaultKind> = schedule.events_for(2, 1).collect();
        assert_eq!(
            all,
            vec![
                FaultKind::WorkerDeathMidRun { after_segments: 2 },
                FaultKind::CorruptCheckpoint { generation: 1 },
                FaultKind::Transient,
            ]
        );
        assert!(schedule.events_for(2, 0).next().is_none());
        // The attempt boundary answers the first kind that acts there.
        assert_eq!(schedule.at(2, 1), Some(FaultKind::WorkerDeathMidRun { after_segments: 2 }));
    }

    #[test]
    fn a_scheduled_kind_outranks_the_rate_and_corruption_defers_to_it() {
        let schedule = FaultSchedule::with_rate(1.0, 5)
            .with_event(0, 0, FaultKind::Panic)
            .with_event(1, 0, FaultKind::CorruptCache)
            .with_event(2, 0, FaultKind::CorruptCheckpoint { generation: 0 });
        assert_eq!(schedule.at(0, 0), Some(FaultKind::Panic));
        assert_eq!(schedule.at(1, 0), Some(FaultKind::Transient), "the probe consumes it");
        assert_eq!(schedule.at(2, 0), Some(FaultKind::Transient), "the write consumes it");
        let unrated = FaultSchedule::none().with_event(1, 0, FaultKind::CorruptCache);
        assert_eq!(unrated.at(1, 0), None);
    }

    #[test]
    fn checkpoint_corruption_targets_one_generation() {
        let schedule =
            FaultSchedule::none().with_event(4, 0, FaultKind::CorruptCheckpoint { generation: 1 });
        assert!(schedule.corrupts_checkpoint(4, 1));
        assert!(!schedule.corrupts_checkpoint(4, 0));
        assert!(!schedule.corrupts_checkpoint(4, 2));
        assert!(!schedule.corrupts_checkpoint(5, 1));
        assert!(!schedule.corrupts_cache(4), "checkpoint ≠ result cache");
    }

    #[test]
    fn shard_fault_kinds_compose_like_the_rest() {
        let schedule = FaultSchedule::none()
            .with_event(1, 0, FaultKind::ShardWorkerDeath { shard: 1, after_segments: 2 })
            .with_event(1, 1, FaultKind::LinkFault { exchange: 3, corrupt: true });
        assert_eq!(
            schedule.events_for(1, 0).next(),
            Some(FaultKind::ShardWorkerDeath { shard: 1, after_segments: 2 })
        );
        assert_eq!(
            schedule.events_for(1, 1).next(),
            Some(FaultKind::LinkFault { exchange: 3, corrupt: true })
        );
        assert!(!schedule.corrupts_cache(1), "shard faults never corrupt the cache");
        assert!(!schedule.corrupts_checkpoint(1, 0));
    }

    #[test]
    fn attempts_decorrelated() {
        // A struck first attempt must not doom every retry.
        let schedule = FaultSchedule::with_rate(0.5, 9);
        let healed = (0..200u64)
            .filter(|&j| schedule.at(j, 0).is_some() && schedule.at(j, 1).is_none())
            .count();
        assert!(healed > 10, "retries should sometimes succeed ({healed})");
    }
}
