//! The oracles: invariants every scenario run must satisfy, checked
//! over the run's trace and final service state.
//!
//! Violations are returned as human-readable strings (not panics) so
//! the shrinker can use "does this scenario still violate an oracle?"
//! as its predicate.

use crate::scenario::{Op, Scenario};
use crate::trace::{OutcomeSummary, Trace, TraceEvent};
use qgear_serve::{
    BatchMemberDisposition, CheckpointRecord, EventKind, FaultKind, ServiceEvent, ShardRecord,
};
use qgear_telemetry::TelemetrySnapshot;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Duration;

/// Everything the oracles look at.
#[derive(Debug)]
pub struct OracleInput<'a> {
    /// The scenario that ran.
    pub scenario: &'a Scenario,
    /// Accepted admission ids.
    pub accepted: &'a [u64],
    /// Terminal outcomes by admission id.
    pub outcomes: &'a BTreeMap<u64, OutcomeSummary>,
    /// Publication time of each outcome.
    pub outcome_times: &'a BTreeMap<u64, Duration>,
    /// Dispatches per admission id.
    pub dispatch_counts: &'a BTreeMap<u64, usize>,
    /// The run's event log.
    pub trace: &'a Trace,
    /// The service's event stream, in the order it was recorded. Each
    /// oracle replays the kinds it is about; one with no event of its
    /// kind (no batching, no sharding) is vacuous.
    pub events: &'a [ServiceEvent],
    /// Expected counts hash of a *fault-free* run, by admission id —
    /// what every completion must reproduce byte-for-byte.
    pub clean_hashes: &'a BTreeMap<u64, u64>,
    /// Upper bound on (outcome − cancel) virtual latency for a job
    /// cancelled in flight (one backoff slice).
    pub cancel_latency_bound: Duration,
}

/// Run every oracle; the returned list is empty iff all held.
pub fn check(input: &OracleInput) -> Vec<String> {
    let mut v = Vec::new();
    conservation(input, &mut v);
    termination_times(input, &mut v);
    dispatch_accounting(input, &mut v);
    cancels_honored(input, &mut v);
    cache_bit_identity(input, &mut v);
    resume_bit_identity(input, &mut v);
    progress_monotonicity(input, &mut v);
    coalescing_conservation(input, &mut v);
    batch_attempt_ledger(input, &mut v);
    shard_exchange_conservation(input, &mut v);
    shard_migration(input, &mut v);
    v
}

/// **Job conservation**: every accepted job has exactly one terminal
/// outcome, and no outcome exists for a job that was never accepted.
fn conservation(input: &OracleInput, v: &mut Vec<String>) {
    let accepted: BTreeSet<u64> = input.accepted.iter().copied().collect();
    let resolved: BTreeSet<u64> = input.outcomes.keys().copied().collect();
    for id in accepted.difference(&resolved) {
        v.push(format!("conservation: accepted job {id} has no terminal outcome"));
    }
    for id in resolved.difference(&accepted) {
        v.push(format!("conservation: job {id} resolved but was never accepted"));
    }
}

/// **Causality**: every outcome has a publication time no earlier than
/// the job's submission (virtual time never runs backward through a
/// job's lifecycle).
fn termination_times(input: &OracleInput, v: &mut Vec<String>) {
    let mut submit_at: HashMap<u64, u128> = HashMap::new();
    for e in &input.trace.events {
        if let TraceEvent::Submit { at_ns, job, .. } = e {
            submit_at.insert(*job, *at_ns);
        }
    }
    for (id, t) in input.outcome_times {
        if input.outcomes.get(id).is_none() {
            continue;
        }
        if let Some(&s) = submit_at.get(id) {
            if t.as_nanos() < s {
                v.push(format!(
                    "causality: job {id} resolved at {}ns before its submit at {s}ns",
                    t.as_nanos()
                ));
            }
        }
    }
}

/// **No double-dispatch / no double-complete**: a job is handed to a
/// worker at most `1 + scheduled worker deaths` times, and any job that
/// ran (completed, failed, or expired at dispatch) was dispatched at
/// least once. Cancelled-while-queued jobs never dispatch.
fn dispatch_accounting(input: &OracleInput, v: &mut Vec<String>) {
    let mut death_budget: HashMap<u64, usize> = HashMap::new();
    for e in &input.scenario.events {
        // `LinkFault` is deliberately absent: it recovers *inside* the
        // same dispatch (transient-like) and must never license one.
        if matches!(
            e.kind,
            FaultKind::WorkerDeath
                | FaultKind::WorkerDeathMidRun { .. }
                | FaultKind::ShardWorkerDeath { .. }
        ) {
            *death_budget.entry(e.job + 1).or_insert(0) += 1;
        }
    }
    // A death in a flush requeues every batch-mate not yet run, not just
    // the struck job: each `Requeued` disposition licenses one extra
    // dispatch for that member.
    for event in input.events {
        let EventKind::Batch(record) = &event.kind else { continue };
        for &(id, disposition) in &record.members {
            if disposition == BatchMemberDisposition::Requeued {
                *death_budget.entry(id).or_insert(0) += 1;
            }
        }
    }
    for (&id, &n) in input.dispatch_counts {
        let allowed = 1 + death_budget.get(&id).copied().unwrap_or(0);
        if n > allowed {
            v.push(format!(
                "double-dispatch: job {id} dispatched {n}× with a budget of {allowed}"
            ));
        }
    }
    for (&id, outcome) in input.outcomes {
        let dispatched = input.dispatch_counts.get(&id).copied().unwrap_or(0);
        match outcome {
            OutcomeSummary::Completed { .. }
            | OutcomeSummary::Failed { .. }
            | OutcomeSummary::Expired => {
                if dispatched == 0 {
                    v.push(format!("dispatch: job {id} resolved {outcome:?} without dispatching"));
                }
            }
            OutcomeSummary::Cancelled => {}
        }
    }
}

/// **Cancellation honored, with bounded latency**: a cancel that caught
/// the job still queued resolves it as `Cancelled` at exactly the
/// cancel time; a cancel recorded against an in-flight job that does
/// end `Cancelled` must resolve within one backoff slice of the
/// request.
fn cancels_honored(input: &OracleInput, v: &mut Vec<String>) {
    for e in &input.trace.events {
        let TraceEvent::Cancel { at_ns, job, while_queued } = e else {
            continue;
        };
        let outcome = input.outcomes.get(job);
        if *while_queued {
            if !matches!(outcome, Some(OutcomeSummary::Cancelled)) {
                v.push(format!(
                    "cancel: job {job} removed from the queue but resolved {outcome:?}"
                ));
            }
            if let Some(t) = input.outcome_times.get(job) {
                if t.as_nanos() != *at_ns {
                    v.push(format!(
                        "cancel: queued job {job} resolved at {}ns, not the cancel time {at_ns}ns",
                        t.as_nanos()
                    ));
                }
            }
        } else if matches!(outcome, Some(OutcomeSummary::Cancelled)) {
            if let Some(t) = input.outcome_times.get(job) {
                let latency = t.as_nanos().saturating_sub(*at_ns);
                if latency > input.cancel_latency_bound.as_nanos() {
                    v.push(format!(
                        "cancel latency: in-flight job {job} took {latency}ns > one slice ({}ns)",
                        input.cancel_latency_bound.as_nanos()
                    ));
                }
            }
        }
    }
}

/// **Cache bit-identity**: jobs submitted with equal definitions share
/// a cache key, so every completion among them must carry the same
/// counts hash — whether served cold, from cache, from the marginal
/// cache, or re-executed after a scheduled cache corruption.
fn cache_bit_identity(input: &OracleInput, v: &mut Vec<String>) {
    let mut groups: HashMap<_, Vec<(u64, u64)>> = HashMap::new();
    let mut job = 0u64;
    for op in &input.scenario.ops {
        if let Op::Submit(def) = op {
            let id = job + 1;
            job += 1;
            if let Some(OutcomeSummary::Completed { counts_hash, .. }) =
                input.outcomes.get(&id)
            {
                groups.entry(*def).or_default().push((id, *counts_hash));
            }
        }
    }
    for (def, completions) in groups {
        let Some(&(first_id, expect)) = completions.first() else {
            continue;
        };
        for &(id, hash) in &completions[1..] {
            if hash != expect {
                v.push(format!(
                    "cache identity: jobs {first_id} and {id} share def {def:?} but \
                     sampled different counts ({expect:#x} vs {hash:#x})"
                ));
            }
        }
    }
}

/// **Resume bit-identity**: every completion — cold, cached, retried,
/// or resumed from a mid-circuit checkpoint after any number of worker
/// deaths — carries exactly the counts a fault-free run of the same
/// definition produces. This is the end-to-end guarantee the whole
/// checkpoint subsystem exists to preserve: recovery must change *when*
/// a result arrives, never *what* it is.
fn resume_bit_identity(input: &OracleInput, v: &mut Vec<String>) {
    for (&id, outcome) in input.outcomes {
        let OutcomeSummary::Completed { counts_hash, .. } = outcome else {
            continue;
        };
        let Some(&expect) = input.clean_hashes.get(&id) else {
            continue; // blocker / jobs without a mirror
        };
        if *counts_hash != expect {
            v.push(format!(
                "resume identity: job {id} completed with counts hash {counts_hash:#x}, \
                 fault-free run gives {expect:#x}"
            ));
        }
    }
}

/// **Progress monotonicity**: replaying the checkpoint events per job, the
/// verified resume point never moves backwards across attempts — once
/// the recovery ladder has proven progress up to cursor `c`, no later
/// resume lands before `c`, and every checkpoint write records strictly
/// more progress than the last proven resume point. A `ColdRestart`
/// (the sanctioned bottom of the ladder, taken only when *no*
/// generation survives verification) resets the floor to zero.
fn progress_monotonicity(input: &OracleInput, v: &mut Vec<String>) {
    let mut floor: HashMap<u64, u64> = HashMap::new();
    for event in input.events {
        let EventKind::Checkpoint(record) = &event.kind else { continue };
        match record {
            CheckpointRecord::Wrote { job, generation, cursor } => {
                let f = floor.get(job).copied().unwrap_or(0);
                if *cursor <= f {
                    v.push(format!(
                        "progress: job {job} wrote generation {generation} at cursor \
                         {cursor}, not past the proven floor {f}"
                    ));
                }
            }
            CheckpointRecord::Resumed { job, generation, cursor } => {
                let f = floor.entry(*job).or_insert(0);
                if *cursor < *f {
                    v.push(format!(
                        "progress: job {job} resumed generation {generation} at cursor \
                         {cursor}, behind the proven floor {f}"
                    ));
                }
                *f = (*f).max(*cursor);
            }
            CheckpointRecord::ColdRestart { job } => {
                floor.insert(*job, 0);
            }
            CheckpointRecord::VerifyFailed { .. } => {}
        }
    }
}

/// **Coalescing conservation**: the batch events account for every
/// batched dispatch exactly once — no member id repeats within a flush,
/// every member was an accepted job, a job's batch appearances never
/// exceed its dispatches, and at most one appearance is terminal
/// (anything but `Requeued` resolves the dispatch; only a requeue may
/// be followed by another appearance).
fn coalescing_conservation(input: &OracleInput, v: &mut Vec<String>) {
    let accepted: BTreeSet<u64> = input.accepted.iter().copied().collect();
    let mut appearances: HashMap<u64, usize> = HashMap::new();
    let mut terminal: HashMap<u64, usize> = HashMap::new();
    let mut flush = 0usize;
    for event in input.events {
        let EventKind::Batch(record) = &event.kind else { continue };
        let mut in_this_flush = BTreeSet::new();
        for &(id, disposition) in &record.members {
            if !in_this_flush.insert(id) {
                v.push(format!(
                    "coalescing: job {id} appears twice in flush {flush}"
                ));
            }
            if !accepted.contains(&id) {
                v.push(format!(
                    "coalescing: flush {flush} contains job {id}, which was never accepted"
                ));
            }
            *appearances.entry(id).or_insert(0) += 1;
            if disposition != BatchMemberDisposition::Requeued {
                *terminal.entry(id).or_insert(0) += 1;
            }
        }
        flush += 1;
    }
    for (&id, &n) in &appearances {
        let dispatched = input.dispatch_counts.get(&id).copied().unwrap_or(0);
        if n > dispatched {
            v.push(format!(
                "coalescing: job {id} appears in {n} flushes but dispatched only {dispatched}×"
            ));
        }
    }
    for (&id, &n) in &terminal {
        if n > 1 {
            v.push(format!(
                "coalescing: job {id} reached a terminal batch disposition {n}× (duplicate \
                 publication)"
            ));
        }
    }
}

/// **Batch attempt ledger**: a member requeued by worker deaths in its
/// flushes carries its consumed attempts across dispatches — a cold
/// completion after `R` requeues must report at least `1 + R` attempts.
/// (Cache and marginal hits report zero attempts and are exempt: the
/// requeued member may legitimately be answered from a cache populated
/// meanwhile.)
fn batch_attempt_ledger(input: &OracleInput, v: &mut Vec<String>) {
    let mut requeues: HashMap<u64, u32> = HashMap::new();
    for event in input.events {
        let EventKind::Batch(record) = &event.kind else { continue };
        for &(id, disposition) in &record.members {
            if disposition == BatchMemberDisposition::Requeued {
                *requeues.entry(id).or_insert(0) += 1;
            }
        }
    }
    for (&id, &r) in &requeues {
        let Some(OutcomeSummary::Completed { attempts, from_cache, from_state_cache, .. }) =
            input.outcomes.get(&id)
        else {
            continue;
        };
        if *from_cache || *from_state_cache {
            continue;
        }
        if *attempts < 1 + r {
            v.push(format!(
                "batch ledger: job {id} was requeued {r}× from a flush but completed with only \
                 {attempts} attempts (ledger lost across the requeue)"
            ));
        }
    }
}

/// **Shard exchange conservation**: every completed sharded run's
/// traffic accounting closes exactly. A pairwise exchange moves two
/// messages (one each direction), so `messages == 2 × exchanges`; and
/// every message carries half of one shard's local slice, so with the
/// harness's fp64 amplitudes (16 bytes each) the byte total is
/// `messages × 2^(n − log2(shards) − 1) × 16`. Counters are read from
/// the final (clean) incarnation of the run, so a recovered link fault
/// never excuses an imbalance.
fn shard_exchange_conservation(input: &OracleInput, v: &mut Vec<String>) {
    // Admission id → register width, from the scenario's submit order
    // (scenario job `k` is admission id `k + 1`; the width clamp
    // mirrors `JobDef::circuit`).
    let mut qubits: HashMap<u64, u32> = HashMap::new();
    let mut next = 1u64;
    for op in &input.scenario.ops {
        if let Op::Submit(def) = op {
            qubits.insert(next, def.qubits.clamp(2, 4));
            next += 1;
        }
    }
    for event in input.events {
        let EventKind::Shard(ShardRecord::Completed { job, shards, exchanges, messages, bytes }) =
            &event.kind
        else {
            continue;
        };
        if *messages != 2 * *exchanges {
            v.push(format!(
                "shard conservation: job {job} completed with {messages} messages for \
                 {exchanges} exchanges (expected exactly two per exchange)"
            ));
        }
        let Some(&n) = qubits.get(job) else {
            continue; // not a scenario job (blocker never shards)
        };
        if !shards.is_power_of_two() || shards.trailing_zeros() >= n {
            v.push(format!(
                "shard conservation: job {job} ran on an impossible group of {shards} \
                 shards for {n} qubits"
            ));
            continue;
        }
        let per_message = (1u128 << (n - shards.trailing_zeros() - 1)) * 16;
        let expected = u128::from(*messages) * per_message;
        if *bytes != expected {
            v.push(format!(
                "shard conservation: job {job} moved {bytes} bytes in {messages} messages, \
                 expected {expected} ({per_message} bytes per message at {n} qubits / \
                 {shards} shards)"
            ));
        }
    }
}

/// **Migration discipline**: replaying the stream per job, a worker
/// loss leaves the job in a torn-down state that only the recovery
/// ladder's own verdict — the job's next
/// [`CheckpointRecord::Resumed`] (a generation restored on the
/// replacement dispatch: the migration) or
/// [`CheckpointRecord::ColdRestart`] (no generation survived) — may
/// clear. A completion while the teardown is still pending means the
/// replacement dispatch silently skipped the restore path. The *result*
/// of the migration is separately pinned by the resume bit-identity
/// oracle against the fault-free mirror.
fn shard_migration(input: &OracleInput, v: &mut Vec<String>) {
    let mut pending: BTreeSet<u64> = BTreeSet::new();
    for event in input.events {
        match &event.kind {
            EventKind::Shard(ShardRecord::WorkerLost { job, .. }) => {
                pending.insert(*job);
            }
            EventKind::Checkpoint(
                CheckpointRecord::Resumed { job, .. } | CheckpointRecord::ColdRestart { job },
            ) => {
                pending.remove(job);
            }
            EventKind::Shard(ShardRecord::Completed { job, .. }) if pending.contains(job) => {
                v.push(format!(
                    "shard migration: job {job} completed without a recorded \
                     migration or cold restart after losing a shard worker"
                ));
            }
            _ => {}
        }
    }
}

/// **Span balance** (telemetry oracle): the recorded span tree is
/// structurally sound and every `serve_job` span matches a dispatch.
/// Run by tests that own the global telemetry collector.
pub fn check_telemetry(snapshot: &TelemetrySnapshot, dispatches: usize) -> Vec<String> {
    let mut v = Vec::new();
    if let Err(e) = snapshot.verify_span_balance() {
        v.push(format!("span balance: {e}"));
    }
    let jobs = snapshot.span_count(qgear_telemetry::names::spans::SERVE_JOB);
    if jobs != dispatches {
        v.push(format!(
            "span balance: {jobs} serve_job spans for {dispatches} dispatches"
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::JobDef;
    use qgear_serve::BatchRecord;

    /// An event stream out of bare kinds; no oracle here reads a stamp.
    fn stream(kinds: impl IntoIterator<Item = EventKind>) -> Vec<ServiceEvent> {
        kinds.into_iter().map(|kind| ServiceEvent { at: Duration::ZERO, kind }).collect()
    }

    fn base<'a>(
        scenario: &'a Scenario,
        accepted: &'a [u64],
        outcomes: &'a BTreeMap<u64, OutcomeSummary>,
        outcome_times: &'a BTreeMap<u64, Duration>,
        dispatch_counts: &'a BTreeMap<u64, usize>,
        trace: &'a Trace,
    ) -> OracleInput<'a> {
        static NO_CLEAN_HASHES: BTreeMap<u64, u64> = BTreeMap::new();
        OracleInput {
            scenario,
            accepted,
            outcomes,
            outcome_times,
            dispatch_counts,
            trace,
            events: &[],
            clean_hashes: &NO_CLEAN_HASHES,
            cancel_latency_bound: Duration::from_millis(1),
        }
    }

    #[test]
    fn lost_job_is_a_conservation_violation() {
        let scenario = Scenario::empty(0).op(Op::Submit(JobDef::bell()));
        let accepted = vec![0, 1];
        let outcomes: BTreeMap<u64, OutcomeSummary> =
            [(0, OutcomeSummary::Cancelled)].into_iter().collect();
        let times: BTreeMap<u64, Duration> = [(0, Duration::ZERO)].into_iter().collect();
        let dispatches = BTreeMap::new();
        let trace = Trace::default();
        let v = check(&base(&scenario, &accepted, &outcomes, &times, &dispatches, &trace));
        assert!(
            v.iter().any(|m| m.contains("conservation: accepted job 1")),
            "{v:?}"
        );
    }

    #[test]
    fn double_dispatch_without_death_budget_is_flagged() {
        let scenario = Scenario::empty(0).op(Op::Submit(JobDef::bell()));
        let accepted = vec![1];
        let outcomes: BTreeMap<u64, OutcomeSummary> = [(
            1,
            OutcomeSummary::Completed {
                attempts: 1,
                from_cache: false,
                from_state_cache: false,
                counts_hash: 7,
            },
        )]
        .into_iter()
        .collect();
        let times: BTreeMap<u64, Duration> = [(1, Duration::ZERO)].into_iter().collect();
        let dispatches: BTreeMap<u64, usize> = [(1, 2)].into_iter().collect();
        let trace = Trace::default();
        let v = check(&base(&scenario, &accepted, &outcomes, &times, &dispatches, &trace));
        assert!(v.iter().any(|m| m.contains("double-dispatch")), "{v:?}");

        // The same double dispatch is licensed by a worker-death event.
        let licensed = scenario.clone().event(0, 0, FaultKind::WorkerDeath);
        let v = check(&base(&licensed, &accepted, &outcomes, &times, &dispatches, &trace));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn divergent_counts_for_equal_defs_are_flagged() {
        let def = JobDef::bell();
        let scenario =
            Scenario::empty(0).op(Op::Submit(def)).op(Op::Submit(def));
        let accepted = vec![1, 2];
        let mk = |h| OutcomeSummary::Completed {
            attempts: 1,
            from_cache: false,
            from_state_cache: false,
            counts_hash: h,
        };
        let outcomes: BTreeMap<u64, OutcomeSummary> =
            [(1, mk(7)), (2, mk(8))].into_iter().collect();
        let times: BTreeMap<u64, Duration> =
            [(1, Duration::ZERO), (2, Duration::ZERO)].into_iter().collect();
        let dispatches: BTreeMap<u64, usize> =
            [(1, 1), (2, 1)].into_iter().collect();
        let trace = Trace::default();
        let v = check(&base(&scenario, &accepted, &outcomes, &times, &dispatches, &trace));
        assert!(v.iter().any(|m| m.contains("cache identity")), "{v:?}");
    }

    #[test]
    fn completion_diverging_from_the_clean_run_is_flagged() {
        let scenario = Scenario::empty(0).op(Op::Submit(JobDef::bell()));
        let accepted = vec![1];
        let outcomes: BTreeMap<u64, OutcomeSummary> = [(
            1,
            OutcomeSummary::Completed {
                attempts: 2,
                from_cache: false,
                from_state_cache: false,
                counts_hash: 0xbad,
            },
        )]
        .into_iter()
        .collect();
        let times: BTreeMap<u64, Duration> = [(1, Duration::ZERO)].into_iter().collect();
        let dispatches: BTreeMap<u64, usize> = [(1, 1)].into_iter().collect();
        let trace = Trace::default();
        let clean: BTreeMap<u64, u64> = [(1, 0x900d)].into_iter().collect();
        let mut input = base(&scenario, &accepted, &outcomes, &times, &dispatches, &trace);
        input.clean_hashes = &clean;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("resume identity: job 1")), "{v:?}");

        // A matching hash — and a job with no mirror — are both fine.
        let clean_ok: BTreeMap<u64, u64> = [(1, 0xbad)].into_iter().collect();
        input.clean_hashes = &clean_ok;
        assert!(check(&input).is_empty());
    }

    #[test]
    fn batch_event_violations_are_flagged() {
        let scenario = Scenario::empty(0)
            .op(Op::Submit(JobDef::bell()))
            .op(Op::Submit(JobDef::bell()));
        let accepted = vec![1, 2];
        let mk = |attempts| OutcomeSummary::Completed {
            attempts,
            from_cache: false,
            from_state_cache: false,
            counts_hash: 7,
        };
        let outcomes: BTreeMap<u64, OutcomeSummary> =
            [(1, mk(1)), (2, mk(1))].into_iter().collect();
        let times: BTreeMap<u64, Duration> =
            [(1, Duration::ZERO), (2, Duration::ZERO)].into_iter().collect();
        let dispatches: BTreeMap<u64, usize> = [(1, 1), (2, 1)].into_iter().collect();
        let trace = Trace::default();
        let mut input = base(&scenario, &accepted, &outcomes, &times, &dispatches, &trace);

        // Healthy: one flush, both members executed.
        let healthy = [BatchRecord {
            members: vec![
                (1, BatchMemberDisposition::Executed),
                (2, BatchMemberDisposition::Executed),
            ],
            formed_at: Duration::ZERO,
        }];
        let healthy = stream(healthy.map(EventKind::Batch));
        input.events = &healthy;
        assert!(check(&input).is_empty(), "{:?}", check(&input));

        // A member duplicated within one flush.
        let duplicated = [BatchRecord {
            members: vec![
                (1, BatchMemberDisposition::Executed),
                (1, BatchMemberDisposition::Executed),
            ],
            formed_at: Duration::ZERO,
        }];
        let duplicated = stream(duplicated.map(EventKind::Batch));
        input.events = &duplicated;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("appears twice in flush")), "{v:?}");

        // A member that was never accepted.
        let phantom = [BatchRecord {
            members: vec![(9, BatchMemberDisposition::Executed)],
            formed_at: Duration::ZERO,
        }];
        let phantom = stream(phantom.map(EventKind::Batch));
        input.events = &phantom;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("never accepted")), "{v:?}");

        // Two terminal dispositions across flushes = double publication.
        let double = [
            BatchRecord {
                members: vec![(1, BatchMemberDisposition::Executed)],
                formed_at: Duration::ZERO,
            },
            BatchRecord {
                members: vec![(1, BatchMemberDisposition::Executed)],
                formed_at: Duration::ZERO,
            },
        ];
        let dispatches2: BTreeMap<u64, usize> = [(1, 2), (2, 1)].into_iter().collect();
        let mut input2 = base(&scenario, &accepted, &outcomes, &times, &dispatches2, &trace);
        let double = stream(double.map(EventKind::Batch));
        input2.events = &double;
        let v = check(&input2);
        assert!(v.iter().any(|m| m.contains("terminal batch disposition")), "{v:?}");
    }

    #[test]
    fn lost_attempt_ledger_across_requeue_is_flagged() {
        let scenario = Scenario::empty(0)
            .op(Op::Submit(JobDef::bell()))
            .event(0, 0, FaultKind::WorkerDeath);
        let accepted = vec![1];
        // Requeued once, yet the completion claims a single attempt:
        // the cumulative ledger was dropped somewhere.
        let outcomes: BTreeMap<u64, OutcomeSummary> = [(
            1,
            OutcomeSummary::Completed {
                attempts: 1,
                from_cache: false,
                from_state_cache: false,
                counts_hash: 7,
            },
        )]
        .into_iter()
        .collect();
        let times: BTreeMap<u64, Duration> = [(1, Duration::ZERO)].into_iter().collect();
        let dispatches: BTreeMap<u64, usize> = [(1, 2)].into_iter().collect();
        let trace = Trace::default();
        let log = [
            BatchRecord {
                members: vec![(1, BatchMemberDisposition::Requeued)],
                formed_at: Duration::ZERO,
            },
            BatchRecord {
                members: vec![(1, BatchMemberDisposition::Executed)],
                formed_at: Duration::ZERO,
            },
        ];
        let log = stream(log.map(EventKind::Batch));
        let mut input = base(&scenario, &accepted, &outcomes, &times, &dispatches, &trace);
        input.events = &log;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("batch ledger")), "{v:?}");

        // With the ledger intact (2 attempts after 1 requeue) all clear.
        let outcomes_ok: BTreeMap<u64, OutcomeSummary> = [(
            1,
            OutcomeSummary::Completed {
                attempts: 2,
                from_cache: false,
                from_state_cache: false,
                counts_hash: 7,
            },
        )]
        .into_iter()
        .collect();
        let mut input = base(&scenario, &accepted, &outcomes_ok, &times, &dispatches, &trace);
        input.events = &log;
        assert!(check(&input).is_empty(), "{:?}", check(&input));
    }

    #[test]
    fn shard_conservation_and_migration_violations_are_flagged() {
        let def = JobDef { qubits: 4, ..JobDef::bell() };
        let scenario = Scenario::empty(0).op(Op::Submit(def));
        let accepted = vec![1];
        let outcomes: BTreeMap<u64, OutcomeSummary> = [(
            1,
            OutcomeSummary::Completed {
                attempts: 1,
                from_cache: false,
                from_state_cache: false,
                counts_hash: 7,
            },
        )]
        .into_iter()
        .collect();
        let times: BTreeMap<u64, Duration> = [(1, Duration::ZERO)].into_iter().collect();
        let dispatches: BTreeMap<u64, usize> = [(1, 2)].into_iter().collect();
        let trace = Trace::default();
        let licensed =
            scenario.clone().event(0, 0, FaultKind::ShardWorkerDeath { shard: 0, after_segments: 1 });
        let mut input = base(&licensed, &accepted, &outcomes, &times, &dispatches, &trace);

        // Healthy: start, lose a worker, restart, migrate (the ladder
        // resumes a generation), complete with closed books — 3
        // exchanges × 2 messages × 64 bytes each (4 qubits on 2 shards ⇒
        // 2^(4−1−1) amplitudes × 16 bytes).
        let started = EventKind::Shard(ShardRecord::Started { job: 1, shards: 2 });
        let lost =
            EventKind::Shard(ShardRecord::WorkerLost { job: 1, shard: 0, after_segments: 1 });
        let completed = EventKind::Shard(ShardRecord::Completed {
            job: 1,
            shards: 2,
            exchanges: 3,
            messages: 6,
            bytes: 384,
        });
        let resumed =
            EventKind::Checkpoint(CheckpointRecord::Resumed { job: 1, generation: 0, cursor: 1 });
        let healthy =
            stream([started.clone(), lost.clone(), started.clone(), resumed, completed.clone()]);
        input.events = &healthy;
        assert!(check(&input).is_empty(), "{:?}", check(&input));

        // So is a cold restart, when no generation survived.
        let cold = EventKind::Checkpoint(CheckpointRecord::ColdRestart { job: 1 });
        let restarted =
            stream([started.clone(), lost.clone(), started.clone(), cold, completed.clone()]);
        input.events = &restarted;
        assert!(check(&input).is_empty(), "{:?}", check(&input));

        // Another job's resume clears nothing.
        let other =
            EventKind::Checkpoint(CheckpointRecord::Resumed { job: 2, generation: 0, cursor: 1 });
        let foreign =
            stream([started.clone(), lost.clone(), started.clone(), other, completed.clone()]);
        input.events = &foreign;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("shard migration")), "{v:?}");

        // An odd message count breaks pairwise conservation.
        let unpaired = stream([EventKind::Shard(ShardRecord::Completed {
            job: 1,
            shards: 2,
            exchanges: 3,
            messages: 5,
            bytes: 320,
        })]);
        input.events = &unpaired;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("two per exchange")), "{v:?}");

        // A byte total that doesn't match the slice size is flagged.
        let leaky = stream([EventKind::Shard(ShardRecord::Completed {
            job: 1,
            shards: 2,
            exchanges: 3,
            messages: 6,
            bytes: 385,
        })]);
        input.events = &leaky;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("bytes per message")), "{v:?}");

        // Completing after a worker loss without a recovery record means
        // the replacement dispatch skipped the restore path.
        let skipped = stream([started.clone(), lost, started, completed]);
        input.events = &skipped;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("shard migration")), "{v:?}");
    }

    #[test]
    fn backwards_resume_and_stale_write_violate_monotonicity() {
        let scenario = Scenario::empty(0);
        let accepted = vec![];
        let outcomes = BTreeMap::new();
        let times = BTreeMap::new();
        let dispatches = BTreeMap::new();
        let trace = Trace::default();
        let mut input = base(&scenario, &accepted, &outcomes, &times, &dispatches, &trace);

        // Healthy ladder: write, write, die, resume from the older
        // generation, then write strictly past the resume point.
        let healthy = [
            CheckpointRecord::Wrote { job: 1, generation: 0, cursor: 1 },
            CheckpointRecord::Wrote { job: 1, generation: 1, cursor: 2 },
            CheckpointRecord::VerifyFailed { job: 1, generation: 1 },
            CheckpointRecord::Resumed { job: 1, generation: 0, cursor: 1 },
            CheckpointRecord::Wrote { job: 1, generation: 2, cursor: 2 },
        ];
        let healthy = stream(healthy.map(EventKind::Checkpoint));
        input.events = &healthy;
        assert!(check(&input).is_empty());

        // A resume behind the proven floor is flagged.
        let backwards = [
            CheckpointRecord::Resumed { job: 1, generation: 0, cursor: 3 },
            CheckpointRecord::Resumed { job: 1, generation: 1, cursor: 2 },
        ];
        let backwards = stream(backwards.map(EventKind::Checkpoint));
        input.events = &backwards;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("behind the proven floor")), "{v:?}");

        // A write that does not advance past the floor is flagged...
        let stale = [
            CheckpointRecord::Resumed { job: 1, generation: 0, cursor: 2 },
            CheckpointRecord::Wrote { job: 1, generation: 1, cursor: 2 },
        ];
        let stale = stream(stale.map(EventKind::Checkpoint));
        input.events = &stale;
        let v = check(&input);
        assert!(v.iter().any(|m| m.contains("not past the proven floor")), "{v:?}");

        // ...unless a cold restart legitimately reset progress.
        let restarted = [
            CheckpointRecord::Resumed { job: 1, generation: 0, cursor: 2 },
            CheckpointRecord::ColdRestart { job: 1 },
            CheckpointRecord::Wrote { job: 1, generation: 1, cursor: 1 },
        ];
        let restarted = stream(restarted.map(EventKind::Checkpoint));
        input.events = &restarted;
        assert!(check(&input).is_empty());
    }
}
