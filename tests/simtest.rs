//! Deterministic simulation tests for the serving runtime
//! (`qgear-simtest` driving `qgear-serve` / `qgear-cluster`).
//!
//! Every temporal decision in the code under test flows through the
//! `Clock` capability, so these tests substitute a [`VirtualClock`] and
//! assert *exact* virtual-time behaviour: deadlines at the boundary,
//! cancel latency in backoff slices, retry-storm backoff sums, and
//! engine span durations. Random scenarios run under the full oracle
//! set; a failing seed prints a one-line replay command
//! (`QGEAR_SIMTEST_SEED=<seed> cargo test -q --test simtest <name>`)
//! and the shrinker reduces it to a minimal reproduction.
//!
//! The service publishes counters/spans into the process-global
//! telemetry registry, so every test serializes on `LOCK` (the same
//! discipline as `tests/telemetry.rs`).

use qgear_cluster::ClusterEngine;
use qgear_ir::Circuit;
use qgear_serve::{
    CheckpointRecord, EventKind, FaultKind, FaultSchedule, JobOutcome, JobSpec, ServeConfig,
    ServeError, Service, ShardRecord,
};
use qgear_simtest::{
    replay_command, run_scenario, seed_from_env, shrink, JobDef, Op, OutcomeSummary, Scenario,
    VirtualClock,
};
use qgear_statevec::{RunOptions, RunOutput, Simulator};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

/// Serialize tests (telemetry and clocks are process-global); a panic
/// in one test must not poison the rest of the suite.
fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn bell() -> Circuit {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).measure_all();
    c
}

/// Drain a virtually-clocked service: advance to successive sleeper
/// deadlines until the queue is empty and nothing is in flight. Bounded
/// in real time so a scheduling bug fails the test instead of hanging it.
fn drain(service: &Service, clock: &VirtualClock) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !service.is_idle() {
        assert!(Instant::now() < deadline, "service failed to quiesce in 30s real time");
        if clock.advance_to_next_sleeper().is_none() {
            std::thread::sleep(Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------
// Named regression scenarios (exact virtual-time assertions)
// ---------------------------------------------------------------------

/// A queue wait of *exactly* the deadline still runs; one nanosecond
/// over expires. The single worker is pinned in a blocker backoff whose
/// deadline lands exactly where the victims' queue wait equals `PIN`.
#[test]
fn deadline_at_the_exact_boundary_runs_one_nanosecond_over_expires() {
    let _l = lock();
    const PIN: Duration = Duration::from_millis(1);
    let clock = Arc::new(VirtualClock::new());
    let service = Service::start(ServeConfig {
        workers: 1,
        schedule: FaultSchedule::none().with_event(0, 0, FaultKind::Transient),
        retry_backoff: PIN,
        backoff_slice: PIN,
        clock: clock.clone(),
        ..Default::default()
    });

    // Blocker (job 0): first attempt faults, backoff parks the worker
    // until exactly t = PIN.
    let blocker = service.submit(JobSpec::new(bell()).tenant("pin")).job_id().unwrap();
    assert!(clock.wait_for_sleepers(1, Duration::from_secs(10)), "worker never parked");

    // Both victims submitted at t = 0; they dispatch at t = PIN, so
    // their queue wait is exactly PIN.
    let on_time = service
        .submit(JobSpec::new(bell()).seed(2).deadline(PIN))
        .job_id()
        .unwrap();
    let over = service
        .submit(JobSpec::new(bell()).seed(3).deadline(PIN - Duration::from_nanos(1)))
        .job_id()
        .unwrap();

    assert_eq!(clock.advance_to_next_sleeper(), Some(PIN));
    drain(&service, &clock);

    assert!(service.try_outcome(blocker).unwrap().is_completed());
    let on_time_outcome = service.try_outcome(on_time).unwrap();
    assert!(
        on_time_outcome.is_completed(),
        "wait == deadline must run (the boundary belongs to the job), got {on_time_outcome:?}"
    );
    assert!(matches!(service.try_outcome(over).unwrap(), JobOutcome::Expired));
    service.shutdown();
}

/// Regression for the uninterruptible-backoff bug: a cancel issued while
/// the worker is parked in retry backoff resolves within one backoff
/// *slice* (5 µs here), not after the full 400 µs backoff.
#[test]
fn cancel_during_backoff_lands_within_one_slice() {
    let _l = lock();
    let slice = Duration::from_micros(5);
    let backoff = Duration::from_micros(400);
    let clock = Arc::new(VirtualClock::new());
    let service = Service::start(ServeConfig {
        workers: 1,
        schedule: FaultSchedule::none().with_event(0, 0, FaultKind::Transient),
        retry_backoff: backoff,
        backoff_slice: slice,
        clock: clock.clone(),
        ..Default::default()
    });

    let id = service.submit(JobSpec::new(bell())).job_id().unwrap();
    assert!(clock.wait_for_sleepers(1, Duration::from_secs(10)), "worker never parked");

    // In flight, so the cancel is recorded, not immediate.
    assert!(!service.cancel(id));
    drain(&service, &clock);

    assert!(matches!(service.try_outcome(id).unwrap(), JobOutcome::Cancelled));
    let resolved_at = service.outcome_time(id).unwrap();
    assert_eq!(
        resolved_at, slice,
        "cancel must be observed at the first slice boundary, not after the full backoff"
    );
    service.shutdown();
}

/// Retry storm: at fault rate 1.0 every attempt strikes, so the job
/// fails after `1 + max_retries` attempts and the failure lands at
/// exactly the sum of the exponential backoffs (1+2+4+8 = 15 × base).
#[test]
fn retry_storm_at_rate_one_fails_at_the_exact_backoff_sum() {
    let _l = lock();
    let base = Duration::from_micros(10);
    let clock = Arc::new(VirtualClock::new());
    let service = Service::start(ServeConfig {
        workers: 1,
        schedule: FaultSchedule::with_rate(1.0, 7),
        max_retries: 4,
        retry_backoff: base,
        backoff_slice: Duration::from_secs(1), // one sleep per backoff
        clock: clock.clone(),
        ..Default::default()
    });

    let id = service.submit(JobSpec::new(bell())).job_id().unwrap();
    drain(&service, &clock);

    match service.try_outcome(id).unwrap() {
        JobOutcome::Failed(ServeError::RetriesExhausted { attempts }) => {
            assert_eq!(attempts, 5, "1 initial + 4 retries");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(
        service.outcome_time(id).unwrap(),
        base * 15,
        "virtual service time must equal the exact backoff sum"
    );
    service.shutdown();
}

/// Worker death mid-job: the job is requeued (second dispatch) and its
/// attempt ledger carries across, so it completes on attempt 2 with no
/// job lost and no third dispatch.
#[test]
fn worker_death_requeues_and_the_attempt_ledger_carries_over() {
    let _l = lock();
    let service = Service::start(ServeConfig {
        workers: 1,
        schedule: FaultSchedule::none().with_event(0, 0, FaultKind::WorkerDeath),
        ..Default::default()
    });
    let id = service.submit(JobSpec::new(bell()).shots(200)).job_id().unwrap();
    let outcome = service.wait(id).unwrap();
    let result = outcome.result().expect("survives the death via requeue");
    assert_eq!(result.attempts, 2, "the dying attempt is consumed");
    let dispatches =
        service.events_for(id).iter().filter(|e| matches!(e.kind, EventKind::Dispatch(_))).count();
    assert_eq!(dispatches, 2, "exactly one requeue");
    service.shutdown();
}

/// A corrupted cache entry is detected at the probe, invalidated, and
/// the job re-executes cold — reproducing the original bytes exactly
/// and repopulating the cache for the next hit.
#[test]
fn corrupted_cache_entry_falls_back_to_a_bit_identical_cold_run() {
    let _l = lock();
    let service = Service::start(ServeConfig {
        workers: 1,
        schedule: FaultSchedule::none().with_event(1, 0, FaultKind::CorruptCache),
        state_cache_capacity: 0, // isolate the full-result cache path
        ..Default::default()
    });
    let spec = JobSpec::new(bell()).shots(300).seed(9);
    let cold = service.submit(spec.clone()).job_id().unwrap();
    let cold = service.wait(cold).unwrap();
    let cold = cold.result().unwrap();
    assert!(!cold.from_cache);

    // Job 1: its cache entry is scheduled corrupt — probe invalidates it.
    let recovered = service.submit(spec.clone()).job_id().unwrap();
    let recovered = service.wait(recovered).unwrap();
    let recovered = recovered.result().unwrap();
    assert!(!recovered.from_cache, "corrupt entry must not be served");
    assert_eq!(recovered.attempts, 1, "re-executed cold");
    assert_eq!(cold.counts, recovered.counts, "recovery is bit-identical");

    // Job 2: the re-execution repopulated the cache.
    let warm = service.submit(spec).job_id().unwrap();
    let warm = service.wait(warm).unwrap();
    let warm = warm.result().unwrap();
    assert!(warm.from_cache);
    assert_eq!(warm.counts, cold.counts);
    service.shutdown();
}

/// The acceptance scenario for checkpointed execution: the worker dies
/// after segment k = 2 with the newest checkpoint (generation 1, taken
/// at cursor 2) corrupted in the store. The retry's recovery ladder
/// must reject generation 1 by CRC, resume from generation 0 — the
/// k − 1 segments of proven progress — and still complete with counts
/// byte-identical to a fault-free run (the resume-bit-identity oracle
/// checks the hash against a clean mirror execution). Varied over ≥ 3
/// derived seeds, each replayable via `QGEAR_SIMTEST_SEED`.
#[test]
fn death_at_segment_k_with_newest_checkpoint_corrupt_resumes_from_the_prior_generation() {
    let _l = lock();
    let base = seed_from_env(0x0C1C_ADA5);
    for i in 0..3u64 {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Every circuit family at 3 qubits has ≥ 3 schedule steps under
        // the harness fusion width of 1, so a death after 2 segments
        // always strikes mid-run with two generations already written.
        let def = JobDef {
            shape: (seed % 3) as u8,
            qubits: 3,
            shots: 16 + seed % 200,
            seed: seed % 7,
            ..JobDef::bell()
        };
        let scenario = Scenario::empty(seed)
            .op(Op::Submit(def))
            .event(0, 0, FaultKind::WorkerDeathMidRun { after_segments: 2 })
            .event(0, 0, FaultKind::CorruptCheckpoint { generation: 1 });
        let report = run_scenario(&scenario);
        assert!(
            report.is_ok(),
            "oracle violations for seed {seed:#x}: {violations:#?}\nreplay: {cmd}",
            violations = report.violations,
            cmd = replay_command(
                seed,
                "death_at_segment_k_with_newest_checkpoint_corrupt_resumes_from_the_prior_generation",
            ),
        );
        // Scenario job 0 is admission id 1 (the harness blocker is 0).
        let log = &report.events;
        let logged = |record| log.iter().any(|e| e.kind == EventKind::Checkpoint(record));
        assert!(
            logged(CheckpointRecord::VerifyFailed { job: 1, generation: 1 }),
            "newest generation must fail verification; log: {log:?}"
        );
        assert!(
            logged(CheckpointRecord::Resumed { job: 1, generation: 0, cursor: 1 }),
            "must resume from generation k−1 at cursor 1; log: {log:?}"
        );
        assert!(
            !logged(CheckpointRecord::ColdRestart { job: 1 }),
            "an older verified generation makes a cold restart illegal; log: {log:?}"
        );
        match report.outcomes.get(&1) {
            Some(OutcomeSummary::Completed { attempts: 2, .. }) => {}
            other => panic!("expected completion on attempt 2, got {other:?} (seed {seed:#x})"),
        }
    }
}

/// The storage side of the fault taxonomy: a truncated or bit-flipped
/// container is rejected loudly (never misread as shorter valid data).
#[test]
fn truncated_or_corrupted_hdf5_bytes_are_rejected() {
    use qgear_hdf5lite::{Compression, Dataset, H5File};
    let mut f = H5File::new();
    f.write_dataset("run/probs", Dataset::from_f64(&[0.25, 0.75, 0.5, 0.125], &[4]))
        .unwrap();
    let bytes = f.to_bytes(Compression::ShuffleRle);
    assert_eq!(H5File::from_bytes(&bytes).unwrap(), f, "sanity: intact bytes round-trip");

    for keep in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            H5File::from_bytes(&bytes[..keep]).is_err(),
            "truncation to {keep} bytes must be detected"
        );
    }
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(H5File::from_bytes(&flipped).is_err(), "bit flip must fail the checksum");
}

// ---------------------------------------------------------------------
// Deaths and panics under simulation
// ---------------------------------------------------------------------

/// Random struck scenarios — `Scenario::generate`'s job mixes with deaths
/// (at the attempt boundary and mid-run) and panics aimed at first
/// attempts, checkpointing on — hold every oracle. Six derived seeds,
/// each replayable via `QGEAR_SIMTEST_SEED`.
#[test]
fn random_struck_scenarios_hold_every_oracle() {
    let _l = lock();
    let base = seed_from_env(0xBA7C_5EED);
    let mut struck = 0usize;
    for i in 0..6u64 {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let scenario = Scenario::generate_struck(seed);
        let report = run_scenario(&scenario);
        assert!(
            report.is_ok(),
            "oracle violations for seed {seed:#x}: {violations:#?}\nreplay: {cmd}",
            violations = report.violations,
            cmd = replay_command(seed, "random_struck_scenarios_hold_every_oracle"),
        );
        let requeued = report.dispatch_counts.values().any(|&n| n > 1);
        let panicked =
            report.outcomes.values().any(|o| *o == OutcomeSummary::Failed { attempts: 0 });
        struck += usize::from(requeued || panicked);
    }
    assert!(
        struck >= 1,
        "at least one generated scenario must requeue a job or fail one in place (vacuity guard)"
    );
}

/// A panic is contained in the attempt loop that every dispatch takes:
/// of four jobs queued on the one worker, the two struck ones each end
/// `Failed` and are not retried, the ones queued behind them complete on
/// the same worker, and the service quiesces (every oracle, termination
/// included). At 121f693 the first panic killed the only worker with its
/// in-flight slot counted.
#[test]
fn a_panicking_job_fails_alone_and_the_jobs_queued_behind_it_complete() {
    let _l = lock();
    let mut scenario = Scenario::empty(0x9A41_C0DE);
    for shape in [1u8, 4, 7] {
        scenario = scenario.op(Op::Submit(JobDef { shape, qubits: 3, ..JobDef::bell() }));
    }
    let lone = JobDef { shape: 2, qubits: 2, seed: 9, ..JobDef::bell() };
    let scenario = scenario
        .op(Op::Advance(Duration::from_micros(50)))
        .op(Op::Submit(lone))
        .event(1, 0, FaultKind::Panic)
        .event(3, 0, FaultKind::Panic);
    let report = run_scenario(&scenario);
    assert!(report.is_ok(), "violations: {:?}", report.violations);
    // Scenario jobs 0..4 are admission ids 1..=4 (the harness blocker is 0).
    for id in [2, 4] {
        assert_eq!(report.outcomes.get(&id), Some(&OutcomeSummary::Failed { attempts: 0 }));
        assert_eq!(report.dispatch_counts.get(&id), Some(&1), "a panic is not retried");
    }
    for id in [1, 3] {
        assert!(matches!(
            report.outcomes.get(&id),
            Some(OutcomeSummary::Completed { attempts: 1, .. })
        ));
    }
}

// ---------------------------------------------------------------------
// Sharded serving under simulation
// ---------------------------------------------------------------------

/// The acceptance scenario for shard migration: a 4-qubit job overflows
/// the scenario's 192-byte worker (256 B of fp64 amplitudes), admission
/// routes it to a 2-shard group, and a scheduled shard-worker death
/// tears the group down mid-run. The requeued dispatch must restore the
/// newest verified checkpoint generation onto a fresh group (a recorded
/// `Resumed`, never a cold restart — a checkpoint provably survives the
/// death) and complete with counts byte-identical to a fault-free run
/// (the resume-bit-identity oracle checks the hash against a clean
/// dense mirror). Varied over ≥ 3 derived seeds, each replayable via
/// `QGEAR_SIMTEST_SEED`.
#[test]
fn shard_worker_death_migrates_onto_a_fresh_group_and_completes_bit_identically() {
    let _l = lock();
    let base = seed_from_env(0x5AAD_0DEA);
    for i in 0..3u64 {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Every circuit family at 4 qubits has ≥ 4 schedule steps under
        // the harness fusion width of 1, so dying after 1–2 segments
        // always leaves a verified checkpoint generation behind.
        let def = JobDef {
            shape: (seed % 3) as u8,
            qubits: 4,
            shots: 16 + seed % 200,
            seed: seed % 7,
            ..JobDef::bell()
        };
        let scenario = Scenario::empty(seed).sharded().op(Op::Submit(def)).event(
            0,
            0,
            FaultKind::ShardWorkerDeath {
                shard: (seed % 2) as u32,
                after_segments: 1 + (seed % 2) as u32,
            },
        );
        let report = run_scenario(&scenario);
        assert!(
            report.is_ok(),
            "oracle violations for seed {seed:#x}: {violations:#?}\nreplay: {cmd}",
            violations = report.violations,
            cmd = replay_command(
                seed,
                "shard_worker_death_migrates_onto_a_fresh_group_and_completes_bit_identically",
            ),
        );
        // Scenario job 0 is admission id 1 (the harness blocker is 0).
        let log = &report.events;
        let lost = log
            .iter()
            .position(|e| matches!(e.kind, EventKind::Shard(ShardRecord::WorkerLost { job: 1, .. })))
            .unwrap_or_else(|| panic!("the scheduled death must tear the group down; log: {log:?}"));
        assert!(
            log[lost..].iter().any(|e| matches!(
                e.kind,
                EventKind::Checkpoint(CheckpointRecord::Resumed { job: 1, .. })
            )),
            "the replacement dispatch must restore a checkpoint; log: {log:?}"
        );
        assert!(
            !log.iter().any(|e| matches!(
                e.kind,
                EventKind::Checkpoint(CheckpointRecord::ColdRestart { job: 1 })
            )),
            "a surviving generation makes a cold restart illegal; log: {log:?}"
        );
        assert_eq!(
            report.dispatch_counts.get(&1),
            Some(&2),
            "the torn-down dispatch plus its replacement (seed {seed:#x})"
        );
        match report.outcomes.get(&1) {
            Some(OutcomeSummary::Completed { .. }) => {}
            other => panic!("expected completion after migration, got {other:?} (seed {seed:#x})"),
        }
    }
}

/// A link fault recovers *in place*: the struck exchange kills the
/// partitioned state, but the same dispatch reloads the newest verified
/// generation and finishes — one dispatch total, one retry consumed,
/// and the completion is still bit-identical to the fault-free mirror
/// (checked by the oracles). Both failure flavors are exercised.
#[test]
fn a_link_fault_recovers_in_place_within_the_same_dispatch() {
    let _l = lock();
    for corrupt in [false, true] {
        // Shape 0 at 4 qubits ends in cx(2,3): the top qubit is global
        // on a 2-shard group, so exchange 0 always occurs.
        let def = JobDef { shape: 0, qubits: 4, shots: 120, seed: 3, ..JobDef::bell() };
        let scenario = Scenario::empty(0x11FA_0171)
            .sharded()
            .op(Op::Submit(def))
            .event(0, 0, FaultKind::LinkFault { exchange: 0, corrupt });
        let report = run_scenario(&scenario);
        assert!(report.is_ok(), "corrupt={corrupt}: violations: {:?}", report.violations);
        let log = &report.events;
        assert!(
            log.iter().any(|e| matches!(
                e.kind,
                EventKind::Shard(ShardRecord::LinkFault { job: 1, exchange: 0, corrupt: c, .. })
                    if c == corrupt
            )),
            "corrupt={corrupt}: the struck exchange must be logged; log: {log:?}"
        );
        assert_eq!(
            report.dispatch_counts.get(&1),
            Some(&1),
            "corrupt={corrupt}: in-place recovery never redispatches"
        );
        match report.outcomes.get(&1) {
            Some(OutcomeSummary::Completed { attempts: 2, .. }) => {}
            other => panic!(
                "corrupt={corrupt}: a link fault consumes a retry (attempts 2), got {other:?}"
            ),
        }
    }
}

/// Random sharded scenarios — guaranteed 4-qubit (beyond-one-worker)
/// jobs with shard deaths and link faults in the fault script — hold
/// every oracle, including shard exchange conservation and migration
/// discipline. Six derived seeds, each replayable via
/// `QGEAR_SIMTEST_SEED`.
#[test]
fn random_sharded_scenarios_hold_every_oracle() {
    let _l = lock();
    let base = seed_from_env(0x5AAD_5EED);
    let (mut completed, mut struck) = (0usize, 0usize);
    for i in 0..6u64 {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let scenario = Scenario::generate_sharded(seed);
        let report = run_scenario(&scenario);
        assert!(
            report.is_ok(),
            "oracle violations for seed {seed:#x}: {violations:#?}\nreplay: {cmd}",
            violations = report.violations,
            cmd = replay_command(seed, "random_sharded_scenarios_hold_every_oracle"),
        );
        let log = &report.events;
        completed += usize::from(
            log.iter().any(|e| matches!(e.kind, EventKind::Shard(ShardRecord::Completed { .. }))),
        );
        struck += usize::from(log.iter().any(|e| {
            matches!(
                e.kind,
                EventKind::Shard(ShardRecord::WorkerLost { .. } | ShardRecord::LinkFault { .. })
            )
        }));
    }
    assert!(completed >= 1, "at least one scenario must complete a sharded run (vacuity guard)");
    assert!(struck >= 1, "at least one scenario must strike the shard machinery (vacuity guard)");
}

// ---------------------------------------------------------------------
// Fault-rate statistics
// ---------------------------------------------------------------------

/// The schedule's background rate: its empirical strike rate over 10⁵
/// (job, attempt) pairs tracks the configured rate within ±2 %, every
/// strike is a transient, and the rate is a pure function of its seed.
#[test]
fn fault_plan_strike_rate_is_statistically_faithful_and_deterministic() {
    let rate = 0.2;
    let plan = FaultSchedule::with_rate(rate, 42);
    let twin = FaultSchedule::with_rate(rate, 42);
    let mut strikes = 0u64;
    for job in 0..20_000u64 {
        for attempt in 0..5u32 {
            let hit = plan.at(job, attempt);
            assert_eq!(hit, twin.at(job, attempt), "same seed ⇒ same decisions");
            assert!(matches!(hit, None | Some(FaultKind::Transient)), "{hit:?}");
            strikes += u64::from(hit.is_some());
        }
    }
    let empirical = strikes as f64 / 100_000.0;
    assert!(
        (empirical - rate).abs() <= rate * 0.02,
        "empirical rate {empirical} departs more than ±2% from {rate}"
    );
}

/// Rates with different seeds are decorrelated: at rate 0.5 they
/// disagree on roughly half of all coordinates, and joint strikes land
/// near the independent-product rate.
#[test]
fn fault_plans_with_different_seeds_are_decorrelated() {
    let a = FaultSchedule::with_rate(0.5, 1);
    let b = FaultSchedule::with_rate(0.5, 2);
    let (mut disagree, mut both) = (0u64, 0u64);
    let total = 10_000u64;
    for job in 0..total {
        let (sa, sb) = (a.at(job, 0).is_some(), b.at(job, 0).is_some());
        disagree += u64::from(sa != sb);
        both += u64::from(sa && sb);
    }
    let disagreement = disagree as f64 / total as f64;
    let joint = both as f64 / total as f64;
    assert!((0.4..=0.6).contains(&disagreement), "disagreement {disagreement}");
    assert!((0.2..=0.3).contains(&joint), "joint strike rate {joint} ≉ 0.25");
}

// ---------------------------------------------------------------------
// Randomized scenarios, replay, and shrinking
// ---------------------------------------------------------------------

/// The main property: scenarios derived from the base seed (overridable
/// via `QGEAR_SIMTEST_SEED`, which the failure message names) satisfy
/// every oracle. With the env var set, iteration 0 replays that exact
/// seed.
#[test]
fn random_scenarios_hold_every_oracle() {
    let _l = lock();
    let base = seed_from_env(0x51D3_C0DE);
    for i in 0..8u64 {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let scenario = Scenario::generate(seed);
        let report = run_scenario(&scenario);
        assert!(
            report.is_ok(),
            "oracle violations for seed {seed:#x}: {violations:#?}\nreplay: {cmd}",
            violations = report.violations,
            cmd = replay_command(seed, "random_scenarios_hold_every_oracle"),
        );
    }
}

/// Replay identity: the same seed produces a byte-identical trace on
/// every run — the property `QGEAR_SIMTEST_SEED` replays rely on.
#[test]
fn replaying_a_seed_reproduces_the_trace_byte_for_byte() {
    let _l = lock();
    let base = seed_from_env(0xCAFE_F00D);
    for i in 0..3u64 {
        let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let scenario = Scenario::generate(seed);
        let first = run_scenario(&scenario);
        let second = run_scenario(&scenario);
        assert_eq!(
            first.trace.render(),
            second.trace.render(),
            "trace divergence for seed {seed:#x}; replay: {}",
            replay_command(seed, "replaying_a_seed_reproduces_the_trace_byte_for_byte"),
        );
        assert_eq!(first.trace_hash(), second.trace_hash());
    }
}

/// The bitwise trace tier, binding: the trace hash of every scenario the
/// four `scripts/check.sh` seeds derive (six per seed, as the random
/// tests derive them) run plain, struck and sharded — 72 hashes, pinned
/// here and independent of `QGEAR_SIMTEST_SEED`. The plain and sharded
/// rows are those of 121f693; the struck rows were re-pinned when the
/// family stopped batching (its scenarios are otherwise the batched
/// family's, fault script included). A mismatch on another host is a
/// bitwise-tier failure to report, not a table to re-pin.
#[test]
fn the_seventy_two_simtest_trace_hashes_are_pinned() {
    let _l = lock();
    const PINNED: [(u64, [[u64; 6]; 3]); 4] = [
        (
            0x51D3_C0DE,
            [
                [
                    0x492b9e5d3fb6ca13, 0x2adac3a35484542b, 0x8def4f62c90158c2,
                    0x9363912d6c658352, 0x00252ea7a6eecbb3, 0x7783c27cf3f0dbbc,
                ],
                [
                    0x2f1106d2330fde3c, 0x2adac3a35484542b, 0x8def4f62c90158c2,
                    0x9363912d6c658352, 0x0e694009b4de2541, 0x7783c27cf3f0dbbc,
                ],
                [
                    0x68f763115703cb68, 0x15ae3267af70e90f, 0x8ca5e08af1fcbda1,
                    0x650eda0172407894, 0x39d71e2d2a29e0ce, 0x7a7607db64495f03,
                ],
            ],
        ),
        (
            0xDEAD_BEEF,
            [
                [
                    0x3c38026ac9a56322, 0x553fbc1676362fda, 0x553fbc1676362fda,
                    0x8ae5b0b761dea2f6, 0x60c3ee6efb066420, 0xdcbb9ef26235046a,
                ],
                [
                    0x3c38026ac9a56322, 0x553fbc1676362fda, 0x553fbc1676362fda,
                    0x8ae5b0b761dea2f6, 0x60c3ee6efb066420, 0xaf473278a09aff04,
                ],
                [
                    0x922950c0e282588c, 0x42c8f2d3a3092763, 0xdfb323ab2c32f510,
                    0x8fb58fcfbc77a6d9, 0x05524ed02fbcff90, 0x3c870ce6199ea320,
                ],
            ],
        ),
        (
            0x00C0_FFEE,
            [
                [
                    0xccb5a9b2a05e5729, 0x1c32e8b63b788180, 0xb9f6957c588bb5a9,
                    0x6ba91fcd10e92fc0, 0x88786accd59dcb7c, 0xdbf347de6903525a,
                ],
                [
                    0xccb5a9b2a05e5729, 0x1c32e8b63b788180, 0xa7d802f0f328f55e,
                    0x536d357f4fb953cd, 0x88786accd59dcb7c, 0xdbf347de6903525a,
                ],
                [
                    0xc62fb4b273ce9503, 0x04b44fec7dca3a67, 0xde3176405727da3d,
                    0x619fc81058d5de2c, 0x7248f462c3d9ee81, 0x2cf924463b83fac7,
                ],
            ],
        ),
        (
            0x0C1C_ADA5,
            [
                [
                    0x5263cd5835a3c013, 0x06548e0f10a59819, 0x6f16bd32b0057af7,
                    0xee5dbfb3046f0031, 0x87c48c60c661fb59, 0x49d89024ecf83a95,
                ],
                [
                    0xbaa02b3db8cacee9, 0x06548e0f10a59819, 0xa7aaeb97af9f8729,
                    0xee5dbfb3046f0031, 0x87c48c60c661fb59, 0x49d89024ecf83a95,
                ],
                [
                    0xc804db9a178d4a5b, 0x5b1fb4570b3dd055, 0xc7a4c1304c4b7fc3,
                    0x360af181f5337fbf, 0xfe3643d4fc17b72a, 0x108a287a85c8b7cd,
                ],
            ],
        ),
    ];
    type Generate = fn(u64) -> Scenario;
    let families: [(&str, Generate); 3] = [
        ("plain", Scenario::generate),
        ("struck", Scenario::generate_struck),
        ("sharded", Scenario::generate_sharded),
    ];
    let mut moved = Vec::new();
    for (base, rows) in PINNED {
        for ((family, generate), row) in families.iter().zip(rows) {
            for (i, want) in (0u64..).zip(row) {
                let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let report = run_scenario(&generate(seed));
                assert!(report.is_ok(), "{family} seed {seed:#x}: {:?}", report.violations);
                let got = report.trace_hash();
                if got != want {
                    moved.push(format!("{family} {base:#x}[{i}]: {want:#018x} -> {got:#018x}"));
                }
            }
        }
    }
    assert!(moved.is_empty(), "{} trace hashes moved:\n{}", moved.len(), moved.join("\n"));
}

/// The shrinker reduces a failing scenario buried in noise to the
/// single op that triggers the violation, and prints the minimal
/// reproduction with its replay command.
#[test]
fn shrinker_reduces_a_failure_to_the_single_poison_op() {
    let _l = lock();
    // Predicate: "some job expires". Under pinning a zero deadline
    // always expires, so this fails deterministically.
    let poison = JobDef { deadline_us: Some(0), seed: 77, ..JobDef::bell() };
    let mut scenario = Scenario::empty(0xBAD_5EED);
    for i in 0..4u64 {
        scenario = scenario
            .op(Op::Submit(JobDef { seed: i, ..JobDef::bell() }))
            .op(Op::Advance(Duration::from_micros(40 + i)));
    }
    scenario = scenario
        .op(Op::Submit(poison))
        .op(Op::Advance(Duration::from_micros(500)))
        .event(0, 0, FaultKind::Transient);
    scenario.fault_rate = 0.3;

    let fails = |s: &Scenario| {
        run_scenario(s)
            .outcomes
            .values()
            .any(|o| matches!(o, OutcomeSummary::Expired))
    };
    assert!(fails(&scenario), "the planted failure must trigger pre-shrink");

    let (minimal, candidate_runs) = shrink(&scenario, fails);
    eprintln!(
        "shrunk {} ops / {} events to {} ops / {} events in {candidate_runs} runs\n\
         minimal repro: {minimal:?}\nreplay: {}",
        scenario.ops.len(),
        scenario.events.len(),
        minimal.ops.len(),
        minimal.events.len(),
        replay_command(minimal.seed, "shrinker_reduces_a_failure_to_the_single_poison_op"),
    );
    assert!(fails(&minimal), "shrinking must preserve the failure");
    assert_eq!(minimal.ops.len(), 1, "minimal repro is the poison submit alone");
    assert!(matches!(&minimal.ops[0], Op::Submit(d) if d.deadline_us == Some(0)));
    assert!(minimal.events.is_empty(), "irrelevant fault events shed");
    assert_eq!(minimal.fault_rate, 0.0, "irrelevant rate plan shed");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Scenario generation is total and well-formed over the whole seed
    /// domain, and shrinking a non-failing scenario is the identity.
    /// (Case count scales with `QGEAR_PROPTEST_CASES`.)
    #[test]
    fn generated_scenarios_are_well_formed_for_any_seed(seed in any::<u64>()) {
        let s = Scenario::generate(seed);
        let jobs = s.job_count() as u64;
        prop_assert!((2..=6).contains(&jobs));
        prop_assert!(s.events.iter().all(|e| e.job < jobs));
        prop_assert!(s.total_advance() < Duration::from_secs(1));
        let (unchanged, runs) = shrink(&s, |_| false);
        prop_assert_eq!(unchanged, s);
        prop_assert_eq!(runs, 1);
    }
}

// ---------------------------------------------------------------------
// Telemetry and cluster-engine oracles
// ---------------------------------------------------------------------

/// Span-tree balance over a full scenario run: every opened span closed
/// in its parent, none dropped, and exactly one `serve_job` span per
/// dispatch (worker deaths included).
#[test]
fn scenario_runs_leave_a_balanced_span_tree() {
    let _l = lock();
    // Job 0 uses a non-bell shape: a state-cache hit (the blocker evolves
    // a bell circuit) would bypass the cold path where the scheduled
    // worker death fires.
    let scenario = Scenario::empty(0)
        .op(Op::Submit(JobDef { shape: 1, ..JobDef::bell() }))
        .op(Op::Advance(Duration::from_micros(80)))
        .op(Op::Submit(JobDef { seed: 5, ..JobDef::bell() }))
        .event(0, 0, FaultKind::WorkerDeath);

    qgear_telemetry::reset();
    qgear_telemetry::enable();
    let report = run_scenario(&scenario);
    qgear_telemetry::disable();
    let snapshot = qgear_telemetry::snapshot();
    qgear_telemetry::reset();

    assert!(report.is_ok(), "violations: {:?}", report.violations);
    let dispatches: usize = report.dispatch_counts.values().sum();
    assert!(dispatches >= 4, "blocker + 2 jobs + 1 requeue, got {dispatches}");
    let telemetry_violations = qgear_simtest::oracle::check_telemetry(&snapshot, dispatches);
    assert!(telemetry_violations.is_empty(), "{telemetry_violations:?}");
}

/// The cluster engine reads its phase timings from the injected clock:
/// under a ticked virtual clock both recorded spans equal exactly one
/// tick (one `now()` delta each), proving no wall-clock leaks into
/// `ExecStats`.
#[test]
fn cluster_engine_spans_are_exact_under_a_ticked_virtual_clock() {
    let tick = Duration::from_micros(7);
    let mut engine = ClusterEngine::a100_cluster(4);
    engine.clock = Arc::new(VirtualClock::with_tick(tick));
    let mut circuit = Circuit::new(4);
    circuit.h(0);
    for q in 0..3 {
        circuit.cx(q, q + 1);
    }
    circuit.measure_all();
    let out: RunOutput<f64> = engine
        .run(&circuit, &RunOptions { shots: 100, ..Default::default() })
        .unwrap();
    assert_eq!(out.stats.elapsed, tick, "simulate span is exactly one tick");
    assert_eq!(out.stats.sampling_elapsed, tick, "sample span is exactly one tick");
    assert_eq!(out.counts.unwrap().total(), 100);
}
