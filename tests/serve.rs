//! Integration and property tests for the `qgear-serve` runtime.
//!
//! The property tests pin the scheduler's contract under arbitrary
//! push/pop interleavings and arbitrary circuits:
//! * no admitted job is ever lost or dispatched twice;
//! * dispatch order is FIFO within one tenant's priority class;
//! * a cache hit replays the cold run's counts bit-for-bit.
//!
//! The telemetry test drives a real multi-worker service and checks the
//! exported schema-v1 snapshot carries the serving counters, the
//! queue-depth histogram, and one `serve_job` span per dispatched job.

use proptest::prelude::*;
use qgear_ir::Circuit;
use qgear_serve::{
    Admission, AdmissionQueue, CircuitKey, Engine, EventKind, FaultKind, FaultSchedule, JobId,
    JobOutcome, JobSpec, Priority, QueuedJob, ServeConfig, ServeError, Service,
};
use qgear_statevec::Counts;
use qgear_telemetry::names;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

fn tenant_name(t: u8) -> &'static str {
    ["alice", "bob", "carol"][t as usize % 3]
}

fn priority_of(p: u8) -> Priority {
    Priority::ALL[p as usize % 3]
}

fn queued(id: u64, tenant: u8, priority: u8) -> QueuedJob {
    let circuit = Circuit::new(1);
    QueuedJob {
        id: JobId(id),
        spec: JobSpec::new(circuit.clone())
            .tenant(tenant_name(tenant))
            .priority(priority_of(priority)),
        canonical: circuit,
        key: CircuitKey(id),
        state_key: CircuitKey(id ^ u64::MAX),
        submitted_at: Duration::ZERO,
        seq: 0,
        attempts_made: 0,
        engine: Engine::Dense,
    }
}

proptest! {
    /// Under any interleaving of pushes and pops, the queue conserves
    /// jobs: every accepted push is dispatched exactly once, and within
    /// one (tenant, priority) bucket dispatch order equals admission
    /// order.
    #[test]
    fn queue_conserves_jobs_and_keeps_bucket_fifo(
        events in proptest::collection::vec((any::<bool>(), 0u8..3, 0u8..3), 1..150)
    ) {
        let mut queue = AdmissionQueue::new(64);
        let mut next_id = 0u64;
        let mut accepted = HashSet::new();
        let mut dispatched: Vec<QueuedJob> = Vec::new();
        for (is_push, tenant, priority) in events {
            if is_push {
                let job = queued(next_id, tenant, priority);
                if queue.push(job).is_ok() {
                    accepted.insert(next_id);
                }
                next_id += 1;
            } else if let Some(job) = queue.pop_next() {
                dispatched.push(job);
            }
        }
        while let Some(job) = queue.pop_next() {
            dispatched.push(job);
        }
        prop_assert!(queue.is_empty());

        // Conservation: dispatched ids == accepted ids, no duplicates.
        let mut seen = HashSet::new();
        for job in &dispatched {
            prop_assert!(seen.insert(job.id.0), "job {} dispatched twice", job.id.0);
        }
        prop_assert_eq!(&seen, &accepted);

        // FIFO within each (tenant, priority) bucket, by admission seq.
        let mut last_seq: HashMap<(String, usize), u64> = HashMap::new();
        for job in &dispatched {
            let bucket = (job.spec.tenant.clone(), job.spec.priority.index());
            if let Some(&prev) = last_seq.get(&bucket) {
                prop_assert!(
                    job.seq > prev,
                    "bucket {:?} reordered: seq {} after {}",
                    bucket, job.seq, prev
                );
            }
            last_seq.insert(bucket, job.seq);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Resubmitting an identical spec (same circuit, shots, seed,
    /// precision) after the cold run completes hits the cache and
    /// replays the exact same counts.
    #[test]
    fn cache_hit_is_bitwise_identical_to_cold_run(
        n in 2u32..5,
        gates in proptest::collection::vec((0u8..4, 0u32..4, 1u32..4, -3.1..3.1f64), 1..16),
        shots in 64u64..512,
        seed in any::<u64>(),
    ) {
        let mut circuit = Circuit::new(n);
        for (kind, a, boff, theta) in gates {
            let a = a % n;
            let b = (a + 1 + boff % (n - 1)) % n;
            match kind {
                0 => { circuit.h(a); }
                1 => { circuit.ry(theta, a); }
                2 => { circuit.cx(a, b); }
                _ => { circuit.rz(theta, a); }
            }
        }
        circuit.measure_all();

        let service = Service::start(ServeConfig { workers: 1, ..Default::default() });
        let spec = JobSpec::new(circuit).shots(shots).seed(seed);
        let cold_id = service.submit(spec.clone()).job_id().expect("cold accepted");
        let cold = service.wait(cold_id).unwrap();
        let warm_id = service.submit(spec).job_id().expect("warm accepted");
        let warm = service.wait(warm_id).unwrap();
        service.shutdown();

        let cold = cold.result().expect("cold completes");
        let warm = warm.result().expect("warm completes");
        prop_assert!(!cold.from_cache);
        prop_assert!(warm.from_cache, "second identical spec must hit the cache");
        // Why a hit is cheap: it never touches the device.
        prop_assert!(cold.attempts >= 1);
        prop_assert_eq!(warm.attempts, 0);
        prop_assert_eq!(&cold.counts, &warm.counts);
        prop_assert_eq!(cold.counts.as_ref().unwrap().total(), shots);
    }
}

/// A concurrent multi-tenant burst across 4 workers: every accepted job
/// reaches exactly one terminal outcome and the dispatch log shows no
/// duplicates — the service-level statement of the queue property. Run
/// once under capacity, and once saturated: a queue an eighth of the
/// burst (the submitter rides through `QueueFull`) with transient
/// device faults retried underneath.
#[test]
fn concurrent_burst_loses_and_duplicates_nothing() {
    let inputs = [
        ("under capacity", 128, FaultSchedule::none()),
        ("saturated", 8, FaultSchedule::with_rate(0.1, 0xFA017)),
    ];
    for (what, queue_capacity, schedule) in inputs {
        let service = Service::start(ServeConfig {
            workers: 4,
            queue_capacity,
            schedule,
            retry_backoff: Duration::from_micros(200),
            ..Default::default()
        });
        let mut ids = Vec::new();
        for i in 0..60u64 {
            let mut c = Circuit::new(3 + (i % 3) as u32);
            c.h(0).cx(0, 1).ry(0.1 * i as f64, 2).measure_all();
            let spec = JobSpec::new(c)
                .shots(200)
                .seed(i)
                .tenant(tenant_name((i % 3) as u8))
                .priority(priority_of((i % 3) as u8));
            loop {
                match service.submit(spec.clone()) {
                    Admission::Accepted(id) => {
                        ids.push(id);
                        break;
                    }
                    Admission::QueueFull { .. } if queue_capacity < 60 => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    other => panic!("{what}: job {i} of 60 answered {other:?}"),
                }
            }
        }
        for &id in &ids {
            let outcome = service.wait(id).expect("every accepted id resolves");
            assert!(
                outcome.is_completed(),
                "{what}: job {id:?} ended {outcome:?} with every fault retryable"
            );
        }
        let events = service.events();
        let log: Vec<u64> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Dispatch(record) => Some(record.id.0),
                _ => None,
            })
            .collect();
        let unique: HashSet<u64> = log.iter().copied().collect();
        assert_eq!(unique.len(), log.len(), "{what}: duplicate dispatch");
        assert_eq!(unique.len(), ids.len(), "{what}: dispatch log must cover every job");
        service.shutdown();
    }
}

/// End-to-end telemetry: counters, queue-depth histogram, per-tenant
/// counters, and `serve_job` spans all land in the schema-v1 snapshot.
#[test]
fn telemetry_snapshot_carries_the_serving_signals() {
    qgear_telemetry::reset();
    qgear_telemetry::enable();

    let service = Service::start(ServeConfig { workers: 4, ..Default::default() });
    let mut bell = Circuit::new(2);
    bell.h(0).cx(0, 1).measure_all();
    let ids: Vec<JobId> = (0..12u64)
        .map(|i| {
            service
                .submit(
                    JobSpec::new(bell.clone())
                        .shots(100)
                        // Two distinct seeds → 2 cold runs, 10 cache hits
                        // once the cold results land (workers may race the
                        // first submissions, so hits are a lower bound).
                        .seed(i % 2)
                        .tenant("telemetry-tenant"),
                )
                .job_id()
                .expect("accepted")
        })
        .collect();
    for id in &ids {
        assert!(matches!(service.wait(*id), Some(JobOutcome::Completed(_))));
    }
    service.shutdown();

    let snapshot = qgear_telemetry::snapshot();
    qgear_telemetry::disable();

    // Counters (>= because other tests may run concurrently with
    // telemetry enabled; the tenant-scoped counters are exact).
    assert!(snapshot.counter(names::SERVE_JOBS_SUBMITTED) >= 12);
    assert!(snapshot.counter(names::SERVE_JOBS_COMPLETED) >= 12);
    assert_eq!(snapshot.counter(&names::serve_tenant_jobs("telemetry-tenant")), 12);
    assert_eq!(snapshot.counter(&names::serve_tenant_shots("telemetry-tenant")), 1200);
    assert!(snapshot.counter(names::SERVE_CACHE_MISSES) >= 2);
    assert!(
        snapshot.counter(names::SERVE_CACHE_HITS) >= 6,
        "repeat submissions should mostly hit the cache"
    );

    // Histograms.
    let depth = snapshot
        .histograms
        .get(names::SERVE_QUEUE_DEPTH)
        .expect("queue-depth histogram recorded");
    assert!(depth.count >= 24, "sampled at every submit and dispatch");
    let latency = snapshot
        .histograms
        .get(names::SERVE_LATENCY_MS)
        .expect("latency histogram recorded");
    assert!(latency.count >= 12);

    // One serve_job span per dispatched job, usable for percentiles.
    let serve_spans = snapshot
        .spans
        .iter()
        .filter(|s| s.name == names::spans::SERVE_JOB)
        .count();
    assert!(serve_spans >= 12, "got {serve_spans} serve_job spans");

    // The snapshot round-trips through the schema-v1 JSON document.
    let value = snapshot.to_value("serve-integration");
    let (label, decoded) =
        qgear_telemetry::TelemetrySnapshot::from_value(&value).expect("schema v1 roundtrip");
    assert_eq!(label, "serve-integration");
    assert_eq!(
        decoded.counter(&names::serve_tenant_jobs("telemetry-tenant")),
        12
    );
}

/// A panicking engine call fails its job and nothing else: the job ends
/// `Failed(Panicked)` without a retry, `drain()` returns (the worker gave
/// its in-flight slot back), and the same worker completes the next job.
/// At 121f693 the panic killed the worker thread with the slot counted,
/// and `drain()` never returned.
#[test]
fn a_panicking_job_fails_alone_and_the_service_keeps_serving() {
    let service = Service::start(ServeConfig {
        workers: 1,
        schedule: FaultSchedule::none().with_event(0, 0, FaultKind::Panic),
        ..Default::default()
    });
    let mut c = Circuit::new(3);
    c.h(0).ry(0.4, 1).cx(0, 1).cx(1, 2).measure_all();
    let doomed = service.submit(JobSpec::new(c.clone()).shots(100)).job_id().unwrap();
    match service.wait(doomed) {
        Some(JobOutcome::Failed(ServeError::Panicked(msg))) => {
            assert!(msg.contains("injected panic"), "{msg}");
        }
        other => panic!("expected Failed(Panicked), got {other:?}"),
    }
    service.drain();
    let later = service.submit(JobSpec::new(c).shots(100).seed(3)).job_id().unwrap();
    let outcome = service.wait(later).unwrap();
    assert_eq!(outcome.result().expect("completes").counts.as_ref().unwrap().total(), 100);
    service.shutdown();
}

/// Deadlines, cancellation, and infeasibility all surface as explicit
/// outcomes through the public API.
#[test]
fn control_plane_outcomes_are_explicit() {
    let service = Service::start(ServeConfig { workers: 1, ..Default::default() });

    // Infeasible: a 40-qubit fp64 state needs 17.6 TB, not 40 GB.
    match service.submit(JobSpec::new(Circuit::new(40))) {
        Admission::RejectedInfeasible { required_bytes, device_bytes, considered } => {
            assert!(required_bytes > device_bytes);
            assert!(
                considered.iter().all(|v| v.reason.contains("exceeds device memory")),
                "every considered backend must carry an infeasibility reason: {considered:?}"
            );
        }
        other => panic!("expected RejectedInfeasible, got {other:?}"),
    }

    // Expired: a zero deadline can never be met.
    let mut c = Circuit::new(2);
    c.h(0).measure_all();
    let id = service
        .submit(JobSpec::new(c.clone()).deadline(std::time::Duration::ZERO))
        .job_id()
        .unwrap();
    assert!(matches!(service.wait(id), Some(JobOutcome::Expired)));

    service.shutdown();

    // Shutting down: no new admissions.
    assert!(matches!(
        service.submit(JobSpec::new(c)),
        Admission::ShuttingDown
    ));
}

// ---------------------------------------------------------------------------
// Dispatch-invariance tier: order and worker count are invisible in results.
//
// A job's counts must be bit-identical to a one-worker dispatch of the
// same spec regardless of submission order and worker thread count. The
// tests below run the same job set through a one-worker reference service
// and through services with varied submission orders and worker pools,
// then compare per-job counts exactly; every job must have run once.
// ---------------------------------------------------------------------------

/// The shared sweep ansatz, parameterised per job: same shape digest for
/// every `(qubits, layers)` pair, distinct angles.
fn ladder(qubits: u32, layers: u32, phase: f64) -> Circuit {
    let mut c = Circuit::new(qubits);
    for l in 0..layers {
        for q in 0..qubits {
            c.h(q).ry(phase + 0.31 * f64::from(l) + 0.07 * f64::from(q), q);
        }
        for q in 0..qubits - 1 {
            c.cx(q, q + 1);
        }
    }
    c.measure_all();
    c
}

/// A structurally different family so mixed queues hold more than one
/// shape.
fn twister(qubits: u32, phase: f64) -> Circuit {
    let mut c = Circuit::new(qubits);
    for q in 0..qubits {
        c.ry(phase + 0.13 * f64::from(q), q);
    }
    for q in 0..qubits {
        c.cx(q, (q + 1) % qubits);
    }
    for q in 0..qubits {
        c.rz(0.5 * phase + 0.11 * f64::from(q), q);
    }
    c.measure_all();
    c
}

/// Submit `specs` in `order`, wait for every job, and return counts
/// indexed by the job's position in `specs`. Conservation is read off the
/// outcomes: every job completes exactly once, cold, on its first attempt
/// (fault-free, caches off).
fn run_jobs(specs: &[JobSpec], order: &[usize], workers: usize) -> Vec<Counts> {
    let service = Service::start(ServeConfig {
        workers,
        queue_capacity: specs.len() + 8,
        // Caches off so every job actually executes; cache hits have
        // their own invariance coverage in the tier above.
        cache_capacity: 0,
        state_cache_capacity: 0,
        ..Default::default()
    });
    let mut ids: Vec<Option<JobId>> = vec![None; specs.len()];
    for &i in order {
        ids[i] = Some(
            service
                .submit(specs[i].clone())
                .job_id()
                .expect("invariance jobs are admissible"),
        );
    }
    let mut counts = Vec::with_capacity(specs.len());
    for (i, id) in ids.iter().enumerate() {
        match service.wait(id.expect("every spec submitted")) {
            Some(JobOutcome::Completed(r)) => {
                assert_eq!(r.attempts, 1, "job {i} must run exactly once");
                assert!(!r.from_cache && !r.from_state_cache, "job {i} must have run cold");
                counts.push(r.counts.expect("measured circuit yields counts"));
            }
            other => panic!("job {i} did not complete: {other:?}"),
        }
    }
    service.shutdown();
    counts
}

/// Deterministic Fisher–Yates permutation of `0..n` (no external RNG in
/// the shim workspace; an LCG is plenty for order scrambling).
fn permuted(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = ((s >> 33) as usize) % (i + 1);
        order.swap(i, j);
    }
    order
}

/// Fixed-workload statement of the invariance contract: one mixed-shape
/// job set, one one-worker reference, four configurations spanning
/// submission order and worker count. Every configuration must reproduce
/// the reference counts bit-for-bit.
#[test]
fn counts_are_invariant_to_submission_order_and_worker_count() {
    let jobs = 12usize;
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| {
            let circuit = if i % 2 == 0 {
                ladder(4, 2, 0.11 * i as f64)
            } else {
                twister(3, 0.29 * i as f64)
            };
            JobSpec::new(circuit)
                .shots(192)
                .seed(0x17A5 + i as u64)
                .tenant(tenant_name((i % 3) as u8))
        })
        .collect();

    let forward: Vec<usize> = (0..jobs).collect();
    let reversed: Vec<usize> = (0..jobs).rev().collect();
    let evens_then_odds: Vec<usize> =
        (0..jobs).step_by(2).chain((1..jobs).step_by(2)).collect();

    let reference = run_jobs(&specs, &forward, 1);
    let variants: [(&str, &[usize], usize); 4] = [
        ("1 worker, reversed order", &reversed, 1),
        ("4 workers", &forward, 4),
        ("2 workers, reversed order", &reversed, 2),
        ("3 workers, shapes segregated", &evens_then_odds, 3),
    ];
    for (label, order, workers) in variants {
        let counts = run_jobs(&specs, order, workers);
        for (i, (got, want)) in counts.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "{label}: job {i} counts differ from the reference");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Property form over random shape mixes (case count scales with
    /// `QGEAR_PROPTEST_CASES`): arbitrary interleavings of three shape
    /// families with random angles, shots, seeds, submission order and
    /// worker count all reproduce the one-worker reference counts
    /// bit-for-bit, and every job runs exactly once.
    #[test]
    fn random_shape_mixes_match_the_one_worker_reference_in_any_order(
        mix in proptest::collection::vec(
            (0u8..3, 0.0..std::f64::consts::TAU, 6u32..9, any::<u64>()),
            3..10,
        ),
        workers in 1usize..5,
        shuffle in any::<u64>(),
    ) {
        let specs: Vec<JobSpec> = mix
            .iter()
            .enumerate()
            .map(|(i, &(family, phase, shots_pow, seed))| {
                let circuit = match family {
                    0 => ladder(3, 2, phase),
                    1 => ladder(4, 1, phase),
                    _ => twister(3, phase),
                };
                JobSpec::new(circuit)
                    .shots(1 << shots_pow)
                    .seed(seed)
                    .tenant(tenant_name((i % 3) as u8))
            })
            .collect();

        let forward: Vec<usize> = (0..specs.len()).collect();
        let reference = run_jobs(&specs, &forward, 1);

        let order = permuted(specs.len(), shuffle);
        let counts = run_jobs(&specs, &order, workers);
        for (i, (got, want)) in counts.iter().zip(&reference).enumerate() {
            prop_assert_eq!(got, want, "job {} counts differ from the reference", i);
        }
    }
}
