//! The step-driven executor: runs a [`Scenario`] against a *real*
//! [`Service`] (real worker thread, real locks) while keeping every
//! temporal decision deterministic.
//!
//! The trick is **pinning**: before any scenario op executes, the
//! harness submits a *blocker* job (admission id 0) whose first attempt
//! is scheduled to fault, with the retry backoff sized past every
//! `Advance` the scenario will perform. The single worker parks in a
//! virtual sleep ([`VirtualClock::wait_for_sleepers`] confirms it), so
//! the whole op phase — submits, cancels, time advances — runs against
//! a provably quiescent service: queue contents and cancel verdicts are
//! a pure function of the op list.
//!
//! The **release** phase then drains the queue by repeatedly advancing
//! virtual time to the earliest registered sleeper deadline. Because
//! the clock never advances *past* the earliest deadline, and because
//! between advances virtual time is frozen while the worker computes,
//! every reading the service takes (queue waits, outcome times, backoff
//! deadlines) is reproducible — same scenario, byte-identical
//! [`Trace`].

use crate::clock::VirtualClock;
use crate::oracle::{self, OracleInput};
use crate::scenario::{JobDef, Op, Scenario, TENANTS};
use crate::trace::{counts_hash, ns, OutcomeSummary, Trace, TraceEvent};
use qgear_ir::transpile::decompose_to_native;
use qgear_serve::{
    Admission, BackendKind, BatchConfig, EventKind, FaultKind, FaultSchedule, JobId, JobOutcome,
    JobSpec, ServeConfig, ServeError, Service, ServiceEvent, ShardConfig,
};
use qgear_statevec::{GpuDevice, RunOptions, RunOutput, Simulator};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Admission id of the pinning blocker job.
pub const BLOCKER_JOB: u64 = 0;

/// Fusion window the harness configures the service with (1 = one
/// schedule step per source gate).
const HARNESS_FUSION_WIDTH: usize = 1;

/// Sweep window the harness configures the service with (0 = sweeping
/// off, kernel-at-a-time).
const HARNESS_SWEEP_WIDTH: usize = 0;

/// What the service *should* have answered for `def`: the clean,
/// fault-free execution of its spec, mirrored gate-for-gate (same
/// canonicalization, same engine, same fusion/sweep configuration, same
/// seeded sampling). The resume bit-identity oracle compares every
/// completion against this.
fn clean_counts_hash(def: &JobDef) -> u64 {
    let spec = def.spec();
    let canonical = if spec.circuit.is_native() {
        spec.circuit.clone()
    } else {
        decompose_to_native(&spec.circuit).0
    };
    let opts = RunOptions {
        shots: spec.shots,
        seed: spec.seed,
        fusion_width: HARNESS_FUSION_WIDTH,
        sweep_width: HARNESS_SWEEP_WIDTH,
        keep_state: false,
        ..RunOptions::default()
    };
    let out: RunOutput<f64> = GpuDevice::a100_40gb()
        .run(&canonical, &opts)
        .expect("scenario circuits always execute");
    counts_hash(&out.counts)
}

/// Real-time budget for the release phase; exceeding it is a
/// termination-oracle violation, never a hang.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything one scenario run produced.
#[derive(Debug)]
pub struct SimReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The deterministic event log.
    pub trace: Trace,
    /// Terminal outcomes by admission id (blocker included).
    pub outcomes: BTreeMap<u64, OutcomeSummary>,
    /// Virtual time each outcome was published.
    pub outcome_times: BTreeMap<u64, Duration>,
    /// Dispatches per admission id (>1 only via worker-death requeues),
    /// counted from `events`.
    pub dispatch_counts: BTreeMap<u64, usize>,
    /// Admission ids accepted (blocker included).
    pub accepted: Vec<u64>,
    /// The service's event stream ([`Service::events`]), in the order it
    /// was recorded and stamped in virtual time.
    pub events: Vec<ServiceEvent>,
    /// Whether the release phase hit its real-time budget.
    pub timed_out: bool,
    /// Oracle violations (empty ⇔ the run was sound).
    pub violations: Vec<String>,
}

impl SimReport {
    /// True when every oracle held.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Hash of the trace — the replay-identity fingerprint.
    pub fn trace_hash(&self) -> u64 {
        self.trace.hash()
    }
}

fn summarize(outcome: &JobOutcome) -> OutcomeSummary {
    match outcome {
        JobOutcome::Completed(r) => OutcomeSummary::Completed {
            attempts: r.attempts,
            from_cache: r.from_cache,
            from_state_cache: r.from_state_cache,
            counts_hash: counts_hash(&r.counts),
        },
        JobOutcome::Failed(ServeError::RetriesExhausted { attempts }) => {
            OutcomeSummary::Failed { attempts: *attempts }
        }
        JobOutcome::Failed(ServeError::Sim(_) | ServeError::Panicked(_)) => {
            OutcomeSummary::Failed { attempts: 0 }
        }
        JobOutcome::Cancelled => OutcomeSummary::Cancelled,
        JobOutcome::Expired => OutcomeSummary::Expired,
    }
}

/// Run one scenario to quiescence and check every oracle.
pub fn run_scenario(scenario: &Scenario) -> SimReport {
    // The pin window: longer than all scenario advances combined, so
    // the blocker's backoff outlasts the whole op phase.
    let pin = scenario.total_advance().saturating_add(Duration::from_millis(100));
    let clock = Arc::new(VirtualClock::new());

    // Translate the fault script into admission coordinates (+1 for the
    // blocker) and prepend the blocker's own pinning strike.
    let mut schedule = FaultSchedule::with_rate(scenario.fault_rate, scenario.seed)
        .with_event(BLOCKER_JOB, 0, FaultKind::Transient);
    for e in &scenario.events {
        schedule = schedule.with_event(e.job + 1, e.attempt, e.kind);
    }

    // Fusion window 1 with sweeping off makes the schedule one step per
    // gate, so even the small scenario circuits span several segments —
    // mid-run deaths and checkpoint generations are actually exercised —
    // inside a flush too, when the scenario opts into batching: a member
    // takes the attempt loop a lone job takes. The coalescer window runs
    // on the same virtual clock, so flush instants are as deterministic
    // as everything else.
    let batch = match scenario.batch {
        Some(p) => BatchConfig {
            max_size: p.max_size,
            window: Duration::from_micros(p.window_us),
        },
        None => BatchConfig::disabled(),
    };
    // A sharded scenario shrinks the per-worker device so 4-qubit jobs
    // overflow it and route to a shard group; everything else is
    // unchanged (the pin/release protocol still runs on one worker —
    // the shard group is logical slices of that worker's dispatch, so
    // determinism is preserved).
    let backend = match scenario.shard {
        Some(p) => {
            let mut dev = GpuDevice::a100_40gb();
            dev.memory_bytes = p.worker_bytes;
            BackendKind::Gpu(dev)
        }
        None => BackendKind::default(),
    };
    let service = Service::start(ServeConfig {
        workers: 1,
        queue_capacity: 1024,
        backend,
        shard: scenario.shard.map(|p| ShardConfig { max_shards: p.max_shards }),
        fusion_width: HARNESS_FUSION_WIDTH,
        sweep_width: HARNESS_SWEEP_WIDTH,
        checkpoint_interval: 1,
        checkpoint_generations: 3,
        batch,
        schedule,
        retry_backoff: pin,
        backoff_slice: pin,
        clock: clock.clone(),
        ..Default::default()
    });

    let mut trace = Trace::default();
    let mut violations = Vec::new();
    let mut accepted = Vec::new();

    // --- Pin phase -------------------------------------------------
    let blocker = JobSpec::new(crate::scenario::JobDef::bell().circuit())
        .shots(8)
        .tenant("pin");
    match service.submit(blocker) {
        Admission::Accepted(id) if id.0 == BLOCKER_JOB => {
            accepted.push(id.0);
            trace.push(TraceEvent::Submit {
                at_ns: 0,
                job: id.0,
                tenant: "pin",
                priority: 1,
            });
        }
        other => violations.push(format!("pin: blocker not accepted: {other:?}")),
    }
    if !clock.wait_for_sleepers(1, Duration::from_secs(10)) {
        violations.push("pin: worker never parked in the blocker backoff".to_owned());
    }

    // --- Op phase --------------------------------------------------
    let mut next_job = BLOCKER_JOB + 1;
    for op in &scenario.ops {
        match op {
            Op::Advance(d) => {
                let to = clock.advance(*d);
                trace.push(TraceEvent::Advance { to_ns: ns(to) });
            }
            Op::Submit(def) => {
                let at = clock.now_raw();
                match service.submit(def.spec()) {
                    Admission::Accepted(id) => {
                        if id.0 != next_job {
                            violations.push(format!(
                                "admission id {} for scenario job {}",
                                id.0,
                                next_job - 1
                            ));
                        }
                        accepted.push(id.0);
                        trace.push(TraceEvent::Submit {
                            at_ns: ns(at),
                            job: id.0,
                            tenant: TENANTS[def.tenant as usize % TENANTS.len()],
                            priority: def.priority as usize % 3,
                        });
                    }
                    other => violations.push(format!("submit rejected: {other:?}")),
                }
                next_job += 1;
            }
            Op::Cancel { job } => {
                let id = job + 1;
                let at = clock.now_raw();
                let while_queued = service.cancel(JobId(id));
                trace.push(TraceEvent::Cancel { at_ns: ns(at), job: id, while_queued });
            }
        }
    }

    // --- Release phase ---------------------------------------------
    let started = Instant::now();
    let mut timed_out = false;
    while !service.is_idle() {
        if started.elapsed() > QUIESCE_TIMEOUT {
            timed_out = true;
            violations.push(format!(
                "termination: service did not quiesce within {QUIESCE_TIMEOUT:?} real time"
            ));
            break;
        }
        if clock.advance_to_next_sleeper().is_none() {
            // Worker is computing (virtual time frozen): wait in real
            // time for it to finish or register the next sleeper.
            std::thread::sleep(Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }

    let mut outcomes = BTreeMap::new();
    let mut outcome_times = BTreeMap::new();
    let mut events = Vec::new();
    let mut clean_hashes = BTreeMap::new();
    if timed_out {
        // The worker may be parked on virtual time forever; joining it
        // would hang. Leak the service — the violation fails the test.
        std::mem::forget(service);
    } else {
        service.shutdown();
        for id in 0..next_job {
            let Some(outcome) = service.try_outcome(JobId(id)) else {
                continue; // conservation oracle reports the gap
            };
            let summary = summarize(&outcome);
            let at = service.outcome_time(JobId(id)).unwrap_or(Duration::ZERO);
            trace.push(TraceEvent::Outcome { at_ns: ns(at), job: id, outcome: summary });
            outcomes.insert(id, summary);
            outcome_times.insert(id, at);
        }
        events = service.events();

        // Fault-free mirror of every scenario job, memoized per def
        // (duplicated defs are common by construction).
        let mut memo: HashMap<JobDef, u64> = HashMap::new();
        let mut id = BLOCKER_JOB + 1;
        for op in &scenario.ops {
            if let Op::Submit(def) = op {
                let hash = *memo.entry(*def).or_insert_with(|| clean_counts_hash(def));
                clean_hashes.insert(id, hash);
                id += 1;
            }
        }
    }

    let mut dispatch_counts = BTreeMap::new();
    for event in &events {
        if let EventKind::Dispatch(record) = &event.kind {
            *dispatch_counts.entry(record.id.0).or_insert(0usize) += 1;
        }
    }

    violations.extend(oracle::check(&OracleInput {
        scenario,
        accepted: &accepted,
        outcomes: &outcomes,
        outcome_times: &outcome_times,
        dispatch_counts: &dispatch_counts,
        trace: &trace,
        events: &events,
        clean_hashes: &clean_hashes,
        cancel_latency_bound: pin,
    }));

    SimReport {
        scenario: scenario.clone(),
        trace,
        outcomes,
        outcome_times,
        dispatch_counts,
        accepted,
        events,
        timed_out,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::JobDef;

    #[test]
    fn a_plain_submit_completes_with_no_violations() {
        let scenario = Scenario::empty(0)
            .op(Op::Submit(JobDef::bell()))
            .op(Op::Advance(Duration::from_micros(50)));
        let report = run_scenario(&scenario);
        assert!(report.is_ok(), "violations: {:?}", report.violations);
        assert!(matches!(
            report.outcomes.get(&1),
            Some(OutcomeSummary::Completed { .. })
        ));
    }

    #[test]
    fn same_scenario_twice_yields_byte_identical_traces() {
        let scenario = Scenario::generate(0xA11CE);
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        assert!(a.is_ok(), "violations: {:?}", a.violations);
        assert_eq!(a.trace.render(), b.trace.render());
        assert_eq!(a.trace_hash(), b.trace_hash());
    }

    #[test]
    fn batched_scenario_coalesces_and_holds_every_oracle() {
        // Four same-shape submits land while the worker is pinned, so
        // once released the leader finds three compatible companions
        // immediately: one multi-member flush, oracles still clean.
        let mut scenario = Scenario::empty(1).batched(4, 500);
        for _ in 0..4 {
            scenario = scenario.op(Op::Submit(JobDef::bell()));
        }
        scenario = scenario.op(Op::Advance(Duration::from_micros(50)));
        let report = run_scenario(&scenario);
        assert!(report.is_ok(), "violations: {:?}", report.violations);
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::Batch(r) if r.members.len() >= 2)),
            "expected a coalesced flush, got {:?}",
            report.events
        );
        for id in 1..=4 {
            assert!(matches!(
                report.outcomes.get(&id),
                Some(OutcomeSummary::Completed { .. })
            ));
        }
    }
}
