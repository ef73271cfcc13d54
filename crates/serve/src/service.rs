//! The service runtime: a fixed set of workers, dispatch loop, retries,
//! telemetry.
//!
//! `Service::start` spawns `workers` OS threads that run a [`GpuDevice`]
//! each until `shutdown` — the executable analogue of the paper's
//! one-circuit-per-GPU mQPU farm, which never grows or shrinks its set.
//! Workers block on a condvar until the admission queue offers work,
//! then run jobs to a terminal [`JobOutcome`] published under the state
//! lock. Shutdown is graceful: workers drain the queue before exiting,
//! so every admitted job reaches an outcome.
//!
//! A worker pops one job per dispatch, and every dispatch takes one road
//! (docs/SERVING.md, "Dispatch lifecycle"): `precheck` → attempt loop →
//! the stepper driver (`stepper.rs`, ending in `sample_and_package`) →
//! `publish_outcome`, or `requeue_after_death`.

use crate::cache::{CachedMarginal, CachedResult, MarginalCache, ResultCache};
use crate::checkpoint_store::CheckpointStore;
use crate::event::{EventKind, ServiceEvent};
use crate::fault::{FaultKind, FaultSchedule};
use crate::hashkey::CircuitKey;
use crate::job::{Admission, BackendVerdict, Engine, JobId, JobOutcome, JobResult, JobSpec, ServeError};
use crate::retained::Retained;
use crate::scheduler::{AdmissionQueue, DispatchRecord, QueuedJob};
use crate::shard::{ShardConfig, ShardSource};
use crate::stepper::{drive, Attempt, DenseSource};
use qgear_ir::fusion::DEFAULT_FUSION_WIDTH;
use qgear_ir::schedule::DEFAULT_SWEEP_WIDTH;
use qgear_ir::transpile::decompose_to_native;
use qgear_num::scalar::Precision;
use qgear_num::Scalar;
use qgear_perfmodel::memory::{plan_shard_count, state_bytes};
use qgear_statevec::backend::sample_from_probs;
use qgear_statevec::sampling::SamplingConfig;
use qgear_statevec::{Counts, ExecStats, GpuDevice, PlannerCosts, RunOptions, SimError, Stepper};
use qgear_telemetry::clock::{Clock, SharedClock, WallClock};
use qgear_telemetry::names::{self, spans};
use qgear_telemetry::{counter_add, counter_inc, histogram_record, span};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Evaluate `$body` with `$t` bound to the scalar type of a job's
/// requested precision — the one place execution goes generic.
macro_rules! with_precision {
    ($precision:expr, $t:ident => $body:expr) => {
        match $precision {
            Precision::Fp32 => {
                type $t = f32;
                $body
            }
            Precision::Fp64 => {
                type $t = f64;
                $body
            }
        }
    };
}

/// The device every worker runs. It has one variant: the repo benchmark
/// (`benchmark/src/drive.rs`) builds `BackendKind::Gpu(..)`, so the enum
/// stays until that harness can hand `ServeConfig::backend` a plain
/// [`GpuDevice`].
#[derive(Debug, Clone)]
pub enum BackendKind {
    /// The fused simulated-GPU engine; each worker clones the device.
    Gpu(GpuDevice),
}

impl BackendKind {
    /// Device memory the admission feasibility check compares against.
    pub fn memory_bytes(&self) -> u128 {
        let BackendKind::Gpu(dev) = self;
        dev.memory_bytes
    }
}

impl Default for BackendKind {
    fn default() -> Self {
        BackendKind::Gpu(GpuDevice::a100_40gb())
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (simulated QPUs).
    pub workers: usize,
    /// Admission-queue bound; submissions beyond it get
    /// [`Admission::QueueFull`].
    pub queue_capacity: usize,
    /// Engine every worker runs.
    pub backend: BackendKind,
    /// Fusion window passed to kernel-based engines (part of the cache
    /// key: different windows launch different kernels).
    pub fusion_width: usize,
    /// Sweep window passed to the cache-blocked sweep scheduler (0
    /// disables sweeping). Shapes the one plan dense and sharded jobs
    /// both walk, so it is covered by the checkpoint plan fingerprint.
    pub sweep_width: usize,
    /// Schedule steps — plan segments, on either engine — per execution
    /// segment when checkpointed execution is enabled. `0` (the default) disables checkpointing for dense
    /// jobs: each attempt then runs its whole schedule as one segment
    /// and nothing is written. Sharded jobs always checkpoint, every
    /// `checkpoint_interval.max(1)` steps.
    pub checkpoint_interval: usize,
    /// Checkpoint generations retained per job (newest wins; older ones
    /// are the recovery ladder's fallbacks). Dense jobs ignore it while
    /// `checkpoint_interval == 0`; sharded jobs always use it.
    pub checkpoint_generations: usize,
    /// Result-cache entries to retain (0 disables caching).
    pub cache_capacity: usize,
    /// State-marginal-cache entries to retain at most (0 disables it);
    /// the cache also keeps at most 32 MiB of marginals resident, evicts
    /// oldest-first under either bound and never holds a marginal larger
    /// than that budget (23 measured qubits and up). A hit lets a job
    /// that differs from an earlier one only in sampling knobs
    /// (shots/seed) skip simulation entirely and re-sample the
    /// cached exact marginal — bit-identical to a cold run.
    pub state_cache_capacity: usize,
    /// The fault script: scheduled worker deaths, cache and checkpoint
    /// corruption, panics and targeted transient strikes, plus an
    /// optional background rate of transient strikes
    /// ([`FaultSchedule::with_rate`]). Defaults to no faults; the
    /// deterministic simulation harness is its main user.
    pub schedule: FaultSchedule,
    /// Default retry budget per job (overridable per [`JobSpec`]).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub retry_backoff: Duration,
    /// Longest uninterruptible wait while backing off: the worker sleeps
    /// in slices of at most this, checking for a cancel request between
    /// slices, so a cancel issued mid-backoff is observed within one
    /// slice instead of after the whole backoff.
    pub backoff_slice: Duration,
    /// The clock every temporal decision reads. Production keeps the
    /// default [`WallClock`]; simulation substitutes a virtual clock.
    pub clock: SharedClock,
    /// Read by nothing: every dispatch is one job. Kept only because the
    /// repo benchmark (`benchmark/src/drive.rs`) still sets it; see
    /// [`BatchConfig`].
    pub batch: BatchConfig,
    /// Sharded execution for jobs beyond one worker's memory (defaults
    /// to `None` = such jobs stay [`Admission::RejectedInfeasible`]).
    /// Sharded jobs always execute in checkpointed segments — the
    /// checkpoint is the migration unit — using `checkpoint_interval`
    /// (floored at 1) and `checkpoint_generations`.
    pub shard: Option<ShardConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            backend: BackendKind::default(),
            fusion_width: DEFAULT_FUSION_WIDTH,
            sweep_width: DEFAULT_SWEEP_WIDTH,
            checkpoint_interval: 0,
            checkpoint_generations: 4,
            cache_capacity: 256,
            state_cache_capacity: 64,
            schedule: FaultSchedule::none(),
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
            backoff_slice: Duration::from_millis(1),
            clock: WallClock::shared(),
            batch: BatchConfig::default(),
            shard: None,
        }
    }
}

/// The settings of a batch coalescer this service no longer has. Nothing
/// reads them: the repo benchmark (`benchmark/src/drive.rs`) builds this
/// literal, so the struct and [`ServeConfig::batch`] stay until that
/// harness stops naming them.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchConfig {
    /// Formerly the largest batch a flush could hold.
    pub max_size: usize,
    /// Formerly how long a leader waited for look-alike jobs.
    pub window: Duration,
}

/// Mutable service state, guarded by one mutex.
pub(crate) struct State {
    queue: AdmissionQueue,
    cache: ResultCache,
    marginals: MarginalCache,
    /// Every terminal outcome, its histogram packed, with the clock
    /// reading at the instant it was published.
    outcomes: HashMap<u64, (Arc<Retained>, Duration)>,
    /// In-flight jobs whose cancellation has been requested; workers
    /// observe these between backoff slices and attempts.
    cancel_requests: HashSet<u64>,
    /// The audit stream, appended only through [`Shared::record`].
    events: Vec<ServiceEvent>,
    /// Per-job generational checkpoints for in-flight segmented jobs.
    pub(crate) checkpoints: CheckpointStore,
    next_id: u64,
    in_flight: usize,
    shutdown: bool,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    state: Mutex<State>,
    /// Signals workers that the queue gained work (or shutdown began).
    jobs_cv: Condvar,
    /// Signals waiters that some job reached a terminal outcome.
    done_cv: Condvar,
}

impl Shared {
    /// The one door to [`State`]; [`Shared::wait`] is the same door
    /// re-entered after a condvar wait.
    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        unpoisoned(self.state.lock())
    }

    /// Release `st`, block on `cv`, and re-acquire [`State`] under the
    /// same poison policy as [`Shared::lock`].
    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        unpoisoned(cv.wait(st))
    }

    /// The one way an event enters the stream: stamped under the state
    /// lock the caller holds for the decision itself, so log order, stamp
    /// order and decision order are one order.
    pub(crate) fn record(&self, st: &mut State, kind: EventKind) {
        st.events.push(ServiceEvent { at: self.cfg.clock.now(), kind });
    }
}

/// The state lock's poison policy, for both of its doors: a poisoned lock
/// means a thread panicked mid-update, so the state can no longer be
/// trusted.
fn unpoisoned<G>(acquired: LockResult<G>) -> G {
    acquired.expect("serve state poisoned")
}

/// A running multi-tenant simulation service.
pub struct Service {
    pub(crate) shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Start the workers and return the service handle.
    pub fn start(cfg: ServeConfig) -> Self {
        let worker_count = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: AdmissionQueue::new(cfg.queue_capacity),
                cache: ResultCache::new(cfg.cache_capacity),
                marginals: MarginalCache::new(cfg.state_cache_capacity),
                outcomes: HashMap::new(),
                cancel_requests: HashSet::new(),
                events: Vec::new(),
                checkpoints: CheckpointStore::new(cfg.checkpoint_generations, worker_count),
                next_id: 0,
                in_flight: 0,
                shutdown: false,
            }),
            cfg,
            jobs_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("qgear-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Service { shared, workers: Mutex::new(workers) }
    }

    /// Submit a job. Never blocks and never panics on overload: the
    /// verdict is explicit in the returned [`Admission`].
    pub fn submit(&self, spec: JobSpec) -> Admission {
        // Canonicalize outside the lock: transpile non-native gates so
        // the cache key is representation-independent and workers can
        // hand the circuit straight to the engine.
        let canonical = if spec.circuit.is_native() {
            spec.circuit.clone()
        } else {
            decompose_to_native(&spec.circuit).0
        };

        // Feasibility gate: a width test that bounces jobs no engine can
        // hold *before* they occupy queue space (Fig. 4a's memory wall
        // turned into admission control). A rejection carries every
        // verdict so the client sees why each candidate was ruled out.
        let device_bytes = self.shared.cfg.backend.memory_bytes();
        let engine = match select_engine(&self.shared.cfg, &spec, canonical.num_qubits()) {
            Ok(engine) => engine,
            Err(considered) => {
                counter_inc(names::SERVE_REJECTED_INFEASIBLE);
                let required_bytes =
                    considered.iter().map(|v| v.required_bytes).min().unwrap_or(u128::MAX);
                return Admission::RejectedInfeasible { required_bytes, device_bytes, considered };
            }
        };

        // The one walk of the gate stream is taken before the lock, which
        // workers block on; the result key is derived from the state key.
        // The keys need no plan words: a job's priced plan, the kernel
        // widths it narrows to included, is a pure function of the
        // canonical circuit, the precision and the fusion width under the
        // planner's compile-time cost constants, and a shard group walks
        // the same plan as a dense worker.
        let state_key = CircuitKey::state_key(&canonical, &spec, self.shared.cfg.fusion_width);
        let key = state_key.sampled(&spec, engine);
        let submitted_at = self.shared.cfg.clock.now();
        let mut st = self.shared.lock();
        if st.shutdown {
            return Admission::ShuttingDown;
        }
        if st.queue.is_full() {
            counter_inc(names::SERVE_REJECTED_QUEUE_FULL);
            return Admission::QueueFull {
                depth: st.queue.len(),
                capacity: st.queue.capacity(),
            };
        }
        let id = JobId(st.next_id);
        st.next_id += 1;
        let job = QueuedJob {
            id,
            spec,
            canonical,
            key,
            state_key,
            submitted_at,
            seq: 0,
            attempts_made: 0,
            engine,
        };
        st.queue.push(job).expect("queue not full under lock");
        counter_inc(names::SERVE_JOBS_SUBMITTED);
        if qgear_telemetry::is_enabled() {
            counter_inc(&names::admission_backend_chosen(engine.name()));
        }
        histogram_record(names::SERVE_QUEUE_DEPTH, st.queue.len() as f64);
        drop(st);
        self.shared.jobs_cv.notify_one();
        Admission::Accepted(id)
    }

    /// Cancel a job. Returns `true` only when the job was still queued
    /// and was removed before dispatch. For a job already in a worker's
    /// hands the request is *recorded* (and `false` returned): the
    /// worker observes it at the next backoff slice or attempt boundary
    /// and finishes the job as [`JobOutcome::Cancelled`]; an attempt
    /// already executing on the device is never interrupted.
    pub fn cancel(&self, id: JobId) -> bool {
        let now = self.shared.cfg.clock.now();
        let mut st = self.shared.lock();
        if st.queue.cancel(id).is_some() {
            counter_inc(names::SERVE_JOBS_CANCELLED);
            st.outcomes.insert(id.0, (Retained::new(JobOutcome::Cancelled), now));
            drop(st);
            self.shared.done_cv.notify_all();
            true
        } else {
            if id.0 < st.next_id && !st.outcomes.contains_key(&id.0) {
                // Admitted, not queued, not terminal: in flight.
                st.cancel_requests.insert(id.0);
            }
            false
        }
    }

    /// Block until `id` reaches a terminal outcome. `None` when the id
    /// was never admitted by this service.
    pub fn wait(&self, id: JobId) -> Option<JobOutcome> {
        let mut st = self.shared.lock();
        let retained = loop {
            if let Some((retained, _)) = st.outcomes.get(&id.0) {
                break Arc::clone(retained);
            }
            if id.0 >= st.next_id {
                return None;
            }
            st = self.shared.wait(&self.shared.done_cv, st);
        };
        drop(st);
        Some(retained.outcome())
    }

    /// The outcome if `id` already finished, without blocking.
    pub fn try_outcome(&self, id: JobId) -> Option<JobOutcome> {
        let retained = self.shared.lock().outcomes.get(&id.0).map(|(retained, _)| Arc::clone(retained));
        retained.map(|r| r.outcome())
    }

    /// The service-clock reading at which `id`'s terminal outcome was
    /// published. Under a virtual clock this is exact and reproducible —
    /// the simulation oracles assert latency bounds against it.
    pub fn outcome_time(&self, id: JobId) -> Option<Duration> {
        self.shared.lock().outcomes.get(&id.0).map(|&(_, at)| at)
    }

    /// True when the queue is empty and no job is in a worker's hands.
    /// Non-blocking counterpart of [`Service::drain`], for executors
    /// that must keep advancing a virtual clock while waiting.
    pub fn is_idle(&self) -> bool {
        let st = self.shared.lock();
        st.queue.is_empty() && st.in_flight == 0
    }

    /// Block until the queue is empty and no job is in flight.
    pub fn drain(&self) {
        let mut st = self.shared.lock();
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self.shared.wait(&self.shared.done_cv, st);
        }
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// The audit stream so far (see [`crate::event`]), in the order the
    /// state lock serialized it. Under a virtual clock the whole stream
    /// is exactly reproducible; the simtest oracles replay it.
    pub fn events(&self) -> Vec<ServiceEvent> {
        self.shared.lock().events.clone()
    }

    /// The events that [concern](ServiceEvent::concerns) `id`, in stream
    /// order — one job's life across every kind.
    pub fn events_for(&self, id: JobId) -> Vec<ServiceEvent> {
        self.shared.lock().events.iter().filter(|e| e.concerns(id)).cloned().collect()
    }

    /// Stop admitting, drain the queue, and join the workers. Idempotent;
    /// also invoked by `Drop`.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
        }
        self.shared.jobs_cv.notify_all();
        let handles: Vec<JoinHandle<()>> =
            self.workers.lock().expect("worker list poisoned").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}


/// How one dispatch of a job ended: with a terminal outcome, or with the
/// worker "dying" mid-job (injected fault) and the job owed a requeue.
enum ServeStep {
    Outcome(Arc<Retained>),
    WorkerDied {
        /// Attempts consumed up to and including the dying one; carried
        /// into the requeued job so the retry budget spans dispatches.
        attempts_consumed: u32,
    },
}

/// What the dispatch prologue decided for one job.
enum Precheck {
    /// Resolved without executing (cancelled, expired, answered from a
    /// cache); the outcome is still to be published.
    Resolved(Arc<Retained>),
    /// Must execute: enters the attempt loop.
    Execute { queue_wait: Duration },
}

/// Faults a scheduled event injects *into* a stepper run; every other
/// fault kind is settled by the attempt loop at the attempt boundary.
#[derive(Default)]
pub(crate) struct Injected {
    /// Die once this many segments have completed.
    pub(crate) die_after: Option<u32>,
    /// Shard rank the death takes down (sharded runs only).
    pub(crate) lost_shard: u32,
    /// `(exchange, corrupt)`: fail that pairwise exchange, once.
    pub(crate) link_fault: Option<(u32, bool)>,
    /// Panic inside the engine call.
    pub(crate) panic: bool,
}

/// Book one job handed to a worker — its dispatch event and in-flight
/// slot — under the same lock that popped it.
fn record_dispatch(shared: &Shared, st: &mut State, job: &QueuedJob) {
    let dispatch = DispatchRecord {
        id: job.id,
        tenant: job.spec.tenant.clone(),
        priority: job.spec.priority,
        seq: job.seq,
    };
    shared.record(st, EventKind::Dispatch(dispatch));
    st.in_flight += 1;
    histogram_record(names::SERVE_QUEUE_DEPTH, st.queue.len() as f64);
}

/// One worker: pop a job → [`dispatch`]. Returns only once shutdown is
/// flagged *and* the queue has drained, so accepted jobs are never
/// abandoned. An injected worker death requeues the job at the front of
/// its tenant queue and the thread continues as its own (logically fresh)
/// replacement.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if let Some(job) = st.queue.pop_next() {
                    record_dispatch(shared, &mut st, &job);
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.wait(&shared.jobs_cv, st);
            }
        };
        dispatch(shared, job);
    }
}

/// Serve one dispatched job down the one road: [`precheck`] → (if it
/// must execute) [`attempt_loop`] → [`publish_outcome`], or
/// [`requeue_after_death`] when the worker died mid-job.
fn dispatch(shared: &Shared, job: QueuedJob) {
    let outcome = match precheck(shared, &job) {
        Precheck::Resolved(outcome) => outcome,
        Precheck::Execute { queue_wait } => match attempt_loop(shared, &job, queue_wait) {
            ServeStep::Outcome(outcome) => outcome,
            ServeStep::WorkerDied { attempts_consumed } => {
                requeue_after_death(shared, QueuedJob { attempts_made: attempts_consumed, ..job });
                return;
            }
        },
    };
    publish_outcome(shared, job.id, outcome);
}

/// Publish a terminal outcome for one dispatched job, packed before the
/// state lock is taken.
fn publish_outcome(shared: &Shared, id: JobId, retained: Arc<Retained>) {
    let now = shared.cfg.clock.now();
    let mut st = shared.lock();
    st.outcomes.insert(id.0, (retained, now));
    st.cancel_requests.remove(&id.0);
    // Terminal: retained checkpoint generations are dead weight now,
    // whatever the outcome was; they become spares or are dropped below.
    let released = st.checkpoints.clear(id.0);
    st.in_flight -= 1;
    drop(st);
    shared.done_cv.notify_all();
    drop(released);
}

/// One worker death: the stranded job goes back to the front of its
/// tenant queue with the attempt ledger the caller already advanced past
/// the dying dispatch.
fn requeue_after_death(shared: &Shared, job: QueuedJob) {
    counter_inc(names::SERVE_WORKER_DEATHS);
    counter_inc(names::SERVE_REQUEUES);
    let mut st = shared.lock();
    st.queue.requeue_front(job);
    st.in_flight -= 1;
    drop(st);
    shared.jobs_cv.notify_all();
}

/// True when a cancel request for `id` has been recorded.
fn cancel_requested(shared: &Shared, id: JobId) -> bool {
    shared.lock().cancel_requests.contains(&id.0)
}

/// Wait out `backoff` on the service clock in slices of at most
/// `backoff_slice`, checking for a cancel request between slices.
/// Returns `false` when the wait was abandoned because of a cancel.
fn backoff_with_cancel(shared: &Shared, id: JobId, backoff: Duration) -> bool {
    let clock = shared.cfg.clock.as_ref();
    let slice = shared.cfg.backoff_slice.max(Duration::from_nanos(1));
    let deadline = clock.now().saturating_add(backoff);
    loop {
        if cancel_requested(shared, id) {
            return false;
        }
        let now = clock.now();
        if now >= deadline {
            return true;
        }
        clock.sleep_until(now.saturating_add(slice).min(deadline));
    }
}

/// The dispatch prologue, run exactly once per dispatch: cancel →
/// deadline → result cache → marginal cache. A job that resolves here
/// opens its own `serve_job` span (the executing paths open theirs), so
/// span accounting stays one span per dispatch.
fn precheck(shared: &Shared, job: &QueuedJob) -> Precheck {
    let clock = shared.cfg.clock.as_ref();
    let queue_wait = clock.now().saturating_sub(job.submitted_at);
    histogram_record(names::SERVE_QUEUE_WAIT_MS, queue_wait.as_secs_f64() * 1e3);

    // A cancel that raced the dispatch: honour it before doing work.
    if cancel_requested(shared, job.id) {
        let _job_span = span!(spans::SERVE_JOB);
        counter_inc(names::SERVE_JOBS_CANCELLED);
        return Precheck::Resolved(Retained::new(JobOutcome::Cancelled));
    }

    // Deadline: jobs that waited too long are dropped, not run late. A
    // wait of *exactly* the deadline still runs — the boundary belongs
    // to the job (pinned by the simtest deadline-at-boundary scenario).
    if job.spec.deadline.is_some_and(|deadline| queue_wait > deadline) {
        let _job_span = span!(spans::SERVE_JOB);
        counter_inc(names::SERVE_JOBS_EXPIRED);
        return Precheck::Resolved(Retained::new(JobOutcome::Expired));
    }

    // Cache probe (hit/miss counters live in the cache). A scheduled
    // corruption fault is detected here: the poisoned entry is
    // invalidated and the job falls through to a cold re-execution,
    // which — execution being deterministic — reproduces the original
    // bytes and repopulates the cache.
    let cached = {
        let mut st = shared.lock();
        if shared.cfg.schedule.corrupts_cache(job.id.0) && st.cache.invalidate(job.key) {
            counter_inc(names::SERVE_CACHE_CORRUPTIONS);
            None
        } else {
            st.cache.get(job.key)
        }
    };
    if let Some(hit) = cached {
        let _job_span = span!(spans::SERVE_JOB);
        let result = JobResult {
            counts: hit.counts,
            stats: hit.stats,
            from_cache: true,
            from_state_cache: false,
            attempts: 0,
            queue_wait,
            service_time: Duration::ZERO,
        };
        return Precheck::Resolved(Retained::new(complete(shared, job, result)));
    }

    // State-marginal probe: the same circuit evolved before under
    // different sampling knobs. Re-sample the cached exact marginal —
    // no device time, and bit-identical to what a cold run would draw
    // (both paths share `marginal_of_runs`/`sample_from_probs`). The
    // state key need not digest the engine: inside one service,
    // admission's engine is a function of width, precision and fusion
    // width, all of which the key digests, so two engines never share
    // an entry.
    let marginal = shared.lock().marginals.get(job.state_key);
    if let Some(hit) = marginal {
        let _job_span = span!(spans::SERVE_JOB);
        let sample_span = span!(spans::SAMPLE);
        let sampling = SamplingConfig::single(job.spec.shots, job.spec.seed);
        let counts = sample_from_probs(&hit.probs, &hit.measured, &sampling);
        drop(sample_span);
        let mut stats = hit.stats.clone();
        stats.elapsed = Duration::ZERO; // no simulation happened for *this* job
        let result = JobResult {
            counts: None,
            stats: stats.clone(),
            from_cache: false,
            from_state_cache: true,
            attempts: 0,
            queue_wait,
            service_time: Duration::ZERO,
        };
        let retained = Retained::with_counts(complete(shared, job, result), counts.as_ref());
        shared.lock().cache.insert(job.key, CachedResult { counts, stats });
        return Precheck::Resolved(retained);
    }

    Precheck::Execute { queue_wait }
}

/// Stamp the service time on a finished job's result, record the
/// completion telemetry, and package the terminal outcome.
fn complete(shared: &Shared, job: &QueuedJob, mut result: JobResult) -> JobOutcome {
    result.service_time = shared.cfg.clock.now().saturating_sub(job.submitted_at);
    counter_inc(names::SERVE_JOBS_COMPLETED);
    if qgear_telemetry::is_enabled() {
        // Per-tenant names are built here, so only when someone reads them.
        counter_inc(&names::serve_tenant_jobs(&job.spec.tenant));
        counter_add(&names::serve_tenant_shots(&job.spec.tenant), u128::from(job.spec.shots));
    }
    histogram_record(names::SERVE_LATENCY_MS, result.service_time.as_secs_f64() * 1e3);
    JobOutcome::Completed(Box::new(result))
}

/// The epilogue of a fresh execution: [`complete`], then feed both
/// caches — the result cache the histogram itself, the retained outcome
/// its packed copy.
fn complete_fresh(
    shared: &Shared,
    job: &QueuedJob,
    queue_wait: Duration,
    attempts: u32,
    (counts, stats, fresh_marginal): Executed,
) -> Arc<Retained> {
    let result = JobResult {
        counts: None,
        stats: stats.clone(),
        from_cache: false,
        from_state_cache: false,
        attempts,
        queue_wait,
        service_time: Duration::ZERO,
    };
    let retained = Retained::with_counts(complete(shared, job, result), counts.as_ref());
    let mut st = shared.lock();
    st.cache.insert(job.key, CachedResult { counts, stats });
    if let Some(m) = fresh_marginal {
        st.marginals.insert(job.state_key, m);
    }
    retained
}

/// The cold path of one dispatch, entered after [`precheck`]: execute
/// with retry-with-backoff against injected faults, to a terminal outcome
/// or a worker death. A panic in the engine call is contained here and
/// fails the job.
fn attempt_loop(shared: &Shared, job: &QueuedJob, queue_wait: Duration) -> ServeStep {
    let _job_span = span!(spans::SERVE_JOB);
    // `attempt` is the 0-based *global* attempt index, seeded from the
    // ledger of attempts consumed before a worker death requeued the job,
    // so the retry budget and the fault coordinates span dispatches.
    let max_attempts = job.spec.max_retries.unwrap_or(shared.cfg.max_retries) + 1;
    let mut attempt = job.attempts_made;
    // The dying attempt is consumed: the replacement worker resumes at
    // the next global attempt index, so the immutable schedule cannot
    // refire the event — but a death never trips `RetriesExhausted`.
    let died = |attempt: u32| ServeStep::WorkerDied { attempts_consumed: attempt + 1 };
    let executed: Result<Executed, ServeError> = loop {
        // Attempt boundary: a cancel recorded while a previous attempt
        // was running (or racing the dispatch) takes effect here.
        if cancel_requested(shared, job.id) {
            counter_inc(names::SERVE_JOBS_CANCELLED);
            return ServeStep::Outcome(Retained::new(JobOutcome::Cancelled));
        }
        let _attempt_span = span!(spans::SERVE_ATTEMPT);
        let sharded = job.engine == Engine::Sharded;
        let injected = match shared.cfg.schedule.at(job.id.0, attempt) {
            // The plain death, and every death whose own machinery this
            // dispatch lacks, degrading as documented on the variants: a
            // shard death with no group to tear down; a mid-run death
            // where there are no segment boundaries to die at.
            Some(FaultKind::WorkerDeath) => return died(attempt),
            Some(FaultKind::ShardWorkerDeath { .. }) if !sharded => return died(attempt),
            Some(FaultKind::WorkerDeathMidRun { .. })
                if !(shared.cfg.checkpoint_interval > 0 && job.engine == Engine::Dense) =>
            {
                return died(attempt);
            }
            // The run executes `after_segments` segments (writing
            // checkpoint generations at interior boundaries), then the
            // worker — for a shard group, one shard's worker, which
            // tears the whole group down — dies and the job requeues.
            // The requeued job's next dispatch is the replacement: its
            // recovery ladder restores the newest verified generation,
            // which for a shard group *is* the migration.
            Some(FaultKind::WorkerDeathMidRun { after_segments }) => {
                Injected { die_after: Some(after_segments), ..Injected::default() }
            }
            Some(FaultKind::ShardWorkerDeath { shard, after_segments }) => Injected {
                die_after: Some(after_segments),
                lost_shard: shard,
                ..Injected::default()
            },
            // A link fault costs a retry (the partial segment's work is
            // discarded), but recovery happens *inside* the same
            // dispatch: the run restores the newest verified generation
            // in place and continues on the same worker. With no fabric
            // to fault it is a plain transient strike.
            Some(FaultKind::LinkFault { exchange, corrupt }) if sharded => {
                attempt += 1;
                if attempt >= max_attempts {
                    break Err(ServeError::RetriesExhausted { attempts: attempt });
                }
                counter_inc(names::SERVE_RETRIES);
                Injected { link_fault: Some((exchange, corrupt)), ..Injected::default() }
            }
            Some(FaultKind::Transient | FaultKind::LinkFault { .. }) => {
                attempt += 1;
                if attempt >= max_attempts {
                    break Err(ServeError::RetriesExhausted { attempts: attempt });
                }
                counter_inc(names::SERVE_RETRIES);
                // Exponential backoff: 1×, 2×, 4×, … the configured base,
                // capped at 1024× so long retry budgets stay bounded.
                let backoff = shared.cfg.retry_backoff * (1u32 << (attempt - 1).min(10));
                drop(_attempt_span);
                if !backoff_with_cancel(shared, job.id, backoff) {
                    counter_inc(names::SERVE_JOBS_CANCELLED);
                    counter_inc(names::SERVE_CANCELLED_IN_BACKOFF);
                    return ServeStep::Outcome(Retained::new(JobOutcome::Cancelled));
                }
                continue;
            }
            Some(FaultKind::Panic) => Injected { panic: true, ..Injected::default() },
            Some(FaultKind::CorruptCache | FaultKind::CorruptCheckpoint { .. }) | None => {
                Injected::default()
            }
        };
        // Only the engine call is guarded: a panic there (a kernel bug,
        // re-raised on this thread by the kernel pool) fails this job and
        // leaves the worker, its in-flight slot and the queue intact.
        let run = panic::catch_unwind(AssertUnwindSafe(|| run_attempt(shared, job, &injected)));
        break match run {
            Ok(Ok(Attempt::Finished(done))) => Ok(*done),
            Ok(Ok(Attempt::Died)) => return died(attempt),
            Ok(Err(err)) => Err(ServeError::Sim(err)),
            Err(payload) => Err(ServeError::Panicked(panic_message(payload))),
        };
    };

    match executed {
        Ok(done) => {
            ServeStep::Outcome(complete_fresh(shared, job, queue_wait, attempt + 1, done))
        }
        Err(err) => {
            counter_inc(names::SERVE_JOBS_FAILED);
            ServeStep::Outcome(Retained::new(JobOutcome::Failed(err)))
        }
    }
}

/// The message a panic carried, for [`ServeError::Panicked`].
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => {
            payload.downcast_ref::<&str>().map_or("non-string panic payload", |m| m).to_owned()
        }
    }
}

/// The execution options every attempt of a job runs with — one
/// construction point, because the checkpoint plan fingerprint covers
/// these knobs: a dispatch that rebuilt them differently could not
/// resume its predecessor's generations. A job runs the priced plan,
/// dense or sharded, which narrows the compute-bound kernels of a large
/// register and is the `Sweep` pin's plan below the crossover
/// (`qgear_statevec::planner`).
fn run_options(cfg: &ServeConfig, job: &QueuedJob) -> RunOptions {
    RunOptions {
        shots: job.spec.shots,
        seed: job.spec.seed,
        fusion_width: cfg.fusion_width,
        sweep_width: cfg.sweep_width,
        keep_state: false,
        memory_limit: Some(cfg.backend.memory_bytes()),
        planner_costs: PlannerCosts::host_reference(),
        ..RunOptions::default()
    }
}

fn verdict(
    engine: Engine,
    required_bytes: u128,
    capacity_bytes: u128,
    reason: impl Into<String>,
) -> BackendVerdict {
    BackendVerdict { engine, required_bytes, capacity_bytes, reason: reason.into() }
}

/// Admission's width test over an `n`-qubit job: [`Engine::Dense`] when
/// its state fits one worker, [`Engine::Sharded`] when a shard group can
/// hold it. `Err` carries the verdict for every engine considered — the
/// payload of [`Admission::RejectedInfeasible`].
fn select_engine(cfg: &ServeConfig, spec: &JobSpec, n: u32) -> Result<Engine, Vec<BackendVerdict>> {
    let device_bytes = cfg.backend.memory_bytes();
    // Dense pricing: 100+ qubit registers are unconditionally beyond any
    // modelled device (2^100 amplitudes), and `state_bytes` would
    // overflow its shift there, so they price as infinite.
    let dense_required = if n >= 100 { u128::MAX } else { state_bytes(n, spec.precision) };
    if dense_required <= device_bytes {
        return Ok(Engine::Dense);
    }
    let mut considered = vec![verdict(
        Engine::Dense,
        dense_required,
        device_bytes,
        "state vector exceeds device memory",
    )];

    // Beyond the single-worker memory wall: plan a shard group. Every
    // doubling of the group buys one qubit (each worker then holds half
    // the slice), so the smallest sufficient power-of-two group wins.
    if let Some(shard) = cfg.shard {
        match plan_shard_count(
            n,
            spec.precision,
            device_bytes,
            shard_min_local_width(cfg),
            shard.max_shards,
        ) {
            Some(shards) => {
                counter_inc(names::SERVE_SHARD_JOBS);
                histogram_record(names::SERVE_SHARD_WIDTH, f64::from(shards));
                return Ok(Engine::Sharded);
            }
            None => considered.push(verdict(
                Engine::Sharded,
                dense_required,
                device_bytes,
                format!("no admissible shard group within the {}-worker cap", shard.max_shards),
            )),
        }
    }
    Err(considered)
}

/// The narrowest local slice a shard may hold: every fused kernel must
/// be remappable onto local bit positions, so the slice keeps at least
/// `fusion_width` qubits (and at least 2 — the exchange planner swaps a
/// local qubit against a device bit). Admission and execution both plan
/// through this, so they always agree on the group width.
pub(crate) fn shard_min_local_width(cfg: &ServeConfig) -> u32 {
    cfg.fusion_width.max(2) as u32
}

/// What a finished execution hands the publisher: the counts, the
/// engine's stats, and the marginal artifact for the state cache (none
/// when the circuit measures nothing).
pub(crate) type Executed = (Option<Counts>, ExecStats, Option<CachedMarginal>);

/// One execution attempt of a job that missed both caches.
///
/// Both engines — the simulated-GPU dense engine and the shard group —
/// run through the one stepper driver ([`crate::stepper::drive`]):
/// recovery ladder, segment loop, checkpoint writes, die-after budget,
/// final sample. Straight-through execution is that driver with an
/// unbounded interval (one segment, nothing written).
/// Deterministic throughout: equal `(circuit, shots, seed, precision,
/// fusion_width)` produce bit-identical `Counts` on whichever rung the
/// ladder lands — the property the caches rely on.
fn run_attempt(shared: &Shared, job: &QueuedJob, injected: &Injected) -> Result<Attempt, SimError> {
    if injected.panic {
        panic!("injected panic in {}", job.id);
    }
    let cfg = &shared.cfg;
    let opts = run_options(cfg, job);
    match job.engine {
        Engine::Dense => {
            let BackendKind::Gpu(device) = &cfg.backend;
            let interval =
                if cfg.checkpoint_interval > 0 { cfg.checkpoint_interval } else { usize::MAX };
            let source = DenseSource { device, circuit: &job.canonical, opts };
            with_precision!(job.spec.precision, T => {
                drive::<T, _>(shared, job, &source, interval, injected.die_after)
            })
        }
        Engine::Sharded => {
            let source = ShardSource::plan(shared, job, opts, injected)?;
            // Sharded execution always checkpoints (interval floored at
            // 1): without generations there would be nothing to migrate.
            let interval = cfg.checkpoint_interval.max(1);
            with_precision!(job.spec.precision, T => {
                drive::<T, _>(shared, job, &source, interval, injected.die_after)
            })
        }
    }
}

/// The one tail of every state-vector execution — the stepper driver's
/// final sample, dense or sharded: exact marginal, read where the
/// amplitudes lie → seeded draw → cacheable artifact. Sharing it is what
/// keeps a segmented, resumed or sharded run byte-identical to a straight
/// one. Takes the finished run by value so the amplitudes are freed
/// before the shot draw.
pub(crate) fn sample_and_package<T: Scalar>(
    run: impl Stepper<T>,
    mut stats: ExecStats,
    job: &QueuedJob,
    clock: &dyn Clock,
) -> Executed {
    let measured = job.canonical.measured_qubits();
    if measured.is_empty() {
        return (None, stats, None);
    }
    let sample_start = clock.now();
    let sample_span = span!(spans::SAMPLE);
    let probs = Arc::new(run.marginal(&measured));
    drop(run); // free the amplitudes before sampling bookkeeping
    let sampling = SamplingConfig::single(job.spec.shots, job.spec.seed);
    let counts = sample_from_probs(&probs, &measured, &sampling);
    drop(sample_span);
    stats.sampling_elapsed += clock.now().saturating_sub(sample_start);
    let marginal = CachedMarginal { probs, measured: Arc::new(measured), stats: stats.clone() };
    (counts, stats, Some(marginal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint_store::CheckpointRecord;
    use crate::job::Priority;
    use qgear_ir::Circuit;

    /// Job 0's checkpoint records, in stream order.
    fn checkpoint_records(service: &Service) -> Vec<CheckpointRecord> {
        let pick = |e: ServiceEvent| match e.kind {
            EventKind::Checkpoint(record) => Some(record),
            _ => None,
        };
        service.events_for(JobId(0)).into_iter().filter_map(pick).collect()
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    fn small_service(workers: usize) -> Service {
        Service::start(ServeConfig { workers, ..Default::default() })
    }

    #[test]
    fn submits_and_completes_one_job() {
        let service = small_service(1);
        let id = service.submit(JobSpec::new(bell()).shots(500)).job_id().unwrap();
        let outcome = service.wait(id).unwrap();
        let result = outcome.result().expect("completed");
        assert!(!result.from_cache);
        assert_eq!(result.attempts, 1);
        let counts = result.counts.as_ref().unwrap();
        assert_eq!(counts.total(), 500);
        // A Bell pair only ever measures 00 or 11.
        assert_eq!(counts.get(0) + counts.get(3), 500);
        service.shutdown();
    }

    #[test]
    fn segmented_death_resumes_from_the_surviving_generation() {
        // 3 schedule steps (fusion 1, sweeps off): h, cx, cx. The worker
        // dies after segment 2 with generation 1 (the newest checkpoint,
        // cursor 2) corrupted at write, so the recovery ladder must skip
        // it and resume generation 0 at cursor 1.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let schedule = FaultSchedule::none()
            .with_event(0, 0, FaultKind::WorkerDeathMidRun { after_segments: 2 })
            .with_event(0, 0, FaultKind::CorruptCheckpoint { generation: 1 });
        let service = Service::start(ServeConfig {
            workers: 1,
            fusion_width: 1,
            sweep_width: 0,
            checkpoint_interval: 1,
            checkpoint_generations: 3,
            schedule,
            ..Default::default()
        });
        let id = service.submit(JobSpec::new(c.clone()).shots(300).seed(11)).job_id().unwrap();
        let outcome = service.wait(id).unwrap();
        let result = outcome.result().expect("completed after resume").clone();
        assert_eq!(result.attempts, 2, "the dying attempt was consumed");
        let log = checkpoint_records(&service);
        assert!(log.contains(&CheckpointRecord::Wrote { job: 0, generation: 0, cursor: 1 }));
        assert!(log.contains(&CheckpointRecord::Wrote { job: 0, generation: 1, cursor: 2 }));
        assert!(
            log.contains(&CheckpointRecord::VerifyFailed { job: 0, generation: 1 }),
            "the corrupted newest generation must be rejected: {log:?}"
        );
        assert!(
            log.contains(&CheckpointRecord::Resumed { job: 0, generation: 0, cursor: 1 }),
            "generation k-1 should be the resume point: {log:?}"
        );
        service.shutdown();

        // Byte-identical to a clean (fault-free, unsegmented) service run.
        let clean = Service::start(ServeConfig {
            workers: 1,
            fusion_width: 1,
            sweep_width: 0,
            ..Default::default()
        });
        let cid = clean.submit(JobSpec::new(c).shots(300).seed(11)).job_id().unwrap();
        let clean_outcome = clean.wait(cid).unwrap();
        assert_eq!(result.counts, clean_outcome.result().unwrap().counts);
        clean.shutdown();
    }

    #[test]
    fn a_published_job_leaves_nothing_in_the_checkpoint_store() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let service = Service::start(ServeConfig {
            workers: 1,
            fusion_width: 1,
            sweep_width: 0,
            checkpoint_interval: 1,
            checkpoint_generations: 3,
            ..Default::default()
        });
        let id = service.submit(JobSpec::new(c).shots(100)).job_id().unwrap();
        assert!(service.wait(id).unwrap().is_completed());
        let wrote = checkpoint_records(&service);
        assert!(
            wrote.iter().any(|r| matches!(r, CheckpointRecord::Wrote { .. })),
            "the job must have checkpointed: {wrote:?}"
        );
        {
            let st = service.shared.lock();
            assert_eq!(st.checkpoints.next_generation(id.0), 0);
            assert!(st.checkpoints.newest_first(id.0).is_empty());
        }
        service.shutdown();
    }

    #[test]
    fn all_generations_corrupt_forces_a_cold_restart() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let schedule = FaultSchedule::none()
            .with_event(0, 0, FaultKind::WorkerDeathMidRun { after_segments: 2 })
            .with_event(0, 0, FaultKind::CorruptCheckpoint { generation: 0 })
            .with_event(0, 0, FaultKind::CorruptCheckpoint { generation: 1 });
        let service = Service::start(ServeConfig {
            workers: 1,
            fusion_width: 1,
            sweep_width: 0,
            checkpoint_interval: 1,
            checkpoint_generations: 3,
            schedule,
            ..Default::default()
        });
        let id = service.submit(JobSpec::new(c).shots(100)).job_id().unwrap();
        let outcome = service.wait(id).unwrap();
        assert!(outcome.result().is_some(), "cold restart still completes");
        let log = checkpoint_records(&service);
        let fails = log
            .iter()
            .filter(|r| matches!(r, CheckpointRecord::VerifyFailed { .. }))
            .count();
        assert_eq!(fails, 2, "both generations rejected: {log:?}");
        assert!(log.contains(&CheckpointRecord::ColdRestart { job: 0 }));
        assert!(
            !log.iter().any(|r| matches!(r, CheckpointRecord::Resumed { .. })),
            "nothing corrupt may ever be resumed from: {log:?}"
        );
        service.shutdown();
    }

    #[test]
    fn a_lone_job_that_fails_in_fusion_fails_alone() {
        // `submit` lowers every non-native gate, so an arity-3 `ccx` can
        // reach the engine only in a hand-built dispatch: an unfusable
        // job, then a plain one, each booked and served down the road a
        // worker takes.
        let service = small_service(1);
        for (i, unfusable) in [(0u64, true), (1, false)] {
            let mut c = Circuit::new(3);
            c.h(0).ry(0.4, 1);
            if unfusable {
                c.ccx(0, 1, 2);
            } else {
                c.cx(0, 1).cx(1, 2);
            }
            c.measure_all();
            let job = QueuedJob {
                id: JobId(i),
                key: CircuitKey(i),
                state_key: CircuitKey(!i),
                spec: JobSpec::new(c.clone()).shots(64),
                canonical: c,
                submitted_at: Duration::ZERO,
                seq: i,
                attempts_made: 0,
                engine: Engine::Dense,
            };
            record_dispatch(&service.shared, &mut service.shared.lock(), &job);
            dispatch(&service.shared, job);
        }
        service.drain(); // returns: every in-flight slot was given back

        let bad = service.try_outcome(JobId(0)).expect("published");
        assert!(
            matches!(bad, JobOutcome::Failed(ServeError::Sim(SimError::UnsupportedGate(_)))),
            "{bad:?}"
        );
        let next = service.try_outcome(JobId(1)).expect("published");
        let result = next.result().expect("the next job completes");
        assert_eq!(result.counts.as_ref().map(|c| c.total()), Some(64));
        service.shutdown();
    }

    #[test]
    fn second_identical_submission_hits_the_cache_bit_identically() {
        let service = small_service(1);
        let spec = JobSpec::new(bell()).shots(400).seed(77);
        let a = service.submit(spec.clone()).job_id().unwrap();
        let cold = service.wait(a).unwrap();
        let b = service.submit(spec).job_id().unwrap();
        let warm = service.wait(b).unwrap();
        let (cold, warm) = (cold.result().unwrap(), warm.result().unwrap());
        assert!(!cold.from_cache);
        assert!(warm.from_cache);
        assert_eq!(warm.attempts, 0);
        assert_eq!(cold.counts, warm.counts, "cache must replay bit-identically");
        assert_eq!(cold.stats.kernels_launched, warm.stats.kernels_launched);
        service.shutdown();
    }

    #[test]
    fn same_circuit_different_seed_hits_the_state_cache() {
        // Job B shares A's circuit but not its seed: a full-result miss,
        // a state-marginal hit — and its counts must be bit-identical to
        // what a cold service would produce for the same spec.
        let service = small_service(1);
        let a = service.submit(JobSpec::new(bell()).shots(300).seed(1)).job_id().unwrap();
        assert!(!service.wait(a).unwrap().result().unwrap().from_state_cache);
        let b = service.submit(JobSpec::new(bell()).shots(900).seed(2)).job_id().unwrap();
        let warm = service.wait(b).unwrap();
        let warm = warm.result().unwrap();
        assert!(warm.from_state_cache, "same circuit, new sampling knobs");
        assert!(!warm.from_cache);
        assert_eq!(warm.attempts, 0);
        service.shutdown();

        let cold_service = Service::start(ServeConfig {
            workers: 1,
            state_cache_capacity: 0, // force a genuine cold run
            ..Default::default()
        });
        let c = cold_service
            .submit(JobSpec::new(bell()).shots(900).seed(2))
            .job_id()
            .unwrap();
        let cold = cold_service.wait(c).unwrap();
        let cold = cold.result().unwrap();
        assert!(!cold.from_state_cache);
        assert_eq!(cold.counts, warm.counts, "marginal replay must be bit-identical");
        cold_service.shutdown();
    }

    #[test]
    fn infeasible_job_is_rejected_at_submit() {
        let service = small_service(1);
        // 33 qubits fp64 = 137 GB > 40 GB A100: bounced, never queued.
        let admission = service.submit(JobSpec::new(Circuit::new(33)));
        match admission {
            Admission::RejectedInfeasible { required_bytes, device_bytes, considered } => {
                assert!(required_bytes > device_bytes);
                // Without a shard config admission prices exactly one
                // engine, and the verdict explains the rejection.
                assert_eq!(considered.len(), 1);
                assert_eq!(considered[0].engine, Engine::Dense);
                assert!(considered[0].reason.contains("exceeds device memory"));
            }
            other => panic!("expected RejectedInfeasible, got {other:?}"),
        }
        assert_eq!(service.queue_depth(), 0);
        service.shutdown();
    }

    #[test]
    fn full_queue_pushes_back() {
        // One worker pinned in retry backoff (every attempt faults), so
        // capacity 2 fills after the third accepted submit.
        let service = Service::start(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            schedule: FaultSchedule::with_rate(1.0, 1),
            max_retries: 3,
            retry_backoff: Duration::from_millis(50),
            ..Default::default()
        });
        // First job dispatches and spins in backoff; next two fill the queue.
        let mut accepted = 0;
        let mut full = 0;
        for _ in 0..8 {
            match service.submit(JobSpec::new(bell())) {
                Admission::Accepted(_) => accepted += 1,
                Admission::QueueFull { capacity, .. } => {
                    assert_eq!(capacity, 2);
                    full += 1;
                }
                other => panic!("unexpected admission {other:?}"),
            }
        }
        // At minimum the queue's two slots accept (the worker may or may
        // not have popped the first job yet); the rest must be reported
        // as QueueFull, never silently dropped.
        assert!(accepted >= 2, "queue holds at least its capacity, got {accepted}");
        assert!(full >= 1, "overflow must be reported, not dropped");
        assert_eq!(accepted + full, 8);
        service.shutdown();
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        // rate 1.0 strikes every attempt; rate 0.5 heals eventually.
        let service = Service::start(ServeConfig {
            workers: 1,
            schedule: FaultSchedule::with_rate(0.5, 3),
            max_retries: 20,
            retry_backoff: Duration::from_micros(50),
            // The jobs differ only in seed; disable the state cache so
            // every one actually touches the faulty device.
            state_cache_capacity: 0,
            ..Default::default()
        });
        for i in 0..6 {
            let id = service
                .submit(JobSpec::new(bell()).seed(i))
                .job_id()
                .unwrap();
            let outcome = service.wait(id).unwrap();
            let result = outcome.result().expect("healed by retries");
            assert!(result.attempts >= 1);
        }
        service.shutdown();
    }

    #[test]
    fn exhausted_retries_fail_loudly() {
        let service = Service::start(ServeConfig {
            workers: 1,
            schedule: FaultSchedule::with_rate(1.0, 3),
            max_retries: 2,
            retry_backoff: Duration::from_micros(10),
            ..Default::default()
        });
        let id = service.submit(JobSpec::new(bell())).job_id().unwrap();
        match service.wait(id).unwrap() {
            JobOutcome::Failed(ServeError::RetriesExhausted { attempts }) => {
                assert_eq!(attempts, 3, "1 initial + 2 retries");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn cancelled_queued_job_never_runs() {
        // Single worker pinned down by retry backoff; the second job is
        // cancelled while still queued.
        let service = Service::start(ServeConfig {
            workers: 1,
            schedule: FaultSchedule::with_rate(1.0, 1),
            max_retries: 3,
            retry_backoff: Duration::from_millis(50),
            ..Default::default()
        });
        let _busy = service.submit(JobSpec::new(bell())).job_id().unwrap();
        let victim = service.submit(JobSpec::new(bell()).seed(9)).job_id().unwrap();
        assert!(service.cancel(victim), "still queued, so cancellable");
        assert!(matches!(service.wait(victim).unwrap(), JobOutcome::Cancelled));
        assert!(!service.cancel(victim), "second cancel is a no-op");
        assert!(
            service.events_for(victim).is_empty(),
            "cancelled job must never dispatch"
        );
        service.shutdown();
    }

    #[test]
    fn zero_deadline_expires_at_dispatch() {
        let service = small_service(1);
        let id = service
            .submit(JobSpec::new(bell()).deadline(Duration::ZERO))
            .job_id()
            .unwrap();
        assert!(matches!(service.wait(id).unwrap(), JobOutcome::Expired));
        service.shutdown();
    }

    #[test]
    fn a_published_histogram_comes_back_equal_at_its_publish_time() {
        #[derive(Debug)]
        struct Frozen(Duration);
        impl Clock for Frozen {
            fn now(&self) -> Duration {
                self.0
            }
            fn sleep_until(&self, _: Duration) {}
        }
        let at = Duration::from_millis(1234);
        let service = Service::start(ServeConfig { workers: 1, clock: Arc::new(Frozen(at)), ..Default::default() });
        let map = (0..1u64 << 12).map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), 1 + k * 37)).collect();
        let counts = Counts { qubits: vec![4, 0, 7], map };
        let result = JobResult {
            counts: Some(counts.clone()),
            stats: ExecStats::default(),
            from_cache: false,
            from_state_cache: false,
            attempts: 1,
            queue_wait: Duration::from_micros(5),
            service_time: Duration::from_micros(9),
        };
        {
            // Book job 0 as admitted and in flight, as a dispatch would.
            let mut st = service.shared.lock();
            st.next_id = 1;
            st.in_flight += 1;
        }
        publish_outcome(&service.shared, JobId(0), Retained::new(JobOutcome::Completed(Box::new(result))));
        for outcome in [service.wait(JobId(0)).unwrap(), service.try_outcome(JobId(0)).unwrap()] {
            assert!(outcome.result().unwrap().counts.as_ref() == Some(&counts));
        }
        assert_eq!(service.outcome_time(JobId(0)), Some(at));
        service.shutdown();
    }

    #[test]
    fn wait_on_unknown_id_returns_none() {
        let service = small_service(1);
        assert!(service.wait(JobId(999)).is_none());
        assert!(service.try_outcome(JobId(999)).is_none());
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let service = small_service(2);
        let ids: Vec<JobId> = (0..10)
            .map(|i| {
                service
                    .submit(JobSpec::new(bell()).seed(i).priority(Priority::Low))
                    .job_id()
                    .unwrap()
            })
            .collect();
        service.shutdown();
        for id in ids {
            assert!(
                service.try_outcome(id).expect("drained before exit").is_completed(),
                "accepted jobs must finish across shutdown"
            );
        }
        assert!(matches!(
            service.submit(JobSpec::new(bell())),
            Admission::ShuttingDown
        ));
    }
}
