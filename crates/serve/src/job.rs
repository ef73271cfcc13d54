//! Job descriptions, admission verdicts, and outcomes.

use qgear_ir::Circuit;
use qgear_num::scalar::Precision;
use qgear_statevec::{Counts, ExecStats, SimError};
use std::fmt;
use std::time::Duration;

/// Opaque per-service job handle, assigned at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling class. Higher classes always dispatch before lower ones;
/// fair-share applies only among tenants of the same class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive work (interactive notebooks, calibration).
    High,
    /// The default class for batch circuits.
    #[default]
    Normal,
    /// Scavenger work that only runs when nothing better is queued.
    Low,
}

impl Priority {
    /// All classes, highest first — the dispatch scan order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Dense index, 0 = highest.
    pub const fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        };
        f.write_str(s)
    }
}

/// Which execution engine admission routed a job to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Dense state-vector simulation on one worker.
    #[default]
    Dense,
    /// Dense state vector partitioned across a shard group of workers
    /// (pairwise amplitude exchange; admission plans the group width).
    /// Routes jobs *beyond* the single-worker memory wall.
    Sharded,
}

impl Engine {
    /// Canonical lowercase name, used for telemetry counter suffixes.
    pub const fn name(self) -> &'static str {
        match self {
            Engine::Dense => "dense",
            Engine::Sharded => "sharded",
        }
    }

    /// Stable small tag for cache-key digests. Tags are never reused:
    /// 1, 2 and 3 belonged to removed engines.
    pub const fn tag(self) -> u64 {
        match self {
            Engine::Dense => 0,
            Engine::Sharded => 4,
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One backend admission considered for a job, and what it concluded.
/// Returned inside [`Admission::RejectedInfeasible`] so a rejected
/// client can see *why* every candidate was ruled out instead of a bare
/// byte count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendVerdict {
    /// The engine that was priced.
    pub engine: Engine,
    /// Bytes this engine's representation of the job needs.
    pub required_bytes: u128,
    /// Bytes the backing device offers.
    pub capacity_bytes: u128,
    /// Human-readable explanation (why infeasible).
    pub reason: String,
}

impl fmt::Display for BackendVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({} bytes required, {} available)",
            self.engine, self.reason, self.required_bytes, self.capacity_bytes
        )
    }
}

/// One simulation request, as handed to [`crate::Service::submit`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The circuit to simulate (any gate set; the service transpiles).
    pub circuit: Circuit,
    /// Measurement shots to draw.
    pub shots: u64,
    /// Sampling seed — part of the cache key, so equal specs replay
    /// bit-identically.
    pub seed: u64,
    /// Numeric precision for the state vector.
    pub precision: Precision,
    /// Tenant this job bills to (fair-share bucket).
    pub tenant: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Drop the job if it has not *started* within this long of admission.
    pub deadline: Option<Duration>,
    /// Override the service-wide retry budget for this job.
    pub max_retries: Option<u32>,
}

impl JobSpec {
    /// A default-shaped spec for `circuit`: 1024 shots, fp64, tenant
    /// `"default"`, normal priority, no deadline.
    pub fn new(circuit: Circuit) -> Self {
        JobSpec {
            circuit,
            shots: 1024,
            seed: 0x5EED_0001,
            precision: Precision::Fp64,
            tenant: "default".to_owned(),
            priority: Priority::Normal,
            deadline: None,
            max_retries: None,
        }
    }

    /// Set the shot count.
    pub fn shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Set the sampling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the numeric precision.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Set the billing tenant.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Set the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set a start deadline relative to admission.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap retries for this job (0 = fail on first fault).
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.max_retries = Some(retries);
        self
    }
}

/// The answer to a submission — backpressure is explicit, never a panic
/// or a silent drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Queued; track it with this id.
    Accepted(JobId),
    /// The bounded admission queue is full — retry later or shed load.
    QueueFull {
        /// Jobs currently queued.
        depth: usize,
        /// Configured queue bound.
        capacity: usize,
    },
    /// No engine admission is allowed to use can hold the job, so
    /// queueing it would only waste a dispatch slot.
    RejectedInfeasible {
        /// Bytes the cheapest considered representation needs.
        required_bytes: u128,
        /// Bytes the backend device offers.
        device_bytes: u128,
        /// Every backend admission priced, with its verdict — clients
        /// see why each candidate was ruled out, not just a byte count.
        considered: Vec<BackendVerdict>,
    },
    /// The service is draining; no new work is admitted.
    ShuttingDown,
}

impl Admission {
    /// The id, if the job was accepted.
    pub fn job_id(&self) -> Option<JobId> {
        match self {
            Admission::Accepted(id) => Some(*id),
            _ => None,
        }
    }
}

/// Why a dispatched job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The engine itself refused the circuit (OOM, unsupported gate, …).
    /// Not retried: deterministic errors do not heal.
    Sim(SimError),
    /// Every attempt hit a transient device fault.
    RetriesExhausted {
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// The engine call panicked; the payload's message. Contained by the
    /// attempt loop and not retried: the worker goes on to its next job.
    Panicked(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Sim(e) => write!(f, "engine error: {e}"),
            ServeError::RetriesExhausted { attempts } => {
                write!(f, "transient device faults on all {attempts} attempts")
            }
            ServeError::Panicked(msg) => write!(f, "engine panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything a completed job hands back.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Sampled counts (present when the circuit measures and shots > 0).
    pub counts: Option<Counts>,
    /// Engine counters from the run that produced the counts (the *cold*
    /// run's stats on a cache hit — stats are part of the cached value).
    pub stats: ExecStats,
    /// True when the result came from the cache without touching a device.
    pub from_cache: bool,
    /// True when the result was re-sampled from a cached state marginal
    /// (same circuit evolved before under different sampling knobs) —
    /// cheaper than a cold run, costlier than a full-result hit.
    pub from_state_cache: bool,
    /// Execution attempts made (0 on a cache hit).
    pub attempts: u32,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// End-to-end latency, admission → outcome.
    pub service_time: Duration,
}

/// Terminal state of an admitted job. The result is boxed so the
/// common control-plane variants stay pointer-sized.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Ran (or was served from cache).
    Completed(Box<JobResult>),
    /// Deadline passed before a worker could start it.
    Expired,
    /// Cancelled while still queued.
    Cancelled,
    /// Dispatched but failed.
    Failed(ServeError),
}

impl JobOutcome {
    /// The result, if the job completed.
    pub fn result(&self) -> Option<&JobResult> {
        match self {
            JobOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// True for [`JobOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }
}
