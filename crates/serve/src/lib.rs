//! `qgear-serve`: a long-running, multi-tenant circuit-simulation
//! service — the paper's mQPU farm made executable.
//!
//! The paper's headline workflow pushes one circuit per GPU through
//! Slurm at "approximately 100 % utilization of up to 1,024 GPUs"
//! (§2.4). `qgear-container::slurm` *models* that farm as a
//! discrete-event simulation; this crate **executes** it: a fixed set of
//! real worker threads, each owning a [`qgear_statevec::GpuDevice`],
//! drains a bounded admission queue of [`JobSpec`]s and produces exact
//! counts.
//!
//! The moving parts mirror an inference-serving stack:
//!
//! * **Admission control with explicit backpressure** — [`Service::submit`]
//!   answers [`Admission::Accepted`], [`Admission::QueueFull`] (bounded
//!   queue), or [`Admission::RejectedInfeasible`] (the `qgear-perfmodel`
//!   memory estimate says the state vector cannot fit the device, so the
//!   job is bounced *before* wasting queue space).
//! * **Priority + fair-share scheduling** ([`AdmissionQueue`]) — three
//!   priority classes; within a class, the tenant with the least
//!   dispatched work goes first; within one tenant's class, strict FIFO.
//! * **Deadlines, cancellation, retries** — a job whose deadline passes
//!   while queued is dropped at dispatch ([`JobOutcome::Expired`]);
//!   queued jobs can be [`Service::cancel`]led; injected transient device
//!   faults ([`FaultSchedule`]) are retried with exponential backoff, and
//!   a panicking engine call fails its job, never the worker.
//! * **Result cache** ([`ResultCache`]) — keyed by a canonical hash of
//!   the transpiled IR plus shots, seed, precision and fusion width
//!   ([`CircuitKey`]); a hit returns counts and [`qgear_statevec::ExecStats`]
//!   bit-identical to the cold run without touching a device.
//! * **Telemetry** — queue-depth and latency histograms, per-tenant
//!   job/shot counters, cache hit/miss counters, and one `serve_job`
//!   span per dispatched job (see `qgear_telemetry::names`), so the
//!   saturation bench reports p50/p95/p99 straight from spans.
//! * **One event stream** ([`Service::events`]) — every dispatch,
//!   checkpoint step and shard step in one clock-stamped log, keyed per
//!   job by [`Service::events_for`].
//!
//! ```
//! use qgear_ir::Circuit;
//! use qgear_serve::{Admission, JobSpec, ServeConfig, Service};
//!
//! let service = Service::start(ServeConfig { workers: 2, ..Default::default() });
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1).measure_all();
//! let id = match service.submit(JobSpec::new(bell).shots(100).tenant("alice")) {
//!     Admission::Accepted(id) => id,
//!     other => panic!("rejected: {other:?}"),
//! };
//! let outcome = service.wait(id).unwrap();
//! let result = outcome.result().unwrap();
//! assert_eq!(result.counts.as_ref().unwrap().total(), 100);
//! service.shutdown();
//! ```

pub mod cache;
pub mod checkpoint_store;
pub mod event;
pub mod fault;
pub mod hashkey;
pub mod job;
pub mod scheduler;
pub mod service;
pub mod shard;
mod stepper;

pub use cache::{MarginalCache, ResultCache};
pub use checkpoint_store::{CheckpointGeneration, CheckpointRecord, CheckpointStore};
pub use event::{EventKind, ServiceEvent};
pub use fault::{FaultEvent, FaultKind, FaultSchedule};
pub use hashkey::CircuitKey;
pub use job::{
    Admission, BackendVerdict, Engine, JobId, JobOutcome, JobResult, JobSpec, Priority, ServeError,
};
pub use scheduler::{AdmissionQueue, DispatchRecord, QueuedJob};
pub use service::{BackendKind, BatchConfig, ServeConfig, Service};
pub use shard::{ShardConfig, ShardRecord};
