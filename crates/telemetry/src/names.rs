//! Canonical counter, histogram and span names.
//!
//! Naming convention (documented in `docs/TELEMETRY.md`):
//! `subsystem.quantity`, lowercase, dot-separated, with `snake_case`
//! quantities. Using these constants instead of string literals keeps
//! producers (engines) and consumers (benches, tests) agreeing on
//! spelling.

/// Gates applied to the state vector, post-fusion for fused engines.
pub const GATES_APPLIED: &str = "gates.applied";

/// Dense fused kernels launched by the simulated-GPU engine.
pub const KERNELS_LAUNCHED: &str = "kernels.launched";

/// Fused blocks produced by the fusion pass.
pub const FUSED_BLOCKS: &str = "fusion.blocks";

/// Source gates consumed by the fusion pass (pre-fusion count).
pub const FUSION_SOURCE_GATES: &str = "fusion.source_gates";

/// State-vector amplitudes read or written by kernels.
pub const AMPLITUDES_TOUCHED: &str = "amplitudes.touched";

/// Bytes charged to the intra-node (NVLink) link class by the *real*
/// distributed engine's exchanges; the dry-run traffic planner never
/// increments these.
pub const COMM_BYTES_INTRA_NODE: &str = "comm.bytes.intra_node";
/// Bytes over the inter-node (Slingshot NIC) link class.
pub const COMM_BYTES_INTER_NODE: &str = "comm.bytes.inter_node";
/// Bytes over the inter-rack (dragonfly global) link class.
pub const COMM_BYTES_INTER_RACK: &str = "comm.bytes.inter_rack";
/// Messages over the intra-node link class (two per pairwise exchange).
pub const COMM_MESSAGES_INTRA_NODE: &str = "comm.messages.intra_node";
/// Messages over the inter-node link class.
pub const COMM_MESSAGES_INTER_NODE: &str = "comm.messages.inter_node";
/// Messages over the inter-rack link class.
pub const COMM_MESSAGES_INTER_RACK: &str = "comm.messages.inter_rack";

/// Measurement shots drawn from final distributions.
pub const SHOTS_SAMPLED: &str = "shots.sampled";

/// Histogram of fused-block widths (qubits per block).
pub const FUSION_BLOCK_WIDTH: &str = "fusion.block_width";

// --- qgear-serve: the multi-tenant simulation service ---------------------

/// Jobs accepted into the admission queue.
pub const SERVE_JOBS_SUBMITTED: &str = "serve.jobs_submitted";

/// Jobs that finished execution successfully (including cache hits).
pub const SERVE_JOBS_COMPLETED: &str = "serve.jobs_completed";

/// Jobs that failed with an engine or exhausted-retry error.
pub const SERVE_JOBS_FAILED: &str = "serve.jobs_failed";

/// Submissions bounced because the admission queue was full.
pub const SERVE_REJECTED_QUEUE_FULL: &str = "serve.rejected_queue_full";

/// Submissions bounced because the perf-model deemed them infeasible.
pub const SERVE_REJECTED_INFEASIBLE: &str = "serve.rejected_infeasible";

/// Jobs dropped at dispatch because their deadline had already passed.
pub const SERVE_JOBS_EXPIRED: &str = "serve.jobs_expired";

/// Queued jobs cancelled before dispatch.
pub const SERVE_JOBS_CANCELLED: &str = "serve.jobs_cancelled";

/// Execution attempts retried after an injected transient device fault.
pub const SERVE_RETRIES: &str = "serve.retries";

/// Result-cache hits (job answered without touching a device).
pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";

/// Result-cache misses (job executed cold).
pub const SERVE_CACHE_MISSES: &str = "serve.cache_misses";

/// Cache entries evicted by the capacity bound.
pub const SERVE_CACHE_EVICTIONS: &str = "serve.cache_evictions";

/// Histogram of admission-queue depth, sampled at every submit and
/// dispatch.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";

/// Histogram of end-to-end service latency (submit → outcome) in
/// milliseconds.
pub const SERVE_LATENCY_MS: &str = "serve.latency_ms";

/// Histogram of time spent waiting in the admission queue, milliseconds.
pub const SERVE_QUEUE_WAIT_MS: &str = "serve.queue_wait_ms";

/// Sweeps produced by the commutation-aware scheduler (`qgear-ir`).
pub const SWEEPS_SCHEDULED: &str = "sweeps.scheduled";

/// Kernels the scheduler moved into an earlier sweep past commuting
/// neighbours; `0` means the schedule was a pure adjacent grouping.
pub const SWEEP_MOVED_KERNELS: &str = "sweeps.moved_kernels";

/// Sweeps actually executed by an engine's cache-blocked path.
pub const SWEEPS_EXECUTED: &str = "sweeps.executed";

/// Histogram of kernels per scheduled sweep (pass-compression shape).
pub const SWEEP_KERNELS: &str = "sweeps.kernels_per_sweep";

/// Histogram of each sweep's union support width in qubits.
pub const SWEEP_WIDTH: &str = "sweeps.width";

/// Full-state marginal probability vectors served from the state cache
/// instead of re-simulating (`qgear-serve`).
pub const SERVE_STATE_CACHE_HITS: &str = "serve.state_cache_hits";

/// State-cache misses that fell through to a full simulation.
pub const SERVE_STATE_CACHE_MISSES: &str = "serve.state_cache_misses";

/// Cache entries found corrupted on probe (injected fault), invalidated
/// and re-executed cold.
pub const SERVE_CACHE_CORRUPTIONS: &str = "serve.cache_corruptions";

/// Workers killed mid-job by an injected worker-death fault; each death
/// requeues the victim job at the front of its tenant queue.
pub const SERVE_WORKER_DEATHS: &str = "serve.worker_deaths";

/// Jobs requeued after a worker death (conservation evidence: one per
/// death).
pub const SERVE_REQUEUES: &str = "serve.requeues";

/// In-flight jobs cancelled while waiting out a retry backoff.
pub const SERVE_CANCELLED_IN_BACKOFF: &str = "serve.cancelled_in_backoff";

/// Mid-circuit checkpoints written into the per-job generational store
/// at segment boundaries (`qgear-serve` segmented execution).
pub const CHECKPOINT_WRITES: &str = "checkpoint.write";

/// Checkpoint generations rejected by integrity verification (CRC,
/// plan-fingerprint, or structural checks) during the recovery ladder;
/// each increment means a generation was skipped, never loaded.
pub const CHECKPOINT_VERIFY_FAILS: &str = "checkpoint.verify_fail";

/// Histogram of the schedule cursor a resumed job continued from; a
/// sample here means a `WorkerDied` recovery skipped that many segments
/// of re-execution.
pub const JOB_RESUMED_FROM: &str = "job.resumed_from";

/// Plan segments executed (`qgear-statevec::planner`), pinned or priced:
/// counted when a segment runs, not when a plan is built.
pub const PLANNER_SEGMENTS: &str = "planner.segments";

/// Executed segments that ran as per-gate unfused loops.
pub const PLANNER_MODE_UNFUSED: &str = "planner.mode_chosen.unfused";

/// Executed segments that ran as one cache-blocked sweep pass.
pub const PLANNER_MODE_SWEEP: &str = "planner.mode_chosen.sweep";

/// Histogram of the predicted cost (µs of the chosen mode) of each
/// executed *priced* segment; a pinned segment has no prediction.
pub const PLANNER_PREDICTED_US: &str = "planner.predicted_us";

/// Histogram of measured execution time (µs) of each executed priced
/// segment — compare against `planner.predicted_us` to audit the model.
pub const PLANNER_ACTUAL_US: &str = "planner.actual_us";

/// Histograms of actual/predicted cost ratio per executed priced
/// segment, split by chosen mode (never fed by pinned runs). `PlannerCosts::calibrated` folds the means back into
/// the cost constants (>1 ⇒ the model was optimistic for that mode).
pub const PLANNER_RATIO_UNFUSED: &str = "planner.cost_ratio.unfused";
/// See [`PLANNER_RATIO_UNFUSED`].
pub const PLANNER_RATIO_SWEEP: &str = "planner.cost_ratio.sweep";

/// Kernel launches that ran on the SIMD lane path in fp64 (4 complex
/// amplitudes per `f64x4` lane vector).
pub const KERNEL_SIMD_F64X4: &str = "kernel.simd.f64x4";

/// Kernel launches that ran on the SIMD lane path in fp32 (8 complex
/// amplitudes per `f32x8` lane vector).
pub const KERNEL_SIMD_F32X8: &str = "kernel.simd.f32x8";

/// Kernel launches that ran the scalar reference path — SIMD disabled,
/// or a span too small to have `log2(LANES)` bits outside the kernel's
/// support (a width-5 kernel on a 6-qubit state).
pub const KERNEL_SIMD_SCALAR: &str = "kernel.simd.scalar";

/// Sweep tiles executed: a dense sweep of several kernels acts on low
/// qubits only, so each tile *is* a contiguous slice of the state and its
/// kernels run in place, with no copy.
pub const SWEEP_ZERO_COPY_TILES: &str = "sweep.tiles.zero_copy";

// --- sharded serving: shard groups, migration -----------------------------

/// Jobs admitted past the single-worker feasibility cutoff into a shard
/// group (`qgear-serve` sharded dispatch).
pub const SERVE_SHARD_JOBS: &str = "serve.shard.jobs";

/// Live-shard migrations: a shard worker died mid-run and the newest
/// verified checkpoint generation was restored onto a replacement worker.
pub const SERVE_SHARD_MIGRATIONS: &str = "serve.shard.migrations";

/// Link faults hit by sharded executions (dropped or corrupted pairwise
/// exchanges), each recovered through the checkpoint ladder.
pub const SERVE_SHARD_LINK_FAULTS: &str = "serve.shard.link_faults";

/// Histogram of shard counts chosen at admission (workers per shard group).
pub const SERVE_SHARD_WIDTH: &str = "serve.shard.width";

// --- names built at the call site -----------------------------------------
//
// These allocate, and the hooks check `is_enabled()` only after their
// argument is built: call them under `qgear_telemetry::is_enabled()`.

/// Per-engine counter name for admission-time backend choice, e.g.
/// `admission.backend_chosen.sharded`.
pub fn admission_backend_chosen(engine: &str) -> String {
    format!("admission.backend_chosen.{engine}")
}

/// Per-tenant counter name for jobs completed, e.g. `serve.tenant.alice.jobs`.
pub fn serve_tenant_jobs(tenant: &str) -> String {
    format!("serve.tenant.{tenant}.jobs")
}

/// Per-tenant counter name for shots sampled, e.g. `serve.tenant.alice.shots`.
pub fn serve_tenant_shots(tenant: &str) -> String {
    format!("serve.tenant.{tenant}.shots")
}

/// Span names used by the pipeline, in nesting order: the `core`
/// pipeline opens `run` ⊃ (`transpile`, `encode`, `fuse`), and each
/// engine opens `simulate` and `sample` itself so direct
/// `Simulator::run` calls are observable too.
pub mod spans {
    /// Whole `QGear::run` pipeline.
    pub const RUN: &str = "run";
    /// Decomposition to the native gate set.
    pub const TRANSPILE: &str = "transpile";
    /// Circuit-to-tensor encoding (the Q-GEAR representation).
    pub const ENCODE: &str = "encode";
    /// Gate-fusion pass.
    pub const FUSE: &str = "fuse";
    /// State-vector execution inside an engine.
    pub const SIMULATE: &str = "simulate";
    /// Shot sampling from the final state.
    pub const SAMPLE: &str = "sample";
    /// One dense fused kernel application.
    pub const APPLY_BLOCK: &str = "apply_block";
    /// One cache-blocked sweep (several kernels, one state pass).
    pub const APPLY_SWEEP: &str = "apply_sweep";
    /// One inter-device exchange in the cluster engine.
    pub const EXCHANGE: &str = "exchange";
    /// One job's time on a serving worker, admission to outcome
    /// (`qgear-serve`); per-job service latency is the duration
    /// distribution of these spans.
    pub const SERVE_JOB: &str = "serve_job";
    /// One execution attempt inside a `serve_job` (retries open several).
    pub const SERVE_ATTEMPT: &str = "serve_attempt";
    /// Encoding + recording of one mid-circuit checkpoint generation.
    pub const CHECKPOINT_WRITE: &str = "checkpoint_write";
    /// Decode + verify + plan-rebuild of one checkpoint generation
    /// during the recovery ladder (opened per generation tried).
    pub const CHECKPOINT_RESTORE: &str = "checkpoint_restore";
}
