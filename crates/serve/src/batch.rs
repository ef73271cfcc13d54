//! Shape-aware batch coalescing: configuration, compatibility keys and
//! the per-batch audit record.
//!
//! The coalescer groups admitted jobs whose canonical circuits share a
//! *structural fingerprint* ([`qgear_ir::ShapeDigest`]: same gate kinds
//! on the same operands in the same order, parameters free) and the same
//! numeric precision, and flushes each group to one worker. That is all
//! batching is here — a dispatch decision. The worker serves the members
//! one after another, each down the road a lone job takes: the same
//! precheck, the same attempt loop (cancel at the attempt boundary,
//! retries, worker death, checkpoint resume, panic containment) and the
//! same stepper and kernels, with its own parameter values, its own
//! amplitudes and its own sampling seed. Measured host wall is
//! batch-neutral (`serve_small` in `benchmark/`), and no modeled price
//! for a batch is kept (docs/SERVING.md).
//!
//! **Invariant — batching is invisible in results.** A member's
//! amplitudes, counts, cache entries and outcome are bit-identical to
//! what a solo dispatch of the same job would produce, regardless of
//! batch size, which batch it landed in, member order, or worker count.
//! The batch tier in `tests/serve.rs` and the batch-of-1 differential in
//! `tests/differential.rs` enforce exactly this; the coalescing
//! conservation oracle in `qgear-simtest` proves no job is lost or
//! duplicated across flush races.

use std::time::Duration;

use qgear_num::scalar::Precision;

/// Coalescer tuning, part of `ServeConfig`.
///
/// Batching is enabled when `max_size >= 2`, on any backend and with any
/// other setting — checkpointing included: a flush member is served
/// through the attempt loop a lone job takes, so nothing about how a job
/// executes depends on whether it was coalesced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest batch the coalescer will form; `0` or `1` disables
    /// batching entirely (every dispatch is solo).
    pub max_size: usize,
    /// Longest a batch leader waits for shape-compatible companions
    /// before flushing, measured on the service clock from the moment
    /// the leader is popped. The window is also clipped by every
    /// member's deadline: a batch never waits past the instant any
    /// member would expire.
    pub window: Duration,
}

impl BatchConfig {
    /// Batching disabled — the one-job-per-dispatch behavior every
    /// pre-batching test was written against.
    pub const fn disabled() -> Self {
        BatchConfig { max_size: 1, window: Duration::ZERO }
    }

    /// True when this config can ever form a multi-member batch.
    pub fn enabled(&self) -> bool {
        self.max_size >= 2
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::disabled()
    }
}

/// Batch-compatibility key: two queued jobs may share a batch iff their
/// keys are equal. Fusion and sweep widths are service-global config,
/// so shape digest (which folds in qubit count) plus precision pins the
/// whole kernel schedule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// `qgear_ir::shape_digest` of the canonical circuit.
    pub shape: u64,
    /// Requested numeric precision.
    pub precision: Precision,
}

/// How one batch member's dispatch resolved, recorded in the
/// [`BatchRecord`] events that the simulation oracles consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMemberDisposition {
    /// Answered from the full-result cache during the pre-execution
    /// probe; never executed.
    CacheHit,
    /// Re-sampled from a cached marginal distribution; never executed.
    StateCacheHit,
    /// Entered the attempt loop and published its own outcome: a fresh
    /// result, `Cancelled` at an attempt boundary (a cancel that landed
    /// after the flush's precheck), or `Failed` (its run errored,
    /// panicked or exhausted its retries) — which never touches its
    /// batch-mates.
    Executed,
    /// Cancellation had been requested before the flush's precheck; the
    /// member was masked out (published `Cancelled`) without aborting
    /// its batch-mates.
    MaskedCancelled,
    /// The member's deadline had passed by dispatch; masked out
    /// (published `Expired`) without aborting its batch-mates.
    MaskedExpired,
    /// A worker death — in this member's own attempt loop, or in one run
    /// before it in the flush — landed before this member's result was
    /// published; the member was requeued individually with its
    /// cumulative attempt ledger intact.
    Requeued,
}

/// Audit record of one flushed batch: an [`crate::EventKind::Batch`]
/// event, recorded once every member is published or requeued.
/// Occupancy is `members.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// `(job id, disposition)` per member, in batch (coalescing) order.
    pub members: Vec<(u64, BatchMemberDisposition)>,
    /// Service-clock instant the leader was popped (coalescing began).
    pub formed_at: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_never_batches() {
        assert!(!BatchConfig::disabled().enabled());
        assert!(!BatchConfig::default().enabled());
        assert!(!BatchConfig { max_size: 0, window: Duration::from_millis(5) }.enabled());
        assert!(BatchConfig { max_size: 2, window: Duration::ZERO }.enabled());
    }

    #[test]
    fn batch_keys_separate_shape_and_precision() {
        let a = BatchKey { shape: 7, precision: Precision::Fp64 };
        let b = BatchKey { shape: 7, precision: Precision::Fp32 };
        let c = BatchKey { shape: 8, precision: Precision::Fp64 };
        assert_eq!(a, a);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
