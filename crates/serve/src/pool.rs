//! Elastic worker pool: queue-depth-driven scaling decisions.
//!
//! The service normally runs a fixed worker count. With a [`PoolConfig`]
//! attached it becomes elastic: admission watches queue-depth telemetry
//! and spawns extra workers when the backlog crosses the scale-up
//! threshold, and a worker retires itself when it publishes an outcome
//! into an empty queue while the pool is above its floor. Every decision
//! is an [`crate::EventKind::Pool`] event, stamped like every event with
//! the service-clock reading at which it was taken — under a virtual
//! clock the whole sequence is exactly reproducible, which is what the
//! simtest regression pins.
//!
//! The pool is also where shard migration draws replacement capacity: a
//! [`crate::fault::FaultKind::ShardWorkerDeath`] tears a shard group
//! down, and the requeued job's next dispatch — on whichever pool worker
//! picks it up — is the replacement. That hand-off is recorded as
//! [`PoolDecision::Replace`].

/// Elastic-pool sizing policy. Attach via `ServeConfig::pool`; the
/// initial thread count is still `ServeConfig::workers` (conventionally
/// equal to `min_workers`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Never retire below this many workers.
    pub min_workers: usize,
    /// Never spawn above this many workers.
    pub max_workers: usize,
    /// Spawn a worker when the queue depth observed at admission (after
    /// the submitted job is enqueued) reaches this.
    pub scale_up_depth: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { min_workers: 1, max_workers: 8, scale_up_depth: 2 }
    }
}

/// One autonomous pool action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDecision {
    /// Admission saw a backlog and spawned a worker.
    ScaleUp {
        /// Live workers before the spawn.
        from: usize,
        /// Live workers after the spawn.
        to: usize,
        /// Queue depth (including the just-admitted job) that tripped it.
        queue_depth: usize,
    },
    /// A worker published an outcome into an empty queue and retired.
    ScaleDown {
        /// Live workers before the retirement.
        from: usize,
        /// Live workers after the retirement.
        to: usize,
    },
    /// A shard group lost a worker; the requeued job's next dispatch is
    /// its replacement, drawn from the pool.
    Replace {
        /// Serving id of the sharded job being migrated.
        job: u64,
        /// Shard rank whose worker died.
        shard: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pool_is_sane() {
        let p = PoolConfig::default();
        assert!(p.min_workers >= 1);
        assert!(p.max_workers >= p.min_workers);
        assert!(p.scale_up_depth >= 1);
    }
}
