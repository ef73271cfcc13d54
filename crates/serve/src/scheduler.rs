//! The bounded admission queue with priority + per-tenant fair share.
//!
//! Dispatch order, highest bar first:
//!
//! 1. **Priority class** — `High` drains before `Normal` before `Low`.
//! 2. **Fair share within the class** — among tenants with queued work,
//!    the one with the fewest jobs already dispatched goes next (ties
//!    break toward the tenant whose front job was admitted first).
//! 3. **FIFO within a tenant's class** — a tenant's own jobs of one
//!    class never reorder.
//!
//! The queue is a passive data structure; `Service` holds it under a
//! mutex and layers blocking/condvar signaling on top. Keeping it
//! lock-free here makes the scheduling policy unit- and
//! property-testable without threads.

use crate::hashkey::CircuitKey;
use crate::job::{Engine, JobId, JobSpec, Priority};
use qgear_ir::{Circuit, ShapeDigest};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

/// An admitted job waiting for a worker.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Admission-assigned id.
    pub id: JobId,
    /// The original request.
    pub spec: JobSpec,
    /// The circuit transpiled to the native gate set (what workers run).
    pub canonical: Circuit,
    /// Cache key over the canonical circuit + sampling knobs.
    pub key: CircuitKey,
    /// Sampling-independent key over the canonical circuit + precision +
    /// kernel config, for the state-marginal cache.
    pub state_key: CircuitKey,
    /// Admission time as read from the service clock (deadlines count
    /// from here; virtual under simulation, wall time in production).
    pub submitted_at: Duration,
    /// Global admission sequence number (FIFO evidence).
    pub seq: u64,
    /// Execution attempts consumed by earlier dispatches of this job
    /// (nonzero only after a worker died mid-job and the job was
    /// requeued). The retry budget spans dispatches.
    pub attempts_made: u32,
    /// Engine admission routed the job to (decided once at submit so
    /// retries and requeues replay on the same engine).
    pub engine: Engine,
    /// Structural fingerprint of the canonical circuit (parameter-free),
    /// computed once at admission — the coalescer's batch-compatibility
    /// axis.
    pub shape: ShapeDigest,
}

/// One dispatch event, recorded in admission order for invariant checks
/// (the property tests assert FIFO/priority/fair-share over this log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Job dispatched.
    pub id: JobId,
    /// Its tenant.
    pub tenant: String,
    /// Its priority class.
    pub priority: Priority,
    /// Its admission sequence number.
    pub seq: u64,
}

/// Bounded multi-class, multi-tenant queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    len: usize,
    next_seq: u64,
    /// One tenant→FIFO map per priority class, indexed by
    /// [`Priority::index`]. `BTreeMap` keeps tenant iteration order
    /// deterministic.
    classes: [BTreeMap<String, VecDeque<QueuedJob>>; 3],
    /// Jobs dispatched per tenant — the fair-share ledger.
    credits: HashMap<String, u64>,
}

impl AdmissionQueue {
    /// A queue admitting at most `capacity` jobs at once.
    pub fn new(capacity: usize) -> Self {
        AdmissionQueue {
            capacity,
            len: 0,
            next_seq: 0,
            classes: [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()],
            credits: HashMap::new(),
        }
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when a push would be rejected.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Admit a job, stamping its `seq`. Returns the job back when the
    /// queue is at capacity (the caller reports [`crate::Admission::QueueFull`]).
    // Handing the job back on rejection is the point of this API; the
    // Err payload is as large as the job itself by design.
    #[allow(clippy::result_large_err)]
    pub fn push(&mut self, mut job: QueuedJob) -> Result<(), QueuedJob> {
        if self.is_full() {
            return Err(job);
        }
        job.seq = self.next_seq;
        self.next_seq += 1;
        let class = &mut self.classes[job.spec.priority.index()];
        class.entry(job.spec.tenant.clone()).or_default().push_back(job);
        self.len += 1;
        Ok(())
    }

    /// Pop the next job per the policy above, charging the tenant one
    /// dispatch credit.
    pub fn pop_next(&mut self) -> Option<QueuedJob> {
        self.pop_where(|_| true)
    }

    /// Pop the next job whose tenant-queue *front* satisfies `pred`,
    /// under the same class/fair-share/FIFO policy as [`Self::pop_next`]
    /// (fair share stays exact because the tenant's dispatch credit is
    /// charged per pop). Only queue fronts are considered — pulling a
    /// deeper job would reorder a tenant's FIFO — so the batch coalescer
    /// coalesces compatible *front-runners* and never jumps the line.
    pub fn pop_matching<F: Fn(&QueuedJob) -> bool>(&mut self, pred: F) -> Option<QueuedJob> {
        self.pop_where(pred)
    }

    fn pop_where<F: Fn(&QueuedJob) -> bool>(&mut self, pred: F) -> Option<QueuedJob> {
        for class in &mut self.classes {
            // Tenant with least dispatched work among those whose front
            // job qualifies; tie → earliest front seq.
            let pick = class
                .iter()
                .filter(|(_, q)| q.front().is_some_and(&pred))
                .map(|(tenant, q)| {
                    let credit = self.credits.get(tenant).copied().unwrap_or(0);
                    (credit, q.front().map(|j| j.seq).unwrap_or(u64::MAX), tenant.clone())
                })
                .min();
            if let Some((_, _, tenant)) = pick {
                let queue = class.get_mut(&tenant).expect("picked tenant has a queue");
                let job = queue.pop_front().expect("picked queue is nonempty");
                if queue.is_empty() {
                    class.remove(&tenant);
                }
                *self.credits.entry(tenant).or_insert(0) += 1;
                self.len -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Put a previously dispatched job back at the *front* of its
    /// tenant's class queue, keeping its original `seq` — the recovery
    /// path after a worker death. Bypasses the capacity bound (the job
    /// was already admitted; requeue must never be lossy) and refunds
    /// the tenant's dispatch credit so fair-share stays unbiased.
    pub fn requeue_front(&mut self, job: QueuedJob) {
        if let Some(credit) = self.credits.get_mut(&job.spec.tenant) {
            *credit = credit.saturating_sub(1);
        }
        let class = &mut self.classes[job.spec.priority.index()];
        class.entry(job.spec.tenant.clone()).or_default().push_front(job);
        self.len += 1;
    }

    /// Remove a still-queued job by id. Returns it when found.
    pub fn cancel(&mut self, id: JobId) -> Option<QueuedJob> {
        for class in &mut self.classes {
            let found = class.iter().find_map(|(tenant, queue)| {
                queue.iter().position(|j| j.id == id).map(|pos| (tenant.clone(), pos))
            });
            if let Some((tenant, pos)) = found {
                let queue = class.get_mut(&tenant).expect("tenant just found");
                let job = queue.remove(pos).expect("position just found");
                self.len -= 1;
                if queue.is_empty() {
                    class.remove(&tenant);
                }
                return Some(job);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, tenant: &str, priority: Priority) -> QueuedJob {
        let circuit = Circuit::new(1);
        let spec = JobSpec::new(circuit.clone()).tenant(tenant).priority(priority);
        QueuedJob {
            id: JobId(id),
            canonical: circuit,
            key: CircuitKey(id),
            state_key: CircuitKey(id ^ u64::MAX),
            spec,
            submitted_at: Duration::ZERO,
            seq: 0,
            attempts_made: 0,
            engine: Engine::Dense,
            shape: ShapeDigest(0),
        }
    }

    fn drain(q: &mut AdmissionQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop_next()).map(|j| j.id.0).collect()
    }

    #[test]
    fn fifo_within_one_tenant_and_class() {
        let mut q = AdmissionQueue::new(16);
        for i in 0..5 {
            q.push(job(i, "alice", Priority::Normal)).unwrap();
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn higher_class_always_first() {
        let mut q = AdmissionQueue::new(16);
        q.push(job(0, "alice", Priority::Low)).unwrap();
        q.push(job(1, "alice", Priority::Normal)).unwrap();
        q.push(job(2, "alice", Priority::High)).unwrap();
        assert_eq!(drain(&mut q), vec![2, 1, 0]);
    }

    #[test]
    fn fair_share_alternates_tenants() {
        let mut q = AdmissionQueue::new(16);
        // Alice floods first; Bob submits one job later. Bob must not
        // wait behind all of Alice's backlog.
        for i in 0..4 {
            q.push(job(i, "alice", Priority::Normal)).unwrap();
        }
        q.push(job(10, "bob", Priority::Normal)).unwrap();
        let order = drain(&mut q);
        let bob_pos = order.iter().position(|&id| id == 10).unwrap();
        assert!(bob_pos <= 1, "bob served at {bob_pos} in {order:?}");
    }

    #[test]
    fn credits_persist_across_bursts() {
        let mut q = AdmissionQueue::new(16);
        q.push(job(0, "alice", Priority::Normal)).unwrap();
        q.push(job(1, "alice", Priority::Normal)).unwrap();
        assert_eq!(q.pop_next().unwrap().id.0, 0);
        assert_eq!(q.pop_next().unwrap().id.0, 1);
        // Alice has 2 credits; a fresh bob job beats her next burst.
        q.push(job(2, "alice", Priority::Normal)).unwrap();
        q.push(job(3, "bob", Priority::Normal)).unwrap();
        assert_eq!(q.pop_next().unwrap().id.0, 3, "bob owed service first");
    }

    #[test]
    fn capacity_bound_rejects() {
        let mut q = AdmissionQueue::new(2);
        q.push(job(0, "a", Priority::Normal)).unwrap();
        q.push(job(1, "a", Priority::Normal)).unwrap();
        let bounced = q.push(job(2, "a", Priority::Normal));
        assert!(bounced.is_err());
        assert_eq!(q.len(), 2);
        // Draining one reopens admission.
        q.pop_next().unwrap();
        assert!(q.push(bounced.unwrap_err()).is_ok());
    }

    #[test]
    fn cancel_removes_only_the_target() {
        let mut q = AdmissionQueue::new(16);
        q.push(job(0, "a", Priority::Normal)).unwrap();
        q.push(job(1, "a", Priority::Normal)).unwrap();
        q.push(job(2, "b", Priority::High)).unwrap();
        assert_eq!(q.cancel(JobId(1)).unwrap().id.0, 1);
        assert!(q.cancel(JobId(1)).is_none(), "already gone");
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![2, 0]);
    }

    #[test]
    fn requeue_front_restores_dispatch_position_and_credit() {
        let mut q = AdmissionQueue::new(2);
        q.push(job(0, "a", Priority::Normal)).unwrap();
        q.push(job(1, "a", Priority::Normal)).unwrap();
        let dispatched = q.pop_next().unwrap();
        assert_eq!(dispatched.id.0, 0);
        let seq = dispatched.seq;
        // Queue is at capacity again after requeue — allowed by design.
        q.requeue_front(dispatched);
        assert_eq!(q.len(), 2);
        assert!(q.is_full());
        let again = q.pop_next().unwrap();
        assert_eq!(again.id.0, 0, "requeued job dispatches before its successors");
        assert_eq!(again.seq, seq, "original admission seq is preserved");
        // The refunded credit means tenant `a` is charged once net for
        // the duplicated dispatch of job 0.
        assert_eq!(q.pop_next().unwrap().id.0, 1);
    }

    #[test]
    fn seq_stamps_are_monotone() {
        let mut q = AdmissionQueue::new(16);
        for i in 0..3 {
            q.push(job(i, "a", Priority::Normal)).unwrap();
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop_next()).map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
