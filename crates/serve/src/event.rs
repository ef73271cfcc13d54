//! The service's one audit stream.
//!
//! Every decision an operator, a test or an oracle may later ask about is
//! one [`ServiceEvent`] in one log, in the order the state lock serialized
//! it and stamped with the service clock under that lock. One order and
//! one stamp make questions that span kinds answerable ("was generation 2
//! written before the shard worker was lost?"), and no fact is recorded
//! twice: a shard migration *is* the `Checkpoint(Resumed)` that follows a
//! `Shard(WorkerLost)`.

use crate::batch::BatchRecord;
use crate::checkpoint_store::CheckpointRecord;
use crate::job::JobId;
use crate::scheduler::DispatchRecord;
use crate::shard::ShardRecord;
use std::time::Duration;

/// One entry of [`crate::Service::events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEvent {
    /// Service-clock reading when the event was recorded. Stamps never
    /// decrease along the log; under a virtual clock they are exact.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
}

/// What a [`ServiceEvent`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A job was handed to a worker (solo, or pulled into a batch).
    Dispatch(DispatchRecord),
    /// A checkpoint write, or one step of the recovery ladder.
    Checkpoint(CheckpointRecord),
    /// A coalesced flush settled; the stamp is the instant its last
    /// member was published or requeued.
    Batch(BatchRecord),
    /// A shard group started, faulted or completed.
    Shard(ShardRecord),
}

impl ServiceEvent {
    /// Whether the event is part of `job`'s life. Every event concerns at
    /// least one job; a batch flush concerns every member.
    pub fn concerns(&self, job: JobId) -> bool {
        match &self.kind {
            EventKind::Dispatch(r) => r.id == job,
            EventKind::Batch(r) => r.members.iter().any(|&(id, _)| id == job.0),
            EventKind::Checkpoint(
                CheckpointRecord::Wrote { job: j, .. }
                | CheckpointRecord::VerifyFailed { job: j, .. }
                | CheckpointRecord::Resumed { job: j, .. }
                | CheckpointRecord::ColdRestart { job: j },
            )
            | EventKind::Shard(
                ShardRecord::Started { job: j, .. }
                | ShardRecord::WorkerLost { job: j, .. }
                | ShardRecord::LinkFault { job: j, .. }
                | ShardRecord::Completed { job: j, .. },
            ) => *j == job.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchMemberDisposition;

    fn at(ms: u64, kind: EventKind) -> ServiceEvent {
        ServiceEvent { at: Duration::from_millis(ms), kind }
    }

    #[test]
    fn events_carry_the_clock_reading_and_key_on_the_jobs_they_concern() {
        let members = vec![
            (1, BatchMemberDisposition::Executed),
            (3, BatchMemberDisposition::Requeued),
        ];
        let flush = at(9, EventKind::Batch(BatchRecord { members, formed_at: Duration::ZERO }));
        assert_eq!(flush.at, Duration::from_millis(9));
        assert!(flush.concerns(JobId(1)) && flush.concerns(JobId(3)), "every member");
        assert!(!flush.concerns(JobId(2)));

        let lost = ShardRecord::WorkerLost { job: 5, shard: 0, after_segments: 1 };
        assert!(at(9, EventKind::Shard(lost)).concerns(JobId(5)));
        let cold = CheckpointRecord::ColdRestart { job: 5 };
        assert!(at(9, EventKind::Checkpoint(cold)).concerns(JobId(5)));
    }
}
