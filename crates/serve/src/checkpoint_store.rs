//! The per-job generational checkpoint store.
//!
//! Workers executing a job in segments deposit *encoded* checkpoint
//! bytes here at segment boundaries. The store is deliberately dumb: it
//! never decodes or verifies what it holds — verification happens at
//! *resume* time, in the recovery ladder, so corruption introduced at
//! any point between write and restore (torn write, bit rot, an
//! injected [`crate::FaultKind::CorruptCheckpoint`]) is caught by the
//! codec's CRC framing exactly when it matters.
//!
//! Per job the store keeps a bounded sliding window of the newest
//! `max_generations` checkpoints. Generation numbers are monotone per
//! job and never reused, even across worker deaths, so the fault
//! schedule can target "generation 1 of job 3" unambiguously and the
//! telemetry log reads causally. Once the job's outcome is published the
//! store forgets it, counter included: job ids are never reused, so
//! nothing writes for that id again, and the store holds only jobs in
//! flight.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One stored checkpoint generation: opaque encoded bytes plus the
/// coordinates the recovery ladder and the simtest oracles need without
/// decoding. Cloning one clones a handle: the ladder takes its copy of
/// the window under the service lock, and a generation is megabytes.
#[derive(Debug, Clone)]
pub struct CheckpointGeneration {
    /// Per-job monotone generation number (0-based, never reused).
    pub generation: u64,
    /// Schedule cursor the checkpoint was taken at (segments applied).
    pub cursor: u64,
    /// The encoded checkpoint (`qgear_statevec::checkpoint` wire bytes).
    pub bytes: Arc<Vec<u8>>,
}

/// Everything the service records about checkpoint activity — the
/// [`crate::EventKind::Checkpoint`] events, in order, are the recovery
/// ladder's decisions for the simtest oracles to replay. Jobs are
/// identified by their serving id (`JobId.0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointRecord {
    /// A checkpoint generation was written at `cursor`.
    Wrote {
        /// Serving job id.
        job: u64,
        /// Generation number written.
        generation: u64,
        /// Schedule cursor at the write.
        cursor: u64,
    },
    /// A generation failed integrity verification during recovery and
    /// was dropped, never loaded.
    VerifyFailed {
        /// Serving job id.
        job: u64,
        /// Generation that failed.
        generation: u64,
    },
    /// An attempt resumed from a verified generation at `cursor`.
    Resumed {
        /// Serving job id.
        job: u64,
        /// Generation resumed from.
        generation: u64,
        /// Cursor execution continued from.
        cursor: u64,
    },
    /// Generations existed but none survived verification; the attempt
    /// re-ran the job from the beginning.
    ColdRestart {
        /// Serving job id.
        job: u64,
    },
}

/// One job's retained window and the number its next write gets.
#[derive(Debug, Default)]
struct JobGenerations {
    window: VecDeque<CheckpointGeneration>,
    next: u64,
}

/// Bounded, generational checkpoint storage for every in-flight job.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    jobs: HashMap<u64, JobGenerations>,
    max_generations: usize,
}

impl CheckpointStore {
    /// A store keeping at most `max_generations` checkpoints per job
    /// (older generations are evicted as newer ones arrive). A bound of
    /// zero disables retention entirely.
    pub fn new(max_generations: usize) -> Self {
        CheckpointStore { jobs: HashMap::new(), max_generations }
    }

    /// The generation number the next write for `job` will get.
    /// Monotone per job and unaffected by eviction; 0 again once
    /// [`Self::clear`] has forgotten the job.
    pub fn next_generation(&self, job: u64) -> u64 {
        self.jobs.get(&job).map_or(0, |j| j.next)
    }

    /// Record a new checkpoint for `job`, returning its generation
    /// number. Evicts the oldest retained generation when the window is
    /// full.
    pub fn record(&mut self, job: u64, cursor: u64, bytes: Vec<u8>) -> u64 {
        let entry = self.jobs.entry(job).or_default();
        let generation = entry.next;
        entry.next += 1;
        if self.max_generations == 0 {
            return generation;
        }
        if entry.window.len() >= self.max_generations {
            entry.window.pop_front();
        }
        entry.window.push_back(CheckpointGeneration { generation, cursor, bytes: Arc::new(bytes) });
        generation
    }

    /// Retained generations for `job`, newest first — the order the
    /// recovery ladder tries them in.
    pub fn newest_first(&self, job: u64) -> Vec<CheckpointGeneration> {
        self.jobs
            .get(&job)
            .map(|j| j.window.iter().rev().cloned().collect())
            .unwrap_or_default()
    }

    /// Drop one generation of `job` (after it failed verification).
    pub fn drop_generation(&mut self, job: u64, generation: u64) {
        if let Some(entry) = self.jobs.get_mut(&job) {
            entry.window.retain(|g| g.generation != generation);
        }
    }

    /// Forget `job` entirely — retained generations and the generation
    /// counter. Called once its outcome is published (it completed or
    /// was terminally failed/cancelled); job ids are never reused, so
    /// nothing writes for it again.
    pub fn clear(&mut self, job: u64) {
        self.jobs.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_monotone_and_bounded() {
        let mut store = CheckpointStore::new(2);
        assert_eq!(store.record(7, 1, vec![1]), 0);
        assert_eq!(store.record(7, 2, vec![2]), 1);
        assert_eq!(store.record(7, 3, vec![3]), 2);
        let window = store.newest_first(7);
        assert_eq!(
            window.iter().map(|g| g.generation).collect::<Vec<_>>(),
            vec![2, 1],
            "newest first, oldest evicted"
        );
        assert_eq!(window[0].cursor, 3);
    }

    #[test]
    fn the_ladder_gets_handles_not_copies() {
        let mut store = CheckpointStore::new(2);
        store.record(3, 1, vec![9; 1 << 16]);
        let (first, second) = (store.newest_first(3), store.newest_first(3));
        assert!(Arc::ptr_eq(&first[0].bytes, &second[0].bytes));
    }

    #[test]
    fn clear_forgets_the_window_and_the_counter() {
        let mut store = CheckpointStore::new(4);
        store.record(1, 1, vec![]);
        store.record(1, 2, vec![]);
        store.record(2, 1, vec![]);
        store.clear(1);
        assert!(store.newest_first(1).is_empty());
        assert_eq!(store.next_generation(1), 0, "nothing is kept for a cleared job");
        assert_eq!(store.next_generation(2), 1, "other jobs are untouched");
        assert_eq!(store.jobs.len(), 1);
    }

    #[test]
    fn drop_generation_removes_only_its_target() {
        let mut store = CheckpointStore::new(3);
        store.record(2, 1, vec![]);
        store.record(2, 2, vec![]);
        store.drop_generation(2, 1);
        let left = store.newest_first(2);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].generation, 0);
    }

    #[test]
    fn jobs_are_isolated() {
        let mut store = CheckpointStore::new(2);
        store.record(1, 1, vec![]);
        assert!(!store.newest_first(1).is_empty());
        assert!(store.newest_first(2).is_empty());
        assert_eq!(store.next_generation(2), 0);
    }

    #[test]
    fn zero_bound_disables_retention() {
        let mut store = CheckpointStore::new(0);
        assert_eq!(store.record(1, 1, vec![]), 0);
        assert!(store.newest_first(1).is_empty());
        assert_eq!(store.next_generation(1), 1, "counter still advances");
    }
}
