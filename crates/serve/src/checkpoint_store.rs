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
//! flight — plus spare write buffers.
//!
//! **Spares.** A generation the window evicts, and every generation of a
//! job the store forgets, is a multi-MiB buffer whose pages are already
//! faulted in. When its handle is the last (`Arc::try_unwrap`; one the
//! recovery ladder still holds is simply let go) it becomes a spare, and
//! the next write takes the smallest spare that holds a whole checkpoint
//! ([`CheckpointStore::take_spare`]) instead of a fresh allocation — in
//! steady state a write faults in no page. The spares number at most
//! `workers × (max_generations + 1)`, the most buffers the workers hold
//! at once, and a fresh allocation made because none fits replaces one,
//! so live and spare buffers together never outnumber what the writers
//! hold at their peak; the spares do stay resident between writes.
//! Buffers the store lets go of are handed back to the caller, which
//! drops them once the service lock is released.

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

/// Bounded, generational checkpoint storage for every in-flight job, and
/// the spare buffers the generations it drops leave behind.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    jobs: HashMap<u64, JobGenerations>,
    max_generations: usize,
    spares: Vec<Vec<u8>>,
    max_spares: usize,
}

impl CheckpointStore {
    /// A store keeping at most `max_generations` checkpoints per job
    /// (older generations are evicted as newer ones arrive; a bound of
    /// zero disables retention entirely), and at most `workers ×
    /// (max_generations + 1)` spare buffers — what `workers` writers
    /// hold at once.
    pub fn new(max_generations: usize, workers: usize) -> Self {
        CheckpointStore {
            jobs: HashMap::new(),
            max_generations,
            spares: Vec::new(),
            max_spares: workers * (max_generations + 1),
        }
    }

    /// The generation number the next write for `job` will get.
    /// Monotone per job and unaffected by eviction; 0 again once
    /// [`Self::clear`] has forgotten the job.
    pub fn next_generation(&self, job: u64) -> u64 {
        self.jobs.get(&job).map_or(0, |j| j.next)
    }

    /// A buffer for the next write, which needs `capacity` bytes: the
    /// smallest spare that holds that much. When none does, a fresh one
    /// is about to be allocated, so the largest spare is handed out in
    /// its place for the caller to drop (outside the lock) first. `None`
    /// when there is no spare.
    pub fn take_spare(&mut self, capacity: usize) -> Option<Vec<u8>> {
        let spares = self.spares.iter().enumerate();
        let best_fit = spares
            .clone()
            .filter(|(_, b)| b.capacity() >= capacity)
            .min_by_key(|(_, b)| b.capacity());
        let (at, _) = best_fit.or_else(|| spares.max_by_key(|(_, b)| b.capacity()))?;
        Some(self.spares.swap_remove(at))
    }

    /// Record a new checkpoint for `job`, returning its generation
    /// number and the buffers to drop once the lock is released. Evicts
    /// the oldest retained generation when the window is full (under a
    /// bound of zero, the new one at once) into the spares.
    #[must_use = "drop the released buffers once the service lock is released"]
    pub fn record(&mut self, job: u64, cursor: u64, bytes: Vec<u8>) -> (u64, Vec<Arc<Vec<u8>>>) {
        let entry = self.jobs.entry(job).or_default();
        let generation = entry.next;
        entry.next += 1;
        entry.window.push_back(CheckpointGeneration { generation, cursor, bytes: Arc::new(bytes) });
        let evict = entry.window.len().saturating_sub(self.max_generations);
        let evicted: Vec<_> = entry.window.drain(..evict).collect();
        (generation, self.recycle(evicted))
    }

    /// Retained generations for `job`, newest first — the order the
    /// recovery ladder tries them in.
    pub fn newest_first(&self, job: u64) -> Vec<CheckpointGeneration> {
        self.jobs
            .get(&job)
            .map(|j| j.window.iter().rev().cloned().collect())
            .unwrap_or_default()
    }

    /// Drop one generation of `job` (after it failed verification). The
    /// ladder that calls this holds a handle to it, so nothing is freed
    /// here.
    pub fn drop_generation(&mut self, job: u64, generation: u64) {
        if let Some(entry) = self.jobs.get_mut(&job) {
            entry.window.retain(|g| g.generation != generation);
        }
    }

    /// Forget `job` entirely — retained generations, which become spares,
    /// and the generation counter. Called once its outcome is published
    /// (it completed or was terminally failed/cancelled); job ids are
    /// never reused, so nothing writes for it again. Returns the buffers
    /// to drop once the lock is released.
    #[must_use = "drop the released buffers once the service lock is released"]
    pub fn clear(&mut self, job: u64) -> Vec<Arc<Vec<u8>>> {
        let window = self.jobs.remove(&job).map(|j| j.window).unwrap_or_default();
        self.recycle(window)
    }

    /// Keep what it can of `generations` as spares: a buffer whose handle
    /// is the last, while there is room. Returns the rest.
    fn recycle(
        &mut self,
        generations: impl IntoIterator<Item = CheckpointGeneration>,
    ) -> Vec<Arc<Vec<u8>>> {
        let mut released = Vec::new();
        for g in generations {
            if self.spares.len() >= self.max_spares {
                released.push(g.bytes);
                continue;
            }
            match Arc::try_unwrap(g.bytes) {
                Ok(buffer) => self.spares.push(buffer),
                Err(held) => released.push(held),
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_monotone_and_bounded() {
        let mut store = CheckpointStore::new(2, 1);
        assert_eq!(store.record(7, 1, vec![1]).0, 0);
        assert_eq!(store.record(7, 2, vec![2]).0, 1);
        assert_eq!(store.record(7, 3, vec![3]).0, 2);
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
        let mut store = CheckpointStore::new(2, 1);
        let _ = store.record(3, 1, vec![9; 1 << 16]);
        let (first, second) = (store.newest_first(3), store.newest_first(3));
        assert!(Arc::ptr_eq(&first[0].bytes, &second[0].bytes));
    }

    #[test]
    fn clear_forgets_the_window_and_the_counter() {
        let mut store = CheckpointStore::new(4, 1);
        let _ = store.record(1, 1, vec![]);
        let _ = store.record(1, 2, vec![]);
        let _ = store.record(2, 1, vec![]);
        let _ = store.clear(1);
        assert!(store.newest_first(1).is_empty());
        assert_eq!(store.next_generation(1), 0, "nothing is kept for a cleared job");
        assert_eq!(store.next_generation(2), 1, "other jobs are untouched");
        assert_eq!(store.jobs.len(), 1);
    }

    #[test]
    fn drop_generation_removes_only_its_target() {
        let mut store = CheckpointStore::new(3, 1);
        let _ = store.record(2, 1, vec![]);
        let _ = store.record(2, 2, vec![]);
        store.drop_generation(2, 1);
        let left = store.newest_first(2);
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].generation, 0);
    }

    #[test]
    fn jobs_are_isolated() {
        let mut store = CheckpointStore::new(2, 1);
        let _ = store.record(1, 1, vec![]);
        assert!(!store.newest_first(1).is_empty());
        assert!(store.newest_first(2).is_empty());
        assert_eq!(store.next_generation(2), 0);
    }

    #[test]
    fn zero_bound_disables_retention() {
        let mut store = CheckpointStore::new(0, 1);
        assert_eq!(store.record(1, 1, vec![]).0, 0);
        assert!(store.newest_first(1).is_empty());
        assert_eq!(store.next_generation(1), 1, "counter still advances");
    }

    /// A write buffer as the stepper driver gets one: a spare that holds
    /// `capacity` bytes, or a fresh allocation.
    fn write_buffer(store: &mut CheckpointStore, capacity: usize) -> Vec<u8> {
        match store.take_spare(capacity) {
            Some(spare) if spare.capacity() >= capacity => spare,
            _ => Vec::with_capacity(capacity),
        }
    }

    #[test]
    fn an_evicted_generation_is_the_next_write() {
        // A window of two: the third write is fresh, and from then on
        // each write goes into the generation the one before it evicted.
        let mut store = CheckpointStore::new(2, 1);
        let mut written = Vec::new();
        for cursor in 0..8 {
            let buffer = write_buffer(&mut store, 4096);
            if cursor >= 3 {
                assert_eq!(buffer.as_ptr(), written[cursor as usize - 3], "write {cursor}");
            }
            written.push(buffer.as_ptr());
            let (_, released) = store.record(5, cursor, buffer);
            assert!(released.is_empty(), "the evicted buffer is a spare, not released");
        }
        assert_eq!(written.iter().collect::<std::collections::BTreeSet<_>>().len(), 3);
    }

    #[test]
    fn a_cleared_job_leaves_its_buffers_to_the_next_one() {
        let mut store = CheckpointStore::new(2, 1);
        let mut held = Vec::new();
        for (cursor, capacity) in [(1, 1000), (2, 3000)] {
            let buffer = Vec::with_capacity(capacity);
            held.push(buffer.as_ptr());
            let _ = store.record(1, cursor, buffer);
        }
        assert!(store.clear(1).is_empty());
        // The smallest spare that holds the write, whichever came first.
        assert_eq!(store.take_spare(2000).map(|b| b.as_ptr()), Some(held[1]));
        assert_eq!(store.take_spare(10).map(|b| b.as_ptr()), Some(held[0]));
        assert!(store.take_spare(10).is_none());
    }

    #[test]
    fn the_best_fit_is_handed_out_and_the_largest_when_nothing_fits() {
        let mut store = CheckpointStore::new(3, 1);
        for (cursor, capacity) in [(1, 100), (2, 10), (3, 1000)] {
            let _ = store.record(4, cursor, Vec::with_capacity(capacity));
        }
        let _ = store.clear(4);
        assert_eq!(store.take_spare(50).map(|b| b.capacity()), Some(100), "the smallest that fits");
        assert_eq!(store.take_spare(5000).map(|b| b.capacity()), Some(1000), "to be dropped");
        assert_eq!(store.spares.len(), 1);
    }

    #[test]
    fn a_generation_the_ladder_holds_is_never_handed_out() {
        let mut store = CheckpointStore::new(1, 1);
        let _ = store.record(9, 1, Vec::with_capacity(64));
        let ladder = store.newest_first(9);
        let (_, released) = store.record(9, 2, Vec::with_capacity(64));
        assert_eq!(released.len(), 1, "evicted while the ladder holds it");
        assert!(Arc::ptr_eq(&released[0], &ladder[0].bytes));
        assert!(store.take_spare(64).is_none());
        let released = store.clear(9);
        assert!(released.is_empty(), "generation 1 had no other holder");
        assert!(store.take_spare(64).is_some());
    }

    #[test]
    fn the_spares_never_outnumber_what_the_workers_hold() {
        // Two workers, two generations: at most six buffers at once.
        let mut store = CheckpointStore::new(2, 2);
        let mut released = 0;
        for job in 0..10 {
            for cursor in 0..3 {
                released += store.record(job, cursor, vec![0; 32]).1.len();
                assert!(store.spares.len() <= 6);
            }
        }
        for job in 0..10 {
            released += store.clear(job).len();
            assert!(store.spares.len() <= 6);
        }
        assert_eq!(store.spares.len(), 6);
        assert_eq!(released, 30 - 6, "every buffer not kept is handed back");
    }

    #[test]
    fn under_a_zero_bound_every_write_reuses_one_buffer() {
        let mut store = CheckpointStore::new(0, 1);
        let first = write_buffer(&mut store, 256);
        let at = first.as_ptr();
        let _ = store.record(3, 0, first);
        for cursor in 1..5 {
            let buffer = write_buffer(&mut store, 256);
            assert_eq!(buffer.as_ptr(), at, "write {cursor}");
            let (_, released) = store.record(3, cursor, buffer);
            assert!(released.is_empty());
        }
    }
}
