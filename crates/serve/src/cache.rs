//! Bounded result cache keyed by [`CircuitKey`].
//!
//! Stores the full cold-run payload (counts + engine stats) so a hit
//! replays the original result bit-for-bit. Eviction is FIFO on insert
//! order — simple, deterministic, and adequate for the repeat-heavy
//! workloads the paper's batch mode produces (the same parametrized
//! QCrank template submitted across many input images).

use crate::hashkey::CircuitKey;
use qgear_statevec::{Counts, ExecStats};
use qgear_telemetry::{counter_inc, names};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The cached payload of one cold run.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Sampled counts from the cold run.
    pub counts: Option<Counts>,
    /// Engine counters from the cold run.
    pub stats: ExecStats,
}

/// A FIFO-bounded map from canonical circuit key to cold-run result.
#[derive(Debug, Default)]
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<u64, CachedResult>,
    order: VecDeque<u64>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (`0` disables caching).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a key. Counts `serve.cache_hits` / `serve.cache_misses`.
    pub fn get(&self, key: CircuitKey) -> Option<CachedResult> {
        let hit = self.entries.get(&key.0).cloned();
        if hit.is_some() {
            counter_inc(names::SERVE_CACHE_HITS);
        } else {
            counter_inc(names::SERVE_CACHE_MISSES);
        }
        hit
    }

    /// Insert a cold-run result, evicting the oldest entry when full.
    pub fn insert(&mut self, key: CircuitKey, result: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.insert(key.0, result).is_none() {
            self.order.push_back(key.0);
            while self.entries.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.entries.remove(&oldest);
                    counter_inc(names::SERVE_CACHE_EVICTIONS);
                }
            }
        }
    }

    /// Invalidate one entry (e.g. detected corruption). Returns whether
    /// an entry was present.
    pub fn invalidate(&mut self, key: CircuitKey) -> bool {
        if self.entries.remove(&key.0).is_some() {
            self.order.retain(|&k| k != key.0);
            true
        } else {
            false
        }
    }
}

/// A cached measurement marginal: the exact `f64` outcome probabilities
/// and measured qubits of one evolved state, reusable across *any*
/// `(shots, seed)` sampling request. Every sampler shares one
/// probability-conversion point (`qgear_statevec::marginal_of_runs`), so
/// replaying from here is bit-identical to re-simulating.
#[derive(Debug, Clone)]
pub struct CachedMarginal {
    /// Outcome probabilities over the measured qubits, in `f64`.
    pub probs: Arc<Vec<f64>>,
    /// The measured qubits, in key-bit order.
    pub measured: Arc<Vec<u32>>,
    /// Engine counters of the evolution that produced the marginal.
    pub stats: ExecStats,
}

impl CachedMarginal {
    /// Bytes the entry keeps resident: its probability table, `2^n · 8`
    /// for `n` measured qubits (128 KiB at 14, 8 MiB at 20). The qubit
    /// list and counters beside it are a few hundred bytes at any size.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&self.probs[..])
    }
}

/// Marginal bytes the cache keeps resident at most. An entry count alone
/// bounds nothing — a marginal doubles with every measured qubit — so the
/// cache is bounded by both: 64 entries of a 14-qubit job never come near
/// this, four 20-qubit ones fill it, and a marginal larger than the whole
/// budget is not cached at all.
const MARGINAL_BUDGET_BYTES: usize = 32 << 20;

/// A FIFO map from sampling-independent state key to cached marginal,
/// bounded by entry count and by `MARGINAL_BUDGET_BYTES` — the "evolve
/// once, sample many" half of the serving cache.
#[derive(Debug, Default)]
pub struct MarginalCache {
    capacity: usize,
    entries: HashMap<u64, CachedMarginal>,
    order: VecDeque<u64>,
    /// Sum of `resident_bytes` over `entries`.
    bytes: usize,
}

impl MarginalCache {
    /// A cache holding at most `capacity` marginals (`0` disables it) and
    /// at most 32 MiB of them.
    pub fn new(capacity: usize) -> Self {
        MarginalCache { capacity, ..Default::default() }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a state key. Counts `serve.state_cache_hits` / `_misses`.
    pub fn get(&self, key: CircuitKey) -> Option<CachedMarginal> {
        let hit = self.entries.get(&key.0).cloned();
        if hit.is_some() {
            counter_inc(names::SERVE_STATE_CACHE_HITS);
        } else {
            counter_inc(names::SERVE_STATE_CACHE_MISSES);
        }
        hit
    }

    /// Insert a marginal, evicting oldest-first while the cache is over
    /// its entry count or its byte budget. A marginal larger than the
    /// budget is skipped; one re-inserted under its key keeps its place
    /// in the eviction order.
    pub fn insert(&mut self, key: CircuitKey, marginal: CachedMarginal) {
        let size = marginal.resident_bytes();
        if self.capacity == 0 || size > MARGINAL_BUDGET_BYTES {
            return;
        }
        self.bytes += size;
        match self.entries.insert(key.0, marginal) {
            Some(replaced) => self.bytes -= replaced.resident_bytes(),
            None => self.order.push_back(key.0),
        }
        while self.entries.len() > self.capacity || self.bytes > MARGINAL_BUDGET_BYTES {
            let Some(oldest) = self.order.pop_front() else { break };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.bytes -= evicted.resident_bytes();
                counter_inc(names::SERVE_CACHE_EVICTIONS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(total: u64) -> CachedResult {
        let mut counts = Counts::default();
        counts.map.insert(0, total);
        CachedResult { counts: Some(counts), stats: ExecStats::default() }
    }

    #[test]
    fn round_trips_a_result() {
        let mut cache = ResultCache::new(4);
        cache.insert(CircuitKey(7), payload(10));
        let got = cache.get(CircuitKey(7)).unwrap();
        assert_eq!(got.counts.unwrap().total(), 10);
        assert!(cache.get(CircuitKey(8)).is_none());
    }

    #[test]
    fn evicts_fifo_at_capacity() {
        let mut cache = ResultCache::new(2);
        cache.insert(CircuitKey(1), payload(1));
        cache.insert(CircuitKey(2), payload(2));
        cache.insert(CircuitKey(3), payload(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(CircuitKey(1)).is_none(), "oldest evicted");
        assert!(cache.get(CircuitKey(2)).is_some());
        assert!(cache.get(CircuitKey(3)).is_some());
    }

    #[test]
    fn invalidate_removes_entry_and_frees_a_slot() {
        let mut cache = ResultCache::new(2);
        cache.insert(CircuitKey(1), payload(1));
        cache.insert(CircuitKey(2), payload(2));
        assert!(cache.invalidate(CircuitKey(1)));
        assert!(!cache.invalidate(CircuitKey(1)), "already gone");
        assert!(cache.get(CircuitKey(1)).is_none());
        // The freed slot is genuinely free: two more inserts keep key 2
        // only until capacity forces FIFO eviction of it.
        cache.insert(CircuitKey(3), payload(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(CircuitKey(2)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(CircuitKey(1), payload(1));
        assert!(cache.is_empty());
        assert!(cache.get(CircuitKey(1)).is_none());
    }

    #[test]
    fn marginal_cache_round_trips_and_evicts() {
        let mut cache = MarginalCache::new(2);
        assert!(cache.is_empty());
        let entry = CachedMarginal {
            probs: Arc::new(vec![0.5, 0.5]),
            measured: Arc::new(vec![0]),
            stats: ExecStats::default(),
        };
        cache.insert(CircuitKey(1), entry.clone());
        cache.insert(CircuitKey(2), entry.clone());
        cache.insert(CircuitKey(3), entry);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(CircuitKey(1)).is_none(), "oldest evicted");
        let hit = cache.get(CircuitKey(3)).unwrap();
        assert_eq!(*hit.probs, vec![0.5, 0.5]);
        let mut off = MarginalCache::new(0);
        off.insert(CircuitKey(9), cache.get(CircuitKey(2)).unwrap());
        assert!(off.is_empty(), "zero capacity disables the cache");

        // The byte bound: 20-qubit marginals are 8 MiB each, so the 32 MiB
        // budget holds four of them however many entries are allowed.
        let dense = |qubits: u32| CachedMarginal {
            probs: Arc::new(vec![0.0; 1 << qubits]),
            measured: Arc::new((0..qubits).collect()),
            stats: ExecStats::default(),
        };
        let mut cache = MarginalCache::new(64);
        for key in 0..6 {
            cache.insert(CircuitKey(key), dense(20));
            assert!(cache.bytes <= MARGINAL_BUDGET_BYTES);
        }
        assert_eq!(cache.len(), 4);
        assert!(cache.get(CircuitKey(1)).is_none() && cache.get(CircuitKey(2)).is_some());
        // Re-inserting under a held key replaces the entry in place: bytes
        // follow the new size and the key keeps its turn in the order.
        cache.insert(CircuitKey(2), dense(10));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.bytes, (3 << 23) + (1 << 13));
        cache.insert(CircuitKey(6), dense(20));
        assert!(cache.get(CircuitKey(2)).is_none(), "still the oldest, evicted first");
        assert!(cache.get(CircuitKey(3)).is_some());
        assert_eq!((cache.len(), cache.bytes), (4, 4 << 23));
        // Larger than the whole budget: skipped, and nothing is evicted
        // to make room for it.
        cache.insert(CircuitKey(8), dense(23));
        assert!(cache.get(CircuitKey(8)).is_none());
        assert_eq!((cache.len(), cache.bytes), (4, 4 << 23));
    }

    #[test]
    fn reinsert_does_not_duplicate_order() {
        let mut cache = ResultCache::new(2);
        cache.insert(CircuitKey(1), payload(1));
        cache.insert(CircuitKey(1), payload(9));
        cache.insert(CircuitKey(2), payload(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(CircuitKey(1)).unwrap().counts.unwrap().total(), 9);
    }
}
