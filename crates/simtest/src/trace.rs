//! The trace: everything observable about one scenario run, keyed by
//! virtual time.
//!
//! A run's trace is the harness's ground truth for determinism: two
//! runs of the same scenario must render byte-identical traces (and
//! therefore equal [`Trace::hash`]es). Events carry virtual-time stamps
//! in nanoseconds, job ids in *admission* coordinates, and outcome
//! summaries with a content hash of the sampled counts — enough to
//! detect any divergence in scheduling, retries, caching, or sampling.

use qgear_statevec::Counts;
use std::fmt::Write as _;
use std::time::Duration;

/// Compressed terminal outcome of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeSummary {
    /// Completed with a result.
    Completed {
        /// Execution attempts consumed (0 for cache hits).
        attempts: u32,
        /// Served from the full-result cache.
        from_cache: bool,
        /// Served from the state-marginal cache.
        from_state_cache: bool,
        /// Content hash of the sampled counts (see [`counts_hash`]).
        counts_hash: u64,
    },
    /// Failed terminally after `attempts` attempts.
    Failed {
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// Cancelled before completing.
    Cancelled,
    /// Deadline passed while queued.
    Expired,
}

/// One trace entry. Times are virtual nanoseconds; jobs are admission
/// ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A job was submitted (and accepted).
    Submit {
        /// Virtual time, ns.
        at_ns: u128,
        /// Admission id.
        job: u64,
        /// Tenant name.
        tenant: &'static str,
        /// Priority index.
        priority: usize,
    },
    /// A cancel was requested.
    Cancel {
        /// Virtual time, ns.
        at_ns: u128,
        /// Admission id.
        job: u64,
        /// Whether the job was still queued (removed immediately).
        while_queued: bool,
    },
    /// Virtual time was advanced to this reading.
    Advance {
        /// New virtual time, ns.
        to_ns: u128,
    },
    /// A job reached its terminal outcome.
    Outcome {
        /// Virtual time the outcome was published, ns.
        at_ns: u128,
        /// Admission id.
        job: u64,
        /// What happened.
        outcome: OutcomeSummary,
    },
}

/// An ordered event log for one scenario run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in harness order: ops as executed, then outcomes by id.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Append one event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Render one line per event — the byte-exact replay artifact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            let _ = writeln!(out, "{event:?}");
        }
        out
    }

    /// FNV-1a over the rendered trace: equal hashes ⇔ byte-identical
    /// traces (modulo 64-bit collisions).
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.render().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Virtual-time stamp in nanoseconds.
pub fn ns(t: Duration) -> u128 {
    t.as_nanos()
}

/// Content hash of sampled counts: folds the `(key, count)` pairs, in
/// key order, plus the measured-qubit list through splitmix64.
/// `None` (no measurements) hashes to a fixed sentinel.
pub fn counts_hash(counts: &Option<Counts>) -> u64 {
    let Some(counts) = counts else {
        return 0x6e6f_6e65; // "none"
    };
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, v: u64| -> u64 {
        let mut z = h.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for &q in &counts.qubits {
        h = mix(h, u64::from(q));
    }
    for (&k, &n) in &counts.map {
        h = mix(h, k);
        h = mix(h, n);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(u64, u64)]) -> Counts {
        Counts { qubits: vec![0, 1], map: pairs.iter().copied().collect() }
    }

    #[test]
    fn equal_traces_hash_equal() {
        let mut a = Trace::default();
        let mut b = Trace::default();
        for t in [&mut a, &mut b] {
            t.push(TraceEvent::Submit { at_ns: 0, job: 1, tenant: "alice", priority: 1 });
            t.push(TraceEvent::Advance { to_ns: 500 });
        }
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
        b.push(TraceEvent::Cancel { at_ns: 500, job: 1, while_queued: true });
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn counts_hash_is_insertion_order_independent() {
        let a = counts(&[(0, 10), (3, 22)]);
        let b = counts(&[(3, 22), (0, 10)]);
        assert_eq!(counts_hash(&Some(a)), counts_hash(&Some(b)));
    }

    #[test]
    fn counts_hash_detects_any_difference() {
        let base = counts_hash(&Some(counts(&[(0, 10), (3, 22)])));
        assert_ne!(base, counts_hash(&Some(counts(&[(0, 11), (3, 22)]))));
        assert_ne!(base, counts_hash(&Some(counts(&[(1, 10), (3, 22)]))));
        assert_ne!(base, counts_hash(&None));
    }

    #[test]
    fn render_is_line_per_event() {
        let mut t = Trace::default();
        t.push(TraceEvent::Advance { to_ns: 1 });
        t.push(TraceEvent::Outcome {
            at_ns: 2,
            job: 0,
            outcome: OutcomeSummary::Expired,
        });
        assert_eq!(t.render().lines().count(), 2);
    }
}
