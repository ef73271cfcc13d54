//! Instrumentation for the Q-GEAR reproduction: hierarchical spans,
//! named counters and histograms, and JSON export.
//!
//! The paper's headline claims are *performance* claims — pipeline time
//! vs. simulation time, kernel counts before and after fusion, traffic
//! over the simulated inter-GPU fabric. This crate gives every layer of
//! the workspace one vocabulary for reporting those quantities, so a
//! bench binary (or a test) can ask "where did the time go and how much
//! work was done" without each engine growing its own ad-hoc timing.
//!
//! Three primitives, one global registry:
//!
//! - **Spans** ([`span!`]): RAII-timed regions that nest per thread.
//!   `span!("run")` inside `span!("run")`'s scope yields the path
//!   `run/run`. Each completed span records its path, depth, start
//!   offset and duration.
//! - **Counters** ([`counter_add`]): monotonically increasing named
//!   totals (gates applied, fused blocks, bytes moved across the
//!   simulated fabric, shots sampled). Canonical names live in
//!   [`names`].
//! - **Histograms** ([`histogram_record`]): count/min/max/sum summaries
//!   for distributions such as fused-block width.
//!
//! Collection is off by default: every hook first checks one relaxed
//! atomic load and returns immediately when telemetry is disabled, so
//! instrumented hot paths cost a fraction of a percent when not
//! observed. Call [`enable`] to start recording, [`snapshot`] to read,
//! and [`JsonSink::export`] to write the snapshot out.
//!
//! ```
//! qgear_telemetry::reset();
//! qgear_telemetry::enable();
//! {
//!     let _outer = qgear_telemetry::span!("fusion");
//!     let _inner = qgear_telemetry::span!("apply_block");
//!     qgear_telemetry::counter_add(qgear_telemetry::names::GATES_APPLIED, 3);
//! }
//! let snap = qgear_telemetry::snapshot();
//! qgear_telemetry::disable();
//! assert_eq!(snap.counters["gates.applied"], 3);
//! assert!(snap.spans.iter().any(|s| s.path == "fusion/apply_block" && s.depth == 1));
//! ```
//!
//! The JSON schema (version 1) is documented in `docs/TELEMETRY.md` at
//! the workspace root and is exercised by `tests/telemetry.rs`.

pub mod clock;
mod metrics;
pub mod names;
mod sink;
mod snapshot;
mod span;

pub use clock::{Clock, SharedClock, WallClock};
pub use metrics::{counter_add, counter_inc, histogram_record};
pub use sink::JsonSink;
pub use snapshot::{HistogramSummary, SpanRecord, TelemetrySnapshot, SCHEMA_VERSION};
pub use span::{start_span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently being recorded.
///
/// This is the single branch every instrumentation hook takes on its
/// fast path; a relaxed load keeps the disabled cost negligible.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start recording spans, counters and histograms.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording. Already-recorded data stays until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Discard all recorded spans, counters and histograms.
pub fn reset() {
    span::reset_registry();
}

/// Copy out everything recorded so far.
pub fn snapshot() -> TelemetrySnapshot {
    span::registry_snapshot()
}

/// Open a timed span; the returned [`SpanGuard`] ends it on drop.
///
/// Spans nest per thread: a span opened while another is active on the
/// same thread records a `parent/child` path. Bind the guard
/// (`let _span = span!(..)`) so it lives to the end of the region.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::start_span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes tests that touch the global registry; one failing test
    /// must not poison the rest.
    static GUARD: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        GUARD.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        reset();
        disable();
        let _span = span!("ghost");
        counter_add("ghost.counter", 5);
        histogram_record("ghost.hist", 1.0);
        drop(_span);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn spans_nest_and_counters_accumulate() {
        let _g = guard();
        reset();
        enable();
        {
            let _run = span!("run");
            {
                let _fuse = span!("fuse");
                counter_add(names::FUSED_BLOCKS, 2);
            }
            let _sim = span!("simulate");
            counter_add(names::GATES_APPLIED, 10);
            counter_add(names::GATES_APPLIED, 4);
        }
        disable();
        let snap = snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"run"));
        assert!(paths.contains(&"run/fuse"));
        assert!(paths.contains(&"run/simulate"));
        assert_eq!(snap.counters[names::GATES_APPLIED], 14);
        assert_eq!(snap.counters[names::FUSED_BLOCKS], 2);
        let run = snap.spans.iter().find(|s| s.path == "run").unwrap();
        let fuse = snap.spans.iter().find(|s| s.path == "run/fuse").unwrap();
        assert_eq!(run.depth, 0);
        assert_eq!(fuse.depth, 1);
        assert!(fuse.start_ns >= run.start_ns);
        assert!(fuse.start_ns + fuse.duration_ns <= run.start_ns + run.duration_ns);
        reset();
    }

    #[test]
    fn histograms_summarize() {
        let _g = guard();
        reset();
        enable();
        for w in [2.0, 5.0, 3.0] {
            histogram_record("fusion.block_width", w);
        }
        disable();
        let snap = snapshot();
        let h = &snap.histograms["fusion.block_width"];
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.sum, 10.0);
        assert!((h.mean() - 10.0 / 3.0).abs() < 1e-12);
        reset();
    }

    #[test]
    fn cross_thread_spans_do_not_interleave_paths() {
        let _g = guard();
        reset();
        enable();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _outer = span!("device");
                    let _inner = span!("apply_block");
                });
            }
        });
        disable();
        let snap = snapshot();
        assert_eq!(snap.spans.iter().filter(|r| r.path == "device").count(), 2);
        assert_eq!(snap.spans.iter().filter(|r| r.path == "device/apply_block").count(), 2);
        reset();
    }
}
