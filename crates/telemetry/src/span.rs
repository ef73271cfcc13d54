//! Span registry: RAII guards, per-thread nesting, global storage.

use crate::snapshot::{SpanRecord, TelemetrySnapshot};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Detail cap: beyond this many stored spans, completions are counted
/// but not stored, so a runaway loop cannot exhaust memory.
const MAX_STORED_SPANS: usize = 65_536;

/// Everything recorded since the last reset.
pub(crate) struct Registry {
    pub(crate) spans: Vec<SpanRecord>,
    pub(crate) dropped_spans: u64,
    pub(crate) counters: BTreeMap<String, u128>,
    pub(crate) histograms: BTreeMap<String, crate::snapshot::HistogramSummary>,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            spans: Vec::new(),
            dropped_spans: 0,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

/// Lock the global registry. A panic elsewhere while the lock was held
/// must not take telemetry down with it: every update is one push or
/// one map entry, so the data is valid at every step and a poisoned
/// guard is simply recovered.
pub(crate) fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Monotonic epoch all span offsets are measured from (first use of
/// telemetry in the process).
fn now_ns() -> u128 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos()
}

/// RAII handle for an open span; records the span when dropped.
///
/// Inert (records nothing, costs nothing beyond the construction check)
/// when telemetry was disabled at creation.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    path: String,
    name: &'static str,
    depth: u32,
    start_ns: u128,
}

/// Open a span named `name` nested under this thread's current span.
/// Prefer the [`crate::span!`] macro at call sites.
#[inline]
pub fn start_span(name: &'static str) -> SpanGuard {
    if !crate::is_enabled() {
        return SpanGuard { active: None };
    }
    let (path, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        (stack.join("/"), (stack.len() - 1) as u32)
    });
    SpanGuard { active: Some(ActiveSpan { path, name, depth, start_ns: now_ns() }) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else { return };
        let duration_ns = now_ns().saturating_sub(span.start_ns);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(stack.last().copied(), Some(span.name), "span drop order");
            stack.pop();
        });
        let mut registry = registry();
        if registry.spans.len() >= MAX_STORED_SPANS {
            registry.dropped_spans += 1;
            return;
        }
        registry.spans.push(SpanRecord {
            path: span.path,
            name: span.name.to_owned(),
            depth: span.depth,
            start_ns: span.start_ns,
            duration_ns,
        });
    }
}

pub(crate) fn reset_registry() {
    let mut registry = registry();
    registry.spans.clear();
    registry.dropped_spans = 0;
    registry.counters.clear();
    registry.histograms.clear();
}

pub(crate) fn registry_snapshot() -> TelemetrySnapshot {
    let registry = registry();
    TelemetrySnapshot {
        spans: registry.spans.clone(),
        dropped_spans: registry.dropped_spans,
        counters: registry.counters.clone(),
        histograms: registry.histograms.clone(),
    }
}
