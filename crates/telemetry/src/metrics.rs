//! Counters and histograms.

use crate::snapshot::HistogramSummary;
use crate::span::registry;

/// Add `delta` to the named counter (created at zero on first use).
///
/// No-op while telemetry is disabled; the check is one relaxed atomic
/// load, making this safe to call from per-gate dispatch loops.
#[inline]
pub fn counter_add(name: &str, delta: u128) {
    if !crate::is_enabled() {
        return;
    }
    let mut registry = registry();
    if let Some(v) = registry.counters.get_mut(name) {
        *v += delta;
    } else {
        registry.counters.insert(name.to_owned(), delta);
    }
}

/// Add one to the named counter.
#[inline]
pub fn counter_inc(name: &str) {
    counter_add(name, 1);
}

/// Record one observation into the named histogram.
///
/// Histograms keep count/min/max/sum (enough for means and bounds
/// without binning decisions). Non-finite values are ignored.
#[inline]
pub fn histogram_record(name: &str, value: f64) {
    if !crate::is_enabled() || !value.is_finite() {
        return;
    }
    let mut registry = registry();
    if let Some(h) = registry.histograms.get_mut(name) {
        h.count += 1;
        h.min = h.min.min(value);
        h.max = h.max.max(value);
        h.sum += value;
    } else {
        registry.histograms.insert(
            name.to_owned(),
            HistogramSummary { count: 1, min: value, max: value, sum: value },
        );
    }
}
