//! Snapshot types and their JSON (schema version 1) encoding.

use serde_json::Value;
use std::collections::BTreeMap;

/// Version stamped into every exported document; bump when the JSON
/// layout changes incompatibly. The layout itself is documented in
/// `docs/TELEMETRY.md`.
pub const SCHEMA_VERSION: u64 = 1;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Slash-joined names of this span and its ancestors on the opening
    /// thread, e.g. `run/fuse`.
    pub path: String,
    /// Leaf name, e.g. `fuse`.
    pub name: String,
    /// Nesting depth on the opening thread (`0` = top level).
    pub depth: u32,
    /// Start offset from the process telemetry epoch, nanoseconds.
    pub start_ns: u128,
    /// Wall-clock duration, nanoseconds.
    pub duration_ns: u128,
}

/// count/min/max/sum summary of a recorded distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSummary {
    /// Mean observation (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// A copy of everything recorded at one point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans completed after the storage cap was hit (counted, not kept).
    pub dropped_spans: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u128>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl TelemetrySnapshot {
    /// Counter value, zero when never touched.
    pub fn counter(&self, name: &str) -> u128 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Completed spans whose leaf name is `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Check that the recorded span tree is *balanced*: every span's
    /// path is consistent with its name and depth, and every nested span
    /// lies inside the time window of some span recorded at its parent
    /// path. A violation means a span guard was leaked, dropped out of
    /// order, or timed against a different clock than its parent — the
    /// simulation harness runs this as one of its oracles.
    ///
    /// Spans dropped past the storage cap make enclosure unverifiable,
    /// so a snapshot with `dropped_spans > 0` is rejected.
    pub fn verify_span_balance(&self) -> Result<(), String> {
        if self.dropped_spans > 0 {
            return Err(format!(
                "{} spans dropped past the storage cap; balance unverifiable",
                self.dropped_spans
            ));
        }
        for span in &self.spans {
            let segments: Vec<&str> = span.path.split('/').collect();
            if segments.last().copied() != Some(span.name.as_str()) {
                return Err(format!(
                    "span path {:?} does not end in its name {:?}",
                    span.path, span.name
                ));
            }
            if segments.len() != span.depth as usize + 1 {
                return Err(format!(
                    "span {:?} has depth {} but {} path segments",
                    span.path,
                    span.depth,
                    segments.len()
                ));
            }
            if span.depth == 0 {
                continue;
            }
            let parent_path = segments[..segments.len() - 1].join("/");
            let end = span.start_ns + span.duration_ns;
            let enclosed = self.spans.iter().any(|p| {
                p.path == parent_path && p.start_ns <= span.start_ns && span.start_ns + span.duration_ns <= p.start_ns + p.duration_ns
            });
            if !enclosed {
                return Err(format!(
                    "span {:?} [{}, {}] ns has no enclosing parent span at path {:?}",
                    span.path, span.start_ns, end, parent_path
                ));
            }
        }
        Ok(())
    }

    /// Encode as a schema-version-1 JSON document.
    pub fn to_value(&self, label: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("path".into(), Value::Str(s.path.clone())),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("depth".into(), Value::U64(u128::from(s.depth))),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("duration_ns".into(), Value::U64(s.duration_ns)),
                ])
            })
            .collect();
        let counters =
            self.counters.iter().map(|(k, &v)| (k.clone(), Value::U64(v))).collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Value::Map(vec![
                        ("count".into(), Value::U64(u128::from(h.count))),
                        ("min".into(), Value::F64(h.min)),
                        ("max".into(), Value::F64(h.max)),
                        ("sum".into(), Value::F64(h.sum)),
                    ]),
                )
            })
            .collect();
        let captured_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        Value::Map(vec![
            ("schema_version".into(), Value::U64(u128::from(SCHEMA_VERSION))),
            ("label".into(), Value::Str(label.to_owned())),
            ("captured_unix_ms".into(), Value::U64(captured_unix_ms)),
            ("dropped_spans".into(), Value::U64(u128::from(self.dropped_spans))),
            ("spans".into(), Value::Seq(spans)),
            ("counters".into(), Value::Map(counters)),
            ("histograms".into(), Value::Map(histograms)),
        ])
    }

    /// Decode a schema-version-1 document; returns `(label, snapshot)`.
    ///
    /// Strict on schema version, lenient on unknown extra keys (so the
    /// schema can grow additively without breaking old readers).
    pub fn from_value(value: &Value) -> Result<(String, TelemetrySnapshot), String> {
        let version = value["schema_version"]
            .as_u64()
            .ok_or("missing schema_version")?;
        if u128::from(version) != u128::from(SCHEMA_VERSION) {
            return Err(format!("unsupported schema_version {version}"));
        }
        let label = value["label"].as_str().ok_or("missing label")?.to_owned();
        let spans = value["spans"]
            .as_array()
            .ok_or("missing spans")?
            .iter()
            .map(|s| {
                Ok(SpanRecord {
                    path: s["path"].as_str().ok_or("span missing path")?.to_owned(),
                    name: s["name"].as_str().ok_or("span missing name")?.to_owned(),
                    depth: s["depth"].as_u64().ok_or("span missing depth")? as u32,
                    start_ns: s["start_ns"].as_u128().ok_or("span missing start_ns")?,
                    duration_ns: s["duration_ns"]
                        .as_u128()
                        .ok_or("span missing duration_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = value["counters"]
            .as_object()
            .ok_or("missing counters")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_u128().ok_or("non-integer counter")?)))
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        let histograms = value["histograms"]
            .as_object()
            .ok_or("missing histograms")?
            .iter()
            .map(|(k, h)| {
                Ok((
                    k.clone(),
                    HistogramSummary {
                        count: h["count"].as_u64().ok_or("histogram missing count")?,
                        min: h["min"].as_f64().ok_or("histogram missing min")?,
                        max: h["max"].as_f64().ok_or("histogram missing max")?,
                        sum: h["sum"].as_f64().ok_or("histogram missing sum")?,
                    },
                ))
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        let dropped_spans = value["dropped_spans"].as_u64().unwrap_or(0);
        Ok((label, TelemetrySnapshot { spans, dropped_spans, counters, histograms }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: vec![SpanRecord {
                path: "run/fuse".into(),
                name: "fuse".into(),
                depth: 1,
                start_ns: 120,
                duration_ns: 30,
            }],
            dropped_spans: 0,
            counters: [("gates.applied".to_owned(), 14u128)].into_iter().collect(),
            histograms: [(
                "fusion.block_width".to_owned(),
                HistogramSummary { count: 2, min: 2.0, max: 5.0, sum: 7.0 },
            )]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn json_roundtrip_preserves_snapshot() {
        let snap = sample();
        let text = serde_json::to_string_pretty(&snap.to_value("qft_n10")).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let (label, back) = TelemetrySnapshot::from_value(&value).unwrap();
        assert_eq!(label, "qft_n10");
        assert_eq!(back, snap);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut v = sample().to_value("x");
        v["schema_version"] = Value::U64(99);
        assert!(TelemetrySnapshot::from_value(&v).is_err());
    }

    #[test]
    fn balanced_span_tree_verifies() {
        let mut snap = sample();
        snap.spans.push(SpanRecord {
            path: "run".into(),
            name: "run".into(),
            depth: 0,
            start_ns: 100,
            duration_ns: 80,
        });
        assert!(snap.verify_span_balance().is_ok());
        assert_eq!(snap.span_count("fuse"), 1);
        assert_eq!(snap.span_count("absent"), 0);
    }

    #[test]
    fn orphaned_child_span_fails_balance() {
        // `run/fuse` exists but no `run` parent encloses it.
        let snap = sample();
        let err = snap.verify_span_balance().unwrap_err();
        assert!(err.contains("no enclosing parent"), "{err}");
    }

    #[test]
    fn inconsistent_depth_fails_balance() {
        let mut snap = sample();
        snap.spans[0].depth = 3;
        assert!(snap.verify_span_balance().is_err());
    }

    #[test]
    fn dropped_spans_make_balance_unverifiable() {
        let mut snap = sample();
        snap.dropped_spans = 1;
        assert!(snap.verify_span_balance().is_err());
    }

    #[test]
    fn accessors_default_sensibly() {
        let snap = sample();
        assert_eq!(snap.counter("gates.applied"), 14);
        assert_eq!(snap.counter("absent"), 0);
    }
}
