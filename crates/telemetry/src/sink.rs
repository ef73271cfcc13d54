//! The export sink: where a snapshot goes when a run finishes.

use crate::snapshot::TelemetrySnapshot;
use std::io;
use std::path::{Path, PathBuf};

/// Sink writing one pretty-printed schema-v1 JSON document per export
/// to `<dir>/<label>.json`.
#[derive(Debug, Clone)]
pub struct JsonSink {
    dir: PathBuf,
}

impl JsonSink {
    /// Sink writing into the given directory (created on first export).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JsonSink { dir: dir.into() }
    }

    /// The directory this sink writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write `snapshot` to `<dir>/<label>.json` and return that path.
    pub fn export(&self, label: &str, snapshot: &TelemetrySnapshot) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{}.json", Self::file_stem(label)));
        let text = serde_json::to_string_pretty(&snapshot.to_value(label))
            .map_err(|e| io::Error::other(e.to_string()))?;
        std::fs::write(&path, text + "\n")?;
        Ok(path)
    }

    /// `label` restricted to filename-safe characters.
    fn file_stem(label: &str) -> String {
        let stem: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        if stem.is_empty() {
            "telemetry".to_owned()
        } else {
            stem
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SpanRecord;
    use serde_json::Value;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: vec![SpanRecord {
                path: "simulate".into(),
                name: "simulate".into(),
                depth: 0,
                start_ns: 0,
                duration_ns: 7,
            }],
            dropped_spans: 0,
            counters: Default::default(),
            histograms: Default::default(),
        }
    }

    #[test]
    fn json_sink_writes_readable_document() {
        let dir = std::env::temp_dir().join(format!(
            "qgear-telemetry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = JsonSink::new(&dir);
        let path = sink.export("qft n=10 über", &sample()).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("qft_n_10"));
        let text = std::fs::read_to_string(&path).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let (label, back) = TelemetrySnapshot::from_value(&value).unwrap();
        assert_eq!(label, "qft n=10 über");
        assert_eq!(back, sample());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
