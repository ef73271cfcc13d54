//! Console tables and JSON-lines result files.

use serde_json::Value;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// One data row: experiment id, series label, x value, measured/modeled
/// seconds, and the paper's reported value when one exists.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id ("fig4a", "table2", …).
    pub experiment: String,
    /// Series within the experiment ("qiskit-cpu-short", …).
    pub series: String,
    /// X coordinate (qubits, image pixels, GPU count…).
    pub x: f64,
    /// The measured or modeled value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: String,
    /// "measured" (real wall-clock here) or "modeled" (testbed projection).
    pub mode: String,
    /// The paper's reported/estimated value at this point, if stated.
    pub paper: Option<f64>,
    /// Free-form annotation ("OOM", "memory limit", …).
    pub note: Option<String>,
}

impl Row {
    /// One JSON object, fields in declaration order. `None` is `null`,
    /// and so is a NaN `value` (an infeasible point) when printed.
    fn to_value(&self) -> Value {
        let s = |v: &str| Value::Str(v.to_owned());
        Value::Map(vec![
            ("experiment".into(), s(&self.experiment)),
            ("series".into(), s(&self.series)),
            ("x".into(), Value::F64(self.x)),
            ("value".into(), Value::F64(self.value)),
            ("unit".into(), s(&self.unit)),
            ("mode".into(), s(&self.mode)),
            ("paper".into(), self.paper.map_or(Value::Null, Value::F64)),
            ("note".into(), self.note.as_deref().map_or(Value::Null, s)),
        ])
    }
}

/// Collects rows, prints an aligned table, writes `results/<id>.jsonl`.
#[derive(Debug, Default)]
pub struct Report {
    experiment: String,
    title: String,
    rows: Vec<Row>,
}

impl Report {
    /// Start a report for one experiment id.
    pub fn new(experiment: &str, title: &str) -> Self {
        Report { experiment: experiment.to_owned(), title: title.to_owned(), rows: Vec::new() }
    }

    /// Add a row.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        series: &str,
        x: f64,
        value: f64,
        unit: &str,
        mode: &str,
        paper: Option<f64>,
        note: Option<String>,
    ) {
        self.rows.push(Row {
            experiment: self.experiment.clone(),
            series: series.to_owned(),
            x,
            value,
            unit: unit.to_owned(),
            mode: mode.to_owned(),
            paper,
            note,
        });
    }

    /// Convenience for modeled-seconds rows.
    pub fn modeled(&mut self, series: &str, x: f64, seconds: f64) {
        self.push(series, x, seconds, "s", "modeled", None, None);
    }

    /// Convenience for measured-seconds rows.
    pub fn measured(&mut self, series: &str, x: f64, seconds: f64) {
        self.push(series, x, seconds, "s", "measured", None, None);
    }

    /// Mark an infeasible point (the Fig. 4a memory walls).
    pub fn infeasible(&mut self, series: &str, x: f64, reason: &str) {
        self.push(series, x, f64::NAN, "s", "modeled", None, Some(reason.to_owned()));
    }

    /// Borrow the rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Print the aligned table to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.experiment, self.title);
        println!(
            "{:<28} {:>10} {:>14} {:>6} {:>9}  {:<12} note",
            "series", "x", "value", "unit", "mode", "paper"
        );
        for r in &self.rows {
            let value = if r.value.is_nan() {
                "—".to_owned()
            } else if r.value.abs() >= 1000.0 {
                format!("{:.0}", r.value)
            } else {
                format!("{:.4}", r.value)
            };
            let paper = r.paper.map_or("".to_owned(), |p| format!("{p:.3}"));
            println!(
                "{:<28} {:>10} {:>14} {:>6} {:>9}  {:<12} {}",
                r.series,
                r.x,
                value,
                r.unit,
                r.mode,
                paper,
                r.note.as_deref().unwrap_or("")
            );
        }
    }

    /// Write `results/<experiment>.jsonl` relative to the workspace root
    /// (or the current directory when run elsewhere).
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.jsonl", self.experiment));
        let mut f = fs::File::create(&path)?;
        for r in &self.rows {
            writeln!(f, "{}", r.to_value())?;
        }
        Ok(path)
    }

    /// Print and save; panics on I/O failure (harness context).
    pub fn finish(&self) {
        self.print();
        let path = self.save().expect("write results file");
        println!("→ rows written to {}", path.display());
        self.export_telemetry();
    }

    /// Export recorded telemetry (if any) alongside the rows, as
    /// `results/telemetry/<experiment>.json`. A no-op when nothing was
    /// recorded, so harnesses that never enable telemetry stay silent.
    fn export_telemetry(&self) {
        let snap = qgear_telemetry::snapshot();
        if snap.spans.is_empty() && snap.counters.is_empty() && snap.histograms.is_empty() {
            return;
        }
        let sink = qgear_telemetry::JsonSink::new(results_dir().join("telemetry"));
        match sink.export(&self.experiment, &snap) {
            Ok(path) => println!("→ telemetry written to {}", path.display()),
            Err(e) => eprintln!("telemetry export failed: {e}"),
        }
    }
}

/// `results/` next to the workspace root when available.
fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → ../../results
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../../results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// Format a seconds value like the paper's axes (ms / s / min / h).
pub fn human_time(seconds: f64) -> String {
    if seconds.is_nan() {
        "—".into()
    } else if seconds < 1.0 {
        format!("{:.1} ms", seconds * 1e3)
    } else if seconds < 120.0 {
        format!("{seconds:.2} s")
    } else if seconds < 7200.0 {
        format!("{:.1} min", seconds / 60.0)
    } else {
        format!("{:.1} h", seconds / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate_and_serialize() {
        let mut r = Report::new("test_exp", "unit test");
        r.modeled("a", 1.0, 2.5);
        r.measured("b", 2.0, 0.1);
        r.infeasible("a", 3.0, "OOM");
        r.push("c", 30.0, 14.0, "min", "modeled", Some(13.5), None);
        let json: Vec<String> =
            r.rows().iter().map(|row| serde_json::to_string(&row.to_value()).unwrap()).collect();
        assert_eq!(
            json,
            [
                r#"{"experiment":"test_exp","series":"a","x":1,"value":2.5,"unit":"s","mode":"modeled","paper":null,"note":null}"#,
                r#"{"experiment":"test_exp","series":"b","x":2,"value":0.1,"unit":"s","mode":"measured","paper":null,"note":null}"#,
                r#"{"experiment":"test_exp","series":"a","x":3,"value":null,"unit":"s","mode":"modeled","paper":null,"note":"OOM"}"#,
                r#"{"experiment":"test_exp","series":"c","x":30,"value":14,"unit":"min","mode":"modeled","paper":13.5,"note":null}"#,
            ]
        );
    }

    #[test]
    fn human_time_bands() {
        assert_eq!(human_time(0.0005), "0.5 ms");
        assert_eq!(human_time(2.0), "2.00 s");
        assert_eq!(human_time(600.0), "10.0 min");
        assert_eq!(human_time(86400.0), "24.0 h");
        assert_eq!(human_time(f64::NAN), "—");
    }
}
