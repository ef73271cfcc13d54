//! Order statistics, the host envelope stamped on every output file,
//! and the `BENCHMARK.json` self-check.

use serde_json::Value;

/// Nearest-rank percentile of a sorted slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 0.5)
}

pub fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Cuts a phase into equal windows of at most `longest` seconds (to
/// within a millisecond's overrun of the phase), at least four.
/// Returns their length and count.
pub fn windows(phase_seconds: f64, longest: f64) -> (f64, usize) {
    let count = (((phase_seconds - 1e-3) / longest).ceil() as usize).max(4);
    (phase_seconds / count as f64, count)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

pub fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

/// Which machine, toolchain and commit produced a file.
pub fn host_envelope(commit: &str) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_owned();
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trim(&format!("{dir}/level")),
            read_trim(&format!("{dir}/type")),
            read_trim(&format!("{dir}/size")),
        ) else {
            continue;
        };
        caches.push(s(format!("L{level} {kind} {size}")));
    }
    obj(vec![
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get()) as u128),
        ),
        ("cpu_model", s(model)),
        ("caches", Value::Seq(caches)),
        ("rustc", s(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", s(env!("BENCH_RUSTFLAGS"))),
        ("git_commit", s(commit)),
    ])
}

/// Metric names and units as `BENCHMARK.json` declares them for the
/// given `section` (`end_to_end` or `per_layer`), after checking that
/// `workload` is declared and every name is well-formed and used once.
pub fn declared(
    schema_path: &str,
    section: &str,
    workload: &str,
) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(schema_path).map_err(|e| format!("{schema_path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{schema_path}: {e}"))?;
    let list = |key: &str| -> Result<Vec<Value>, String> {
        doc.get(key)
            .and_then(Value::as_array)
            .cloned()
            .ok_or(format!("{schema_path}: no `{key}` list"))
    };
    let name_of = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned()
    };
    let mut names: Vec<String> = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        names.extend(list(key)?.iter().map(name_of));
    }
    for (i, name) in names.iter().enumerate() {
        let well_formed = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric());
        if !well_formed {
            return Err(format!("{schema_path}: bad name `{name}`"));
        }
        if names[..i].contains(name) {
            return Err(format!("{schema_path}: name `{name}` used twice"));
        }
    }
    if !list("workloads")?.iter().any(|w| name_of(w) == workload) {
        return Err(format!("{schema_path}: workload `{workload}` not declared"));
    }
    Ok(list(section)?
        .iter()
        .map(|m| {
            (
                name_of(m),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
            )
        })
        .collect())
}

/// Every declared metric measured exactly once, nothing undeclared.
pub fn check_against(
    declared: &[(String, String)],
    measured: &[(String, f64, &str)],
) -> Result<(), String> {
    for (name, unit) in declared {
        match measured.iter().filter(|m| m.0 == *name).count() {
            1 => {}
            n => return Err(format!("metric `{name}` measured {n} times")),
        }
        let m = measured
            .iter()
            .find(|m| m.0 == *name)
            .expect("counted above");
        if m.2 != unit {
            return Err(format!(
                "metric `{name}` measured in `{}`, declared in `{unit}`",
                m.2
            ));
        }
        if !m.1.is_finite() {
            return Err(format!("metric `{name}` is not a number: {}", m.1));
        }
    }
    match measured
        .iter()
        .find(|m| !declared.iter().any(|d| d.0 == m.0))
    {
        Some(m) => Err(format!("metric `{}` is not declared", m.0)),
        None => Ok(()),
    }
}
