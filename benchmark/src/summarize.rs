//! `qgear-benchmark summarize [--baseline OUT] [--schema FILE] RESULT...`
//! — order statistics over repeated runs: per metric the median, the
//! quartiles as Python's `statistics.quantiles(values, n=4)` gives them,
//! their distance as a share of the median against the metric's bound,
//! two interleaved half-sets compared, and the exact counts checked
//! identical across runs of one seed.

use crate::report::{obj, s};
use serde_json::Value;
use std::collections::BTreeMap;

/// `statistics.quantiles(values, n=4)` (the default exclusive method).
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let q = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

struct Series {
    unit: String,
    values: Vec<f64>,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> i32 {
    let mut baseline = None;
    let mut schema = "BENCHMARK.json".to_owned();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => baseline = it.next().cloned(),
            "--schema" => schema = it.next().cloned().unwrap_or(schema),
            _ => files.push(arg.clone()),
        }
    }
    match summarize(&files, &schema, baseline.as_deref()) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("qgear-benchmark summarize: {e}");
            2
        }
    }
}

fn summarize(files: &[String], schema: &str, baseline: Option<&str>) -> Result<bool, String> {
    let doc = load(schema)?;
    let mut bounds: BTreeMap<String, (f64, bool)> = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("schema has no end_to_end")?
    {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned();
        let lower = m.get("better").and_then(Value::as_str) == Some("lower");
        bounds.insert(
            name,
            (m.get("bound").and_then(Value::as_f64).unwrap_or(0.0), lower),
        );
    }

    // (workload, metric) -> values in file order.
    let mut series: BTreeMap<(String, String), Series> = BTreeMap::new();
    // (workload, trace, seed, name) -> distinct exact values seen.
    let mut exact: BTreeMap<(String, bool, u64, String), Vec<String>> = BTreeMap::new();
    let mut host = Value::Null;
    for path in files {
        let run = load(path)?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{path}: no workload"))?
            .to_owned();
        let trace = run.get("trace").and_then(Value::as_bool).unwrap_or(false);
        let seed = run.get("seed").and_then(Value::as_u64).unwrap_or(0);
        host = run.get("host").cloned().unwrap_or(Value::Null);
        for (name, m) in run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("{path}: no metrics"))?
        {
            let entry = series
                .entry((workload.clone(), name.clone()))
                .or_insert_with(|| Series {
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    values: Vec::new(),
                });
            entry.values.push(
                m.get("value")
                    .and_then(Value::as_f64)
                    .ok_or(format!("{path}: {name} has no value"))?,
            );
        }
        if let Some(pairs) = run
            .get("detail")
            .and_then(|d| d.get("exact"))
            .and_then(Value::as_object)
        {
            for (name, v) in pairs {
                let seen = exact
                    .entry((workload.clone(), trace, seed, name.clone()))
                    .or_default();
                let v = v.as_str().unwrap_or("").to_owned();
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
    }

    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<13} {:<34} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}  {:>14} {:>14} {:>8}",
        "workload",
        "metric",
        "n",
        "median",
        "q1",
        "q3",
        "spread",
        "bound",
        "set A median",
        "set B median",
        "A vs B"
    );
    for ((workload, name), series) in &series {
        let mut v = series.values.clone();
        v.sort_by(f64::total_cmp);
        let (q1, med, q3) = quartiles(&v);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        // Two interleaved half-sets of the same commit must agree.
        let half = |k: usize| {
            let mut h: Vec<f64> = series.values.iter().skip(k).step_by(2).copied().collect();
            h.sort_by(f64::total_cmp);
            quartiles(&h).1
        };
        let (a, b) = (half(0), half(1));
        let bound = bounds.get(name).copied();
        let mut verdict = String::new();
        let mut worse = 0.0;
        if let Some((bound, lower)) = bound {
            worse = if a == 0.0 {
                0.0
            } else if lower {
                (b - a) / a
            } else {
                (a - b) / a
            };
            if spread > bound {
                verdict.push_str(" SPREAD>BOUND");
                ok = false;
            } else if spread > bound / 3.0 {
                verdict.push_str(" spread>bound/3");
            }
            if series.values.len() >= 4 && worse.abs() > bound {
                verdict.push_str(" SETS-DISAGREE");
                ok = false;
            }
        }
        println!(
            "{workload:<13} {name:<34} {:>3} {med:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {:>6}  {a:>14.4} {b:>14.4} {worse:>+8.4}{verdict}",
            v.len(),
            bound.map_or("-".to_owned(), |b| format!("{}", b.0)),
        );
        rows.push(obj(vec![
            ("workload", s(workload.as_str())),
            ("metric", s(name.as_str())),
            ("unit", s(series.unit.as_str())),
            ("runs", Value::U64(v.len() as u128)),
            ("median", Value::F64(med)),
            ("q1", Value::F64(q1)),
            ("q3", Value::F64(q3)),
            ("spread", Value::F64(spread)),
            ("bound", bound.map_or(Value::Null, |b| Value::F64(b.0))),
        ]));
    }
    let mismatched = exact.iter().filter(|(_, values)| values.len() > 1).count();
    for ((workload, trace, seed, name), values) in
        exact.iter().filter(|(_, values)| values.len() > 1)
    {
        println!("EXACT MISMATCH {workload} trace={trace} seed={seed} {name}: {values:?}");
    }
    println!(
        "exact counts and digests: {} groups, {mismatched} differ between runs of one seed",
        exact.len()
    );
    ok &= mismatched == 0;

    if let Some(path) = baseline {
        let exact_rows = exact
            .iter()
            .map(|((w, trace, seed, name), v)| {
                obj(vec![
                    ("workload", s(w.as_str())),
                    ("trace", Value::Bool(*trace)),
                    ("seed", Value::U64(u128::from(*seed))),
                    ("name", s(name.as_str())),
                    ("value", s(v.join(" | "))),
                ])
            })
            .collect();
        let file = obj(vec![
            ("host", host),
            ("runs", Value::U64(files.len() as u128)),
            ("note", s("same-commit repeats; spread = (q3 - q1) / median with statistics.quantiles(n=4)")),
            ("metrics", Value::Seq(rows)),
            ("exact", Value::Seq(exact_rows)),
        ]);
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))?;
        println!("baseline written to {path}");
    }
    Ok(ok)
}
