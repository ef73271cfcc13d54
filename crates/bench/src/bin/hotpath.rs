//! Hot-path benchmark: unfused vs fused vs sweep-fused vs planned
//! execution.
//!
//! Measures real wall-clock for the four kernel strategies on the three
//! paper workloads (QFT, random CX blocks, QCrank encoding):
//!
//! * **unfused** — the Aer-like CPU baseline, one full-state pass per gate;
//! * **fused**   — the GPU engine with sweep scheduling off
//!   (`sweep_width: 0`), one exact dense pass per fused kernel;
//! * **sweep**   — the GPU engine with the commutation-aware sweep
//!   scheduler on (the default), one full-state pass per *sweep* with
//!   cache-blocked tiles kept hot across the sweep's kernels;
//! * **planned** — the priced plan (`PlannerCosts::host_reference()`):
//!   per scheduled segment, the cheapest of the three modes under the
//!   cost model, with structure-dispatched fused kernels. See
//!   `docs/PLANNER.md` for how to read this series.
//!
//! The GPU series differ only in the plan's one selector
//! (`RunOptions::planner_costs`) and the sweep width.
//!
//! Emits `results/hotpath.jsonl` (via [`Report`]) plus a summary
//! `BENCH_hotpath.json` at the repo root with the per-point stats and
//! the headline sweep-vs-fused speedups (smoke/custom grids write
//! `BENCH_hotpath_<grid>.json` instead so probes never clobber the
//! measured acceptance artifact), and exports sweep/kernel telemetry
//! histograms to `results/telemetry/hotpath.json`.
//!
//! Usage: `cargo run --release -p qgear-bench --bin hotpath` for the
//! default grid (n = 16, 18, 20, 22); `--smoke` for a seconds-long CI
//! grid (n = 10, 12); `--full` to extend the default grid to n = 24.
//! `--workload <qft|random|qcrank>` restricts to one workload and
//! `--sizes <a,b,...>` overrides the qubit grid (for quick probes).
//! `--enforce-planned` exits nonzero if the planned series is slower
//! than the best fixed mode on any cell (CI's planner regression gate,
//! run by `scripts/check.sh` on the smoke grid).

use qgear_bench::report::{human_time, Report};
use qgear_statevec::{
    AerCpuBackend, GpuDevice, PlannerCosts, RunOptions, RunOutput, SegmentMode, Simulator,
};
use qgear_workloads::qcrank::{QcrankCodec, QcrankConfig};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use qgear_workloads::random::{generate_random_gate_list, RandomCircuitSpec};
use serde::Serialize;
use std::time::Instant;

/// A per-size speedup entry (tuples don't serialize in the offline
/// serde shim).
#[derive(Debug, Serialize)]
struct Speedup {
    num_qubits: u32,
    speedup: f64,
}

/// One measured point.
#[derive(Debug, Clone, Serialize)]
struct Sample {
    workload: String,
    num_qubits: u32,
    mode: String,
    gates: usize,
    seconds: f64,
    kernels_launched: u64,
    sweeps_executed: u64,
    bytes_touched: u128,
    note: Option<String>,
}

/// Planned-vs-best-fixed comparison for one (workload, size) cell.
#[derive(Debug, Serialize)]
struct PlannedCell {
    workload: String,
    num_qubits: u32,
    planned_seconds: f64,
    /// Fastest of the fixed modes measured on this cell.
    best_fixed_seconds: f64,
    /// Which fixed mode was fastest.
    best_fixed_mode: String,
    /// `planned_seconds / best_fixed_seconds` (≤ 1 means the planner
    /// matched or beat every fixed mode).
    ratio: f64,
}

/// The `BENCH_hotpath.json` document.
#[derive(Debug, Serialize)]
struct Summary {
    bench: String,
    grid: String,
    sizes: Vec<u32>,
    samples: Vec<Sample>,
    /// Per-size QFT speedup of sweep-fused over plain fused.
    qft_sweep_over_fused: Vec<Speedup>,
    /// Minimum of the above at n >= 20 (the acceptance bar is 1.3).
    qft_sweep_speedup_min_n20: Option<f64>,
    /// Planned-mode comparison per cell (the planner acceptance bar:
    /// every ratio ≤ 1 within noise).
    planned_vs_best_fixed: Vec<PlannedCell>,
    /// Maximum `ratio` across all cells.
    planned_worst_ratio: Option<f64>,
}

/// Skip the unfused baseline when its amplitude·gate product would take
/// minutes: the baseline exists to anchor small/medium sizes, the paper
/// point is fused-vs-sweep at the top of the grid.
const UNFUSED_COST_CAP: u128 = 1 << 34;

fn workload(name: &str, n: u32) -> qgear_ir::Circuit {
    match name {
        "qft" => qft_circuit(n, &QftOptions::default()),
        "random" => generate_random_gate_list(&RandomCircuitSpec {
            num_qubits: n,
            num_blocks: 20 * n as usize,
            seed: 0xB0B + u64::from(n),
            measure: false,
        }),
        "qcrank" => {
            // Keep the gate count bounded as n grows: a fixed 8-qubit
            // address register, the rest data qubits.
            let addr = 8.min(n - 1);
            let config = QcrankConfig { addr_qubits: addr, data_qubits: n - addr };
            let values: Vec<f64> = (0..config.capacity())
                .map(|i| ((i * 37 % 113) as f64 / 56.5) - 1.0)
                .collect();
            let (unitary, _) = QcrankCodec::new(config).encode(&values).split_measurements();
            unitary
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Best-of-`reps` wall-clock plus the stats of the final rep.
fn run_mode(circ: &qgear_ir::Circuit, mode: &str, reps: u32) -> Sample {
    let select = |planner_costs| RunOptions { planner_costs, ..Default::default() };
    let opts = match mode {
        // The Aer engine has one mode; it reads neither knob.
        "unfused" => select(PlannerCosts::pinned(SegmentMode::Unfused)),
        "fused" => RunOptions { sweep_width: 0, ..select(PlannerCosts::pinned(SegmentMode::Sweep)) },
        "sweep" => select(PlannerCosts::pinned(SegmentMode::Sweep)),
        "planned" => select(PlannerCosts::host_reference()),
        other => panic!("unknown mode {other}"),
    };
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out: RunOutput<f64> = if mode == "unfused" {
            AerCpuBackend.run(circ, &opts).expect("unfused run")
        } else {
            GpuDevice::a100_40gb().run(circ, &opts).expect("gpu run")
        };
        best = best.min(start.elapsed().as_secs_f64());
        stats = Some(out.stats);
    }
    let stats = stats.expect("at least one rep");
    Sample {
        workload: String::new(),
        num_qubits: circ.num_qubits(),
        mode: mode.to_owned(),
        gates: circ.len(),
        seconds: best,
        kernels_launched: stats.kernels_launched,
        sweeps_executed: stats.sweeps_executed,
        bytes_touched: stats.bytes_touched,
        note: None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut grid, mut sizes): (&str, Vec<u32>) = if args.iter().any(|a| a == "--smoke") {
        ("smoke", vec![10, 12])
    } else if args.iter().any(|a| a == "--full") {
        ("full", vec![16, 18, 20, 22, 24])
    } else {
        ("default", vec![16, 18, 20, 22])
    };
    let flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).unwrap_or_else(|| panic!("{name} needs a value")).clone()
        })
    };
    if let Some(list) = flag("--sizes") {
        sizes = list.split(',').map(|s| s.trim().parse().expect("qubit count")).collect();
        grid = "custom";
    }
    let workloads: Vec<&str> = match flag("--workload") {
        Some(w) => match w.as_str() {
            "qft" => vec!["qft"],
            "random" => vec!["random"],
            "qcrank" => vec!["qcrank"],
            other => panic!("unknown workload {other}"),
        },
        None => vec!["qft", "random", "qcrank"],
    };

    qgear_telemetry::reset();
    qgear_telemetry::enable();

    // Same ownership rule for the tracked results files: probe grids get
    // their own id so they never rewrite the default grid's rows.
    let report_id = match grid {
        "default" | "full" => "hotpath".to_owned(),
        other => format!("hotpath_{other}"),
    };
    let mut report = Report::new(&report_id, "unfused vs fused vs sweep-fused hot path");
    let mut samples: Vec<Sample> = Vec::new();
    println!(
        "{:>8} {:>3} {:>8} {:>9} {:>8} {:>8} {:>12} {:>12}",
        "workload", "n", "mode", "gates", "kernels", "sweeps", "bytes", "wall-clock"
    );

    for &n in &sizes {
        for name in workloads.iter().copied() {
            let circ = workload(name, n);
            let reps = if n < 20 { 3 } else { 1 };
            for mode in ["unfused", "fused", "sweep", "planned"] {
                let mut sample = if mode == "unfused"
                    && (1u128 << n) * circ.len() as u128 > UNFUSED_COST_CAP
                {
                    Sample {
                        workload: String::new(),
                        num_qubits: n,
                        mode: mode.to_owned(),
                        gates: circ.len(),
                        seconds: f64::NAN,
                        kernels_launched: 0,
                        sweeps_executed: 0,
                        bytes_touched: 0,
                        note: Some("skipped: unfused baseline over cost cap".to_owned()),
                    }
                } else {
                    run_mode(&circ, mode, reps)
                };
                sample.workload = name.to_owned();
                println!(
                    "{:>8} {:>3} {:>8} {:>9} {:>8} {:>8} {:>12} {:>12}",
                    sample.workload,
                    n,
                    sample.mode,
                    sample.gates,
                    sample.kernels_launched,
                    sample.sweeps_executed,
                    sample.bytes_touched,
                    human_time(sample.seconds)
                );
                if sample.seconds.is_nan() {
                    report.infeasible(&format!("{name}-{mode}"), f64::from(n), "cost cap");
                } else {
                    report.measured(&format!("{name}-{mode}"), f64::from(n), sample.seconds);
                }
                samples.push(sample);
            }
        }
    }

    // Headline: sweep-fused over plain fused on the QFT.
    let mut qft_speedups: Vec<Speedup> = Vec::new();
    for &n in &sizes {
        let t = |mode: &str| {
            samples
                .iter()
                .find(|s| s.workload == "qft" && s.num_qubits == n && s.mode == mode)
                .map(|s| s.seconds)
        };
        if let (Some(fused), Some(sweep)) = (t("fused"), t("sweep")) {
            qft_speedups.push(Speedup { num_qubits: n, speedup: fused / sweep });
        }
    }
    println!("\nQFT sweep-fused speedup over plain fused:");
    for s in &qft_speedups {
        println!("  n={:>2}: {:.2}x", s.num_qubits, s.speedup);
    }
    let min_n20 = qft_speedups
        .iter()
        .filter(|s| s.num_qubits >= 20)
        .map(|s| s.speedup)
        .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.min(s))));
    if let Some(m) = min_n20 {
        println!("  min at n>=20: {m:.2}x (acceptance bar 1.3x)");
    }

    // Planner acceptance: planned never slower than the best fixed mode
    // on any cell (ratio ≤ 1 within noise).
    let mut planned_cells: Vec<PlannedCell> = Vec::new();
    for &n in &sizes {
        for name in workloads.iter().copied() {
            let cell = |mode: &str| {
                samples
                    .iter()
                    .find(|s| s.workload == name && s.num_qubits == n && s.mode == mode)
                    .map(|s| s.seconds)
                    .filter(|s| !s.is_nan())
            };
            let Some(planned) = cell("planned") else { continue };
            let fixed: Vec<(&str, f64)> = ["unfused", "fused", "sweep"]
                .iter()
                .filter_map(|&m| cell(m).map(|s| (m, s)))
                .collect();
            let Some(&(best_mode, best)) = fixed
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("non-NaN seconds"))
            else {
                continue;
            };
            planned_cells.push(PlannedCell {
                workload: name.to_owned(),
                num_qubits: n,
                planned_seconds: planned,
                best_fixed_seconds: best,
                best_fixed_mode: best_mode.to_owned(),
                ratio: planned / best,
            });
        }
    }
    println!("\nplanned vs best fixed mode:");
    for c in &planned_cells {
        println!(
            "  {:>8} n={:>2}: planned {} vs best fixed {} ({}) → ratio {:.2}",
            c.workload,
            c.num_qubits,
            human_time(c.planned_seconds),
            human_time(c.best_fixed_seconds),
            c.best_fixed_mode,
            c.ratio
        );
    }
    let worst_ratio = planned_cells
        .iter()
        .map(|c| c.ratio)
        .fold(None, |acc: Option<f64>, r| Some(acc.map_or(r, |a| a.max(r))));
    if let Some(w) = worst_ratio {
        println!("  worst ratio: {w:.2} (bar: ≤ 1 within noise)");
    }

    report.finish();

    let summary = Summary {
        bench: "hotpath".to_owned(),
        grid: grid.to_owned(),
        sizes,
        samples,
        qft_sweep_over_fused: qft_speedups,
        qft_sweep_speedup_min_n20: min_n20,
        planned_vs_best_fixed: planned_cells,
        planned_worst_ratio: worst_ratio,
    };
    let json = serde_json::to_value(&summary).expect("summary serializes");
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::PathBuf::from(dir).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    };
    // Only the full-size grids own the acceptance artifact; smoke and
    // custom probe grids write a suffixed file so a CI smoke run never
    // clobbers the measured n >= 20 speedups.
    let file = match grid {
        "default" | "full" => "BENCH_hotpath.json".to_owned(),
        other => format!("BENCH_hotpath_{other}.json"),
    };
    let path = root.join(file);
    std::fs::write(&path, format!("{json}\n")).expect("write BENCH_hotpath.json");
    println!("→ summary written to {}", path.display());

    // CI gate (scripts/check.sh --smoke): fail if the planner lost any
    // cell beyond timer noise. The tolerance absorbs scheduler jitter on
    // sub-second smoke cells: 25% relative plus a 10 ms absolute floor.
    // Runs after the summary write so a failing run still leaves the
    // artifact to inspect.
    if args.iter().any(|a| a == "--enforce-planned") {
        let losers: Vec<&PlannedCell> = summary
            .planned_vs_best_fixed
            .iter()
            .filter(|c| c.planned_seconds > c.best_fixed_seconds * 1.25 + 0.010)
            .collect();
        if !losers.is_empty() {
            eprintln!("planned-mode regression: slower than the best fixed mode on:");
            for c in losers {
                eprintln!(
                    "  {} n={}: planned {:.3}s vs best fixed {:.3}s ({})",
                    c.workload, c.num_qubits, c.planned_seconds, c.best_fixed_seconds, c.best_fixed_mode
                );
            }
            std::process::exit(1);
        }
        println!("planned-mode gate passed: never slower than the best fixed mode");
    }
}
