//! Hot-path probe: unfused vs fused vs sweep-fused vs planned
//! execution, kernel layer only (no `Service`; serving-level numbers
//! come from `benchmark/`).
//!
//! Measures real wall-clock for the four kernel strategies on the three
//! paper workloads (QFT, random CX blocks, QCrank encoding):
//!
//! * **unfused** — the Aer-like CPU baseline, one full-state pass per gate;
//! * **fused**   — the GPU engine with sweep scheduling off
//!   (`sweep_width: 0`), one exact pass per fused kernel: the dense
//!   mul-add chain minus its exactly-zero entries, bit for bit the same;
//! * **sweep**   — the GPU engine with the commutation-aware sweep
//!   scheduler on (the default), one full-state pass per *sweep* with
//!   cache-blocked tiles kept hot across the sweep's kernels;
//! * **planned** — the priced plan (`PlannerCosts::host_reference()`):
//!   per scheduled segment, the cheaper of the plan's two modes
//!   (per-gate loops or one sweep pass) under the cost model. See
//!   `docs/PIPELINE.md` § 4 for how to read this series.
//!
//! The GPU series differ only in the plan's one selector
//! (`RunOptions::planner_costs`) and the sweep width. The four modes of
//! a cell are interleaved rep by rep, so a slow stretch of the host
//! lands on all of them, and each reports its best rep.
//!
//! Prints its tables and writes nothing.
//!
//! Usage: `cargo run --release -p qgear-bench --bin hotpath` for the
//! default grid (n = 16, 18, 20, 22); `--smoke` for a seconds-long CI
//! grid (n = 16); `--full` to extend the default grid to n = 24.
//! `--workload <qft|random|qcrank>` restricts to one workload and
//! `--sizes <a,b,...>` overrides the qubit grid (for quick probes).
//! `--enforce-planned` exits nonzero if the planned series loses to the
//! best pinned mode by more than [`TOLERANCE`] on any gated cell (CI's
//! planner regression gate, run by `scripts/check.sh` on the smoke
//! grid).

use qgear_bench::report::human_time;
use qgear_statevec::{
    AerCpuBackend, GpuDevice, PlannerCosts, RunOptions, RunOutput, SegmentMode, Simulator,
};
use qgear_workloads::qcrank::{QcrankCodec, QcrankConfig};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use qgear_workloads::random::{generate_random_gate_list, RandomCircuitSpec};
use std::time::Instant;

const MODES: [&str; 4] = ["unfused", "fused", "sweep", "planned"];

/// A cell is gated only when its best pinned mode takes at least this
/// long: below it, one scheduler hiccup is a large ratio. Cells under
/// the line are printed, not gated.
const GATE_FLOOR_SECONDS: f64 = 0.010;

/// The largest `planned / best pinned` ratio the gate accepts: the
/// worst ratio seen on any smoke cell over fourteen `--smoke` runs when
/// the gate was set × 1.1 — ten on a quiet 2-core host (worst 1.03) and
/// four with a busy loop pinned on each core (worst 1.10, random n=16).
const TOLERANCE: f64 = 1.21;

/// Planned-vs-best-pinned comparison for one (workload, size) cell.
#[derive(Debug)]
struct PlannedCell {
    workload: &'static str,
    num_qubits: u32,
    planned_seconds: f64,
    /// Fastest of the pinned modes measured on this cell.
    best_pinned_seconds: f64,
    best_pinned_mode: &'static str,
}

impl PlannedCell {
    /// `≤ 1` means the planner matched or beat every pinned mode.
    fn ratio(&self) -> f64 {
        self.planned_seconds / self.best_pinned_seconds
    }

    fn gated(&self) -> bool {
        self.best_pinned_seconds >= GATE_FLOOR_SECONDS
    }
}

/// The gated cells the planner lost by more than `tolerance`. Purely
/// relative: no absolute allowance a slow cell could hide under.
fn losers(cells: &[PlannedCell], tolerance: f64) -> Vec<&PlannedCell> {
    cells.iter().filter(|c| c.gated() && c.ratio() > tolerance).collect()
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

/// One run of `circ` in `mode`: wall-clock seconds and the run's stats.
fn run_mode(circ: &qgear_ir::Circuit, mode: &str) -> (f64, qgear_statevec::ExecStats) {
    let select = |planner_costs| RunOptions { planner_costs, ..Default::default() };
    let opts = match mode {
        // The Aer engine has one mode; it reads neither knob.
        "unfused" => select(PlannerCosts::pinned(SegmentMode::Unfused)),
        "fused" => RunOptions { sweep_width: 0, ..select(PlannerCosts::pinned(SegmentMode::Sweep)) },
        "sweep" => select(PlannerCosts::pinned(SegmentMode::Sweep)),
        "planned" => select(PlannerCosts::host_reference()),
        other => panic!("unknown mode {other}"),
    };
    let start = Instant::now();
    let out: RunOutput<f64> = if mode == "unfused" {
        AerCpuBackend.run(circ, &opts).expect("unfused run")
    } else {
        GpuDevice::a100_40gb().run(circ, &opts).expect("gpu run")
    };
    (start.elapsed().as_secs_f64(), out.stats)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sizes: Vec<u32> = if args.iter().any(|a| a == "--smoke") {
        vec![16]
    } else if args.iter().any(|a| a == "--full") {
        vec![16, 18, 20, 22, 24]
    } else {
        vec![16, 18, 20, 22]
    };
    let flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).unwrap_or_else(|| panic!("{name} needs a value")).clone()
        })
    };
    if let Some(list) = flag("--sizes") {
        sizes = list.split(',').map(|s| s.trim().parse().expect("qubit count")).collect();
    }
    let workloads: Vec<&'static str> = match flag("--workload").as_deref() {
        Some("qft") => vec!["qft"],
        Some("random") => vec!["random"],
        Some("qcrank") => vec!["qcrank"],
        Some(other) => panic!("unknown workload {other}"),
        None => vec!["qft", "random", "qcrank"],
    };

    println!(
        "{:>8} {:>3} {:>8} {:>9} {:>8} {:>8} {:>12} {:>12}",
        "workload", "n", "mode", "gates", "kernels", "sweeps", "bytes", "wall-clock"
    );
    let mut qft_speedups: Vec<(u32, f64)> = Vec::new();
    let mut planned_cells: Vec<PlannedCell> = Vec::new();
    for &n in &sizes {
        for name in workloads.iter().copied() {
            let circ = workload(name, n);
            let reps = if n < 20 { 3 } else { 1 };
            let skip_unfused = (1u128 << n) * circ.len() as u128 > UNFUSED_COST_CAP;
            // Best-of-`reps` seconds per mode (NaN = not run) plus the
            // stats of the final rep.
            let mut best = [f64::NAN; MODES.len()];
            let mut stats: [qgear_statevec::ExecStats; MODES.len()] = Default::default();
            for _ in 0..reps {
                for (m, mode) in MODES.into_iter().enumerate() {
                    if mode == "unfused" && skip_unfused {
                        continue;
                    }
                    let (seconds, run_stats) = run_mode(&circ, mode);
                    best[m] = seconds.min(best[m]);
                    stats[m] = run_stats;
                }
            }
            for (m, mode) in MODES.into_iter().enumerate() {
                println!(
                    "{:>8} {:>3} {:>8} {:>9} {:>8} {:>8} {:>12} {:>12}",
                    name,
                    n,
                    mode,
                    circ.len(),
                    stats[m].kernels_launched,
                    stats[m].sweeps_executed,
                    stats[m].bytes_touched,
                    human_time(best[m])
                );
            }
            let [unfused, fused, sweep, planned] = best;
            if name == "qft" {
                qft_speedups.push((n, fused / sweep));
            }
            // `total_cmp` orders NaN (a skipped unfused run) last.
            let (best_pinned_mode, best_pinned_seconds) =
                [("unfused", unfused), ("fused", fused), ("sweep", sweep)]
                    .into_iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("three pinned modes");
            planned_cells.push(PlannedCell {
                workload: name,
                num_qubits: n,
                planned_seconds: planned,
                best_pinned_seconds,
                best_pinned_mode,
            });
        }
    }

    if !qft_speedups.is_empty() {
        println!("\nQFT sweep-fused speedup over plain fused:");
        for (n, speedup) in &qft_speedups {
            println!("  n={n:>2}: {speedup:.2}x");
        }
    }

    println!("\nplanned vs best pinned mode:");
    for c in &planned_cells {
        println!(
            "  {:>8} n={:>2}: planned {} vs best pinned {} ({}) → ratio {:.2}{}",
            c.workload,
            c.num_qubits,
            human_time(c.planned_seconds),
            human_time(c.best_pinned_seconds),
            c.best_pinned_mode,
            c.ratio(),
            if c.gated() { "" } else { "  (under the 10 ms gate floor)" }
        );
    }

    if args.iter().any(|a| a == "--enforce-planned") {
        let lost = losers(&planned_cells, TOLERANCE);
        if !lost.is_empty() {
            eprintln!("planned-mode regression: over {TOLERANCE}x the best pinned mode on:");
            for c in lost {
                eprintln!("  {} n={}: ratio {:.2}", c.workload, c.num_qubits, c.ratio());
            }
            std::process::exit(1);
        }
        let gated: Vec<f64> =
            planned_cells.iter().filter(|c| c.gated()).map(PlannedCell::ratio).collect();
        let worst = gated.iter().copied().fold(f64::NAN, f64::max);
        println!(
            "planned-mode gate passed: worst accepted ratio {worst:.2} over {} gated cells (tolerance {TOLERANCE})",
            gated.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(planned_ms: f64, best_pinned_ms: f64) -> PlannedCell {
        PlannedCell {
            workload: "qft",
            num_qubits: 16,
            planned_seconds: planned_ms / 1e3,
            best_pinned_seconds: best_pinned_ms / 1e3,
            best_pinned_mode: "sweep",
        }
    }

    #[test]
    fn the_gate_is_relative_and_only_above_the_floor() {
        // 30 ms against a 20 ms best pin: under the former
        // `best × 1.25 + 10 ms` allowance (35 ms) this loss passed.
        let cells = [cell(30.0, 20.0), cell(21.0, 20.0), cell(3.4, 2.0), cell(800.0, 500.0)];
        let lost = losers(&cells, TOLERANCE);
        assert_eq!(lost.len(), 2, "{lost:?}");
        assert!(lost.iter().all(|c| c.ratio() > 1.45));
        // A 1.7x loss on a 2 ms cell is timer noise territory: printed,
        // never gated.
        assert!(!cells[2].gated());
    }
}
