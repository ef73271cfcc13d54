//! Backend benchmark: stabilizer scaling and trajectory throughput.
//!
//! Two series back `docs/BACKENDS.md`:
//!
//! * **Stabilizer scaling** — wall time for Clifford workloads at
//!   16 → 64 → 128 qubits on the CHP tableau engine. Dense simulation is
//!   infeasible past ~32 qubits on the modelled A100 (Fig. 4a's memory
//!   wall); the tableau's quadratic footprint sails through, and this
//!   series records by how much: gates, shots, seconds, shots/s, and
//!   the tableau bytes the admission layer prices.
//! * **Trajectory throughput** — trajectories/second for the stochastic
//!   Pauli-noise fan over a dense inner engine and over the stabilizer
//!   inner engine on the same Clifford workload (Pauli insertions keep a
//!   Clifford circuit Clifford, so both inners are exact).
//!
//! Emits `BENCH_backends.json` at the repo root. Usage:
//! `cargo run --release -p qgear-bench --bin bench_backends` for the
//! full shot counts, `--smoke` for the seconds-long CI gate run by
//! `scripts/check.sh` (same width grid — the tableau is cheap enough to
//! take 128 qubits even in smoke — smaller shot and trajectory counts;
//! writes the suffixed `BENCH_backends_smoke.json` so it never clobbers
//! the tracked full-count artifact).

use qgear_perfmodel::memory::tableau_bytes;
use qgear_stabilizer::StabilizerBackend;
use qgear_statevec::{
    AerCpuBackend, NoiseChannel, NoiseModel, RunOptions, RunOutput, Simulator, TrajectoryBackend,
};
use qgear_workloads::clifford::{ghz, random_clifford};
use serde::Serialize;
use std::time::Instant;

/// One stabilizer-scaling measurement.
#[derive(Debug, Serialize)]
struct ScalePoint {
    workload: String,
    num_qubits: u32,
    gates: usize,
    shots: u64,
    seconds: f64,
    shots_per_sec: f64,
    /// What admission prices this width at (quadratic, vs 2^n dense).
    tableau_bytes: u128,
}

/// One trajectory-throughput measurement.
#[derive(Debug, Serialize)]
struct TrajectoryPoint {
    inner: String,
    num_qubits: u32,
    trajectories: u32,
    shots: u64,
    seconds: f64,
    trajectories_per_sec: f64,
}

/// The `BENCH_backends.json` document.
#[derive(Debug, Serialize)]
struct Summary {
    bench: String,
    grid: String,
    stabilizer_scaling: Vec<ScalePoint>,
    trajectory_throughput: Vec<TrajectoryPoint>,
}

fn measure_stabilizer(workload: &str, n: u32, depth: usize, shots: u64) -> ScalePoint {
    // random_clifford measures every qubit; past 64 the sampler's 64-bit
    // outcome keys run out, so wide widths use GHZ with a 64-qubit
    // measured prefix.
    let circuit = if workload == "ghz" {
        ghz(n, n.min(64))
    } else {
        random_clifford(n, depth, 0xC11F + u64::from(n))
    };
    let backend = StabilizerBackend::default();
    let opts = RunOptions { shots, seed: 0x5EED + u64::from(n), ..Default::default() };
    let start = Instant::now();
    let out: RunOutput<f64> = backend.run(&circuit, &opts).expect("Clifford circuit runs");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(out.counts.expect("measured circuit yields counts").total(), shots);
    ScalePoint {
        workload: workload.to_owned(),
        num_qubits: n,
        gates: circuit.gates().len(),
        shots,
        seconds,
        shots_per_sec: shots as f64 / seconds.max(1e-9),
        tableau_bytes: tableau_bytes(n),
    }
}

fn measure_trajectories<S: Simulator<f64> + Sync>(
    inner_name: &str,
    inner: S,
    n: u32,
    trajectories: u32,
    shots: u64,
) -> TrajectoryPoint {
    let circuit = ghz(n, n);
    let model = NoiseModel::single(NoiseChannel::Depolarizing { p: 0.01 });
    let backend = TrajectoryBackend::new(inner, model, trajectories);
    let opts = RunOptions { shots, seed: 0x70AD, ..Default::default() };
    let start = Instant::now();
    let out: RunOutput<f64> = backend.run(&circuit, &opts).expect("noisy GHZ runs");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(out.counts.expect("counts").total(), shots);
    TrajectoryPoint {
        inner: inner_name.to_owned(),
        num_qubits: n,
        trajectories,
        shots,
        seconds,
        trajectories_per_sec: f64::from(trajectories) / seconds.max(1e-9),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let grid = if smoke { "smoke" } else { "full" };
    let (shots, depth, trajectories, traj_shots) =
        if smoke { (64, 8, 16, 200) } else { (1024, 32, 128, 4000) };

    println!("bench_backends ({grid}): stabilizer scaling 16 -> 64 -> 128 qubits");
    let mut scaling = Vec::new();
    for n in [16u32, 64, 128] {
        for workload in ["ghz", "random_clifford"] {
            // random_clifford measures all n qubits — cap that series at
            // the 64-bit outcome-key limit.
            if workload == "random_clifford" && n > 64 {
                continue;
            }
            let point = measure_stabilizer(workload, n, depth, shots);
            println!(
                "  {:>16} n={:<3} gates={:<5} {:>9.1} shots/s  tableau={} B",
                point.workload, n, point.gates, point.shots_per_sec, point.tableau_bytes
            );
            scaling.push(point);
        }
    }

    println!("bench_backends ({grid}): trajectory throughput, {trajectories} trajectories");
    let mut throughput = Vec::new();
    for (name, point) in [
        ("dense", measure_trajectories("dense", AerCpuBackend, 10, trajectories, traj_shots)),
        (
            "stabilizer",
            measure_trajectories(
                "stabilizer",
                StabilizerBackend::default(),
                10,
                trajectories,
                traj_shots,
            ),
        ),
    ] {
        println!("  inner={:<10} {:>9.1} trajectories/s", name, point.trajectories_per_sec);
        throughput.push(point);
    }

    let summary = Summary {
        bench: "backends".to_owned(),
        grid: grid.to_owned(),
        stabilizer_scaling: scaling,
        trajectory_throughput: throughput,
    };
    let json = serde_json::to_value(&summary).expect("summary serializes");
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::PathBuf::from(dir).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    };
    let path =
        root.join(if smoke { "BENCH_backends_smoke.json" } else { "BENCH_backends.json" });
    std::fs::write(&path, format!("{json}\n")).expect("write the backends summary");
    println!("→ summary written to {}", path.display());
}
