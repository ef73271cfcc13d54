//! Backend probe: stabilizer scaling — the engine no `benchmark/`
//! workload reaches. Prints its table and writes nothing.
//!
//! The series backs `docs/BACKENDS.md`: wall time for Clifford workloads
//! at 16 → 64 → 128 qubits on the CHP tableau engine. Dense simulation is
//! infeasible past ~32 qubits on the modelled A100 (Fig. 4a's memory
//! wall); the tableau's quadratic footprint sails through, and this
//! series records by how much: gates, shots, seconds, shots/s, and the
//! tableau bytes the engine's memory gate checks.
//!
//! Usage: `cargo run --release -p qgear-bench --bin bench_backends` for
//! the full shot counts, `--smoke` for a seconds-long run (same width
//! grid — the tableau is cheap enough to take 128 qubits even in smoke —
//! smaller shot counts).

use qgear_stabilizer::{StabilizerBackend, Tableau};
use qgear_statevec::{RunOptions, RunOutput, Simulator};
use qgear_workloads::clifford::{ghz, random_clifford};
use std::time::Instant;

/// One stabilizer-scaling point: wall time for `shots` samples, printed
/// with the tableau's bytes at this width (quadratic, vs 2^n dense).
fn measure_stabilizer(workload: &str, n: u32, depth: usize, shots: u64) {
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
    println!(
        "  {:>16} n={:<3} gates={:<5} {:>9.1} shots/s  tableau={} B",
        workload,
        n,
        circuit.gates().len(),
        shots as f64 / seconds.max(1e-9),
        Tableau::memory_bytes(n)
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke { "smoke" } else { "full" };
    let (shots, depth) = if smoke { (64, 8) } else { (1024, 32) };

    println!("bench_backends ({grid}): stabilizer scaling 16 -> 64 -> 128 qubits");
    for n in [16u32, 64, 128] {
        measure_stabilizer("ghz", n, depth, shots);
        // random_clifford measures all n qubits — cap that series at the
        // 64-bit outcome-key limit.
        if n <= 64 {
            measure_stabilizer("random_clifford", n, depth, shots);
        }
    }
}
