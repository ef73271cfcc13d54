//! Quickstart: build a circuit with the Qiskit-like API, run it through
//! the Q-Gear pipeline on the simulated-GPU target, and inspect counts,
//! engine statistics, and the projected Perlmutter wall-clock.
//!
//! Run with: `cargo run --example quickstart`

use qgear::{QGear, QGearConfig, Target};
use qgear_ir::Circuit;
use qgear_num::scalar::Precision;

fn main() {
    // A 4-qubit GHZ circuit, built like a QuantumCircuit.
    let mut circ = Circuit::with_capacity(4, "ghz4", 8);
    circ.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();

    // Configure the pipeline: one simulated A100, fp32, 10k shots —
    // exactly the knobs the paper's Slurm scripts pass.
    let qgear = QGear::new(QGearConfig {
        target: Target::Nvidia,
        precision: Precision::Fp32,
        shots: 10_000,
        ..Default::default()
    });

    // Inspect the transformation first (§2.1–§2.2): native gates, tensor
    // encoding, fused kernels.
    let artifacts = qgear.transform(&circ).unwrap();
    println!("native gates:       {}", artifacts.native.len());
    println!("fused kernels:      {}", artifacts.program.blocks.len());
    println!("gates per kernel:   {:.2}", artifacts.compression_ratio());

    // Execute.
    let result = qgear.run(&circ).unwrap();
    let counts = result.counts.as_ref().expect("shots were requested");
    println!("\nmeasurement counts ({} shots):", counts.total());
    for (outcome, count) in &counts.map {
        println!("  |{outcome:04b}⟩: {count}");
    }

    // GHZ sanity: only all-zeros and all-ones appear.
    assert_eq!(counts.get(0b0000) + counts.get(0b1111), counts.total());

    println!("\nthis machine (measured): {:.3} ms", result.measured_seconds() * 1e3);
    println!("Perlmutter A100 (modeled): {}", result.modeled);
    println!(
        "kernels launched: {}, state bytes touched: {}",
        result.stats.kernels_launched, result.stats.bytes_touched
    );
}
