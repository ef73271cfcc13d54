//! Ablation: mixing-aware distribution (control/diagonal global-qubit
//! optimization) vs naive remap-everything.
//!
//! Kernels that do not *mix* a device-global qubit — pure controls and
//! diagonal phases — run with zero communication: each device selects
//! the sub-unitaries its rank bits pick. This bin quantifies the exchange
//! traffic that optimization removes, per workload, at paper scale
//! (planned) and small scale (executed).
//!
//! Usage: `cargo run --release -p qgear-bench --bin ablation_mixing`

use qgear_bench::report::Report;
use qgear_cluster::{ClusterTopology, DistributedState, QubitLayout, TrafficPlanner};
use qgear_ir::fusion::{fuse, FusedProgram};
use qgear_ir::{reference, Circuit};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use qgear_workloads::random::{generate_random_gate_list, RandomCircuitSpec};

/// Swap count under the naive (every operand mixes) policy.
fn naive_swaps(prog: &FusedProgram, n: u32, lw: u32) -> u64 {
    let mut layout = QubitLayout::identity(n, lw);
    prog.blocks
        .iter()
        .map(|b| layout.plan_block(&b.qubits).len() as u64)
        .sum()
}

fn main() {
    let mut report = Report::new(
        "ablation_mixing",
        "mixing-aware global-qubit handling vs naive remapping",
    );
    let topo = ClusterTopology::default();

    println!(
        "{:<28} {:>8} {:>8} {:>14} {:>14} {:>8}",
        "workload", "devices", "kernels", "naive swaps", "smart swaps", "saved"
    );
    let workloads: Vec<(String, Circuit)> = vec![
        (
            "qft-24q".into(),
            qft_circuit(24, &QftOptions { reverse: false, ..Default::default() }),
        ),
        (
            "qft-33q".into(),
            qft_circuit(33, &QftOptions { reverse: false, ..Default::default() }),
        ),
        (
            "random-30q-3000b".into(),
            generate_random_gate_list(&RandomCircuitSpec {
                num_qubits: 30,
                num_blocks: 3000,
                seed: 3,
                measure: false,
            }),
        ),
    ];
    for (name, circ) in &workloads {
        let (native, _) = qgear_ir::transpile::decompose_to_native(circ);
        let prog = fuse(&native, 5);
        for devices in [4usize, 64] {
            let n = circ.num_qubits();
            let p = devices.trailing_zeros();
            if n <= p + 2 {
                continue;
            }
            let mut smart = TrafficPlanner::new(n, devices, topo, 8);
            smart.run_program(&prog);
            let naive = naive_swaps(&prog, n, n - p);
            let saved = 100.0 * (1.0 - smart.swaps() as f64 / naive.max(1) as f64);
            println!(
                "{name:<28} {devices:>8} {:>8} {naive:>14} {:>14} {saved:>7.1}%",
                prog.blocks.len(),
                smart.swaps()
            );
            report.push(
                &format!("{name}-{devices}dev-smart"),
                devices as f64,
                smart.swaps() as f64,
                "swaps",
                "modeled",
                None,
                None,
            );
            report.push(
                &format!("{name}-{devices}dev-naive"),
                devices as f64,
                naive as f64,
                "swaps",
                "modeled",
                None,
                None,
            );
        }
    }

    // Executed correctness + traffic at small scale.
    println!("\n--- executed: QFT 10q over 4 devices ---");
    let circ = qft_circuit(10, &QftOptions { reverse: false, ..Default::default() });
    let (native, phase) = qgear_ir::transpile::decompose_to_native(&circ);
    let prog = fuse(&native, 5);
    let mut dist: DistributedState<f64> = DistributedState::zero(10, 4, topo);
    dist.run_program(&prog).expect("healthy fabric");
    let mut expect = reference::run(&native);
    reference::apply_global_phase(&mut expect, 0.0);
    let got = dist.gather();
    let fidelity = {
        let dot: qgear_num::C64 = got
            .amplitudes()
            .iter()
            .zip(&expect)
            .map(|(&a, &b)| a.conj() * b)
            .sum();
        dot.norm_sqr()
    };
    println!(
        "swaps {} | traffic {} B | fidelity vs reference {fidelity:.12}",
        dist.swaps(),
        dist.traffic().total_bytes()
    );
    let _ = phase;
    assert!(fidelity > 1.0 - 1e-9);
    report.finish();
}
