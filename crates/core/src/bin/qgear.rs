//! `qgear` — the command-line driver, mirroring the paper's
//! `python run.py --target nvidia-mgpu` entry point (Appendix E.3).
//!
//! ```text
//! qgear run       --workload random --qubits 12 --blocks 200 --shots 1000 \
//!                 --target nvidia-mgpu:4 --precision fp32
//! qgear run       --workload qft --qubits 10 --shots 100
//! qgear run       --workload qcrank --qubits 12 --shots 100000
//! qgear transform --workload random --qubits 10 --blocks 50 --out circuits.h5l
//! qgear run       --input circuits.h5l --target nvidia
//! qgear project   --workload random --qubits 36 --blocks 3000 --target nvidia-mgpu:256
//! ```
//!
//! `run` executes for real on the simulated engines; `project` only prices
//! a configuration on the modeled Perlmutter testbed (any size);
//! `transform` writes the §2.1 tensor encoding to an HDF5-like file that a
//! later `run --input` consumes — the paper's separate-program handoff.

use qgear::storage;
use qgear::{QGear, QGearConfig, Target};
use qgear_ir::Circuit;
use qgear_num::scalar::Precision;
use qgear_workloads::images::synthetic;
use qgear_workloads::qcrank::{QcrankCodec, QcrankConfig};
use qgear_workloads::qft::{qft_circuit, QftOptions};
use qgear_workloads::random::{generate_random_gate_list, RandomCircuitSpec};
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Args {
    command: String,
    workload: String,
    qubits: u32,
    blocks: usize,
    shots: u64,
    seed: u64,
    target: Target,
    precision: Precision,
    fusion: usize,
    input: Option<String>,
    out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            command: String::new(),
            workload: "random".into(),
            qubits: 10,
            blocks: 100,
            shots: 0,
            seed: 42,
            target: Target::Nvidia,
            precision: Precision::Fp32,
            fusion: 5,
            input: None,
            out: None,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    args.command = it.next().cloned().ok_or("missing command (run|transform|project)")?;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--qubits" => args.qubits = value()?.parse().map_err(|e| format!("--qubits: {e}"))?,
            "--blocks" => args.blocks = value()?.parse().map_err(|e| format!("--blocks: {e}"))?,
            "--shots" => args.shots = value()?.parse().map_err(|e| format!("--shots: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--target" => {
                let t = value()?;
                args.target = Target::parse(&t).ok_or(format!("unknown target '{t}'"))?;
            }
            "--precision" => {
                let p = value()?;
                args.precision =
                    Precision::parse(&p).ok_or(format!("unknown precision '{p}'"))?;
            }
            "--fusion" => args.fusion = value()?.parse().map_err(|e| format!("--fusion: {e}"))?,
            "--input" => args.input = Some(value()?),
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn build_workload(args: &Args) -> Result<Circuit, String> {
    match args.workload.as_str() {
        "random" => Ok(generate_random_gate_list(&RandomCircuitSpec {
            num_qubits: args.qubits,
            num_blocks: args.blocks,
            seed: args.seed,
            measure: args.shots > 0,
        })),
        "qft" => {
            let mut c = qft_circuit(args.qubits, &QftOptions::default());
            if args.shots > 0 {
                c.measure_all();
            }
            Ok(c)
        }
        "qcrank" => {
            // Split qubits 2:1 address:data and fill with a synthetic image.
            let addr = (args.qubits * 2) / 3;
            let data = args.qubits - addr;
            if addr == 0 || data == 0 {
                return Err("qcrank needs at least 3 qubits".into());
            }
            let config = QcrankConfig { addr_qubits: addr, data_qubits: data };
            let width = 1u32 << (addr / 2);
            let height = config.capacity() as u32 / width;
            let img = synthetic(width, height, args.seed);
            Ok(QcrankCodec::new(config).encode_image(&img))
        }
        other => Err(format!("unknown workload '{other}' (random|qft|qcrank)")),
    }
}

fn load_or_build(args: &Args) -> Result<Vec<Circuit>, String> {
    match &args.input {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
            storage::circuits_from_h5_bytes(&bytes).map_err(|e| e.to_string())
        }
        None => Ok(vec![build_workload(args)?]),
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let circuits = load_or_build(args)?;
    let qgear = QGear::new(QGearConfig {
        target: args.target,
        precision: args.precision,
        shots: args.shots,
        seed: args.seed,
        fusion_width: args.fusion,
        keep_state: false,
        ..Default::default()
    });
    for circ in &circuits {
        println!(
            "circuit '{}': {} qubits, {} gates → target {}",
            if circ.name.is_empty() { "<unnamed>" } else { &circ.name },
            circ.num_qubits(),
            circ.len(),
            args.target
        );
        let result = qgear.run(circ).map_err(|e| e.to_string())?;
        println!(
            "  measured here: {:.3} ms | modeled testbed: {}",
            result.measured_seconds() * 1e3,
            result.modeled
        );
        println!(
            "  kernels {} | gates {} | comm messages {}",
            result.stats.kernels_launched, result.stats.gates_applied, result.stats.comm_messages
        );
        if let Some(counts) = &result.counts {
            let mut top: Vec<(u64, u64)> = counts.map.iter().map(|(&k, &c)| (k, c)).collect();
            top.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            println!("  top outcomes of {} shots:", counts.total());
            for (key, count) in top.into_iter().take(5) {
                println!("    |{key:0width$b}⟩: {count}", width = circ.num_qubits() as usize);
            }
        }
    }
    Ok(())
}

fn cmd_transform(args: &Args) -> Result<(), String> {
    let circ = build_workload(args)?;
    let qgear = QGear::new(QGearConfig {
        fusion_width: args.fusion,
        ..Default::default()
    });
    let artifacts = qgear.transform(&circ).map_err(|e| e.to_string())?;
    println!(
        "transformed '{}': {} native gates, {} fused kernels ({:.2} gates/kernel), global phase {:.6}",
        circ.name,
        artifacts.native.len(),
        artifacts.program.blocks.len(),
        artifacts.compression_ratio(),
        artifacts.global_phase
    );
    let out = args.out.clone().unwrap_or_else(|| "circuits.h5l".into());
    let bytes = storage::circuits_to_h5_bytes(std::slice::from_ref(&artifacts.native), None)
        .map_err(|e| e.to_string())?;
    std::fs::write(&out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} bytes to {out}", bytes.len());
    Ok(())
}

fn cmd_project(args: &Args) -> Result<(), String> {
    let circ = build_workload(args)?;
    let qgear = QGear::new(QGearConfig {
        target: args.target,
        precision: args.precision,
        shots: args.shots,
        fusion_width: args.fusion,
        ..Default::default()
    });
    // Projection needs the native circuit but never allocates the state.
    let (native, _) = qgear_ir::transpile::decompose_to_native(&circ);
    let t = qgear.project(&native).map_err(|e| e.to_string())?;
    println!(
        "{} on {} at {}: {}",
        circ.name, args.target, args.precision, t
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        eprintln!(
            "usage: qgear <run|transform|project> [--workload random|qft|qcrank] [--qubits N]\n\
             \x20            [--blocks N] [--shots N] [--seed N] [--target T[:devices]]\n\
             \x20            [--precision fp32|fp64] [--fusion K] [--input FILE] [--out FILE]\n\
             targets: qiskit-aer-cpu | nvidia | nvidia-mgpu:P | nvidia-mqpu:P | pennylane-lightning-gpu"
        );
        return ExitCode::from(2);
    }
    let result = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "run" => cmd_run(&args),
        "transform" => cmd_transform(&args),
        "project" => cmd_project(&args),
        other => Err(format!("unknown command '{other}'")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("qgear: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_full_command_line() {
        let a = parse_args(&argv(
            "run --workload qft --qubits 20 --shots 500 --target nvidia-mgpu:8 --precision fp64 --fusion 3 --seed 7",
        ))
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload, "qft");
        assert_eq!(a.qubits, 20);
        assert_eq!(a.shots, 500);
        assert_eq!(a.target, Target::NvidiaMgpu { devices: 8 });
        assert_eq!(a.precision, Precision::Fp64);
        assert_eq!(a.fusion, 3);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&argv("run --target warp-drive")).is_err());
        assert!(parse_args(&argv("run --qubits banana")).is_err());
        assert!(parse_args(&argv("run --qubits")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn workload_builders() {
        let mut a = Args { qubits: 6, blocks: 10, shots: 100, ..Default::default() };
        let c = build_workload(&a).unwrap();
        assert_eq!(c.num_qubits(), 6);
        a.workload = "qft".into();
        assert!(build_workload(&a).is_ok());
        a.workload = "qcrank".into();
        let qc = build_workload(&a).unwrap();
        assert_eq!(qc.num_qubits(), 6);
        a.workload = "nope".into();
        assert!(build_workload(&a).is_err());
    }

    #[test]
    fn run_and_transform_roundtrip_through_file() {
        let dir = std::env::temp_dir().join("qgear_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.h5l").to_string_lossy().into_owned();
        let t_args = Args {
            command: "transform".into(),
            qubits: 5,
            blocks: 8,
            out: Some(path.clone()),
            ..Default::default()
        };
        cmd_transform(&t_args).unwrap();
        let r_args = Args {
            command: "run".into(),
            input: Some(path.clone()),
            shots: 0,
            ..Default::default()
        };
        cmd_run(&r_args).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn project_handles_paper_scale() {
        let a = Args {
            command: "project".into(),
            qubits: 40,
            blocks: 3000,
            target: Target::NvidiaMgpu { devices: 256 },
            ..Default::default()
        };
        cmd_project(&a).unwrap();
    }
}
