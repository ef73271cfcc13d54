//! End-to-end projection: circuit → fused kernels → dry-run traffic plan →
//! projected time on the paper's testbed.
//!
//! This is the "modeled mode" every figure harness uses for paper-scale
//! points. Operation counts are **exact** — the real fuser and the real
//! remap planner run on the real gate list; only the final
//! counts→seconds conversion is analytic.

use crate::cost::{CostModel, TimeBreakdown};
use crate::memory::amp_bytes;
use qgear_cluster::TrafficPlanner;
use qgear_ir::fusion::{self, FusedProgram, FusionError, Window};
use qgear_ir::Circuit;
use qgear_num::scalar::Precision;

/// Execution target for a projection, mirroring the Q-Gear target strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelTarget {
    /// Qiskit Aer on the Perlmutter CPU node (dashed baselines in Fig. 4a
    /// and Fig. 5). Aer runs fp64 internally.
    QiskitCpu,
    /// Q-Gear on `devices` pooled A100s (`nvidia` / `nvidia-mgpu`).
    QGearGpu {
        /// GPU count (power of two).
        devices: usize,
    },
    /// Pennylane lightning.gpu on `devices` A100s (Fig. 4c baseline).
    PennylaneGpu {
        /// GPU count (power of two).
        devices: usize,
    },
}

/// Inputs that don't live on the circuit itself.
#[derive(Debug, Clone, Copy)]
pub struct ProjectOptions {
    /// Numeric precision of the run.
    pub precision: Precision,
    /// Shots sampled after the unitary phase.
    pub shots: u64,
    /// Fusion window (paper default 5); ignored for unfused targets.
    pub fusion_width: usize,
}

impl Default for ProjectOptions {
    fn default() -> Self {
        ProjectOptions { precision: Precision::Fp32, shots: 0, fusion_width: fusion::DEFAULT_FUSION_WIDTH }
    }
}

/// Fuse `circ` and plan the exchange traffic for `devices`, then convert
/// to a time breakdown. The circuit must already be on the native set
/// (transpile first); measurements are split off and drive the sampling
/// term.
///
/// # Errors
///
/// Returns [`FusionError`] when the circuit cannot be fused (e.g. it
/// still contains arity-3 gates) — a cost model must reject such input,
/// not abort the process.
pub fn project_circuit(
    model: &CostModel,
    circ: &Circuit,
    target: ModelTarget,
    opts: &ProjectOptions,
) -> Result<TimeBreakdown, FusionError> {
    let (unitary, measured) = circ.split_measurements();
    let gates = unitary.unitary_count() as u64;
    let n = circ.num_qubits();
    let shots = if measured.is_empty() { 0 } else { opts.shots };

    Ok(match target {
        ModelTarget::QiskitCpu => {
            // Aer simulates in fp64 regardless of the GPU run's precision.
            let mut t = model.cpu_unitary(n, 16, gates);
            t.pipeline = model.qiskit_pipeline(gates);
            t.sampling = model.cpu_sampling(shots);
            t
        }
        ModelTarget::QGearGpu { devices } => {
            // Mirror the engine: the fusion window cannot exceed the
            // per-device local width, and a register narrower than
            // log2(devices)+2 cannot be split that far (each device must
            // hold at least a 2-qubit-local slice for CX kernels).
            let devices = effective_devices(devices, n);
            let width = effective_width(opts.fusion_width, n, devices);
            // The paper's A100 figures were measured under CUDA-Q's
            // support window, so the model fuses under it too.
            let program = fusion::try_fuse_in(&unitary, width, Window::Support)?;
            let traffic = plan_traffic(&program, n, devices, opts.precision, model);
            let mut t = model.gpu_unitary(
                n,
                amp_bytes(opts.precision),
                devices,
                program.blocks.len() as u64,
                &traffic,
            );
            t.pipeline = model.qgear_pipeline(gates);
            t.sampling = model.gpu_sampling(shots);
            t
        }
        ModelTarget::PennylaneGpu { devices } => {
            // No fusion: every gate is its own kernel; same distribution
            // scheme for global qubits.
            let devices = effective_devices(devices, n);
            let program = fusion::try_fuse_in(&unitary, 1, Window::Support)?;
            let traffic = plan_traffic(&program, n, devices, opts.precision, model);
            let mut t = model.pennylane_unitary(
                n,
                amp_bytes(opts.precision),
                devices,
                program.blocks.len() as u64,
                &traffic,
            );
            t.sampling = model.gpu_sampling(shots);
            t
        }
    })
}

/// Clamp a requested device count to what an `n`-qubit register can be
/// split across (2-qubit local slices at minimum).
fn effective_devices(requested: usize, n: u32) -> usize {
    let max = 1usize << n.saturating_sub(2).min(20);
    requested.clamp(1, max)
}

/// Clamp the fusion window to the per-device local width (>= 1).
fn effective_width(requested: usize, n: u32, devices: usize) -> usize {
    let p = devices.max(1).trailing_zeros();
    requested
        .clamp(1, fusion::MAX_FUSION_WIDTH)
        .min((n.saturating_sub(p)).max(1) as usize)
}

fn plan_traffic(
    program: &FusedProgram,
    n: u32,
    devices: usize,
    precision: Precision,
    model: &CostModel,
) -> qgear_cluster::TrafficStats {
    if devices <= 1 {
        return qgear_cluster::TrafficStats::default();
    }
    let mut planner = TrafficPlanner::new(n, devices, model.topology, amp_bytes(precision));
    planner.run_program(program);
    *planner.traffic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::Circuit;

    /// A stand-in for the paper's random CX-block circuits (the real
    /// generator lives in `qgear-workloads`; this keeps the dependency
    /// graph acyclic).
    pub(super) fn cx_blocks_public(n: u32, blocks: usize, seed: u64) -> Circuit {
        cx_blocks(n, blocks, seed)
    }

    fn cx_blocks(n: u32, blocks: usize, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for _ in 0..blocks {
            let a = rnd(n as u64) as u32;
            let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
            c.ry(rnd(628) as f64 / 100.0, a);
            c.rz(rnd(628) as f64 / 100.0, b);
            c.cx(a, b);
        }
        c
    }

    #[test]
    fn fig4a_shape_gpu_beats_cpu_by_two_orders() {
        let m = CostModel::paper_testbed();
        let c = cx_blocks(30, 100, 1);
        let opts = ProjectOptions { shots: 3000, ..Default::default() };
        let cpu = project_circuit(&m, &c, ModelTarget::QiskitCpu, &opts).unwrap().total();
        let gpu = project_circuit(&m, &c, ModelTarget::QGearGpu { devices: 1 }, &opts).unwrap().total();
        let speedup = cpu / gpu;
        assert!(
            (100.0..2000.0).contains(&speedup),
            "speedup {speedup:.0}x (cpu {cpu:.1}s, gpu {gpu:.2}s)"
        );
    }

    #[test]
    fn exponential_scaling_in_qubits() {
        let m = CostModel::paper_testbed();
        let opts = ProjectOptions::default();
        let t: Vec<f64> = (28..=32)
            .map(|n| {
                let c = cx_blocks(n, 100, 7);
                project_circuit(&m, &c, ModelTarget::QiskitCpu, &opts).unwrap().total()
            })
            .collect();
        for w in t.windows(2) {
            let ratio = w[1] / w[0];
            assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
        }
    }

    #[test]
    fn long_unitaries_cost_100x_short() {
        // Fig. 4a: "the Qiskit simulation takes 100 times longer" for 10k
        // blocks vs 100 blocks.
        let m = CostModel::paper_testbed();
        let opts = ProjectOptions::default();
        let short = project_circuit(&m, &cx_blocks(30, 100, 3), ModelTarget::QiskitCpu, &opts).unwrap();
        let long = project_circuit(&m, &cx_blocks(30, 10_000, 3), ModelTarget::QiskitCpu, &opts).unwrap();
        let ratio = long.total() / short.total();
        assert!((80.0..120.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn four_gpus_faster_than_one_when_memory_allows() {
        let m = CostModel::paper_testbed();
        let c = cx_blocks(32, 1000, 5);
        let opts = ProjectOptions::default();
        let one = project_circuit(&m, &c, ModelTarget::QGearGpu { devices: 1 }, &opts).unwrap().total();
        let four = project_circuit(&m, &c, ModelTarget::QGearGpu { devices: 4 }, &opts).unwrap().total();
        // Communication eats some of the 4x, but it must still win.
        assert!(four < one, "4 GPUs {four:.1}s vs 1 GPU {one:.1}s");
    }

    #[test]
    fn pennylane_loses_to_qgear_on_qft_sized_circuits() {
        let m = CostModel::paper_testbed();
        let c = cx_blocks(28, 200, 11);
        let opts = ProjectOptions { shots: 100, ..Default::default() };
        let qgear = project_circuit(&m, &c, ModelTarget::QGearGpu { devices: 4 }, &opts).unwrap().total();
        let penny = project_circuit(&m, &c, ModelTarget::PennylaneGpu { devices: 4 }, &opts).unwrap().total();
        assert!(penny > 1.5 * qgear, "pennylane {penny:.2}s vs qgear {qgear:.2}s");
    }

    #[test]
    fn reversal_1024_slower_than_256_at_40_qubits() {
        // Fig. 4b highlighted region: at 40 qubits a 1024-GPU cluster has
        // lower throughput than a 256-GPU cluster.
        let m = CostModel::paper_testbed();
        let c = cx_blocks(40, 3000, 13);
        let opts = ProjectOptions::default();
        let t256 = project_circuit(&m, &c, ModelTarget::QGearGpu { devices: 256 }, &opts).unwrap().total();
        let t1024 = project_circuit(&m, &c, ModelTarget::QGearGpu { devices: 1024 }, &opts).unwrap().total();
        assert!(
            t1024 > t256,
            "expected reversal: 1024 GPUs {t1024:.1}s vs 256 GPUs {t256:.1}s"
        );
    }

    /// The Gray-code uniformly controlled `ry` QCrank encodes each data
    /// qubit with (`qgear-workloads`' `append_ucry`), after the address
    /// superposition; angles do not shape the kernels.
    fn qcrank_shaped(addr: u32, data: u32) -> Circuit {
        let mut c = Circuit::new(addr + data);
        for q in 0..addr {
            c.h(q);
        }
        let n = 1usize << addr;
        for d in 0..data {
            for j in 0..n {
                c.ry(0.1 + 0.37 * (j % 11) as f64, addr + d);
                let ctrl = if j == n - 1 { addr - 1 } else { (j + 1).trailing_zeros() };
                c.cx(ctrl, addr + d);
            }
        }
        c.measure_all();
        c
    }

    /// Kernels `project_circuit` charged one A100 for.
    fn modeled_kernels(c: &Circuit) -> u64 {
        let m = CostModel::paper_testbed();
        let t = project_circuit(&m, c, ModelTarget::QGearGpu { devices: 1 }, &ProjectOptions::default());
        (t.unwrap().launch / m.gpu.kernel_launch).round() as u64
    }

    #[test]
    fn the_paper_model_counts_support_window_kernels() {
        // Table 2's "finger" row (10 address + 5 data qubits) and a
        // native 20-qubit QFT: the kernel counts of CUDA-Q's `gate fusion
        // = 5`, however far the engine's table window widens its blocks.
        assert_eq!(modeled_kernels(&qcrank_shaped(10, 5)), 642);
        let mut qft = Circuit::new(20);
        for i in (0..20).rev() {
            qft.h(i);
            for j in (0..i).rev() {
                qft.cr1(std::f64::consts::TAU / f64::powi(2.0, (i - j + 1) as i32), j, i);
            }
        }
        let (native, _) = qgear_ir::transpile::decompose_to_native(&qft);
        assert_eq!(modeled_kernels(&native), 48);
    }

    #[test]
    fn ten_minutes_feasibility_at_42_qubits() {
        // §3: large circuits handled "within a reasonable time of
        // approximately 10 min, provided a sufficient number of GPUs".
        let m = CostModel::paper_testbed();
        let c = cx_blocks(42, 3000, 17);
        let opts = ProjectOptions { shots: 10_000, ..Default::default() };
        let t = project_circuit(&m, &c, ModelTarget::QGearGpu { devices: 1024 }, &opts).unwrap().total();
        // The paper reports ~10 min; our comm model is deliberately
        // pessimistic (no compute/comm overlap, per-bit pairwise
        // exchanges), so accept up to ~2 h — still "feasible given
        // sufficient GPUs", and EXPERIMENTS.md discusses the gap.
        assert!(
            (60.0..7200.0).contains(&t),
            "42-qubit run should land in the minutes-to-hours band, got {t:.0}s"
        );
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    #[ignore]
    fn print_fig4b_grid() {
        let m = CostModel::paper_testbed();
        let opts = ProjectOptions::default();
        for &n in &[36u32, 38, 39, 40, 41, 42] {
            let c = super::tests::cx_blocks_public(n, 3000, 13);
            for &p in &[64usize, 256, 1024] {
                if n < p.trailing_zeros() + 2 { continue; }
                let local = (1u128 << n) * 8 / p as u128;
                if local > m.gpu.memory_bytes { print!("n={n} P={p}: OOM; "); continue; }
                let t = project_circuit(&m, &c, ModelTarget::QGearGpu { devices: p }, &opts).unwrap();
                println!("n={n} P={p}: {t}");
            }
        }
    }
}
