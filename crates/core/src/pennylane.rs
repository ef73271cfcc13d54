//! The Pennylane-lightning.gpu baseline model.
//!
//! §4 explains why Pennylane loses to Q-Gear despite sharing cuQuantum
//! underneath: "when Pennylane invokes the … backend, the simulation
//! process takes longer because it must first transpile high-level Python
//! representations into low-level CUDA kernels". Two consequences are
//! modeled here:
//!
//! 1. **no cross-gate fusion** — each gate becomes its own kernel sweep
//!    (executed for real, so results stay exact);
//! 2. **per-gate lowering latency** — charged by the performance model's
//!    `pennylane_per_gate` constant at projection time.

use qgear_ir::Circuit;
use qgear_num::Scalar;
use qgear_statevec::{GpuDevice, RunOptions, RunOutput, SimError, Simulator};

/// Unfused GPU execution standing in for Pennylane lightning.gpu.
#[derive(Debug, Clone)]
pub struct PennylaneLikeBackend {
    /// The underlying simulated device.
    pub device: GpuDevice,
}

impl Default for PennylaneLikeBackend {
    fn default() -> Self {
        PennylaneLikeBackend { device: GpuDevice::a100_40gb() }
    }
}

impl<T: Scalar> Simulator<T> for PennylaneLikeBackend {
    fn name(&self) -> &'static str {
        "pennylane-lightning-gpu"
    }

    fn run(&self, circuit: &Circuit, opts: &RunOptions) -> Result<RunOutput<T>, SimError> {
        // Per-gate kernels: force the fusion window to 1.
        let unfused = RunOptions { fusion_width: 1, ..opts.clone() };
        self.device.run(circuit, &unfused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::reference;
    use qgear_num::approx::max_deviation;

    #[test]
    fn results_match_reference_exactly() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.7, 2).cx(1, 3).rz(-0.4, 0);
        let out: RunOutput<f64> =
            PennylaneLikeBackend::default().run(&c, &RunOptions::default()).unwrap();
        let expect = reference::run(&c);
        assert!(max_deviation(out.state.unwrap().amplitudes(), &expect) < 1e-12);
    }

    #[test]
    fn launches_one_kernel_per_gate_cluster() {
        // No cross-qubit fusion: kernel count must be at least the number
        // of two-qubit gates plus distinct single-qubit groups.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ry(0.7, 2).cx(1, 3).rz(-0.4, 0);
        let penny: RunOutput<f64> =
            PennylaneLikeBackend::default().run(&c, &RunOptions::default()).unwrap();
        let qgear: RunOutput<f64> =
            GpuDevice::a100_40gb().run(&c, &RunOptions::default()).unwrap();
        assert!(penny.stats.kernels_launched > qgear.stats.kernels_launched);
    }

    #[test]
    fn gates_on_different_qubits_stay_separate_kernels() {
        // A native `cr1` opens with two `rz` on different qubits: phases a
        // wider window would merge into one kernel. Here every native gate
        // is its own kernel.
        let mut c = Circuit::new(2);
        c.h(0).h(1).cr1(0.7, 0, 1);
        let native = qgear_ir::transpile::decompose_to_native(&c).0;
        let out: RunOutput<f64> =
            PennylaneLikeBackend::default().run(&native, &RunOptions::default()).unwrap();
        assert_eq!(out.stats.kernels_launched as usize, native.gates().len());
    }

    #[test]
    fn fusion_width_request_is_ignored() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).h(2);
        let wide = RunOptions { fusion_width: 5, ..Default::default() };
        let narrow = RunOptions { fusion_width: 1, ..Default::default() };
        let a: RunOutput<f64> = PennylaneLikeBackend::default().run(&c, &wide).unwrap();
        let b: RunOutput<f64> = PennylaneLikeBackend::default().run(&c, &narrow).unwrap();
        assert_eq!(a.stats.kernels_launched, b.stats.kernels_launched);
    }
}
