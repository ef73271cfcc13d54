//! Cluster execution engine: the `nvidia-mgpu` and `nvidia-mqpu` targets.

use crate::comm::ClusterTopology;
use crate::sharded::ShardedRun;
use qgear_ir::Circuit;
use qgear_num::Scalar;
use qgear_statevec::backend::{
    marginal_of_runs, sample_from_probs, RunOptions, RunOutput, SimError, Simulator,
};
use qgear_statevec::GpuDevice;
use qgear_telemetry::clock::{SharedClock, WallClock};

/// A cluster of simulated GPUs.
///
/// * [`ClusterEngine::run`] — **mgpu** mode: one circuit pooled over all
///   devices (each device must hold `2^n / P` amplitudes).
/// * [`ClusterEngine::run_batch`] — **mqpu** mode: independent circuits,
///   one per device round-robin, "effectively utilizing them as quantum
///   processing units" (§3).
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    /// Per-device description (memory bound comes from here).
    pub device: GpuDevice,
    /// Number of devices (a power of two for mgpu).
    pub num_devices: usize,
    /// Interconnect layout.
    pub topology: ClusterTopology,
    /// Ablation: restore the identity qubit layout after every kernel.
    pub restore_layout: bool,
    /// Clock that times the kernel walk and the sample phase
    /// ([`ExecStats::elapsed`](qgear_statevec::ExecStats) and
    /// `sampling_elapsed` are read from it). Production keeps the
    /// default wall clock; the simulation harness substitutes a virtual
    /// one and asserts the recorded spans exactly.
    pub clock: SharedClock,
}

impl ClusterEngine {
    /// A cluster of `num_devices` A100-40GB devices in the default
    /// Perlmutter-like topology.
    pub fn a100_cluster(num_devices: usize) -> Self {
        ClusterEngine {
            device: GpuDevice::a100_40gb(),
            num_devices,
            topology: ClusterTopology::default(),
            restore_layout: false,
            clock: WallClock::shared(),
        }
    }

    /// Largest register width the pooled cluster can hold at `amp_bytes`
    /// per amplitude: single-device capacity plus `log2(P)` extra qubits.
    pub fn max_qubits(&self, amp_bytes: u128) -> u32 {
        self.device.max_qubits(amp_bytes) + self.num_devices.trailing_zeros()
    }

    /// Run independent circuits, one per device (mqpu). Circuits beyond
    /// the device count wrap around round-robin, like queueing a second
    /// wave of Slurm tasks. Outputs are index-aligned with the inputs.
    pub fn run_batch<T: Scalar>(
        &self,
        circuits: &[Circuit],
        opts: &RunOptions,
    ) -> Vec<Result<RunOutput<T>, SimError>> {
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::RUN_BATCH);
        circuits
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // Each device handles its own circuit with its own seed so
                // results are independent of batch composition.
                let device_opts = RunOptions {
                    seed: opts.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..opts.clone()
                };
                self.device.run(c, &device_opts)
            })
            .collect()
    }
}

impl<T: Scalar> Simulator<T> for ClusterEngine {
    fn name(&self) -> &'static str {
        "nvidia-mgpu"
    }

    /// One [`ShardedRun`] driven straight through — the plan, the kernel
    /// walk and the counters live there, once — plus the cross-device
    /// sample.
    fn run(&self, circuit: &Circuit, opts: &RunOptions) -> Result<RunOutput<T>, SimError> {
        let sim_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let mut run: ShardedRun<T> = ShardedRun::new(self, circuit, opts)?;
        run.advance(usize::MAX).map_err(|e| SimError::Interconnect(e.to_string()))?;
        drop(sim_span);
        let mut stats = run.stats();
        qgear_telemetry::counter_add(qgear_telemetry::names::GATES_APPLIED, stats.gates_applied as u128);
        qgear_telemetry::counter_add(qgear_telemetry::names::KERNELS_LAUNCHED, stats.kernels_launched as u128);

        // Sampling: the one marginal, read from the slices where they lie,
        // then one multinomial draw — the single-device engines' marginal
        // and draw, so the counts are theirs bit for bit given the same
        // amplitudes, seed and shot split.
        let measured = circuit.measured_qubits();
        let sample_start = self.clock.now();
        let sample_span = qgear_telemetry::span!(qgear_telemetry::names::spans::SAMPLE);
        let counts = if opts.shots > 0 && !measured.is_empty() {
            let dist = run.dist();
            let probs = marginal_of_runs(dist.logical_runs(), dist.num_qubits(), &measured);
            sample_from_probs(&probs, &measured, &opts.sampling())
        } else {
            None
        };
        drop(sample_span);
        stats.sampling_elapsed = self.clock.now().saturating_sub(sample_start);

        let state = opts.keep_state.then(|| run.state());
        Ok(RunOutput { state, counts, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::reference;
    use qgear_num::approx::max_deviation;

    fn entangling_circuit(n: u32, seed: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let mut s = seed | 1;
        let mut rnd = move |m: u64| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        for q in 0..n {
            c.h(q);
        }
        for _ in 0..40 {
            let a = rnd(n as u64) as u32;
            let b = (a + 1 + rnd(n as u64 - 1) as u32) % n;
            c.ry(rnd(628) as f64 / 100.0, a);
            c.rz(rnd(628) as f64 / 100.0, b);
            c.cx(a, b);
        }
        c
    }

    #[test]
    fn mgpu_matches_reference() {
        let c = entangling_circuit(8, 1);
        let eng = ClusterEngine::a100_cluster(4);
        let out: RunOutput<f64> = eng.run(&c, &RunOptions::default()).unwrap();
        let expect = reference::run(&c);
        assert!(max_deviation(out.state.unwrap().amplitudes(), &expect) < 1e-11);
        assert!(out.stats.comm_messages > 0, "global gates must communicate");
    }

    #[test]
    fn mgpu_extends_capacity_beyond_one_device() {
        // Device that holds exactly 2^10 fp64 amplitudes (16 KiB).
        let mut eng = ClusterEngine::a100_cluster(4);
        eng.device.memory_bytes = 16 * 1024;
        // 10 qubits: needs 16 KiB total, 4 KiB per device — fits.
        let c = entangling_circuit(10, 2);
        assert!(<ClusterEngine as Simulator<f64>>::run(&eng, &c, &RunOptions { keep_state: false, ..Default::default() }).is_ok());
        // 12 qubits: 64 KiB total, 16 KiB per device — exactly fits.
        let c12 = entangling_circuit(12, 3);
        assert!(<ClusterEngine as Simulator<f64>>::run(&eng, &c12, &RunOptions { keep_state: false, ..Default::default() }).is_ok());
        // 13 qubits: 32 KiB per device — rejected.
        let c13 = entangling_circuit(13, 4);
        assert!(matches!(
            <ClusterEngine as Simulator<f64>>::run(&eng, &c13, &RunOptions::default()),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn cluster_max_qubits_reproduces_fig4a_limits() {
        // 4×A100-40GB at fp32: 32 + 2 = 34 qubits — the Fig. 4a triangle limit.
        let eng = ClusterEngine::a100_cluster(4);
        assert_eq!(eng.max_qubits(8), 34);
        // 1024 GPUs: 32 + 10 = 42 qubits — the Fig. 4b ceiling.
        let big = ClusterEngine::a100_cluster(1024);
        assert_eq!(big.max_qubits(8), 42);
    }

    #[test]
    fn mgpu_sampling_consistent_with_state() {
        let mut c = entangling_circuit(6, 5);
        c.measure_all();
        let eng = ClusterEngine::a100_cluster(4);
        let opts = RunOptions { shots: 200_000, ..Default::default() };
        let out: RunOutput<f64> = eng.run(&c, &opts).unwrap();
        let state = out.state.unwrap();
        let counts = out.counts.unwrap();
        let probs = state.probabilities();
        for (key, &count) in counts.map.iter() {
            let p = probs[*key as usize];
            let observed = count as f64 / 200_000.0;
            let sigma = (p * (1.0 - p) / 200_000.0).sqrt();
            assert!(
                (observed - p).abs() < 6.0 * sigma + 1e-6,
                "key {key}: {observed} vs {p}"
            );
        }
    }

    #[test]
    fn mqpu_batch_runs_independent_circuits() {
        let eng = ClusterEngine::a100_cluster(4);
        let circuits: Vec<Circuit> = (0..6).map(|i| entangling_circuit(5, 100 + i)).collect();
        let outs: Vec<Result<RunOutput<f64>, _>> =
            eng.run_batch(&circuits, &RunOptions::default());
        assert_eq!(outs.len(), 6);
        for (i, (out, c)) in outs.into_iter().zip(&circuits).enumerate() {
            let out = out.unwrap();
            let expect = reference::run(c);
            assert!(
                max_deviation(out.state.unwrap().amplitudes(), &expect) < 1e-11,
                "circuit {i}"
            );
        }
    }

    #[test]
    fn non_power_of_two_rejected_for_mgpu() {
        let eng = ClusterEngine::a100_cluster(3);
        let c = entangling_circuit(5, 6);
        assert!(matches!(
            <ClusterEngine as Simulator<f64>>::run(&eng, &c, &RunOptions::default()),
            Err(SimError::UnsupportedGate(_))
        ));
    }

    #[test]
    fn too_many_devices_for_width_rejected() {
        // 5 qubits over 16 devices leaves local width 1 < fusion width.
        let eng = ClusterEngine::a100_cluster(16);
        let c = entangling_circuit(5, 7);
        assert!(matches!(
            <ClusterEngine as Simulator<f64>>::run(&eng, &c, &RunOptions::default()),
            Err(SimError::TooManyQubits(_))
        ));
    }

    #[test]
    fn restore_layout_ablation_still_correct() {
        let c = entangling_circuit(7, 8);
        let mut eng = ClusterEngine::a100_cluster(8);
        eng.restore_layout = true;
        let out: RunOutput<f64> = eng
            .run(&c, &RunOptions { fusion_width: 2, ..Default::default() })
            .unwrap();
        let expect = reference::run(&c);
        assert!(max_deviation(out.state.unwrap().amplitudes(), &expect) < 1e-11);
    }
}
