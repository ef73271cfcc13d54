//! Timing formulas.
//!
//! Every formula converts *measured operation counts* (kernel launches,
//! bytes swept, exchange traffic by link class, shots) into projected
//! seconds on the paper's testbed. State-vector sweeps are modeled as
//! memory-bandwidth-bound — the standard regime for dense simulators —
//! with fixed per-kernel launch costs; exchanges are modeled per link
//! class with latency and (for the inter-rack class) a dragonfly
//! contention factor. See `crate::calibration` for how each constant was
//! chosen and which paper anchor it reproduces.

use crate::hardware::{perlmutter_links, CpuNodeSpec, GpuSpec, LinkSpec};
use qgear_cluster::{ClusterTopology, LinkClass, TrafficStats};

/// Projected wall-clock, split by phase. All values in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Front-end pipeline cost: circuit construction / transpilation /
    /// (for Q-Gear) tensor encode+decode.
    pub pipeline: f64,
    /// State-vector sweep time.
    pub compute: f64,
    /// Kernel-launch / per-gate dispatch overhead.
    pub launch: f64,
    /// Inter-device exchange time.
    pub comm: f64,
    /// Shot-sampling time.
    pub sampling: f64,
    /// Job/device initialization.
    pub init: f64,
}

impl TimeBreakdown {
    /// Total projected seconds.
    pub fn total(&self) -> f64 {
        self.pipeline + self.compute + self.launch + self.comm + self.sampling + self.init
    }
}

impl std::fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3}s (pipeline {:.3} + compute {:.3} + launch {:.3} + comm {:.3} + sampling {:.3} + init {:.3})",
            self.total(),
            self.pipeline,
            self.compute,
            self.launch,
            self.comm,
            self.sampling,
            self.init
        )
    }
}

/// The full calibrated model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// GPU device description.
    pub gpu: GpuSpec,
    /// CPU-node description (baseline host).
    pub cpu: CpuNodeSpec,
    /// Link classes, index-aligned with [`LinkClass`].
    pub links: [LinkSpec; 3],
    /// Cluster topology (for rack-span contention).
    pub topology: ClusterTopology,
    /// Straggler coefficient: kernel barriers cost
    /// `(1 + straggler_coeff · log2 P)` of the ideal time (the paper's
    /// "GPUs … not warmed up" effect).
    pub straggler_coeff: f64,
    /// Dragonfly contention: inter-rack pair bandwidth scales by
    /// `min(1, (contention_base_racks / racks_spanned)^contention_exponent)`.
    /// The exponent must exceed 1 for contention to outweigh pair
    /// parallelism (a bisection moves the same total volume at any P);
    /// adaptive-routing studies of dragonfly fabrics under adversarial
    /// bisection traffic show exactly this superlinear degradation.
    pub contention_base_racks: f64,
    /// See [`CostModel::contention_base_racks`].
    pub contention_exponent: f64,
    /// Per-GPU job initialization (container start, CUDA context).
    pub init_per_gpu: f64,
    /// Qiskit/Python front-end cost per gate (circuit build + transpile) —
    /// what Q-Gear's tensor pipeline bypasses.
    pub qiskit_per_gate: f64,
    /// Q-Gear encode/decode cost per gate (Appendix C: encoding is cheap
    /// and constant per slot).
    pub qgear_per_gate: f64,
    /// Pennylane per-gate high-level→kernel transpile cost, incurred *at
    /// execution time* (§4: "it must first transpile high-level Python
    /// representations into low-level CUDA kernels").
    pub pennylane_per_gate: f64,
    /// CPU sampling cost per shot, divided across all cores (the paper:
    /// "sampling was performed in parallel on all 128 CPU cores").
    pub cpu_sample_per_shot: f64,
    /// GPU sampling cost per shot ("serial sampling" on one GPU, §3).
    pub gpu_sample_per_shot: f64,
}

impl CostModel {
    /// The calibrated Perlmutter model used by every figure harness.
    pub fn paper_testbed() -> Self {
        CostModel {
            gpu: GpuSpec::a100_40gb(),
            cpu: CpuNodeSpec::perlmutter_cpu_node(),
            links: perlmutter_links(),
            topology: ClusterTopology::default(),
            straggler_coeff: 0.01,
            contention_base_racks: 2.0,
            contention_exponent: 1.5,
            init_per_gpu: 1e-3,
            qiskit_per_gate: 8e-3,
            qgear_per_gate: 10e-6,
            pennylane_per_gate: 5e-3,
            cpu_sample_per_shot: 8e-6,
            gpu_sample_per_shot: 2e-7,
        }
    }

    /// Straggler multiplier for a `devices`-wide kernel barrier.
    fn straggler(&self, devices: usize) -> f64 {
        1.0 + self.straggler_coeff * (devices.max(1) as f64).log2()
    }

    /// GPU unitary phase: `kernels` fused sweeps over a `2^n` state at
    /// `amp_bytes`/amplitude, split over `devices`, with the given
    /// exchange traffic (from the dry-run planner or a real run).
    pub fn gpu_unitary(
        &self,
        num_qubits: u32,
        amp_bytes: u64,
        devices: usize,
        kernels: u64,
        traffic: &TrafficStats,
    ) -> TimeBreakdown {
        let state_bytes = 2f64.powi(num_qubits as i32) * amp_bytes as f64;
        let local_bytes = state_bytes / devices as f64;
        let eff_bw = self.gpu.effective_bandwidth(local_bytes);
        // Read + write the local state once per fused kernel.
        let per_kernel = 2.0 * local_bytes / eff_bw;
        let strag = self.straggler(devices);
        let compute = kernels as f64 * per_kernel * strag;
        let launch = kernels as f64 * self.gpu.kernel_launch * strag;

        // Exchanges: all pairs of a swap proceed in parallel on disjoint
        // links (full duplex), so wall time per class is per-device bytes
        // over pair bandwidth plus per-message latency.
        let racks = self.topology.nodes_for(devices) as f64 / self.topology.nodes_per_rack as f64;
        let mut comm = 0.0;
        for class in LinkClass::ALL {
            let bytes = traffic.bytes[class as usize] as f64;
            let msgs = traffic.messages[class as usize] as f64;
            if bytes == 0.0 && msgs == 0.0 {
                continue;
            }
            let mut bw = self.links[class as usize].pair_bandwidth;
            if class == LinkClass::InterRack && racks > self.contention_base_racks {
                bw *= (self.contention_base_racks / racks).powf(self.contention_exponent);
            }
            comm += bytes / devices as f64 / bw
                + msgs / devices as f64 * self.links[class as usize].latency;
        }

        TimeBreakdown {
            compute,
            launch,
            comm,
            init: self.init_per_gpu * devices as f64,
            ..Default::default()
        }
    }

    /// CPU (Qiskit-Aer) unitary phase: unfused, one sweep per gate, plus
    /// per-gate dispatch. `amp_bytes` is 16 for the fp64 Aer default.
    pub fn cpu_unitary(&self, num_qubits: u32, amp_bytes: u64, gates: u64) -> TimeBreakdown {
        let state_bytes = 2f64.powi(num_qubits as i32) * amp_bytes as f64;
        let per_gate = 2.0 * state_bytes / self.cpu.effective_bandwidth();
        TimeBreakdown {
            compute: gates as f64 * per_gate,
            launch: gates as f64 * self.cpu.gate_dispatch,
            ..Default::default()
        }
    }

    /// Pennylane-lightning.gpu unitary phase: same device, but no fusion
    /// (one sweep per gate) and a per-gate transpile cost at execution.
    pub fn pennylane_unitary(
        &self,
        num_qubits: u32,
        amp_bytes: u64,
        devices: usize,
        gates: u64,
        traffic: &TrafficStats,
    ) -> TimeBreakdown {
        let mut t = self.gpu_unitary(num_qubits, amp_bytes, devices, gates, traffic);
        t.pipeline += gates as f64 * self.pennylane_per_gate;
        t
    }

    /// Front-end cost of the plain Qiskit pipeline for `gates` gates.
    pub fn qiskit_pipeline(&self, gates: u64) -> f64 {
        gates as f64 * self.qiskit_per_gate
    }

    /// Front-end cost of the Q-Gear pipeline (encode → store → decode).
    pub fn qgear_pipeline(&self, gates: u64) -> f64 {
        gates as f64 * self.qgear_per_gate
    }

    /// Sampling time on the CPU node (parallel across cores).
    pub fn cpu_sampling(&self, shots: u64) -> f64 {
        shots as f64 * self.cpu_sample_per_shot / self.cpu.cores as f64
    }

    /// Sampling time on one GPU (serial, §3).
    pub fn gpu_sampling(&self, shots: u64) -> f64 {
        shots as f64 * self.gpu_sample_per_shot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::paper_testbed()
    }

    #[test]
    fn breakdown_total_sums_phases() {
        let t = TimeBreakdown { pipeline: 1.0, compute: 2.0, launch: 0.5, comm: 3.0, sampling: 0.25, init: 0.25 };
        assert!((t.total() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_time_scales_exponentially_with_qubits() {
        let m = model();
        let empty = TrafficStats::default();
        let t30 = m.gpu_unitary(30, 8, 1, 100, &empty).total();
        let t32 = m.gpu_unitary(32, 8, 1, 100, &empty).total();
        // 4x more amplitudes -> ~4x more time in the bandwidth regime.
        let ratio = t32 / t30;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn cpu_vs_gpu_speedup_near_400x() {
        // Fig. 4a headline: short random unitary at 32 qubits, 300 gates,
        // ~46 fused kernels, one GPU vs the CPU node.
        let m = model();
        let empty = TrafficStats::default();
        let mut gpu = m.gpu_unitary(32, 8, 1, 46, &empty);
        gpu.pipeline = m.qgear_pipeline(300);
        let mut cpu = m.cpu_unitary(32, 16, 300);
        cpu.pipeline = m.qiskit_pipeline(300);
        let speedup = cpu.total() / gpu.total();
        assert!(
            (200.0..800.0).contains(&speedup),
            "expected ~400x, got {speedup:.0}x (cpu {:.1}s gpu {:.3}s)",
            cpu.total(),
            gpu.total()
        );
    }

    #[test]
    fn more_devices_reduce_compute() {
        let m = model();
        let empty = TrafficStats::default();
        let t1 = m.gpu_unitary(34, 8, 1, 1000, &empty);
        let t4 = m.gpu_unitary(34, 8, 4, 1000, &empty);
        assert!(t4.compute < t1.compute / 3.0);
    }

    #[test]
    fn occupancy_makes_tiny_states_launch_bound() {
        let m = model();
        let empty = TrafficStats::default();
        let t = m.gpu_unitary(16, 8, 1, 1000, &empty);
        // 2^16 amps = 512 KiB: far below the knee; sweeps cost microseconds
        // and the total stays tiny.
        assert!(t.total() < 0.5, "total {}", t.total());
    }

    #[test]
    fn interrack_contention_kicks_in_beyond_base_racks() {
        let m = model();
        // 1024 GPUs span 8 racks (4 GPUs/node, 32 nodes/rack); 256 span 2.
        let racks_1024 = m.topology.nodes_for(1024) as f64 / m.topology.nodes_per_rack as f64;
        let racks_256 = m.topology.nodes_for(256) as f64 / m.topology.nodes_per_rack as f64;
        assert_eq!(racks_1024, 8.0);
        assert_eq!(racks_256, 2.0);
        // An inter-rack exchange moving the same total volume (a bisection
        // moves ~half the state regardless of P) costs the 1024-GPU job
        // strictly more wall time per byte: the contention factor
        // (8/2)^1.5 = 8x outweighs the 4x higher pair parallelism.
        let total_bytes = 1u128 << 40;
        let mut traffic = TrafficStats::default();
        traffic.record(LinkClass::InterRack, total_bytes);
        let t_1024 = m.gpu_unitary(40, 8, 1024, 0, &traffic).comm;
        let t_256 = m.gpu_unitary(40, 8, 256, 0, &traffic).comm;
        assert!(
            t_1024 > 1.9 * t_256,
            "contention should dominate: {t_1024} vs {t_256}"
        );
    }

    #[test]
    fn sampling_crossover_cpu_parallel_vs_gpu_serial() {
        // §3: "for a large number of shots, a CPU node with many cores may
        // have an advantage over one GPU."
        let m = model();
        let shots = 98_000_000u64; // the largest Table 2 row
        assert!(m.cpu_sampling(shots) < m.gpu_sampling(shots));
        // But the per-shot GPU cost is lower 1-vs-1 (no 128-way parallelism).
        assert!(m.gpu_sample_per_shot < m.cpu_sample_per_shot);
    }

    #[test]
    fn pennylane_slower_than_qgear_same_device() {
        let m = model();
        let empty = TrafficStats::default();
        // 500-gate QFT-ish circuit, fused to ~100 kernels by Q-Gear.
        let qgear = m.gpu_unitary(28, 8, 4, 100, &empty);
        let penny = m.pennylane_unitary(28, 8, 4, 500, &empty);
        assert!(penny.total() > 2.0 * qgear.total());
    }
}
