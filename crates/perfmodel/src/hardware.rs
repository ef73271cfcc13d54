//! Hardware constants from §2.3 of the paper, plus tuned effective factors.
//!
//! Peak numbers come straight from the paper's hardware description; the
//! `efficiency` fields are the fraction of peak a state-vector sweep
//! actually achieves, chosen in [`crate::calibration`] to reproduce the
//! paper's headline ratios (≈400× GPU-vs-CPU on random unitaries,
//! two-orders speedup on QCrank, minute-scale 34-qubit runs on 4 GPUs).

/// A GPU device model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Display name.
    pub name: String,
    /// Device memory in bytes.
    pub memory_bytes: u128,
    /// Peak memory bandwidth in B/s (A100 80 GB: 2039 GB/s per §2.3).
    pub mem_bandwidth: f64,
    /// Fraction of peak bandwidth a fused state-vector sweep sustains.
    pub efficiency: f64,
    /// Fixed cost per kernel launch, seconds.
    pub kernel_launch: f64,
    /// Occupancy knee in bytes: sweeps over local states much smaller than
    /// this underutilize the memory system (short kernels are latency-
    /// bound), modeled as `eff(L) = efficiency · L / (L + knee)`.
    pub occupancy_knee: f64,
}

impl GpuSpec {
    /// Perlmutter A100 with 40 GB HBM2e.
    pub fn a100_40gb() -> Self {
        GpuSpec {
            name: "NVIDIA A100-40GB".into(),
            memory_bytes: 40_000_000_000,
            mem_bandwidth: 1555e9, // 40 GB SXM variant
            efficiency: 0.75,
            kernel_launch: 4e-6,
            occupancy_knee: 64.0 * 1024.0 * 1024.0,
        }
    }

    /// Perlmutter A100 with 80 GB HBM2e (2039 GB/s, §2.3).
    pub fn a100_80gb() -> Self {
        GpuSpec {
            name: "NVIDIA A100-80GB".into(),
            memory_bytes: 80_000_000_000,
            mem_bandwidth: 2039e9,
            efficiency: 0.75,
            kernel_launch: 4e-6,
            occupancy_knee: 64.0 * 1024.0 * 1024.0,
        }
    }

    /// Effective bandwidth for a sweep over `local_bytes` of state.
    pub fn effective_bandwidth(&self, local_bytes: f64) -> f64 {
        self.mem_bandwidth * self.efficiency * local_bytes / (local_bytes + self.occupancy_knee)
    }
}

/// A CPU node model (the Qiskit-Aer baseline host).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuNodeSpec {
    /// Display name.
    pub name: String,
    /// Cores (2 × 64 on the Perlmutter CPU node).
    pub cores: u32,
    /// Usable memory in bytes (512 GB DDR4 minus OS ≈ 460 GB, matching
    /// Appendix E.3's "460 GB RAM").
    pub memory_bytes: u128,
    /// Peak node memory bandwidth in B/s (2 × 204.8 GB/s per §2.3).
    pub mem_bandwidth: f64,
    /// Fraction of peak an unfused Aer gate sweep sustains. Aer's
    /// gate-by-gate dispatch through Python keeps this low; calibrated so
    /// the GPU speedup lands at the paper's ≈400×.
    pub efficiency: f64,
    /// Fixed dispatch cost per gate, seconds (Python/Aer overhead).
    pub gate_dispatch: f64,
}

impl CpuNodeSpec {
    /// The Perlmutter CPU node: 2 × AMD EPYC 7763, 512 GB DDR4.
    pub fn perlmutter_cpu_node() -> Self {
        CpuNodeSpec {
            name: "2x AMD EPYC 7763 (Perlmutter CPU node)".into(),
            cores: 128,
            memory_bytes: 460_000_000_000,
            mem_bandwidth: 409.6e9,
            efficiency: 0.11,
            gate_dispatch: 40e-6,
        }
    }

    /// Effective sweep bandwidth.
    pub fn effective_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.efficiency
    }
}

/// One interconnect class between simulated devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Sustained bandwidth per device pair, B/s.
    pub pair_bandwidth: f64,
    /// Per-message latency, seconds (includes software stack).
    pub latency: f64,
}

/// The three link classes, index-aligned with
/// `qgear_cluster::LinkClass`: intra-node NVLink, inter-node Slingshot,
/// inter-rack Slingshot through the global dragonfly links.
pub fn perlmutter_links() -> [LinkSpec; 3] {
    [
        // NVLink-3: 4 links × 25 GB/s per direction (§2.3); a pairwise
        // exchange drives the full aggregate of the direct links.
        LinkSpec { pair_bandwidth: 100e9, latency: 5e-6 },
        // Slingshot-11: one 25 GB/s NIC per GPU; MPI overheads leave
        // ~22 GB/s for a pairwise exchange.
        LinkSpec { pair_bandwidth: 22e9, latency: 12e-6 },
        // Crossing dragonfly groups: traffic shares the global links;
        // base per-pair rate before the rack-span contention factor the
        // cost model applies (the paper blames this class for the
        // 1024-GPU throughput reversal).
        LinkSpec { pair_bandwidth: 15e9, latency: 40e-6 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_present() {
        let g80 = GpuSpec::a100_80gb();
        assert_eq!(g80.mem_bandwidth, 2039e9);
        assert_eq!(g80.memory_bytes, 80_000_000_000);
        let cpu = CpuNodeSpec::perlmutter_cpu_node();
        assert_eq!(cpu.cores, 128);
        assert_eq!(cpu.mem_bandwidth, 409.6e9);
    }

    #[test]
    fn occupancy_knee_penalizes_small_sweeps() {
        let g = GpuSpec::a100_40gb();
        let big = g.effective_bandwidth(32e9);
        let small = g.effective_bandwidth(1e6);
        assert!(big > 0.9 * g.mem_bandwidth * g.efficiency);
        assert!(small < 0.05 * g.mem_bandwidth * g.efficiency);
    }

    #[test]
    fn link_classes_ordered_by_cost() {
        let links = perlmutter_links();
        assert!(links[0].pair_bandwidth > links[1].pair_bandwidth);
        assert!(links[1].pair_bandwidth > links[2].pair_bandwidth);
        assert!(links[0].latency < links[2].latency);
    }
}
