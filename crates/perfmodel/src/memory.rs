//! Memory-capacity model.
//!
//! Fig. 4a's hard edges are memory walls, not performance cliffs:
//! the CPU node runs out of RAM at 34 qubits, a single 40 GB A100 tops
//! out at 32 qubits (fp32), and pooling 4 GPUs buys exactly two more
//! qubits ("adding only two additional qubits requires four times more
//! memory", §3). This module reproduces those limits from first
//! principles.

use crate::hardware::{CpuNodeSpec, GpuSpec};
use qgear_num::scalar::Precision;

/// Bytes per complex amplitude at a given precision.
pub const fn amp_bytes(precision: Precision) -> u64 {
    precision.bytes_per_amplitude() as u64
}

/// Bytes an `n`-qubit state vector occupies at the given precision.
///
/// This is the quantity the serving layer's admission control compares
/// against device memory to reject infeasible jobs *before* they queue
/// (the `RejectedInfeasible` arm of `qgear-serve`'s backpressure
/// contract).
pub const fn state_bytes(n: u32, precision: Precision) -> u128 {
    (1u128 << n) * amp_bytes(precision) as u128
}

/// Aer needs scratch alongside the state (measurement buffers, OpenMP
/// working sets); 2.2× is a conservative envelope that reproduces the
/// observed 34-qubit ceiling on the 460 GB node.
const CPU_OVERHEAD_FACTOR: f64 = 2.2;

/// Largest register width the CPU node can simulate (Aer runs fp64).
pub fn max_qubits_cpu(cpu: &CpuNodeSpec) -> u32 {
    let mut n = 0u32;
    loop {
        let need = (1u128 << (n + 1)) as f64 * 16.0 * CPU_OVERHEAD_FACTOR;
        if need > cpu.memory_bytes as f64 {
            return n;
        }
        n += 1;
    }
}

/// Largest register width one GPU can hold at the given precision.
pub fn max_qubits_gpu(gpu: &GpuSpec, precision: Precision) -> u32 {
    let bytes = amp_bytes(precision) as u128;
    let mut n = 0u32;
    while (1u128 << (n + 1)) * bytes <= gpu.memory_bytes {
        n += 1;
    }
    n
}

/// Largest register width a pooled cluster of `devices = 2^p` GPUs can
/// hold: each extra device-index bit buys one qubit.
pub fn max_qubits_cluster(gpu: &GpuSpec, precision: Precision, devices: usize) -> u32 {
    assert!(devices.is_power_of_two());
    max_qubits_gpu(gpu, precision) + devices.trailing_zeros()
}

/// True if the target can hold an `n`-qubit state.
pub fn cluster_feasible(gpu: &GpuSpec, precision: Precision, devices: usize, n: u32) -> bool {
    n <= max_qubits_cluster(gpu, precision, devices)
}

/// Smallest power-of-two shard count (≥ 2) that partitions an `n`-qubit
/// state across identical workers of `worker_bytes` device memory each,
/// or `None` when no admissible count exists.
///
/// This is the serving layer's admission plan for jobs *beyond* the
/// single-worker memory wall: each shard holds a `2^(n-p)`-amplitude
/// slice (`p = log2(shards)`), so every doubling of the group buys one
/// qubit. Two constraints bound the search:
///
/// * the local slice must fit one worker (`state_bytes(n) / shards ≤
///   worker_bytes`), and
/// * the local width `n - p` must stay at least `min_local_width` —
///   fused kernels up to that many mixing operands must be remappable
///   onto local bit positions (see `qgear-cluster`'s layout planner).
///
/// Registers of 100+ qubits are unconditionally infeasible (the shift in
/// [`state_bytes`] would overflow, and no modelled farm approaches that
/// scale), mirroring the dense admission guard.
pub fn plan_shard_count(
    n: u32,
    precision: Precision,
    worker_bytes: u128,
    min_local_width: u32,
    max_shards: u32,
) -> Option<u32> {
    if n >= 100 {
        return None;
    }
    let total = state_bytes(n, precision);
    let mut shards: u32 = 2;
    while shards <= max_shards {
        let p = shards.trailing_zeros();
        if n < min_local_width.max(1) + p {
            // Wider groups only shrink the local slice further.
            return None;
        }
        if total / u128::from(shards) <= worker_bytes {
            return Some(shards);
        }
        shards = shards.checked_mul(2)?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_node_caps_at_34_qubits() {
        // Fig. 4a: "all available CPU RAM is exhausted at 34 qubits".
        let cpu = CpuNodeSpec::perlmutter_cpu_node();
        assert_eq!(max_qubits_cpu(&cpu), 33);
        // 34 is the first width that *fails*: the paper plots the OOM point
        // at 34 — the attempt that exhausted RAM.
        let need_34 = (1u128 << 34) as f64 * 16.0 * CPU_OVERHEAD_FACTOR;
        assert!(need_34 > cpu.memory_bytes as f64);
    }

    #[test]
    fn single_a100_caps_at_32_qubits_fp32() {
        // §3: "a single A100 GPU with a RAM of 40 GB restricts the
        // simulable unitary to a maximum of 32 qubits".
        let gpu = GpuSpec::a100_40gb();
        assert_eq!(max_qubits_gpu(&gpu, Precision::Fp32), 32);
        assert_eq!(max_qubits_gpu(&gpu, Precision::Fp64), 31);
    }

    #[test]
    fn four_gpus_reach_34_qubits() {
        // §3: "this configuration enables the simulation of up to a
        // 34-qubit circuit".
        let gpu = GpuSpec::a100_40gb();
        assert_eq!(max_qubits_cluster(&gpu, Precision::Fp32, 4), 34);
        assert!(cluster_feasible(&gpu, Precision::Fp32, 4, 34));
        assert!(!cluster_feasible(&gpu, Precision::Fp32, 4, 35));
    }

    #[test]
    fn cluster_of_1024_reaches_42_qubits() {
        // Abstract: "simulations of up to 42 qubits on a cluster of 1024
        // GPUs with a single circuit spread over all the GPUs".
        let gpu = GpuSpec::a100_40gb();
        assert_eq!(max_qubits_cluster(&gpu, Precision::Fp32, 1024), 42);
    }

    #[test]
    fn shard_plan_picks_the_smallest_sufficient_group() {
        // 4-qubit fp64 state = 256 B. Workers offering 192 B each: two
        // shards of 128 B suffice; the planner must not over-provision.
        assert_eq!(plan_shard_count(4, Precision::Fp64, 192, 2, 64), Some(2));
        // 64-byte workers need four shards.
        assert_eq!(plan_shard_count(4, Precision::Fp64, 64, 2, 64), Some(4));
        // …but four shards leave a 2-qubit local slice, so a 3-wide
        // kernel floor rules the job out entirely.
        assert_eq!(plan_shard_count(4, Precision::Fp64, 64, 3, 64), None);
    }

    #[test]
    fn shard_plan_respects_the_group_cap_and_scale_guards() {
        // The group cap bounds the search even when memory would demand
        // more shards.
        assert_eq!(plan_shard_count(10, Precision::Fp64, 1024, 2, 2), None);
        assert_eq!(plan_shard_count(10, Precision::Fp64, 1024, 2, 64), Some(16));
        // 100+ qubits never shard (dense admission's overflow guard).
        assert_eq!(plan_shard_count(100, Precision::Fp32, u128::MAX, 2, 64), None);
        // A job that fits one worker still plans a (≥ 2)-shard group when
        // asked — the caller gates on dense infeasibility, not this fn.
        assert_eq!(plan_shard_count(3, Precision::Fp64, 1 << 20, 2, 64), Some(2));
    }

    #[test]
    fn amp_bytes_by_precision() {
        assert_eq!(amp_bytes(Precision::Fp32), 8);
        assert_eq!(amp_bytes(Precision::Fp64), 16);
    }

    #[test]
    fn state_bytes_matches_capacity_model() {
        // 32 qubits fp32 = 34.4 GB: fits a 40 GB A100; 33 does not.
        assert_eq!(state_bytes(32, Precision::Fp32), 8 << 32);
        let gpu = GpuSpec::a100_40gb();
        assert!(state_bytes(32, Precision::Fp32) <= gpu.memory_bytes);
        assert!(state_bytes(33, Precision::Fp32) > gpu.memory_bytes);
    }
}
