//! Calibration rationale and fit helpers.
//!
//! # Constant provenance
//!
//! | Constant | Value | Anchor |
//! |---|---|---|
//! | A100 bandwidth | 1555 / 2039 GB/s | §2.3 (40 GB / 80 GB HBM2e) |
//! | GPU sweep efficiency | 0.75 | typical fused state-vector sweeps |
//! | occupancy knee | 64 MiB | short sweeps are launch/latency-bound |
//! | CPU node bandwidth | 409.6 GB/s | §2.3 (2 × 204.8 GB/s) |
//! | CPU sweep efficiency | 0.11 | tuned: GPU-vs-CPU speedup ≈ 400× at 32 q (Fig. 4a) |
//! | qiskit_per_gate | 8 ms | tuned: Python circuit handling dominates small-state runs (Fig. 5 small images ≈ 100×) |
//! | pennylane_per_gate | 5 ms | §4: per-gate high-level→kernel transpile latency |
//! | NVLink pair bw | 80 GB/s | §2.3: 4 × 25 GB/s/direction links |
//! | Slingshot pair bw | 21 GB/s | §2.3: 25 GB/s NIC minus MPI overhead |
//! | inter-rack pair bw | 6 GB/s, contention (2/racks)² | tuned: Fig. 4b reversal at 1024 GPUs / 40 qubits |
//! | cpu_sample_per_shot | 8 µs ÷ 128 cores | §3: CPU sampling parallel across all cores |
//! | gpu_sample_per_shot | 0.2 µs serial | §3: single-GPU serial sampling; makes the Fig. 5 speedup shrink with image size |
//!
//! # Shape checks
//!
//! [`fit_exponential`] fits `t(n) = a · 2^(b·n)` to a measured or modeled
//! series; the paper's baseline scaling claim is `b ≈ 1` (Fig. 4a: "both
//! cases follow a similar exponential scaling of execution time ~2^n").

/// Least-squares fit of `t = a · 2^(b n)` on `(n, t)` points with `t > 0`.
/// Returns `(a, b)`. Needs at least two distinct `n` values.
pub fn fit_exponential(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points");
    // Linear regression of log2(t) on n.
    let k = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1.log2()).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1.log2()).sum();
    let denom = k * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "need at least two distinct n values");
    let b = (k * sxy - sx * sy) / denom;
    let log_a = (sy - b * sx) / k;
    (log_a.exp2(), b)
}

/// Relative speedup of series `base` over series `other` at matching
/// indices, geometric-mean aggregated — the "by roughly what factor"
/// statistic EXPERIMENTS.md reports.
pub fn geometric_mean_speedup(base: &[f64], other: &[f64]) -> f64 {
    assert_eq!(base.len(), other.len());
    assert!(!base.is_empty());
    let log_sum: f64 = base
        .iter()
        .zip(other)
        .map(|(&b, &o)| (b / o).ln())
        .sum();
    (log_sum / base.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_fit_recovers_parameters() {
        // t = 3 · 2^(0.9 n)
        let points: Vec<(f64, f64)> =
            (10..20).map(|n| (n as f64, 3.0 * (0.9 * n as f64).exp2())).collect();
        let (a, b) = fit_exponential(&points);
        assert!((a - 3.0).abs() < 1e-9, "a = {a}");
        assert!((b - 0.9).abs() < 1e-12, "b = {b}");
    }

    #[test]
    fn fit_on_noisy_data_still_close() {
        let points: Vec<(f64, f64)> = (20..30)
            .map(|n| {
                let noise = 1.0 + 0.05 * ((n * 2654435761u64 % 100) as f64 / 100.0 - 0.5);
                (n as f64, 2.0f64.powf(n as f64) * noise)
            })
            .collect();
        let (_, b) = fit_exponential(&points);
        assert!((b - 1.0).abs() < 0.02, "b = {b}");
    }

    #[test]
    #[should_panic(expected = "two distinct")]
    fn degenerate_fit_panics() {
        fit_exponential(&[(5.0, 1.0), (5.0, 2.0)]);
    }

    #[test]
    fn geometric_mean_speedup_basics() {
        let cpu = [400.0, 800.0, 1600.0];
        let gpu = [1.0, 2.0, 4.0];
        assert!((geometric_mean_speedup(&cpu, &gpu) - 400.0).abs() < 1e-9);
    }
}
