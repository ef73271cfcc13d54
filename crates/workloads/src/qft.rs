//! Quantum Fourier Transform kernels (Appendix D.2).
//!
//! "The kernel applies a Hadamard gate to each qubit followed by [CR1
//! ladders] between each qubit i and all subsequent qubits j > i, with
//! angles decreasing as 2π/2^(j−i+1). This nested loop structure
//! introduces only O(n²) complexity." The optional approximation drops
//! rotations below a threshold ("approximations for negligible rotation
//! angles"), turning the ladder into the AQFT.

use qgear_ir::Circuit;
use std::f64::consts::TAU;

/// Options for QFT construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QftOptions {
    /// Drop `cr1` rotations with `|λ| < threshold` (AQFT); `None` keeps
    /// the exact ladder.
    pub approx_threshold: Option<f64>,
    /// Append the final qubit-reversal swap network so the circuit equals
    /// the textbook DFT matrix. The paper's kernel supports a
    /// "QFT circuit reverse activation" flag (Appendix E.1).
    pub reverse: bool,
    /// Append terminal measurements.
    pub measure: bool,
}

impl Default for QftOptions {
    fn default() -> Self {
        QftOptions { approx_threshold: None, reverse: true, measure: false }
    }
}

/// Build the QFT circuit over `n` qubits.
pub fn qft_circuit(n: u32, opts: &QftOptions) -> Circuit {
    let mut c = Circuit::with_capacity(
        n,
        format!("qft_{n}q"),
        (n as usize * (n as usize + 1)) / 2 + n as usize,
    );
    // Process the most-significant qubit first (the little-endian
    // convention Qiskit uses); each qubit gets a Hadamard followed by
    // controlled rotations from every lower qubit, with angles shrinking
    // as 2π/2^(distance+1).
    for i in (0..n).rev() {
        c.h(i);
        for j in (0..i).rev() {
            let lambda = TAU / f64::powi(2.0, (i - j + 1) as i32);
            if let Some(eps) = opts.approx_threshold {
                if lambda.abs() < eps {
                    continue;
                }
            }
            c.cr1(lambda, j, i);
        }
    }
    if opts.reverse {
        for q in 0..n / 2 {
            c.swap(q, n - 1 - q);
        }
    }
    if opts.measure {
        c.measure_all();
    }
    c
}

/// Exact gate count of the full QFT (Hadamards + CR1 ladder + swaps).
pub fn qft_gate_count(n: u32, reverse: bool) -> usize {
    let ladder = (n as usize * (n as usize - 1)) / 2;
    n as usize + ladder + if reverse { (n / 2) as usize } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::{reference, GateKind};
    use qgear_num::C64;
    use std::f64::consts::PI;

    /// Direct DFT of a state vector: `out[j] = (1/√N) Σ_k e^{2πi jk/N} in[k]`.
    fn dft(input: &[C64]) -> Vec<C64> {
        let n = input.len();
        let norm = 1.0 / (n as f64).sqrt();
        (0..n)
            .map(|j| {
                let mut acc = C64::ZERO;
                for (k, &x) in input.iter().enumerate() {
                    let phase = TAU * (j as f64) * (k as f64) / n as f64;
                    acc += x * C64::cis(phase);
                }
                acc.scale(norm)
            })
            .collect()
    }

    #[test]
    fn qft_matches_dft_on_basis_states() {
        let n = 5u32;
        for k in [0usize, 1, 7, 19, 31] {
            let mut input = vec![C64::ZERO; 1 << n];
            input[k] = C64::ONE;
            let expect = dft(&input);
            // Prepare |k⟩ then run QFT with the reversal swaps.
            let mut c = Circuit::new(n);
            for q in 0..n {
                if k & (1 << q) != 0 {
                    c.x(q);
                }
            }
            c.compose(&qft_circuit(n, &QftOptions::default())).unwrap();
            let got = reference::run(&c);
            assert!(
                qgear_num::approx::max_deviation(&got, &expect) < 1e-12,
                "basis {k}"
            );
        }
    }

    #[test]
    fn qft_matches_dft_on_random_state() {
        let n = 6u32;
        let input = reference::random_state(n, 1234);
        let expect = dft(&input);
        let mut got = input;
        for g in qft_circuit(n, &QftOptions::default()).gates() {
            reference::apply_gate(&mut got, n, g);
        }
        assert!(qgear_num::approx::max_deviation(&got, &expect) < 1e-11);
    }

    #[test]
    fn inverse_qft_inverts() {
        let n = 5u32;
        let input = reference::random_state(n, 777);
        let mut state = input.clone();
        let fwd = qft_circuit(n, &QftOptions::default());
        let inv = fwd.inverse();
        for g in fwd.gates().iter().chain(inv.gates()) {
            reference::apply_gate(&mut state, n, g);
        }
        assert!(qgear_num::approx::max_deviation(&state, &input) < 1e-11);
    }

    #[test]
    fn gate_counts() {
        // n=33, no reversal: 33 H + 528 CR1 — the paper's "max gate depth
        // 528" for the QFT task (Table 1) counts the CR1 ladder.
        let c = qft_circuit(33, &QftOptions { reverse: false, ..Default::default() });
        assert_eq!(c.count_kind(GateKind::Cr1), 528);
        assert_eq!(c.count_kind(GateKind::H), 33);
        assert_eq!(c.len(), qft_gate_count(33, false));
        // With reversal: 16 swaps more.
        let cr = qft_circuit(33, &QftOptions::default());
        assert_eq!(cr.count_kind(GateKind::Swap), 16);
    }

    #[test]
    fn angles_decrease_geometrically() {
        let c = qft_circuit(8, &QftOptions { reverse: false, ..Default::default() });
        let angles: Vec<f64> = c
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Cr1)
            .map(|g| g.params[0])
            .collect();
        // First ladder (i=0): angles π/2, π/4, …, π/2^7.
        for (d, &a) in angles.iter().take(7).enumerate() {
            let expect = PI / f64::powi(2.0, d as i32 + 1);
            assert!((a - expect).abs() < 1e-15, "distance {d}");
        }
    }

    #[test]
    fn aqft_drops_small_angles_keeps_fidelity() {
        let n = 8u32;
        let exact = qft_circuit(n, &QftOptions::default());
        let approx = qft_circuit(
            n,
            &QftOptions { approx_threshold: Some(0.05), ..Default::default() },
        );
        assert!(approx.len() < exact.len(), "AQFT must remove gates");
        let input = reference::random_state(n, 55);
        let mut a = input.clone();
        let mut b = input;
        for g in exact.gates() {
            reference::apply_gate(&mut a, n, g);
        }
        for g in approx.gates() {
            reference::apply_gate(&mut b, n, g);
        }
        let fid = reference::fidelity(&a, &b);
        assert!(fid > 0.995, "fidelity {fid}");
    }

    #[test]
    fn aqft_gate_savings_grow_with_n() {
        let eps = 2.0 * PI / 2.0f64.powi(8);
        let full_16 = qft_circuit(16, &QftOptions { reverse: false, ..Default::default() }).len();
        let approx_16 = qft_circuit(
            16,
            &QftOptions { approx_threshold: Some(eps), reverse: false, measure: false },
        )
        .len();
        // Ladder depth caps at ~7 controlled rotations per qubit: O(n²)→O(n).
        assert!(approx_16 < full_16);
        let full_24 = qft_circuit(24, &QftOptions { reverse: false, ..Default::default() }).len();
        let approx_24 = qft_circuit(
            24,
            &QftOptions { approx_threshold: Some(eps), reverse: false, measure: false },
        )
        .len();
        let saved_16 = full_16 - approx_16;
        let saved_24 = full_24 - approx_24;
        assert!(saved_24 > saved_16);
    }

    #[test]
    fn measure_flag() {
        let c = qft_circuit(4, &QftOptions { measure: true, ..Default::default() });
        assert_eq!(c.count_kind(GateKind::Measure), 4);
    }
}
