//! Randomized CX-block circuit generation (Appendix D.1, Algorithm 1).
//!
//! Each two-qubit block is "two random single-qubit rotations followed by
//! an entangling gate" (§3): `Ry(θ)` on the control strand, `Rz(θ')` on
//! the target strand, then `CX` — non-Clifford as soon as the angles are
//! generic, which is what makes these unitaries a fair model of
//! "nontrivial workloads in quantum algorithms".

use qgear_ir::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's "short" unitaries: 100 two-qubit blocks (Fig. 4a squares).
pub const SHORT_BLOCKS: usize = 100;
/// The paper's "long" unitaries: 10 000 blocks (Fig. 4a circles).
pub const LONG_BLOCKS: usize = 10_000;
/// The intermediate size used for the Fig. 4b scaling study.
pub const INTERMEDIATE_BLOCKS: usize = 3_000;

/// Specification of one randomized circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomCircuitSpec {
    /// Register width.
    pub num_qubits: u32,
    /// Number of CX blocks (each contributes 3 gates).
    pub num_blocks: usize,
    /// RNG seed; identical specs generate identical circuits.
    pub seed: u64,
    /// Append terminal measurements on every qubit.
    pub measure: bool,
}

impl RandomCircuitSpec {
    /// A "short" unitary at `n` qubits.
    pub fn short(num_qubits: u32, seed: u64) -> Self {
        RandomCircuitSpec { num_qubits, num_blocks: SHORT_BLOCKS, seed, measure: true }
    }

    /// A "long" unitary at `n` qubits.
    pub fn long(num_qubits: u32, seed: u64) -> Self {
        RandomCircuitSpec { num_qubits, num_blocks: LONG_BLOCKS, seed, measure: true }
    }

    /// The Fig. 4b intermediate unitary at `n` qubits.
    pub fn intermediate(num_qubits: u32, seed: u64) -> Self {
        RandomCircuitSpec { num_qubits, num_blocks: INTERMEDIATE_BLOCKS, seed, measure: true }
    }

    /// Total gate count excluding measurements (3 per block).
    pub fn gate_count(&self) -> usize {
        self.num_blocks * 3
    }
}

/// Draw `k` ordered qubit pairs (with replacement across draws, excluding
/// self-pairs), the paper's `random_qubit_pairs` helper.
fn random_qubit_pairs(num_qubits: u32, k: usize, rng: &mut StdRng) -> Vec<(u32, u32)> {
    assert!(num_qubits >= 2, "pairs need at least two qubits");
    (0..k)
        .map(|_| {
            let a = rng.gen_range(0..num_qubits);
            // Rejection-free distinct draw (Algorithm 1's repeat/until).
            let b = (a + 1 + rng.gen_range(0..num_qubits - 1)) % num_qubits;
            (a, b)
        })
        .collect()
}

/// Generate the randomized gate list for a spec — the paper's
/// `generate_random_gateList`. The layout is pre-allocated to the final
/// gate count, matching the "pre-allocates the circuit layout" note in
/// Appendix D.1.
pub fn generate_random_gate_list(spec: &RandomCircuitSpec) -> Circuit {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut circ = Circuit::with_capacity(
        spec.num_qubits,
        format!("random_cx_{}q_{}b", spec.num_qubits, spec.num_blocks),
        spec.gate_count() + spec.num_qubits as usize,
    );
    for (control, target) in random_qubit_pairs(spec.num_qubits, spec.num_blocks, &mut rng) {
        // θ ~ U[0, 2π) per Algorithm 1.
        let theta_ry: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
        let theta_rz: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
        circ.ry(theta_ry, control);
        circ.rz(theta_rz, target);
        circ.cx(control, target);
    }
    if spec.measure {
        circ.measure_all();
    }
    circ
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::{reference, GateKind};

    #[test]
    fn block_structure() {
        let spec = RandomCircuitSpec { num_qubits: 6, num_blocks: 50, seed: 1, measure: false };
        let c = generate_random_gate_list(&spec);
        assert_eq!(c.len(), 150);
        assert_eq!(c.count_kind(GateKind::Cx), 50);
        assert_eq!(c.count_kind(GateKind::Ry), 50);
        assert_eq!(c.count_kind(GateKind::Rz), 50);
        // Block order: ry, rz, cx repeating.
        for (i, g) in c.gates().iter().enumerate() {
            let expect = [GateKind::Ry, GateKind::Rz, GateKind::Cx][i % 3];
            assert_eq!(g.kind, expect, "gate {i}");
        }
    }

    #[test]
    fn rotations_sit_on_the_cx_pair() {
        let spec = RandomCircuitSpec { num_qubits: 8, num_blocks: 30, seed: 3, measure: false };
        let c = generate_random_gate_list(&spec);
        for block in c.gates().chunks_exact(3) {
            let (ry, rz, cx) = (&block[0], &block[1], &block[2]);
            assert_eq!(ry.qubits[0], cx.qubits[0], "ry on the control strand");
            assert_eq!(rz.qubits[0], cx.qubits[1], "rz on the target strand");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = RandomCircuitSpec { num_qubits: 5, num_blocks: 20, seed: 42, measure: true };
        assert_eq!(generate_random_gate_list(&spec), generate_random_gate_list(&spec));
        let other = RandomCircuitSpec { seed: 43, ..spec };
        assert_ne!(generate_random_gate_list(&spec), generate_random_gate_list(&other));
    }

    #[test]
    fn angles_within_range() {
        let spec = RandomCircuitSpec { num_qubits: 4, num_blocks: 100, seed: 9, measure: false };
        let c = generate_random_gate_list(&spec);
        for g in c.gates() {
            if g.kind.is_parameterized() {
                assert!((0.0..std::f64::consts::TAU).contains(&g.params[0]));
            }
        }
    }

    #[test]
    fn no_self_pairs() {
        let mut rng = StdRng::seed_from_u64(7);
        for (a, b) in random_qubit_pairs(5, 2000, &mut rng) {
            assert_ne!(a, b);
            assert!(a < 5 && b < 5);
        }
    }

    #[test]
    fn pairs_cover_all_qubits() {
        let mut rng = StdRng::seed_from_u64(8);
        let pairs = random_qubit_pairs(6, 500, &mut rng);
        let mut seen = [false; 6];
        for (a, b) in pairs {
            seen[a as usize] = true;
            seen[b as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "500 draws must touch all 6 qubits");
    }

    #[test]
    fn generated_unitary_preserves_norm() {
        let spec = RandomCircuitSpec { num_qubits: 6, num_blocks: 40, seed: 5, measure: false };
        let c = generate_random_gate_list(&spec);
        let state = reference::run(&c);
        assert!((reference::norm_sqr(&state) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn paper_size_constants() {
        assert_eq!(SHORT_BLOCKS, 100);
        assert_eq!(LONG_BLOCKS, 10_000);
        assert_eq!(INTERMEDIATE_BLOCKS, 3_000);
        assert_eq!(RandomCircuitSpec::long(34, 0).gate_count(), 30_000);
    }

    #[test]
    fn measure_flag_controls_measurements() {
        let with = generate_random_gate_list(&RandomCircuitSpec::short(5, 1));
        assert_eq!(with.count_kind(GateKind::Measure), 5);
        let spec = RandomCircuitSpec { measure: false, ..RandomCircuitSpec::short(5, 1) };
        let without = generate_random_gate_list(&spec);
        assert_eq!(without.count_kind(GateKind::Measure), 0);
    }
}
