//! Clifford circuit families for the stabilizer backend.
//!
//! Three generators, all deterministic in their parameters:
//!
//! * [`ghz`] — the n-qubit GHZ ladder (`H` then a CX chain), the
//!   canonical maximally-entangled Clifford benchmark. Its outcome
//!   distribution is exactly `{all-0: ½, all-1: ½}` over the measured
//!   qubits, which makes end-to-end checks trivial at *any* width.
//! * [`teleportation`] — the 3-qubit teleportation core with the
//!   corrections applied unitarily (deferred-measurement form), so the
//!   whole circuit stays Clifford and terminal-measurement only.
//! * [`random_clifford`] — a seeded random circuit over the Clifford
//!   generator set `{H, S, Sdg, X, Y, Z, CX, CZ, Swap}`; equal seeds
//!   generate equal circuits. This is the differential-test driver:
//!   small widths run on both the dense and stabilizer engines and the
//!   sampled distributions must agree (identical supports, frequencies
//!   matching the uniform-on-support stabilizer law).

use qgear_ir::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `n`-qubit GHZ state preparation with terminal measurements on the
/// first `measured` qubits (`measured <= n`; the stabilizer sampler packs
/// outcomes into 64-bit keys, so wide registers measure a prefix).
pub fn ghz(num_qubits: u32, measured: u32) -> Circuit {
    assert!(num_qubits >= 1, "GHZ needs at least one qubit");
    assert!(measured <= num_qubits, "cannot measure more qubits than exist");
    let mut c = Circuit::new(num_qubits);
    c.name = format!("ghz_{num_qubits}q");
    c.h(0);
    for q in 1..num_qubits {
        c.cx(q - 1, q);
    }
    for q in 0..measured {
        c.measure(q);
    }
    c
}

/// Quantum teleportation of qubit 0's state to qubit 2, with the
/// classically-controlled Pauli corrections deferred to unitary CX/CZ
/// gates (the standard deferred-measurement rewrite). Qubit 2 is
/// measured at the end; teleporting |0⟩ (the default input) must always
/// yield outcome 0 on it.
pub fn teleportation() -> Circuit {
    let mut c = Circuit::new(3);
    c.name = "teleportation".to_owned();
    // Bell pair between the courier (1) and receiver (2).
    c.h(1).cx(1, 2);
    // Bell-basis rotation of (sender 0, courier 1).
    c.cx(0, 1).h(0);
    // Deferred corrections: X on 2 controlled by 1, Z on 2 controlled by 0.
    c.cx(1, 2).cz(0, 2);
    c.measure(2);
    c
}

/// A seeded random Clifford circuit: `depth` layers, each layer drawing
/// one gate per qubit-slot from `{H, S, Sdg, X, Y, Z}` or pairing two
/// distinct qubits under `{CX, CZ, Swap}`. Terminal measurements on
/// every qubit. Equal `(num_qubits, depth, seed)` generate equal
/// circuits — the property the differential tests replay on both
/// engines.
pub fn random_clifford(num_qubits: u32, depth: usize, seed: u64) -> Circuit {
    assert!(num_qubits >= 2, "two-qubit Clifford gates need width >= 2");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(num_qubits);
    c.name = format!("random_clifford_{num_qubits}q_{depth}d_{seed:#x}");
    for _ in 0..depth {
        for q in 0..num_qubits {
            match rng.gen_range(0..9u8) {
                0 => c.h(q),
                1 => c.s(q),
                2 => c.sdg(q),
                3 => c.x(q),
                4 => c.y(q),
                5 => c.z(q),
                kind => {
                    let other =
                        (q + 1 + rng.gen_range(0..num_qubits - 1)) % num_qubits;
                    match kind {
                        6 => c.cx(q, other),
                        7 => c.cz(q, other),
                        _ => c.swap(q, other),
                    }
                }
            };
        }
    }
    c.measure_all();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::GateKind;

    #[test]
    fn all_families_emit_only_clifford_generators() {
        use GateKind::*;
        for c in [ghz(5, 5), teleportation(), random_clifford(4, 20, 7)] {
            for g in c.gates() {
                assert!(
                    matches!(g.kind, H | S | Sdg | X | Y | Z | Cx | Cz | Swap | Measure),
                    "{}: {g}",
                    c.name
                );
            }
        }
    }

    #[test]
    fn random_clifford_is_deterministic_per_seed() {
        let a = random_clifford(5, 30, 42);
        let b = random_clifford(5, 30, 42);
        assert_eq!(a.gates().len(), b.gates().len());
        for (x, y) in a.gates().iter().zip(b.gates()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.operands(), y.operands());
        }
        let c = random_clifford(5, 30, 43);
        let differs = a.gates().len() != c.gates().len()
            || a.gates().iter().zip(c.gates()).any(|(x, y)| {
                x.kind != y.kind || x.operands() != y.operands()
            });
        assert!(differs, "different seeds should generate different circuits");
    }

    #[test]
    fn ghz_measures_a_prefix() {
        let c = ghz(100, 64);
        assert_eq!(c.num_qubits(), 100);
        let (_, measured) = c.split_measurements();
        assert_eq!(measured.len(), 64);
    }
}
