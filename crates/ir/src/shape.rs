//! Circuit *shape* fingerprints.
//!
//! Two circuits share a shape iff they have the same qubit count and the
//! same gate sequence up to parameter values: identical gate kinds on
//! identical operand qubits, in identical order. Same-shape circuits
//! fuse into structurally congruent kernel schedules (same block
//! boundaries, same qubit supports) — the dominant small-job traffic
//! pattern is the same variational ansatz or QCrank template resubmitted
//! with different angles.
//!
//! The digest deliberately **excludes** gate parameters, shots, seeds,
//! and precision: it captures only the structural identity of the gate
//! list. Today the repo benchmark times it as the `ir.shape_digest_us`
//! layer; a plan cache keyed by (shape, precision, widths) is its
//! intended reader.

use crate::circuit::Circuit;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Structural fingerprint of a circuit: qubit count + gate kinds +
/// operand qubits, in order, with parameters excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeDigest(pub u64);

/// Digest the shape of `circuit`. Pure and deterministic: equal gate
/// structure ⇒ equal digest on every run and platform.
pub fn shape_digest(circuit: &Circuit) -> ShapeDigest {
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    // Domain tag: shape digests must never collide with cache-key
    // domains that digest the same gate stream.
    mix(0x5348_4150_4544_4947); // "SHAPEDIG"
    mix(u64::from(circuit.num_qubits()));
    for gate in circuit.gates() {
        mix(u64::from(gate.kind.tag()));
        mix(gate.operands().len() as u64);
        for &q in gate.operands() {
            mix(u64::from(q));
        }
    }
    ShapeDigest(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ansatz(theta: f64) -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).ry(theta, 1).cx(0, 2).rz(-theta, 2).measure_all();
        c
    }

    #[test]
    fn parameter_sweeps_share_a_shape() {
        assert_eq!(shape_digest(&ansatz(0.1)), shape_digest(&ansatz(2.9)));
        assert_eq!(shape_digest(&ansatz(0.0)), shape_digest(&ansatz(-0.0)));
    }

    #[test]
    fn structure_perturbs_the_shape() {
        let base = shape_digest(&ansatz(0.1));
        // Different operand qubit.
        let mut moved = Circuit::new(3);
        moved.h(1).ry(0.1, 1).cx(0, 2).rz(-0.1, 2).measure_all();
        assert_ne!(shape_digest(&moved), base);
        // Different gate kind in the same slot.
        let mut kind = Circuit::new(3);
        kind.h(0).rx(0.1, 1).cx(0, 2).rz(-0.1, 2).measure_all();
        assert_ne!(shape_digest(&kind), base);
        // Different qubit count, same gates.
        let mut wider = Circuit::new(4);
        wider.h(0).ry(0.1, 1).cx(0, 2).rz(-0.1, 2).measure_all();
        assert_ne!(shape_digest(&wider), base);
        // Different gate order.
        let mut reordered = Circuit::new(3);
        reordered.ry(0.1, 1).h(0).cx(0, 2).rz(-0.1, 2).measure_all();
        assert_ne!(shape_digest(&reordered), base);
    }

    #[test]
    fn prefix_is_not_a_collision() {
        let mut long = Circuit::new(2);
        long.h(0).cx(0, 1);
        let mut short = Circuit::new(2);
        short.h(0);
        assert_ne!(shape_digest(&long), shape_digest(&short));
    }
}
