//! Canonical circuit hashing for the result cache.
//!
//! Two submissions collide iff they would produce bit-identical results:
//! the key digests the *transpiled* IR gate-by-gate (kind tag, operand
//! qubits, parameter bit patterns) together with every knob that affects
//! the sampled counts — shots, seed, precision, fusion width, engine tag
//! and fidelity floor. Because every engine is deterministic and
//! sampling is a seeded multinomial draw, equal keys guarantee equal
//! `Counts`.

use crate::job::{Engine, JobSpec};
use qgear_ir::Circuit;
use qgear_num::scalar::Precision;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Cache key: a canonical digest of (transpiled circuit, shots, seed,
/// precision, fusion width, engine, fidelity floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircuitKey(pub u64);

impl CircuitKey {
    /// Digest a spec whose circuit has already been canonicalized
    /// (transpiled to the native set), together with the engine
    /// admission routed it to. Different engines sample through
    /// different code paths (dense marginal vs tableau), so the engine
    /// tag is part of result identity; so is the fidelity floor, which
    /// selects the Clifford-projected circuit.
    pub fn for_spec(circuit: &Circuit, spec: &JobSpec, fusion_width: usize, engine: Engine) -> Self {
        CircuitKey::state_key(circuit, spec, fusion_width).sampled(spec, engine)
    }

    /// The result key of a job whose [state key](Self::state_key) this
    /// is: the state key with every knob that shapes the counts but not
    /// the evolved state folded in — shots, seed, engine tag, fidelity
    /// floor. Deriving it from the state key is what lets admission walk
    /// the gate stream once for both caches.
    pub fn sampled(self, spec: &JobSpec, engine: Engine) -> Self {
        let mut h = Fnv::new();
        h.u64(self.0);
        h.u64(spec.shots);
        h.u64(spec.seed);
        h.u64(engine.tag());
        h.u64(spec.min_fidelity.to_bits());
        CircuitKey(h.finish())
    }

    /// Digest of everything that determines the evolved state's
    /// measurement *marginal* — circuit, precision, fusion width — but
    /// **not** the sampling knobs (shots, seed). Jobs that
    /// differ only in how they sample share this key, which is what lets
    /// the serving layer evolve a circuit once and serve every
    /// shots/seed combination from the cached marginal.
    pub fn state_key(circuit: &Circuit, spec: &JobSpec, fusion_width: usize) -> Self {
        let mut h = Fnv::new();
        // Domain tag: state keys must never be confused with result keys.
        h.u64(0x5747_4154_454b_4559); // "WGATEKEY"
        // The marginal cache is only populated and probed on the dense
        // path, so engine knobs never reach this digest.
        h.gates(circuit);
        h.u64(match spec.precision {
            Precision::Fp32 => 1,
            Precision::Fp64 => 2,
        });
        h.u64(fusion_width as u64);
        CircuitKey(h.finish())
    }
}

/// Minimal FNV-1a accumulator (no external hashing crates offline).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Digest the register width and the gate stream: kind tag, operand
    /// qubits and parameter bit patterns, gate by gate.
    fn gates(&mut self, circuit: &Circuit) {
        self.u64(u64::from(circuit.num_qubits()));
        for gate in circuit.gates() {
            self.u64(u64::from(gate.kind.tag()));
            for &q in gate.operands() {
                self.u64(u64::from(q));
            }
            for &p in gate.parameters() {
                self.u64(p.to_bits());
            }
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(circ: &Circuit) -> JobSpec {
        JobSpec::new(circ.clone())
    }

    fn ghz() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        c
    }

    #[test]
    fn equal_specs_hash_equal() {
        let c = ghz();
        let a = CircuitKey::for_spec(&c, &spec(&c), 5, Engine::Dense);
        let b = CircuitKey::for_spec(&c, &spec(&c), 5, Engine::Dense);
        assert_eq!(a, b);
    }

    #[test]
    fn every_knob_perturbs_the_key() {
        let c = ghz();
        let base = CircuitKey::for_spec(&c, &spec(&c), 5, Engine::Dense);
        assert_ne!(
            CircuitKey::for_spec(&c, &spec(&c).shots(7), 5, Engine::Dense),
            base
        );
        assert_ne!(
            CircuitKey::for_spec(&c, &spec(&c).seed(99), 5, Engine::Dense),
            base
        );
        assert_ne!(
            CircuitKey::for_spec(&c, &spec(&c).precision(Precision::Fp32), 5, Engine::Dense),
            base
        );
        assert_ne!(CircuitKey::for_spec(&c, &spec(&c), 4, Engine::Dense), base);
    }

    #[test]
    fn engine_and_fidelity_floor_perturb_the_key() {
        let c = ghz();
        let base = CircuitKey::for_spec(&c, &spec(&c), 5, Engine::Dense);
        // Same circuit routed to the stabilizer engine samples through a
        // different path: the results must not share a cache slot.
        assert_ne!(
            CircuitKey::for_spec(&c, &spec(&c), 5, Engine::Stabilizer),
            base
        );
        // Fidelity floor participates: it selects the projected circuit.
        assert_ne!(
            CircuitKey::for_spec(&c, &spec(&c).min_fidelity(0.8), 5, Engine::Dense),
            base
        );
    }

    #[test]
    fn gate_order_and_params_matter() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.cx(0, 1).h(0);
        let sa = spec(&a);
        assert_ne!(
            CircuitKey::for_spec(&a, &sa, 5, Engine::Dense),
            CircuitKey::for_spec(&b, &sa, 5, Engine::Dense)
        );

        let mut p = Circuit::new(1);
        p.rz(0.25, 0);
        let mut q = Circuit::new(1);
        q.rz(0.250000001, 0);
        assert_ne!(
            CircuitKey::for_spec(&p, &sa, 5, Engine::Dense),
            CircuitKey::for_spec(&q, &sa, 5, Engine::Dense)
        );
    }

    #[test]
    fn tenant_and_priority_do_not_perturb_the_key() {
        // Identity of the *submitter* must not fragment the cache.
        let c = ghz();
        let a = CircuitKey::for_spec(&c, &spec(&c).tenant("alice"), 5, Engine::Dense);
        let b = CircuitKey::for_spec(
            &c,
            &spec(&c).tenant("bob").priority(crate::Priority::High),
            5,
            Engine::Dense,
        );
        assert_eq!(a, b);
    }
}
