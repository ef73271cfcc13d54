//! The stabilizer engine behind the shared [`Simulator`] contract.
//!
//! Clifford circuits are lowered gate-by-gate onto tableau updates:
//! fixed Clifford kinds map directly, rotation gates at multiples of π/2
//! map to powers of S conjugated into the right axis (`rx = H·rz·H`,
//! `ry ≅ S·H·rz·H·S†` up to global phase, which tableaus ignore), and the
//! controlled phase at multiples of π maps to powers of CZ. Anything
//! non-Clifford is rejected with [`SimError::UnsupportedGate`].
//!
//! Sampling keeps the workspace's bit-exact contracts:
//! * narrow measured sets (≤ [`StabilizerBackend::exact_marginal_cap`])
//!   enumerate the exact marginal by branching the tableau on each random
//!   measurement (2^r leaves for r random bits, pruned to the reachable
//!   outcomes) and then draw through the **shared**
//!   [`qgear_statevec::sample_from_probs`] path, so histograms are
//!   batch-invariant and seed-deterministic exactly like dense engines;
//! * wide measured sets (up to 64 qubits) fall back to per-shot
//!   collapse with a per-shot RNG seeded by SplitMix64 from the request
//!   seed — deterministic, batch-order-independent, but a different
//!   sampling law than the marginal path (documented in
//!   `docs/BACKENDS.md`).

use crate::tableau::Tableau;
use qgear_ir::{Circuit, Gate, GateKind};
use qgear_num::Scalar;
use qgear_statevec::sampling::SamplingConfig;
use qgear_statevec::{
    sample_from_probs, Counts, ExecStats, RunOptions, RunOutput, SimError, Simulator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// `Counts` packs one measured qubit per key bit.
const MAX_MEASURED_QUBITS: usize = 64;

/// Tolerance for matching rotation angles against Clifford angles: it
/// absorbs an ulp or two of user-side `k·π/2` arithmetic without
/// accepting a genuinely non-Clifford angle.
const ANGLE_EPS: f64 = 1e-9;

/// SplitMix64 — derives shot `index`'s measurement seed from the run's
/// master seed, so each sampled shot is reproducible on its own.
fn derive_seed(master: u64, index: u64) -> u64 {
    let mut s = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// CHP stabilizer tableau engine.
#[derive(Debug, Clone)]
pub struct StabilizerBackend {
    /// Hard register-width cap; tableaus are quadratic in width, so this
    /// guards runaway allocations rather than address space.
    pub max_qubits: u32,
    /// Widest measured set that still goes through exact-marginal
    /// enumeration + the shared multinomial sampler. Above this the
    /// engine samples per shot.
    pub exact_marginal_cap: usize,
}

impl Default for StabilizerBackend {
    fn default() -> Self {
        StabilizerBackend { max_qubits: 1 << 14, exact_marginal_cap: 12 }
    }
}

impl StabilizerBackend {
    /// Rotation-angle quarter turns, or `None` for non-Clifford angles.
    fn quarter_turns(theta: f64) -> Option<u32> {
        let k = (theta / std::f64::consts::FRAC_PI_2).round();
        if (theta - k * std::f64::consts::FRAC_PI_2).abs() < ANGLE_EPS {
            Some((k as i64).rem_euclid(4) as u32)
        } else {
            None
        }
    }

    /// Half-turn count for controlled-phase angles (multiples of π).
    fn half_turns(lambda: f64) -> Option<u32> {
        let k = (lambda / std::f64::consts::PI).round();
        if (lambda - k * std::f64::consts::PI).abs() < ANGLE_EPS {
            Some((k as i64).rem_euclid(2) as u32)
        } else {
            None
        }
    }

    /// Apply `rz(k·π/2)` ≅ `S^k` (up to global phase).
    fn apply_z_power(t: &mut Tableau, q: u32, k: u32) -> u64 {
        match k {
            0 => 0,
            1 => {
                t.s(q);
                1
            }
            2 => {
                t.z_gate(q);
                1
            }
            3 => {
                t.sdg(q);
                1
            }
            _ => unreachable!("quarter turns are mod 4"),
        }
    }

    /// Lower one gate onto the tableau; returns tableau updates applied.
    fn apply_gate(t: &mut Tableau, g: &Gate) -> Result<u64, SimError> {
        let unsupported = || SimError::UnsupportedGate(format!("{g} is not Clifford"));
        let q = g.qubits[0];
        Ok(match g.kind {
            GateKind::H => {
                t.h(q);
                1
            }
            GateKind::X => {
                t.x_gate(q);
                1
            }
            GateKind::Y => {
                t.y_gate(q);
                1
            }
            GateKind::Z => {
                t.z_gate(q);
                1
            }
            GateKind::S => {
                t.s(q);
                1
            }
            GateKind::Sdg => {
                t.sdg(q);
                1
            }
            GateKind::Cx => {
                t.cx(q, g.qubits[1]);
                1
            }
            GateKind::Cz => {
                t.cz(q, g.qubits[1]);
                1
            }
            GateKind::Swap => {
                t.swap(q, g.qubits[1]);
                1
            }
            GateKind::Rz | GateKind::P => {
                let k = Self::quarter_turns(g.params[0]).ok_or_else(unsupported)?;
                Self::apply_z_power(t, q, k)
            }
            GateKind::Rx => {
                // rx(θ) = H · rz(θ) · H.
                let k = Self::quarter_turns(g.params[0]).ok_or_else(unsupported)?;
                if k == 0 {
                    0
                } else {
                    t.h(q);
                    let ops = Self::apply_z_power(t, q, k);
                    t.h(q);
                    ops + 2
                }
            }
            GateKind::Ry => {
                // ry(θ) ≅ S · H · rz(θ) · H · S† up to global phase.
                let k = Self::quarter_turns(g.params[0]).ok_or_else(unsupported)?;
                if k == 0 {
                    0
                } else {
                    t.sdg(q);
                    t.h(q);
                    let ops = Self::apply_z_power(t, q, k);
                    t.h(q);
                    t.s(q);
                    ops + 4
                }
            }
            GateKind::U => {
                // u(θ, φ, λ) ≅ rz(φ) · ry(θ) · rz(λ) up to global phase.
                let kl = Self::quarter_turns(g.params[2]).ok_or_else(unsupported)?;
                let kt = Self::quarter_turns(g.params[0]).ok_or_else(unsupported)?;
                let kp = Self::quarter_turns(g.params[1]).ok_or_else(unsupported)?;
                let mut ops = Self::apply_z_power(t, q, kl);
                if kt != 0 {
                    t.sdg(q);
                    t.h(q);
                    ops += Self::apply_z_power(t, q, kt) + 4;
                    t.h(q);
                    t.s(q);
                }
                ops + Self::apply_z_power(t, q, kp)
            }
            GateKind::Cr1 => {
                let k = Self::half_turns(g.params[0]).ok_or_else(unsupported)?;
                if k == 1 {
                    t.cz(q, g.qubits[1]);
                    1
                } else {
                    0
                }
            }
            GateKind::Cry => {
                // Only full turns are Clifford; cry(2π·odd) acts as Z on
                // the control.
                let theta = g.params[0];
                let k = (theta / (2.0 * std::f64::consts::PI)).round();
                if (theta - k * 2.0 * std::f64::consts::PI).abs() >= ANGLE_EPS {
                    return Err(unsupported());
                }
                if (k as i64).rem_euclid(2) == 1 {
                    t.z_gate(q);
                    1
                } else {
                    0
                }
            }
            GateKind::Barrier => 0,
            GateKind::Measure => {
                // Terminal measurements are split off before evolution;
                // mid-circuit ones are not supported by this engine's
                // sampling contract.
                return Err(SimError::UnsupportedGate(
                    "stabilizer engine expects terminal measurements".into(),
                ));
            }
            GateKind::T | GateKind::Tdg | GateKind::Ccx => return Err(unsupported()),
        })
    }

    /// Evolve `|0…0⟩` through the unitary part of `circuit`.
    fn evolve(&self, circuit: &Circuit, stats: &mut ExecStats) -> Result<Tableau, SimError> {
        let n = circuit.num_qubits();
        let mut t = Tableau::new(n as usize);
        let row_bytes = (2 * n as u128 + 1) * 16;
        for g in circuit.gates() {
            let ops = Self::apply_gate(&mut t, g)?;
            stats.gates_applied += 1;
            stats.kernels_launched += ops;
            stats.bytes_touched += ops as u128 * row_bytes;
        }
        if qgear_telemetry::is_enabled() {
            qgear_telemetry::counter_add(
                qgear_telemetry::names::GATES_APPLIED,
                circuit.gates().len() as u128,
            );
        }
        Ok(t)
    }

    /// Exact marginal over `measured` (≤ `exact_marginal_cap` qubits),
    /// bit-packed exactly like `qgear_statevec::marginal_probs`: the outcome of
    /// `measured[j]` lands in key bit `j`. Branches the tableau on every
    /// random measurement; stabilizer outcomes are uniform over the
    /// reachable affine subspace, so every leaf weighs `2^-r`.
    fn exact_marginal(&self, t: &Tableau, measured: &[u32]) -> Vec<f64> {
        let m = measured.len();
        let mut probs = vec![0.0f64; 1usize << m];
        // Depth-first over (tableau, next-qubit-index, key, weight).
        let mut stack: Vec<(Tableau, usize, u64, f64)> = vec![(t.clone(), 0, 0, 1.0)];
        while let Some((mut tab, j, key, w)) = stack.pop() {
            if j == m {
                probs[key as usize] += w;
                continue;
            }
            let q = measured[j];
            if tab.is_deterministic(q) {
                let out = tab.measure(q, || unreachable!("deterministic"));
                let key = key | (out.value as u64) << j;
                stack.push((tab, j + 1, key, w));
            } else {
                let mut one = tab.clone();
                tab.measure(q, || false);
                one.measure(q, || true);
                stack.push((tab, j + 1, key, w * 0.5));
                stack.push((one, j + 1, key | 1 << j, w * 0.5));
            }
        }
        probs
    }

    /// Per-shot sampling for wide measured sets: one tableau collapse per
    /// shot, RNG seeded per shot so the histogram is independent of
    /// batching and merge order.
    fn sample_per_shot(
        &self,
        t: &Tableau,
        measured: &[u32],
        cfg: &SamplingConfig,
    ) -> Option<Counts> {
        if cfg.shots == 0 || measured.is_empty() {
            return None;
        }
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        for shot in 0..cfg.shots {
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, shot));
            let mut tab = t.clone();
            let mut key = 0u64;
            for (j, &q) in measured.iter().enumerate() {
                let m = tab.measure(q, || rng.gen_bool(0.5));
                key |= (m.value as u64) << j;
            }
            *map.entry(key).or_insert(0) += 1;
        }
        if qgear_telemetry::is_enabled() {
            qgear_telemetry::counter_add(qgear_telemetry::names::SHOTS_SAMPLED, cfg.shots as u128);
        }
        Some(Counts { qubits: measured.to_vec(), map })
    }

    fn sample(
        &self,
        t: &Tableau,
        measured: &[u32],
        cfg: &SamplingConfig,
    ) -> Result<Option<Counts>, SimError> {
        if measured.len() > MAX_MEASURED_QUBITS {
            return Err(SimError::UnsupportedGate(format!(
                "{} measured qubits exceed the 64-bit outcome key",
                measured.len()
            )));
        }
        if measured.len() <= self.exact_marginal_cap {
            let probs = self.exact_marginal(t, measured);
            Ok(sample_from_probs(&probs, measured, cfg))
        } else {
            Ok(self.sample_per_shot(t, measured, cfg))
        }
    }

    fn check_feasible(&self, n: u32, opts: &RunOptions) -> Result<(), SimError> {
        if n > self.max_qubits {
            return Err(SimError::TooManyQubits(n));
        }
        if let Some(limit) = opts.memory_limit {
            let required = Tableau::memory_bytes(n);
            if required > limit {
                return Err(SimError::OutOfMemory { required, limit });
            }
        }
        Ok(())
    }
}

impl<T: Scalar> Simulator<T> for StabilizerBackend {
    fn name(&self) -> &'static str {
        "stabilizer"
    }

    /// Run a Clifford circuit. `keep_state` is ignored: the engine never
    /// materializes amplitudes, so `state` is always `None` — callers
    /// needing a dense state must use a state-vector engine.
    fn run(&self, circuit: &Circuit, opts: &RunOptions) -> Result<RunOutput<T>, SimError> {
        self.check_feasible(circuit.num_qubits(), opts)?;
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::SIMULATE);
        let (unitary, measured) = circuit.split_measurements();
        let mut stats = ExecStats::default();
        let start = Instant::now();
        let t = self.evolve(&unitary, &mut stats)?;
        stats.elapsed = start.elapsed();
        let sample_start = Instant::now();
        let counts = self.sample(&t, &measured, &opts.sampling())?;
        stats.sampling_elapsed = sample_start.elapsed();
        Ok(RunOutput { state: None, counts, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_counts(c: &Circuit, shots: u64, seed: u64) -> Counts {
        let opts = RunOptions { shots, seed, ..Default::default() };
        let out: RunOutput<f64> =
            StabilizerBackend::default().run(c, &opts).expect("clifford run");
        out.counts.expect("counts")
    }

    #[test]
    fn ghz_samples_only_extremes() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
        let counts = run_counts(&c, 10_000, 7);
        assert_eq!(counts.total(), 10_000);
        for &key in counts.map.keys() {
            assert!(key == 0 || key == 0b1111, "non-GHZ outcome {key:#b}");
        }
        // Both branches present at these shot counts.
        assert!(counts.get(0) > 4000 && counts.get(0b1111) > 4000);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).s(1).h(2).measure_all();
        let a = run_counts(&c, 5000, 42);
        let b = run_counts(&c, 5000, 42);
        assert_eq!(a.map, b.map);
    }

    #[test]
    fn wide_register_per_shot_path() {
        let n = 80u32;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        // Measure a 20-qubit subset: wide enough for the per-shot path.
        for q in 0..20 {
            c.measure(q);
        }
        let counts = run_counts(&c, 500, 3);
        assert_eq!(counts.total(), 500);
        let all_ones = (1u64 << 20) - 1;
        for &key in counts.map.keys() {
            assert!(key == 0 || key == all_ones);
        }
        // Determinism of the per-shot path.
        assert_eq!(run_counts(&c, 500, 3).map, counts.map);
    }

    #[test]
    fn non_clifford_gates_rejected() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).measure_all();
        let out: Result<RunOutput<f64>, _> =
            StabilizerBackend::default().run(&c, &RunOptions::default());
        assert!(matches!(out, Err(SimError::UnsupportedGate(_))));
        let mut r = Circuit::new(1);
        r.ry(0.3, 0);
        let out: Result<RunOutput<f64>, _> =
            StabilizerBackend::default().run(&r, &RunOptions::default());
        assert!(matches!(out, Err(SimError::UnsupportedGate(_))));
    }

    #[test]
    fn clifford_angle_rotations_accepted() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let mut c = Circuit::new(2);
        c.rx(PI, 0).ry(FRAC_PI_2, 1).rz(-FRAC_PI_2, 0).p(PI, 1).cr1(PI, 0, 1).measure_all();
        let counts = run_counts(&c, 100, 1);
        assert_eq!(counts.total(), 100);
    }

    #[test]
    fn memory_gate_uses_tableau_memory_bytes() {
        let opts = RunOptions { memory_limit: Some(1024), ..Default::default() };
        let mut tiny = Circuit::new(8);
        tiny.h(0);
        let ok: Result<RunOutput<f64>, _> = StabilizerBackend::default().run(&tiny, &opts);
        assert!(ok.is_ok(), "8-qubit tableau fits in 1 KB");
        let mut wide = Circuit::new(512);
        wide.h(0);
        let err: Result<RunOutput<f64>, _> = StabilizerBackend::default().run(&wide, &opts);
        assert!(matches!(err, Err(SimError::OutOfMemory { .. })));
    }

    #[test]
    fn hundred_qubit_ghz_runs() {
        let n = 100u32;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        for q in 0..64 {
            c.measure(q);
        }
        let counts = run_counts(&c, 256, 11);
        assert_eq!(counts.total(), 256);
        for &key in counts.map.keys() {
            assert!(key == 0 || key == u64::MAX, "GHZ prefix outcome {key:#x}");
        }
    }

    #[test]
    fn too_many_measured_qubits_rejected() {
        let mut c = Circuit::new(70);
        c.h(0);
        for q in 0..70 {
            c.measure(q);
        }
        let opts = RunOptions { shots: 10, ..Default::default() };
        let out: Result<RunOutput<f64>, _> = StabilizerBackend::default().run(&c, &opts);
        assert!(matches!(out, Err(SimError::UnsupportedGate(_))));
    }
}
