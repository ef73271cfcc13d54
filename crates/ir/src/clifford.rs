//! Clifford classification and near-Clifford projection.
//!
//! The stabilizer backend (`qgear-stabilizer`) can only execute circuits
//! whose every gate normalizes the Pauli group — the Clifford group. This
//! module is the admission-time oracle for that property: a per-gate
//! predicate over the existing gate taxonomy, a circuit-level summary with
//! a T-count (the standard "magic" cost of a near-Clifford circuit), and a
//! *projection* that rounds non-Clifford rotation angles onto the nearest
//! Clifford angle together with a per-gate fidelity estimate, so a service
//! can trade accuracy for a tractable engine when the job's declared
//! fidelity floor allows it.
//!
//! Angle conventions match `qgear_num::gates`: `rz(θ) = e^{-iθZ/2}`, so
//! `rz` is Clifford exactly when `θ` is a multiple of π/2 (it equals a
//! power of S up to global phase, which stabilizer tableaus ignore).
//! `p(λ) = diag(1, e^{iλ})` is Clifford at multiples of π/2, and the
//! controlled phase `cr1(λ)` at multiples of π (where it is a power of CZ).

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};

/// Tolerance for matching rotation angles against Clifford angles. Angles
/// produced by `k * FRAC_PI_2` arithmetic are exact to well below this;
/// the slack absorbs one or two ulps from user-side arithmetic without
/// accepting genuinely non-Clifford angles.
pub const ANGLE_EPS: f64 = 1e-9;

/// True when `theta` is an integer multiple of `step` (within
/// [`ANGLE_EPS`]).
fn is_multiple_of(theta: f64, step: f64) -> bool {
    let k = (theta / step).round();
    (theta - k * step).abs() < ANGLE_EPS
}

/// Nearest integer multiple of `step` to `theta`, as the integer `k`.
fn nearest_multiple(theta: f64, step: f64) -> i64 {
    (theta / step).round() as i64
}

/// Per-gate Clifford predicate, *up to global phase* — the equivalence
/// that matters for stabilizer simulation. Measurements and barriers are
/// accepted (they are handled outside the unitary part).
pub fn gate_is_clifford(g: &Gate) -> bool {
    match g.kind {
        GateKind::H
        | GateKind::X
        | GateKind::Y
        | GateKind::Z
        | GateKind::S
        | GateKind::Sdg
        | GateKind::Cx
        | GateKind::Cz
        | GateKind::Swap
        | GateKind::Measure
        | GateKind::Barrier => true,
        GateKind::T | GateKind::Tdg => false,
        // e^{-iθP/2} for a Pauli axis P is Clifford iff θ ≡ 0 (mod π/2).
        GateKind::Rx | GateKind::Ry | GateKind::Rz => {
            is_multiple_of(g.params[0], std::f64::consts::FRAC_PI_2)
        }
        // diag(1, e^{iλ}) is a power of S at λ ≡ 0 (mod π/2).
        GateKind::P => is_multiple_of(g.params[0], std::f64::consts::FRAC_PI_2),
        // u(θ, φ, λ) = rz(φ)·ry(θ)·rz(λ) up to phase: Clifford when all
        // three Euler angles are Clifford rotation angles.
        GateKind::U => g
            .parameters()
            .iter()
            .all(|&a| is_multiple_of(a, std::f64::consts::FRAC_PI_2)),
        // Controlled-phase is a power of CZ at λ ≡ 0 (mod π).
        GateKind::Cr1 => is_multiple_of(g.params[0], std::f64::consts::PI),
        // cry(π) maps X⊗I to a non-Pauli operator (the controlled −iY
        // leaks phase into the control subspace), so unlike cr1 it is not
        // Clifford at half-turns. Full turns are: cry(2π) acts as Z on
        // the control. Accept θ ≡ 0 (mod 2π) only.
        GateKind::Cry => is_multiple_of(g.params[0], 2.0 * std::f64::consts::PI),
        GateKind::Ccx => false,
    }
}

/// Coarse circuit class for backend admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitClass {
    /// Every gate is Clifford — exactly simulable on a stabilizer tableau.
    Clifford,
    /// Only T/Tdg (or T-equivalent `rz(±π/4)`-like angles rounded here as
    /// generic non-Clifford) break the Clifford property.
    NearClifford {
        /// Number of explicit T/Tdg gates.
        t_count: usize,
    },
    /// Arbitrary non-Clifford content (general rotations, Toffolis…).
    General,
}

/// Circuit-level Clifford summary produced by [`classify`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CliffordSummary {
    /// Total gates inspected (including measurements and barriers).
    pub total_gates: usize,
    /// Gates that passed the per-gate Clifford predicate.
    pub clifford_gates: usize,
    /// Explicit T/Tdg gates.
    pub t_count: usize,
    /// Non-Clifford gates that are not T/Tdg (general rotations, ccx…).
    pub other_non_clifford: usize,
    /// Coarse class derived from the counts.
    pub class: CircuitClass,
}

impl CliffordSummary {
    /// True iff the whole circuit is Clifford.
    pub fn is_clifford(&self) -> bool {
        matches!(self.class, CircuitClass::Clifford)
    }
}

/// Classify a circuit: per-gate predicate folded into a summary.
pub fn classify(circuit: &Circuit) -> CliffordSummary {
    let mut clifford_gates = 0usize;
    let mut t_count = 0usize;
    let mut other = 0usize;
    for g in circuit.gates() {
        if gate_is_clifford(g) {
            clifford_gates += 1;
        } else if matches!(g.kind, GateKind::T | GateKind::Tdg) {
            t_count += 1;
        } else {
            other += 1;
        }
    }
    let class = if t_count == 0 && other == 0 {
        CircuitClass::Clifford
    } else if other == 0 {
        CircuitClass::NearClifford { t_count }
    } else {
        CircuitClass::General
    };
    CliffordSummary {
        total_gates: circuit.gates().len(),
        clifford_gates,
        t_count,
        other_non_clifford: other,
        class,
    }
}

/// Project one gate onto its nearest Clifford gate, returning the
/// projected gate and the projection fidelity
/// `F = |⟨ψ|U†·C|ψ⟩|²`-style per-gate estimate `cos²(Δ/2)` where `Δ` is
/// the rotation-angle perturbation. Gates that are already Clifford
/// project to themselves with fidelity 1.
///
/// Gates with no nearby Clifford expression (`ccx`, `cry` away from full
/// turns) return `None` — they cannot be projected by angle rounding.
fn project_gate(g: &Gate) -> Option<(Gate, f64)> {
    if gate_is_clifford(g) {
        return Some((*g, 1.0));
    }
    let half_pi = std::f64::consts::FRAC_PI_2;
    match g.kind {
        // T = rz-like phase by π/4: nearest Clifford rounds the π/4 away.
        // Fidelity of replacing e^{-iΔZ/2} by I on a Haar-average state
        // is cos²(Δ/2); for Δ = π/4 that is cos²(π/8) ≈ 0.8536.
        GateKind::T | GateKind::Tdg => {
            let mut p = *g;
            p.kind = GateKind::P;
            p.params = [0.0; 3];
            let delta = std::f64::consts::FRAC_PI_4;
            Some((p, (delta / 2.0).cos().powi(2)))
        }
        GateKind::Rx | GateKind::Ry | GateKind::Rz | GateKind::P => {
            let k = nearest_multiple(g.params[0], half_pi);
            let snapped = k as f64 * half_pi;
            let delta = g.params[0] - snapped;
            let mut p = *g;
            p.params[0] = snapped;
            Some((p, (delta / 2.0).cos().powi(2)))
        }
        GateKind::Cr1 => {
            let pi = std::f64::consts::PI;
            let k = nearest_multiple(g.params[0], pi);
            let snapped = k as f64 * pi;
            let delta = g.params[0] - snapped;
            let mut p = *g;
            p.params[0] = snapped;
            // The phase perturbation acts on the |11⟩ component only; use
            // the same conservative cos²(Δ/2) bound.
            Some((p, (delta / 2.0).cos().powi(2)))
        }
        GateKind::U => {
            let mut p = *g;
            let mut fid = 1.0;
            for a in p.params.iter_mut() {
                let k = nearest_multiple(*a, half_pi);
                let snapped = k as f64 * half_pi;
                fid *= ((*a - snapped) / 2.0).cos().powi(2);
                *a = snapped;
            }
            Some((p, fid))
        }
        _ => None,
    }
}

/// Project a whole circuit onto the Clifford group by rounding every
/// non-Clifford rotation angle to the nearest Clifford angle. Returns the
/// projected circuit and the product of per-gate projection fidelities —
/// an optimistic estimate of how faithful the projected circuit is to the
/// original. Returns `None` if any gate cannot be projected (ccx, generic
/// cry): those circuits have no angle-rounding Clifford neighbour.
pub fn clifford_projection(circuit: &Circuit) -> Option<(Circuit, f64)> {
    let mut out = Circuit::new(circuit.num_qubits());
    out.name = circuit.name.clone();
    let mut fidelity = 1.0f64;
    for g in circuit.gates() {
        let (p, f) = project_gate(g)?;
        fidelity *= f;
        out.push(p).expect("projected gate keeps original operands");
    }
    Some((out, fidelity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn fixed_clifford_kinds() {
        for g in [
            Gate::q1(GateKind::H, 0),
            Gate::q1(GateKind::X, 0),
            Gate::q1(GateKind::Y, 0),
            Gate::q1(GateKind::Z, 0),
            Gate::q1(GateKind::S, 0),
            Gate::q1(GateKind::Sdg, 0),
            Gate::q2(GateKind::Cx, 0, 1),
            Gate::q2(GateKind::Cz, 0, 1),
            Gate::q2(GateKind::Swap, 0, 1),
            Gate::measure(0),
            Gate::nullary(GateKind::Barrier),
        ] {
            assert!(gate_is_clifford(&g), "{g}");
        }
        for g in [
            Gate::q1(GateKind::T, 0),
            Gate::q1(GateKind::Tdg, 0),
            Gate::ccx(0, 1, 2),
        ] {
            assert!(!gate_is_clifford(&g), "{g}");
        }
    }

    #[test]
    fn rotation_angles() {
        for kind in [GateKind::Rx, GateKind::Ry, GateKind::Rz, GateKind::P] {
            for k in -4i32..=4 {
                let g = Gate::q1p1(kind, 0, k as f64 * FRAC_PI_2);
                assert!(gate_is_clifford(&g), "{g}");
            }
            for theta in [FRAC_PI_4, 0.3, -1.0, PI / 3.0] {
                let g = Gate::q1p1(kind, 0, theta);
                assert!(!gate_is_clifford(&g), "{g}");
            }
        }
        // cr1 needs multiples of π, not π/2.
        assert!(gate_is_clifford(&Gate::q2p1(GateKind::Cr1, 0, 1, PI)));
        assert!(gate_is_clifford(&Gate::q2p1(GateKind::Cr1, 0, 1, -2.0 * PI)));
        assert!(!gate_is_clifford(&Gate::q2p1(GateKind::Cr1, 0, 1, FRAC_PI_2)));
        // cry is only Clifford at full turns.
        assert!(gate_is_clifford(&Gate::q2p1(GateKind::Cry, 0, 1, 0.0)));
        assert!(!gate_is_clifford(&Gate::q2p1(GateKind::Cry, 0, 1, PI)));
    }

    #[test]
    fn classify_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).tdg(2).ry(0.3, 2).measure(0);
        let s = classify(&c);
        assert_eq!(s.total_gates, 6);
        assert_eq!(s.clifford_gates, 3);
        assert_eq!(s.t_count, 2);
        assert_eq!(s.other_non_clifford, 1);
        assert_eq!(s.class, CircuitClass::General);

        let mut ghz = Circuit::new(4);
        ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
        assert!(classify(&ghz).is_clifford());

        let mut near = Circuit::new(2);
        near.h(0).t(0).cx(0, 1);
        assert_eq!(classify(&near).class, CircuitClass::NearClifford { t_count: 1 });
    }

    #[test]
    fn projection_rounds_angles_and_prices_fidelity() {
        let mut c = Circuit::new(2);
        c.h(0).rz(FRAC_PI_2 + 0.01, 0).cx(0, 1).t(1);
        let (p, fid) = clifford_projection(&c).unwrap();
        assert!(classify(&p).is_clifford());
        let expected = (0.01f64 / 2.0).cos().powi(2) * (FRAC_PI_4 / 2.0).cos().powi(2);
        assert!((fid - expected).abs() < 1e-12, "fid {fid} vs {expected}");
        // Already-Clifford circuits project to themselves at fidelity 1.
        let mut ghz = Circuit::new(2);
        ghz.h(0).cx(0, 1);
        let (q, f1) = clifford_projection(&ghz).unwrap();
        assert_eq!(q.gates(), ghz.gates());
        assert_eq!(f1, 1.0);
        // Toffolis cannot be angle-rounded.
        let mut tof = Circuit::new(3);
        tof.ccx(0, 1, 2);
        assert!(clifford_projection(&tof).is_none());
    }

    #[test]
    fn projected_gate_is_clifford() {
        for g in [
            Gate::q1p1(GateKind::Rx, 0, 0.7),
            Gate::q1p1(GateKind::Ry, 0, -2.1),
            Gate::q1p1(GateKind::Rz, 0, 1.0),
            Gate::q1p1(GateKind::P, 0, 0.4),
            Gate::q2p1(GateKind::Cr1, 0, 1, 1.9),
            Gate::u(0, 0.3, 1.1, -0.6),
            Gate::q1(GateKind::T, 0),
        ] {
            let (p, fid) = project_gate(&g).unwrap();
            assert!(gate_is_clifford(&p), "{g} -> {p}");
            assert!(fid > 0.0 && fid <= 1.0, "{g}: {fid}");
        }
    }
}
