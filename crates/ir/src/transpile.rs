//! Transpilation passes.
//!
//! Q-Gear consumes circuits "transpiled from native gate sets" (§2.1). The
//! native executable set here is `{h, rx, ry, rz, cx}` + `measure`
//! (Appendix A: "our experiment used Rx, Ry, and CX gates"; QFT kernels add
//! `cr1`, which [`decompose_to_native`] lowers exactly). Three passes are
//! provided, composable through [`transpile`]:
//!
//! 1. **native decomposition** — rewrite every gate onto the native set,
//!    tracking the accumulated global phase exactly;
//! 2. **rotation merging** — combine adjacent same-axis rotations and
//!    cancel adjacent self-inverse pairs (`h·h`, `cx·cx`);
//! 3. **small-angle pruning** — drop rotations below a threshold, the
//!    approximation Appendix D.2 applies to deep QFT ladders.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

/// Result of running transpilation: the rewritten circuit plus the global
/// phase `φ` such that `U_out = e^{-iφ} · U_in` — equivalently, applying
/// `e^{iφ}` to the output state reproduces the input unitary exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct TranspileOutput {
    /// Rewritten circuit.
    pub circuit: Circuit,
    /// Accumulated global phase in radians.
    pub global_phase: f64,
    /// Number of rotations removed by the pruning pass.
    pub pruned: usize,
    /// Number of gates removed or absorbed by the merging pass.
    pub merged: usize,
}

/// Options controlling [`transpile`].
#[derive(Debug, Clone, Copy)]
pub struct TranspileOptions {
    /// Lower onto the native set (pass 1). When false the circuit must
    /// already be native if a kernel transformation follows.
    pub decompose: bool,
    /// Merge adjacent rotations / cancel self-inverse pairs (pass 2).
    pub merge: bool,
    /// Prune rotations with `|θ| < eps` (pass 3); `None` disables.
    /// The paper applies this to QFT's geometrically-shrinking `cr1`
    /// angles ("approximations for negligible rotation angles").
    pub prune_eps: Option<f64>,
}

impl Default for TranspileOptions {
    fn default() -> Self {
        TranspileOptions { decompose: true, merge: true, prune_eps: None }
    }
}

/// Run the configured pass pipeline.
pub fn transpile(circ: &Circuit, opts: TranspileOptions) -> TranspileOutput {
    let (mut circuit, global_phase) = if opts.decompose {
        decompose_to_native(circ)
    } else {
        (circ.clone(), 0.0)
    };
    let mut pruned = 0;
    if let Some(eps) = opts.prune_eps {
        let (c, p) = prune_small_angles(&circuit, eps);
        circuit = c;
        pruned = p;
    }
    let mut merged = 0;
    if opts.merge {
        let before = circuit.len();
        circuit = merge_adjacent(&circuit);
        merged = before - circuit.len();
    }
    TranspileOutput { circuit, global_phase, pruned, merged }
}

/// Lower a circuit onto the native set, returning `(circuit, global_phase)`.
///
/// Every rewrite below is exact up to the returned global phase; the
/// identities are standard (see the unit tests, which verify each against
/// the dense reference simulator).
pub fn decompose_to_native(circ: &Circuit) -> (Circuit, f64) {
    let mut out = Circuit::with_capacity(circ.num_qubits(), circ.name.clone(), circ.gates().len() * 2);
    let mut phase = 0.0f64;
    for g in circ.gates() {
        lower_gate(g, &mut out, &mut phase);
    }
    (out, phase)
}

fn lower_gate(g: &Gate, out: &mut Circuit, phase: &mut f64) {
    let q = g.qubits[0];
    match g.kind {
        // Already native.
        GateKind::H | GateKind::Rx | GateKind::Ry | GateKind::Rz => {
            out.push(*g).expect("valid gate");
        }
        GateKind::Cx => {
            out.cx(g.qubits[0], g.qubits[1]);
        }
        GateKind::Measure => {
            out.measure(q);
        }
        GateKind::Barrier => {
            out.barrier();
        }
        // Single-qubit phase family: p(λ) = e^{iλ/2}·Rz(λ).
        GateKind::P => {
            out.rz(g.params[0], q);
            *phase += g.params[0] / 2.0;
        }
        GateKind::S => {
            out.rz(FRAC_PI_2, q);
            *phase += FRAC_PI_4;
        }
        GateKind::Sdg => {
            out.rz(-FRAC_PI_2, q);
            *phase -= FRAC_PI_4;
        }
        GateKind::T => {
            out.rz(FRAC_PI_4, q);
            *phase += FRAC_PI_4 / 2.0;
        }
        GateKind::Tdg => {
            out.rz(-FRAC_PI_4, q);
            *phase -= FRAC_PI_4 / 2.0;
        }
        GateKind::Z => {
            out.rz(PI, q);
            *phase += FRAC_PI_2;
        }
        // X = e^{iπ/2}·Rx(π), Y = e^{iπ/2}·Ry(π).
        GateKind::X => {
            out.rx(PI, q);
            *phase += FRAC_PI_2;
        }
        GateKind::Y => {
            out.ry(PI, q);
            *phase += FRAC_PI_2;
        }
        // u(θ,φ,λ) = e^{i(φ+λ)/2}·Rz(φ)·Ry(θ)·Rz(λ)  (matrix order).
        GateKind::U => {
            let (theta, uphi, lambda) = (g.params[0], g.params[1], g.params[2]);
            out.rz(lambda, q).ry(theta, q).rz(uphi, q);
            *phase += (uphi + lambda) / 2.0;
        }
        // cz(a,b) = h(b)·cx(a,b)·h(b), exact.
        GateKind::Cz => {
            let (a, b) = (g.qubits[0], g.qubits[1]);
            out.h(b).cx(a, b).h(b);
        }
        // cr1(λ) = e^{iλ/4} · Rz(λ/2)_c Rz(λ/2)_t · cx · Rz(-λ/2)_t · cx.
        GateKind::Cr1 => {
            let (c, t) = (g.qubits[0], g.qubits[1]);
            let half = g.params[0] / 2.0;
            out.rz(half, c).rz(half, t).cx(c, t).rz(-half, t).cx(c, t);
            *phase += g.params[0] / 4.0;
        }
        // cry(θ) = Ry(θ/2)_t · cx · Ry(-θ/2)_t · cx, exact.
        GateKind::Cry => {
            let (c, t) = (g.qubits[0], g.qubits[1]);
            let half = g.params[0] / 2.0;
            out.ry(half, t).cx(c, t).ry(-half, t).cx(c, t);
        }
        // swap = 3 CX, exact.
        GateKind::Swap => {
            let (a, b) = (g.qubits[0], g.qubits[1]);
            out.cx(a, b).cx(b, a).cx(a, b);
        }
        // Standard 6-CX Toffoli; T/T† then lowered recursively.
        GateKind::Ccx => {
            let (c0, c1, t) = (g.qubits[0], g.qubits[1], g.qubits[2]);
            let seq = [
                Gate::q1(GateKind::H, t),
                Gate::q2(GateKind::Cx, c1, t),
                Gate::q1(GateKind::Tdg, t),
                Gate::q2(GateKind::Cx, c0, t),
                Gate::q1(GateKind::T, t),
                Gate::q2(GateKind::Cx, c1, t),
                Gate::q1(GateKind::Tdg, t),
                Gate::q2(GateKind::Cx, c0, t),
                Gate::q1(GateKind::T, c1),
                Gate::q1(GateKind::T, t),
                Gate::q1(GateKind::H, t),
                Gate::q2(GateKind::Cx, c0, c1),
                Gate::q1(GateKind::T, c0),
                Gate::q1(GateKind::Tdg, c1),
                Gate::q2(GateKind::Cx, c0, c1),
            ];
            for s in seq {
                lower_gate(&s, out, phase);
            }
        }
    }
}

/// Merge adjacent same-axis rotations and cancel adjacent self-inverse
/// pairs. "Adjacent" means no intervening gate touches the same qubit(s).
pub fn merge_adjacent(circ: &Circuit) -> Circuit {
    // `last[q]` is the index in `out` of the last gate touching qubit q.
    let mut out: Vec<Option<Gate>> = Vec::with_capacity(circ.gates().len());
    let mut last: Vec<Option<usize>> = vec![None; circ.num_qubits() as usize];

    for g in circ.gates() {
        if g.kind == GateKind::Barrier {
            last.fill(None);
            out.push(Some(*g));
            continue;
        }
        let ops = g.operands();
        let merged = (|| -> Option<()> {
            // Candidate: the previous op must be the same slot for all of
            // this gate's qubits, still alive, and mergeable.
            let &first = ops.first()?;
            let idx = last[first as usize]?;
            for &q in ops {
                if last[q as usize] != Some(idx) {
                    return None;
                }
            }
            let prev = out[idx]?;
            // The previous gate must act on exactly the same qubit set.
            if prev.operands().len() != ops.len() {
                return None;
            }
            // Returning `None` below means "not mergeable".
            match (prev.kind, g.kind) {
                // Same-axis rotation accumulation.
                (GateKind::Rx, GateKind::Rx)
                | (GateKind::Ry, GateKind::Ry)
                | (GateKind::Rz, GateKind::Rz)
                | (GateKind::P, GateKind::P)
                    if prev.qubits[0] == g.qubits[0] =>
                {
                    let sum = prev.params[0] + g.params[0];
                    if sum.abs() < 1e-15 {
                        out[idx] = None;
                        last[first as usize] = None;
                    } else {
                        let mut m = prev;
                        m.params[0] = sum;
                        out[idx] = Some(m);
                    }
                    Some(())
                }
                // Self-inverse cancellation: h·h, x·x, y·y, z·z on the same
                // qubit, cx·cx with identical control/target.
                (GateKind::H, GateKind::H)
                | (GateKind::X, GateKind::X)
                | (GateKind::Y, GateKind::Y)
                | (GateKind::Z, GateKind::Z)
                    if prev.qubits[0] == g.qubits[0] =>
                {
                    out[idx] = None;
                    last[first as usize] = None;
                    Some(())
                }
                (GateKind::Cx, GateKind::Cx)
                | (GateKind::Cz, GateKind::Cz)
                | (GateKind::Swap, GateKind::Swap)
                    if prev.qubits[0] == g.qubits[0] && prev.qubits[1] == g.qubits[1] =>
                {
                    out[idx] = None;
                    for &q in ops {
                        last[q as usize] = None;
                    }
                    Some(())
                }
                _ => None,
            }
        })()
        .is_some();

        if !merged {
            let idx = out.len();
            out.push(Some(*g));
            for &q in ops {
                last[q as usize] = Some(idx);
            }
        }
    }

    let mut result = Circuit::with_capacity(circ.num_qubits(), circ.name.clone(), out.len());
    for g in out.into_iter().flatten() {
        result.push(g).expect("merged gate valid");
    }
    result
}

/// Remove parameterized rotations with `|θ| < eps`; returns the pruned
/// circuit and the number of gates removed. This implements the AQFT
/// approximation: `cr1` angles shrink as `2π/2^k`, so deep ladders are
/// dominated by numerically-irrelevant rotations.
fn prune_small_angles(circ: &Circuit, eps: f64) -> (Circuit, usize) {
    let mut out = Circuit::with_capacity(circ.num_qubits(), circ.name.clone(), circ.gates().len());
    let mut pruned = 0usize;
    for g in circ.gates() {
        let prunable = matches!(
            g.kind,
            GateKind::Rx | GateKind::Ry | GateKind::Rz | GateKind::P | GateKind::Cr1 | GateKind::Cry
        );
        if prunable && g.params[0].abs() < eps {
            pruned += 1;
            continue;
        }
        out.push(*g).expect("valid gate");
    }
    (out, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use qgear_num::approx::max_deviation;

    /// Verify `decomposed + global phase == original` on the reference
    /// simulator, starting from a random state for full-rank coverage.
    fn assert_equivalent(circ: &Circuit) {
        let (native, phase) = decompose_to_native(circ);
        assert!(native.is_native(), "decomposition left foreign gates: {:?}", native.count_ops());
        let init = reference::random_state(circ.num_qubits(), 0xBEEF);
        let mut expect = init.clone();
        for g in circ.gates() {
            reference::apply_gate(&mut expect, circ.num_qubits(), g);
        }
        let mut got = init;
        for g in native.gates() {
            reference::apply_gate(&mut got, circ.num_qubits(), g);
        }
        reference::apply_global_phase(&mut got, phase);
        assert!(
            max_deviation(&expect, &got) < 1e-12,
            "deviation {} for {:?}",
            max_deviation(&expect, &got),
            circ.count_ops()
        );
    }

    #[test]
    fn decompose_each_kind_exactly() {
        let single: &[fn(&mut Circuit)] = &[
            |c| {
                c.x(0);
            },
            |c| {
                c.y(1);
            },
            |c| {
                c.z(2);
            },
            |c| {
                c.s(0);
            },
            |c| {
                c.sdg(1);
            },
            |c| {
                c.t(2);
            },
            |c| {
                c.tdg(0);
            },
            |c| {
                c.p(0.77, 1);
            },
            |c| {
                c.u(0.3, 1.2, -0.8, 2);
            },
            |c| {
                c.cz(0, 2);
            },
            |c| {
                c.cr1(1.1, 1, 2);
            },
            |c| {
                c.cry(-0.6, 2, 0);
            },
            |c| {
                c.swap(0, 1);
            },
            |c| {
                c.ccx(0, 1, 2);
            },
        ];
        for (i, build) in single.iter().enumerate() {
            let mut c = Circuit::new(3);
            build(&mut c);
            assert_equivalent(&c);
            let _ = i;
        }
    }

    #[test]
    fn decompose_mixed_circuit() {
        let mut c = Circuit::new(4);
        c.h(0)
            .t(1)
            .cz(0, 1)
            .u(0.5, -0.25, 1.5, 2)
            .ccx(0, 1, 3)
            .swap(2, 3)
            .cr1(0.333, 3, 0)
            .p(2.0, 2)
            .y(1);
        assert_equivalent(&c);
    }

    #[test]
    fn native_circuit_untouched() {
        let mut c = Circuit::new(2);
        c.h(0).rx(0.1, 1).cx(0, 1).measure_all();
        let (native, phase) = decompose_to_native(&c);
        assert_eq!(native, c);
        assert_eq!(phase, 0.0);
    }

    #[test]
    fn merge_same_axis_rotations() {
        let mut c = Circuit::new(2);
        c.rz(0.25, 0).rz(0.5, 0).rx(1.0, 1);
        let m = merge_adjacent(&c);
        assert_eq!(m.len(), 2);
        assert_eq!(m.gates()[0].kind, GateKind::Rz);
        assert!((m.gates()[0].params[0] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn merge_cancels_zero_sum() {
        let mut c = Circuit::new(1);
        c.ry(0.4, 0).ry(-0.4, 0);
        let m = merge_adjacent(&c);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn merge_blocked_by_intervening_gate() {
        let mut c = Circuit::new(2);
        c.rz(0.25, 0).cx(0, 1).rz(0.5, 0);
        let m = merge_adjacent(&c);
        assert_eq!(m.len(), 3, "cx touches q0, so the rz pair must not merge");
    }

    #[test]
    fn merge_cancels_hh_and_cxcx() {
        let mut c = Circuit::new(2);
        c.h(0).h(0).cx(0, 1).cx(0, 1).ry(0.3, 1);
        let m = merge_adjacent(&c);
        assert_eq!(m.len(), 1);
        assert_eq!(m.gates()[0].kind, GateKind::Ry);
    }

    #[test]
    fn merge_does_not_cancel_reversed_cx() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        let m = merge_adjacent(&c);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn merge_preserves_semantics() {
        let mut c = Circuit::new(3);
        c.rz(0.2, 0)
            .rz(0.3, 0)
            .h(1)
            .h(1)
            .cx(0, 1)
            .ry(0.1, 2)
            .ry(0.2, 2)
            .cx(0, 1)
            .rx(0.5, 0);
        let m = merge_adjacent(&c);
        assert!(m.len() < c.len());
        let a = reference::run(&c);
        let b = reference::run(&m);
        assert!(max_deviation(&a, &b) < 1e-12);
    }

    #[test]
    fn barrier_blocks_merging() {
        let mut c = Circuit::new(1);
        c.rz(0.1, 0).barrier().rz(0.2, 0);
        let m = merge_adjacent(&c);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn prune_small_angles_removes_below_eps() {
        let mut c = Circuit::new(2);
        c.rz(1e-6, 0).cr1(1e-8, 0, 1).ry(0.5, 1).h(0);
        let (p, n) = prune_small_angles(&c, 1e-4);
        assert_eq!(n, 2);
        assert_eq!(p.len(), 2);
        // h is never pruned regardless of its lack of parameters.
        assert_eq!(p.count_kind(GateKind::H), 1);
    }

    #[test]
    fn prune_keeps_fidelity_high() {
        // A QFT-like ladder with geometrically shrinking angles: pruning
        // at 1e-5 must leave the state essentially unchanged.
        let mut c = Circuit::new(6);
        for i in 0..6u32 {
            c.h(i);
            for j in (i + 1)..6 {
                let angle = 2.0 * PI / f64::powi(2.0, (j - i + 1) as i32);
                c.cr1(angle * 1e-6, j, i); // artificially tiny angles
            }
        }
        let (pruned, n) = prune_small_angles(&c, 1e-4);
        assert!(n > 0);
        let a = reference::run(&c);
        let b = reference::run(&pruned);
        assert!(reference::fidelity(&a, &b) > 0.999_999);
    }

    #[test]
    fn full_pipeline_counts() {
        let mut c = Circuit::new(3);
        c.t(0).t(0).cz(0, 1).rz(1e-9, 2).h(2).h(2);
        let out = transpile(
            &c,
            TranspileOptions { decompose: true, merge: true, prune_eps: Some(1e-6) },
        );
        assert!(out.circuit.is_native());
        assert!(out.pruned >= 1);
        assert!(out.merged >= 1);
        // t·t lowers to rz(π/4)·rz(π/4) which merges to rz(π/2).
        let rz_gates: Vec<_> = out
            .circuit
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Rz)
            .collect();
        assert!(rz_gates.iter().any(|g| (g.params[0] - FRAC_PI_2).abs() < 1e-12));
    }

    #[test]
    fn transpile_preserves_measurements() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1).measure_all();
        let out = transpile(&c, TranspileOptions::default());
        assert_eq!(out.circuit.count_kind(GateKind::Measure), 2);
    }
}
