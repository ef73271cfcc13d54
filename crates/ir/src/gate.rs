//! Typed gate set.
//!
//! The paper's generator emits gate lists over `M = (h, ry, rz, cx, measure)`
//! (Eq. 8) and the QFT kernel adds `cr1` (Eq. 9). We support that set plus
//! the usual companions a transpiler needs as *input* (Paulis, phases, `u`,
//! `swap`, `cz`, `ccx`); the transpiler lowers everything onto the native
//! subset before kernel transformation.

use qgear_num::{gates, Mat2, Mat4, Scalar};

/// Identifies a gate operation without its operands — the "gate category"
/// dimension of the §2.1 tensor encoding. The discriminant values are the
/// stable on-disk tags used by both the tensor encoding and QPY-lite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum GateKind {
    /// Hadamard.
    H = 0,
    /// Rotation about Y (the QCrank data gate).
    Ry = 1,
    /// Rotation about Z.
    Rz = 2,
    /// Controlled-X entangler.
    Cx = 3,
    /// Terminal measurement of one qubit.
    Measure = 4,
    /// Rotation about X.
    Rx = 5,
    /// Pauli-X.
    X = 6,
    /// Pauli-Y.
    Y = 7,
    /// Pauli-Z.
    Z = 8,
    /// Phase gate `diag(1, e^{iλ})`.
    P = 9,
    /// S gate.
    S = 10,
    /// S-dagger.
    Sdg = 11,
    /// T gate.
    T = 12,
    /// T-dagger.
    Tdg = 13,
    /// General single-qubit `u(θ, φ, λ)`.
    U = 14,
    /// Controlled-Z.
    Cz = 15,
    /// Controlled-phase (the paper's `cr1`, Eq. 9).
    Cr1 = 16,
    /// Controlled-Ry.
    Cry = 17,
    /// Swap.
    Swap = 18,
    /// Toffoli.
    Ccx = 19,
    /// Scheduling barrier (no-op for simulation).
    Barrier = 20,
}

impl GateKind {
    /// All kinds, in tag order. Useful for exhaustive tests.
    pub const ALL: [GateKind; 21] = [
        GateKind::H,
        GateKind::Ry,
        GateKind::Rz,
        GateKind::Cx,
        GateKind::Measure,
        GateKind::Rx,
        GateKind::X,
        GateKind::Y,
        GateKind::Z,
        GateKind::P,
        GateKind::S,
        GateKind::Sdg,
        GateKind::T,
        GateKind::Tdg,
        GateKind::U,
        GateKind::Cz,
        GateKind::Cr1,
        GateKind::Cry,
        GateKind::Swap,
        GateKind::Ccx,
        GateKind::Barrier,
    ];

    /// Decode a stable tag back into a kind.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }

    /// Stable on-disk tag.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// Lower-case mnemonic matching Qiskit's naming.
    pub const fn name(self) -> &'static str {
        match self {
            GateKind::H => "h",
            GateKind::Ry => "ry",
            GateKind::Rz => "rz",
            GateKind::Cx => "cx",
            GateKind::Measure => "measure",
            GateKind::Rx => "rx",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::P => "p",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::U => "u",
            GateKind::Cz => "cz",
            GateKind::Cr1 => "cr1",
            GateKind::Cry => "cry",
            GateKind::Swap => "swap",
            GateKind::Ccx => "ccx",
            GateKind::Barrier => "barrier",
        }
    }

    /// Number of qubit operands.
    pub const fn arity(self) -> usize {
        match self {
            GateKind::Cx
            | GateKind::Cz
            | GateKind::Cr1
            | GateKind::Cry
            | GateKind::Swap => 2,
            GateKind::Ccx => 3,
            GateKind::Barrier => 0,
            _ => 1,
        }
    }

    /// Number of continuous parameters.
    const fn num_params(self) -> usize {
        match self {
            GateKind::Rx | GateKind::Ry | GateKind::Rz | GateKind::P => 1,
            GateKind::Cr1 | GateKind::Cry => 1,
            GateKind::U => 3,
            _ => 0,
        }
    }

    /// True for the native set Q-Gear kernels execute directly:
    /// `{h, rx, ry, rz, cx}` plus `measure`. Everything else must be lowered
    /// by the transpiler before kernel transformation.
    pub const fn is_native(self) -> bool {
        matches!(
            self,
            GateKind::H
                | GateKind::Rx
                | GateKind::Ry
                | GateKind::Rz
                | GateKind::Cx
                | GateKind::Measure
        )
    }

    /// True for non-Clifford parameterized kinds (the random-unitary
    /// benchmark of Fig. 4a is built from these plus `cx`).
    pub const fn is_parameterized(self) -> bool {
        self.num_params() > 0
    }
}

/// A gate instance: operation kind, qubit operands, and parameters.
///
/// Representation notes: operand order matters — for controlled gates the
/// *first* operand is the control. The struct is kept small (≤ 40 bytes) so
/// gate lists of 10⁵ entries (Table 1: max depth 98 000) stay cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Operation kind.
    pub kind: GateKind,
    /// Qubit operands; only the first `kind.arity()` entries are meaningful.
    pub qubits: [u32; 3],
    /// Continuous parameters; only the first `kind.num_params()` are
    /// meaningful. Always stored in f64 and narrowed at execution time.
    pub params: [f64; 3],
}

impl Gate {
    /// Construct a 0-operand gate (barrier).
    pub fn nullary(kind: GateKind) -> Self {
        debug_assert_eq!(kind.arity(), 0);
        Gate { kind, qubits: [0; 3], params: [0.0; 3] }
    }

    /// Construct a 1-qubit, parameterless gate.
    pub fn q1(kind: GateKind, q: u32) -> Self {
        debug_assert_eq!(kind.arity(), 1);
        debug_assert_eq!(kind.num_params(), 0);
        Gate { kind, qubits: [q, 0, 0], params: [0.0; 3] }
    }

    /// Construct a 1-qubit, 1-parameter gate.
    pub fn q1p1(kind: GateKind, q: u32, p: f64) -> Self {
        debug_assert_eq!(kind.arity(), 1);
        debug_assert_eq!(kind.num_params(), 1);
        Gate { kind, qubits: [q, 0, 0], params: [p, 0.0, 0.0] }
    }

    /// Construct the general `u(θ, φ, λ)` gate.
    pub fn u(q: u32, theta: f64, phi: f64, lambda: f64) -> Self {
        Gate { kind: GateKind::U, qubits: [q, 0, 0], params: [theta, phi, lambda] }
    }

    /// Construct a 2-qubit, parameterless gate (control first).
    pub fn q2(kind: GateKind, a: u32, b: u32) -> Self {
        debug_assert_eq!(kind.arity(), 2);
        debug_assert_eq!(kind.num_params(), 0);
        Gate { kind, qubits: [a, b, 0], params: [0.0; 3] }
    }

    /// Construct a 2-qubit, 1-parameter gate (control first).
    pub fn q2p1(kind: GateKind, a: u32, b: u32, p: f64) -> Self {
        debug_assert_eq!(kind.arity(), 2);
        debug_assert_eq!(kind.num_params(), 1);
        Gate { kind, qubits: [a, b, 0], params: [p, 0.0, 0.0] }
    }

    /// Construct a Toffoli gate (controls first).
    pub fn ccx(c0: u32, c1: u32, t: u32) -> Self {
        Gate { kind: GateKind::Ccx, qubits: [c0, c1, t], params: [0.0; 3] }
    }

    /// Construct a measurement of one qubit.
    pub fn measure(q: u32) -> Self {
        Gate { kind: GateKind::Measure, qubits: [q, 0, 0], params: [0.0; 3] }
    }

    /// The meaningful qubit operands.
    pub fn operands(&self) -> &[u32] {
        &self.qubits[..self.kind.arity()]
    }

    /// The meaningful parameters.
    pub fn parameters(&self) -> &[f64] {
        &self.params[..self.kind.num_params()]
    }

    /// True if simulation must touch the state vector (false for barriers
    /// and measurements, which are handled by the sampling layer).
    pub fn is_unitary_op(&self) -> bool {
        !matches!(self.kind, GateKind::Measure | GateKind::Barrier)
    }

    /// Dense 2×2 matrix for single-qubit unitaries, `None` otherwise.
    pub fn matrix2<T: Scalar>(&self) -> Option<Mat2<T>> {
        let p0 = T::from_f64(self.params[0]);
        Some(match self.kind {
            GateKind::H => gates::h(),
            GateKind::X => gates::x(),
            GateKind::Y => gates::y(),
            GateKind::Z => gates::z(),
            GateKind::S => gates::s(),
            GateKind::Sdg => gates::sdg(),
            GateKind::T => gates::t(),
            GateKind::Tdg => gates::tdg(),
            GateKind::Rx => gates::rx(p0),
            GateKind::Ry => gates::ry(p0),
            GateKind::Rz => gates::rz(p0),
            GateKind::P => gates::p(p0),
            GateKind::U => gates::u(
                p0,
                T::from_f64(self.params[1]),
                T::from_f64(self.params[2]),
            ),
            _ => return None,
        })
    }

    /// Dense 4×4 matrix for two-qubit unitaries (first operand on the high
    /// bit), `None` otherwise.
    pub fn matrix4<T: Scalar>(&self) -> Option<Mat4<T>> {
        let p0 = T::from_f64(self.params[0]);
        Some(match self.kind {
            GateKind::Cx => gates::cx(),
            GateKind::Cz => gates::cz(),
            GateKind::Cr1 => gates::cr1(p0),
            GateKind::Cry => gates::cry(p0),
            GateKind::Swap => gates::swap(),
            _ => return None,
        })
    }

    /// The inverse gate, used to build `U†U = I` verification circuits.
    /// Measurements and barriers are their own (trivial) inverse.
    pub fn inverse(&self) -> Gate {
        let mut g = *self;
        match self.kind {
            GateKind::S => g.kind = GateKind::Sdg,
            GateKind::Sdg => g.kind = GateKind::S,
            GateKind::T => g.kind = GateKind::Tdg,
            GateKind::Tdg => g.kind = GateKind::T,
            GateKind::Rx | GateKind::Ry | GateKind::Rz | GateKind::P | GateKind::Cr1
            | GateKind::Cry => {
                g.params[0] = -self.params[0];
            }
            GateKind::U => {
                // u(θ,φ,λ)⁻¹ = u(-θ, -λ, -φ)
                g.params = [-self.params[0], -self.params[2], -self.params[1]];
            }
            _ => {}
        }
        g
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind.name())?;
        if !self.parameters().is_empty() {
            write!(f, "(")?;
            for (i, p) in self.parameters().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p:.6}")?;
            }
            write!(f, ")")?;
        }
        for q in self.operands() {
            write!(f, " q{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_num::Mat2;

    #[test]
    fn tag_roundtrip_all_kinds() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(GateKind::from_tag(200), None);
    }

    #[test]
    fn eq8_set_matches_paper_order() {
        // Eq. 8 one-hot order: (h, ry, rz, cx, measure) with tags 0..4.
        let eq8 = [GateKind::H, GateKind::Ry, GateKind::Rz, GateKind::Cx, GateKind::Measure];
        for (i, kind) in eq8.iter().enumerate() {
            assert_eq!(kind.tag() as usize, i);
        }
    }

    #[test]
    fn arity_and_params_consistent() {
        assert_eq!(GateKind::Cx.arity(), 2);
        assert_eq!(GateKind::Ccx.arity(), 3);
        assert_eq!(GateKind::U.num_params(), 3);
        assert_eq!(GateKind::Cr1.num_params(), 1);
        assert_eq!(GateKind::Barrier.arity(), 0);
    }

    #[test]
    fn native_set() {
        for kind in [GateKind::H, GateKind::Rx, GateKind::Ry, GateKind::Rz, GateKind::Cx] {
            assert!(kind.is_native(), "{kind:?}");
        }
        for kind in [GateKind::Cz, GateKind::Swap, GateKind::T, GateKind::Ccx, GateKind::U] {
            assert!(!kind.is_native(), "{kind:?}");
        }
    }

    #[test]
    fn gate_matrices_exist_where_expected() {
        assert!(Gate::q1(GateKind::H, 0).matrix2::<f64>().is_some());
        assert!(Gate::q1(GateKind::H, 0).matrix4::<f64>().is_none());
        assert!(Gate::q2(GateKind::Cx, 0, 1).matrix4::<f64>().is_some());
        assert!(Gate::q2(GateKind::Cx, 0, 1).matrix2::<f64>().is_none());
        assert!(Gate::measure(0).matrix2::<f64>().is_none());
        assert!(Gate::measure(0).matrix4::<f64>().is_none());
    }

    #[test]
    fn inverse_cancels_single_qubit() {
        let cases = [
            Gate::q1p1(GateKind::Rx, 0, 0.8),
            Gate::q1p1(GateKind::Ry, 0, -1.3),
            Gate::q1p1(GateKind::Rz, 0, 2.2),
            Gate::q1p1(GateKind::P, 0, 0.4),
            Gate::u(0, 0.3, 1.1, -0.6),
            Gate::q1(GateKind::S, 0),
            Gate::q1(GateKind::T, 0),
            Gate::q1(GateKind::H, 0),
            Gate::q1(GateKind::X, 0),
        ];
        for g in cases {
            let u = g.matrix2::<f64>().unwrap();
            let v = g.inverse().matrix2::<f64>().unwrap();
            let prod = u.mul(&v);
            assert!(
                prod.max_deviation(&Mat2::identity()) < 1e-13,
                "inverse failed for {g}"
            );
        }
    }

    #[test]
    fn inverse_cancels_two_qubit() {
        let cases = [
            Gate::q2(GateKind::Cx, 0, 1),
            Gate::q2(GateKind::Cz, 0, 1),
            Gate::q2(GateKind::Swap, 0, 1),
            Gate::q2p1(GateKind::Cr1, 0, 1, 0.9),
            Gate::q2p1(GateKind::Cry, 0, 1, -0.5),
        ];
        for g in cases {
            let u = g.matrix4::<f64>().unwrap();
            let v = g.inverse().matrix4::<f64>().unwrap();
            let prod = u.mul(&v);
            assert!(
                prod.max_deviation(&qgear_num::Mat4::identity()) < 1e-13,
                "inverse failed for {g}"
            );
        }
    }

    #[test]
    fn operands_slice_length() {
        assert_eq!(Gate::q2(GateKind::Cx, 3, 7).operands(), &[3, 7]);
        assert_eq!(Gate::ccx(1, 2, 3).operands(), &[1, 2, 3]);
        assert_eq!(Gate::nullary(GateKind::Barrier).operands(), &[] as &[u32]);
    }

    #[test]
    fn display_format() {
        let g = Gate::q1p1(GateKind::Ry, 2, 1.5);
        assert_eq!(format!("{g}"), "ry(1.500000) q2");
        let cx = Gate::q2(GateKind::Cx, 0, 1);
        assert_eq!(format!("{cx}"), "cx q0 q1");
    }
}
