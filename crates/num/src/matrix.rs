//! Dense 2×2 and 4×4 complex matrices.
//!
//! These are the working currency of gate algebra: single-qubit gates are
//! [`Mat2`], two-qubit gates (and fused pairs of single-qubit gates on two
//! strands) are [`Mat4`]. The gate-fusion pass in `qgear-ir` multiplies
//! gates into these fixed-size matrices before the state-vector engines
//! apply them, exactly as CUDA-Q's fuser builds small dense blocks
//! (Appendix D.2: `gate fusion = 5`).

use crate::complex::Complex;
use crate::scalar::Scalar;

/// A 2×2 complex matrix, row-major: `m[row][col]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat2<T> {
    /// Row-major elements.
    pub m: [[Complex<T>; 2]; 2],
}

/// A 4×4 complex matrix, row-major: `m[row][col]`.
///
/// Basis ordering convention: index `b = 2*b_hi + b_lo` where `b_hi` is the
/// *first* qubit argument and `b_lo` the *second*. This matches the
/// little-endian state-vector convention used throughout the workspace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat4<T> {
    /// Row-major elements.
    pub m: [[Complex<T>; 4]; 4],
}

impl<T: Scalar> Mat2<T> {
    /// The 2×2 identity.
    pub fn identity() -> Self {
        let o = Complex::ONE;
        let z = Complex::ZERO;
        Mat2 { m: [[o, z], [z, o]] }
    }

    /// Construct from rows.
    pub const fn new(r0: [Complex<T>; 2], r1: [Complex<T>; 2]) -> Self {
        Mat2 { m: [r0, r1] }
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Self) -> Self {
        let mut out = [[Complex::ZERO; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = Complex::ZERO;
                for k in 0..2 {
                    acc = self.m[i][k].mul_add(rhs.m[k][j], acc);
                }
                *cell = acc;
            }
        }
        Mat2 { m: out }
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        let mut out = [[Complex::ZERO; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.m[j][i].conj();
            }
        }
        Mat2 { m: out }
    }

    /// True if `U†U ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: T) -> bool {
        let p = self.adjoint().mul(self);
        let id = Self::identity();
        for i in 0..2 {
            for j in 0..2 {
                if (p.m[i][j] - id.m[i][j]).norm() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Apply to a 2-vector of amplitudes (the core of single-qubit updates).
    #[inline(always)]
    pub fn apply(&self, a0: Complex<T>, a1: Complex<T>) -> (Complex<T>, Complex<T>) {
        (
            self.m[0][0].mul_add(a0, self.m[0][1] * a1),
            self.m[1][0].mul_add(a0, self.m[1][1] * a1),
        )
    }

    /// Kronecker product `self ⊗ rhs` (self acts on the high bit).
    pub fn kron(&self, rhs: &Self) -> Mat4<T> {
        let mut out = [[Complex::ZERO; 4]; 4];
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    for l in 0..2 {
                        out[2 * i + k][2 * j + l] = self.m[i][j] * rhs.m[k][l];
                    }
                }
            }
        }
        Mat4 { m: out }
    }

    /// Promote to a 4×4 controlled gate: applies `self` to the low bit when
    /// the high bit (control) is `|1⟩`.
    pub fn controlled(&self) -> Mat4<T> {
        let mut out = Mat4::identity();
        for i in 0..2 {
            for j in 0..2 {
                out.m[2 + i][2 + j] = self.m[i][j];
            }
        }
        out
    }

    /// Precision cast.
    pub fn cast<U: Scalar>(&self) -> Mat2<U> {
        let mut out = [[Complex::<U>::ZERO; 2]; 2];
        for (row_out, row) in out.iter_mut().zip(&self.m) {
            for (o, v) in row_out.iter_mut().zip(row) {
                *o = v.cast();
            }
        }
        Mat2 { m: out }
    }

    /// Maximum element-wise deviation from another matrix.
    pub fn max_deviation(&self, other: &Self) -> T {
        let mut d = T::ZERO;
        for i in 0..2 {
            for j in 0..2 {
                d = d.max((self.m[i][j] - other.m[i][j]).norm());
            }
        }
        d
    }
}

impl<T: Scalar> Mat4<T> {
    /// The 4×4 identity.
    pub fn identity() -> Self {
        let mut m = [[Complex::ZERO; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = Complex::ONE;
        }
        Mat4 { m }
    }

    /// Construct from rows.
    pub const fn new(rows: [[Complex<T>; 4]; 4]) -> Self {
        Mat4 { m: rows }
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Self) -> Self {
        let mut out = [[Complex::ZERO; 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = Complex::ZERO;
                for k in 0..4 {
                    acc = self.m[i][k].mul_add(rhs.m[k][j], acc);
                }
                *cell = acc;
            }
        }
        Mat4 { m: out }
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Self {
        let mut out = [[Complex::ZERO; 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.m[j][i].conj();
            }
        }
        Mat4 { m: out }
    }

    /// True if `U†U ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: T) -> bool {
        let p = self.adjoint().mul(self);
        let id = Self::identity();
        for i in 0..4 {
            for j in 0..4 {
                if (p.m[i][j] - id.m[i][j]).norm() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Apply to a 4-vector of amplitudes (the core of two-qubit updates).
    #[inline(always)]
    pub fn apply(&self, a: [Complex<T>; 4]) -> [Complex<T>; 4] {
        let mut out = [Complex::ZERO; 4];
        for (i, o) in out.iter_mut().enumerate() {
            let r = &self.m[i];
            let mut acc = r[0] * a[0];
            acc = r[1].mul_add(a[1], acc);
            acc = r[2].mul_add(a[2], acc);
            acc = r[3].mul_add(a[3], acc);
            *o = acc;
        }
        out
    }

    /// Swap the roles of the high and low qubit: `P·U·P` with `P` the basis
    /// permutation exchanging bits. Used when the fuser canonicalizes qubit
    /// ordering inside a fused block.
    pub fn swapped(&self) -> Self {
        const PERM: [usize; 4] = [0, 2, 1, 3];
        let mut out = [[Complex::ZERO; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                out[PERM[i]][PERM[j]] = self.m[i][j];
            }
        }
        Mat4 { m: out }
    }

    /// Precision cast.
    pub fn cast<U: Scalar>(&self) -> Mat4<U> {
        let mut out = [[Complex::<U>::ZERO; 4]; 4];
        for (row_out, row) in out.iter_mut().zip(&self.m) {
            for (o, v) in row_out.iter_mut().zip(row) {
                *o = v.cast();
            }
        }
        Mat4 { m: out }
    }

    /// Maximum element-wise deviation from another matrix.
    pub fn max_deviation(&self, other: &Self) -> T {
        let mut d = T::ZERO;
        for i in 0..4 {
            for j in 0..4 {
                d = d.max((self.m[i][j] - other.m[i][j]).norm());
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    type M2 = Mat2<f64>;
    type M4 = Mat4<f64>;

    #[test]
    fn identity_is_unitary() {
        assert!(M2::identity().is_unitary(1e-14));
        assert!(M4::identity().is_unitary(1e-14));
    }

    #[test]
    fn mat2_mul_identity() {
        let h = gates::h::<f64>();
        assert_eq!(h.mul(&M2::identity()).max_deviation(&h), 0.0);
        assert_eq!(M2::identity().mul(&h).max_deviation(&h), 0.0);
    }

    #[test]
    fn hadamard_squared_is_identity() {
        let h = gates::h::<f64>();
        let hh = h.mul(&h);
        assert!(hh.max_deviation(&M2::identity()) < 1e-15);
    }

    #[test]
    fn adjoint_of_unitary_is_inverse() {
        let u = gates::ry::<f64>(0.7).mul(&gates::rz(1.1)).mul(&gates::h());
        let p = u.mul(&u.adjoint());
        assert!(p.max_deviation(&M2::identity()) < 1e-14);
    }

    #[test]
    fn kron_structure() {
        let x = gates::x::<f64>();
        let id = M2::identity();
        // X ⊗ I flips the high bit: |00⟩ -> |10⟩ means column 0 has a 1 at row 2.
        let k = x.kron(&id);
        assert_eq!(k.m[2][0], Complex::ONE);
        assert_eq!(k.m[3][1], Complex::ONE);
        assert_eq!(k.m[0][2], Complex::ONE);
        assert_eq!(k.m[1][3], Complex::ONE);
    }

    #[test]
    fn controlled_x_is_cx() {
        let cx = gates::x::<f64>().controlled();
        let expected = gates::cx::<f64>();
        assert!(cx.max_deviation(&expected) < 1e-15);
    }

    #[test]
    fn mat4_apply_matches_mul() {
        let u = gates::cx::<f64>();
        let v = [
            Complex::new(0.1, 0.2),
            Complex::new(0.3, -0.1),
            Complex::new(-0.2, 0.5),
            Complex::new(0.4, 0.0),
        ];
        let w = u.apply(v);
        // CX (control = high bit) swaps rows 2 and 3.
        assert_eq!(w[0], v[0]);
        assert_eq!(w[1], v[1]);
        assert_eq!(w[2], v[3]);
        assert_eq!(w[3], v[2]);
    }

    #[test]
    fn swapped_cx_reverses_control_target() {
        let cx = gates::cx::<f64>(); // control = high, target = low
        let xc = cx.swapped(); // control = low, target = high
        // |01⟩ (high=0, low=1) -> |11⟩ under xc: column 1 row 3.
        assert_eq!(xc.m[3][1], Complex::ONE);
        assert_eq!(xc.m[1][3], Complex::ONE);
        assert_eq!(xc.m[0][0], Complex::ONE);
        assert_eq!(xc.m[2][2], Complex::ONE);
        assert!(xc.is_unitary(1e-14));
    }

    #[test]
    fn cast_to_f32_and_back_preserves_structure() {
        let u = gates::ry::<f64>(1.234);
        let v: Mat2<f64> = u.cast::<f32>().cast();
        assert!(u.max_deviation(&v) < 1e-6);
    }
}
