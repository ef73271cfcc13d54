//! Complex scalar used for state-vector amplitudes.
//!
//! A deliberately small implementation: the simulators only need
//! multiply/add/conjugate/norm plus `e^{iθ}` construction, and owning the
//! type keeps the memory layout (`repr(C)`, re then im) explicit for the
//! SoA/AoS storage experiments in `qgear-statevec`.

use crate::scalar::Scalar;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over a real scalar `T` (`f32` or `f64`).
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

impl<T: Scalar> Complex<T> {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Self = Complex { re: T::ZERO, im: T::ZERO };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Self = Complex { re: T::ONE, im: T::ZERO };
    /// The imaginary unit `0 + 1i`.
    pub const I: Self = Complex { re: T::ZERO, im: T::ONE };

    /// Construct from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }

    /// Construct a purely real value.
    #[inline(always)]
    pub fn from_re(re: T) -> Self {
        Complex { re, im: T::ZERO }
    }

    /// The unit phase `e^{iθ} = cos θ + i sin θ`.
    #[inline(always)]
    pub fn cis(theta: T) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }

    /// Squared magnitude `|z|² = re² + im²`. This is the measurement
    /// probability weight of an amplitude (Born rule, Eq. 1 normalization).
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re.mul_add(self.re, self.im * self.im)
    }

    /// Magnitude `|z|`.
    #[inline(always)]
    pub fn norm(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline(always)]
    pub fn arg(self) -> T {
        self.im.atan2(self.re)
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, k: T) -> Self {
        Complex { re: self.re * k, im: self.im * k }
    }

    /// Fused multiply-add `self * a + b`, the inner operation of every gate
    /// kernel. Uses hardware FMA on both components.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Complex {
            re: self.re.mul_add(a.re, (-self.im).mul_add(a.im, b.re)),
            im: self.re.mul_add(a.im, self.im.mul_add(a.re, b.im)),
        }
    }

    /// Multiplicative inverse `1/z`. Panics in debug builds if `z == 0`.
    #[inline]
    fn recip(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > T::ZERO, "division by zero complex");
        Complex { re: self.re / d, im: -self.im / d }
    }

    /// Lossless (or narrowing) precision conversion.
    #[inline(always)]
    pub fn cast<U: Scalar>(self) -> Complex<U> {
        Complex { re: U::from_f64(self.re.to_f64()), im: U::from_f64(self.im.to_f64()) }
    }

    /// True if both components are finite.
    #[inline(always)]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl<T: Scalar> Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl<T: Scalar> Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl<T: Scalar> Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Complex {
            re: self.re.mul_add(rhs.re, -(self.im * rhs.im)),
            im: self.re.mul_add(rhs.im, self.im * rhs.re),
        }
    }
}

impl<T: Scalar> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: Scalar> Div for Complex<T> {
    type Output = Self;
    #[inline(always)]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w computed as z * w^-1
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl<T: Scalar> Neg for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Complex { re: -self.re, im: -self.im }
    }
}

impl<T: Scalar> AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Scalar> SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Scalar> MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Scalar> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl<T: fmt::Debug> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl<T: fmt::Display> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq_c;

    type C = Complex<f64>;

    #[test]
    fn basic_arithmetic() {
        let a = C::new(1.0, 2.0);
        let b = C::new(3.0, -1.0);
        assert_eq!(a + b, C::new(4.0, 1.0));
        assert_eq!(a - b, C::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, C::new(5.0, 5.0));
    }

    #[test]
    fn conj_and_norm() {
        let a = C::new(3.0, 4.0);
        assert_eq!(a.conj(), C::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let theta = k as f64 * 0.5;
            let z = C::cis(theta);
            assert!((z.norm() - 1.0).abs() < 1e-14);
            assert!((z.arg() - theta.sin().atan2(theta.cos())).abs() < 1e-14);
        }
    }

    #[test]
    fn recip_inverts() {
        let a = C::new(2.0, -7.0);
        let r = a * a.recip();
        assert!(approx_eq_c(r, C::ONE, 1e-14));
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = C::new(0.3, -0.4);
        let b = C::new(-1.5, 0.2);
        let c = C::new(0.7, 0.9);
        let fused = a.mul_add(b, c);
        let separate = a * b + c;
        assert!(approx_eq_c(fused, separate, 1e-14));
    }

    #[test]
    fn division() {
        let a = C::new(5.0, 5.0);
        let b = C::new(3.0, -1.0);
        // a / b should recover (1+2i) from the multiplication test.
        let q = a / b;
        assert!(approx_eq_c(q, C::new(1.0, 2.0), 1e-12));
    }

    #[test]
    fn cast_roundtrip_through_f32_loses_little() {
        let a = C::new(0.125, -0.25); // exactly representable in f32
        let b: Complex<f32> = a.cast();
        let c: Complex<f64> = b.cast();
        assert_eq!(a, c);
    }

    #[test]
    fn sum_of_zero_iter_is_zero() {
        let v: Vec<C> = vec![];
        let s: C = v.into_iter().sum();
        assert_eq!(s, C::ZERO);
    }
}
