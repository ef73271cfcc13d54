//! Precision abstraction over `f32` and `f64`.
//!
//! The paper evaluates both `fp32` and `fp64` simulations (Table 1). Every
//! state-vector engine in this workspace is generic over [`Scalar`], so a
//! single kernel implementation serves both precisions — mirroring how
//! CUDA-Q selects precision by target configuration rather than by code
//! duplication.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real floating-point scalar usable as the component type of state-vector
/// amplitudes.
///
/// Implemented for `f32` and `f64` only. The associated constants expose the
/// properties the simulators and the performance model need (machine epsilon
/// for tolerance checks, byte width for memory-capacity accounting and as
/// the precision tag a checkpoint carries).
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// One half, used by measurement probabilities.
    const HALF: Self;
    /// Machine epsilon of the representation.
    const EPSILON: Self;
    /// π in this precision.
    const PI: Self;
    /// Width of one real component in bytes (4 for `fp32`, 8 for `fp64`).
    const BYTES: usize;
    /// Human-readable precision label matching the paper's tables.
    const PRECISION_NAME: &'static str;
    /// Complex amplitudes processed per SIMD lane vector (4 for `fp64`,
    /// 8 for `fp32`); equals `<Self::Lanes as CLanes<Self>>::LANES`.
    const LANES: usize;

    /// The complex SIMD lane vector for this precision
    /// ([`C64x4`](crate::simd::C64x4) / [`C32x8`](crate::simd::C32x8)).
    /// Kernels in `qgear-statevec` use it to process `LANES` amplitudes per
    /// step with bitwise-identical results to the scalar path (see
    /// [`crate::simd`]).
    type Lanes: crate::simd::CLanes<Self>;

    /// Lossy conversion from `f64` (identity for `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (identity for `f64`).
    fn to_f64(self) -> f64;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Simultaneous sine and cosine.
    fn sin_cos(self) -> (Self, Self);
    /// Four-quadrant arctangent `atan2(self, other)`.
    fn atan2(self, other: Self) -> Self;
    /// Fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Largest of two values (NaN-propagating like `f64::max` is fine here).
    fn max(self, other: Self) -> Self;
    /// Smallest of two values.
    fn min(self, other: Self) -> Self;
    /// True if the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;
    /// Write the value's little-endian bytes into `dst` (`BYTES` long):
    /// the bit-exact route into a checkpoint's amplitude dataset.
    fn write_le(self, dst: &mut [u8]);
    /// Read a value back from its `BYTES` little-endian bytes.
    fn read_le(src: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($t:ty, $bytes:expr, $name:expr, $lanes:ty, $nlanes:expr) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const HALF: Self = 0.5;
            const EPSILON: Self = <$t>::EPSILON;
            const PI: Self = std::f64::consts::PI as $t;
            const BYTES: usize = $bytes;
            const PRECISION_NAME: &'static str = $name;
            const LANES: usize = $nlanes;

            type Lanes = $lanes;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn sin(self) -> Self {
                self.sin()
            }
            #[inline(always)]
            fn cos(self) -> Self {
                self.cos()
            }
            #[inline(always)]
            fn sin_cos(self) -> (Self, Self) {
                self.sin_cos()
            }
            #[inline(always)]
            fn atan2(self, other: Self) -> Self {
                self.atan2(other)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline(always)]
            fn write_le(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn read_le(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src.try_into().expect("one component wide"))
            }
        }
    };
}

impl_scalar!(f32, 4, "fp32", crate::simd::C32x8, 8);
impl_scalar!(f64, 8, "fp64", crate::simd::C64x4, 4);

/// Simulation precision selector, mirroring the CUDA-Q target option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Single precision: 8 bytes per complex amplitude. The paper's default
    /// for the large GPU runs (Fig. 4a/4b use fp32).
    #[default]
    Fp32,
    /// Double precision: 16 bytes per complex amplitude. Used by the QCrank
    /// image-encoding experiments (Fig. 5, Table 1).
    Fp64,
}

impl Precision {
    /// Bytes occupied by a single complex amplitude at this precision.
    pub const fn bytes_per_amplitude(self) -> usize {
        match self {
            Precision::Fp32 => 8,
            Precision::Fp64 => 16,
        }
    }

    /// Label matching the paper's tables ("fp32" / "fp64").
    pub const fn name(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Fp64 => "fp64",
        }
    }

    /// Parse a precision label; accepts the paper's spellings.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fp32" | "f32" | "single" => Some(Precision::Fp32),
            "fp64" | "f64" | "double" => Some(Precision::Fp64),
            _ => None,
        }
    }

    /// Total state-vector bytes for an `n`-qubit register at this precision.
    ///
    /// Returns `None` if `2^n` amplitudes overflow a `u128` byte count
    /// (irrelevant in practice, but the memory-capacity model uses the
    /// checked form to stay total).
    pub fn state_bytes(self, num_qubits: u32) -> Option<u128> {
        let amps = 1u128.checked_shl(num_qubits)?;
        amps.checked_mul(self.bytes_per_amplitude() as u128)
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_constants_match_precision() {
        assert_eq!(<f32 as Scalar>::BYTES, 4);
        assert_eq!(<f64 as Scalar>::BYTES, 8);
        assert_eq!(<f32 as Scalar>::PRECISION_NAME, "fp32");
        assert_eq!(<f64 as Scalar>::PRECISION_NAME, "fp64");
    }

    #[test]
    fn from_to_f64_roundtrip_f64() {
        let v = 0.123456789012345_f64;
        assert_eq!(<f64 as Scalar>::from_f64(v), v);
        assert_eq!(v.to_f64(), v);
    }

    #[test]
    fn from_f64_narrows_for_f32() {
        let v = 0.1f64;
        let w = <f32 as Scalar>::from_f64(v);
        assert!((w.to_f64() - v).abs() < 1e-7);
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Fp32.bytes_per_amplitude(), 8);
        assert_eq!(Precision::Fp64.bytes_per_amplitude(), 16);
    }

    #[test]
    fn precision_state_bytes_small() {
        // 10 qubits, fp32: 1024 amplitudes * 8 bytes.
        assert_eq!(Precision::Fp32.state_bytes(10), Some(8192));
        // 34 qubits fp64 = 2^34 * 16 = 256 GiB; the CPU-node capacity edge in Fig 4a.
        assert_eq!(
            Precision::Fp64.state_bytes(34),
            Some((1u128 << 34) * 16)
        );
    }

    #[test]
    fn precision_parse() {
        assert_eq!(Precision::parse("fp32"), Some(Precision::Fp32));
        assert_eq!(Precision::parse("DOUBLE"), Some(Precision::Fp64));
        assert_eq!(Precision::parse("bf16"), None);
    }

    #[test]
    fn sin_cos_agree() {
        for &x in &[0.0f64, 0.5, 1.0, -2.0, 3.25] {
            let (s, c) = Scalar::sin_cos(x);
            assert!((s - x.sin()).abs() < 1e-15);
            assert!((c - x.cos()).abs() < 1e-15);
        }
    }
}
