//! Portable SIMD lane wrappers for the state-vector hot path.
//!
//! The kernels in `qgear-statevec` process amplitudes in lanes of
//! [`Scalar::LANES`] consecutive complex values: `f64x4` (4 × f64 re + 4 ×
//! f64 im, one 256-bit vector each) and `f32x8`. The wrappers are plain
//! `repr(C, align(32))` arrays with element-wise loops — on any target with
//! vector units the loops compile to packed instructions (the workspace
//! builds with `target-cpu=native`, see `.cargo/config.toml`), and on targets
//! without them they lower to scalar code with identical results.
//!
//! # Bit-identity contract
//!
//! Every lane operation applies *exactly* the scalar formula from
//! [`Complex`] to each lane: [`CLanes::mul`] replicates
//! [`Complex::mul`](crate::Complex) (`re = re·b.re ⊖ im·b.im` with the same
//! `mul_add` fusion) and [`CLanes::mul_add`] replicates `Complex::mul_add`.
//! A fused multiply-add is a single correctly-rounded operation whether it
//! executes as a scalar `vfmadd` instruction, a packed one, or a libm call,
//! so the vector kernels produce **bitwise identical** results to the scalar
//! reference in both precisions. `tests/differential.rs` enforces this by
//! running every structure-class kernel with SIMD enabled and disabled and
//! comparing amplitudes bit for bit.

use crate::complex::Complex;
use crate::scalar::Scalar;

/// A lane vector of complex numbers in split (deinterleaved) layout.
///
/// `Scalar::Lanes` picks the concrete type per precision: [`C64x4`] for
/// `f64`, [`C32x8`] for `f32`. Kernels step their loops by [`Self::LANES`]
/// complex amplitudes and fall back to the scalar path for the remainder
/// (the "tail lanes" covered by the differential tier).
pub trait CLanes<T: Scalar>: Copy + Send + Sync {
    /// Number of complex values per lane vector (4 for f64, 8 for f32).
    const LANES: usize;
    /// Human-readable lane label used by the `kernel.simd.*` telemetry
    /// counters ("f64x4" / "f32x8").
    const LANE_NAME: &'static str;

    /// Broadcast one complex value into every lane.
    fn splat(v: Complex<T>) -> Self;
    /// Load `LANES` consecutive complex values from `src[at..at + LANES]`.
    fn load(src: &[Complex<T>], at: usize) -> Self;
    /// Store the lanes to `dst[at..at + LANES]`.
    fn store(self, dst: &mut [Complex<T>], at: usize);
    /// Fill lane `l` with `f(l)` — the gather constructor used by the
    /// diagonal kernels' table lookups.
    fn from_fn(f: impl FnMut(usize) -> Complex<T>) -> Self;
    /// The value in lane `l` — the scatter counterpart of [`Self::from_fn`].
    fn lane(self, l: usize) -> Complex<T>;
    /// Load `LANES` consecutive complex values starting at `ptr`.
    ///
    /// # Safety
    /// `ptr..ptr + LANES` must be valid, initialized complex values not
    /// concurrently written by another thread.
    unsafe fn load_ptr(ptr: *const Complex<T>) -> Self;
    /// Store the lanes to `LANES` consecutive slots starting at `ptr`.
    ///
    /// # Safety
    /// `ptr..ptr + LANES` must be valid and uniquely owned by the caller
    /// for the duration of the store.
    unsafe fn store_ptr(self, ptr: *mut Complex<T>);
    /// Lane-wise complex multiply, each lane computed by the exact
    /// `Complex::mul` formula.
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise fused `self * a + b`, each lane computed by the exact
    /// `Complex::mul_add` formula.
    fn mul_add(self, a: Self, b: Self) -> Self;
}

macro_rules! impl_clanes {
    ($cname:ident, $t:ty, $lanes:expr, $label:expr) => {
        #[doc = concat!("Lane vector of complex `", stringify!($t), "` values (`", $label, "`) in split re/im layout.")]
        #[derive(Debug, Clone, Copy)]
        #[repr(C, align(32))]
        pub struct $cname {
            re: [$t; $lanes],
            im: [$t; $lanes],
        }

        impl CLanes<$t> for $cname {
            const LANES: usize = $lanes;
            const LANE_NAME: &'static str = $label;

            #[inline(always)]
            fn splat(v: Complex<$t>) -> Self {
                Self { re: [v.re; $lanes], im: [v.im; $lanes] }
            }

            #[inline(always)]
            fn load(src: &[Complex<$t>], at: usize) -> Self {
                let s = &src[at..at + $lanes];
                let mut re = [0.0; $lanes];
                let mut im = [0.0; $lanes];
                for l in 0..$lanes {
                    re[l] = s[l].re;
                    im[l] = s[l].im;
                }
                Self { re, im }
            }

            #[inline(always)]
            fn store(self, dst: &mut [Complex<$t>], at: usize) {
                let d = &mut dst[at..at + $lanes];
                for l in 0..$lanes {
                    d[l].re = self.re[l];
                    d[l].im = self.im[l];
                }
            }

            #[inline(always)]
            fn from_fn(mut f: impl FnMut(usize) -> Complex<$t>) -> Self {
                let mut re = [0.0; $lanes];
                let mut im = [0.0; $lanes];
                for l in 0..$lanes {
                    let v = f(l);
                    re[l] = v.re;
                    im[l] = v.im;
                }
                Self { re, im }
            }

            #[inline(always)]
            fn lane(self, l: usize) -> Complex<$t> {
                Complex::new(self.re[l], self.im[l])
            }

            #[inline(always)]
            unsafe fn load_ptr(ptr: *const Complex<$t>) -> Self {
                // SAFETY: forwarded to the caller — the slice view exists
                // only for this load.
                Self::load(unsafe { std::slice::from_raw_parts(ptr, $lanes) }, 0)
            }

            #[inline(always)]
            unsafe fn store_ptr(self, ptr: *mut Complex<$t>) {
                // SAFETY: forwarded to the caller.
                self.store(unsafe { std::slice::from_raw_parts_mut(ptr, $lanes) }, 0)
            }

            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                // Per lane: exactly Complex::mul —
                //   re = re·b.re ⊕fma −(im·b.im)
                //   im = re·b.im ⊕fma  (im·b.re)
                let mut re = [0.0; $lanes];
                let mut im = [0.0; $lanes];
                for l in 0..$lanes {
                    re[l] = self.re[l].mul_add(rhs.re[l], -(self.im[l] * rhs.im[l]));
                    im[l] = self.re[l].mul_add(rhs.im[l], self.im[l] * rhs.re[l]);
                }
                Self { re, im }
            }

            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                // Per lane: exactly Complex::mul_add —
                //   re = self.re·a.re + (−self.im)·a.im + b.re   (nested fma)
                //   im = self.re·a.im +   self.im·a.re + b.im    (nested fma)
                let mut re = [0.0; $lanes];
                let mut im = [0.0; $lanes];
                for l in 0..$lanes {
                    re[l] = self.re[l].mul_add(a.re[l], (-self.im[l]).mul_add(a.im[l], b.re[l]));
                    im[l] = self.re[l].mul_add(a.im[l], self.im[l].mul_add(a.re[l], b.im[l]));
                }
                Self { re, im }
            }
        }
    };
}

impl_clanes!(C64x4, f64, 4, "f64x4");
impl_clanes!(C32x8, f32, 8, "f32x8");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    fn sample(n: usize, seed: u64) -> Vec<C64> {
        // splitmix64-style deterministic fill.
        let mut s = seed;
        (0..n)
            .map(|_| {
                let mut next = || {
                    s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = s;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                let r = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                let i = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                Complex::new(r, i)
            })
            .collect()
    }

    #[test]
    fn load_store_roundtrip() {
        let src = sample(8, 1);
        let mut dst = vec![C64::ZERO; 8];
        C64x4::load(&src, 0).store(&mut dst, 0);
        C64x4::load(&src, 4).store(&mut dst, 4);
        assert_eq!(src, dst);
    }

    #[test]
    fn lane_mul_is_bitwise_identical_to_scalar_mul() {
        let a = sample(4, 2);
        let b = sample(4, 3);
        let mut out = vec![C64::ZERO; 4];
        C64x4::load(&a, 0).mul(C64x4::load(&b, 0)).store(&mut out, 0);
        for l in 0..4 {
            let expect = a[l] * b[l];
            assert_eq!(out[l].re.to_bits(), expect.re.to_bits());
            assert_eq!(out[l].im.to_bits(), expect.im.to_bits());
        }
    }

    #[test]
    fn lane_mul_add_is_bitwise_identical_to_scalar_mul_add() {
        let m = sample(4, 4);
        let a = sample(4, 5);
        let b = sample(4, 6);
        let mut out = vec![C64::ZERO; 4];
        C64x4::load(&m, 0)
            .mul_add(C64x4::load(&a, 0), C64x4::load(&b, 0))
            .store(&mut out, 0);
        for l in 0..4 {
            let expect = m[l].mul_add(a[l], b[l]);
            assert_eq!(out[l].re.to_bits(), expect.re.to_bits());
            assert_eq!(out[l].im.to_bits(), expect.im.to_bits());
        }
    }

    #[test]
    fn f32_lanes_match_scalar_bitwise_too() {
        let a: Vec<Complex<f32>> = sample(8, 7).iter().map(|c| c.cast()).collect();
        let b: Vec<Complex<f32>> = sample(8, 8).iter().map(|c| c.cast()).collect();
        let mut out = vec![Complex::<f32>::ZERO; 8];
        C32x8::load(&a, 0).mul(C32x8::load(&b, 0)).store(&mut out, 0);
        for l in 0..8 {
            let expect = a[l] * b[l];
            assert_eq!(out[l].re.to_bits(), expect.re.to_bits());
            assert_eq!(out[l].im.to_bits(), expect.im.to_bits());
        }
    }

    #[test]
    fn lane_reads_back_what_from_fn_put() {
        let src = sample(4, 9);
        let v = C64x4::from_fn(|l| src[l]);
        for (l, &want) in src.iter().enumerate() {
            assert_eq!(v.lane(l), want);
        }
    }

    #[test]
    fn splat_fills_every_lane() {
        let v = Complex::new(0.25f64, -1.5);
        let mut out = vec![C64::ZERO; 4];
        C64x4::splat(v).store(&mut out, 0);
        assert!(out.iter().all(|&c| c == v));
    }
}
