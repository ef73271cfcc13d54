//! SIMD lane wrappers for the state-vector hot path.
//!
//! The kernels in `qgear-statevec` process amplitudes in lanes of
//! [`Scalar::LANES`] consecutive complex values: `f64x4` (4 × f64 re + 4 ×
//! f64 im, one 256-bit vector each) and `f32x8`. On x86-64 with AVX2 and
//! FMA — the workspace builds with `target-cpu=native`, see
//! `.cargo/config.toml` — each wrapper is a pair of `__m256d` / `__m256`
//! registers and every operation is packed: `load` is two vector loads
//! and two deinterleave shuffles, `mul_add` four fused multiply-adds.
//! Everywhere else the wrappers are plain arrays with element-wise loops.
//! Those loops are *not* reliably vectorized — built that way, the
//! release kernels held 328 `vfmadd231sd` and 306 `vfmadd231ss` sites
//! against 34 `vfmadd231pd` and 30 `vfmadd231ps` on `ymm` — so they are the
//! portable fallback and nothing more (docs/PIPELINE.md § 5, "Registers,
//! four rows in flight").
//!
//! # Bit-identity contract
//!
//! Every lane operation applies *exactly* the scalar formula from
//! [`Complex`] to each lane: [`CLanes::mul`] replicates
//! [`Complex::mul`](crate::Complex) (`re = re·b.re ⊖ im·b.im` with the same
//! `mul_add` fusion) and [`CLanes::mul_add`] replicates `Complex::mul_add`.
//! A fused multiply-add is a single correctly-rounded operation whether it
//! executes as a scalar `vfmadd` instruction, a packed one, or a libm call,
//! and negating one factor of the exact product inside it (`fnmadd`,
//! `fmsub`) is exact too, so the vector kernels produce **bitwise
//! identical** results to the scalar reference in both precisions. The
//! unit tests below hold every operation to the scalar formula lane by
//! lane, and `tests/differential.rs` runs every structure-class kernel
//! with SIMD enabled and disabled and compares amplitudes bit for bit.

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
    /// Exchange lane bit `bit` with the pair index: the first output takes
    /// the lanes of both inputs that have `bit` clear, the second those
    /// that have it set, each in lane order with `self`'s before
    /// `other`'s. Lane `l` of the first output is lane `l` of `self` where
    /// `l` has `bit` clear and lane `l ^ (1 << bit)` of `other` where it
    /// is set, and the second output is the mirror. Two vectors loaded
    /// from addresses that differ in one bit `h` come out split on address
    /// bit `bit` instead, their lane bit `bit` now standing for `h`; the
    /// operation is its own inverse, so the same call merges them back.
    /// Pure data movement, one shuffle network per bit.
    fn split(self, other: Self, bit: usize) -> (Self, Self);
    /// Lane-wise complex multiply, each lane computed by the exact
    /// `Complex::mul` formula.
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise fused `self * a + b`, each lane computed by the exact
    /// `Complex::mul_add` formula.
    fn mul_add(self, a: Self, b: Self) -> Self;
}

/// The AVX2 + FMA lane types: two registers per vector, re and im.
///
/// `load` splits the interleaved `(re, im)` pairs with one shuffle per
/// register and leaves the lanes in the order that shuffle produces —
/// not memory order — and `store` is its exact inverse. Every operation
/// is lane-wise, and `split` takes, for each memory lane bit, the shuffle pair of the
/// register bit that lane bit landed on, so the register order is never
/// observable: lane `l` is amplitude `at + l` to every caller.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
macro_rules! impl_clanes_avx {
    ($cname:ident, $t:ty, $lanes:expr, $label:expr, $v:ty {
        set1: $set1:path, loadu: $loadu:path, storeu: $storeu:path, mul: $mulv:path,
        fmadd: $fmadd:path, fnmadd: $fnmadd:path, fmsub: $fmsub:path,
        re_of: $re_of:expr, im_of: $im_of:expr, lo: $lo:path, hi: $hi:path,
        split: { $($bit:literal => $split_lo:expr, $split_hi:expr;)+ } $(,)?
    }) => {
        #[doc = concat!("Lane vector of complex `", stringify!($t), "` values (`", $label, "`): one AVX register of re parts, one of im parts.")]
        #[derive(Debug, Clone, Copy)]
        pub struct $cname {
            re: $v,
            im: $v,
        }

        impl CLanes<$t> for $cname {
            const LANES: usize = $lanes;
            const LANE_NAME: &'static str = $label;

            #[inline(always)]
            fn splat(v: Complex<$t>) -> Self {
                // SAFETY: register-only intrinsics; the cfg on this impl
                // guarantees the build target has AVX2 and FMA.
                unsafe { Self { re: $set1(v.re), im: $set1(v.im) } }
            }

            #[inline(always)]
            fn load(src: &[Complex<$t>], at: usize) -> Self {
                let s = &src[at..at + $lanes];
                let p = s.as_ptr().cast::<$t>();
                // SAFETY: `s` is `2 × LANES` initialized scalars (`Complex`
                // is `repr(C)`, re then im), read as two unaligned
                // `LANES`-wide vectors; the rest is register-only, on a
                // target with AVX2 and FMA.
                unsafe {
                    let (a, b) = ($loadu(p), $loadu(p.add($lanes)));
                    Self { re: $re_of(a, b), im: $im_of(a, b) }
                }
            }

            #[inline(always)]
            fn store(self, dst: &mut [Complex<$t>], at: usize) {
                let d = &mut dst[at..at + $lanes];
                let p = d.as_mut_ptr().cast::<$t>();
                // SAFETY: `d` is `2 × LANES` scalars borrowed mutably,
                // written as two unaligned vectors that re-interleave
                // exactly what `load` split; AVX2 and FMA as above.
                unsafe {
                    $storeu(p, $lo(self.re, self.im));
                    $storeu(p.add($lanes), $hi(self.re, self.im));
                }
            }

            #[inline(always)]
            fn split(self, other: Self, bit: usize) -> (Self, Self) {
                // SAFETY: register-only intrinsics on an AVX2 + FMA target.
                unsafe {
                    match bit {
                        $($bit => {
                            let (lo, hi) = ($split_lo, $split_hi);
                            (
                                Self { re: lo(self.re, other.re), im: lo(self.im, other.im) },
                                Self { re: hi(self.re, other.re), im: hi(self.im, other.im) },
                            )
                        })+
                        _ => panic!("no lane bit {bit} in {} lanes", $lanes),
                    }
                }
            }

            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                // Per lane: exactly Complex::mul —
                //   re = fma(re, b.re, −(im·b.im)) = fmsub(re, b.re, im·b.im)
                //   im = fma(re, b.im,   im·b.re)
                // SAFETY: register-only intrinsics on an AVX2 + FMA target.
                unsafe {
                    Self {
                        re: $fmsub(self.re, rhs.re, $mulv(self.im, rhs.im)),
                        im: $fmadd(self.re, rhs.im, $mulv(self.im, rhs.re)),
                    }
                }
            }

            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                // Per lane: exactly Complex::mul_add —
                //   re = fma(re, a.re, fma(−im, a.im, b.re)) = fmadd(re, a.re, fnmadd(im, a.im, b.re))
                //   im = fma(re, a.im, fma( im, a.re, b.im))
                // SAFETY: register-only intrinsics on an AVX2 + FMA target.
                unsafe {
                    Self {
                        re: $fmadd(self.re, a.re, $fnmadd(self.im, a.im, b.re)),
                        im: $fmadd(self.re, a.im, $fmadd(self.im, a.re, b.im)),
                    }
                }
            }
        }
    };
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
mod avx {
    use super::CLanes;
    use crate::complex::Complex;
    use std::arch::x86_64::*;

    // `[r0 i0 r1 i1 | r2 i2 r3 i3]`, `[r4 .. | ..]` → re `[r0 r1 r4 r5 | r2 r3 r6 r7]`:
    // memory lane bits 0, 1, 2 sit at register bits 0, 2, 1.
    impl_clanes_avx!(C32x8, f32, 8, "f32x8", __m256 {
        set1: _mm256_set1_ps, loadu: _mm256_loadu_ps, storeu: _mm256_storeu_ps, mul: _mm256_mul_ps,
        fmadd: _mm256_fmadd_ps, fnmadd: _mm256_fnmadd_ps, fmsub: _mm256_fmsub_ps,
        re_of: _mm256_shuffle_ps::<0b10_00_10_00>, im_of: _mm256_shuffle_ps::<0b11_01_11_01>,
        lo: _mm256_unpacklo_ps, hi: _mm256_unpackhi_ps,
        split: {
            // Adjacent elements: `[x0 y0 x2 y2 ..]`, `[x1 y1 x3 y3 ..]`.
            0 => |x, y| _mm256_blend_ps::<0b1010_1010>(x, _mm256_moveldup_ps(y)),
                 |x, y| _mm256_blend_ps::<0b1010_1010>(_mm256_movehdup_ps(x), y);
            // 128-bit halves.
            1 => |x, y| _mm256_permute2f128_ps::<0x20>(x, y), |x, y| _mm256_permute2f128_ps::<0x31>(x, y);
            // Element pairs, as 64-bit elements.
            2 => |x, y| _mm256_castpd_ps(_mm256_unpacklo_pd(_mm256_castps_pd(x), _mm256_castps_pd(y))),
                 |x, y| _mm256_castpd_ps(_mm256_unpackhi_pd(_mm256_castps_pd(x), _mm256_castps_pd(y)));
        },
    });
    // `[r0 i0 r1 i1]`, `[r2 i2 r3 i3]` → re `[r0 r2 r1 r3]`: memory lane
    // bits 0, 1 sit at register bits 1, 0.
    impl_clanes_avx!(C64x4, f64, 4, "f64x4", __m256d {
        set1: _mm256_set1_pd, loadu: _mm256_loadu_pd, storeu: _mm256_storeu_pd, mul: _mm256_mul_pd,
        fmadd: _mm256_fmadd_pd, fnmadd: _mm256_fnmadd_pd, fmsub: _mm256_fmsub_pd,
        re_of: _mm256_unpacklo_pd, im_of: _mm256_unpackhi_pd,
        lo: _mm256_unpacklo_pd, hi: _mm256_unpackhi_pd,
        split: {
            0 => |x, y| _mm256_permute2f128_pd::<0x20>(x, y), |x, y| _mm256_permute2f128_pd::<0x31>(x, y);
            1 => |x, y| _mm256_unpacklo_pd(x, y), |x, y| _mm256_unpackhi_pd(x, y);
        },
    });
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
pub use avx::{C32x8, C64x4};

/// The portable lane types: `repr(C, align(32))` arrays with element-wise
/// loops, for targets without AVX2 and FMA (`scripts/check.sh` builds and
/// tests them at `target-cpu=x86-64`).
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
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
            fn split(self, other: Self, bit: usize) -> (Self, Self) {
                let b = 1usize << bit;
                assert!(b < $lanes, "no lane bit {bit} in {} lanes", $lanes);
                let (mut lo, mut hi) = (self, other);
                for l in (0..$lanes).filter(|l| l & b == 0) {
                    (lo.re[l | b], lo.im[l | b]) = (other.re[l], other.im[l]);
                    (hi.re[l], hi.im[l]) = (self.re[l | b], self.im[l | b]);
                }
                (lo, hi)
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

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
impl_clanes!(C64x4, f64, 4, "f64x4");
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
impl_clanes!(C32x8, f32, 8, "f32x8");

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs that reach the corners of IEEE arithmetic: both zeros,
    /// subnormals, magnitudes whose products overflow or cancel, and
    /// mixed signs, then a deterministic splitmix64 fill of ordinary
    /// values. Every component is finite.
    fn corner_values<T: Scalar>(seed: u64) -> Vec<T> {
        let big = T::from_f64(if T::BYTES == 4 { 3.0e37 } else { 1.0e307 });
        let tiny = T::from_f64(if T::BYTES == 4 { 1.0e-44 } else { 4.9e-322 });
        let mut out = vec![
            T::ZERO,
            -T::ZERO,
            tiny,
            -tiny,
            big,
            -big,
            T::ONE,
            -T::ONE,
            T::EPSILON,
            T::from_f64(0.1),
            T::from_f64(-0.3),
            T::from_f64(1.0e-30),
        ];
        let mut s = seed;
        for _ in 0..52 {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            out.push(T::from_f64((z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0));
        }
        out
    }

    /// Complex operands: every ordered pair of corner values, rotated by
    /// `shift` so the three operands of one lane differ.
    fn operands<T: Scalar>(shift: usize) -> Vec<Complex<T>> {
        let vals = corner_values::<T>(0x51D3 + shift as u64);
        let n = vals.len();
        let mut out: Vec<Complex<T>> =
            (0..n * n).map(|i| Complex::new(vals[i / n], vals[(i % n + shift) % n])).collect();
        out.rotate_left(shift * 7);
        out
    }

    fn assert_bits<T: Scalar>(got: Complex<T>, want: Complex<T>, what: &str, i: usize) {
        let (g, w) = ((got.re.to_f64(), got.im.to_f64()), (want.re.to_f64(), want.im.to_f64()));
        assert!(g.0.to_bits() == w.0.to_bits() && g.1.to_bits() == w.1.to_bits(), "{what} at {i}: lanes {got:?}, scalar {want:?}");
    }

    /// Apply a lane op over whole operand vectors, `LANES` at a time.
    fn lanewise<T: Scalar>(
        n: usize,
        mut op: impl FnMut(usize) -> T::Lanes,
    ) -> Vec<Complex<T>> {
        let mut out = vec![Complex::<T>::ZERO; n];
        for at in (0..n).step_by(T::LANES) {
            op(at).store(&mut out, at);
        }
        out
    }

    fn mul_matches_scalar<T: Scalar>() {
        let (a, b) = (operands::<T>(0), operands::<T>(3));
        let got = lanewise::<T>(a.len(), |at| T::Lanes::load(&a, at).mul(T::Lanes::load(&b, at)));
        for i in 0..a.len() {
            assert_bits(got[i], a[i] * b[i], "mul", i);
        }
    }

    fn mul_add_matches_scalar<T: Scalar>() {
        let (m, a, b) = (operands::<T>(0), operands::<T>(5), operands::<T>(11));
        let got = lanewise::<T>(m.len(), |at| {
            T::Lanes::load(&m, at).mul_add(T::Lanes::load(&a, at), T::Lanes::load(&b, at))
        });
        for i in 0..m.len() {
            assert_bits(got[i], m[i].mul_add(a[i], b[i]), "mul_add", i);
        }
    }

    fn load_store_round_trip<T: Scalar>() {
        let src = operands::<T>(2);
        let mut dst = vec![Complex::<T>::ZERO; src.len() + 3];
        // Unaligned on both sides: offset 1 in the source, 3 in the
        // destination.
        for at in (1..src.len() - T::LANES).step_by(T::LANES) {
            T::Lanes::load(&src, at).store(&mut dst, at + 2);
        }
        for at in (1..src.len() - T::LANES).step_by(T::LANES) {
            for l in 0..T::LANES {
                assert_bits(dst[at + 2 + l], src[at + l], "load/store", at + l);
            }
        }
    }

    /// The lanes of `v` in memory order.
    fn lanes_of<T: Scalar>(v: T::Lanes) -> Vec<Complex<T>> {
        let mut out = vec![Complex::<T>::ZERO; T::LANES];
        v.store(&mut out, 0);
        out
    }

    fn splat_fills_every_lane<T: Scalar>() {
        for v in operands::<T>(6).into_iter().take(40) {
            for (l, got) in lanes_of::<T>(T::Lanes::splat(v)).into_iter().enumerate() {
                assert_bits(got, v, "splat", l);
            }
        }
    }

    /// `split` on every lane bit is the transposition its doc states, lane
    /// for lane in memory order, and undoes itself.
    fn split_exchanges_one_lane_bit<T: Scalar>() {
        let src = operands::<T>(8);
        for at in (0..src.len() - T::LANES).step_by(2 * T::LANES) {
            let (x, y) = (T::Lanes::load(&src, at), T::Lanes::load(&src, at + T::LANES));
            for bit in 0..T::LANES.trailing_zeros() as usize {
                let b = 1usize << bit;
                let (lo, hi) = x.split(y, bit);
                let (lo_lanes, hi_lanes) = (lanes_of::<T>(lo), lanes_of::<T>(hi));
                for l in 0..T::LANES {
                    let (from_lo, from_hi) =
                        if l & b == 0 { (at + l, at + (l | b)) } else { (at + T::LANES + (l ^ b), at + T::LANES + l) };
                    assert_bits(lo_lanes[l], src[from_lo], "split lo", l);
                    assert_bits(hi_lanes[l], src[from_hi], "split hi", l);
                }
                let (x2, y2) = lo.split(hi, bit);
                let (x_lanes, y_lanes) = (lanes_of::<T>(x2), lanes_of::<T>(y2));
                for l in 0..T::LANES {
                    assert_bits(x_lanes[l], src[at + l], "split twice", l);
                    assert_bits(y_lanes[l], src[at + T::LANES + l], "split twice", l);
                }
            }
        }
    }

    #[test]
    fn lane_mul_is_bitwise_the_scalar_formula_f64() {
        mul_matches_scalar::<f64>();
    }

    #[test]
    fn lane_mul_is_bitwise_the_scalar_formula_f32() {
        mul_matches_scalar::<f32>();
    }

    #[test]
    fn lane_mul_add_is_bitwise_the_scalar_formula_f64() {
        mul_add_matches_scalar::<f64>();
    }

    #[test]
    fn lane_mul_add_is_bitwise_the_scalar_formula_f32() {
        mul_add_matches_scalar::<f32>();
    }

    #[test]
    fn load_store_round_trips_unaligned_f64() {
        load_store_round_trip::<f64>();
    }

    #[test]
    fn load_store_round_trips_unaligned_f32() {
        load_store_round_trip::<f32>();
    }

    #[test]
    fn split_exchanges_one_lane_bit_f64() {
        split_exchanges_one_lane_bit::<f64>();
    }

    #[test]
    fn split_exchanges_one_lane_bit_f32() {
        split_exchanges_one_lane_bit::<f32>();
    }

    #[test]
    fn splat_fills_every_lane_f64() {
        splat_fills_every_lane::<f64>();
    }

    #[test]
    fn splat_fills_every_lane_f32() {
        splat_fills_every_lane::<f32>();
    }
}
