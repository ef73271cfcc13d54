//! SIMD lane kernels shared by the full-state and sweep-tile hot paths.
//!
//! Every kernel body in [`crate::gpu`] has two forms: the scalar
//! reference (the original per-amplitude loops) and a lane-vectorized path
//! built on [`qgear_num::simd`] — one body per kernel class, run by both
//! the full-state and the sweep-tile driver. The vector path engages when
//! three conditions hold:
//!
//! 1. SIMD is enabled ([`simd_enabled`], a process-global toggle the
//!    differential tests flip to compare the two paths bit for bit);
//! 2. the kernel's target bits all sit at or above the lane width
//!    (`log2(LANES)` — 2 for `f64x4`, 3 for `f32x8`), so `LANES`
//!    consecutive amplitude groups occupy `LANES` consecutive addresses
//!    and lane loads/stores are contiguous;
//! 3. there are at least `LANES` groups to fill one lane vector.
//!
//! Otherwise the kernel falls back to the scalar path — which doubles as
//! the remainder/tail handling the differential tier exercises with small
//! and low-qubit states.
//!
//! # Bit identity
//!
//! The lane operations replicate the exact scalar `Complex` formulas per
//! lane (see [`qgear_num::simd`]), and the vector kernels accumulate in the
//! same order over the same operands as the scalar loops. Results are
//! therefore **bitwise identical** in both precisions, which is what lets
//! the toggle exist at all: flipping it mid-run cannot change any result.

use qgear_num::{CLanes, Complex, Scalar};
use std::sync::atomic::{AtomicBool, Ordering};

static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// True when the lane-vectorized kernels may engage (the default).
pub fn simd_enabled() -> bool {
    SIMD_ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable the SIMD lane kernels.
///
/// Used by the differential test tier to force the scalar reference path;
/// because both paths are bitwise identical, toggling is safe at any time,
/// including while other threads are mid-kernel.
pub fn set_simd_enabled(on: bool) {
    SIMD_ENABLED.store(on, Ordering::Relaxed);
}

/// log2 of the lane count for precision `T` (2 for f64, 3 for f32).
#[inline(always)]
pub(crate) fn lane_log2<T: Scalar>() -> usize {
    T::LANES.trailing_zeros() as usize
}

/// Record one kernel dispatch on the lane path (`kernel.simd.f64x4` /
/// `kernel.simd.f32x8`) or the scalar fallback (`kernel.simd.scalar`).
#[inline]
pub(crate) fn record_dispatch<T: Scalar>(vectorized: bool) {
    if vectorized {
        qgear_telemetry::counter_inc(match T::PRECISION_NAME {
            "fp32" => qgear_telemetry::names::KERNEL_SIMD_F32X8,
            _ => qgear_telemetry::names::KERNEL_SIMD_F64X4,
        });
    } else {
        qgear_telemetry::counter_inc(qgear_telemetry::names::KERNEL_SIMD_SCALAR);
    }
}

/// Maximum span of the per-chunk local-index table used by [`DiagTable`].
/// 4096 amplitudes (one sweep tile at the default width) keep the table in
/// L1 alongside the amplitudes it indexes.
pub(crate) const DIAG_CHUNK: usize = 4096;

/// Precomputed application plan for one diagonal kernel.
///
/// The scalar diagonal path re-derives the kernel-local index of every
/// amplitude with a bit-test loop over the qubit masks. `DiagTable`
/// hoists that work out of the inner loop: for a span processed in
/// `chunk`-sized pieces (`chunk` = the largest power of two ≤
/// [`DIAG_CHUNK`] dividing the span), the local-index contribution of the
/// sub-chunk bits is a `chunk`-entry lookup table and the contribution of
/// the remaining bits is a single per-chunk constant. The inner loop is
/// then a table load and one complex multiply — which the lane path does
/// `LANES` amplitudes at a time.
///
/// The multiplicand `d[hi | lowtab[j]]` is the exact value the scalar
/// path computes, so both paths are bitwise identical.
pub(crate) struct DiagTable<T: Scalar> {
    /// Diagonal entries in execution precision.
    d: Vec<Complex<T>>,
    /// Local-index contribution of the sub-chunk address bits.
    lowtab: Vec<u8>,
    /// `(global mask, local bit)` pairs for address bits ≥ chunk.
    hipairs: Vec<(usize, usize)>,
    /// Chunk length; divides the span and every chunk start.
    chunk: usize,
}

impl<T: Scalar> DiagTable<T> {
    /// Build the table for diagonal `d` over single-bit `masks` (mask `j`
    /// selects kernel-local bit `j`), applied to spans of `span` amplitudes
    /// starting at span-aligned offsets.
    pub(crate) fn build(d: Vec<Complex<T>>, masks: &[usize], span: usize) -> Self {
        let chunk = DIAG_CHUNK.min(span).max(1);
        debug_assert!(span.is_multiple_of(chunk));
        let mut lowtab = vec![0u8; chunk];
        for (j, &mask) in masks.iter().enumerate() {
            if mask < chunk {
                for (i, slot) in lowtab.iter_mut().enumerate() {
                    if i & mask != 0 {
                        *slot |= 1 << j;
                    }
                }
            }
        }
        let hipairs = masks
            .iter()
            .enumerate()
            .filter(|&(_, &mask)| mask >= chunk)
            .map(|(j, &mask)| (mask, 1usize << j))
            .collect();
        DiagTable { d, lowtab, hipairs, chunk }
    }

    /// Chunk length the table was built for (parallel callers split the
    /// state at this granularity).
    pub(crate) fn chunk(&self) -> usize {
        self.chunk
    }

    /// Multiply the diagonal into `span`, whose first element sits at
    /// global/tile index `start` (must be chunk-aligned; `span.len()` must
    /// be a multiple of the chunk).
    pub(crate) fn apply(&self, span: &mut [Complex<T>], start: usize) {
        debug_assert!(start.is_multiple_of(self.chunk) && span.len().is_multiple_of(self.chunk));
        let vector = simd_enabled() && self.chunk >= T::LANES;
        for (ci, cs) in span.chunks_mut(self.chunk).enumerate() {
            let base = start + ci * self.chunk;
            let mut hi = 0usize;
            for &(mask, bit) in &self.hipairs {
                if base & mask != 0 {
                    hi |= bit;
                }
            }
            if vector {
                let mut j = 0usize;
                while j < cs.len() {
                    let amps = T::Lanes::load(cs, j);
                    let dv = T::Lanes::from_fn(|l| self.d[hi | self.lowtab[j + l] as usize]);
                    // Same operand order as the scalar `*amp *= d[local]`
                    // (MulAssign is `amp * d`), so bitwise identical.
                    amps.mul(dv).store(cs, j);
                    j += T::LANES;
                }
            } else {
                for (j, amp) in cs.iter_mut().enumerate() {
                    *amp *= self.d[hi | self.lowtab[j] as usize];
                }
            }
        }
    }
}

/// Apply one dense `dim × dim` kernel to `LANES` consecutive sub-groups
/// whose bases are `base0 .. base0 + LANES`.
///
/// `msplat` is the row-major matrix with every entry pre-broadcast to a
/// lane vector; `offs[c]` is the address offset of kernel-local index `c`
/// (the OR of the masks selected by `c`'s bits). Accumulation runs in the
/// same `c = 0..dim` order with the same `mul_add` chain as the scalar
/// loop, one lane per sub-group, so results are bitwise identical.
///
/// # Safety
/// Caller guarantees every address `base0 | offs[c] + lane` is in bounds
/// and not concurrently accessed by another task (distinct amplitude
/// groups are disjoint, see `GroupKernel::apply_group` in [`crate::gpu`]).
#[inline(always)]
pub(crate) unsafe fn dense_block_lanes<T: Scalar>(
    ptr: *mut Complex<T>,
    base0: usize,
    msplat: &[T::Lanes],
    dim: usize,
    offs: &[usize],
) {
    let zero = T::Lanes::splat(Complex::ZERO);
    let mut inp = [zero; 64];
    for c in 0..dim {
        // SAFETY: the caller's contract — `LANES` in-bounds amplitudes
        // from `base0 | offs[c]`, owned by this call.
        inp[c] = unsafe { T::Lanes::load_ptr(ptr.add(base0 | offs[c])) };
    }
    for r in 0..dim {
        let mut acc = zero;
        let row = &msplat[r * dim..(r + 1) * dim];
        for (c, rc) in row.iter().enumerate() {
            acc = rc.mul_add(inp[c], acc);
        }
        // SAFETY: same address set as the loads, all of them done.
        unsafe { acc.store_ptr(ptr.add(base0 | offs[r])) };
    }
}

/// True when a kernel whose sub-group expansion inserts bits at the
/// positions in `sorted_bits` (ascending) can take the lane path over a
/// span of `groups` sub-groups: every inserted bit must clear the lane
/// width so consecutive groups stay address-consecutive, and there must
/// be at least one full lane vector of groups.
#[inline(always)]
pub(crate) fn lanes_ok<T: Scalar>(sorted_bits: &[usize], groups: usize) -> bool {
    groups >= T::LANES && sorted_bits.first().is_none_or(|&b| b >= lane_log2::<T>())
}

/// Pre-broadcast a row-major matrix into lane vectors.
#[inline]
pub(crate) fn splat_all<T: Scalar>(m: &[Complex<T>]) -> Vec<T::Lanes> {
    m.iter().map(|&e| T::Lanes::splat(e)).collect()
}

/// Address offset of each kernel-local index: `offs[c]` ORs together the
/// single-bit `masks[j]` for every set bit `j` of `c`. Hoists the
/// per-amplitude mask loop of the scalar gather out of the hot loop (the
/// scalar paths use it too — `base | offs[c]` equals the mask-loop result
/// exactly).
#[inline]
pub(crate) fn local_offsets(masks: &[usize]) -> Vec<usize> {
    let dim = 1usize << masks.len();
    let mut offs = vec![0usize; dim];
    for (j, &mask) in masks.iter().enumerate() {
        for i in 0..(1usize << j) {
            offs[(1usize << j) | i] = offs[i] | mask;
        }
    }
    offs
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_num::C64;

    #[test]
    fn toggle_roundtrip() {
        assert!(simd_enabled());
        set_simd_enabled(false);
        assert!(!simd_enabled());
        set_simd_enabled(true);
        assert!(simd_enabled());
    }

    #[test]
    fn local_offsets_match_mask_loop() {
        let masks = [1usize << 3, 1 << 1, 1 << 5];
        let offs = local_offsets(&masks);
        for (local, &got) in offs.iter().enumerate().take(8) {
            let mut want = 0usize;
            for (j, &mask) in masks.iter().enumerate() {
                if local & (1 << j) != 0 {
                    want |= mask;
                }
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn diag_table_matches_scalar_mask_loop() {
        // 2-bit diagonal with one mask below and one above the chunk span.
        let d: Vec<C64> = (0..4).map(|i| Complex::new(1.0 + i as f64, -(i as f64))).collect();
        let masks = [1usize << 1, 1 << 13];
        let n = 1usize << 15;
        let mut amps: Vec<C64> = (0..n)
            .map(|i| Complex::new((i % 7) as f64 * 0.1, (i % 5) as f64 * 0.2))
            .collect();
        let mut expect = amps.clone();
        for (i, amp) in expect.iter_mut().enumerate() {
            let mut local = 0usize;
            for (j, &mask) in masks.iter().enumerate() {
                if i & mask != 0 {
                    local |= 1 << j;
                }
            }
            *amp *= d[local];
        }
        let table = DiagTable::build(d, &masks, n);
        table.apply(&mut amps, 0);
        assert_eq!(amps, expect);
    }

    #[test]
    fn lanes_ok_requires_clear_low_bits_and_full_lanes() {
        assert!(lanes_ok::<f64>(&[2, 5], 16));
        assert!(!lanes_ok::<f64>(&[1, 5], 16), "bit 1 is below the f64x4 lane width");
        assert!(!lanes_ok::<f64>(&[2, 5], 2), "fewer groups than lanes");
        assert!(!lanes_ok::<f32>(&[2, 5], 16), "f32x8 needs bits ≥ 3");
        assert!(lanes_ok::<f32>(&[3, 5], 16));
        assert!(lanes_ok::<f64>(&[], 8), "no inserted bits is trivially contiguous");
    }
}
