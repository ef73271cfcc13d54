//! SIMD lane kernels shared by the full-state and sweep-tile hot paths.
//!
//! Every kernel body in [`crate::gpu`] has two forms: the scalar
//! reference (the original per-amplitude loops) and a lane-vectorized path
//! built on [`qgear_num::simd`] — one body per kernel class, run by both
//! the full-state and the sweep-tile driver. With SIMD enabled
//! ([`simd_enabled`], a process-global toggle the differential tests flip
//! to compare the two paths bit for bit) a group kernel runs on lanes
//! wherever its qubits sit: the lanes of a vector are the `LANES` groups
//! that differ only in `log2(LANES)` *spectator* bits — span bits the
//! kernel neither mixes nor reads — so they share one sub-unitary and
//! each lane carries one group's chain. When the spectators are the
//! span's lowest bits a column is one contiguous vector load, otherwise
//! a per-lane gather through a `LANES`-entry offset table
//! (`dense_block_lanes`). The scalar path is what is left for a span
//! with fewer than `log2(LANES)` bits to spare — a five-qubit kernel on a
//! six-qubit state — which is also where the differential tier exercises
//! it.
//!
//! # Bit identity
//!
//! The lane operations replicate the exact scalar `Complex` formulas per
//! lane (see [`qgear_num::simd`]), and the vector kernels accumulate in the
//! same order over the same operands as the scalar loops: which groups
//! share a vector changes, what each group computes does not. Results are
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
/// `kernel.simd.f32x8`) or the scalar one (`kernel.simd.scalar`: SIMD
/// switched off, or a span too small to have spectator bits).
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
    /// Local-index contribution of the sub-chunk address bits. A diagonal
    /// block spans up to `2·MAX_FUSION_WIDTH` local bits, so a byte does
    /// not hold every index.
    lowtab: Vec<u16>,
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
        assert!(masks.len() <= 16, "a diagonal over {} local bits", masks.len());
        let mut lowtab = vec![0u16; chunk];
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

/// Apply one dense `M × M` kernel to the `LANES` groups of a lane block,
/// lane `l` being the group at `base + l` (`lane_offs: None`, the lane
/// bits are the span's lowest) or at `base | lane_offs[l]`.
///
/// `m` is the row-major matrix, each entry broadcast to a lane vector
/// where it is used (a table of pre-broadcast entries is 64 KiB at
/// `M = 32` — more than L1 — and measured a sixth slower than
/// broadcasting from the 8 KiB of scalars); `offs[c]` is the address
/// offset of kernel-local index `c` (the OR of the masks selected by
/// `c`'s bits). Accumulation runs in the same `c = 0..M` order with the
/// same `mul_add` chain as the scalar loop, one lane per group, so
/// results are bitwise identical. `M` is a constant so the column scratch
/// is `M` lane vectors, every one loaded before it is read.
///
/// # Safety
/// Caller guarantees every address `base | offs[c]` combined with every
/// lane offset is in bounds and not concurrently accessed by another task
/// (distinct items are disjoint, see `GroupKernel::apply` in
/// [`crate::gpu`]), and that `lane_offs`, when given, has `LANES` entries.
#[inline(always)]
pub(crate) unsafe fn dense_block_lanes<T: Scalar, const M: usize>(
    ptr: *mut Complex<T>,
    base: usize,
    m: &[Complex<T>],
    offs: &[usize],
    lane_offs: Option<&[usize]>,
) {
    let zero = T::Lanes::splat(Complex::ZERO);
    let mut inp = [zero; M];
    for c in 0..M {
        let at = base | offs[c];
        inp[c] = match lane_offs {
            // SAFETY: the caller's contract — `LANES` in-bounds
            // amplitudes from `at`, owned by this call.
            None => unsafe { T::Lanes::load_ptr(ptr.add(at)) },
            // SAFETY: as above, lane `l` at its own offset.
            Some(lane) => T::Lanes::from_fn(|l| unsafe { *ptr.add(at | lane[l]) }),
        };
    }
    for (r, row) in m.chunks_exact(M).enumerate() {
        let mut acc = zero;
        for c in 0..M {
            acc = T::Lanes::splat(row[c]).mul_add(inp[c], acc);
        }
        let at = base | offs[r];
        match lane_offs {
            // SAFETY: same address set as the loads, all of them done.
            None => unsafe { acc.store_ptr(ptr.add(at)) },
            Some(lane) => {
                for (l, &off) in lane.iter().enumerate() {
                    // SAFETY: as above, lane `l` at its own offset.
                    unsafe { *ptr.add(at | off) = acc.lane(l) };
                }
            }
        }
    }
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
    fn diag_table_indexes_past_eight_local_bits_below_the_chunk() {
        // Eleven local bits, ten of them below the 4096-amplitude chunk:
        // the sub-chunk index needs more than a byte.
        let masks: Vec<usize> = [0, 1, 2, 4, 5, 6, 7, 8, 10, 11, 14].iter().map(|&b| 1usize << b).collect();
        let d: Vec<C64> =
            (0..1usize << masks.len()).map(|i| C64::cis(0.37 * i as f64 + 0.01 * (i % 13) as f64)).collect();
        let n = 1usize << 16;
        let mut amps: Vec<C64> =
            (0..n).map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos())).collect();
        let mut expect = amps.clone();
        for (i, amp) in expect.iter_mut().enumerate() {
            let local: usize = masks.iter().enumerate().filter(|&(_, &m)| i & m != 0).map(|(j, _)| 1 << j).sum();
            *amp *= d[local];
        }
        let table = DiagTable::build(d, &masks, n);
        assert!(table.chunk() == DIAG_CHUNK && masks.iter().filter(|&&m| m < DIAG_CHUNK).count() == 10);
        for (ci, cs) in amps.chunks_mut(table.chunk()).enumerate() {
            table.apply(cs, ci * table.chunk());
        }
        let bits = |v: &[C64]| v.iter().flat_map(|a| [a.re.to_bits(), a.im.to_bits()]).collect::<Vec<_>>();
        assert!(bits(&amps) == bits(&expect));
    }
}
