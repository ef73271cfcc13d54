//! SIMD lane kernels shared by the full-state and sweep-tile hot paths.
//!
//! Every kernel body in [`crate::gpu`] has two forms: the scalar
//! reference (the original per-amplitude loops) and a lane-vectorized path
//! built on [`qgear_num::simd`] — one body per kernel class, run by both
//! the full-state and the sweep-tile driver. With SIMD enabled
//! ([`simd_enabled`], a process-global toggle the differential tests flip
//! to compare the two paths bit for bit) a group kernel runs on lanes
//! wherever its qubits sit, and always over the same lane layout: a lane
//! vector is `LANES` consecutive amplitudes, one load or store. When no
//! kernel bit is among the span's lowest `log2(LANES)` bits, each column
//! is one such vector and its lanes are `LANES` groups that differ only
//! in spectator bits. When `m` kernel bits are, an item loads the `2^m`
//! vectors per column that differ in the lowest `m` spectator bits above
//! the lane width and exchanges each of those bits with a kernel lane bit
//! in registers ([`CLanes::split`]), so that every vector again holds one
//! column of `LANES` spectator groups; the stores undo it. When they are
//! all unmixed kernel bits nothing is split: each lane reads the entries
//! of its own sub-unitary. `dense_block_lanes` runs on the columns either
//! way. The scalar
//! path is what is left for a span with fewer than `log2(LANES)` bits to
//! spare — a five-qubit kernel on a six-qubit state — which is also where
//! the differential tier exercises it.
//!
//! # Bit identity
//!
//! The lane operations replicate the exact scalar `Complex` formulas per
//! lane (see [`qgear_num::simd`]), the split only moves data, and the
//! vector kernels accumulate in the same order over the same operands as
//! the scalar loops: which groups share a vector changes, what each group
//! computes does not. Results are therefore **bitwise identical** in both
//! precisions, which is what lets the toggle exist at all: flipping it
//! mid-run cannot change any result.

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
/// `LANES` amplitudes at a time, looking the table up once per vector.
/// When no kernel bit is a lane bit every lane of a vector shares one
/// factor. When some are, the table is built over every lane bit, the
/// lowest bits of its local index in lane order, so a vector's factors
/// are the `LANES` consecutive entries at its first amplitude's index:
/// one load, the size of the kernel's table when every lane bit is a
/// kernel bit, `LANES / 2^m` times it when `m` of them are.
///
/// The multiplicand `d[hi | lowtab[j]]` is the exact value the scalar
/// path computes, so both paths are bitwise identical.
pub(crate) struct DiagTable<T: Scalar> {
    /// Diagonal entries in execution precision, indexed by the local index
    /// of `masks` — the block's, or with `lanes` every lane bit's first
    /// and then the block's other bits.
    d: Vec<Complex<T>>,
    /// Local-index contribution of the sub-chunk address bits. A diagonal
    /// block spans up to `2·MAX_FUSION_WIDTH` local bits, so a byte does
    /// not hold every index.
    lowtab: Vec<u16>,
    /// `(global mask, local bit)` pairs for address bits ≥ chunk.
    hipairs: Vec<(usize, usize)>,
    /// Chunk length; divides the span and every chunk start.
    chunk: usize,
    /// The table is built over the lane bits: a chunk of at least `LANES`
    /// on which some kernel bit is a lane bit.
    lanes: bool,
}

impl<T: Scalar> DiagTable<T> {
    /// Build the table for diagonal `d` over single-bit `masks` (mask `j`
    /// selects kernel-local bit `j`), applied to spans of `span` amplitudes
    /// starting at span-aligned offsets.
    pub(crate) fn build(mut d: Vec<Complex<T>>, masks: &[usize], span: usize) -> Self {
        let chunk = DIAG_CHUNK.min(span).max(1);
        debug_assert!(span.is_multiple_of(chunk));
        let lanes = chunk >= T::LANES && masks.iter().any(|&m| m < T::LANES);
        let mut masks = masks.to_vec();
        if lanes {
            // Local bit `b < log2(LANES)` is lane bit `b`, which reads
            // kernel bit `j` (weight `1 << j`) or no bit of `d` (weight 0).
            let lane = (0..T::LANES.trailing_zeros()).map(|b| 1usize << b);
            let weights: Vec<usize> = lane
                .clone()
                .map(|m| masks.iter().position(|&k| k == m).map_or(0, |j| 1 << j))
                .chain((0..masks.len()).filter(|&j| masks[j] >= T::LANES).map(|j| 1 << j))
                .collect();
            d = local_offsets(&weights).iter().map(|&i| d[i]).collect();
            masks = lane.chain(masks.iter().copied().filter(|&m| m >= T::LANES)).collect();
        }
        assert!(masks.len() <= 16, "a diagonal over {} local bits", masks.len());
        // Entry `i` is entry `i` without its lowest set bit, plus the
        // local bit that address bit selects (none for a spectator).
        let mut local_bit = [0u16; usize::BITS as usize];
        for (j, &mask) in masks.iter().enumerate().filter(|&(_, &mask)| mask < chunk) {
            local_bit[mask.trailing_zeros() as usize] = 1 << j;
        }
        let mut lowtab = vec![0u16; chunk];
        for i in 1..chunk {
            lowtab[i] = lowtab[i & (i - 1)] | local_bit[i.trailing_zeros() as usize];
        }
        let hipairs = masks
            .iter()
            .enumerate()
            .filter(|&(_, &mask)| mask >= chunk)
            .map(|(j, &mask)| (mask, 1usize << j))
            .collect();
        DiagTable { d, lowtab, hipairs, chunk, lanes }
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
            // Same operand order as the scalar `*amp *= d[local]`
            // (MulAssign is `amp * d`), so bitwise identical.
            if !vector {
                for (j, amp) in cs.iter_mut().enumerate() {
                    *amp *= self.d[hi | self.lowtab[j] as usize];
                }
            } else if self.lanes {
                for j in (0..cs.len()).step_by(T::LANES) {
                    let dv = T::Lanes::load(&self.d, hi | self.lowtab[j] as usize);
                    T::Lanes::load(cs, j).mul(dv).store(cs, j);
                }
            } else {
                for j in (0..cs.len()).step_by(T::LANES) {
                    let dv = T::Lanes::splat(self.d[hi | self.lowtab[j] as usize]);
                    T::Lanes::load(cs, j).mul(dv).store(cs, j);
                }
            }
        }
    }
}

/// Output rows one pass of [`dense_block_lanes`] keeps in flight.
const ROW_BLOCK: usize = 4;

/// Apply one dense `M × M` kernel to the `LANES` groups whose column `c`
/// is the lane vector `inp[c]`, handing output row `r` to `put(r, ·)`.
///
/// `coef(r·M + c)` is entry `(r, c)` as a lane vector: a matrix entry
/// broadcast where it is used when every lane applies the same matrix (a
/// table of pre-broadcast entries is 64 KiB at `M = 32` — more than L1 —
/// and measured a sixth slower than broadcasting from the 8 KiB of
/// scalars), or each lane's own entry. Rows go [`ROW_BLOCK`] at a
/// time: each column vector is read once per block and feeds that many
/// independent accumulators, so the FMA latency of one row's chain hides
/// behind the others. Each row still accumulates in the same `c = 0..M`
/// order with the same `mul_add` chain as the scalar loop, one lane per
/// group, so results are bitwise identical. `M` is a constant so the
/// columns are `M` lane vectors, every one loaded before the first row is
/// put.
#[inline(always)]
pub(crate) fn dense_block_lanes<T: Scalar, const M: usize>(
    coef: impl Fn(usize) -> T::Lanes,
    inp: &[T::Lanes; M],
    mut put: impl FnMut(usize, T::Lanes),
) {
    let zero = T::Lanes::splat(Complex::ZERO);
    let rows = M.min(ROW_BLOCK);
    for r0 in (0..M).step_by(rows) {
        let mut acc = [zero; ROW_BLOCK];
        for (c, &x) in inp.iter().enumerate() {
            for (k, a) in acc[..rows].iter_mut().enumerate() {
                *a = coef((r0 + k) * M + c).mul_add(x, *a);
            }
        }
        for (k, &a) in acc[..rows].iter().enumerate() {
            put(r0 + k, a);
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
