//! Born-rule shot sampling: a two-level multinomial draw.
//!
//! The QCrank experiments draw up to 98 M shots (Table 2), and a served
//! 20-qubit job draws 10⁴ shots over 2²⁰ bins, so a draw can afford
//! neither a uniform per shot nor a uniform per bin. [`multinomial`]
//! cuts the probabilities into blocks of `BLOCK` (4096) bins and draws in two
//! levels:
//!
//! 1. **Block masses**, each block summed in order in one pass split
//!    across the kernel pool (the threads-by-bytes rule of the kernels).
//! 2. **Shots per block**, by the *conditional binomial* walk over the
//!    masses from the master seed: `Binomial(remaining shots, m_b /
//!    remaining mass)` for each block in turn. A register of up to 12
//!    qubits is one block and takes every shot without a draw.
//! 3. **Shots per bin**, each block from its own stream, seeded from
//!    (seed, block index), blocks split across the pool. A block holding
//!    `k` shots, `k` at most its bin count, draws `k` sorted uniforms in
//!    `[0, block mass)` and merges them once against the running mass: an
//!    add per bin, no draw. A block holding more shots than bins (Table
//!    2's regime, where sorting would cost more than the bins) runs the
//!    same walk over its bins.
//!
//! Both arms are exact, so the rule between them is a cost rule, and
//! every draw comes from a stream fixed by (seed, block), so the counts
//! do not depend on the thread count. Shots that round past a block's
//! last positive bin land on that bin.
//!
//! A binomial is a sum of Bernoulli draws for `n ≤ 64`, a normal
//! approximation once its variance passes 1000 (error far below shot
//! noise at these magnitudes), and geometric skips between successes
//! otherwise. Most bins a walk visits with few shots draw nothing, and
//! the skip path answers those from its first uniform without a
//! logarithm: `u` below `1 − n(1−q)` lies below `qⁿ` by Bernoulli's
//! inequality, so the first skip already passes `n` — see `binomial` for
//! the bound's slack.

use crate::gpu::min_items_of_bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Bins per block of the two-level draw: 32 KiB of `f64`s, so a block's
/// merge stays in cache, and a register of up to 12 qubits is one block.
const BLOCK: usize = 4096;

/// Bins summed as one group by [`mass`]: the running mass of a merge
/// steps a group at a time, so its one serial add is per group, not per
/// bin, and the group sums overlap.
const GROUP: usize = 8;

/// Draw a multinomial sample: `(outcome, count)` for every outcome drawn
/// at least once, in outcome order, the counts summing to `shots`.
/// Probabilities are normalized defensively; negative (fp round-off) and
/// NaN inputs count as zero.
pub fn multinomial(probs: &[f64], shots: u64, seed: u64) -> Vec<(u64, u64)> {
    multinomial_by(probs, shots, seed, binomial)
}

/// [`multinomial`] with the binomial sampler as a parameter, so the unit
/// tests can replay a draw with a reference sampler.
fn multinomial_by<B>(probs: &[f64], shots: u64, seed: u64, binomial: B) -> Vec<(u64, u64)>
where
    B: Fn(&mut StdRng, u64, f64) -> u64 + Copy + Sync,
{
    let min_len = min_items_of_bytes(BLOCK * std::mem::size_of::<f64>());
    let mut masses = vec![0.0; probs.len().div_ceil(BLOCK)];
    masses.par_chunks_mut(1).with_min_len(min_len).enumerate().for_each(|(b, m)| {
        m[0] = mass(block(probs, b));
    });
    let split = split_over_blocks(&masses, shots, seed, binomial);
    let mut placed = vec![Vec::new(); masses.len()];
    placed.par_chunks_mut(1).with_min_len(min_len).enumerate().for_each(|(b, out)| {
        out[0] = place(probs, b, masses[b], split[b], seed, binomial);
    });
    placed.concat()
}

/// Block `b` of `probs`: bins `b·BLOCK` on, the last block possibly short.
fn block(probs: &[f64], b: usize) -> &[f64] {
    &probs[b * BLOCK..probs.len().min((b + 1) * BLOCK)]
}

/// The sum of the clamped weights: each [`GROUP`] summed in order, the
/// group sums added in order — the adds the merge's running mass repeats
/// one for one.
fn mass(weights: &[f64]) -> f64 {
    groups(weights).fold(0.0, |m, group| m + group_mass(group))
}

/// `weights` in [`GROUP`]s, the last one possibly short.
fn groups(weights: &[f64]) -> impl Iterator<Item = &[f64]> {
    let (full, tail) = weights.as_chunks::<GROUP>();
    full.iter().map(|group| group.as_slice()).chain([tail])
}

/// One group's clamped weights summed in order.
fn group_mass(group: &[f64]) -> f64 {
    group.iter().fold(0.0, |s, &w| s + w.max(0.0))
}

/// Level one: each block's share of `shots`, walked over the block
/// masses from the master seed.
fn split_over_blocks<B>(masses: &[f64], shots: u64, seed: u64, binomial: B) -> Vec<u64>
where
    B: Fn(&mut StdRng, u64, f64) -> u64,
{
    let mut split = vec![0; masses.len()];
    let total = mass(masses);
    if total > 0.0 && shots > 0 {
        let mut rng = StdRng::seed_from_u64(seed);
        walk(masses, total, shots, &mut rng, binomial, |b, k| split[b] += k);
    }
    split
}

/// Level two: block `b`'s `k` shots over its bins, from the block's own
/// stream — sorted uniforms merged against the running mass when `k` is
/// at most the bin count and the mass is finite, the walk otherwise.
fn place<B>(probs: &[f64], b: usize, mass: f64, k: u64, seed: u64, binomial: B) -> Vec<(u64, u64)>
where
    B: Fn(&mut StdRng, u64, f64) -> u64,
{
    if k == 0 {
        return Vec::new();
    }
    let bins = block(probs, b);
    let base = (b * BLOCK) as u64;
    let mut rng = StdRng::seed_from_u64(block_seed(seed, b));
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(k.min(bins.len() as u64) as usize);
    let emit = |i: usize, count: u64| match out.last_mut() {
        // The residue of a walk or a merge lands on a bin it may have
        // drawn already, the last one emitted.
        Some((key, c)) if *key == base + i as u64 => *c += count,
        _ => out.push((base + i as u64, count)),
    };
    if k <= bins.len() as u64 && mass.is_finite() {
        merge(bins, mass, k, &mut rng, emit);
    } else {
        walk(bins, mass, k, &mut rng, binomial, emit);
    }
    out
}

/// The stream seed of block `b`: the master seed XOR SplitMix64's
/// finalizer of `b + 1`, so no block shares the master stream (level
/// one's) or another block's.
fn block_seed(seed: u64, b: usize) -> u64 {
    let mut z = (b as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seed ^ z ^ (z >> 31)
}

/// The conditional-binomial walk: for each positive weight in order,
/// `Binomial(remaining shots, w / remaining mass)`, with `mass` the
/// weights' [`mass`]; `emit(i, k)` for every `k > 0`. Shots that round
/// past the last positive weight land on it.
fn walk<B>(
    weights: &[f64],
    mass: f64,
    shots: u64,
    rng: &mut StdRng,
    binomial: B,
    mut emit: impl FnMut(usize, u64),
) where
    B: Fn(&mut StdRng, u64, f64) -> u64,
{
    let mut remaining_mass = mass;
    let mut remaining = shots;
    for (i, &w) in weights.iter().enumerate() {
        if remaining == 0 {
            return;
        }
        let p = w.max(0.0);
        if p <= 0.0 {
            continue;
        }
        let k = if p >= remaining_mass {
            // Numerical tail: everything left lands here.
            remaining
        } else {
            binomial(rng, remaining, p / remaining_mass)
        };
        if k > 0 {
            emit(i, k);
            remaining -= k;
        }
        remaining_mass -= p;
    }
    if remaining > 0 {
        emit(last_positive(weights), remaining);
    }
}

/// `k` uniforms in `[0, mass)`, sorted, each landing on the first bin
/// whose running mass passes it: O(bins + k log k), an add per bin and
/// no draw. The running mass steps a [`GROUP`] at a time and is summed
/// bin by bin only inside a group a uniform falls in; a bin's bound is
/// the group's start plus its prefix in the group, so a zero bin's bound
/// is its predecessor's and it draws nothing. `mass` is the bins'
/// [`mass`], so the running mass ends on it exactly; a uniform that
/// rounds past the last positive bin lands on it.
fn merge(bins: &[f64], mass: f64, k: u64, rng: &mut StdRng, mut emit: impl FnMut(usize, u64)) {
    let mut marks: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() * mass).collect();
    marks.sort_unstable_by(f64::total_cmp);
    let mut running = 0.0;
    let mut next = 0;
    for (g, group) in groups(bins).enumerate() {
        let end = running + group_mass(group);
        if marks[next] < end {
            let mut prefix = 0.0;
            for (j, &w) in group.iter().enumerate() {
                prefix += w.max(0.0);
                let from = next;
                while next < marks.len() && marks[next] < running + prefix {
                    next += 1;
                }
                if next > from {
                    emit(g * GROUP + j, (next - from) as u64);
                    if next == marks.len() {
                        return;
                    }
                }
            }
        }
        running = end;
    }
    emit(last_positive(bins), (marks.len() - next) as u64);
}

/// The last bin of positive weight; only called on weights of positive
/// mass.
fn last_positive(weights: &[f64]) -> usize {
    weights.iter().rposition(|&w| w > 0.0).expect("weights of positive mass")
}

/// A deterministic shot-sampling request: how many shots, from which
/// seed. Same `(shots, seed)` ⇒ bit-identical histogram, wherever and
/// however often it is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Total shots to draw.
    pub shots: u64,
    /// Master RNG seed.
    pub seed: u64,
    /// The third sampling word of a QCKP v1 META section. A checkpoint
    /// carries it verbatim, so files already written keep their bytes
    /// through a decode and re-encode; nothing reads it, and
    /// [`SamplingConfig::single`] — the only constructor the workspace
    /// uses — writes 0.
    pub reserved: u64,
}

impl SamplingConfig {
    /// `shots` draws from `seed`.
    pub fn single(shots: u64, seed: u64) -> Self {
        SamplingConfig { shots, seed, reserved: 0 }
    }

    /// The outcome histogram as `(outcome, count)` pairs in outcome
    /// order, every count positive: one two-level [`multinomial`] draw
    /// from the master seed, the same whatever the thread count.
    pub fn histogram(&self, probs: &[f64]) -> Vec<(u64, u64)> {
        multinomial(probs, self.shots, self.seed)
    }
}


/// Relative slack on the no-success bound of `binomial`'s skip path: it
/// covers the rounding of the two logarithms and the division the skip
/// loop would compute, and of the bound itself, with room to spare. At
/// `n > 64` the bound's own second-order gap to `qⁿ` already clears that
/// rounding; the slack keeps the argument from resting on it.
const NO_SUCCESS_SLACK: f64 = 1.0 + 1e-12;

/// Sample `Binomial(n, p)`.
///
/// Strategy: exact Bernoulli summation for `n ≤ 64`; exact geometric-skip
/// inversion when the expected count is small; otherwise a
/// normal(np, np(1-p)) approximation rounded and clamped — standard for
/// the `np(1-p) > ~1000` regime where the approximation error is orders of
/// magnitude below shot noise.
///
/// The skip path returns 0 from its first uniform `u` without a logarithm
/// when `1 − u > n(1−q)·(1 + 10⁻¹²)`, `q = 1 − p`: then `u < 1 − n(1−q)
/// ≤ qⁿ` (Bernoulli's inequality; `1 − q` is exact by Sterbenz, as `q ≥
/// 0.5`), so the first skip `⌊ln u / ln q⌋ + 1` passes `n`, and the slack
/// keeps that true of the rounded skip. The value and the draws consumed
/// are the loop's own.
fn binomial<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Exploit symmetry to keep p <= 0.5 for the exact paths.
    if p > 0.5 {
        return n - binomial(rng, n, 1.0 - p);
    }
    let np = n as f64 * p;
    let var = np * (1.0 - p);
    if var > 1000.0 {
        // Normal approximation with continuity correction.
        let z = standard_normal(rng);
        let x = (np + z * var.sqrt()).round();
        return x.clamp(0.0, n as f64) as u64;
    }
    if n <= 64 {
        // Direct Bernoulli summation.
        let mut k = 0u64;
        for _ in 0..n {
            if rng.gen::<f64>() < p {
                k += 1;
            }
        }
        return k;
    }
    // Geometric-skip (BG) algorithm: draw the gap to the next success as a
    // Geometric(p) variable; expected iterations = np + 1.
    let q = 1.0 - p;
    if q == 1.0 {
        // p below ~2^-53: `1 - p` rounded to 1. Success probability over n
        // trials is np < n·2^-53 — negligible next to shot noise.
        return 0;
    }
    let mut u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    if 1.0 - u > n as f64 * (1.0 - q) * NO_SUCCESS_SLACK {
        return 0;
    }
    let log_q = q.ln();
    let mut k = 0u64;
    let mut trials = 0.0f64;
    loop {
        // Trials consumed until (and including) the next success.
        let gap = (u.ln() / log_q).floor() + 1.0;
        trials += gap;
        if trials > n as f64 {
            return k;
        }
        k += 1;
        if k == n {
            return k;
        }
        u = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    }
}

/// One standard-normal draw via Box–Muller.
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// The skip path as it was before the no-success shortcut: a
    /// logarithm for every draw. The reference the shortcut must match.
    fn reference_binomial<R: Rng>(rng: &mut R, n: u64, p: f64) -> u64 {
        if p <= 0.0 || n == 0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        if p > 0.5 {
            return n - reference_binomial(rng, n, 1.0 - p);
        }
        let np = n as f64 * p;
        let var = np * (1.0 - p);
        if var > 1000.0 {
            let z = standard_normal(rng);
            let x = (np + z * var.sqrt()).round();
            return x.clamp(0.0, n as f64) as u64;
        }
        if n <= 64 {
            let mut k = 0u64;
            for _ in 0..n {
                if rng.gen::<f64>() < p {
                    k += 1;
                }
            }
            return k;
        }
        let log_q = (1.0 - p).ln();
        if log_q == 0.0 {
            return 0;
        }
        let mut k = 0u64;
        let mut trials = 0.0f64;
        loop {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let gap = (u.ln() / log_q).floor() + 1.0;
            trials += gap;
            if trials > n as f64 {
                return k;
            }
            k += 1;
            if k == n {
                return k;
            }
        }
    }

    /// A stream whose first word is chosen, then a seeded one.
    struct Scripted {
        first: Option<u64>,
        rest: StdRng,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.first.take().unwrap_or_else(|| self.rest.next_u64())
        }
    }

    /// `binomial` and the reference from equal streams: the same value,
    /// and the same draws consumed (the next word agrees).
    fn assert_matches_reference(make: impl Fn() -> Scripted, n: u64, p: f64) {
        let (mut a, mut b) = (make(), make());
        let what = format!("n {n}, p {p:e}");
        assert_eq!(binomial(&mut a, n, p), reference_binomial(&mut b, n, p), "{what}: value");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{what}: draws consumed");
    }

    /// `p` from 1e-15 to 0.5, 24 per decade, then a `p` whose `1 - p`
    /// rounds to 1.
    fn p_grid() -> impl Iterator<Item = f64> {
        (0..=24 * 15).map(|i| 0.5f64.min(1e-15 * 10f64.powf(f64::from(i) / 24.0))).chain([4e-17])
    }

    #[test]
    fn the_no_success_shortcut_is_the_skip_loop_bit_for_bit() {
        let mut bounds = (0, 0);
        for n in [65u64, 1_000, 10_000, 1_000_000] {
            for p in p_grid() {
                let y = n as f64 * (1.0 - (1.0 - p));
                if y < 1.0 {
                    bounds.0 += 1;
                } else {
                    bounds.1 += 1;
                }
                for seed in 0..6 {
                    let seeded = || Scripted { first: None, rest: StdRng::seed_from_u64(seed) };
                    assert_matches_reference(seeded, n, p);
                }
                // First uniforms on either side of the bound, unslacked
                // and slacked: `u = 1 − k·2^-53` for `k` around `y·2^53`.
                for edge in [y, y * NO_SUCCESS_SLACK].into_iter().filter(|&e| e < 1.0) {
                    let k0 = (edge * (1u64 << 53) as f64) as i64;
                    for k in (k0 - 3).max(0)..=k0 + 3 {
                        let word = ((1i64 << 53) - k) as u64;
                        let scripted = || Scripted {
                            first: Some(word.min((1 << 53) - 1) << 11),
                            rest: StdRng::seed_from_u64(k as u64),
                        };
                        assert_matches_reference(scripted, n, p);
                    }
                }
            }
        }
        assert!(bounds.0 > 0 && bounds.1 > 0, "the grid reaches both n(1-q) < 1 and ≥ 1");
    }

    #[test]
    fn a_wide_multinomial_draws_the_reference_counts() {
        // 2^16 bins at 10^5 shots: every block holds more shots than
        // bins and walks them, almost every bin on the skip path with
        // far fewer shots than bins, a few heavy ones on the others.
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let probs: Vec<f64> = (0..1 << 16)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let r = (x >> 11) as f64 / (1u64 << 53) as f64;
                match i % 4099 {
                    0 => 50.0 * r,
                    1 => 0.0,
                    _ => r * r * r,
                }
            })
            .collect();
        for seed in [1, 7, 42] {
            let got = multinomial(&probs, 100_000, seed);
            assert_eq!(got.iter().map(|&(_, c)| c).sum::<u64>(), 100_000);
            assert_eq!(got, multinomial_by(&probs, 100_000, seed, reference_binomial), "seed {seed}");
        }
    }

    #[test]
    fn multinomial_total_is_exact() {
        let probs = vec![0.1, 0.2, 0.3, 0.4];
        for shots in [0u64, 1, 100, 10_000, 1_000_000] {
            let draw = drawn(&probs, shots, 42);
            assert_eq!(draw.iter().sum::<u64>(), shots, "shots={shots}");
        }
    }

    #[test]
    fn multinomial_tracks_probabilities() {
        let probs = vec![0.5, 0.25, 0.125, 0.125];
        let shots = 1_000_000u64;
        let draw = drawn(&probs, shots, 7);
        for (i, &p) in probs.iter().enumerate() {
            let observed = draw[i] as f64 / shots as f64;
            // 5-sigma binomial tolerance.
            let sigma = (p * (1.0 - p) / shots as f64).sqrt();
            assert!(
                (observed - p).abs() < 5.0 * sigma + 1e-9,
                "bin {i}: observed {observed}, expected {p}"
            );
        }
    }

    #[test]
    fn multinomial_zero_probability_bins_stay_empty() {
        let probs = vec![0.0, 1.0, 0.0];
        let draw = drawn(&probs, 5000, 1);
        assert_eq!(draw, vec![0, 5000, 0]);
    }

    #[test]
    fn multinomial_handles_unnormalized_and_negative_noise() {
        // Simulates fp round-off: tiny negative values and sum != 1.
        let probs = vec![0.5000001, -1e-18, 0.4999999, 0.0];
        let draw = drawn(&probs, 10_000, 3);
        assert_eq!(draw.iter().sum::<u64>(), 10_000);
        assert_eq!(draw[1], 0);
    }

    #[test]
    fn multinomial_deterministic_per_seed() {
        let probs = vec![0.3, 0.7];
        assert_eq!(multinomial(&probs, 1000, 5), multinomial(&probs, 1000, 5));
        assert_ne!(multinomial(&probs, 100_000, 5), multinomial(&probs, 100_000, 6));
    }

    #[test]
    fn multinomial_survives_nan_probability() {
        // Regression for the NaN-unsafe `partial_cmp(..).unwrap()` in the
        // residue-argmax: a NaN bin must not panic, and the draw still
        // accounts for every shot.
        let probs = vec![0.5, f64::NAN, 0.5];
        let draw = drawn(&probs, 1000, 11);
        assert_eq!(draw.iter().sum::<u64>(), 1000);
    }

    /// [`multinomial`] as one count per outcome, zeros included.
    fn drawn(probs: &[f64], shots: u64, seed: u64) -> Vec<u64> {
        let mut out = vec![0; probs.len()];
        for (key, count) in multinomial(probs, shots, seed) {
            out[key as usize] += count;
        }
        out
    }

    /// Counts per outcome pooled over the draws of seeds `0..seeds`, each
    /// draw held to the pair contract: keys strictly increasing, counts
    /// positive and summing to `shots`.
    fn pooled(probs: &[f64], shots: u64, seeds: u64) -> Vec<u64> {
        let mut out = vec![0; probs.len()];
        for seed in 0..seeds {
            let draw = multinomial(probs, shots, seed);
            assert!(draw.windows(2).all(|w| w[0].0 < w[1].0), "keys in order, seed {seed}");
            assert!(draw.iter().all(|&(_, c)| c > 0), "counts positive, seed {seed}");
            assert_eq!(draw.iter().map(|&(_, c)| c).sum::<u64>(), shots, "seed {seed}");
            for (key, count) in draw {
                out[key as usize] += count;
            }
        }
        out
    }

    /// Exponential weights over `2^n` bins: a Porter–Thomas state.
    fn porter_thomas(n: u32) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(u64::from(n));
        (0..1usize << n).map(|_| -(1.0 - rng.gen::<f64>()).ln()).collect()
    }

    /// The chi-square grid's states over `2^n` bins.
    fn states(n: u32) -> Vec<(&'static str, Vec<f64>)> {
        let bins = 1usize << n;
        let mut rng = StdRng::seed_from_u64(u64::from(n) + 100);
        let mut one_hot = vec![0.0; bins];
        one_hot[bins * 5 / 7] = 1.0;
        // Pareto(1.1) weights, a third of the bins exactly zero, and all
        // of block 1 when there is one: a block of zero mass.
        let heavy = (0..bins)
            .map(|i| {
                let w = (1.0 - rng.gen::<f64>()).powf(-1.0 / 1.1);
                if i % 3 == 1 || i / BLOCK == 1 { 0.0 } else { w }
            })
            .collect();
        // Summing to about 1.85, with round-off negatives and NaNs.
        let noisy = (0..bins)
            .map(|i| match i % 15 {
                1 | 6 | 11 => -1e-18,
                3 => f64::NAN,
                _ => 3.7 * rng.gen::<f64>() / bins as f64,
            })
            .collect();
        vec![
            ("uniform", vec![1.0 / bins as f64; bins]),
            ("Porter-Thomas", porter_thomas(n)),
            ("one-hot", one_hot),
            ("heavy-tailed", heavy),
            ("unnormalized", noisy),
        ]
    }

    /// Pearson's chi-square of `observed` against `probs` (clamped at
    /// zero, NaN as zero, normalized) over the coarse cells `cell(i)` of
    /// `cells`, the cells expecting fewer than 5 shots pooled. Fails if a
    /// bin of zero probability was drawn, or if the statistic passes the
    /// 10⁻⁶ upper quantile of its chi-square law (Wilson–Hilferty).
    fn assert_chi_square(
        probs: &[f64],
        observed: &[u64],
        cells: usize,
        cell: impl Fn(usize) -> usize,
        what: &str,
    ) {
        let total = mass(probs);
        let shots = observed.iter().sum::<u64>() as f64;
        let (mut expect, mut got) = (vec![0.0; cells], vec![0.0; cells]);
        for (i, (&p, &o)) in probs.iter().zip(observed).enumerate() {
            assert!(p > 0.0 || o == 0, "{what}: bin {i} of probability {p} drew {o}");
            expect[cell(i)] += shots * p.max(0.0) / total;
            got[cell(i)] += o as f64;
        }
        let (mut sparse_e, mut sparse_o) = (0.0, 0.0);
        let mut kept: Vec<(f64, f64)> = Vec::new();
        for (e, o) in expect.into_iter().zip(got) {
            if e < 5.0 {
                (sparse_e, sparse_o) = (sparse_e + e, sparse_o + o);
            } else {
                kept.push((e, o));
            }
        }
        match kept.last_mut() {
            Some((e, o)) if sparse_e < 5.0 => (*e, *o) = (*e + sparse_e, *o + sparse_o),
            _ => kept.push((sparse_e, sparse_o)),
        }
        let df = kept.len() as f64 - 1.0;
        if df < 1.0 {
            return;
        }
        let stat: f64 = kept.iter().map(|&(e, o)| (o - e) * (o - e) / e).sum();
        let h = 2.0 / (9.0 * df);
        let bound = df * (1.0 - h + 4.75 * h.sqrt()).powi(3);
        assert!(stat < bound, "{what}: chi-square {stat:.1} over {df} df, bound {bound:.1}");
    }

    /// [`assert_chi_square`] over `cells` contiguous ranges (the block
    /// split) and `cells` residues (placement inside a block).
    fn assert_fits(probs: &[f64], observed: &[u64], cells: usize, what: &str) {
        let bins = probs.len();
        assert_chi_square(probs, observed, cells, |i| i * cells / bins, &format!("{what}, ranges"));
        assert_chi_square(probs, observed, cells, |i| i % cells, &format!("{what}, residues"));
    }

    #[test]
    fn the_draw_fits_exact_probabilities_on_every_state_size_and_shot_count() {
        // n = 10 is one block, n = 14 four: a split at level one, and
        // blocks placed on the pool.
        for n in [10, 14] {
            for (name, probs) in states(n) {
                for shots in [1u64, 10, 1_000, 10_000, 1_000_000] {
                    let seeds = (2_000 / shots).max(1);
                    let counts = pooled(&probs, shots, seeds);
                    assert_fits(&probs, &counts, 32, &format!("{name}, n = {n}, {shots} × {seeds}"));
                }
            }
        }
    }

    #[test]
    #[ignore = "10⁸ shots a draw; scripts/check.sh runs it in release"]
    fn a_hundred_million_shots_fit_exact_probabilities() {
        for n in [10, 14] {
            for (name, probs) in states(n) {
                let counts = pooled(&probs, 100_000_000, 2);
                assert_fits(&probs, &counts, 128, &format!("{name}, n = {n}"));
            }
        }
    }

    #[test]
    fn an_infinite_bin_takes_every_shot() {
        for n in [10, 14] {
            let bins = 1usize << n;
            let mut probs: Vec<f64> = (0..bins).map(|i| 1.0 + (i % 7) as f64).collect();
            let hot = bins * 3 / 4 + 5;
            probs[hot] = f64::INFINITY;
            for shots in [1, 10_000] {
                let draw = multinomial(&probs, shots, 5);
                assert_eq!(draw, [(hot as u64, shots)], "n = {n}, {shots} shots");
            }
        }
    }

    #[test]
    fn each_in_block_arm_runs_on_its_side_of_the_bin_count() {
        // A short block (8 bins) and a full one; `k = bins` merges sorted
        // uniforms, `k = bins + 1` walks the bins.
        for n in [3, 12] {
            let probs = porter_thomas(n);
            let (bins, m) = (probs.len() as u64, mass(&probs));
            for (k, merged) in [(bins, true), (bins + 1, false)] {
                for seed in 0..4 {
                    // One block: level one hands it every shot, no draw.
                    assert_eq!(split_over_blocks(&[m], k, seed, binomial), [k]);
                    let mut expect = vec![0; probs.len()];
                    let emit = |i: usize, c: u64| expect[i] += c;
                    let mut rng = StdRng::seed_from_u64(block_seed(seed, 0));
                    if merged {
                        merge(&probs, m, k, &mut rng, emit);
                    } else {
                        walk(&probs, m, k, &mut rng, binomial, emit);
                    }
                    assert_eq!(drawn(&probs, k, seed), expect, "n = {n}, k = {k}, seed {seed}");
                }
                let counts = pooled(&probs, k, 40);
                assert_fits(&probs, &counts, probs.len().min(64), &format!("n = {n}, k = {k}"));
            }
        }
    }

    /// The draw without the pool: masses, the split and every block's
    /// placement, in block order on the calling thread.
    fn serial_multinomial(probs: &[f64], shots: u64, seed: u64) -> Vec<(u64, u64)> {
        let masses: Vec<f64> = probs.chunks(BLOCK).map(mass).collect();
        let split = split_over_blocks(&masses, shots, seed, binomial);
        (0..masses.len()).flat_map(|b| place(probs, b, masses[b], split[b], seed, binomial)).collect()
    }

    fn assert_pooled_draw_is_serial(n: u32) {
        let probs = porter_thomas(n);
        for shots in [1, 1_000, 10_000, 1_000_000] {
            for seed in [0, 9] {
                let pooled = multinomial(&probs, shots, seed);
                assert!(pooled == serial_multinomial(&probs, shots, seed), "n = {n}, {shots} shots");
            }
        }
    }

    #[test]
    fn the_pooled_draw_is_the_serial_draw_bit_for_bit() {
        // n = 13 runs inline (two blocks), n = 16 on the pool.
        for n in [13, 16] {
            assert_pooled_draw_is_serial(n);
        }
    }

    #[test]
    #[ignore = "2²⁰ bins; scripts/check.sh runs it in release"]
    fn the_pooled_draw_is_the_serial_draw_bit_for_bit_at_twenty_qubits() {
        assert_pooled_draw_is_serial(20);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn binomial_mean_small_n() {
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 20_000;
        let (n, p) = (40u64, 0.3);
        let mean: f64 =
            (0..trials).map(|_| binomial(&mut rng, n, p) as f64).sum::<f64>() / trials as f64;
        assert!((mean - n as f64 * p).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn binomial_mean_large_n_normal_path() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, p) = (10_000_000u64, 0.25);
        let trials = 200;
        let mean: f64 =
            (0..trials).map(|_| binomial(&mut rng, n, p) as f64).sum::<f64>() / trials as f64;
        let expect = n as f64 * p;
        let sigma = (n as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (mean - expect).abs() < 5.0 * sigma / (trials as f64).sqrt(),
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn binomial_subnormal_p_returns_zero() {
        // Regression: p so small that `1 - p` rounds to 1.0 used to send
        // the geometric-skip loop to n (ln(1-p) underflowed to 0).
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(binomial(&mut rng, 192_000, 5e-35), 0);
        assert_eq!(binomial(&mut rng, u64::MAX / 2, 1e-300), 0);
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..2000 {
            let k = binomial(&mut rng, 100, 0.47);
            assert!(k <= 100);
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
