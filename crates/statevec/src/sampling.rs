//! Born-rule shot sampling.
//!
//! The QCrank experiments draw up to 98 M shots (Table 2), so per-shot
//! inverse-CDF sampling is far too slow. We sample the full multinomial
//! with the *conditional binomial* method: walk the outcome bins once,
//! drawing `Binomial(remaining_shots, p_i / remaining_mass)` for each —
//! O(bins) regardless of the shot count. A binomial is a sum of Bernoulli
//! draws for `n ≤ 64`, a normal approximation once its variance passes
//! 1000 (error far below shot noise at these magnitudes), and geometric
//! skips between successes otherwise. Most bins of a wide register draw
//! nothing (10⁴ shots over 2²⁰ bins), and the skip path answers those
//! from its first uniform without a logarithm: `u` below `1 − n(1−q)`
//! lies below `qⁿ` by Bernoulli's inequality, so the first skip already
//! passes `n` — see `binomial` for the bound's slack.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw a multinomial sample: `out[i]` counts of outcome `i`, summing to
/// `shots`. Probabilities are normalized defensively; slightly negative
/// inputs (fp round-off) are clamped to zero.
pub fn multinomial(probs: &[f64], shots: u64, seed: u64) -> Vec<u64> {
    multinomial_by(probs, shots, seed, binomial)
}

/// [`multinomial`] with the binomial sampler as a parameter, so the unit
/// tests can replay a draw with a reference sampler.
fn multinomial_by(
    probs: &[f64],
    shots: u64,
    seed: u64,
    binomial: impl Fn(&mut StdRng, u64, f64) -> u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0u64; probs.len()];
    let total_mass: f64 = probs.iter().map(|&p| p.max(0.0)).sum();
    if total_mass <= 0.0 || shots == 0 {
        return out;
    }
    let mut remaining_mass = total_mass;
    let mut remaining = shots;
    for (i, &p_raw) in probs.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let p = p_raw.max(0.0);
        if p <= 0.0 {
            continue;
        }
        if p >= remaining_mass {
            // Numerical tail: everything left lands here.
            out[i] = remaining;
            remaining = 0;
            break;
        }
        let cond = (p / remaining_mass).clamp(0.0, 1.0);
        let draw = binomial(&mut rng, remaining, cond);
        out[i] = draw;
        remaining -= draw;
        remaining_mass -= p;
    }
    // Distribute any numerical residue onto the most probable bin.
    // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN smuggled in by an
    // upstream overflow must not panic the sampler mid-service (NaN orders
    // above every finite value in IEEE total order, and a NaN-argmax bin
    // is as good a residue sink as any).
    if remaining > 0 {
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        out[argmax] += remaining;
    }
    out
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

    /// The outcome histogram — one conditional-binomial multinomial draw
    /// from the master seed.
    pub fn histogram(&self, probs: &[f64]) -> Vec<u64> {
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
        // 2^16 bins at 10^4 shots: almost every bin takes the skip path
        // with far fewer shots than bins, a few heavy ones the others.
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
            let got = multinomial(&probs, 10_000, seed);
            assert_eq!(got.iter().sum::<u64>(), 10_000);
            assert_eq!(got, multinomial_by(&probs, 10_000, seed, reference_binomial), "seed {seed}");
        }
    }

    #[test]
    fn multinomial_total_is_exact() {
        let probs = vec![0.1, 0.2, 0.3, 0.4];
        for shots in [0u64, 1, 100, 10_000, 1_000_000] {
            let draw = multinomial(&probs, shots, 42);
            assert_eq!(draw.iter().sum::<u64>(), shots, "shots={shots}");
        }
    }

    #[test]
    fn multinomial_tracks_probabilities() {
        let probs = vec![0.5, 0.25, 0.125, 0.125];
        let shots = 1_000_000u64;
        let draw = multinomial(&probs, shots, 7);
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
        let draw = multinomial(&probs, 5000, 1);
        assert_eq!(draw, vec![0, 5000, 0]);
    }

    #[test]
    fn multinomial_handles_unnormalized_and_negative_noise() {
        // Simulates fp round-off: tiny negative values and sum != 1.
        let probs = vec![0.5000001, -1e-18, 0.4999999, 0.0];
        let draw = multinomial(&probs, 10_000, 3);
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
        let draw = multinomial(&probs, 1000, 11);
        assert_eq!(draw.iter().sum::<u64>(), 1000);
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
