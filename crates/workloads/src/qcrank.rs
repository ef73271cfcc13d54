//! QCrank grayscale-image encoding (Appendix D.3, Fig. 5/6, Table 2).
//!
//! QCrank stores `n_data · 2^n_addr` pixel values in a quantum state: the
//! address register is put in uniform superposition and every data qubit
//! receives a *uniformly controlled Ry* whose `2^n_addr` angles carry one
//! pixel each. The Möttönen decomposition turns each UCRy into an
//! alternating `Ry`/`CX` chain with **one CX per pixel** — "the count of
//! the CX gate equal to the number of gray pixels in the input image"
//! (§3). Reconstruction reads ⟨Z⟩ of each data qubit conditioned on the
//! measured address.
//!
//! Pixel convention: value `v ∈ [-1, 1]` maps to angle `θ = arccos v`;
//! `Ry(θ)|0⟩` then satisfies `⟨Z⟩ = cos θ = v`, so the estimator is
//! `v̂ = (n₀ − n₁)/(n₀ + n₁)` per (address, data-qubit) cell.

use crate::images::GrayImage;
use qgear_ir::Circuit;
use qgear_statevec::Counts;

/// Shots per address used throughout Table 2 (`shots = s · 2^m`, s = 3000).
pub const SHOTS_PER_ADDRESS: u64 = 3000;

/// Register shape of a QCrank encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QcrankConfig {
    /// Address qubits (`m` in Table 2). Address register occupies qubits
    /// `0..addr_qubits`.
    pub addr_qubits: u32,
    /// Data qubits; data qubit `i` is circuit qubit `addr_qubits + i`.
    pub data_qubits: u32,
}

impl QcrankConfig {
    /// Pixel capacity `n_data · 2^n_addr`.
    pub fn capacity(&self) -> usize {
        (self.data_qubits as usize) << self.addr_qubits
    }

    /// Total register width.
    pub fn num_qubits(&self) -> u32 {
        self.addr_qubits + self.data_qubits
    }

    /// Table 2 shot budget for this address width: `3000 · 2^m`.
    pub fn shots(&self) -> u64 {
        SHOTS_PER_ADDRESS << self.addr_qubits
    }

    /// Smallest config with the given data width that fits `pixels`.
    pub fn fitting(pixels: usize, data_qubits: u32) -> QcrankConfig {
        let mut addr = 0u32;
        while ((data_qubits as usize) << addr) < pixels {
            addr += 1;
        }
        QcrankConfig { addr_qubits: addr, data_qubits }
    }
}

/// Gray code of `x`.
#[inline]
pub fn gray(x: usize) -> usize {
    x ^ (x >> 1)
}

/// Möttönen angle transform for a uniformly controlled Ry: maps the
/// per-address target angles `θ` (length `2^k`) to the chain angles `φ`
/// with `φ_j = 2^{-k} Σ_a (−1)^{⟨a, gray(j)⟩} θ_a`.
pub fn ucry_angles(theta: &[f64]) -> Vec<f64> {
    let n = theta.len();
    assert!(n.is_power_of_two(), "UCRy needs a power-of-two angle count");
    // φ_j = 2^{-k} Σ_a (−1)^{⟨a, gray(j)⟩} θ_a = 2^{-k} · WHT(θ)[gray(j)]:
    // one fast Walsh–Hadamard butterfly (O(k·2^k)) plus a Gray-code
    // permutation, instead of the naive O(4^k) double loop — the
    // difference between minutes and milliseconds at the Table 2 rows
    // with 2^15 addresses.
    let mut wht = theta.to_vec();
    let mut h = 1usize;
    while h < n {
        let mut i = 0;
        while i < n {
            for j in i..i + h {
                let x = wht[j];
                let y = wht[j + h];
                wht[j] = x + y;
                wht[j + h] = x - y;
            }
            i += h << 1;
        }
        h <<= 1;
    }
    let scale = 1.0 / n as f64;
    (0..n).map(|j| wht[gray(j)] * scale).collect()
}

/// Append a uniformly controlled Ry over `addr` controls onto `target`,
/// imposing `Ry(theta[a])` for each address basis state `a` (exactly —
/// verified against the dense reference in the tests). Emits `2^k` `Ry`
/// and `2^k` `CX` gates (none for `k = 0`, which is a plain `Ry`).
fn append_ucry(circ: &mut Circuit, addr: &[u32], target: u32, theta: &[f64]) {
    let k = addr.len();
    assert_eq!(theta.len(), 1usize << k, "need 2^k angles");
    if k == 0 {
        circ.ry(theta[0], target);
        return;
    }
    let phi = ucry_angles(theta);
    let n = phi.len();
    for (j, &angle) in phi.iter().enumerate() {
        circ.ry(angle, target);
        // The control is the bit where gray(j) and gray(j+1) differ;
        // the final CX (j = n-1) closes the cycle on the top bit.
        let ctrl_bit = if j == n - 1 { k - 1 } else { (j + 1).trailing_zeros() as usize };
        circ.cx(addr[ctrl_bit], target);
    }
}

/// The QCrank encoder/decoder.
#[derive(Debug, Clone, Copy)]
pub struct QcrankCodec {
    /// Register shape.
    pub config: QcrankConfig,
}

impl QcrankCodec {
    /// Create a codec for a config.
    pub fn new(config: QcrankConfig) -> Self {
        QcrankCodec { config }
    }

    /// Map pixel index to its (data-qubit, address) cell: data qubit
    /// `p >> addr_qubits`, address `p & (2^addr − 1)` — contiguous chunks
    /// of `2^addr` pixels per data qubit.
    fn cell_of(&self, pixel: usize) -> (u32, usize) {
        let per = 1usize << self.config.addr_qubits;
        ((pixel / per) as u32, pixel % per)
    }

    /// Build the encoding circuit for `values ∈ [-1, 1]`; shorter inputs
    /// are zero-padded (θ = π/2 encodes v = 0).
    ///
    /// # Panics
    ///
    /// Panics if `values` exceeds the configured capacity or contains
    /// values outside `[-1, 1]`.
    pub fn encode(&self, values: &[f64]) -> Circuit {
        let cfg = self.config;
        assert!(
            values.len() <= cfg.capacity(),
            "{} values exceed capacity {}",
            values.len(),
            cfg.capacity()
        );
        assert!(
            values.iter().all(|v| (-1.0..=1.0).contains(v)),
            "values must be normalized to [-1, 1]"
        );
        let per = 1usize << cfg.addr_qubits;
        let mut circ = Circuit::with_capacity(
            cfg.num_qubits(),
            format!("qcrank_{}a_{}d", cfg.addr_qubits, cfg.data_qubits),
            2 * cfg.capacity() + cfg.num_qubits() as usize * 2,
        );
        // Uniform superposition over addresses.
        for q in 0..cfg.addr_qubits {
            circ.h(q);
        }
        let addr: Vec<u32> = (0..cfg.addr_qubits).collect();
        for d in 0..cfg.data_qubits {
            let mut theta = vec![std::f64::consts::FRAC_PI_2; per];
            for (a, t) in theta.iter_mut().enumerate() {
                let p = (d as usize) * per + a;
                if p < values.len() {
                    *t = values[p].acos();
                }
            }
            append_ucry(&mut circ, &addr, cfg.addr_qubits + d, &theta);
        }
        circ.measure_all();
        circ
    }

    /// Encode a grayscale image (normalized internally).
    pub fn encode_image(&self, img: &GrayImage) -> Circuit {
        self.encode(&img.normalized())
    }

    /// Reconstruct values from measured counts (all qubits measured in
    /// register order, as produced by [`QcrankCodec::encode`]):
    /// `v̂ = (n₀ − n₁)/(n₀ + n₁)` per cell; cells with no shots decode
    /// to 0.
    pub fn decode(&self, counts: &Counts, num_values: usize) -> Vec<f64> {
        let cfg = self.config;
        assert!(num_values <= cfg.capacity());
        let per = 1usize << cfg.addr_qubits;
        let addr_mask = (per - 1) as u64;
        // diff[d][a] = n0 - n1; tot[d][a] = n0 + n1.
        let cells = cfg.data_qubits as usize * per;
        let mut diff = vec![0i64; cells];
        let mut tot = vec![0u64; cells];
        for (&key, &count) in counts.map.iter() {
            let a = (key & addr_mask) as usize;
            for d in 0..cfg.data_qubits as usize {
                let bit = (key >> (cfg.addr_qubits as usize + d)) & 1;
                let cell = d * per + a;
                tot[cell] += count;
                diff[cell] += if bit == 0 { count as i64 } else { -(count as i64) };
            }
        }
        (0..num_values)
            .map(|p| {
                let (d, a) = self.cell_of(p);
                let cell = d as usize * per + a;
                if tot[cell] == 0 {
                    0.0
                } else {
                    diff[cell] as f64 / tot[cell] as f64
                }
            })
            .collect()
    }

    /// Infinite-shot reconstruction straight from a state vector
    /// (verification path: with exact probabilities the decode must be
    /// exact up to floating point).
    pub fn decode_exact(&self, state: &qgear_statevec::StateVector<f64>, num_values: usize) -> Vec<f64> {
        let cfg = self.config;
        let per = 1usize << cfg.addr_qubits;
        let probs = state.probabilities();
        let mut diff = vec![0.0f64; cfg.data_qubits as usize * per];
        let mut tot = vec![0.0f64; cfg.data_qubits as usize * per];
        for (i, &p) in probs.iter().enumerate() {
            let a = i & (per - 1);
            for d in 0..cfg.data_qubits as usize {
                let bit = (i >> (cfg.addr_qubits as usize + d)) & 1;
                let cell = d * per + a;
                tot[cell] += p;
                diff[cell] += if bit == 0 { p } else { -p };
            }
        }
        (0..num_values)
            .map(|p| {
                let (d, a) = self.cell_of(p);
                let cell = d as usize * per + a;
                if tot[cell] <= 0.0 {
                    0.0
                } else {
                    diff[cell] / tot[cell]
                }
            })
            .collect()
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperImageConfig {
    /// Image name.
    pub image: &'static str,
    /// Width × height.
    pub dimensions: (u32, u32),
    /// Register shape.
    pub config: QcrankConfig,
}

impl PaperImageConfig {
    /// Pixel count.
    pub fn pixels(&self) -> usize {
        (self.dimensions.0 * self.dimensions.1) as usize
    }

    /// Table 2 shot budget.
    pub fn shots(&self) -> u64 {
        self.config.shots()
    }
}

/// The six rows of Table 2, including the three Zebra qubit splits.
pub fn paper_configs() -> Vec<PaperImageConfig> {
    vec![
        PaperImageConfig {
            image: "finger",
            dimensions: (64, 80),
            config: QcrankConfig { addr_qubits: 10, data_qubits: 5 },
        },
        PaperImageConfig {
            image: "shoes",
            dimensions: (128, 128),
            config: QcrankConfig { addr_qubits: 11, data_qubits: 8 },
        },
        PaperImageConfig {
            image: "building",
            dimensions: (192, 128),
            config: QcrankConfig { addr_qubits: 12, data_qubits: 6 },
        },
        PaperImageConfig {
            image: "zebra",
            dimensions: (384, 256),
            config: QcrankConfig { addr_qubits: 13, data_qubits: 12 },
        },
        PaperImageConfig {
            image: "zebra",
            dimensions: (384, 256),
            config: QcrankConfig { addr_qubits: 14, data_qubits: 6 },
        },
        PaperImageConfig {
            image: "zebra",
            dimensions: (384, 256),
            config: QcrankConfig { addr_qubits: 15, data_qubits: 3 },
        },
    ]
}

/// Pearson correlation between two value series (Fig. 6's reconstruction
/// correlation).
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Mean absolute reconstruction error.
pub fn mean_abs_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// Largest absolute residual (Fig. 6's residual encoding error tail).
pub fn max_abs_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::reference;
    use qgear_ir::GateKind;
    use qgear_num::gates;
    use qgear_statevec::{AerCpuBackend, RunOptions, Simulator};

    #[test]
    fn ucry_imposes_per_address_rotation() {
        // For every address basis state |a⟩, the target must end in
        // Ry(theta[a])|0⟩ exactly.
        let k = 3usize;
        let theta: Vec<f64> = (0..8).map(|i| 0.3 + 0.35 * i as f64).collect();
        for a in 0..8usize {
            let mut c = Circuit::new(k as u32 + 1);
            for bit in 0..k {
                if a & (1 << bit) != 0 {
                    c.x(bit as u32);
                }
            }
            let addr: Vec<u32> = (0..k as u32).collect();
            append_ucry(&mut c, &addr, k as u32, &theta);
            let state = reference::run(&c);
            // Expected: |a⟩ ⊗ Ry(theta[a])|0⟩.
            let ry = gates::ry::<f64>(theta[a]);
            let expect0 = ry.m[0][0];
            let expect1 = ry.m[1][0];
            let idx0 = a;
            let idx1 = a | (1 << k);
            assert!((state[idx0] - expect0).norm() < 1e-12, "a={a}");
            assert!((state[idx1] - expect1).norm() < 1e-12, "a={a}");
            // All other amplitudes vanish.
            for (i, amp) in state.iter().enumerate() {
                if i != idx0 && i != idx1 {
                    assert!(amp.norm() < 1e-12, "a={a}, i={i}");
                }
            }
        }
    }

    /// The naive O(4^k) transform, kept as the test oracle for
    /// [`ucry_angles`].
    fn ucry_angles_naive(theta: &[f64]) -> Vec<f64> {
        let n = theta.len();
        assert!(n.is_power_of_two());
        (0..n)
            .map(|j| {
                let gj = gray(j);
                let sum: f64 = theta
                    .iter()
                    .enumerate()
                    .map(|(a, &t)| if (a & gj).count_ones().is_multiple_of(2) { t } else { -t })
                    .sum();
                sum / n as f64
            })
            .collect()
    }

    #[test]
    fn fast_ucry_angles_match_naive_oracle() {
        for k in 0..=6u32 {
            let n = 1usize << k;
            let theta: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
            let fast = ucry_angles(&theta);
            let naive = ucry_angles_naive(&theta);
            for (a, b) in fast.iter().zip(&naive) {
                assert!((a - b).abs() < 1e-11, "k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn ucry_zero_controls_is_plain_ry() {
        let mut c = Circuit::new(1);
        append_ucry(&mut c, &[], 0, &[0.7]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.gates()[0].kind, GateKind::Ry);
    }

    #[test]
    fn cx_count_equals_pixel_count() {
        // §3: "the count of the CX gate equal to the number of gray pixels".
        let cfg = QcrankConfig { addr_qubits: 4, data_qubits: 3 };
        let codec = QcrankCodec::new(cfg);
        let values = vec![0.25; cfg.capacity()];
        let circ = codec.encode(&values);
        assert_eq!(circ.count_kind(GateKind::Cx), cfg.capacity());
        assert_eq!(circ.count_kind(GateKind::Ry), cfg.capacity());
    }

    #[test]
    fn exact_decode_roundtrip() {
        let cfg = QcrankConfig { addr_qubits: 3, data_qubits: 2 };
        let codec = QcrankCodec::new(cfg);
        let values: Vec<f64> = (0..cfg.capacity())
            .map(|i| (i as f64 / cfg.capacity() as f64) * 1.8 - 0.9)
            .collect();
        let circ = codec.encode(&values);
        let out: qgear_statevec::RunOutput<f64> =
            AerCpuBackend.run(&circ, &RunOptions::default()).unwrap();
        let decoded = codec.decode_exact(&out.state.unwrap(), values.len());
        for (i, (&v, &d)) in values.iter().zip(&decoded).enumerate() {
            assert!((v - d).abs() < 1e-10, "pixel {i}: {v} vs {d}");
        }
    }

    #[test]
    fn shot_decode_converges() {
        let cfg = QcrankConfig { addr_qubits: 3, data_qubits: 2 };
        let codec = QcrankCodec::new(cfg);
        let values: Vec<f64> = (0..cfg.capacity()).map(|i| ((i * 37) % 17) as f64 / 8.5 - 1.0).collect();
        let circ = codec.encode(&values);
        let opts = RunOptions { shots: cfg.shots() * 8, ..Default::default() };
        let out: qgear_statevec::RunOutput<f64> = AerCpuBackend.run(&circ, &opts).unwrap();
        let decoded = codec.decode(&out.counts.unwrap(), values.len());
        let err = mean_abs_error(&values, &decoded);
        assert!(err < 0.05, "mean abs error {err}");
        assert!(correlation(&values, &decoded) > 0.99);
    }

    #[test]
    fn error_scales_as_inverse_sqrt_shots() {
        let cfg = QcrankConfig { addr_qubits: 2, data_qubits: 2 };
        let codec = QcrankCodec::new(cfg);
        let values = vec![0.4, -0.2, 0.7, -0.6, 0.1, 0.9, -0.8, 0.3];
        let circ = codec.encode(&values);
        let mut errs = Vec::new();
        for &mult in &[1u64, 16] {
            // Average over seeds to tame variance.
            let mut total = 0.0;
            for seed in 0..6 {
                let opts = RunOptions {
                    shots: 2_000 * mult,
                    seed: 1000 + seed,
                    ..Default::default()
                };
                let out: qgear_statevec::RunOutput<f64> = AerCpuBackend.run(&circ, &opts).unwrap();
                total += mean_abs_error(&values, &codec.decode(&out.counts.unwrap(), values.len()));
            }
            errs.push(total / 6.0);
        }
        // 16x the shots should cut the error by about 4 (allow 2.2x–8x).
        let ratio = errs[0] / errs[1];
        assert!((2.2..8.0).contains(&ratio), "ratio {ratio}, errs {errs:?}");
    }

    #[test]
    fn padding_decodes_to_zero() {
        let cfg = QcrankConfig { addr_qubits: 3, data_qubits: 2 };
        let codec = QcrankCodec::new(cfg);
        let values = vec![0.5; 10]; // capacity is 16; 6 padded cells
        let circ = codec.encode(&values);
        let out: qgear_statevec::RunOutput<f64> =
            AerCpuBackend.run(&circ, &RunOptions::default()).unwrap();
        let state = out.state.unwrap();
        let full = codec.decode_exact(&state, cfg.capacity());
        for (i, &v) in full.iter().enumerate() {
            let expect = if i < 10 { 0.5 } else { 0.0 };
            assert!((v - expect).abs() < 1e-10, "cell {i}: {v}");
        }
    }

    #[test]
    #[should_panic(expected = "exceed capacity")]
    fn oversized_input_rejected() {
        let cfg = QcrankConfig { addr_qubits: 2, data_qubits: 1 };
        QcrankCodec::new(cfg).encode(&[0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn out_of_range_values_rejected() {
        let cfg = QcrankConfig { addr_qubits: 1, data_qubits: 1 };
        QcrankCodec::new(cfg).encode(&[1.5]);
    }

    #[test]
    fn table2_configs_consistent() {
        let rows = paper_configs();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            // Capacity fits the image exactly or with minimal padding.
            assert!(row.config.capacity() >= row.pixels(), "{}", row.image);
            assert!(row.config.capacity() == row.pixels(), "Table 2 splits are exact: {}", row.image);
        }
        // Shot budgets: 3M, 6M, 12M, 25M, 49M, 98M (s·2^m).
        let shots: Vec<u64> = rows.iter().map(|r| r.shots()).collect();
        assert_eq!(
            shots,
            vec![3_072_000, 6_144_000, 12_288_000, 24_576_000, 49_152_000, 98_304_000]
        );
        // Total qubits for the paper's range 15–25 (Table 1).
        for row in &rows {
            let n = row.config.num_qubits();
            assert!((15..=25).contains(&n), "{} has {n} qubits", row.image);
        }
    }

    #[test]
    fn metrics_basics() {
        let a = [1.0, 2.0, 3.0];
        assert!((correlation(&a, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((correlation(&a, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a, &[5.0, 5.0, 5.0]), 0.0);
        assert!((mean_abs_error(&a, &[2.0, 2.0, 2.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(max_abs_error(&a, &[2.0, 2.0, 2.0]), 1.0);
    }

    #[test]
    fn cell_mapping_chunks_per_data_qubit() {
        let codec = QcrankCodec::new(QcrankConfig { addr_qubits: 2, data_qubits: 3 });
        assert_eq!(codec.cell_of(0), (0, 0));
        assert_eq!(codec.cell_of(3), (0, 3));
        assert_eq!(codec.cell_of(4), (1, 0));
        assert_eq!(codec.cell_of(11), (2, 3));
    }
}
