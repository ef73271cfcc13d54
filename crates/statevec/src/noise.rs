//! Stochastic Pauli-trajectory noise.
//!
//! Instead of doubling memory with a density matrix, noisy execution is
//! approximated by averaging *trajectories*: each trajectory runs the
//! ideal circuit with Pauli errors inserted after each gate on its
//! operand qubits, drawn from the channel's Pauli probabilities. The mean
//! over trajectories converges to the Pauli-twirled channel — exact for
//! bit-flip, phase-flip and depolarizing noise, and the standard
//! Pauli-twirl approximation (PTA) for amplitude damping.
//!
//! Everything is deterministic by construction:
//!
//! * the requested shots are dealt across trajectories with the same
//!   [`sampling::multinomial`] the engines sample with;
//! * each trajectory derives its error-draw and sampling seeds from the
//!   master seed via SplitMix64, so trajectory `k` is the same circuit
//!   no matter how many threads execute the fan;
//! * histograms merge by commutative addition, so thread scheduling
//!   cannot change the result.
//!
//! [`TrajectoryBackend`] wraps **any** inner [`Simulator`] — dense
//! engines for general circuits, the stabilizer engine for Clifford
//! circuits (Pauli insertions are Clifford, so a Clifford circuit stays
//! stabilizer-simulable under this noise model).

use crate::backend::{Counts, ExecStats, RunOptions, RunOutput, SimError, Simulator};
use crate::sampling;
use qgear_ir::{Circuit, Gate, GateKind};
use qgear_num::Scalar;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One single-qubit noise channel, applied after each gate on each of the
/// gate's operand qubits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseChannel {
    /// X error with probability `p`.
    BitFlip {
        /// Error probability per gate-operand.
        p: f64,
    },
    /// Z error with probability `p`.
    PhaseFlip {
        /// Error probability per gate-operand.
        p: f64,
    },
    /// X, Y or Z each with probability `p/3`.
    Depolarizing {
        /// Total error probability per gate-operand.
        p: f64,
    },
    /// Amplitude damping of strength `gamma`, Pauli-twirl approximated:
    /// `p_x = p_y = γ/4`, `p_z = 1/2 − γ/4 − √(1−γ)/2`.
    AmplitudeDamping {
        /// Damping strength γ ∈ [0, 1].
        gamma: f64,
    },
}

impl NoiseChannel {
    /// The channel's `(p_x, p_y, p_z)` Pauli error probabilities.
    fn pauli_probs(&self) -> (f64, f64, f64) {
        match *self {
            NoiseChannel::BitFlip { p } => (p, 0.0, 0.0),
            NoiseChannel::PhaseFlip { p } => (0.0, 0.0, p),
            NoiseChannel::Depolarizing { p } => (p / 3.0, p / 3.0, p / 3.0),
            NoiseChannel::AmplitudeDamping { gamma } => {
                let px = gamma / 4.0;
                let pz = 0.5 - gamma / 4.0 - (1.0 - gamma).sqrt() / 2.0;
                (px, px, pz.max(0.0))
            }
        }
    }

    /// Total error probability (complement of the identity weight).
    fn error_probability(&self) -> f64 {
        let (px, py, pz) = self.pauli_probs();
        px + py + pz
    }
}

/// A noise model: channels applied in order after every gate, once per
/// operand qubit. Barriers and measurements are noiseless.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoiseModel {
    /// The channels, applied in order.
    pub channels: Vec<NoiseChannel>,
}

impl NoiseModel {
    /// A model with a single channel.
    pub fn single(channel: NoiseChannel) -> Self {
        NoiseModel { channels: vec![channel] }
    }

    /// True when no channel can ever insert an error.
    pub fn is_trivial(&self) -> bool {
        self.channels.iter().all(|c| c.error_probability() <= 0.0)
    }

    /// Draw the Pauli errors for one gate application: for each operand
    /// qubit and channel, at most one Pauli insertion.
    fn sample_errors(&self, gate: &Gate, rng: &mut StdRng, out: &mut Vec<Gate>) {
        if !gate.is_unitary_op() {
            return;
        }
        for &q in gate.operands() {
            for channel in &self.channels {
                let (px, py, pz) = channel.pauli_probs();
                let u: f64 = rng.gen();
                if u < px {
                    out.push(Gate::q1(GateKind::X, q));
                } else if u < px + py {
                    out.push(Gate::q1(GateKind::Y, q));
                } else if u < px + py + pz {
                    out.push(Gate::q1(GateKind::Z, q));
                }
            }
        }
    }

    /// Build trajectory `k`'s noisy circuit: the ideal gates with Pauli
    /// errors inserted after each, drawn from `error_seed`.
    fn noisy_circuit(&self, circuit: &Circuit, error_seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(error_seed);
        let mut out =
            Circuit::with_capacity(circuit.num_qubits(), circuit.name.clone(), circuit.gates().len());
        let mut errors = Vec::new();
        for g in circuit.gates() {
            out.push(*g).expect("source gate is valid");
            errors.clear();
            self.sample_errors(g, &mut rng, &mut errors);
            for e in &errors {
                out.push(*e).expect("noise gate targets a valid qubit");
            }
        }
        out
    }
}

/// SplitMix64 seed derivation (same scheme as the stabilizer engine's
/// per-shot seeds): deterministic, index-decorrelated.
fn derive_seed(master: u64, index: u64) -> u64 {
    let mut s = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separators so error draws, sampling seeds and the shot deal
/// never reuse RNG streams.
const DEAL_DOMAIN: u64 = 0xDEA1;
const ERROR_DOMAIN: u64 = 0xE440;
const SAMPLE_DOMAIN: u64 = 0x5A4D;

/// Noise-trajectory wrapper: fans `trajectories` noisy variants of the
/// circuit over an inner engine and merges their histograms.
#[derive(Debug, Clone)]
pub struct TrajectoryBackend<S> {
    /// The engine each trajectory runs on.
    pub inner: S,
    /// The noise model.
    pub model: NoiseModel,
    /// Number of trajectories to fan.
    pub trajectories: u32,
    /// Worker threads for the fan (1 = sequential). The result is
    /// identical for any value — the fan is deterministic per trajectory
    /// and merged commutatively.
    pub threads: usize,
}

impl<S> TrajectoryBackend<S> {
    /// Wrap `inner` with `model` over `trajectories` trajectories.
    pub fn new(inner: S, model: NoiseModel, trajectories: u32) -> Self {
        TrajectoryBackend { inner, model, trajectories, threads: 4 }
    }
}

/// One trajectory's merged outcome: its histogram plus engine counters.
type TrajectoryResult = Result<(Option<Counts>, ExecStats), SimError>;

/// Merge `src` into `dst` (commutative histogram addition).
fn merge_counts(dst: &mut Option<Counts>, src: Counts) {
    match dst {
        None => *dst = Some(src),
        Some(d) => {
            debug_assert_eq!(d.qubits, src.qubits);
            for (k, c) in src.map {
                *d.map.entry(k).or_insert(0) += c;
            }
        }
    }
}

impl<S> TrajectoryBackend<S> {
    /// Run the trajectory fan for one `(shots, seed)` request and return
    /// the merged histogram plus merged stats.
    fn run_fan<T: Scalar>(
        &self,
        circuit: &Circuit,
        opts: &RunOptions,
    ) -> Result<(Option<Counts>, ExecStats), SimError>
    where
        S: Simulator<T> + Sync,
    {
        let k = self.trajectories.max(1) as usize;
        // Deal the shots across trajectories with the engines' own
        // multinomial — same machinery, same determinism contract.
        let uniform = vec![1.0 / k as f64; k];
        let deal = sampling::multinomial(&uniform, opts.shots, derive_seed(opts.seed, DEAL_DOMAIN));
        if qgear_telemetry::is_enabled() {
            qgear_telemetry::counter_add(
                qgear_telemetry::names::TRAJECTORIES_REQUESTED,
                k as u128,
            );
        }
        let jobs: Vec<(usize, u64)> = deal
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, shots)| shots > 0)
            .collect();
        let run_one = |&(idx, shots): &(usize, u64)| -> TrajectoryResult {
            let error_seed = derive_seed(opts.seed ^ ERROR_DOMAIN, idx as u64);
            let sample_seed = derive_seed(opts.seed ^ SAMPLE_DOMAIN, idx as u64);
            let noisy = self.model.noisy_circuit(circuit, error_seed);
            let traj_opts = RunOptions {
                shots,
                seed: sample_seed,
                keep_state: false,
                ..opts.clone()
            };
            let out = self.inner.run(&noisy, &traj_opts)?;
            Ok((out.counts, out.stats))
        };
        let threads = self.threads.max(1).min(jobs.len().max(1));
        let results: Vec<TrajectoryResult> = if threads <= 1 {
            jobs.iter().map(run_one).collect()
        } else {
            // Deterministic fan: chunk the job list round-robin-free —
            // contiguous slices per thread, results stitched back in
            // index order so the merge below is reproducible regardless
            // of scheduling. (The merge is commutative anyway; ordering
            // just keeps error reporting stable.)
            let chunk = jobs.len().div_ceil(threads);
            let mut results: Vec<Option<TrajectoryResult>> =
                (0..jobs.len()).map(|_| None).collect();
            std::thread::scope(|scope| {
                for (slot, job_chunk) in results.chunks_mut(chunk).zip(jobs.chunks(chunk)) {
                    scope.spawn(move || {
                        for (s, j) in slot.iter_mut().zip(job_chunk) {
                            *s = Some(run_one(j));
                        }
                    });
                }
            });
            results.into_iter().map(|r| r.expect("every slot filled")).collect()
        };
        let mut merged: Option<Counts> = None;
        let mut stats = ExecStats::default();
        let mut executed = 0u128;
        for r in results {
            let (counts, s) = r?;
            stats.merge(&s);
            executed += 1;
            if let Some(c) = counts {
                merge_counts(&mut merged, c);
            }
        }
        if qgear_telemetry::is_enabled() {
            qgear_telemetry::counter_add(qgear_telemetry::names::TRAJECTORIES_RUN, executed);
        }
        Ok((merged, stats))
    }
}

impl<T: Scalar, S: Simulator<T> + Sync> Simulator<T> for TrajectoryBackend<S> {
    fn name(&self) -> &'static str {
        "trajectory"
    }

    /// Run the noisy circuit: trajectories fanned, histograms merged.
    /// The output never carries a state — a noisy run is a mixture, and
    /// no single state vector represents it.
    fn run(&self, circuit: &Circuit, opts: &RunOptions) -> Result<RunOutput<T>, SimError> {
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::TRAJECTORY_BATCH);
        let start = Instant::now();
        let (counts, mut stats) = self.run_fan(circuit, opts)?;
        stats.elapsed = start.elapsed();
        Ok(RunOutput { state: None, counts, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aer::AerCpuBackend;

    fn flip_circuit() -> Circuit {
        let mut c = Circuit::new(1);
        c.x(0).measure(0);
        c
    }

    #[test]
    fn noiseless_model_reproduces_ideal() {
        let model = NoiseModel::single(NoiseChannel::BitFlip { p: 0.0 });
        let backend = TrajectoryBackend::new(AerCpuBackend, model, 8);
        let opts = RunOptions { shots: 1000, seed: 5, ..Default::default() };
        let out: RunOutput<f64> = backend.run(&flip_circuit(), &opts).unwrap();
        let counts = out.counts.unwrap();
        assert_eq!(counts.total(), 1000);
        assert_eq!(counts.get(1), 1000, "x|0> must always read 1 without noise");
        assert!(out.state.is_none());
    }

    #[test]
    fn bit_flip_statistics_match_channel() {
        let p = 0.25;
        let model = NoiseModel::single(NoiseChannel::BitFlip { p });
        let backend = TrajectoryBackend::new(AerCpuBackend, model, 4000);
        let opts = RunOptions { shots: 4000, seed: 9, ..Default::default() };
        let out: RunOutput<f64> = backend.run(&flip_circuit(), &opts).unwrap();
        let counts = out.counts.unwrap();
        let observed = counts.probability(0);
        assert!(
            (observed - p).abs() < 0.02,
            "bit-flip rate {observed} vs channel {p}"
        );
    }

    #[test]
    fn deterministic_per_seed_and_thread_count() {
        let model = NoiseModel::single(NoiseChannel::Depolarizing { p: 0.1 });
        let opts = RunOptions { shots: 2000, seed: 77, ..Default::default() };
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let mut backend = TrajectoryBackend::new(AerCpuBackend, model.clone(), 64);
            backend.threads = threads;
            let out: RunOutput<f64> = backend.run(&flip_circuit(), &opts).unwrap();
            let map = out.counts.unwrap().map;
            match &reference {
                None => reference = Some(map),
                Some(r) => assert_eq!(&map, r, "threads={threads} changed the histogram"),
            }
        }
    }

    #[test]
    fn amplitude_damping_pta_probabilities() {
        let gamma = 0.2;
        let (px, py, pz) = NoiseChannel::AmplitudeDamping { gamma }.pauli_probs();
        assert!((px - 0.05).abs() < 1e-12);
        assert!((py - 0.05).abs() < 1e-12);
        let expect_z = 0.5 - 0.05 - (0.8f64).sqrt() / 2.0;
        assert!((pz - expect_z).abs() < 1e-12);
    }

    #[test]
    fn noisy_circuit_is_deterministic_per_seed() {
        let model = NoiseModel::single(NoiseChannel::Depolarizing { p: 0.5 });
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let a = model.noisy_circuit(&c, 123);
        let b = model.noisy_circuit(&c, 123);
        assert_eq!(a.gates(), b.gates());
        let other = model.noisy_circuit(&c, 124);
        assert_ne!(a.gates(), other.gates(), "different seeds draw different errors");
        // Noise never lands after measurements.
        let idx_measure = a.gates().iter().position(|g| g.kind == GateKind::Measure).unwrap();
        assert!(a.gates()[idx_measure..].iter().all(|g| g.kind == GateKind::Measure));
    }
}
