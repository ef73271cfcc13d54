//! The simulator interface shared by every engine.

use crate::gpu::min_items;
use crate::sampling;
use crate::state::StateVector;
use qgear_ir::Circuit;
use qgear_num::{Complex, Scalar};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Errors an engine can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The state vector would exceed the configured memory limit — the
    /// failure mode Fig. 4a shows at 34 qubits on the CPU node and 33 on a
    /// single 40 GB A100.
    OutOfMemory {
        /// Bytes the state would need.
        required: u128,
        /// Configured limit.
        limit: u128,
    },
    /// Circuit contains gates the engine cannot execute directly.
    UnsupportedGate(String),
    /// Register too wide for this build's address space.
    TooManyQubits(u32),
    /// A multi-device engine lost an inter-device exchange (partner died
    /// or the payload failed its integrity check). The partitioned state
    /// is unusable; callers recover from a checkpoint or restart.
    Interconnect(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory { required, limit } => {
                write!(f, "state needs {required} B but device holds {limit} B")
            }
            SimError::UnsupportedGate(g) => write!(f, "unsupported gate: {g}"),
            SimError::TooManyQubits(n) => write!(f, "{n} qubits exceed the address space"),
            SimError::Interconnect(msg) => write!(f, "interconnect failure: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Execution options shared by all engines.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Shots to sample from the final state (0 = no sampling).
    pub shots: u64,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Gate-fusion window for kernel-based engines (the paper's
    /// `gate fusion = 5`); ignored by the per-gate plan (the unfused
    /// baseline, and the `Unfused` pin).
    pub fusion_width: usize,
    /// Union-support cap (qubits) for the commutation-aware sweep
    /// scheduler: fused kernels are grouped into cache-blocked sweeps
    /// whose tiles hold `2^sweep_width` amplitudes, one plan segment per
    /// sweep. `0` means no grouping — one segment per fused block in
    /// program order, priced or pinned to `Sweep` (the exact
    /// kernel-at-a-time reference schedule under the default pin);
    /// ignored by the per-gate plan.
    pub sweep_width: usize,
    /// Allow the sweep scheduler to move kernels past *commuting*
    /// neighbours into earlier sweeps. `false` restricts it to grouping
    /// adjacent kernels, which keeps execution bit-identical to the
    /// plain fused path (reordered execution is equal only up to fp
    /// round-off); ignored by the per-gate plan.
    pub sweep_reorder: bool,
    /// Keep the final state in the output (costs memory).
    pub keep_state: bool,
    /// Simulated device memory in bytes; `None` disables the check.
    /// Set to 40 GB to reproduce the single-A100 limit, 460 GB for the
    /// CPU-node limit.
    pub memory_limit: Option<u128>,
    /// The plan selector of the simulated-GPU engines (see
    /// [`crate::planner`], whose own constants price a width). The
    /// default pins
    /// [`SegmentMode::Sweep`](crate::planner::SegmentMode): every kernel
    /// fused at `fusion_width`. [`PlannerCosts::host_reference`] — what
    /// the serving layer runs a dense job with — re-fuses the
    /// compute-bound kernels of a register above the crossover narrower
    /// where the model prices that cheaper, and is the pin's plan below
    /// it.
    ///
    /// ```
    /// use qgear_statevec::{GpuDevice, PlannerCosts, RunOptions, RunOutput, Simulator};
    /// let mut c = qgear_ir::Circuit::new(3);
    /// c.h(0).cx(0, 1).cx(1, 2);
    /// let priced = RunOptions { planner_costs: PlannerCosts::host_reference(), ..Default::default() };
    /// let out: RunOutput<f64> = GpuDevice::default().run(&c, &priced).unwrap();
    /// assert!(out.state.is_some());
    /// ```
    ///
    /// [`PlannerCosts::host_reference`]: crate::planner::PlannerCosts::host_reference
    pub planner_costs: crate::planner::PlannerCosts,
}

impl RunOptions {
    /// The sampling knobs as the samplers take them.
    pub fn sampling(&self) -> sampling::SamplingConfig {
        sampling::SamplingConfig::single(self.shots, self.seed)
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            shots: 0,
            seed: 0x5EED_0001,
            fusion_width: qgear_ir::fusion::DEFAULT_FUSION_WIDTH,
            sweep_width: qgear_ir::schedule::DEFAULT_SWEEP_WIDTH,
            sweep_reorder: true,
            keep_state: true,
            memory_limit: None,
            planner_costs: crate::planner::PlannerCosts::pinned(crate::planner::SegmentMode::Sweep),
        }
    }
}

/// Operation counters captured during a run. The performance model
/// converts these into projected wall-clock on the paper's hardware; the
/// `elapsed` field is the *real* wall-clock on this machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Source gates processed (pre-fusion).
    pub gates_applied: u64,
    /// Kernels launched (fused blocks, or gates for the unfused baseline).
    pub kernels_launched: u64,
    /// State passes made by sweep-mode plan segments (a one-kernel
    /// segment is one pass). Zero when nothing ran in sweep mode: the
    /// unfused baseline, `Unfused` segments, the cluster engine.
    pub sweeps_executed: u64,
    /// State-vector bytes read + written across all sweeps.
    pub bytes_touched: u128,
    /// Complex multiply-adds performed by kernels.
    pub flops: u128,
    /// Real elapsed wall time of the unitary phase.
    pub elapsed: Duration,
    /// Real elapsed wall time of the sampling phase.
    pub sampling_elapsed: Duration,
    /// Inter-device communication bytes by link class:
    /// `[intra-node, inter-node, inter-rack]`. Zero for single-device runs.
    pub comm_bytes: [u128; 3],
    /// Inter-device messages sent.
    pub comm_messages: u64,
}

/// Measurement outcome histogram over an ordered qubit subset.
/// Keys pack `qubits[j]`'s outcome into bit `j`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// The measured qubits, in key-bit order.
    pub qubits: Vec<u32>,
    /// Outcome → occurrence count, iterated in key order. An ordered
    /// map because a served histogram is retained: collected from sorted
    /// pairs its nodes are packed full, about half a hash table's bytes
    /// per outcome (docs/SERVING.md § "What a retained outcome costs").
    pub map: BTreeMap<u64, u64>,
}

impl Counts {
    /// Total shots recorded.
    pub fn total(&self) -> u64 {
        self.map.values().sum()
    }

    /// Count for one outcome key.
    pub fn get(&self, key: u64) -> u64 {
        self.map.get(&key).copied().unwrap_or(0)
    }

    /// Estimated probability of an outcome.
    pub fn probability(&self, key: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(key) as f64 / total as f64
        }
    }
}

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct RunOutput<T: Scalar> {
    /// Final state (if `keep_state` was set).
    pub state: Option<StateVector<T>>,
    /// Sampled counts (if `shots > 0` and the circuit measures qubits).
    pub counts: Option<Counts>,
    /// Operation counters and timings.
    pub stats: ExecStats,
}

/// A state-vector engine: evolves `|0…0⟩` through a circuit and samples.
pub trait Simulator<T: Scalar> {
    /// Engine name, matching the paper's backend labels where applicable.
    fn name(&self) -> &'static str;

    /// Execute the circuit.
    fn run(&self, circuit: &Circuit, opts: &RunOptions) -> Result<RunOutput<T>, SimError>;
}

/// Shared pre-flight checks: width vs address space and memory limit.
pub(crate) fn check_capacity<T: Scalar>(
    num_qubits: u32,
    memory_limit: Option<u128>,
) -> Result<(), SimError> {
    if num_qubits >= usize::BITS - 1 {
        return Err(SimError::TooManyQubits(num_qubits));
    }
    if let Some(limit) = memory_limit {
        let required = (1u128 << num_qubits) * 2 * T::BYTES as u128;
        if required > limit {
            return Err(SimError::OutOfMemory { required, limit });
        }
    }
    Ok(())
}

/// [`marginal_of_runs`] of a state resident in one piece: the register is
/// one run.
pub fn marginal_probs<T: Scalar>(state: &StateVector<T>, measured: &[u32]) -> Vec<f64> {
    marginal_of_runs(std::iter::once(state.amplitudes()), state.num_qubits(), measured)
}

/// The exact measurement marginal as `f64` probabilities, read from the
/// register's amplitudes in logical order, run after run, `2^num_qubits`
/// in all: one run for a resident state, a partitioned state's slices
/// walked in place (`DistributedState::logical_runs` in `qgear-cluster`)
/// — nothing is gathered first. `measured[j]` is bit `j` of the outcome
/// index.
///
/// This is the **one** marginal and the single conversion point between
/// execution precision and sampling: each probability is summed in
/// execution precision, amplitude by amplitude in logical order, then
/// widened once. Every sampler (direct runs, the cluster engine, the
/// serving layer and its marginal cache) goes through here, so where the
/// amplitudes lie changes no bit, and replaying a cached marginal is
/// bit-identical to re-simulating.
pub fn marginal_of_runs<'a, T: Scalar>(
    runs: impl IntoIterator<Item = &'a [Complex<T>]>,
    num_qubits: u32,
    measured: &[u32],
) -> Vec<f64> {
    let m = measured.len();
    assert!(m <= 30, "marginal over too many qubits");
    if m == num_qubits as usize && measured.iter().enumerate().all(|(j, &q)| q as usize == j) {
        // Every qubit, in order (`measure_all`): the key is the index and
        // each slot gets exactly one term, so the pass is an element-wise
        // fill split across the kernel pool — the bits of the general
        // loop, whose `+0.0 + x` is `x` for every `x ≥ +0.0`.
        const CHUNK: usize = 4096;
        let mut out = vec![0.0; 1usize << num_qubits];
        let mut rest = out.as_mut_slice();
        for run in runs {
            let (now, later) = rest.split_at_mut(run.len());
            now.par_chunks_mut(CHUNK).with_min_len(min_items::<T>(CHUNK)).enumerate().for_each(
                |(ci, probs)| {
                    for (p, a) in probs.iter_mut().zip(&run[ci * CHUNK..]) {
                        *p = a.norm_sqr().to_f64();
                    }
                },
            );
            rest = later;
        }
        return out;
    }
    // The general marginal: every amplitude's key assembled bit by bit
    // from its logical index.
    let mut out = vec![T::ZERO; 1usize << m];
    let mut i = 0usize;
    for run in runs {
        for a in run {
            let mut key = 0usize;
            for (j, &q) in measured.iter().enumerate() {
                key |= ((i >> q) & 1) << j;
            }
            out[key] += a.norm_sqr();
            i += 1;
        }
    }
    out.into_iter().map(|p| p.to_f64()).collect()
}

/// Draw one request's histogram from a prepared marginal. Returns `None`
/// for zero-shot requests or an empty measured set.
pub fn sample_from_probs(
    probs: &[f64],
    measured: &[u32],
    cfg: &sampling::SamplingConfig,
) -> Option<Counts> {
    if cfg.shots == 0 || measured.is_empty() {
        return None;
    }
    let pairs = cfg.histogram(probs);
    qgear_telemetry::counter_add(qgear_telemetry::names::SHOTS_SAMPLED, cfg.shots as u128);
    // Collected in key order: the map is bulk-built, every node full.
    Some(Counts { qubits: measured.to_vec(), map: pairs.into_iter().collect() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_check_enforces_limit() {
        let limit = Some(1024);
        // 6 qubits fp64 = 64 * 16 = 1024 B: exactly fits.
        assert!(check_capacity::<f64>(6, limit).is_ok());
        // 7 qubits = 2048 B: rejected.
        assert_eq!(
            check_capacity::<f64>(7, limit),
            Err(SimError::OutOfMemory { required: 2048, limit: 1024 })
        );
        // fp32 halves the footprint: 7 qubits fit.
        assert!(check_capacity::<f32>(7, limit).is_ok());
    }

    #[test]
    fn capacity_check_paper_limits() {
        // Single A100: 40 GB. fp32 32 qubits = 34.4 GB fits; 33 does not.
        let a100 = Some(40_000_000_000);
        assert!(check_capacity::<f32>(32, a100).is_ok());
        assert!(matches!(
            check_capacity::<f32>(33, a100),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    /// The reference: every amplitude's key assembled bit by bit, summed
    /// in execution precision, widened at the end.
    fn by_key<T: Scalar>(amps: &[Complex<T>], measured: &[u32]) -> Vec<u64> {
        let mut out = vec![T::ZERO; 1usize << measured.len()];
        for (i, a) in amps.iter().enumerate() {
            let key: usize = measured.iter().enumerate().map(|(j, &q)| ((i >> q) & 1) << j).sum();
            out[key] += a.norm_sqr();
        }
        out.iter().map(|p| p.to_f64().to_bits()).collect()
    }

    #[test]
    fn marginal_distribution() {
        // Uniform 2-qubit state: marginal over qubit 1 alone = [0.5, 0.5].
        let s = StateVector::from_amplitudes(vec![qgear_num::C64::from_re(0.5); 4]);
        assert_eq!(marginal_probs(&s, &[1]), [0.5, 0.5]);
        // Over both, reversed order: index bit 0 = qubit 1.
        assert_eq!(marginal_probs(&s, &[1, 0]), [0.25; 4]);
    }

    #[test]
    fn every_measured_set_and_run_length_is_the_general_loop_bit_for_bit() {
        fn check<T: Scalar>(n: u32) {
            // Exact zeros of both signs among the amplitudes.
            let amps: Vec<Complex<T>> = (0..1usize << n)
                .map(|i| {
                    let v = |x: f64| match i % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => x,
                    };
                    let (re, im) = (v((i as f64 * 0.37).sin()), v((i as f64 * 0.11).cos()));
                    Complex::new(T::from_f64(re), T::from_f64(im))
                })
                .collect();
            let state = StateVector::from_amplitudes(amps.clone());
            let all: Vec<u32> = (0..n).collect();
            let reversed: Vec<u32> = (0..n).rev().collect();
            // Complete in order (the element-wise fill), complete out of
            // order, partial and permuted (the general loop).
            let sets: [&[u32]; 4] = [&all, &reversed, &[n - 1, 0, 1], &[1]];
            for measured in sets {
                let expect = by_key(&amps, measured);
                let bits = |probs: Vec<f64>| probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                let label = format!("n = {n} {} {measured:?}", T::PRECISION_NAME);
                assert!(bits(marginal_probs(&state, measured)) == expect, "{label}, one run");
                for run in [16, 1] {
                    let got = bits(marginal_of_runs(amps.chunks(run), n, measured));
                    assert!(got == expect, "{label}, runs of {run}");
                }
            }
        }
        // n = 3 runs inline; n = 16 is 512 KiB / 1 MiB of state, pooled.
        for n in [3, 16] {
            check::<f32>(n);
            check::<f64>(n);
        }
    }

    #[test]
    fn counts_arithmetic() {
        let mut c = Counts { qubits: vec![0, 1], map: BTreeMap::new() };
        c.map.insert(0, 75);
        c.map.insert(3, 25);
        assert_eq!(c.total(), 100);
        assert_eq!(c.get(3), 25);
        assert_eq!(c.get(1), 0);
        assert!((c.probability(0) - 0.75).abs() < 1e-12);
    }
}
