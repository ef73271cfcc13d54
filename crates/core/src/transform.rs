//! The Q-Gear transformation pipeline (§2.1–§2.2) and execution front end.

use crate::result::RunResult;
use crate::target::Target;
use crate::PennylaneLikeBackend;
use qgear_cluster::ClusterEngine;
use qgear_ir::fusion::{self, FusedProgram};
use qgear_ir::transpile::{self, TranspileOptions};
use qgear_ir::{Circuit, IrError, TensorEncoding};
use qgear_num::scalar::Precision;
use qgear_num::Scalar;
use qgear_perfmodel::project::ProjectOptions;
use qgear_perfmodel::{project_circuit, CostModel, TimeBreakdown};
use qgear_statevec::{AerCpuBackend, GpuDevice, RunOptions, RunOutput, SimError, Simulator};

/// Pipeline configuration: what the paper's Slurm scripts pass on the
/// command line (target, precision, shots, fusion) plus engine knobs.
#[derive(Debug, Clone)]
pub struct QGearConfig {
    /// Execution target.
    pub target: Target,
    /// Numeric precision (CUDA-Q `fp32`/`fp64` option).
    pub precision: Precision,
    /// Gate-fusion window (Appendix D.2: `gate fusion = 5`).
    pub fusion_width: usize,
    /// Shots to sample (0 = state-only).
    pub shots: u64,
    /// Sampling seed.
    pub seed: u64,
    /// AQFT-style small-angle pruning threshold.
    pub prune_eps: Option<f64>,
    /// Keep the final state in results.
    pub keep_state: bool,
    /// Override the simulated device memory (None = device default).
    pub memory_limit: Option<u128>,
    /// Performance model used for testbed projections.
    pub model: CostModel,
}

impl Default for QGearConfig {
    fn default() -> Self {
        QGearConfig {
            target: Target::default(),
            precision: Precision::Fp32,
            fusion_width: fusion::DEFAULT_FUSION_WIDTH,
            shots: 0,
            seed: 0x51_6E_A5,
            prune_eps: None,
            keep_state: true,
            memory_limit: None,
            model: CostModel::paper_testbed(),
        }
    }
}

/// Everything the transformation step produces before execution — the
/// "kernel circuits" of Fig. 2(b) plus provenance.
#[derive(Debug, Clone)]
pub struct TransformArtifacts {
    /// The native-set circuit after transpilation.
    pub native: Circuit,
    /// Global phase `φ` with `U_native = e^{-iφ} U_input`.
    pub global_phase: f64,
    /// Rotations removed by small-angle pruning.
    pub pruned: usize,
    /// Gates removed by rotation merging.
    pub merged: usize,
    /// The §2.1 tensor encoding of the native circuit.
    pub encoding: TensorEncoding,
    /// The fused kernel program (§2.2).
    pub program: FusedProgram,
}

impl TransformArtifacts {
    /// Gates-per-kernel ratio achieved by fusion.
    pub fn compression_ratio(&self) -> f64 {
        self.program.compression_ratio()
    }
}

/// Errors from the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// IR/encoding failure.
    Ir(IrError),
    /// Kernel-transformation failure (unsupported arity, bad window).
    Fusion(qgear_ir::FusionError),
    /// Engine failure (OOM, unsupported gate).
    Sim(SimError),
    /// Target/batch shape mismatch.
    Usage(String),
}

impl From<IrError> for PipelineError {
    fn from(e: IrError) -> Self {
        PipelineError::Ir(e)
    }
}

impl From<qgear_ir::FusionError> for PipelineError {
    fn from(e: qgear_ir::FusionError) -> Self {
        PipelineError::Fusion(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Ir(e) => write!(f, "ir error: {e}"),
            PipelineError::Fusion(e) => write!(f, "fusion error: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation error: {e}"),
            PipelineError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The Q-Gear framework object.
#[derive(Debug, Clone)]
pub struct QGear {
    config: QGearConfig,
}

impl QGear {
    /// Create a pipeline with the given configuration.
    pub fn new(config: QGearConfig) -> Self {
        QGear { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &QGearConfig {
        &self.config
    }

    /// Run the §2.1–§2.2 transformation: transpile to the native set,
    /// tensor-encode, round-trip through the encoding (proving the stored
    /// form is executable), and fuse into kernels.
    pub fn transform(&self, circuit: &Circuit) -> Result<TransformArtifacts, PipelineError> {
        let opts = TranspileOptions {
            decompose: true,
            merge: true,
            prune_eps: self.config.prune_eps,
        };
        let transpile_span = qgear_telemetry::span!(qgear_telemetry::names::spans::TRANSPILE);
        let out = transpile::transpile(circuit, opts);
        drop(transpile_span);
        let encode_span = qgear_telemetry::span!(qgear_telemetry::names::spans::ENCODE);
        let encoding = TensorEncoding::encode(std::slice::from_ref(&out.circuit), None)?;
        // Decode back: execution consumes the *decoded* circuit, so any
        // encoding defect would be caught by the equivalence tests rather
        // than silently shipping a different unitary.
        let decoded = encoding.decode_one(0)?;
        drop(encode_span);
        let (unitary, _) = decoded.split_measurements();
        let program = fusion::try_fuse(&unitary, self.config.fusion_width)?;
        Ok(TransformArtifacts {
            native: decoded,
            global_phase: out.global_phase,
            pruned: out.pruned,
            merged: out.merged,
            encoding,
            program,
        })
    }

    fn simulate<T: Scalar>(&self, circuit: &Circuit, seed: u64) -> Result<RunOutput<T>, SimError> {
        let opts = RunOptions {
            shots: self.config.shots,
            seed,
            fusion_width: self.config.fusion_width,
            keep_state: self.config.keep_state,
            memory_limit: self.config.memory_limit,
            // Sweep scheduling rides on the engine defaults (sweeps on).
            ..RunOptions::default()
        };
        match self.config.target {
            Target::QiskitAerCpu => AerCpuBackend.run(circuit, &opts),
            Target::Nvidia => GpuDevice::a100_40gb().run(circuit, &opts),
            Target::NvidiaMgpu { devices } => {
                ClusterEngine::a100_cluster(devices).run(circuit, &opts)
            }
            Target::NvidiaMqpu { .. } => GpuDevice::a100_40gb().run(circuit, &opts),
            Target::PennylaneLightningGpu => PennylaneLikeBackend::default().run(circuit, &opts),
        }
    }

    /// Simulate a prepared circuit at the configured precision, sampling
    /// with `seed`.
    fn execute(
        &self,
        circuit: &Circuit,
        seed: u64,
        modeled: TimeBreakdown,
        global_phase: f64,
    ) -> Result<RunResult, PipelineError> {
        Ok(match self.config.precision {
            Precision::Fp32 => {
                let out: RunOutput<f32> = self.simulate(circuit, seed)?;
                RunResult::from_output(out, modeled, Precision::Fp32, global_phase)
            }
            Precision::Fp64 => {
                let out: RunOutput<f64> = self.simulate(circuit, seed)?;
                RunResult::from_output(out, modeled, Precision::Fp64, global_phase)
            }
        })
    }

    /// Project the testbed wall-clock for a circuit on this configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError::Fusion`] when the circuit cannot be
    /// fused (e.g. arity-3 gates that were never lowered).
    pub fn project(&self, native: &Circuit) -> Result<TimeBreakdown, PipelineError> {
        Ok(project_circuit(
            &self.config.model,
            native,
            self.config.target.model_target(),
            &ProjectOptions {
                precision: self.config.precision,
                shots: self.config.shots,
                fusion_width: self.config.fusion_width,
            },
        )?)
    }

    /// End-to-end: transform (unless the target is the plain-Qiskit
    /// baseline, which runs the input as-is) and execute, returning real
    /// results plus the modeled testbed time.
    pub fn run(&self, circuit: &Circuit) -> Result<RunResult, PipelineError> {
        let _span = qgear_telemetry::span!(qgear_telemetry::names::spans::RUN);
        let (exec_circuit, global_phase) = if self.config.target == Target::QiskitAerCpu {
            // The baseline does not get Q-Gear's transformation.
            (circuit.clone(), 0.0)
        } else {
            let artifacts = self.transform(circuit)?;
            (artifacts.native, artifacts.global_phase)
        };
        let modeled = self.project(&exec_circuit)?;
        self.execute(&exec_circuit, self.config.seed, modeled, global_phase)
    }

    /// mqpu batch: independent circuits, one per simulated device,
    /// "effectively utilizing them as four quantum processing units"
    /// (§3). Requires an `nvidia-mqpu` target.
    ///
    /// Every circuit is transformed and projected before any runs, so a
    /// bad circuit costs no simulation. The circuits then run one after
    /// another, one state resident at a time; circuit `i` samples with
    /// seed `seed ^ i·0x9E37…`, so its counts do not depend on the batch
    /// around it. Results are index-aligned with the inputs.
    pub fn run_batch(&self, circuits: &[Circuit]) -> Result<Vec<RunResult>, PipelineError> {
        if !matches!(self.config.target, Target::NvidiaMqpu { .. }) {
            return Err(PipelineError::Usage(format!(
                "run_batch requires the nvidia-mqpu target, got {}",
                self.config.target
            )));
        }
        let prepared = circuits
            .iter()
            .map(|c| {
                let artifacts = self.transform(c)?;
                Ok((self.project(&artifacts.native)?, artifacts.native, artifacts.global_phase))
            })
            .collect::<Result<Vec<_>, PipelineError>>()?;
        prepared
            .into_iter()
            .enumerate()
            .map(|(i, (modeled, native, global_phase))| {
                let seed = self.config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                self.execute(&native, seed, modeled, global_phase)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgear_ir::reference;
    use qgear_num::approx::{approx_eq_up_to_phase, max_deviation};

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).t(1).cz(0, 1).swap(1, 2).cr1(0.8, 2, 3).ry(0.3, 3).cx(0, 3);
        c
    }

    #[test]
    fn transform_produces_native_equivalent() {
        let qgear = QGear::new(QGearConfig::default());
        let circ = sample_circuit();
        let artifacts = qgear.transform(&circ).unwrap();
        assert!(artifacts.native.is_native());
        assert!(artifacts.compression_ratio() > 1.0);
        // Native circuit + global phase == original unitary.
        let mut native_state = reference::run(&artifacts.native);
        reference::apply_global_phase(&mut native_state, artifacts.global_phase);
        let original = reference::run(&circ);
        assert!(max_deviation(&native_state, &original) < 1e-12);
    }

    #[test]
    fn run_on_every_target_agrees_up_to_phase() {
        let circ = sample_circuit();
        let expect = reference::run(&circ);
        for target in [
            Target::QiskitAerCpu,
            Target::Nvidia,
            Target::NvidiaMgpu { devices: 4 },
            Target::PennylaneLightningGpu,
        ] {
            let qgear = QGear::new(QGearConfig {
                target,
                precision: Precision::Fp64,
                ..Default::default()
            });
            let result = qgear.run(&circ).unwrap();
            assert!(result.modeled_seconds() > 0.0);
            let state = result.state.unwrap();
            assert!(
                approx_eq_up_to_phase(state.amplitudes(), &expect, 1e-10),
                "target {target}"
            );
        }
    }

    #[test]
    fn fp32_run_close_to_fp64_oracle() {
        let circ = sample_circuit();
        let qgear = QGear::new(QGearConfig { precision: Precision::Fp32, ..Default::default() });
        let result = qgear.run(&circ).unwrap();
        assert_eq!(result.precision, Precision::Fp32);
        let expect = reference::run(&circ);
        assert!(approx_eq_up_to_phase(
            result.state.unwrap().amplitudes(),
            &expect,
            1e-5
        ));
    }

    #[test]
    fn shots_produce_counts() {
        let mut circ = Circuit::new(3);
        circ.h(0).cx(0, 1).cx(1, 2).measure_all();
        let qgear = QGear::new(QGearConfig { shots: 10_000, ..Default::default() });
        let result = qgear.run(&circ).unwrap();
        let counts = result.counts.unwrap();
        assert_eq!(counts.total(), 10_000);
        assert_eq!(counts.get(0) + counts.get(7), 10_000, "GHZ parity");
    }

    #[test]
    fn mqpu_batch_roundtrip() {
        // More circuits than devices, so the batch wraps round the devices.
        let circuits: Vec<Circuit> = (0..9)
            .map(|i| {
                let mut c = Circuit::new(3);
                c.h(0).ry(0.3 * i as f64, 1).cx(0, 2).cx(1, 2).measure_all();
                c
            })
            .collect();
        // State-only (shots 0) and sampled, at both precisions: each result
        // is `QGear::run` on `nvidia` at the circuit's per-index seed.
        let cases = [(Precision::Fp32, 0), (Precision::Fp32, 2000), (Precision::Fp64, 2000)];
        for (precision, shots) in cases {
            let config = QGearConfig { precision, shots, ..Default::default() };
            let qgear = QGear::new(QGearConfig {
                target: Target::NvidiaMqpu { devices: 4 },
                ..config.clone()
            });
            let results = qgear.run_batch(&circuits).unwrap();
            assert_eq!(results.len(), circuits.len());
            for (i, (result, circ)) in results.iter().zip(&circuits).enumerate() {
                let label = format!("{precision} shots {shots} circuit {i}");
                let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let nvidia = QGearConfig { target: Target::Nvidia, seed, ..config.clone() };
                let direct = QGear::new(nvidia).run(circ).unwrap();
                assert_eq!(result.counts, direct.counts, "{label}");
                assert_eq!(result.counts.is_some(), shots > 0, "{label}");
                let state = result.state.as_ref().expect("keep_state keeps the state");
                assert!(state.amplitudes() == direct.state.unwrap().amplitudes(), "{label}");
            }
        }
    }

    #[test]
    fn run_batch_requires_mqpu() {
        let qgear = QGear::new(QGearConfig::default());
        let err = qgear.run_batch(&[Circuit::new(1)]).unwrap_err();
        assert!(matches!(err, PipelineError::Usage(_)));
    }

    #[test]
    fn oom_propagates_from_engine() {
        let mut circ = Circuit::new(20);
        circ.h(0);
        let qgear = QGear::new(QGearConfig {
            memory_limit: Some(1 << 10),
            ..Default::default()
        });
        assert!(matches!(
            qgear.run(&circ),
            Err(PipelineError::Sim(SimError::OutOfMemory { .. }))
        ));
        let mqpu = QGear::new(QGearConfig {
            target: Target::NvidiaMqpu { devices: 2 },
            ..qgear.config().clone()
        });
        assert!(matches!(
            mqpu.run_batch(&[circ]),
            Err(PipelineError::Sim(SimError::OutOfMemory { .. }))
        ));
    }

    #[test]
    fn pruning_reported_in_artifacts() {
        let mut circ = Circuit::new(2);
        circ.rz(1e-9, 0).ry(0.5, 1).cx(0, 1);
        let qgear = QGear::new(QGearConfig { prune_eps: Some(1e-6), ..Default::default() });
        let artifacts = qgear.transform(&circ).unwrap();
        assert_eq!(artifacts.pruned, 1);
    }

    #[test]
    fn modeled_cpu_slower_than_gpu_at_scale() {
        // The core promise: for big circuits the projection shows the GPU
        // path winning by orders of magnitude.
        let spec = qgear_workloads::random::RandomCircuitSpec {
            num_qubits: 30,
            num_blocks: 100,
            seed: 5,
            measure: false,
        };
        let circ = qgear_workloads::random::generate_random_gate_list(&spec);
        let cpu = QGear::new(QGearConfig { target: Target::QiskitAerCpu, ..Default::default() });
        let gpu = QGear::new(QGearConfig { target: Target::Nvidia, ..Default::default() });
        let t_cpu = cpu.project(&circ).unwrap().total();
        let t_gpu = gpu.project(&circ).unwrap().total();
        assert!(t_cpu / t_gpu > 100.0, "speedup {:.0}", t_cpu / t_gpu);
    }
}
