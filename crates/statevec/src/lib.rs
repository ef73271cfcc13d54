//! State-vector simulation engines.
//!
//! Two engines implement the Appendix A semantics with very different
//! execution models, mirroring the paper's CPU-vs-GPU comparison:
//!
//! * [`AerCpuBackend`] — the *baseline*: sequential, per-gate dense
//!   application with no fusion, like Qiskit Aer's CPU state-vector method.
//! * [`GpuDevice`] — the *simulated GPU*: circuits are first fused into
//!   multiplexed kernels (`qgear-ir::fusion`, the §2.2 "kernel
//!   transformation"),
//!   then each kernel sweeps the state vector data-parallel over rayon
//!   worker threads standing in for CUDA thread blocks. Execution
//!   statistics (kernel launches, bytes touched) feed the calibrated
//!   performance model in `qgear-perfmodel`.
//!
//! Every run of either engine walks one [`planner::ExecutionPlan`]: the
//! baseline's is the per-gate plan, which the `Unfused` pin also selects
//! on the simulated GPU; the simulated GPU's is a schedule of sweeps
//! over fused kernels. No single fusion width wins everywhere — a fully
//! mixed width-5 kernel spends 32 mul-adds per amplitude on the handful
//! of gates it absorbed, while a QCrank ladder needs width 5 — so the
//! plan's one selector ([`PlannerCosts::force_mode`]) either pins every
//! kernel to the fusion width (the default) or prices each compute-bound
//! kernel's width against a cost model and re-fuses it narrower where
//! that is cheaper. See `docs/PIPELINE.md` § 4 for the model and the
//! crossover.
//!
//! Both walkers of that plan — [`SegmentedRun`] here, the cluster
//! crate's `ShardedRun` over a partitioned state — keep one contract,
//! [`Stepper`], and [`straight_through`] is the one tail that drives a
//! stepper to the end, samples and keeps the state: `AerCpuBackend::run`,
//! `GpuDevice::run` and `ClusterEngine::run` are calls to it, and the
//! serving layer drives the same contract in checkpointed segments.
//!
//! Shared infrastructure: [`StateVector`] storage generic over `f32`/`f64`
//! ([`qgear_num::Scalar`]), Born-rule [`sampling`] by a two-level
//! multinomial draw (shots split over 4096-bin blocks, each block placed
//! from its own seeded stream, so the counts do not depend on the thread
//! count), and the [`Simulator`] trait the `qgear` core crate dispatches
//! on.
//!
//! Both engines open `simulate`/`sample` spans and update the canonical
//! counters from `qgear-telemetry` while recording is enabled; with
//! telemetry off (the default) the hooks cost one relaxed atomic load.
//!
//! ```
//! use qgear_ir::Circuit;
//! use qgear_statevec::{AerCpuBackend, GpuDevice, PlannerCosts, RunOptions, RunOutput, Simulator};
//!
//! // A GHZ circuit run on both engines gives identical physics: the
//! // fused simulated-GPU engine just gets there in fewer sweeps.
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//! let opts = RunOptions::default();
//! let aer: RunOutput<f64> = AerCpuBackend.run(&c, &opts).unwrap();
//! let gpu: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &opts).unwrap();
//! let (a, g) = (aer.state.unwrap(), gpu.state.unwrap());
//! assert!(a.fidelity(&g) > 1.0 - 1e-12);
//! assert!(gpu.stats.kernels_launched < aer.stats.kernels_launched);
//!
//! // A priced plan prices each kernel's fusion width instead of pinning
//! // it — same physics (on three qubits, the pin's plan).
//! let priced = RunOptions { planner_costs: PlannerCosts::host_reference(), ..opts };
//! let priced: RunOutput<f64> = GpuDevice::a100_40gb().run(&c, &priced).unwrap();
//! assert!(priced.state.unwrap().fidelity(&g) > 1.0 - 1e-12);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aer;
pub mod backend;
pub mod checkpoint;
pub mod gpu;
pub mod planner;
pub mod sampling;
pub mod segment;
pub mod simd;
pub mod state;

pub use aer::AerCpuBackend;
pub use backend::{
    marginal_of_runs, marginal_probs, sample_from_probs, Counts, ExecStats, RunOptions, RunOutput,
    SimError, Simulator,
};
pub use checkpoint::{
    decode as decode_checkpoint, encode as encode_checkpoint, plan_fingerprint,
    CheckpointCounters, CheckpointError, StateCheckpoint,
};
pub use gpu::GpuDevice;
pub use planner::{plan, ExecutionPlan, PlannerCosts, SegmentMode};
pub use sampling::SamplingConfig;
pub use segment::{straight_through, SegmentedRun, Stepper};
pub use simd::{set_simd_enabled, simd_enabled};
pub use state::StateVector;
