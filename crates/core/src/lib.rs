//! **Q-GEAR**: transform Qiskit-style circuits into GPU-executable kernels
//! and run them on CPU, simulated-GPU, and simulated-cluster targets.
//!
//! This crate is the paper's primary contribution — "a software framework
//! that transforms Qiskit quantum circuits into CUDA-Q kernels" — rebuilt
//! on the substrates in this workspace:
//!
//! ```text
//!  Circuit (Qiskit-like builder, qgear-ir)
//!    │  transpile to the native set {h, rx, ry, rz, cx}     (§2.1)
//!    ▼
//!  TensorEncoding (3-D tensor, Lemma B.2 capacity)          (§2.1)
//!    │  store/ship via QPY-lite or the HDF5-like container  (App. C)
//!    ▼
//!  FusedProgram ("CUDA kernels", gate fusion = 5)           (§2.2)
//!    │  execute on a target
//!    ▼
//!  qiskit-aer-cpu │ nvidia │ nvidia-mgpu │ nvidia-mqpu │ pennylane-…
//! ```
//!
//! Every run returns both the *real* execution result (exact state/counts
//! from the simulated engines) and the *projected* wall-clock on the
//! paper's Perlmutter testbed (`qgear-perfmodel`), which is how the
//! benchmark harnesses regenerate the paper's figures at scales this
//! machine cannot execute.
//!
//! # Quickstart
//!
//! ```
//! use qgear::{QGear, QGearConfig, Target};
//! use qgear_ir::Circuit;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1).measure_all();
//!
//! let qgear = QGear::new(QGearConfig {
//!     target: Target::Nvidia,
//!     shots: 1000,
//!     ..Default::default()
//! });
//! let result = qgear.run(&bell).unwrap();
//! let counts = result.counts.unwrap();
//! assert_eq!(counts.total(), 1000);
//! // Only |00⟩ and |11⟩ appear.
//! assert_eq!(counts.get(0b01) + counts.get(0b10), 0);
//! ```

pub mod pennylane;
pub mod result;
pub mod storage;
pub mod target;
pub mod transform;
pub mod workflow;

pub use pennylane::PennylaneLikeBackend;
pub use result::RunResult;
pub use target::Target;
pub use transform::{QGear, QGearConfig, TransformArtifacts};
pub use workflow::{Workflow, WorkflowReport};

// Re-export the substrate crates under one roof for downstream users.
pub use qgear_cluster as cluster;
pub use qgear_container as container;
pub use qgear_hdf5lite as hdf5lite;
pub use qgear_ir as ir;
pub use qgear_num as num;
pub use qgear_perfmodel as perfmodel;
pub use qgear_statevec as statevec;
pub use qgear_workloads as workloads;
