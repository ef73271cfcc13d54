//! Circuit intermediate representation for Q-GEAR.
//!
//! This crate is the "front half" of the paper's pipeline (§2.1–§2.2):
//!
//! * [`gate`] / [`circuit`] — a Qiskit-like circuit builder producing gate
//!   lists over a typed gate set;
//! * [`encoding`] — the three-dimensional tensor encoding of §2.1 with
//!   gate-type tags that index the one-hot matrix **M** of Eq. 8 and the
//!   fixed-capacity guarantees of Lemma B.2;
//! * [`qpy`] — a compact binary circuit serialization playing the role of
//!   Qiskit's QPY files;
//! * [`transpile`] — passes that lower circuits onto the native set
//!   `{h, rx, ry, rz, cx}` (plus measurement), merge rotations, and prune
//!   negligible angles (the AQFT optimization of Appendix D.2);
//! * [`fusion`] — CUDA-Q-style gate fusion into multiplexed kernels: a
//!   table of `2^μ × 2^μ` sub-unitaries, one per assignment of the qubits
//!   a kernel only controls or phases (the paper runs with `gate fusion =
//!   5`). The pass reports its block counts and widths through
//!   `qgear-telemetry` when recording is on.
//!
//! ```
//! use qgear_ir::{fusion, Circuit};
//!
//! // Build a circuit with the Qiskit-like builder and fuse it into
//! // kernels — the §2.2 "kernel transformation".
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).ry(0.3, 1).cx(1, 2).rz(-0.7, 2);
//! let program = fusion::fuse(&c, 3);
//! assert_eq!(program.source_gate_count(), 5);
//! assert!(program.blocks.len() < 5, "fusion packs gates into fewer kernels");
//! assert!(program.compression_ratio() > 1.0);
//! ```

pub mod circuit;
pub mod encoding;
pub mod error;
pub mod fusion;
pub mod gate;
pub mod qpy;
pub mod reference;
pub mod schedule;
pub mod shape;
pub mod transpile;

pub use circuit::Circuit;
pub use encoding::{EncodedCircuit, TensorEncoding};
pub use error::IrError;
pub use fusion::{FusedBlock, FusedProgram, FusionError};
pub use gate::{Gate, GateKind};
pub use schedule::{Sweep, SweepOptions, SweepSchedule};
pub use shape::{shape_digest, ShapeDigest};
