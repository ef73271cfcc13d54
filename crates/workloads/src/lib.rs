//! The paper's benchmark workloads.
//!
//! Three circuit families drive every figure in the evaluation, and
//! [`images`] feeds the third:
//!
//! * [`random`] — Appendix D.1's randomized CX-block unitaries (Fig. 4a
//!   "short"/"long" at 100/10 000 blocks; Fig. 4b's 3 000-block
//!   intermediate size);
//! * [`qft`] — the Quantum Fourier Transform kernel of Appendix D.2 with
//!   the Eq. 9 `cr1` ladder and optional small-angle approximation
//!   (Fig. 4c);
//! * [`qcrank`] — the QCrank grayscale-image codec of Appendix D.3
//!   (Fig. 5, Fig. 6, Table 2): uniformly-controlled-Ry encoding with one
//!   CX per pixel, shot-based reconstruction, and quality metrics;
//! * [`images`] — deterministic synthetic grayscale images standing in
//!   for the paper's Finger/Shoes/Building/Zebra set (same dimensions;
//!   QCrank's cost depends only on pixel count and qubit split).

pub mod images;
pub mod qcrank;
pub mod qft;
pub mod random;

pub use qcrank::{QcrankCodec, QcrankConfig};
pub use random::RandomCircuitSpec;
