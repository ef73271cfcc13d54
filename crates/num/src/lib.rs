//! Numeric foundation for the Q-GEAR reproduction.
//!
//! The paper's simulators operate on complex state vectors in either single
//! (`fp32`) or double (`fp64`) precision (Table 1 lists both). This crate
//! provides:
//!
//! * [`Complex`] — a minimal, `repr(C)` complex scalar with the fused
//!   operations the state-vector kernels need (no external `num-complex`
//!   dependency, so the storage layout stays under our control);
//! * [`Scalar`] — the precision abstraction that lets every engine be
//!   generic over `f32`/`f64` exactly like the CUDA-Q `fp32`/`fp64` targets;
//! * [`Mat2`]/[`Mat4`] — dense 2×2 and 4×4 complex matrices used for gate
//!   algebra, fusion, and unitarity checks;
//! * [`gates`] — the standard gate matrices of the paper's native set
//!   (`h`, `rx`, `ry`, `rz`, `cx`, … and the QFT's `cr1`, Eq. 9).
//!
//! ```
//! use qgear_num::{gates, C64, Complex};
//!
//! // One Hadamard on |0⟩ gives the equal superposition (|0⟩+|1⟩)/√2 …
//! let h = gates::h::<f64>();
//! let (a0, a1) = h.apply(Complex::new(1.0, 0.0), C64::ZERO);
//! assert!((a0.re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-15);
//! assert!((a1.re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-15);
//! // … and the matrix is unitary, like every gate in the native set.
//! assert!(h.is_unitary(1e-15));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aligned;
pub mod approx;
pub mod complex;
pub mod gates;
pub mod matrix;
pub mod scalar;
pub mod simd;

pub use aligned::{AlignedVec, CACHE_LINE_BYTES};
pub use approx::{approx_eq, approx_eq_c, approx_eq_slice};
pub use complex::Complex;
pub use matrix::{Mat2, Mat4};
pub use scalar::Scalar;
pub use simd::{C32x8, C64x4, CLanes};

/// Complex number in the default double precision used by reference code.
pub type C64 = Complex<f64>;
/// Complex number in single precision (the paper's `fp32` GPU default).
pub type C32 = Complex<f32>;
