//! CHP-style stabilizer simulation for Q-GEAR.
//!
//! Dense state-vector engines cap out near 30 qubits on this VM
//! (Fig. 4a's memory wall); the Gottesman–Knill theorem says Clifford
//! circuits never needed the amplitudes in the first place. This crate
//! provides:
//!
//! * [`Tableau`] — the bit-packed destabilizer/stabilizer tableau with
//!   `H`/`S`/`CNOT`/`CZ`/Pauli/measure updates and the structural
//!   invariant checker the property-test suite leans on;
//! * [`StabilizerBackend`] — that tableau behind the exact same
//!   [`Simulator`](qgear_statevec::Simulator) contract every dense engine
//!   implements — a standalone engine, not a served one (see
//!   `docs/BACKENDS.md`) — so 100+ qubit GHZ circuits run in microseconds
//!   where a state vector could never be allocated.
//!
//! ```
//! use qgear_ir::Circuit;
//! use qgear_stabilizer::StabilizerBackend;
//! use qgear_statevec::{RunOptions, RunOutput, Simulator};
//!
//! let mut ghz = Circuit::new(100);
//! ghz.h(0);
//! for q in 1..100 {
//!     ghz.cx(q - 1, q);
//! }
//! for q in 0..8 {
//!     ghz.measure(q);
//! }
//! let opts = RunOptions { shots: 1000, ..Default::default() };
//! let out: RunOutput<f64> = StabilizerBackend::default().run(&ghz, &opts).unwrap();
//! let counts = out.counts.unwrap();
//! assert_eq!(counts.total(), 1000);
//! // GHZ: only all-zeros and all-ones survive.
//! assert!(counts.map.keys().all(|&k| k == 0 || k == 0xFF));
//! ```

pub mod engine;
pub mod tableau;

pub use engine::StabilizerBackend;
pub use tableau::{Measurement, Tableau};
