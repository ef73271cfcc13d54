//! Shared harness utilities for the figure/table regenerators.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper
//! (see DESIGN.md's experiment index). They share:
//!
//! * [`report`] — aligned console tables plus JSON-lines output under
//!   `results/`, with paper-reference annotations;
//! * [`measured`] — real wall-clock experiments at laptop scale on the
//!   actual engines (the "measured mode");
//! * [`modeled`] — projected testbed times through `qgear-perfmodel`
//!   (the "modeled mode" used for paper-scale points).

pub mod measured;
pub mod modeled;
pub mod report;

pub use report::{Report, Row};
