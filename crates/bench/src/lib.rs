//! Experiment harness regenerating every table and figure of Johnson &
//! Shasha (PODS 1990), plus the [`pillars`] table and evaluation routine
//! the `analyze` and `cbtree-trace` binaries compare measurements against.
//!
//! Each `figN` function in [`figures`] reproduces one figure of the
//! paper's evaluation: it sweeps the same parameter the paper sweeps,
//! runs the analytical model (and, where the paper overlays simulation,
//! the discrete-event simulator with multiple seeds), and returns a
//! [`Table`] whose rows are the series the figure plots.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod figures;
pub mod pillars;
pub use cbtree_obs::table;

pub use figures::{run_figure, ExpOptions, FIGURES};
pub use table::Table;
