//! Workload generation for the concurrent B-tree framework.
//!
//! Everything the simulator, the real concurrent B-tree stress tests, and
//! the benchmarks need to drive reproducible experiments:
//!
//! * [`rng`] — a small, fast, fully deterministic PRNG (xoshiro256**)
//!   seeded from a `u64`, so every experiment is replayable from a seed
//!   (the paper runs "5 simulations, each with a different seed");
//! * [`dist`] — the sampling distributions the paper's simulator uses
//!   (exponential service times, Poisson arrivals) plus uniform and Zipf
//!   key distributions;
//! * [`ops`] — operation streams: search/insert/delete mixes over a key
//!   space, including the paper's two-phase protocol (a construction
//!   phase that builds the tree with the same insert:delete ratio as the
//!   concurrent phase);
//! * [`arrivals`] — Poisson arrival-time streams and timed traces;
//! * [`cli`] — the flag cursor every binary in the workspace parses
//!   its arguments with (this is the one crate they all link).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arrivals;
pub mod cli;
pub mod dist;
pub mod ops;
pub mod rng;

pub use arrivals::{ArrivalProcess, OnOffArrivals, PoissonArrivals};
pub use dist::{Exponential, KeyDist};
pub use ops::{OpStream, Operation, OpsConfig};
pub use rng::Rng;
