//! Discrete-event simulator of concurrent B-tree algorithms — the
//! validation half of Johnson & Shasha (PODS 1990), §4.
//!
//! The simulator runs the *actual* algorithms on an *actual* B+-tree —
//! `cbtree-btree`'s own nodes and arena:
//!
//! 1. a construction phase builds the tree from a sequence of inserts and
//!    deletes in the same ratio as the concurrent mix;
//! 2. concurrent operations arrive in a Poisson stream, traverse the tree
//!    acquiring per-node FCFS reader/writer locks exactly as their
//!    algorithm prescribes, and spend exponentially distributed service
//!    times on every node access;
//! 3. statistics are collected: per-kind response times, per-level lock
//!    waits, the root's writer utilization, link-crossing counts, and the
//!    concurrency level.
//!
//! The number of in-flight operations is bounded by configuration; like
//! the paper's simulator (which "crashes" when it runs out of space for
//! concurrent operations), exceeding the bound aborts the run — that is
//! the simulator's way of reporting an unstable arrival rate.
//!
//! Module map:
//!
//! * [`stats`] — time-weighted averages and batch means (the Welford
//!   accumulator and `Summary` are `cbtree_obs::stats`);
//! * `events` (private) — the future-event list (deterministic
//!   tie-breaking);
//! * [`locks`] — the per-node FCFS shared/exclusive lock table, keyed by
//!   `cbtree_btree::NodeId`;
//! * [`tree`] — `SimTree`, an adapter over `cbtree-btree`'s nodes and
//!   arena (merge-at-empty, right links, high keys; `split_node` and
//!   `make_root`) that adds the root, height, split and item counts, the
//!   construction loop and the end-of-run audit;
//! * [`costs`] — exponential service-time sampling per node level;
//! * `driver` (private) — the simulation core: one descent machine whose
//!   per-algorithm differences are three predicates and a lock mode;
//! * [`runner`] — configuration, reports, multi-seed orchestration, and
//!   [`run`], the one entry point.
//!
//! A [`SimConfig`] names its algorithm and its §7 lock retention with the
//! analysis's own types, `cbtree_analysis::{Algorithm, RecoveryConfig}`,
//! so a live protocol reaches the simulator through the same two columns
//! (`Algorithm::of`, `Protocol::recovery`) that select its model.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod costs;
mod driver;
pub mod error;
mod events;
pub mod locks;
pub mod runner;
pub mod stats;
pub mod tree;

pub use error::SimError;
pub use runner::{run, run_seeds, SeedSummary, SimConfig, SimReport};

/// Convenience result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
