//! # cbtree — concurrent B-tree performance analysis framework
//!
//! A full reproduction of **Johnson & Shasha, "A Framework for the
//! Performance Analysis of Concurrent B-tree Algorithms" (PODS 1990)**:
//! analytical queueing models, a validating discrete-event simulator, and
//! real threaded concurrent B+-trees implementing the three algorithms the
//! paper studies, its Two-Phase baseline and Optimistic Lock Coupling. All
//! three pillars read one policy table, [`model::Protocol::policy`].
//!
//! This facade crate re-exports the workspace members under stable module
//! names so downstream users can depend on a single crate:
//!
//! * [`queueing`] — M/M/1, M/G/1, staged servers, and the FCFS
//!   reader/writer lock queue (paper Appendix, Theorem 6).
//! * [`model`] — B-tree stochastic shape and cost model (node-fullness
//!   probabilities, fanouts, disk cost dilation).
//! * [`analysis`] — the paper's analytical framework: response times and
//!   maximum throughput for Naive Lock-coupling, Optimistic Descent, the
//!   Link-type algorithm, Two-Phase Locking and Optimistic Lock Coupling;
//!   rules of thumb; recovery extension.
//! * [`sim`] — the validation simulator (Poisson arrivals, exponential
//!   service, per-node FCFS R/W lock queues on actual B-trees).
//! * [`btree`] — real in-memory concurrent B+-trees with the same five
//!   latching protocols, plus the §7 recovery variants.
//! * [`sync`] — from-scratch FCFS reader/writer lock with built-in lock
//!   statistics (waits, holds, writer utilization) used by [`btree`].
//! * [`harness`] — live-execution measurement: the real trees on OS
//!   threads, reporting the same per-level observables as [`sim`].
//! * [`workload`] — deterministic workload generation shared by all of the
//!   above.
//!
//! ## Quickstart
//!
//! ```
//! use cbtree::analysis::{Model, ModelConfig, Protocol};
//!
//! // The paper's base configuration (§5.3): node size 13, 40k items,
//! // 5 levels, 2 in memory, disk cost 5, mix .3/.5/.2.
//! let cfg = ModelConfig::paper_base();
//! let model = Model::new(Protocol::BLink, &cfg);
//! let perf = model.evaluate(0.5).expect("stable at this arrival rate");
//! assert!(perf.response_time_insert > 0.0);
//! let max = model.max_throughput().unwrap();
//! assert!(max > 0.5);
//! ```

pub use cbtree_analysis as analysis;
pub use cbtree_btree as btree;
pub use cbtree_btree_model as model;
pub use cbtree_harness as harness;
pub use cbtree_queueing as queueing;
pub use cbtree_sim as sim;
pub use cbtree_sync as sync;
pub use cbtree_workload as workload;
