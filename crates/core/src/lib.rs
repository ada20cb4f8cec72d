//! Analytical performance models of concurrent B-tree algorithms —
//! the framework of **Johnson & Shasha, PODS 1990**.
//!
//! A concurrent B-tree is modeled as an open network of FCFS
//! reader/writer lock queues, one *representative node* per tree level
//! (paper Figure 1). For a given arrival rate the framework computes, per
//! level, the writer utilization `ρ_w(i)` and the expected times `R(i)` /
//! `W(i)` to obtain a shared / exclusive lock — and from those, operation
//! response times (Theorem 5) and the maximum sustainable throughput
//! (Theorem 2).
//!
//! One [`Model`] covers the paper's three algorithms — Naive
//! Lock-coupling (Bayer–Schkolnick; paper §5, Theorems 1–5), Optimistic
//! Descent (Bayer–Schkolnick; §5.1) and the Link-type algorithm
//! (Lehman–Yao / Lanin–Shasha / Sagiv; §5.1) — plus the full version's
//! strict Two-Phase Locking baseline and one post-1990 algorithm,
//! Optimistic Lock Coupling (latch-free version-validated readers, zero
//! shared-lock demand, restarts as rework, over lock-coupling writers).
//! The [`model`] module explains each; Optimistic Descent's redo class
//! and OLC run Naive Lock-coupling's recursion with other parameters.
//! Around it sit the §6 [`rules_of_thumb`] and the §7 [`recovery`]
//! extension (Naive vs Leaf-only W-lock retention until transaction
//! commit).
//!
//! A [`Model`] is built from a [`Protocol`] and reads its read and
//! update columns ([`Protocol::policy`]), the row the live tree and the
//! simulator read too; its §7 retention comes from [`RecoveryConfig`].
//!
//! ## Conventions
//!
//! Levels are numbered as in the paper: leaves are level 1, the root is
//! level `h`. Time is dimensionless; the paper's experiments normalize the
//! root search to one time unit. Arrival rates are operations per time
//! unit into the whole tree.
//!
//! ## Quickstart
//!
//! ```
//! use cbtree_analysis::{Model, ModelConfig, Protocol};
//!
//! let cfg = ModelConfig::paper_base();          // §5.3 parameters
//! for p in Protocol::ALL {
//!     let perf = Model::new(p, &cfg).evaluate(0.2).unwrap(); // λ = 0.2 ops/unit
//!     println!("{p}: search RT {:.2}, insert RT {:.2}",
//!              perf.response_time_search, perf.response_time_insert);
//! }
//! // The paper's headline ranking: Link ≫ Optimistic ≫ Naive.
//! let max = |p| Model::new(p, &cfg).max_throughput().unwrap();
//! let max_naive = max(Protocol::LockCoupling);
//! let max_opt = max(Protocol::OptimisticDescent);
//! let max_link = max(Protocol::BLink);
//! assert!(max_link > max_opt && max_opt > max_naive);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod error;
pub mod level;
pub mod model;
pub mod recovery;
pub mod rules_of_thumb;
pub mod throughput;

pub use cbtree_btree_model::Protocol;
pub use config::{ModelConfig, RecoveryConfig, RecoveryMode};
pub use error::AnalysisError;
pub use level::{LevelSolution, Performance};
pub use model::Model;

/// Convenience result alias for analysis computations.
pub type Result<T> = std::result::Result<T, AnalysisError>;

/// The one name `benchmark/src/layers.rs` still spells the Link-type model
/// with, `Algorithm::LinkType.model(&cfg)`: the ledger change (ROADMAP
/// items 0 and 1) deletes this shim together with that line. Everything
/// else builds a model with [`Model::new`].
#[doc(hidden)]
pub struct Algorithm(Protocol);

#[doc(hidden)]
impl Algorithm {
    /// The Link-type (B-link) protocol.
    #[allow(non_upper_case_globals)]
    pub const LinkType: Algorithm = Algorithm(Protocol::BLink);

    /// [`Model::new`] of this protocol.
    pub fn model(self, cfg: &ModelConfig) -> Model {
        Model::new(self.0, cfg)
    }
}
