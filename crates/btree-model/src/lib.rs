//! Stochastic shape and cost model of B+-trees under insert/delete mixes.
//!
//! The analytical framework of Johnson & Shasha (PODS 1990) consumes a
//! handful of structural parameters about the B-tree being analyzed — all
//! of which this crate derives from first principles, following the
//! companion papers the analysis cites:
//!
//! * node-fullness probabilities `Pr[F(i)]` (insert-unsafe) and
//!   `Pr[Em(i)]` (delete-unsafe), from *Utilization of B-trees with
//!   inserts, deletes and modifies* (PODS '89) — Corollary 1's rule of
//!   thumb `Pr[F(1)] = (1−2q)/((1−q)·0.68N)`;
//! * per-level expected fanouts `E(i)` and the tree height, from *Random
//!   B-trees with inserts and deletes* (steady-state space utilization
//!   ≈ ln 2 ≈ 0.69);
//! * access-cost parameters `Se(i)`, `M`, `Sp(i)`, `Mg(i)` with the
//!   memory/disk split and disk-cost multiplier `D` of §5.3, plus the
//!   resource-contention dilation factor of §5.2;
//! * the merge-at-empty vs merge-at-half restructuring comparison that
//!   justifies the paper's "deletes almost never merge" simplification.
//!
//! It also names the latching protocols ([`Protocol`]) and their §7
//! transaction-retention modes ([`RecoveryMode`]), the vocabulary the
//! analysis, the simulator and the live tree share.
//!
//! Levels are numbered as in the paper: leaves are level 1, the root is
//! level `h`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cost;
pub mod error;
pub mod fullness;
pub mod lru;
pub mod mix;
pub mod protocol;
pub mod restructure;
pub mod shape;

pub use cost::{CostModel, SearchCost};
pub use error::ModelError;
pub use fullness::Fullness;
pub use lru::{lru_cost_model, LruHits};
pub use mix::OpMix;
pub use protocol::{Policy, Protocol, ReadPolicy, RecoveryMode, UpdatePolicy};
pub use restructure::MergePolicy;
pub use shape::{NodeParams, TreeShape};

/// Convenience result alias for model computations.
pub type Result<T> = std::result::Result<T, ModelError>;
