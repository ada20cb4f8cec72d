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
//! The paper's three algorithms are modeled:
//!
//! * [`naive_lc`] — Naive Lock-coupling (Bayer–Schkolnick; paper §5,
//!   Theorems 1–5),
//! * [`optimistic`] — Optimistic Descent (Bayer–Schkolnick; paper §5.1),
//! * [`link`] — the Link-type algorithm (Lehman–Yao / Lanin–Shasha /
//!   Sagiv; paper §5.1),
//!
//! plus the §6 [`rules_of_thumb`], the §7 [`recovery`] extension
//! (Naive vs Leaf-only W-lock retention until transaction commit), the
//! full version's baseline and one post-1990 algorithm in the same
//! framework:
//!
//! * [`two_phase`] — strict Two-Phase Locking over the whole descent,
//! * [`olc`] — Optimistic Lock Coupling: latch-free version-validated
//!   readers (zero shared-lock demand, restarts as rework) over
//!   lock-coupling writers.
//!
//! A live [`Protocol`] names its model with [`Algorithm::of`] and its
//! retention mode with [`Protocol::recovery`]; the simulator reads the
//! same two values.
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
//! use cbtree_analysis::{Algorithm, ModelConfig};
//!
//! let cfg = ModelConfig::paper_base();          // §5.3 parameters
//! for alg in Algorithm::ALL {
//!     let model = alg.model(&cfg);
//!     let perf = model.evaluate(0.2).unwrap();  // λ = 0.2 ops/unit
//!     println!("{alg:?}: search RT {:.2}, insert RT {:.2}",
//!              perf.response_time_search, perf.response_time_insert);
//! }
//! // The paper's headline ranking: Link ≫ Optimistic ≫ Naive.
//! let max_naive = Algorithm::NaiveLockCoupling.model(&cfg).max_throughput().unwrap();
//! let max_opt   = Algorithm::OptimisticDescent.model(&cfg).max_throughput().unwrap();
//! let max_link  = Algorithm::LinkType.model(&cfg).max_throughput().unwrap();
//! assert!(max_link > max_opt && max_opt > max_naive);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod error;
pub mod level;
pub mod link;
pub mod naive_lc;
pub mod olc;
pub mod optimistic;
pub mod recovery;
pub mod rules_of_thumb;
pub mod throughput;
pub mod two_phase;

use cbtree_btree_model::Protocol;
pub use config::{ModelConfig, RecoveryConfig, RecoveryMode};
pub use error::AnalysisError;
pub use level::{LevelSolution, Performance};
pub use link::LinkType;
pub use naive_lc::NaiveLockCoupling;
pub use olc::OptimisticLockCoupling;
pub use optimistic::OptimisticDescent;
pub use two_phase::TwoPhaseLocking;

/// Convenience result alias for analysis computations.
pub type Result<T> = std::result::Result<T, AnalysisError>;

/// The concurrent B-tree algorithms the framework models — the paper's
/// three, its Two-Phase baseline and OLC — and the simulator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Naive Lock-coupling: R/W crabbing, W locks retained while the child
    /// is unsafe (paper §2, analyzed in §5).
    NaiveLockCoupling,
    /// Optimistic Descent: R-lock descent, W lock only on the leaf;
    /// restart with a full W descent when the leaf is unsafe (§2, §5.1).
    OptimisticDescent,
    /// Link-type (Lehman–Yao): right-links remove lock-coupling; at most
    /// one lock held at a time (§2, §5.1).
    LinkType,
    /// Strict Two-Phase Locking over the whole descent — the baseline the
    /// paper's §8 full version adds; every lock is retained until the
    /// operation completes.
    TwoPhaseLocking,
    /// Optimistic Lock Coupling (post-1990 extension): readers are
    /// latch-free, validating per-node version counters hand-over-hand
    /// and restarting on a mismatch; writers crab as in Naive
    /// Lock-coupling — so the reader class vanishes from every queue
    /// and restarts replace reader lock waits.
    Olc,
}

impl Algorithm {
    /// The three algorithms the PODS paper analyzes, in its presentation
    /// order.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::NaiveLockCoupling,
        Algorithm::OptimisticDescent,
        Algorithm::LinkType,
    ];

    /// The paper's three algorithms plus the Two-Phase Locking baseline.
    pub const ALL_WITH_BASELINE: [Algorithm; 4] = [
        Algorithm::TwoPhaseLocking,
        Algorithm::NaiveLockCoupling,
        Algorithm::OptimisticDescent,
        Algorithm::LinkType,
    ];

    /// Every modeled algorithm: the baseline set plus the post-1990
    /// Optimistic Lock Coupling extension.
    pub const ALL_EXTENDED: [Algorithm; 5] = [
        Algorithm::TwoPhaseLocking,
        Algorithm::NaiveLockCoupling,
        Algorithm::OptimisticDescent,
        Algorithm::LinkType,
        Algorithm::Olc,
    ];

    /// The algorithm that models a live protocol: the recovery protocols
    /// are naive lock-coupling under their [`Protocol::recovery`] mode.
    pub const fn of(protocol: Protocol) -> Algorithm {
        match protocol {
            Protocol::LockCoupling | Protocol::RecoveryNaive | Protocol::RecoveryLeaf => {
                Algorithm::NaiveLockCoupling
            }
            Protocol::OptimisticDescent => Algorithm::OptimisticDescent,
            Protocol::BLink => Algorithm::LinkType,
            Protocol::TwoPhase => Algorithm::TwoPhaseLocking,
            Protocol::Olc => Algorithm::Olc,
        }
    }

    /// Instantiates the analytical model of this algorithm for a
    /// configuration.
    pub fn model(self, cfg: &ModelConfig) -> Box<dyn PerformanceModel> {
        match self {
            Algorithm::NaiveLockCoupling => Box::new(NaiveLockCoupling::new(cfg.clone())),
            Algorithm::OptimisticDescent => Box::new(OptimisticDescent::new(cfg.clone())),
            Algorithm::LinkType => Box::new(LinkType::new(cfg.clone())),
            Algorithm::TwoPhaseLocking => Box::new(TwoPhaseLocking::new(cfg.clone())),
            Algorithm::Olc => Box::new(OptimisticLockCoupling::new(cfg.clone())),
        }
    }

    /// The name of the protocol this algorithm models ([`Protocol::name`];
    /// the recovery variants share lock-coupling's algorithm and name).
    pub fn name(self) -> &'static str {
        let mut protocols = Protocol::ALL_WITH_RECOVERY.into_iter();
        protocols
            .find(|&p| Algorithm::of(p) == self)
            .map_or("", Protocol::name)
    }
}

/// An analytical performance model of one algorithm on one configuration.
pub trait PerformanceModel {
    /// The configuration the model was built from.
    fn config(&self) -> &ModelConfig;

    /// Which algorithm this models.
    fn algorithm(&self) -> Algorithm;

    /// Evaluates the model at total arrival rate `lambda`.
    ///
    /// Returns [`AnalysisError::Saturated`] when some level's lock queue
    /// has no stable operating point at this rate.
    fn evaluate(&self, lambda: f64) -> Result<Performance>;

    /// Maximum sustainable throughput: the supremum of arrival rates for
    /// which every level is stable (Theorem 2). Found by exponential
    /// search plus bisection on [`PerformanceModel::evaluate`].
    fn max_throughput(&self) -> Result<f64> {
        throughput::max_throughput(self.as_dyn())
    }

    /// The arrival rate at which the *root* writer utilization reaches
    /// `target_rho` — the §6 "effective maximum arrival rate" uses 0.5.
    fn lambda_at_root_rho(&self, target_rho: f64) -> Result<f64> {
        throughput::lambda_at_root_rho(self.as_dyn(), target_rho)
    }

    /// Upcast helper so default methods can hand `self` to free functions.
    fn as_dyn(&self) -> &dyn PerformanceModel;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_name_and_alias_finds_its_algorithm_and_retention() {
        // What `--algo` accepts and what a run artifact's `meta.protocol`
        // says, against the model and retention it is compared with.
        use {Algorithm as A, RecoveryMode as R};
        let rows = [
            ("lock-coupling", A::NaiveLockCoupling, R::None),
            ("coupling", A::NaiveLockCoupling, R::None),
            ("naive", A::NaiveLockCoupling, R::None),
            ("optimistic", A::OptimisticDescent, R::None),
            ("b-link", A::LinkType, R::None),
            ("blink", A::LinkType, R::None),
            ("link", A::LinkType, R::None),
            ("two-phase", A::TwoPhaseLocking, R::None),
            ("twophase", A::TwoPhaseLocking, R::None),
            ("olc", A::Olc, R::None),
            ("optimistic-lock-coupling", A::Olc, R::None),
            ("recovery-naive", A::NaiveLockCoupling, R::Naive),
            ("recovery-leaf", A::NaiveLockCoupling, R::LeafOnly),
        ];
        for (name, algorithm, recovery) in rows {
            let p: Protocol = name.parse().expect(name);
            assert_eq!(
                (Algorithm::of(p), p.recovery()),
                (algorithm, recovery),
                "{name}"
            );
        }
        for p in Protocol::ALL_WITH_RECOVERY {
            assert!(rows.iter().any(|row| row.0 == p.name()), "{}", p.name());
        }
        // An algorithm is named after the protocol it models.
        for a in Algorithm::ALL_EXTENDED {
            assert_eq!(a.name().parse().map(Algorithm::of), Ok(a), "{}", a.name());
        }
        assert_eq!(Algorithm::NaiveLockCoupling.name(), "lock-coupling");
    }
}
