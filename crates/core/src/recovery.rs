//! Database-recovery extension (paper §7).
//!
//! A transactional database retains the exclusive locks a transaction
//! acquires until commit, so an aborting transaction can restore old
//! values without interfering with others. Applied naively to a B-tree
//! index, *every* W lock an operation places — including non-leaf locks
//! taken purely for structural safety — is held for the remaining
//! transaction time `T_trans` ("Naive recovery"). Shasha ('85) observed
//! that correctness only requires retaining the **leaf** W locks
//! ("Leaf-only recovery"); this module quantifies how much that buys.
//!
//! The model change is exactly the paper's: add `T_trans` to every
//! leaf-level W-lock hold time under either policy, and add
//! `Pr[F(i)]·T_trans` to non-leaf W-lock hold times under Naive recovery
//! only. The machinery lives in [`crate::config::RecoveryConfig`] and is
//! consumed by every algorithm's [`Model`]; this module packages the §7
//! three-way comparison.

use crate::config::{ModelConfig, RecoveryMode};
use crate::{Model, Performance, Protocol, Result};

/// The §7 three-way comparison: the same algorithm under no recovery,
/// Leaf-only recovery, and Naive recovery.
pub struct RecoveryComparison {
    /// Model without recovery locking.
    pub none: Model,
    /// Model under Leaf-only recovery.
    pub leaf_only: Model,
    /// Model under Naive recovery.
    pub naive: Model,
}

/// One row of the comparison at a single arrival rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// Arrival rate evaluated.
    pub lambda: f64,
    /// Insert response time without recovery.
    pub insert_rt_none: f64,
    /// Insert response time under Leaf-only recovery.
    pub insert_rt_leaf_only: f64,
    /// Insert response time under Naive recovery.
    pub insert_rt_naive: f64,
}

impl RecoveryComparison {
    /// Builds the comparison for `protocol` on `cfg` (the paper uses
    /// Optimistic Descent) with remaining transaction time `t_trans`.
    pub fn new(protocol: Protocol, cfg: &ModelConfig, t_trans: f64) -> Self {
        RecoveryComparison {
            none: Model::new(
                protocol,
                &cfg.clone().with_recovery(RecoveryMode::None, 0.0),
            ),
            leaf_only: Model::new(
                protocol,
                &cfg.clone().with_recovery(RecoveryMode::LeafOnly, t_trans),
            ),
            naive: Model::new(
                protocol,
                &cfg.clone().with_recovery(RecoveryMode::Naive, t_trans),
            ),
        }
    }

    /// Evaluates all three variants at one arrival rate.
    pub fn evaluate(&self, lambda: f64) -> Result<(Performance, Performance, Performance)> {
        Ok((
            self.none.evaluate(lambda)?,
            self.leaf_only.evaluate(lambda)?,
            self.naive.evaluate(lambda)?,
        ))
    }

    /// Insert-response-time row at one arrival rate (Figures 15–16).
    pub fn insert_row(&self, lambda: f64) -> Result<RecoveryRow> {
        let (none, leaf, naive) = self.evaluate(lambda)?;
        Ok(RecoveryRow {
            lambda,
            insert_rt_none: none.response_time_insert,
            insert_rt_leaf_only: leaf.response_time_insert,
            insert_rt_naive: naive.response_time_insert,
        })
    }

    /// Maximum throughputs of the three variants `(none, leaf_only, naive)`.
    pub fn max_throughputs(&self) -> Result<(f64, f64, f64)> {
        Ok((
            self.none.max_throughput()?,
            self.leaf_only.max_throughput()?,
            self.naive.max_throughput()?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fig15_comparison() -> RecoveryComparison {
        // Figure 15: OD insert response times, N = 13, h = 5, D = 10,
        // T_trans = 100.
        let cfg = ModelConfig::paper_with_disk_cost(10.0).unwrap();
        RecoveryComparison::new(Protocol::OptimisticDescent, &cfg, 100.0)
    }

    #[test]
    fn ranking_none_leq_leaf_leq_naive() {
        let cmp = paper_fig15_comparison();
        let row = cmp.insert_row(0.2).unwrap();
        assert!(row.insert_rt_none <= row.insert_rt_leaf_only + 1e-9);
        assert!(row.insert_rt_leaf_only < row.insert_rt_naive);
    }

    #[test]
    fn leaf_only_close_to_none_naive_far() {
        // §7's conclusion: Leaf-only is only *slightly* worse than no
        // recovery, Naive is *significantly* worse.
        let cmp = paper_fig15_comparison();
        let (max_none, max_leaf, max_naive) = cmp.max_throughputs().unwrap();
        assert!(
            max_leaf > 0.8 * max_none,
            "leaf-only ≈ none: {max_leaf} vs {max_none}"
        );
        assert!(
            max_naive < 0.8 * max_leaf,
            "naive ≪ leaf-only: {max_naive} vs {max_leaf}"
        );
    }

    #[test]
    fn gap_grows_with_load() {
        let cmp = paper_fig15_comparison();
        let (_, _, max_naive) = cmp.max_throughputs().unwrap();
        let low = cmp.insert_row(0.2 * max_naive).unwrap();
        let high = cmp.insert_row(0.9 * max_naive).unwrap();
        let gap_low = low.insert_rt_naive - low.insert_rt_leaf_only;
        let gap_high = high.insert_rt_naive - high.insert_rt_leaf_only;
        assert!(gap_high > gap_low);
    }

    #[test]
    fn works_for_larger_nodes_fig16() {
        // Figure 16's setup: N = 59, 4 levels.
        let cfg = ModelConfig::pinned(59, 4, 6.0, 2, 10.0, 1.0, cbtree_btree_model::OpMix::paper())
            .unwrap();
        let cmp = RecoveryComparison::new(Protocol::OptimisticDescent, &cfg, 100.0);
        let row = cmp.insert_row(0.3).unwrap();
        assert!(row.insert_rt_leaf_only < row.insert_rt_naive);
    }

    #[test]
    fn applies_to_other_algorithms_too() {
        let cfg = ModelConfig::paper_base();
        let cmp = RecoveryComparison::new(Protocol::BLink, &cfg, 100.0);
        let row = cmp.insert_row(0.5).unwrap();
        // Link-type W-locks only what it modifies, so naive recovery still
        // costs more than leaf-only (upper-level locks retained on split
        // paths), but everything remains stable.
        assert!(row.insert_rt_naive >= row.insert_rt_leaf_only - 1e-9);
    }
}
