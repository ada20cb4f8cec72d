//! Access-cost model: `Se(i)`, `M`, `Sp(i)`, `Mg(i)` with the memory/disk
//! split and the resource-contention dilation factor.
//!
//! The paper's experiments (§5.3) measure time in units of "search the
//! root": the top `m` levels live in memory (cost 1 per node access) and
//! the rest on disk (cost `D`, e.g. 5 or 10). Modifying a leaf costs twice
//! its search, and splitting a node costs three times its search (the
//! split cost includes modifying the parent). §5.2 folds resource
//! contention into a single service-time dilation factor applied to every
//! cost.
//!
//! For the rules-of-thumb figures the search time may instead grow with
//! the node size (`a + b·log₂N`, a binary search), which is what makes
//! "small nodes for Naive Lock-coupling, large nodes for Optimistic
//! Descent" a real design trade-off (§6). The live tree searches a node
//! with one linear scan (one memory round trip per node beyond the
//! cache), while this analysis keeps the paper's `a + b·log₂N`.

use crate::{ModelError, NodeParams, Result};

/// How the in-memory search time of a node scales with its maximum size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchCost {
    /// Unit search cost regardless of node size (the paper's base
    /// experiments, where time is normalized to the root search).
    Unit,
    /// Binary-search cost `a + b·log₂(N)` (paper §6: "the time to search
    /// the root is of the form a + b·log N").
    BinarySearch {
        /// Fixed per-access overhead `a`.
        a: f64,
        /// Per-comparison cost `b`.
        b: f64,
    },
}

impl SearchCost {
    /// In-memory search time for a node of maximum size `n`.
    pub fn time(&self, n: usize) -> f64 {
        match *self {
            SearchCost::Unit => 1.0,
            SearchCost::BinarySearch { a, b } => a + b * (n.max(2) as f64).log2(),
        }
    }
}

/// Per-level access costs for a tree of a given height.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// `Se(i)`: expected time to search a level-`i` node (index: level−1).
    search: Vec<f64>,
    /// `M`: expected time to modify a leaf.
    modify_leaf: f64,
    /// `Sp(i)`: expected time to split a level-`i` node, including the
    /// parent modification (index: level−1).
    split: Vec<f64>,
    /// `Mg(i)`: expected time to merge a level-`i` node (index: level−1).
    merge: Vec<f64>,
    /// Number of levels held in memory (counted from the root down).
    pub memory_levels: usize,
    /// Cost multiplier for on-disk node accesses (`D`).
    pub disk_cost: f64,
}

impl CostModel {
    /// Builds the paper's cost model for a tree of height `height`:
    /// `memory_levels` top levels cost `base` per access, the rest cost
    /// `base·disk_cost`; `M = 2·Se(1)`, `Sp(i) = Mg(i) = 3·Se(i)`.
    ///
    /// `base` is the in-memory search time (1.0 in the base experiments;
    /// `SearchCost::BinarySearch` values in the node-size sweeps).
    pub fn paper_style(
        height: usize,
        memory_levels: usize,
        disk_cost: f64,
        base: f64,
    ) -> Result<Self> {
        if height == 0 {
            return Err(ModelError::InvalidParameter {
                name: "height",
                constraint: "must be at least 1",
            });
        }
        if !(disk_cost.is_finite() && disk_cost >= 1.0) {
            return Err(ModelError::InvalidParameter {
                name: "disk_cost",
                constraint: "must be finite and ≥ 1",
            });
        }
        if !(base.is_finite() && base > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "base",
                constraint: "must be finite and positive",
            });
        }
        let mem = memory_levels.min(height);
        // Levels 1..=height; a level is in memory when it is within `mem`
        // of the root, i.e. level > height - mem.
        let search: Vec<f64> = (1..=height)
            .map(|level| {
                if level > height - mem {
                    base
                } else {
                    base * disk_cost
                }
            })
            .collect();
        let split = search.iter().map(|s| 3.0 * s).collect();
        let merge = search.iter().map(|s| 3.0 * s).collect();
        let modify_leaf = 2.0 * search[0];
        Ok(CostModel {
            search,
            modify_leaf,
            split,
            merge,
            memory_levels: mem,
            disk_cost,
        })
    }

    /// The paper's base cost model (§5.3): height 5, 2 in-memory levels,
    /// disk cost 5, unit root search.
    pub fn paper() -> Self {
        CostModel::paper_style(5, 2, 5.0, 1.0).expect("paper parameters are valid")
    }

    /// Builds a cost model whose in-memory search time follows `search_cost`
    /// for nodes of size `node.max_node_size` (rules-of-thumb sweeps).
    pub fn with_search_cost(
        height: usize,
        memory_levels: usize,
        disk_cost: f64,
        search_cost: SearchCost,
        node: &NodeParams,
    ) -> Result<Self> {
        CostModel::paper_style(
            height,
            memory_levels,
            disk_cost,
            search_cost.time(node.max_node_size),
        )
    }

    /// Applies a resource-contention dilation factor to every cost (§5.2).
    ///
    /// The framework separates data contention (lock queueing, computed by
    /// the analysis) from resource contention (CPU/disk interference),
    /// which appears only as this uniform service-time stretch.
    pub fn dilated(&self, factor: f64) -> Result<Self> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "factor",
                constraint: "must be finite and positive",
            });
        }
        Ok(CostModel {
            search: self.search.iter().map(|s| s * factor).collect(),
            modify_leaf: self.modify_leaf * factor,
            split: self.split.iter().map(|s| s * factor).collect(),
            merge: self.merge.iter().map(|s| s * factor).collect(),
            memory_levels: self.memory_levels,
            disk_cost: self.disk_cost,
        })
    }

    /// Number of levels the model covers.
    pub fn height(&self) -> usize {
        self.search.len()
    }

    /// `Se(i)`: expected time to search a level-`i` node.
    pub fn se(&self, level: usize) -> f64 {
        assert!((1..=self.height()).contains(&level), "level {level}");
        self.search[level - 1]
    }

    /// `M`: expected time to modify a leaf.
    pub fn m(&self) -> f64 {
        self.modify_leaf
    }

    /// `Sp(i)`: expected time to split a level-`i` node (incl. parent
    /// modification).
    pub fn sp(&self, level: usize) -> f64 {
        assert!((1..=self.height()).contains(&level));
        self.split[level - 1]
    }

    /// `Mg(i)`: expected time to merge a level-`i` node.
    pub fn mg(&self, level: usize) -> f64 {
        assert!((1..=self.height()).contains(&level));
        self.merge[level - 1]
    }

    /// Whether a level's nodes reside in memory.
    pub fn level_in_memory(&self, level: usize) -> bool {
        level > self.height() - self.memory_levels
    }

    /// Overrides the leaf-modify cost (used in sensitivity experiments).
    pub fn set_modify_leaf(&mut self, m: f64) {
        self.modify_leaf = m;
    }

    /// Replaces the per-level access costs with `base·factors[l−1]`,
    /// keeping the paper's ratios (`M = 2·Se(1)`, `Sp = Mg = 3·Se`).
    /// Used by the LRU extension, where each level has a fractional
    /// buffer-hit rate instead of a binary memory/disk placement.
    ///
    /// # Panics
    /// Panics when `factors.len()` differs from the model's height.
    pub fn apply_per_level_access(&mut self, factors: &[f64], base: f64) {
        assert_eq!(factors.len(), self.height(), "one factor per level");
        self.search = factors.iter().map(|f| base * f).collect();
        self.split = self.search.iter().map(|s| 3.0 * s).collect();
        self.merge = self.search.iter().map(|s| 3.0 * s).collect();
        self.modify_leaf = 2.0 * self.search[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_costs_match_section_5_3() {
        let c = CostModel::paper();
        assert_eq!(c.se(5), 1.0, "root search is the time unit");
        assert_eq!(c.se(4), 1.0, "two in-memory levels");
        assert_eq!(c.se(3), 5.0, "level 3 on disk at cost 5");
        assert_eq!(c.se(1), 5.0);
        assert_eq!(c.m(), 10.0, "modify = 2x leaf search");
        assert_eq!(c.sp(1), 15.0, "split = 3x search");
        assert_eq!(c.sp(5), 3.0);
    }

    #[test]
    fn memory_levels_counted_from_root() {
        let c = CostModel::paper();
        assert!(c.level_in_memory(5) && c.level_in_memory(4));
        assert!(!c.level_in_memory(3) && !c.level_in_memory(1));
    }

    #[test]
    fn all_memory_when_disk_cost_irrelevant() {
        let c = CostModel::paper_style(4, 10, 7.0, 1.0).unwrap();
        for level in 1..=4 {
            assert_eq!(c.se(level), 1.0);
        }
    }

    #[test]
    fn binary_search_cost_grows_with_node_size() {
        let sc = SearchCost::BinarySearch { a: 0.5, b: 0.125 };
        assert!(sc.time(64) > sc.time(8));
        assert!((sc.time(64) - (0.5 + 0.125 * 6.0)).abs() < 1e-12);
    }

    #[test]
    fn unit_search_cost_is_constant() {
        assert_eq!(SearchCost::Unit.time(3), 1.0);
        assert_eq!(SearchCost::Unit.time(1000), 1.0);
    }

    #[test]
    fn with_search_cost_scales_everything() {
        let node = NodeParams::with_max_size(64).unwrap();
        let sc = SearchCost::BinarySearch { a: 0.0, b: 1.0 };
        let c = CostModel::with_search_cost(3, 1, 2.0, sc, &node).unwrap();
        assert!((c.se(3) - 6.0).abs() < 1e-12);
        assert!((c.se(1) - 12.0).abs() < 1e-12);
        assert!((c.m() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn dilation_scales_uniformly() {
        let c = CostModel::paper().dilated(1.5).unwrap();
        assert_eq!(c.se(5), 1.5);
        assert_eq!(c.m(), 15.0);
        assert_eq!(c.sp(1), 22.5);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(CostModel::paper_style(0, 1, 5.0, 1.0).is_err());
        assert!(CostModel::paper_style(3, 1, 0.5, 1.0).is_err());
        assert!(CostModel::paper_style(3, 1, 5.0, 0.0).is_err());
        assert!(CostModel::paper().dilated(0.0).is_err());
    }
}
