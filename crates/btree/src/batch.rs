//! Batched execution: types for the sorted-batch descent entry point.
//!
//! The open-loop service layer drains operations from its ingress ring
//! in batches and hands each batch to
//! [`ConcurrentMap::execute_batch`](crate::map::ConcurrentMap::execute_batch).
//! The engine sorts the batch by key (stable, so same-key operations
//! keep their submission order — the per-key linearizability the batch
//! boundary must not break) and executes it with **amortized descent**:
//! one exclusively latched leaf is held across consecutive operations
//! while their keys stay inside its coverage, hopping the leaf's right
//! link when the next key falls just past the high key, and paying a
//! fresh root-to-leaf descent only on a genuine coverage miss. The
//! [`BatchSummary`] reports how much descent work the batch actually
//! paid, so callers can attribute latches-per-op savings to batching.

/// One operation of a batch, carrying its insert payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp<V> {
    /// Look a key up (result: the value, cloned out).
    Get(u64),
    /// Insert a key (result: the previous value, if the key existed).
    Insert(u64, V),
    /// Remove a key (result: the removed value, if the key existed).
    Remove(u64),
}

impl<V> BatchOp<V> {
    /// The key the operation targets (the batch sort key).
    pub fn key(&self) -> u64 {
        match *self {
            BatchOp::Get(k) | BatchOp::Insert(k, _) | BatchOp::Remove(k) => k,
        }
    }
}

/// Descent accounting for one executed batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Operations executed.
    pub ops: u64,
    /// Fresh root-to-leaf descents paid (including the batch's first).
    pub descents: u64,
    /// Operations served from a leaf the batch already held — either
    /// directly (key within coverage) or via a single right-link hop.
    pub leaf_reuses: u64,
    /// Leaf-level right-link hops taken while holding the previous leaf
    /// (a reuse that crossed into the right sibling).
    pub right_hops: u64,
    /// Inserts that needed a split and fell back to the protocol's
    /// native insert path (each also pays a descent, counted in
    /// `descents`).
    pub fallback_inserts: u64,
}

impl BatchSummary {
    /// Folds another batch's accounting into this one (per-worker and
    /// per-shard aggregation).
    pub fn merge(&mut self, other: &BatchSummary) {
        self.ops += other.ops;
        self.descents += other.descents;
        self.leaf_reuses += other.leaf_reuses;
        self.right_hops += other.right_hops;
        self.fallback_inserts += other.fallback_inserts;
    }
}

/// Per-operation results (submission order) plus descent accounting.
#[derive(Debug)]
pub struct BatchOutcome<V> {
    /// `results[i]` is operation `i`'s result in **submission order**
    /// (what the singleton call would have returned), regardless of the
    /// key-sorted execution order.
    pub results: Vec<Option<V>>,
    /// Descent accounting for the batch.
    pub summary: BatchSummary,
}

impl<V> BatchOutcome<V> {
    /// An empty outcome (the empty batch).
    pub fn empty() -> Self {
        BatchOutcome {
            results: Vec::new(),
            summary: BatchSummary::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_op_keys_and_summary_merge() {
        assert_eq!(BatchOp::<u64>::Get(7).key(), 7);
        assert_eq!(BatchOp::Insert(8, 1u64).key(), 8);
        assert_eq!(BatchOp::<u64>::Remove(9).key(), 9);
        let mut a = BatchSummary {
            ops: 3,
            descents: 1,
            leaf_reuses: 2,
            right_hops: 1,
            fallback_inserts: 0,
        };
        let b = BatchSummary {
            ops: 2,
            descents: 2,
            leaf_reuses: 0,
            right_hops: 0,
            fallback_inserts: 1,
        };
        a.merge(&b);
        assert_eq!(
            a,
            BatchSummary {
                ops: 5,
                descents: 3,
                leaf_reuses: 2,
                right_hops: 1,
                fallback_inserts: 1,
            }
        );
    }
}
