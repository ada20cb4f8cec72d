//! The seam between the tree and its test doubles.
//!
//! [`ConcurrentMap`] is what the correctness checkers' recorders and
//! stress drivers are generic over (`M: ConcurrentMap<V>`), so they run
//! the real tree — [`ConcurrentBTree`], its one implementation here —
//! and the checkers' deliberately broken trees alike.

use crate::batch::{BatchOp, BatchOutcome, BatchSummary};
use crate::counters::OpCountersSnapshot;
use crate::descent::ConcurrentBTree;
use crate::node::NodeRef;
use crate::olc::OlcValue;

/// A concurrent ordered map from `u64` keys, with the diagnostic
/// surface the measurement harness and correctness checkers need.
pub trait ConcurrentMap<V>: Send + Sync {
    /// Short protocol name (e.g. `"lock-coupling"`).
    fn protocol_name(&self) -> &'static str;

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Whether the map is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node capacity.
    fn capacity(&self) -> usize;

    /// Current height (levels; 1 = a lone leaf root).
    fn height(&self) -> usize;

    /// Inserts `key → val`; returns the previous value if the key
    /// existed.
    fn insert(&self, key: u64, val: V) -> Option<V>;

    /// Removes `key`, returning its value if present.
    fn remove(&self, key: &u64) -> Option<V>;

    /// Looks `key` up, cloning the value out.
    fn get(&self, key: &u64) -> Option<V>;

    /// Whether `key` is present.
    fn contains_key(&self, key: &u64) -> bool;

    /// Ascending range scan over `[lo, hi)`; weakly consistent under
    /// concurrent updates.
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, V)>;

    /// Checks structural invariants (quiescent use).
    fn check(&self) -> Result<(), String>;

    /// Snapshot of the root handle (test/diagnostic use).
    fn root_handle(&self) -> NodeRef<'_, V>;

    /// Snapshot of the uniform operation telemetry.
    fn counters(&self) -> OpCountersSnapshot;

    /// Commits the calling thread's transaction, releasing any latches
    /// retained across operations. A no-op for every non-recovery
    /// protocol, so harness workers may call it unconditionally.
    fn txn_commit(&self) {}

    /// Unlinks emptied leaves and recycles their arena slots, returning
    /// the number reclaimed. A no-op (returning 0) for implementations
    /// without slot reclamation, so callers may invoke it
    /// unconditionally.
    fn vacuum(&self) -> usize {
        0
    }

    /// Executes a batch of operations, returning per-operation results
    /// in **submission order** plus descent accounting. The default
    /// executes each operation as its own singleton descent (`descents
    /// == ops`), so test doubles inherit correct semantics for free;
    /// [`ConcurrentBTree`] overrides it with key-sorted amortized
    /// descent (see [`crate::batch`]).
    fn execute_batch(&self, ops: Vec<BatchOp<V>>) -> BatchOutcome<V> {
        let n = ops.len() as u64;
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            results.push(match op {
                BatchOp::Get(k) => self.get(&k),
                BatchOp::Insert(k, v) => self.insert(k, v),
                BatchOp::Remove(k) => self.remove(&k),
            });
        }
        BatchOutcome {
            results,
            summary: BatchSummary {
                ops: n,
                descents: n,
                ..BatchSummary::default()
            },
        }
    }
}

impl<V: OlcValue + Send + Sync> ConcurrentMap<V> for ConcurrentBTree<V> {
    fn protocol_name(&self) -> &'static str {
        self.protocol().name()
    }

    fn len(&self) -> usize {
        ConcurrentBTree::len(self)
    }

    fn capacity(&self) -> usize {
        ConcurrentBTree::capacity(self)
    }

    fn height(&self) -> usize {
        ConcurrentBTree::height(self)
    }

    fn insert(&self, key: u64, val: V) -> Option<V> {
        ConcurrentBTree::insert(self, key, val)
    }

    fn remove(&self, key: &u64) -> Option<V> {
        ConcurrentBTree::remove(self, key)
    }

    fn get(&self, key: &u64) -> Option<V> {
        ConcurrentBTree::get(self, key)
    }

    fn contains_key(&self, key: &u64) -> bool {
        ConcurrentBTree::contains_key(self, key)
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        ConcurrentBTree::range(self, lo, hi)
    }

    fn check(&self) -> Result<(), String> {
        ConcurrentBTree::check(self)
    }

    fn root_handle(&self) -> NodeRef<'_, V> {
        ConcurrentBTree::root_handle(self)
    }

    fn counters(&self) -> OpCountersSnapshot {
        ConcurrentBTree::counters(self)
    }

    fn txn_commit(&self) {
        ConcurrentBTree::txn_commit(self)
    }

    fn vacuum(&self) -> usize {
        ConcurrentBTree::vacuum(self)
    }

    fn execute_batch(&self, ops: Vec<BatchOp<V>>) -> BatchOutcome<V> {
        ConcurrentBTree::execute_batch(self, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;

    /// Drives `tree` through the trait alone, as the checkers do.
    fn exercise<M: ConcurrentMap<u64>>(tree: &M) {
        assert_eq!(tree.protocol_name(), "lock-coupling");
        assert!(tree.is_empty());
        assert_eq!(tree.insert(1, 10), None);
        assert_eq!(tree.insert(1, 20), Some(10));
        assert_eq!(tree.get(&1), Some(20));
        assert!(tree.contains_key(&1));
        assert_eq!(tree.remove(&1), Some(20));
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.capacity(), 8);
        assert!(tree.range(0, 100).is_empty());
        tree.check().unwrap();
        tree.txn_commit(); // no-op on non-recovery trees
        assert_eq!(tree.counters().ops, 6);
    }

    #[test]
    fn the_tree_speaks_the_trait() {
        exercise(&ConcurrentBTree::new(Protocol::LockCoupling, 8));
    }
}
