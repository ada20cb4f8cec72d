//! The one interface every protocol tree (and test double) speaks.
//!
//! [`ConcurrentMap`] is object-safe so callers that pick a protocol at
//! runtime — the facade, the harness, the checkers' recorders — hold a
//! `Box<dyn ConcurrentMap<V>>` or a generic `M: ConcurrentMap<V>`
//! instead of matching on an enum in every method. Every
//! [`DescentTree`] implements it; so do the checkers' deliberately
//! broken trees.

use crate::batch::{BatchOp, BatchOutcome, BatchSummary};
use crate::counters::OpCountersSnapshot;
use crate::descent::{DescentTree, LatchStrategy};
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
    /// == ops`), so trait objects and test doubles inherit correct
    /// semantics for free; [`DescentTree`] overrides it with key-sorted
    /// amortized descent (see [`crate::batch`]).
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

impl<V, S> ConcurrentMap<V> for DescentTree<V, S>
where
    V: OlcValue + Send + Sync,
    S: LatchStrategy,
{
    fn protocol_name(&self) -> &'static str {
        S::NAME
    }

    fn len(&self) -> usize {
        DescentTree::len(self)
    }

    fn capacity(&self) -> usize {
        DescentTree::capacity(self)
    }

    fn height(&self) -> usize {
        DescentTree::height(self)
    }

    fn insert(&self, key: u64, val: V) -> Option<V> {
        DescentTree::insert(self, key, val)
    }

    fn remove(&self, key: &u64) -> Option<V> {
        DescentTree::remove(self, key)
    }

    fn get(&self, key: &u64) -> Option<V> {
        DescentTree::get(self, key)
    }

    fn contains_key(&self, key: &u64) -> bool {
        DescentTree::contains_key(self, key)
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        DescentTree::range(self, lo, hi)
    }

    fn check(&self) -> Result<(), String> {
        DescentTree::check(self)
    }

    fn root_handle(&self) -> NodeRef<'_, V> {
        DescentTree::root_handle(self)
    }

    fn counters(&self) -> OpCountersSnapshot {
        self.counters_snapshot()
    }

    fn txn_commit(&self) {
        DescentTree::txn_commit(self)
    }

    fn vacuum(&self) -> usize {
        DescentTree::vacuum(self)
    }

    fn execute_batch(&self, ops: Vec<BatchOp<V>>) -> BatchOutcome<V> {
        DescentTree::execute_batch(self, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LockCouplingTree;

    #[test]
    fn trait_object_dispatch_works() {
        let tree: Box<dyn ConcurrentMap<u64>> = Box::new(LockCouplingTree::new(8));
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
}
