//! Protocol-erased facade: pick the concurrency-control algorithm at run
//! time, as the paper's comparisons do.

use crate::batch::{BatchOp, BatchOutcome};
use crate::map::ConcurrentMap;
use crate::{
    BLinkTree, LockCouplingTree, OlcTree, OlcValue, OpCountersSnapshot, OptimisticTree,
    RecoveryLeafTree, RecoveryNaiveTree, TwoPhaseTree,
};
use cbtree_sync::SamplePeriod;
use std::fmt;
use std::str::FromStr;

/// The latching protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Naive Lock-coupling (Bayer–Schkolnick).
    LockCoupling,
    /// Optimistic Descent (Bayer–Schkolnick).
    OptimisticDescent,
    /// Link-type / B-link (Lehman–Yao).
    BLink,
    /// Optimistic Lock Coupling: latch-free version-validated reads,
    /// lock-coupling writes (the ROADMAP's post-1990 fourth protocol).
    Olc,
    /// Strict Two-Phase latching over the whole path (baseline).
    TwoPhase,
    /// Lock-coupling with naive recovery: every exclusive latch retained
    /// to transaction commit (§6/§7).
    RecoveryNaive,
    /// Lock-coupling with leaf-only recovery: the leaf's exclusive latch
    /// retained to transaction commit (§6/§7).
    RecoveryLeaf,
}

impl Protocol {
    /// The paper's three protocols, in its presentation order.
    pub const ALL: [Protocol; 3] = [
        Protocol::LockCoupling,
        Protocol::OptimisticDescent,
        Protocol::BLink,
    ];

    /// The paper's protocols plus the Two-Phase baseline.
    pub const ALL_WITH_BASELINE: [Protocol; 4] = [
        Protocol::TwoPhase,
        Protocol::LockCoupling,
        Protocol::OptimisticDescent,
        Protocol::BLink,
    ];

    /// Every protocol, recovery variants included.
    pub const ALL_WITH_RECOVERY: [Protocol; 7] = [
        Protocol::TwoPhase,
        Protocol::LockCoupling,
        Protocol::OptimisticDescent,
        Protocol::BLink,
        Protocol::Olc,
        Protocol::RecoveryNaive,
        Protocol::RecoveryLeaf,
    ];

    /// Short display name used in benchmark tables. Round-trips through
    /// [`Protocol::from_str`].
    pub fn name(self) -> &'static str {
        match self {
            Protocol::LockCoupling => "lock-coupling",
            Protocol::OptimisticDescent => "optimistic",
            Protocol::BLink => "b-link",
            Protocol::Olc => "olc",
            Protocol::TwoPhase => "two-phase",
            Protocol::RecoveryNaive => "recovery-naive",
            Protocol::RecoveryLeaf => "recovery-leaf",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Protocol {
    type Err = String;

    /// Parses a protocol name; accepts the canonical [`Protocol::name`]
    /// spellings plus the historical CLI aliases.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lock-coupling" | "coupling" | "naive" => Ok(Protocol::LockCoupling),
            "optimistic" => Ok(Protocol::OptimisticDescent),
            "b-link" | "blink" | "link" => Ok(Protocol::BLink),
            "olc" | "optimistic-lock-coupling" => Ok(Protocol::Olc),
            "two-phase" | "twophase" => Ok(Protocol::TwoPhase),
            "recovery-naive" => Ok(Protocol::RecoveryNaive),
            "recovery-leaf" => Ok(Protocol::RecoveryLeaf),
            other => Err(format!(
                "unknown protocol {other:?} (expected one of: {})",
                Protocol::ALL_WITH_RECOVERY.map(|p| p.name()).join(", ")
            )),
        }
    }
}

/// A concurrent B+-tree with the protocol chosen at construction,
/// dispatching through the [`ConcurrentMap`] interface.
pub struct ConcurrentBTree<V> {
    inner: Box<dyn ConcurrentMap<V>>,
    protocol: Protocol,
}

impl<V> fmt::Debug for ConcurrentBTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentBTree")
            .field("protocol", &self.protocol)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<V: OlcValue + Send + Sync + 'static> ConcurrentBTree<V> {
    /// Creates an empty tree with the given protocol and node capacity
    /// (exact lock timing).
    pub fn new(protocol: Protocol, capacity: usize) -> Self {
        ConcurrentBTree::with_sampling(protocol, capacity, SamplePeriod::EXACT)
    }

    /// Creates an empty tree whose node locks time one in
    /// `sample.period()` acquisitions (counts stay exact; sampled
    /// durations are scaled so derived statistics stay unbiased).
    pub fn with_sampling(protocol: Protocol, capacity: usize, sample: SamplePeriod) -> Self {
        let inner: Box<dyn ConcurrentMap<V>> = match protocol {
            Protocol::LockCoupling => Box::new(LockCouplingTree::with_sampling(capacity, sample)),
            Protocol::OptimisticDescent => {
                Box::new(OptimisticTree::with_sampling(capacity, sample))
            }
            Protocol::BLink => Box::new(BLinkTree::with_sampling(capacity, sample)),
            Protocol::Olc => Box::new(OlcTree::with_sampling(capacity, sample)),
            Protocol::TwoPhase => Box::new(TwoPhaseTree::with_sampling(capacity, sample)),
            Protocol::RecoveryNaive => Box::new(RecoveryNaiveTree::with_sampling(capacity, sample)),
            Protocol::RecoveryLeaf => Box::new(RecoveryLeafTree::with_sampling(capacity, sample)),
        };
        ConcurrentBTree { inner, protocol }
    }
}

impl<V> ConcurrentBTree<V> {
    /// The protocol in use.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Node capacity (max keys per node) the tree was built with.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts `key → val`; returns the previous value if the key existed.
    pub fn insert(&self, key: u64, val: V) -> Option<V> {
        self.inner.insert(key, val)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: &u64) -> Option<V> {
        self.inner.remove(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &u64) -> bool {
        self.inner.contains_key(key)
    }

    /// Checks structural invariants (quiescent use).
    pub fn check(&self) -> Result<(), String> {
        self.inner.check()
    }

    /// Current height (levels; 1 = a lone leaf root).
    pub fn height(&self) -> usize {
        self.inner.height()
    }

    /// The current root handle (for quiescent instrumentation walks, e.g.
    /// aggregating per-level lock statistics).
    pub fn root_handle(&self) -> crate::node::NodeRef<'_, V> {
        self.inner.root_handle()
    }

    /// Snapshot of the engine's uniform operation telemetry.
    pub fn counters(&self) -> OpCountersSnapshot {
        self.inner.counters()
    }

    /// Commits the calling thread's transaction (no-op except on the
    /// recovery protocols).
    pub fn txn_commit(&self) {
        self.inner.txn_commit()
    }

    /// Unlinks emptied leaves and recycles their arena slots, returning
    /// the number reclaimed (0 for the link protocols, which keep lazy
    /// reclamation).
    pub fn vacuum(&self) -> usize {
        self.inner.vacuum()
    }

    /// Looks `key` up, cloning the value out.
    pub fn get(&self, key: &u64) -> Option<V> {
        self.inner.get(key)
    }

    /// Ascending range scan over `[lo, hi)` (weakly consistent under
    /// concurrent updates).
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        self.inner.range(lo, hi)
    }

    /// Executes a batch with key-sorted amortized descent, returning
    /// per-operation results in submission order plus descent
    /// accounting (see [`crate::batch`]).
    pub fn execute_batch(&self, ops: Vec<BatchOp<V>>) -> BatchOutcome<V> {
        self.inner.execute_batch(ops)
    }
}

impl<V> ConcurrentMap<V> for ConcurrentBTree<V> {
    fn protocol_name(&self) -> &'static str {
        self.protocol.name()
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

    fn root_handle(&self) -> crate::node::NodeRef<'_, V> {
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

    #[test]
    fn all_protocols_behave_identically_sequentially() {
        for p in Protocol::ALL {
            let t = ConcurrentBTree::new(p, 6);
            assert_eq!(t.protocol(), p);
            assert!(t.is_empty());
            for k in 0..300u64 {
                assert!(t.insert(k, k * 2).is_none(), "{p:?}");
            }
            assert_eq!(t.len(), 300);
            assert_eq!(t.get(&100), Some(200));
            assert!(t.contains_key(&299));
            assert_eq!(t.remove(&100), Some(200));
            assert_eq!(t.get(&100), None);
            assert_eq!(t.len(), 299);
            t.check().unwrap();
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = Protocol::ALL_WITH_RECOVERY
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn names_round_trip_through_fromstr_and_display() {
        for p in Protocol::ALL_WITH_RECOVERY {
            assert_eq!(p.name().parse::<Protocol>(), Ok(p));
            assert_eq!(p.to_string(), p.name());
        }
        // Historical CLI aliases keep working.
        assert_eq!("blink".parse::<Protocol>(), Ok(Protocol::BLink));
        assert_eq!("link".parse::<Protocol>(), Ok(Protocol::BLink));
        assert_eq!("coupling".parse::<Protocol>(), Ok(Protocol::LockCoupling));
        assert_eq!("naive".parse::<Protocol>(), Ok(Protocol::LockCoupling));
        assert_eq!("twophase".parse::<Protocol>(), Ok(Protocol::TwoPhase));
        assert!("nope".parse::<Protocol>().is_err());
    }
}
