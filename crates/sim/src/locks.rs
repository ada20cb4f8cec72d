//! Per-node FCFS reader/writer lock table.
//!
//! Semantics match the paper's assumptions exactly (§3.2, "Lock types"):
//! R locks may be shared, W locks are exclusive, and grants are strictly
//! first-come-first-served — a reader arriving behind a queued writer
//! waits even though it would be compatible with the current holders.
//! This FCFS discipline is what the analytical aggregate-customer
//! approximation (Appendix, Theorem 6) models.

use std::collections::HashMap;

/// Identifier of a simulated tree node: a slot of the tree's arena.
pub use cbtree_btree::NodeId;
/// Identifier of an in-flight operation.
pub type OpId = usize;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Shared (reader) lock.
    Shared,
    /// Exclusive (writer) lock.
    Exclusive,
}

#[derive(Debug, Clone)]
struct Waiting {
    op: OpId,
    mode: Mode,
    since: f64,
}

#[derive(Debug, Clone, Default)]
struct NodeLock {
    /// Current shared holders.
    readers: Vec<OpId>,
    /// Current exclusive holder.
    writer: Option<OpId>,
    /// FCFS wait queue.
    queue: Vec<Waiting>,
}

impl NodeLock {
    fn is_free(&self) -> bool {
        self.readers.is_empty() && self.writer.is_none()
    }

    fn compatible(&self, mode: Mode) -> bool {
        match mode {
            Mode::Shared => self.writer.is_none(),
            Mode::Exclusive => self.is_free(),
        }
    }
}

/// A grant produced by [`LockTable::release`]: the operation now holds the
/// node, after waiting `waited` time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// The operation granted the lock.
    pub op: OpId,
    /// The node granted.
    pub node: NodeId,
    /// Mode granted.
    pub mode: Mode,
    /// How long the operation waited in the queue.
    pub waited: f64,
}

/// The per-node FCFS R/W lock table.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    locks: HashMap<NodeId, NodeLock>,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Requests `mode` on `node` for `op` at time `now`.
    ///
    /// Returns `true` when granted immediately (the queue was empty and
    /// the request is compatible with the holders); otherwise the request
    /// is parked FCFS and a later [`LockTable::release`] will surface it
    /// as a [`Grant`].
    pub fn request(&mut self, node: NodeId, op: OpId, mode: Mode, now: f64) -> bool {
        let lock = self.locks.entry(node).or_default();
        if lock.queue.is_empty() && lock.compatible(mode) {
            match mode {
                Mode::Shared => lock.readers.push(op),
                Mode::Exclusive => lock.writer = Some(op),
            }
            true
        } else {
            lock.queue.push(Waiting {
                op,
                mode,
                since: now,
            });
            false
        }
    }

    /// Releases `op`'s hold on `node` at time `now`, returning the queue
    /// prefix that becomes grantable (possibly several readers, or one
    /// writer).
    ///
    /// # Panics
    /// Panics if `op` does not hold `node` — a protocol bug in the caller
    /// that must not be silently ignored.
    pub fn release(&mut self, node: NodeId, op: OpId, now: f64) -> Vec<Grant> {
        let lock = self
            .locks
            .get_mut(&node)
            .unwrap_or_else(|| panic!("release of unlocked node {node:?}"));
        if lock.writer == Some(op) {
            lock.writer = None;
        } else if let Some(idx) = lock.readers.iter().position(|&r| r == op) {
            lock.readers.swap_remove(idx);
        } else {
            panic!("operation {op} does not hold node {node:?}");
        }
        let mut grants = Vec::new();
        while let Some(front) = lock.queue.first() {
            if !lock.compatible(front.mode) {
                break;
            }
            let w = lock.queue.remove(0);
            match w.mode {
                Mode::Shared => lock.readers.push(w.op),
                Mode::Exclusive => lock.writer = Some(w.op),
            }
            grants.push(Grant {
                op: w.op,
                node,
                mode: w.mode,
                waited: now - w.since,
            });
            if w.mode == Mode::Exclusive {
                break;
            }
        }
        if lock.is_free() && lock.queue.is_empty() {
            self.locks.remove(&node);
        }
        grants
    }

    /// Whether a writer currently holds or waits for `node` — the
    /// simulated counterpart of the analysis's `ρ_w` indicator.
    pub fn writer_present(&self, node: NodeId) -> bool {
        self.locks.get(&node).is_some_and(|l| {
            l.writer.is_some() || l.queue.iter().any(|w| w.mode == Mode::Exclusive)
        })
    }

    /// Whether `op` currently holds `node` (in either mode).
    pub fn holds(&self, node: NodeId, op: OpId) -> bool {
        self.locks
            .get(&node)
            .is_some_and(|l| l.writer == Some(op) || l.readers.contains(&op))
    }

    /// Number of nodes with any lock state (holders or waiters).
    pub fn active_nodes(&self) -> usize {
        self.locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node `i` (fresh slots, generation 0).
    fn n(idx: u32) -> NodeId {
        NodeId { idx, gen: 0 }
    }

    #[test]
    fn shared_locks_share() {
        let mut t = LockTable::new();
        assert!(t.request(n(1), 10, Mode::Shared, 0.0));
        assert!(t.request(n(1), 11, Mode::Shared, 0.0));
        assert!(t.holds(n(1), 10) && t.holds(n(1), 11));
    }

    #[test]
    fn exclusive_excludes() {
        let mut t = LockTable::new();
        assert!(t.request(n(1), 10, Mode::Exclusive, 0.0));
        assert!(!t.request(n(1), 11, Mode::Shared, 1.0));
        assert!(!t.request(n(1), 12, Mode::Exclusive, 2.0));
        let grants = t.release(n(1), 10, 5.0);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].op, 11);
        assert!((grants[0].waited - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fcfs_reader_does_not_jump_queued_writer() {
        let mut t = LockTable::new();
        // Reader 1 holds and writer 2 queues; reader 3 is compatible with
        // the *holder* but must queue behind the writer (FCFS).
        assert!(t.request(n(1), 1, Mode::Shared, 0.0));
        assert!(!t.request(n(1), 2, Mode::Exclusive, 0.0));
        assert!(!t.request(n(1), 3, Mode::Shared, 0.0));
        let g = t.release(n(1), 1, 1.0);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].op, 2, "writer first");
        let g = t.release(n(1), 2, 2.0);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].op, 3);
    }

    #[test]
    fn release_grants_reader_batch() {
        let mut t = LockTable::new();
        assert!(t.request(n(1), 1, Mode::Exclusive, 0.0));
        assert!(!t.request(n(1), 2, Mode::Shared, 0.0));
        assert!(!t.request(n(1), 3, Mode::Shared, 0.0));
        assert!(!t.request(n(1), 4, Mode::Exclusive, 0.0));
        assert!(!t.request(n(1), 5, Mode::Shared, 0.0));
        let g = t.release(n(1), 1, 1.0);
        // Readers 2 and 3 granted together; writer 4 blocks reader 5.
        assert_eq!(g.iter().map(|g| g.op).collect::<Vec<_>>(), vec![2, 3]);
        let g = t.release(n(1), 2, 2.0);
        assert!(g.is_empty(), "reader 3 still holds");
        let g = t.release(n(1), 3, 3.0);
        assert_eq!(g.iter().map(|g| g.op).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn writer_present_tracks_holders_and_waiters() {
        let mut t = LockTable::new();
        assert!(!t.writer_present(n(1)));
        t.request(n(1), 1, Mode::Shared, 0.0);
        assert!(!t.writer_present(n(1)));
        t.request(n(1), 2, Mode::Exclusive, 0.0);
        assert!(t.writer_present(n(1)), "queued writer counts");
        let g = t.release(n(1), 1, 1.0);
        assert_eq!(g[0].op, 2);
        assert!(t.writer_present(n(1)), "holding writer counts");
        t.release(n(1), 2, 2.0);
        assert!(!t.writer_present(n(1)));
    }

    #[test]
    fn independent_nodes_do_not_interfere() {
        let mut t = LockTable::new();
        assert!(t.request(n(1), 1, Mode::Exclusive, 0.0));
        assert!(t.request(n(2), 2, Mode::Exclusive, 0.0));
        assert!(t.holds(n(1), 1) && t.holds(n(2), 2));
    }

    #[test]
    fn lock_state_cleaned_up_when_idle() {
        let mut t = LockTable::new();
        t.request(n(1), 1, Mode::Shared, 0.0);
        t.release(n(1), 1, 1.0);
        assert_eq!(t.active_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn releasing_unheld_lock_panics() {
        let mut t = LockTable::new();
        t.request(n(1), 1, Mode::Shared, 0.0);
        t.release(n(1), 99, 1.0);
    }
}
