//! Concurrent-history recording over a shared [`ConcurrentBTree`].
//!
//! N worker threads apply operations to a shared tree; every operation is
//! bracketed by two ticks of one global atomic clock, yielding an
//! invocation/response event pair with a total order on events. Two
//! operations are *concurrent* exactly when their `[invoked, returned]`
//! tick intervals overlap; `A` really-precedes `B` when
//! `A.returned < B.invoked`. The linearizability checker consumes the
//! resulting [`History`].
//!
//! The clock is a single `fetch_add` per event — a deliberate, tiny
//! serialization that orders events without excluding overlap (operations
//! still run concurrently between their ticks). The schedule-perturbation
//! injector compensates for any race-masking the extra fence introduces.

use cbtree_btree::{BatchOp, ConcurrentBTree};
use std::sync::atomic::{AtomicU64, Ordering};

/// One map operation (the checker's alphabet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look `key` up.
    Get(u64),
    /// Insert `key → value`.
    Insert(u64, u64),
    /// Remove `key`.
    Remove(u64),
}

impl Op {
    /// The key the operation targets.
    pub fn key(&self) -> u64 {
        match *self {
            Op::Get(k) | Op::Insert(k, _) | Op::Remove(k) => k,
        }
    }
}

/// One completed operation with its bracketing ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Issuing worker thread.
    pub thread: usize,
    /// The operation invoked.
    pub op: Op,
    /// The response observed (`get`: the value; `insert`/`remove`: the
    /// previous/removed value).
    pub ret: Option<u64>,
    /// Global tick taken immediately before invoking the map.
    pub invoked: u64,
    /// Global tick taken immediately after the map returned.
    pub returned: u64,
}

/// The global event clock shared by all recording threads.
#[derive(Debug, Default)]
pub struct Clock(AtomicU64);

impl Clock {
    /// A fresh clock at tick 0.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Takes the next tick.
    pub fn tick(&self) -> u64 {
        self.0.fetch_add(1, Ordering::SeqCst)
    }
}

/// Applies `op` to `map`, whatever its protocol, bracketing it with
/// clock ticks.
pub fn record(map: &ConcurrentBTree<u64>, clock: &Clock, thread: usize, op: Op) -> OpRecord {
    let invoked = clock.tick();
    let ret = match op {
        Op::Get(k) => map.get(&k),
        Op::Insert(k, v) => map.insert(k, v),
        Op::Remove(k) => map.remove(&k),
    };
    let returned = clock.tick();
    OpRecord {
        thread,
        op,
        ret,
        invoked,
        returned,
    }
}

/// Applies `ops` to `map` as **one sorted batch** through
/// [`ConcurrentBTree::execute_batch`], bracketing the whole batch with a
/// single tick pair and appending one [`OpRecord`] per operation (in
/// submission order, with per-op results) to `out`.
///
/// Every op in the batch shares the batch's `[invoked, returned]`
/// interval: each one really did take effect at some instant inside the
/// batch's busy period, which is exactly the claim the linearizability
/// checker verifies. The interval sharing widens the search window (the
/// checker may consider intra-batch reorderings), so a batched history
/// checks the *results* the tree reported — a batch that applied
/// same-key ops out of submission order returns previous-values no
/// sequential witness can explain, and the checker convicts it.
pub fn record_batch(
    map: &ConcurrentBTree<u64>,
    clock: &Clock,
    thread: usize,
    ops: &[Op],
    out: &mut Vec<OpRecord>,
) {
    let batch: Vec<BatchOp<u64>> = ops
        .iter()
        .map(|&op| match op {
            Op::Get(k) => BatchOp::Get(k),
            Op::Insert(k, v) => BatchOp::Insert(k, v),
            Op::Remove(k) => BatchOp::Remove(k),
        })
        .collect();
    let invoked = clock.tick();
    let outcome = map.execute_batch(batch);
    let returned = clock.tick();
    debug_assert_eq!(outcome.results.len(), ops.len());
    for (&op, &ret) in ops.iter().zip(outcome.results.iter()) {
        out.push(OpRecord {
            thread,
            op,
            ret,
            invoked,
            returned,
        });
    }
}

/// A complete recorded history: the map's initial contents plus every
/// completed operation, sorted by invocation tick.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Key/value pairs present before the first recorded operation.
    pub init: Vec<(u64, u64)>,
    /// Completed operations, sorted by `invoked`.
    pub ops: Vec<OpRecord>,
}

impl History {
    /// Assembles a history from per-thread record batches.
    pub fn from_threads(init: Vec<(u64, u64)>, batches: Vec<Vec<OpRecord>>) -> Self {
        let mut ops: Vec<OpRecord> = batches.into_iter().flatten().collect();
        ops.sort_by_key(|r| r.invoked);
        History { init, ops }
    }

    /// Maximum number of operations whose tick intervals overlap at any
    /// instant — the "window" the linearizability search must consider.
    pub fn max_concurrency(&self) -> usize {
        // Sweep over invoke (+1) and return (−1) ticks.
        let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(self.ops.len() * 2);
        for r in &self.ops {
            deltas.push((r.invoked, 1));
            deltas.push((r.returned, -1));
        }
        deltas.sort_unstable();
        let mut open = 0i64;
        let mut peak = 0i64;
        for (_, d) in deltas {
            open += d;
            peak = peak.max(open);
        }
        peak.max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_btree::{ConcurrentBTree, Protocol};

    #[test]
    fn record_brackets_and_returns() {
        let tree = ConcurrentBTree::new(Protocol::BLink, 4);
        let clock = Clock::new();
        let a = record(&tree, &clock, 0, Op::Insert(5, 50));
        let b = record(&tree, &clock, 0, Op::Get(5));
        let c = record(&tree, &clock, 0, Op::Remove(5));
        assert_eq!(a.ret, None);
        assert_eq!(b.ret, Some(50));
        assert_eq!(c.ret, Some(50));
        assert!(a.invoked < a.returned);
        assert!(a.returned < b.invoked, "sequential ops must not overlap");
    }

    #[test]
    fn max_concurrency_counts_overlap() {
        let rec = |invoked, returned| OpRecord {
            thread: 0,
            op: Op::Get(0),
            ret: None,
            invoked,
            returned,
        };
        // Two overlapping, one disjoint.
        let h = History::from_threads(Vec::new(), vec![vec![rec(0, 3), rec(1, 2), rec(4, 5)]]);
        assert_eq!(h.max_concurrency(), 2);
        let h2 = History::from_threads(Vec::new(), vec![vec![rec(0, 1), rec(2, 3)]]);
        assert_eq!(h2.max_concurrency(), 1);
        assert_eq!(History::default().max_concurrency(), 0);
    }
}
