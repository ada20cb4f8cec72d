//! Batched-execution tests: sorted-batch descent must be
//! indistinguishable from singleton execution (same results, same final
//! contents) while paying visibly fewer latch acquisitions, and batch
//! boundaries must never reorder conflicting same-key operations.

use cbtree_btree::{BatchOp, ConcurrentBTree, Protocol};
use std::collections::BTreeMap;

/// Deterministic LCG (same multiplier the unit suites use).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn seeded_ops(seed: u64, n: usize, key_space: u64) -> Vec<BatchOp<u64>> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let r = rng.next();
            let key = rng.next() % key_space;
            match r % 10 {
                0..=4 => BatchOp::Insert(key, r),
                5..=6 => BatchOp::Remove(key),
                _ => BatchOp::Get(key),
            }
        })
        .collect()
}

/// The same seeded op stream, executed batched on one tree and
/// singleton on another, must return identical per-op results and leave
/// identical final contents — on every protocol, across many batch
/// sizes (including sizes that straddle splits).
#[test]
fn batched_matches_singleton_differentially() {
    const KEY_SPACE: u64 = 900;
    for p in Protocol::ALL_WITH_RECOVERY {
        let batched = ConcurrentBTree::new(p, 5);
        let single = ConcurrentBTree::new(p, 5);
        let mut stream = seeded_ops(0xBA7C_4ED0 ^ p.name().len() as u64, 6000, KEY_SPACE);
        let mut batch_no = 0usize;
        while !stream.is_empty() {
            // Vary the batch size: 1, 2, 4, ..., 64, 1, 2, ...
            let take = (1usize << (batch_no % 7)).min(stream.len());
            batch_no += 1;
            let chunk: Vec<BatchOp<u64>> = stream.drain(..take).collect();
            let singleton_results: Vec<Option<u64>> = chunk
                .iter()
                .map(|op| match *op {
                    BatchOp::Get(k) => single.get(&k),
                    BatchOp::Insert(k, v) => single.insert(k, v),
                    BatchOp::Remove(k) => single.remove(&k),
                })
                .collect();
            let out = batched.execute_batch(chunk);
            assert_eq!(out.results, singleton_results, "{p} batch {batch_no}");
            assert_eq!(out.summary.ops, take as u64, "{p}");
            assert!(out.summary.descents >= 1, "{p}");
            assert!(
                out.summary.leaf_reuses + out.summary.descents >= out.summary.ops,
                "{p}: every op is a reuse or follows a descent"
            );
            // Recovery variants retain fallback-insert latches to commit.
            batched.txn_commit();
            single.txn_commit();
            if batch_no.is_multiple_of(20) {
                batched.vacuum();
                single.vacuum();
            }
        }
        batched.check().unwrap_or_else(|e| panic!("{p}: {e}"));
        single.check().unwrap_or_else(|e| panic!("{p}: {e}"));
        assert_eq!(
            batched.range(0, KEY_SPACE),
            single.range(0, KEY_SPACE),
            "{p} final contents"
        );
        assert_eq!(batched.len(), single.len(), "{p}");
    }
}

/// Conflicting same-key operations inside one batch keep their
/// submission order (the sort is stable), so the batch behaves exactly
/// like the singleton sequence.
#[test]
fn same_key_ops_keep_submission_order() {
    let tree = ConcurrentBTree::new(Protocol::BLink, 6);
    tree.insert(50, 0u64);
    let out = tree.execute_batch(vec![
        BatchOp::Insert(50, 1),
        BatchOp::Remove(50),
        BatchOp::Insert(50, 2),
        BatchOp::Get(50),
        BatchOp::Remove(7),
    ]);
    assert_eq!(
        out.results,
        vec![Some(0), Some(1), None, Some(2), None],
        "results arrive in submission order"
    );
    assert_eq!(tree.get(&50), Some(2), "last same-key write wins");
    assert_eq!(tree.len(), 1);
}

/// A dense sorted batch over a prefilled tree reuses held leaves for
/// almost every operation and pays measurably fewer latches per op than
/// the same work executed singleton.
#[test]
fn dense_batch_amortizes_descents_and_latches() {
    let batched = ConcurrentBTree::new(Protocol::LockCoupling, 8);
    let single = ConcurrentBTree::new(Protocol::LockCoupling, 8);
    for k in 0..4000u64 {
        batched.insert(k, k);
        single.insert(k, k);
    }
    let before_b = batched.counters();
    let before_s = single.counters();

    let ops: Vec<BatchOp<u64>> = (1000..1256u64).map(BatchOp::Get).collect();
    let out = batched.execute_batch(ops);
    for (i, r) in out.results.iter().enumerate() {
        assert_eq!(*r, Some(1000 + i as u64));
    }
    assert!(
        out.summary.leaf_reuses > out.summary.descents,
        "dense keys mostly reuse the held leaf: {:?}",
        out.summary
    );
    assert!(out.summary.right_hops > 0, "consecutive leaves hop right");

    for k in 1000..1256u64 {
        assert_eq!(single.get(&k), Some(k));
    }
    let db = batched.counters().since(&before_b);
    let ds = single.counters().since(&before_s);
    assert_eq!(db.ops, ds.ops, "both executed the same op count");
    assert!(
        db.latches_per_op() < ds.latches_per_op() / 2.0,
        "batched {} vs singleton {} latches/op",
        db.latches_per_op(),
        ds.latches_per_op()
    );
}

/// Inserts that overflow the held leaf fall back to the protocol's
/// native split path; accounting records them and contents stay exact.
#[test]
fn overflowing_inserts_fall_back_to_native_splits() {
    for p in Protocol::ALL_WITH_RECOVERY {
        let tree = ConcurrentBTree::new(p, 4);
        let ops: Vec<BatchOp<u64>> = (0..500u64).map(|k| BatchOp::Insert(k, k * 3)).collect();
        let out = tree.execute_batch(ops);
        tree.txn_commit();
        assert!(
            out.summary.fallback_inserts > 0,
            "{p}: cap-4 leaves must overflow"
        );
        assert!(out.results.iter().all(|r| r.is_none()), "{p}: fresh keys");
        assert_eq!(tree.len(), 500, "{p}");
        tree.check().unwrap_or_else(|e| panic!("{p}: {e}"));
        for k in 0..500u64 {
            assert_eq!(tree.get(&k), Some(k * 3), "{p} key {k}");
        }
    }
}

/// The empty batch is a no-op with empty accounting.
#[test]
fn empty_batch_is_a_noop() {
    let tree = ConcurrentBTree::<u64>::new(Protocol::Olc, 8);
    let before = tree.counters();
    let out = tree.execute_batch(Vec::new());
    assert!(out.results.is_empty());
    assert_eq!(out.summary, Default::default());
    assert_eq!(tree.counters().since(&before).ops, 0);
}

/// `execute_batch`, as the checker's batched recorder calls it, returns
/// what singleton execution would have.
#[test]
fn execute_batch_returns_singleton_results() {
    let tree = ConcurrentBTree::new(Protocol::OptimisticDescent, 6);
    let out = tree.execute_batch(vec![
        BatchOp::Insert(1, 10),
        BatchOp::Insert(2, 20),
        BatchOp::Get(1),
        BatchOp::Remove(3),
    ]);
    assert_eq!(out.results, vec![None, None, Some(10), None]);
    assert_eq!(out.summary.ops, 4);
}

/// Concurrent batch workers interleaved with singleton mutators and
/// vacuum passes: disjoint stripes keep the final contents exactly
/// predictable; structural invariants must hold throughout.
#[test]
fn concurrent_batches_and_singletons_agree() {
    use std::sync::Arc;
    for p in [Protocol::LockCoupling, Protocol::BLink, Protocol::Olc] {
        let tree = Arc::new(ConcurrentBTree::new(p, 4));
        for k in (0..8000u64).step_by(2) {
            tree.insert(k, 0u64);
        }
        std::thread::scope(|s| {
            // Two batch workers, each owning the first 1984 keys of a
            // 4000-key stripe (62 chunks of 32).
            for t in 0..2u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    let base = t * 4000;
                    for chunk in 0..62u64 {
                        let lo = base + chunk * 32;
                        let ops: Vec<BatchOp<u64>> = (lo..lo + 32)
                            .map(|k| {
                                if k % 2 == 0 {
                                    BatchOp::Remove(k)
                                } else {
                                    BatchOp::Insert(k, 1)
                                }
                            })
                            .collect();
                        let out = tree.execute_batch(ops);
                        assert_eq!(out.summary.ops, 32, "{p}");
                        if chunk % 16 == 0 {
                            tree.vacuum();
                        }
                    }
                });
            }
            // Two singleton mutators on the rest of each stripe.
            for t in 0..2u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    let lo = t * 4000 + 62 * 32; // keys the batch workers never touch
                    for k in lo..(t + 1) * 4000 {
                        if k % 2 == 0 {
                            assert!(tree.remove(&k).is_some(), "{p} key {k}");
                        } else {
                            assert!(tree.insert(k, 1).is_none(), "{p} key {k}");
                        }
                    }
                });
            }
        });
        assert_eq!(tree.len(), 4000, "{p}");
        tree.check().unwrap_or_else(|e| panic!("{p}: {e}"));
        for k in 0..8000u64 {
            assert_eq!(tree.contains_key(&k), k % 2 == 1, "{p} key {k}");
        }
    }
}

/// Batched execution against a `BTreeMap` oracle, batch by batch: the
/// canonical differential check the service layer's correctness rides
/// on.
#[test]
fn batched_matches_btreemap_oracle() {
    const KEY_SPACE: u64 = 500;
    let tree = ConcurrentBTree::new(Protocol::BLink, 5);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut stream = seeded_ops(0x04AC_1E5E, 4000, KEY_SPACE);
    while !stream.is_empty() {
        let take = 24.min(stream.len());
        let chunk: Vec<BatchOp<u64>> = stream.drain(..take).collect();
        let want: Vec<Option<u64>> = chunk
            .iter()
            .map(|op| match *op {
                BatchOp::Get(k) => oracle.get(&k).copied(),
                BatchOp::Insert(k, v) => oracle.insert(k, v),
                BatchOp::Remove(k) => oracle.remove(&k),
            })
            .collect();
        assert_eq!(tree.execute_batch(chunk).results, want);
    }
    tree.check().unwrap();
    let got = tree.range(0, KEY_SPACE);
    let want: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want);
}
