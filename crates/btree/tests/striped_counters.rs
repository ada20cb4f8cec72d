//! The striped tree counters keep their exact-sum meaning: four threads
//! counting into their own stripes add up to what one thread counts
//! replaying the same operations.
//!
//! Latch counts depend on the tree's shape, so the comparison needs a
//! workload whose shape does not depend on the interleaving: the build
//! phase (which splits) runs its four threads one after another, and the
//! concurrent phase only looks keys up, replaces values and removes and
//! re-inserts keys it owns — none of which restructures a
//! merge-at-empty tree — so every operation latches the same levels
//! whoever else is running.
//!
//! The counters are also exact against the locks themselves: every
//! acquisition a lock's statistics record went through the engine's
//! counted path, and a B-link operation latches each node it needs once.

use cbtree_btree::node::for_each_handle;
use cbtree_btree::{BatchOp, ConcurrentBTree, OpCountersSnapshot, Protocol};
use cbtree_workload::Rng;
use std::sync::Barrier;

const THREADS: u64 = 4;
const KEYS_PER_THREAD: u64 = 2_500;
const OPS: usize = 10_000;

/// Thread `t` owns the keys congruent to `t` modulo [`THREADS`].
fn owned(t: u64, i: u64) -> u64 {
    i * THREADS + t
}

fn build_share(tree: &ConcurrentBTree<u64>, t: u64) {
    for i in 0..KEYS_PER_THREAD {
        assert_eq!(tree.insert(owned(t, i), i), None);
    }
}

/// Thread `t`'s 10 k mixed operations, then `100 * t` net removals.
fn mixed_share(tree: &ConcurrentBTree<u64>, t: u64) {
    let mut rng = Rng::new(0x57A1_BE00 + t);
    for n in 0..OPS {
        let key = owned(t, rng.next_below(KEYS_PER_THREAD));
        match n % 4 {
            0 => assert!(tree.get(&key).is_some()),
            1 => assert!(tree.contains_key(&key)),
            2 => assert!(tree.insert(key, n as u64).is_some()),
            _ => {
                let old = tree.remove(&key).expect("owned key is present");
                assert_eq!(tree.insert(key, old), None);
            }
        }
    }
    for i in 0..100 * t {
        assert!(tree.remove(&owned(t, i)).is_some());
    }
}

/// Builds and exercises a tree, each thread's share on a thread of its
/// own (`concurrent`) or all on the caller's; returns the counters after
/// the build, the counters at the end, and the final `len`.
fn run(protocol: Protocol, concurrent: bool) -> (OpCountersSnapshot, OpCountersSnapshot, usize) {
    let tree = ConcurrentBTree::new(protocol, 8);
    for t in 0..THREADS {
        if concurrent {
            // One after another, each on a thread (and so a stripe) of
            // its own: the shape is the sequential one, the counts are
            // spread.
            std::thread::scope(|s| {
                s.spawn(|| build_share(&tree, t));
            });
        } else {
            build_share(&tree, t);
        }
    }
    let built = tree.counters();
    if concurrent {
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (tree, start) = (&tree, &start);
                s.spawn(move || {
                    start.wait();
                    mixed_share(tree, t);
                });
            }
        });
    } else {
        for t in 0..THREADS {
            mixed_share(&tree, t);
        }
    }
    tree.check().unwrap();
    (built, tree.counters(), tree.len())
}

#[test]
fn four_threads_sum_to_the_single_threaded_replay() {
    for protocol in [Protocol::LockCoupling, Protocol::BLink] {
        let (built_mt, done_mt, len_mt) = run(protocol, true);
        let (built_st, done_st, len_st) = run(protocol, false);

        let expect_len = (THREADS * KEYS_PER_THREAD - 100 * (0..THREADS).sum::<u64>()) as usize;
        assert_eq!(len_mt, expect_len, "{protocol}");
        assert_eq!(len_st, expect_len, "{protocol}");

        for (what, mt, st) in [
            ("lifetime", done_mt, done_st),
            ("build", built_mt, built_st),
            // `since` on striped snapshots: the concurrent phase alone.
            ("window", done_mt.since(&built_mt), done_st.since(&built_st)),
        ] {
            assert_eq!(mt.ops, st.ops, "{protocol} {what}: ops");
            assert_eq!(mt.splits, st.splits, "{protocol} {what}: splits");
            assert_eq!(mt.r_latches, st.r_latches, "{protocol} {what}: r latches");
            assert_eq!(mt.w_latches, st.w_latches, "{protocol} {what}: w latches");
            assert_eq!(mt.chases, st.chases, "{protocol} {what}: chases");
            assert_eq!(mt.restarts, st.restarts, "{protocol} {what}: restarts");
        }
        assert!(built_mt.splits > 100, "{protocol}: the build split");
        let window = done_mt.since(&built_mt);
        // 10 k ops per thread, a quarter of them remove + re-insert
        // pairs, plus the net removals.
        let per_thread = (OPS + OPS / 4) as u64;
        assert_eq!(
            window.ops,
            THREADS * per_thread + 100 * (0..THREADS).sum::<u64>(),
            "{protocol}"
        );
        assert_eq!(window.splits, 0, "{protocol}: the window does not split");
    }
}

/// Latch acquisitions per level since `before`: `(shared, exclusive)`,
/// leaves first.
fn latch_delta(tree: &ConcurrentBTree<u64>, before: &OpCountersSnapshot) -> Vec<(u64, u64)> {
    let d = tree.counters().since(before);
    (0..tree.height())
        .map(|i| (d.r_latches[i], d.w_latches[i]))
        .collect()
}

#[test]
fn b_link_latches_each_node_once() {
    let tree = ConcurrentBTree::new(Protocol::BLink, 8);
    for k in 0..5_000u64 {
        tree.insert(k * 2, k);
    }
    let h = tree.height();
    assert!(h >= 4, "height {h}");
    let internal_reads = |leaf: (u64, u64)| {
        let mut want = vec![(1, 0); h];
        want[0] = leaf;
        want
    };
    for key in [0, 2_500, 9_998] {
        let before = tree.counters();
        assert_eq!(tree.get(&key), Some(key / 2));
        assert_eq!(
            latch_delta(&tree, &before),
            internal_reads((1, 0)),
            "get {key}"
        );

        let before = tree.counters();
        assert!(!tree.contains_key(&(key + 1)));
        assert_eq!(
            latch_delta(&tree, &before),
            internal_reads((1, 0)),
            "contains {key}"
        );

        // A replacement never splits.
        let before = tree.counters();
        assert_eq!(tree.insert(key, 7), Some(key / 2));
        assert_eq!(
            latch_delta(&tree, &before),
            internal_reads((0, 1)),
            "insert {key}"
        );

        let before = tree.counters();
        assert_eq!(tree.remove(&key), Some(7));
        assert_eq!(
            latch_delta(&tree, &before),
            internal_reads((0, 1)),
            "remove {key}"
        );

        // One batch descent: h - 1 shared latches and the leaf's exclusive
        // one, for every op the leaf covers.
        let before = tree.counters();
        let ops = vec![BatchOp::Insert(key, 1), BatchOp::Get(key)];
        let out = tree.execute_batch(ops);
        assert_eq!(out.summary.descents, 1);
        assert_eq!(
            latch_delta(&tree, &before),
            internal_reads((0, 1)),
            "batch {key}"
        );
    }
    tree.check().unwrap();
}

/// Each level's lock statistics: `(nodes, shared acquires, exclusive
/// acquires)`, leaves first. Read latch-free on a quiescent tree.
fn lock_acquires(tree: &ConcurrentBTree<u64>) -> Vec<(u64, u64, u64)> {
    let mut levels = vec![(0, 0, 0); tree.height()];
    for_each_handle(&tree.root_handle(), |level, node| {
        let s = node.stats().snapshot();
        let l = &mut levels[level - 1];
        *l = (l.0 + 1, l.1 + s.r_acquires, l.2 + s.w_acquires);
    });
    levels
}

#[test]
fn every_lock_acquisition_is_counted() {
    for protocol in Protocol::ALL_WITH_RECOVERY {
        let tree = ConcurrentBTree::new(protocol, 6);
        let mut rng = Rng::new(0xC0_0C7ED);
        for n in 0..1_500u64 {
            let key = rng.next_below(800);
            let what = match n % 6 {
                0 | 1 => {
                    tree.insert(key, n);
                    "insert"
                }
                2 => {
                    tree.get(&key);
                    "get"
                }
                3 => {
                    tree.contains_key(&key);
                    "contains"
                }
                4 => {
                    tree.remove(&key);
                    "remove"
                }
                _ if n % 12 == 5 => {
                    tree.range(key, key + 40);
                    "range"
                }
                _ => {
                    let ops = (0..6)
                        .map(|i| match i % 3 {
                            0 => BatchOp::Insert(key + i * 3, n),
                            1 => BatchOp::Get(key + i * 5),
                            _ => BatchOp::Remove(key + i * 7),
                        })
                        .collect();
                    tree.execute_batch(ops);
                    "batch"
                }
            };
            // The walk below cannot read a node this thread still
            // holds exclusively for its transaction.
            tree.txn_commit();
            let counted = tree.counters();
            for (i, &(nodes, r, w)) in lock_acquires(&tree).iter().enumerate() {
                assert_eq!(
                    r,
                    counted.r_latches[i],
                    "{protocol} op {n} ({what}): level {} shared",
                    i + 1
                );
                // Installing a node takes its exclusive latch once, outside
                // any operation's descent.
                assert_eq!(
                    w,
                    counted.w_latches[i] + nodes,
                    "{protocol} op {n} ({what}): level {} exclusive",
                    i + 1
                );
            }
        }
        tree.check().unwrap();
    }
}
