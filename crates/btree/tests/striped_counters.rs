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

use cbtree_btree::{ConcurrentBTree, OpCountersSnapshot, Protocol};
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
