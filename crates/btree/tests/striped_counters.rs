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
//! The counters are also exact against the per-level lock statistics:
//! every grant a level's statistics record is one of the engine's
//! counted latches, at the level the node had, whatever happened to the
//! slot before (retired, recycled at another level); retained and queued
//! holds land where they belong; and a B-link operation latches each
//! node it needs once.
//!
//! Finally, one seeded single-thread stream pins every protocol's exact
//! counts — per-level latches, splits, chases, restarts, validations,
//! chain depth, commits and spills, height and slots allocated — so a
//! change to the engine that is meant to keep behaviour cannot move a
//! single latch unnoticed.

use cbtree_btree::node::for_each_handle;
use cbtree_btree::{BatchOp, ConcurrentBTree, OpCountersSnapshot, Protocol};
use cbtree_sync::SamplePeriod;
use cbtree_workload::Rng;
use std::sync::Barrier;
use std::time::{Duration, Instant};

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

/// Nodes per level found by walking the tree, leaves first.
fn walked_nodes(tree: &ConcurrentBTree<u64>) -> Vec<u64> {
    let mut levels = vec![0; tree.height()];
    for_each_handle(&tree.root_handle(), |level, _| levels[level - 1] += 1);
    levels
}

/// The acceptance check for per-level lock statistics on a quiescent
/// tree: each level's acquisitions are exactly the engine's latch counts,
/// its live-node count is what a walk finds, and its zero-wait bucket is
/// the sampled grants minus the recorded waits (one thread: one stripe).
fn assert_levels_exact(tree: &ConcurrentBTree<u64>, period: u64, what: &str) {
    let counted = tree.counters();
    let levels = tree.level_stats();
    let nodes: Vec<u64> = levels.iter().map(|&(n, _)| n).collect();
    assert_eq!(nodes, walked_nodes(tree), "{what}: live nodes per level");
    for (i, (_, s)) in levels.iter().enumerate() {
        let level = i + 1;
        assert_eq!(
            s.r_acquires, counted.r_latches[i],
            "{what}: level {level} shared"
        );
        assert_eq!(
            s.w_acquires, counted.w_latches[i],
            "{what}: level {level} exclusive"
        );
        for (acq, hist) in [
            (s.r_acquires, &s.r_wait_hist),
            (s.w_acquires, &s.w_wait_hist),
        ] {
            let sampled = acq.div_ceil(period);
            let waits = hist.total() - hist.counts[0];
            assert_eq!(
                hist.counts[0],
                sampled - waits,
                "{what}: level {level} zero-wait bucket"
            );
        }
    }
}

#[test]
fn every_lock_acquisition_is_counted() {
    for (protocol, sample) in Protocol::ALL_WITH_RECOVERY
        .into_iter()
        .flat_map(|p| [(p, SamplePeriod::EXACT), (p, SamplePeriod::every(4))])
    {
        let tree = ConcurrentBTree::with_sampling(protocol, 6, sample);
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
            // Retained holds end at the commit; the node walk below
            // cannot read a node this thread still holds exclusively.
            tree.txn_commit();
            if n % 300 == 299 {
                tree.vacuum();
            }
            let what = format!("{protocol} 1/{} op {n} ({what})", sample.period());
            assert_levels_exact(&tree, sample.period(), &what);
        }
        tree.check().unwrap();
    }
}

#[test]
fn retired_and_recycled_slots_keep_their_history_out_of_other_levels() {
    let tree = ConcurrentBTree::new(Protocol::LockCoupling, 4);
    for k in 0..2_000u64 {
        tree.insert(k * 4, k);
    }
    let mut leaves = Vec::new();
    for_each_handle(&tree.root_handle(), |level, node| {
        if level == 1 {
            leaves.push(*node);
        }
    });
    for k in 200..1_800u64 {
        tree.remove(&(k * 4));
    }
    let before = tree.level_stats();
    let freed = tree.vacuum();
    assert!(freed > 100, "vacuum reclaimed {freed} leaves");
    let after = tree.level_stats();
    // The retired leaves' history stays in level 1: nothing decreases.
    let (b, a) = (&before[0].1, &after[0].1);
    for (what, was, now) in [
        ("r_acquires", b.r_acquires, a.r_acquires),
        ("w_acquires", b.w_acquires, a.w_acquires),
        ("r_hold_ns", b.r_hold_ns, a.r_hold_ns),
        ("w_hold_ns", b.w_hold_ns, a.w_hold_ns),
        (
            "zero waits",
            b.w_wait_hist.counts[0],
            a.w_wait_hist.counts[0],
        ),
    ] {
        assert!(
            now >= was,
            "level 1 {what} fell across the vacuum: {was} -> {now}"
        );
    }
    assert_eq!(after[0].0, before[0].0 - freed as u64, "live leaves");
    assert_levels_exact(&tree, 1, "after vacuum");

    // Regrow, four times as dense as before, until a recycled leaf slot
    // serves a level-2 node.
    let retired: Vec<u32> = leaves
        .iter()
        .filter(|n| n.stale())
        .map(|n| n.id().idx)
        .collect();
    assert_eq!(retired.len(), freed);
    let recycled_at_level_2 = |tree: &ConcurrentBTree<u64>| {
        let mut found = false;
        for_each_handle(&tree.root_handle(), |level, node| {
            found |= level == 2 && retired.contains(&node.id().idx);
        });
        found
    };
    let mut k = 800;
    while !recycled_at_level_2(&tree) {
        assert!(k < 7_200, "no recycled slot reached level 2");
        tree.insert(k, k);
        k += 1;
    }
    // Level 2 gained nothing from the slot's leaf past: its acquisitions
    // are still exactly the engine's level-2 latch counts.
    assert_levels_exact(&tree, 1, "after regrowth");
    tree.check().unwrap();
}

#[test]
fn node_counts_match_the_walk_for_every_protocol() {
    for protocol in Protocol::ALL_WITH_RECOVERY {
        let tree = ConcurrentBTree::new(protocol, 4);
        let mut rng = Rng::new(0x11FE);
        for round in 0..4u64 {
            for _ in 0..600 {
                tree.insert(rng.next_below(3_000), round);
            }
            for _ in 0..500 {
                tree.remove(&rng.next_below(3_000));
            }
            tree.txn_commit();
            tree.vacuum();
            let nodes: Vec<u64> = tree.level_stats().iter().map(|&(n, _)| n).collect();
            assert_eq!(nodes, walked_nodes(&tree), "{protocol} round {round}");
        }
    }
}

#[test]
fn retained_holds_are_recorded_at_commit() {
    let tree = ConcurrentBTree::new(Protocol::RecoveryNaive, 4);
    for k in 0..500u64 {
        tree.insert(k * 2, k);
    }
    tree.txn_commit();
    assert!(tree.height() >= 3);
    // Read before the insert: the chain it retains may include the root,
    // which `height` would then wait on.
    let before = tree.level_stats();
    tree.insert(501, 1); // retains at least the leaf's exclusive latch
    std::thread::sleep(Duration::from_millis(2));
    tree.txn_commit();
    let after = tree.level_stats();
    let leaf_hold = after[0].1.w_hold_ns - before[0].1.w_hold_ns;
    assert!(
        leaf_hold >= 2_000_000,
        "the retained leaf hold ends at the commit: {leaf_hold} ns"
    );
    let counted = tree.counters();
    for (i, (_, s)) in after.iter().enumerate().skip(1) {
        assert!(s.w_hold_ns > 0, "level {}: exclusive holds", i + 1);
        assert_eq!(s.w_acquires, counted.w_latches[i], "level {}", i + 1);
    }
}

#[test]
fn contended_grant_starts_its_hold_at_the_grant() {
    // A lone leaf root. The owner retains its exclusive latch (the leaf
    // protocol's transaction retention) while a second writer queues on
    // it; the queueing must show as leaf-level wait and never as hold.
    let tree = ConcurrentBTree::new(Protocol::RecoveryLeaf, 8);
    tree.insert(1, 1);
    tree.txn_commit();
    let before = tree.level_stats()[0].1;
    let t_a0 = Instant::now();
    tree.insert(2, 2); // retains the leaf
    let budget = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let t0 = Instant::now();
            tree.insert(3, 3); // queues behind the retained latch
            tree.txn_commit();
            t0.elapsed()
        });
        while tree.root_handle().queued() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(1));
        tree.txn_commit();
        // Each writer's wait plus hold fits in its own span.
        let owner = t_a0.elapsed();
        owner + writer.join().unwrap()
    });
    let leaf = tree.level_stats()[0].1.since(&before);
    assert_eq!(leaf.w_acquires, 2);
    assert_eq!(leaf.w_contended, 1);
    assert!(leaf.w_wait_ns >= 1_000_000, "the queueing is wait");
    assert!(
        leaf.w_wait_hist.quantile(1.0) >= 500_000,
        "the wait has its bucket at the leaf level"
    );
    assert_eq!(
        leaf.w_wait_hist.total(),
        2,
        "one wait observation per grant"
    );
    assert!(
        leaf.w_wait_ns + leaf.w_hold_ns <= budget.as_nanos() as u64,
        "the wait is not counted again as hold"
    );
}

#[test]
fn single_thread_holds_fit_in_the_wall_time() {
    // One thread of B-link lookups holds one latch at a time, handed
    // over from level to level, so the holds of all levels never overlap
    // and their sum is bounded by the run's wall time by `Instant`. Most
    // of a lookup is spent under a latch, so a doubled or otherwise wrong
    // tick → ns scale pushes the sum past that bound.
    let tree = ConcurrentBTree::new(Protocol::BLink, 16);
    for k in 0..20_000u64 {
        tree.insert(k, k);
    }
    let before = tree.level_stats();
    let t0 = Instant::now();
    for k in 0..100_000u64 {
        std::hint::black_box(tree.get(&(k * 7_919 % 20_000)));
    }
    let wall = t0.elapsed().as_nanos() as u64;
    let held: u64 = tree
        .level_stats()
        .iter()
        .zip(&before)
        .map(|((_, after), (_, before))| {
            let d = after.since(before);
            d.r_hold_ns + d.w_hold_ns
        })
        .sum();
    assert!(held > 0, "every lookup is timed");
    assert!(held <= wall, "{held} ns held in {wall} ns of wall time");
}

/// One line of exact counts: `ops`, the per-level latch counts (leaves
/// first, trimmed above the root), then the event totals, the height
/// and the slots the arena handed out.
fn fingerprint(tree: &ConcurrentBTree<u64>) -> String {
    let c = tree.counters();
    let levels = |a: &[u64]| {
        let len = a.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        format!("{:?}", &a[..len])
    };
    format!(
        "ops={} r={} w={} splits={} chases={} restarts={} v={}/{}/{} peak={} txn={}/{} h={} alloc={}",
        c.ops,
        levels(&c.r_latches),
        levels(&c.w_latches),
        c.splits,
        c.chases,
        c.restarts,
        c.v_validations,
        c.v_restarts_writer,
        c.v_restarts_version,
        c.peak_chain,
        c.txn_commits,
        c.txn_spills,
        tree.height(),
        tree.root_handle().arena().allocated(),
    )
}

/// The seeded stream behind [`EXACT`]: inserts, removes, gets,
/// `contains_key`, ranges and batches of 8, committing every third op
/// (so the recovery variants both retain and spill) and vacuuming every
/// 700th.
fn exact_stream(protocol: Protocol, cap: usize) -> String {
    let tree = ConcurrentBTree::new(protocol, cap);
    let mut rng = Rng::new(0xE8AC_7C07);
    for n in 0..3_000u64 {
        let key = rng.next_below(1_500);
        match rng.next_below(12) {
            0..=3 => drop(tree.insert(key, n)),
            4..=5 => drop(tree.remove(&key)),
            6..=7 => drop(tree.get(&key)),
            8 => drop(tree.contains_key(&key)),
            9 => drop(tree.range(key, key + 1 + rng.next_below(80))),
            _ => {
                let ops = (0..8)
                    .map(|i| {
                        let k = key + i * (1 + rng.next_below(6));
                        match rng.next_below(3) {
                            0 => BatchOp::Insert(k, n),
                            1 => BatchOp::Get(k),
                            _ => BatchOp::Remove(k),
                        }
                    })
                    .collect();
                drop(tree.execute_batch(ops));
            }
        }
        if n % 3 == 2 {
            tree.txn_commit();
        }
        if n % 700 == 699 {
            tree.vacuum();
        }
    }
    tree.txn_commit();
    tree.check().unwrap();
    fingerprint(&tree)
}

/// `(protocol, capacity, exact counts)` for [`exact_stream`].
#[rustfmt::skip]
const EXACT: [(&str, usize, &str); 21] = [
    ("two-phase", 4, "ops=6353 r=[2459, 2135, 2127, 2098, 1918, 1100] w=[5639, 1919, 1655, 1619, 1451, 768] splits=461 chases=1456 restarts=0 v=0/0/0 peak=6 txn=0/0 h=6 alloc=467"),
    ("two-phase", 16, "ops=6353 r=[1407, 1582, 1417] w=[3021, 1520, 1343] splits=87 chases=540 restarts=0 v=0/0/0 peak=3 txn=0/0 h=3 alloc=90"),
    ("two-phase", 64, "ops=6353 r=[1164, 1513] w=[2195, 1439] splits=17 chases=130 restarts=0 v=0/0/0 peak=2 txn=0/0 h=2 alloc=19"),
    ("lock-coupling", 4, "ops=6353 r=[2459, 2135, 2127, 2098, 1918, 1100] w=[5639, 1919, 1655, 1619, 1451, 768] splits=461 chases=1456 restarts=0 v=0/0/0 peak=5 txn=0/0 h=6 alloc=467"),
    ("lock-coupling", 16, "ops=6353 r=[1407, 1582, 1417] w=[3021, 1520, 1343] splits=87 chases=540 restarts=0 v=0/0/0 peak=3 txn=0/0 h=3 alloc=90"),
    ("lock-coupling", 64, "ops=6353 r=[1164, 1513] w=[2195, 1439] splits=17 chases=130 restarts=0 v=0/0/0 peak=2 txn=0/0 h=2 alloc=19"),
    ("optimistic", 4, "ops=6353 r=[2464, 3791, 3778, 3713, 3365, 1866] w=[6016, 639, 376, 361, 301, 123] splits=461 chases=1456 restarts=377 v=0/0/0 peak=5 txn=0/0 h=6 alloc=467"),
    ("optimistic", 16, "ops=6353 r=[1415, 3082, 2756] w=[3102, 100, 68] splits=87 chases=540 restarts=81 v=0/0/0 peak=3 txn=0/0 h=3 alloc=90"),
    ("optimistic", 64, "ops=6353 r=[1201, 2948] w=[2212, 20] splits=17 chases=130 restarts=17 v=0/0/0 peak=2 txn=0/0 h=2 alloc=19"),
    ("b-link", 4, "ops=6353 r=[2479, 3800, 3787, 3722, 3374, 1875] w=[4214, 338, 88, 22, 5] splits=458 chases=1464 restarts=0 v=0/0/0 peak=1 txn=0/0 h=6 alloc=464"),
    ("b-link", 16, "ops=6353 r=[1419, 3082, 2756] w=[2581, 80, 5] splits=87 chases=540 restarts=0 v=0/0/0 peak=1 txn=0/0 h=3 alloc=90"),
    ("b-link", 64, "ops=6353 r=[1213, 2948] w=[2091, 16] splits=17 chases=130 restarts=0 v=0/0/0 peak=1 txn=0/0 h=2 alloc=19"),
    ("olc", 4, "ops=6353 r=[1, 1079, 1074, 1053, 983, 598] w=[5639, 1919, 1655, 1619, 1451, 768] splits=461 chases=1456 restarts=0 v=7306/0/0 peak=5 txn=0/0 h=6 alloc=467"),
    ("olc", 16, "ops=6353 r=[4, 529, 472] w=[3021, 1520, 1343] splits=87 chases=540 restarts=0 v=3656/0/0 peak=3 txn=0/0 h=3 alloc=90"),
    ("olc", 64, "ops=6353 r=[16, 473] w=[2195, 1439] splits=17 chases=130 restarts=0 v=2438/0/0 peak=2 txn=0/0 h=2 alloc=19"),
    ("recovery-naive", 4, "ops=6353 r=[2459, 2136, 2128, 2101, 1918, 1100] w=[5639, 1924, 1661, 1625, 1456, 771] splits=461 chases=1456 restarts=0 v=0/0/0 peak=5 txn=1001/459 h=6 alloc=467"),
    ("recovery-naive", 16, "ops=6353 r=[1407, 1589, 1425] w=[3021, 1543, 1363] splits=87 chases=540 restarts=0 v=0/0/0 peak=3 txn=1001/345 h=3 alloc=90"),
    ("recovery-naive", 64, "ops=6353 r=[1164, 1543] w=[2195, 1514] splits=17 chases=130 restarts=0 v=0/0/0 peak=2 txn=1001/390 h=2 alloc=19"),
    ("recovery-leaf", 4, "ops=6353 r=[2459, 2136, 2128, 2099, 1918, 1100] w=[5639, 1924, 1660, 1622, 1453, 769] splits=461 chases=1456 restarts=0 v=0/0/0 peak=5 txn=1001/451 h=6 alloc=467"),
    ("recovery-leaf", 16, "ops=6353 r=[1407, 1589, 1422] w=[3021, 1543, 1358] splits=87 chases=540 restarts=0 v=0/0/0 peak=3 txn=1001/332 h=3 alloc=90"),
    ("recovery-leaf", 64, "ops=6353 r=[1164, 1543] w=[2195, 1514] splits=17 chases=130 restarts=0 v=0/0/0 peak=2 txn=1001/386 h=2 alloc=19"),
];

#[test]
fn exact_counts_are_pinned_for_every_protocol() {
    let mut got = Vec::new();
    for protocol in Protocol::ALL_WITH_RECOVERY {
        for cap in [4, 16, 64] {
            got.push((protocol.name(), cap, exact_stream(protocol, cap)));
        }
    }
    let want: Vec<_> = EXACT
        .iter()
        .map(|&(p, c, s)| (p, c, s.to_owned()))
        .collect();
    if got != want {
        for (p, c, s) in &got {
            println!("    ({p:?}, {c}, \"{s}\"),");
        }
    }
    assert_eq!(got, want);
}
