//! Seeded multi-thread property test: the drained trace agrees with the
//! engine's `OpCounters` window diffs.

use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_obs::{opcode, trace, EventKind, MODE_EXCLUSIVE};
use std::collections::HashMap;
use std::sync::Barrier;

/// SplitMix64, the workspace's standard seeded generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const THREADS: usize = 4;
const OPS: usize = 2_000;
const KEYSPACE: u64 = 10_000;

#[test]
fn drained_event_counts_equal_opcounters_window_diffs() {
    for protocol in Protocol::ALL_WITH_RECOVERY {
        let _guard = trace::measurement_lock();
        trace::enable(true);

        let tree = ConcurrentBTree::new(protocol, 8);
        let mut seed = 0xC0FFEE ^ protocol.name().len() as u64;
        for _ in 0..1_000 {
            tree.insert(splitmix(&mut seed) % KEYSPACE, 1u64);
        }
        tree.txn_commit();

        // Open the measured window: snapshot counters, clear the trace.
        let before = tree.counters();
        let _ = trace::drain();

        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let tree = &tree;
                let start = &start;
                s.spawn(move || {
                    let mut seed = 0x5EED_0000 + t as u64;
                    start.wait();
                    for i in 0..OPS {
                        let key = splitmix(&mut seed) % KEYSPACE;
                        match splitmix(&mut seed) % 4 {
                            0 => drop(tree.insert(key, t as u64)),
                            1 => drop(tree.remove(&key)),
                            2 => drop(tree.get(&key)),
                            _ => drop(tree.contains_key(&key)),
                        }
                        if i % 8 == 7 {
                            tree.txn_commit();
                        }
                    }
                    tree.txn_commit();
                });
            }
        });

        // Close the window (workers have exited: quiescent).
        let diff = tree.counters().since(&before);
        let t = trace::drain();
        trace::enable(false);
        assert_eq!(t.dropped, 0, "{protocol}: rings sized for the workload");

        let mut kind_counts: HashMap<EventKind, u64> = HashMap::new();
        let mut w_grants: HashMap<u16, u64> = HashMap::new();
        let mut r_grants_tree = 0u64;
        let mut op_begins = 0u64;
        for e in &t.events {
            *kind_counts.entry(e.kind).or_insert(0) += 1;
            match e.kind {
                EventKind::LatchGrant if e.level >= 1 => {
                    if e.arg & MODE_EXCLUSIVE != 0 {
                        *w_grants.entry(e.level).or_insert(0) += 1;
                    } else {
                        r_grants_tree += 1;
                    }
                }
                EventKind::OpBegin => {
                    assert!((e.arg as usize) < opcode::NAMES.len());
                    op_begins += 1;
                }
                _ => {}
            }
        }
        let count = |k: EventKind| kind_counts.get(&k).copied().unwrap_or(0);

        // Every counter with an exact event mirror must agree with the
        // window diff.
        assert_eq!(op_begins, diff.ops, "{protocol}: ops");
        assert_eq!(
            op_begins,
            count(EventKind::OpEnd),
            "{protocol}: ops complete"
        );
        assert_eq!(
            count(EventKind::Restart),
            diff.restarts,
            "{protocol}: restarts"
        );
        assert_eq!(count(EventKind::Chase), diff.chases, "{protocol}: chases");
        assert_eq!(
            count(EventKind::TxnCommit),
            diff.txn_commits,
            "{protocol}: commits"
        );
        assert_eq!(
            count(EventKind::TxnSpill),
            diff.txn_spills,
            "{protocol}: spills"
        );
        // Exclusive node-latch acquisitions all flow through the counted
        // engine path, per level (leaves = level 1 = index 0).
        for (level, grants) in &w_grants {
            assert_eq!(
                *grants,
                diff.w_latches[*level as usize - 1],
                "{protocol}: exclusive grants at level {level}"
            );
        }
        for (i, &c) in diff.w_latches.iter().enumerate() {
            if c > 0 {
                assert!(
                    w_grants.contains_key(&(i as u16 + 1)),
                    "{protocol}: counted W latches at level {} missing from trace",
                    i + 1
                );
            }
        }
        // Every shared acquisition an operation makes is counted too.
        let r_counted: u64 = diff.r_latches.iter().sum();
        assert_eq!(r_grants_tree, r_counted, "{protocol}: shared grants");
        // Every granted latch was released by quiesce.
        assert_eq!(
            count(EventKind::LatchGrant),
            count(EventKind::LatchRelease),
            "{protocol}: grants equal releases at quiesce"
        );
        // Split windows pair up and the splits happened (the prefill
        // plus 8-cap nodes force some).
        assert_eq!(
            count(EventKind::SplitBegin),
            count(EventKind::SplitEnd),
            "{protocol}: split windows close"
        );
        tree.check().unwrap();
    }
}
