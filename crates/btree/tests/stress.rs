//! Multi-threaded stress tests: linearizability-style conservation checks
//! under genuinely concurrent mixed workloads, for every protocol. Each
//! thread commits after every operation (transaction size 1), which the
//! recovery variants need and every other protocol ignores.

use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_workload::{OpStream, Operation, OpsConfig};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Runs a random mixed workload from many threads and checks that the
/// tree's length matches the net number of successful inserts minus
/// successful removes, and that the structure is valid afterwards.
fn conservation_under_mix(protocol: Protocol, threads: u64, per_thread: usize) {
    let tree = Arc::new(ConcurrentBTree::<u64>::new(protocol, 8));
    let net = Arc::new(AtomicI64::new(0));
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = Arc::clone(&tree);
            let net = Arc::clone(&net);
            s.spawn(move || {
                let mut stream = OpStream::new(OpsConfig::paper(10_000), 1000 + t);
                for _ in 0..per_thread {
                    match stream.next_op() {
                        Operation::Search(k) => {
                            let _ = tree.get(&k);
                        }
                        Operation::Insert(k) => {
                            if tree.insert(k, k).is_none() {
                                net.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Operation::Delete(k) => {
                            if tree.remove(&k).is_some() {
                                net.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                    }
                    tree.txn_commit();
                }
            });
        }
    });
    let expected = net.load(Ordering::Relaxed);
    assert!(expected >= 0, "net count went negative: {expected}");
    assert_eq!(
        tree.len() as i64,
        expected,
        "{protocol:?}: length conservation violated"
    );
    tree.check()
        .unwrap_or_else(|e| panic!("{protocol:?}: invariant violated: {e}"));
}

#[test]
fn every_protocol_conserves_under_concurrency() {
    for p in Protocol::ALL_WITH_RECOVERY {
        conservation_under_mix(p, 8, 4_000);
    }
}

/// Writers insert disjoint stripes while a reader repeatedly verifies a
/// stable prefix; pre-existing keys must never disappear mid-run.
fn stable_prefix_never_lost(protocol: Protocol) {
    let tree = Arc::new(ConcurrentBTree::<u64>::new(protocol, 5));
    for k in 0..2_000u64 {
        tree.insert(k * 10, k);
        tree.txn_commit();
    }
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..10_000u64 {
                    // Keys ≡ t+1 (mod 10): never collide with the ×10 prefix.
                    tree.insert(i * 10 + t + 1, i);
                    tree.txn_commit();
                }
            });
        }
        for _ in 0..2 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for round in 0..5 {
                    for k in 0..2_000u64 {
                        assert_eq!(
                            tree.get(&(k * 10)),
                            Some(k),
                            "{protocol} round {round}: stable key {} lost",
                            k * 10
                        );
                        tree.txn_commit();
                    }
                }
            });
        }
    });
    assert_eq!(tree.len(), 2_000 + 4 * 10_000);
    tree.check().unwrap();
}

#[test]
fn every_protocol_keeps_a_stable_prefix() {
    for p in Protocol::ALL_WITH_RECOVERY {
        stable_prefix_never_lost(p);
    }
}

/// Insert/remove churn on a *small hot range* maximizes split/latch
/// contention; afterwards the surviving key set must match a sequential
/// replay per thread-stripe.
fn hot_range_churn(protocol: Protocol) {
    let tree = Arc::new(ConcurrentBTree::<u64>::new(protocol, 4));
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                // Each thread owns keys ≡ t (mod 8): insert, remove, reinsert.
                for i in 0..2_000u64 {
                    let k = i * 8 + t;
                    assert!(tree.insert(k, t).is_none());
                    tree.txn_commit();
                    assert_eq!(tree.remove(&k), Some(t));
                    tree.txn_commit();
                    assert!(tree.insert(k, t + 100).is_none());
                    tree.txn_commit();
                }
            });
        }
    });
    assert_eq!(tree.len(), 16_000, "{protocol}");
    for t in 0..8u64 {
        for i in (0..2_000u64).step_by(131) {
            assert_eq!(tree.get(&(i * 8 + t)), Some(t + 100), "{protocol}");
        }
    }
    tree.check().unwrap();
}

#[test]
fn every_protocol_survives_hot_range_churn() {
    for p in Protocol::ALL_WITH_RECOVERY {
        hot_range_churn(p);
    }
}

/// The blink tree's crossing counter should record activity under
/// contention yet stay far below one crossing per operation (Figure 9's
/// qualitative claim, on real threads).
#[test]
fn blink_crossings_are_rare_on_real_threads() {
    let tree = Arc::new(ConcurrentBTree::<()>::new(Protocol::BLink, 4));
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                for i in 0..10_000u64 {
                    tree.insert(i * 8 + t, ());
                }
            });
        }
    });
    let per_op = tree.counters().chases as f64 / 80_000.0;
    assert!(per_op < 0.2, "crossings per op = {per_op}");
    tree.check().unwrap();
}
