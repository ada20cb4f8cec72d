//! Randomized model-matching tests: every protocol must behave exactly
//! like `std::collections::BTreeMap` under arbitrary operation sequences,
//! and structural invariants must hold at every quiescent point. Every
//! operation is followed by a commit (transaction size 1), which the
//! recovery variants need and every other protocol ignores.
//!
//! Cases are generated by the workspace's own deterministic PRNG
//! (`cbtree_workload::Rng`), so failures reproduce exactly from the
//! printed `(seed, case)` pair with no external test framework.

use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_workload::Rng;
use std::collections::BTreeMap;

const SEED: u64 = 0x5EED_B7EE_0001;
const CASES: usize = 64;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Contains(u64),
}

fn random_ops(rng: &mut Rng, key_space: u64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let k = rng.next_below(key_space);
            match rng.next_below(4) {
                0 => Op::Insert(k, rng.next_u64()),
                1 => Op::Remove(k),
                2 => Op::Get(k),
                _ => Op::Contains(k),
            }
        })
        .collect()
}

fn check_against_model(protocol: Protocol, cap: usize, ops: &[Op], ctx: &str) {
    let tree = ConcurrentBTree::new(protocol, cap);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                assert_eq!(tree.insert(k, v), model.insert(k, v), "insert {k} [{ctx}]");
            }
            Op::Remove(k) => {
                assert_eq!(tree.remove(&k), model.remove(&k), "remove {k} [{ctx}]");
            }
            Op::Get(k) => {
                assert_eq!(tree.get(&k), model.get(&k).copied(), "get {k} [{ctx}]");
            }
            Op::Contains(k) => {
                assert_eq!(
                    tree.contains_key(&k),
                    model.contains_key(&k),
                    "contains {k} [{ctx}]"
                );
            }
        }
        tree.txn_commit();
        assert_eq!(tree.len(), model.len(), "len drifted [{ctx}]");
    }
    if let Err(e) = tree.check() {
        panic!("invariant violated: {e} [{ctx}]");
    }
}

fn matches_model(protocol: Protocol) {
    let mut rng = Rng::new(SEED);
    for case in 0..CASES {
        let cap = 3 + rng.next_below(13) as usize;
        let len = 1 + rng.next_below(399) as usize;
        let ops = random_ops(&mut rng, 200, len);
        check_against_model(
            protocol,
            cap,
            &ops,
            &format!("seed={SEED:#x} case={case} cap={cap}"),
        );
    }
}

#[test]
fn every_protocol_matches_model() {
    for p in Protocol::ALL_WITH_RECOVERY {
        matches_model(p);
    }
}

/// Dense ascending inserts are the classic splitting worst case; every
/// protocol must keep the tree valid and complete.
#[test]
fn ascending_inserts_stay_valid() {
    let mut rng = Rng::new(SEED ^ 1);
    for case in 0..CASES {
        let n = 1 + rng.next_below(799) as usize;
        let cap = 3 + rng.next_below(7) as usize;
        for p in Protocol::ALL_WITH_RECOVERY {
            let tree = ConcurrentBTree::new(p, cap);
            for k in 0..n as u64 {
                assert!(tree.insert(k, k).is_none(), "{p:?} case={case}");
                tree.txn_commit();
            }
            assert_eq!(tree.len(), n);
            for k in 0..n as u64 {
                assert!(tree.contains_key(&k), "{p:?} case={case} key={k}");
            }
            tree.check()
                .unwrap_or_else(|e| panic!("{p:?} case={case}: {e}"));
        }
    }
}

/// Range scans agree with the model's range on a quiescent tree, for
/// every protocol.
#[test]
fn range_matches_model() {
    let mut rng = Rng::new(SEED ^ 2);
    for case in 0..CASES {
        let mut entries: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..rng.next_below(300) {
            entries.insert(rng.next_below(1000), rng.next_u64());
        }
        let lo = rng.next_below(1000);
        let hi = lo.saturating_add(rng.next_below(400));
        let cap = 3 + rng.next_below(9) as usize;
        let expect: Vec<(u64, u64)> = entries.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
        for p in Protocol::ALL_WITH_RECOVERY {
            let tree = ConcurrentBTree::new(p, cap);
            for (&k, &v) in &entries {
                tree.insert(k, v);
                tree.txn_commit();
            }
            let got = tree.range(lo, hi);
            assert_eq!(got, expect, "{p:?} case={case} lo={lo} hi={hi}");
        }
    }
}
