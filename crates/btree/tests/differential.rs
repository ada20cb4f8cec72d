//! Differential tests: one seeded op stream applied sequentially to
//! every protocol — recovery variants included, committing after every
//! op (transaction size 1) — at node capacities on both sides of every
//! arena slot-class boundary, and to a `std::collections::BTreeMap`
//! oracle; every return value and the final contents must match
//! exactly. All seven protocols additionally run a schedule-perturbed
//! concurrent workload, and OLC's restart counters are sanity-checked in
//! both regimes (zero single-threaded, nonzero under contended
//! injection). Each perturbed test holds the injector for its whole run.
//!
//! Both the oracle stream and the perturbed concurrent workload
//! interleave periodic `vacuum` passes, so slot recycling (a no-op on
//! the link protocols, real reclamation everywhere else) is exercised
//! against the oracle on every protocol.

use cbtree_btree::{ConcurrentBTree, Protocol};
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

/// Node capacities the oracle stream runs at: the smallest legal one,
/// then each slot class's largest capacity and the one just past it
/// (classes hold 4, 8, 16, 32, 64 and 128 keys), with 5 — the suite's
/// long-standing default — among them.
const CAPACITIES: [usize; 10] = [3, 4, 5, 8, 9, 16, 17, 64, 65, 128];

#[test]
fn all_protocols_match_btreemap_oracle() {
    for cap in CAPACITIES {
        for p in Protocol::ALL_WITH_RECOVERY {
            match_oracle(p, cap);
        }
    }
}

/// Runs the seeded op stream against `p` at node capacity `cap` and the
/// oracle side by side.
fn match_oracle(p: Protocol, cap: usize) {
    const OPS: usize = 6000;
    const KEY_SPACE: u64 = 700;

    let tree = ConcurrentBTree::new(p, cap);
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = Lcg(0xD1FF_E4E7);

    for i in 0..OPS {
        let r = rng.next();
        let key = rng.next() % KEY_SPACE;
        match r % 10 {
            // 40% inserts, 20% removes, 20% gets, 10% contains, 10% ranges.
            0..=3 => {
                let val = r;
                assert_eq!(
                    tree.insert(key, val),
                    oracle.insert(key, val),
                    "{p} cap {cap} op {i}"
                );
            }
            4..=5 => {
                assert_eq!(
                    tree.remove(&key),
                    oracle.remove(&key),
                    "{p} cap {cap} op {i}"
                );
            }
            6..=7 => {
                assert_eq!(
                    tree.get(&key),
                    oracle.get(&key).copied(),
                    "{p} cap {cap} op {i}"
                );
            }
            8 => {
                assert_eq!(
                    tree.contains_key(&key),
                    oracle.contains_key(&key),
                    "{p} cap {cap} op {i}"
                );
            }
            _ => {
                let lo = key;
                let hi = (key + 1 + rng.next() % 60).min(KEY_SPACE);
                let got = tree.range(lo, hi);
                let want: Vec<(u64, u64)> = oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "{p} cap {cap} range [{lo},{hi}) op {i}");
            }
        }
        // Transaction size 1: recovery variants commit after every op; a
        // no-op for everything else.
        tree.txn_commit();
        assert_eq!(tree.len(), oracle.len(), "{p} cap {cap} op {i}");
        // Interleave slot reclamation with the op stream (no-op on the
        // link protocols): recycled-slot reuse must never change an
        // answer.
        if i % 500 == 499 {
            tree.vacuum();
        }
    }

    // Final contents, checked key by key and via one full scan.
    tree.check()
        .unwrap_or_else(|e| panic!("{p} cap {cap}: {e}"));
    let full = tree.range(0, KEY_SPACE);
    let want: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(full, want, "{p} cap {cap} final contents");
    assert!(
        tree.counters().ops >= OPS as u64,
        "{p} telemetry counts ops"
    );
}

/// OLC restart-counter sanity, quiet half: with no concurrent writers
/// every optimistic window validates on the first try, so a
/// single-threaded run performs validations but never restarts — and
/// never takes a reader latch.
#[test]
fn olc_restarts_zero_single_threaded() {
    let tree = ConcurrentBTree::new(Protocol::Olc, 5);
    for k in 0..2000u64 {
        tree.insert(k, k);
    }
    for k in 0..2000u64 {
        assert_eq!(tree.get(&k), Some(k));
        assert!(tree.contains_key(&k));
    }
    assert_eq!(tree.range(0, 2000).len(), 2000);
    let c = tree.counters();
    assert_eq!(c.restarts, 0, "no writers, no restarts");
    assert_eq!(c.v_restarts_writer + c.v_restarts_version, 0);
    assert!(c.v_validations > 0, "reads validate versions");
    assert_eq!(c.r_latch_total(), 0, "OLC readers never latch");
}

/// OLC restart-counter sanity, loud half: contended readers under
/// schedule-perturbation injection (which dilates the read-version →
/// validate window) must observe restarts, and every restart must be
/// attributed to exactly one cause.
#[test]
fn olc_restarts_observed_under_contended_injection() {
    use cbtree_sync::inject::{self, InjectConfig};
    use std::sync::Arc;

    let injector = inject::enable(
        0x01C0_5EED,
        InjectConfig {
            yield_per_mille: 100,
            spin_per_mille: 400,
            max_spin: 3_000,
            split_window_spin: 4_000,
        },
    );
    let tree = Arc::new(ConcurrentBTree::new(Protocol::Olc, 4));
    for k in 0..512u64 {
        tree.insert(k, 0);
    }
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                inject::register_thread(t);
                for i in 0..3_000u64 {
                    let k = (t * 1_000_003 + i * 7919) % 512;
                    tree.insert(k, i);
                    tree.remove(&((k + 97) % 512));
                }
            });
        }
        for t in 4..8u64 {
            let tree = Arc::clone(&tree);
            s.spawn(move || {
                inject::register_thread(t);
                for i in 0..6_000u64 {
                    let k = (t + i * 31) % 512;
                    std::hint::black_box(tree.get(&k));
                }
            });
        }
    });
    drop(injector);
    let c = tree.counters();
    assert!(c.v_validations > 0);
    assert!(
        c.restarts > 0,
        "contended injected OLC reads must restart at least once"
    );
    assert_eq!(
        c.v_restarts_writer + c.v_restarts_version,
        c.restarts,
        "every OLC restart carries exactly one cause"
    );
    tree.check().unwrap();
}

/// All seven protocols survive a schedule-perturbed concurrent mixed
/// workload: disjoint stripes make the final contents exactly
/// predictable even though the interleavings are adversarial.
#[test]
fn all_protocols_survive_perturbed_concurrency() {
    use cbtree_sync::inject;
    use std::sync::Arc;

    for (i, p) in Protocol::ALL_WITH_RECOVERY.into_iter().enumerate() {
        let injector = inject::enable(0xD1FF + i as u64, Default::default());
        let tree = Arc::new(ConcurrentBTree::new(p, 4));
        for k in (0..4000u64).step_by(2) {
            tree.insert(k, 0u64);
        }
        // Release the latches the recovery variants retained during
        // pre-population, or every worker below deadlocks on them.
        tree.txn_commit();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    inject::register_thread(t);
                    for k in t * 1000..(t + 1) * 1000 {
                        if k % 2 == 0 {
                            assert!(tree.remove(&k).is_some(), "{p} key {k}");
                        } else {
                            assert!(tree.insert(k, 1).is_none(), "{p} key {k}");
                        }
                        tree.txn_commit(); // transaction size 1
                                           // Recycle emptied leaves under the other
                                           // workers' feet (no-op on the link protocols).
                        if k % 256 == 0 {
                            tree.vacuum();
                        }
                    }
                });
            }
        });
        drop(injector);
        assert_eq!(tree.len(), 2000, "{p}");
        tree.check().unwrap_or_else(|e| panic!("{p}: {e}"));
        for k in 0..4000u64 {
            assert_eq!(tree.contains_key(&k), k % 2 == 1, "{p} key {k}");
        }
    }
}
