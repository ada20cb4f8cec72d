//! The Link-type tree (Lehman–Yao B-link).
//!
//! Every node carries a high key and a right link (maintained by
//! [`crate::node::split_node`]). Operations hold **at most one
//! latch at a time**: a descent latches a node, decides, releases, then
//! latches the next. The price is that a node observed without a latch
//! may have split in the meantime — the key may now live in a right
//! sibling. The cure is the link: whenever a latched node does not cover
//! the search key, chase `right` until one does. Splits are half-splits:
//! the new sibling becomes reachable via the link *before* its separator
//! is posted in the parent, so the parent insertion happens afterwards,
//! under its own (single) latch.

use crate::descent::{DescentTree, LatchStrategy, ReadPolicy, UpdatePolicy};

/// The Lehman–Yao link strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct BLinkStrategy;

impl LatchStrategy for BLinkStrategy {
    const NAME: &'static str = "b-link";
    const READ: ReadPolicy = ReadPolicy::Link;
    const UPDATE: UpdatePolicy = UpdatePolicy::Link;
}

/// A concurrent B+-tree using the Lehman–Yao link protocol.
pub type BLinkTree<V> = DescentTree<V, BLinkStrategy>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn sequential_matches_std_btreemap() {
        let tree = BLinkTree::new(5);
        let mut model = BTreeMap::new();
        let mut state = 0xABCD_EF01_u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(13);
            let key = (state >> 33) % 400;
            match state % 3 {
                0 => assert_eq!(tree.insert(key, state), model.insert(key, state)),
                1 => assert_eq!(tree.remove(&key), model.remove(&key)),
                _ => assert_eq!(tree.get(&key), model.get(&key).copied()),
            }
            assert_eq!(tree.len(), model.len());
        }
        tree.check().unwrap();
    }

    #[test]
    fn concurrent_inserts_all_found() {
        let tree = Arc::new(BLinkTree::new(6));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    for i in 0..2_500u64 {
                        tree.insert(i * 8 + t, t);
                    }
                });
            }
        });
        assert_eq!(tree.len(), 20_000);
        tree.check().unwrap();
        for t in 0..8u64 {
            for i in (0..2_500u64).step_by(97) {
                assert_eq!(tree.get(&(i * 8 + t)), Some(t));
            }
        }
    }

    #[test]
    fn concurrent_mixed_conserves_keys() {
        let tree = Arc::new(BLinkTree::new(5));
        for k in (0..8000u64).step_by(2) {
            tree.insert(k, 0u64);
        }
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    for k in t * 1000..(t + 1) * 1000 {
                        if k % 2 == 0 {
                            assert!(tree.remove(&k).is_some());
                        } else {
                            assert!(tree.insert(k, 1).is_none());
                        }
                    }
                });
            }
        });
        assert_eq!(tree.len(), 4000);
        tree.check().unwrap();
        for k in 0..8000u64 {
            assert_eq!(tree.contains_key(&k), k % 2 == 1, "key {k}");
        }
    }

    #[test]
    fn readers_survive_concurrent_splits() {
        let tree = Arc::new(BLinkTree::new(4));
        for k in 0..500u64 {
            tree.insert(k * 100, k);
        }
        std::thread::scope(|s| {
            let w = Arc::clone(&tree);
            s.spawn(move || {
                // Dense inserts force many splits in ranges readers scan;
                // odd keys never collide with the readers' even keys.
                for k in 0..20_000u64 {
                    w.insert(2 * k + 1, k);
                }
            });
            for _ in 0..3 {
                let r = Arc::clone(&tree);
                s.spawn(move || {
                    for k in 0..500u64 {
                        assert_eq!(r.get(&(k * 100)), Some(k), "pre-existing key lost");
                    }
                });
            }
        });
        tree.check().unwrap();
    }

    #[test]
    fn range_scan_returns_sorted_window() {
        let tree = BLinkTree::new(6);
        for k in 0..1000u64 {
            tree.insert(k, k * 2);
        }
        let got = tree.range(100, 120);
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (100..120).collect::<Vec<_>>());
        assert!(got.iter().all(|&(k, v)| v == k * 2));
        assert!(tree.range(50, 50).is_empty());
        assert!(tree.range(2000, 3000).is_empty());
    }

    #[test]
    fn crossings_occur_under_contention_but_rarely() {
        let tree = Arc::new(BLinkTree::new(4));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    // All threads hammer the same growing region.
                    for i in 0..5_000u64 {
                        tree.insert(i * 8 + t, ());
                    }
                });
            }
        });
        let per_op = tree.crossing_count() as f64 / 40_000.0;
        assert!(per_op < 0.5, "crossings per op {per_op} should be small");
        tree.check().unwrap();
    }

    #[test]
    fn empty_leaves_persist_and_stay_usable() {
        let tree = BLinkTree::new(4);
        for k in 0..100u64 {
            tree.insert(k, k);
        }
        for k in 0..100u64 {
            tree.remove(&k);
        }
        assert!(tree.is_empty());
        for k in 0..100u64 {
            assert!(tree.insert(k, k).is_none());
        }
        assert_eq!(tree.len(), 100);
        tree.check().unwrap();
    }
}
