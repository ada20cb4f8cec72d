//! OLC `get` of a heap-owning value: `String` may not be cloned inside
//! an unvalidated read window (`OlcValue::IN_WINDOW` is false), so the
//! lookup descends latch-free, then clones under a shared latch on the
//! leaf alone, re-checking the slot's generation there. The linearizability
//! checker records `u64` histories, which take the in-window path, so this
//! directed test is what runs that latched lookup against concurrent
//! inserts, removes and `vacuum` recycling the slots its handles name.

use cbtree_btree::{ConcurrentBTree, Protocol};
use std::sync::atomic::{AtomicBool, Ordering};

const KEYS: u64 = 512;
/// Keys emptied, vacuumed and refilled per round: whole leaves at
/// capacity 4.
const BLOCK: u64 = 48;
const ROUNDS: u64 = 200;

fn value(key: u64) -> String {
    key.to_string()
}

#[test]
fn latched_olc_gets_read_only_their_keys_values_across_slot_recycling() {
    let tree = ConcurrentBTree::<String>::new(Protocol::Olc, 4);
    for k in 0..KEYS {
        tree.insert(k, value(k));
    }
    let done = AtomicBool::new(false);
    let (tree, done) = (&tree, &done);
    let (reclaimed, found) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                s.spawn(move || {
                    let (mut x, mut found) = (r + 1, 0u64);
                    while !done.load(Ordering::Acquire) {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        let key = (x >> 33) % KEYS;
                        if let Some(v) = tree.get(&key) {
                            assert_eq!(v, value(key), "get({key}) read another key's value");
                            found += 1;
                        }
                    }
                    found
                })
            })
            .collect();
        let mut reclaimed = 0;
        for round in 0..ROUNDS {
            let lo = round * 97 % (KEYS - BLOCK);
            for k in lo..lo + BLOCK {
                tree.remove(&k);
            }
            reclaimed += tree.vacuum();
            for k in lo..lo + BLOCK {
                tree.insert(k, value(k));
            }
        }
        done.store(true, Ordering::Release);
        let found: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        (reclaimed, found)
    });
    assert!(
        reclaimed > 0,
        "no slot was recycled, so no handle went stale"
    );
    assert!(tree.root_handle().arena().recycled() >= reclaimed as u64);
    assert!(found > 0, "the readers found nothing");
    tree.check().unwrap();
    for k in 0..KEYS {
        assert_eq!(tree.get(&k), Some(value(k)));
    }
}
