//! The counting allocator counts a known pattern exactly. Its own test
//! binary with one test, so nothing else allocates while a scope is open.

use cbtree_benchmark::alloc::{Counting, Scope};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn known_pattern_is_counted_exactly_and_nothing_outside_a_scope() {
    let scope = Scope::begin();
    let a: Vec<u8> = Vec::with_capacity(1000);
    let b: Box<[u64; 32]> = Box::new([7; 32]);
    let mut c: Vec<u32> = Vec::with_capacity(10);
    c.reserve_exact(100); // one realloc: frees 40, requests 400
    drop(a);
    let counted = scope.end();
    assert_eq!(counted.calls, 4);
    assert_eq!(counted.bytes, 1000 + 256 + 40 + 400);
    assert_eq!(counted.live, 256 + 400);
    assert_eq!(counted.peak_live, 1000 + 256 + 400);
    drop((b, c));

    // Switched off: allocations between scopes leave no mark.
    let v: Vec<u8> = Vec::with_capacity(4096);
    drop(v);
    let empty = Scope::begin().end();
    assert_eq!((empty.calls, empty.bytes, empty.live), (0, 0, 0));
}
