//! Shared node representation for all concurrent B+-trees.
//!
//! A node is a small header — key count, level, Lehman–Yao right link
//! and high key, leaf value buffer — followed by one `[u64]` tail of
//! `2C + 3` words, `C` being the capacity class of the tree's arena (the
//! smallest of 4, 8, …, 128 not below the tree's node capacity; see
//! [`crate::arena`]). The first `C + 1` words are keys (a node holds
//! `cap + 1` of them transiently, just before its split), the last
//! `C + 2` are child ids packed with [`NodeId::to_bits`]. Keys sit ahead
//! of children, so a node search reads one contiguous run beside the
//! header, and a slot is as large as its tree needs. Nodes are built in
//! place in their arena slot, under the slot's exclusive latch: splits
//! and root growth allocate nothing but a free-list pop. Every node — in
//! every protocol — maintains Lehman–Yao metadata (high key and right
//! link): the link protocols need it for correctness, the others carry
//! it for free and it enables one common invariant checker.
//!
//! Leaf *values* are the one heap-allocated part of a node (`V` is an
//! arbitrary `Clone` type). A slot's value buffer is reserved at the
//! slot's first install to the true transient maximum — `cap + 1`
//! values, held momentarily just before a split — and is never freed or
//! moved until the arena drops: retiring a slot clears the buffer in
//! place. So no insert can reallocate, and no retire can free, a buffer
//! optimistic readers may be chasing; [`Node::leaf_insert`] asserts it.

use crate::arena::Arena;
use std::fmt;

pub use crate::arena::{NodeId, NodeRef};

/// One B+-tree node: the header, then a tail `T` of keys and child ids.
/// Code handles nodes as [`Node`] (`T = [u64]`); only the arena's
/// segments name the sized form (`T = [u64; 2C + 3]`).
pub struct NodeT<V, T: ?Sized> {
    /// Keys in use: the first `nkeys` tail words (`u32`, so it packs
    /// beside `right` and the header stays 64 bytes).
    nkeys: u32,
    /// Height: 1 = leaf.
    pub level: usize,
    /// Right sibling on the same level (`None` = rightmost).
    pub right: Option<NodeId>,
    /// Exclusive upper bound of this node's key range (`None` = +∞).
    pub high: Option<u64>,
    /// Leaf values, `vals[i]` for `keys()[i]` (empty on internal nodes).
    vals: Vec<V>,
    /// `C + 1` key words, then `C + 2` child-id words.
    tail: T,
}

/// A B+-tree node as every descent sees it: header plus unsized tail.
pub type Node<V> = NodeT<V, [u64]>;

impl<V, const W: usize> NodeT<V, [u64; W]> {
    /// An empty leaf with no value buffer: a slot no node was installed
    /// in yet.
    pub(crate) fn vacant() -> Self {
        NodeT {
            nkeys: 0,
            level: 1,
            right: None,
            high: None,
            vals: Vec::new(),
            tail: [0; W],
        }
    }
}

impl<V> Node<V> {
    /// Where the child ids start: the key room, `C + 1`.
    fn kid_base(&self) -> usize {
        self.tail.len() / 2
    }

    /// Sorted keys (separators for internal nodes). A torn key count in
    /// an optimistic window is clamped to the key room, so the slice is
    /// at worst wrong (and discarded on validation), never out of bounds.
    pub fn keys(&self) -> &[u64] {
        &self.tail[..self.len().min(self.kid_base())]
    }

    /// Child-id words: `keys().len() + 1` for an internal node, none for
    /// a leaf (clamped like [`Node::keys`]).
    fn kid_bits(&self) -> &[u64] {
        let base = self.kid_base();
        let n = if self.is_leaf() {
            0
        } else {
            self.len().min(base) + 1
        };
        &self.tail[base..base + n]
    }

    /// Child ids, left to right (none for a leaf).
    pub fn kids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.kid_bits().iter().map(|&b| NodeId::from_bits(b))
    }

    /// Child `i`, or `None` past the last child (always, for a leaf).
    pub fn kid(&self, i: usize) -> Option<NodeId> {
        self.kid_bits().get(i).map(|&b| NodeId::from_bits(b))
    }

    /// Leaf values, parallel to [`Node::keys`] (empty on internal nodes).
    pub fn vals(&self) -> &[V] {
        &self.vals
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level == 1
    }

    /// Lehman–Yao range test: does this node's key range still cover
    /// `key`? `false` means a concurrent split moved the key right.
    pub fn covers(&self, key: u64) -> bool {
        self.high.is_none_or(|h| key < h)
    }

    /// Index of the child an internal node routes `key` to: the count of
    /// keys `<= key`.
    ///
    /// Every node search is one branch-free scan of the key run, not a
    /// binary search: the scan's loads do not depend on each other, so a
    /// node's key lines are fetched at once — one memory round trip for
    /// a node beyond the cache, where a binary search pays one dependent
    /// miss per probe.
    pub fn child_index(&self, key: u64) -> usize {
        self.keys().iter().map(|&k| usize::from(k <= key)).sum()
    }

    /// Exact-match search, like [`slice::binary_search`] on
    /// [`Node::keys`]: `Ok(i)` if `keys()[i] == key`, else `Err(i)` with
    /// `i` the position `key` would be inserted at. One scan, as in
    /// [`Node::child_index`].
    pub(crate) fn find(&self, key: u64) -> Result<usize, usize> {
        let keys = self.keys();
        let i = keys.iter().map(|&k| usize::from(k < key)).sum();
        if keys.get(i) == Some(&key) {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// The child id `key` routes to.
    ///
    /// # Panics
    /// Panics on leaves.
    pub fn child_for(&self, key: u64) -> NodeId {
        self.kid(self.child_index(key))
            .expect("child_for on a leaf")
    }

    /// Requests the value run's cache lines, so a leaf's value miss
    /// overlaps its key scan instead of following it (see
    /// [`cbtree_sync::prefetch`]). The run is empty on internal nodes,
    /// and never longer than the `cap + 1` values its buffer holds.
    #[inline]
    fn prefetch_vals(&self) {
        cbtree_sync::prefetch(self.vals.as_slice());
    }

    /// Leaf lookup (`None` on internal nodes, which hold no values).
    pub fn leaf_get(&self, key: u64) -> Option<&V> {
        self.prefetch_vals();
        let i = self.find(key).ok()?;
        self.vals.get(i)
    }

    /// Leaf insert/replace; returns the previous value if the key existed.
    ///
    /// # Panics
    /// Panics when the value buffer would reallocate: it is reserved to
    /// the `cap + 1` transient maximum, and moving it would leave
    /// latch-free readers holding a pointer into freed memory.
    pub fn leaf_insert(&mut self, key: u64, val: V) -> Option<V> {
        self.leaf_insert_at(self.find(key), key, val)
    }

    /// [`Node::leaf_insert`] at `at`, the result of [`Node::find`] for
    /// `key` on this node, unchanged since: a caller that has already
    /// searched the leaf does not search it again.
    ///
    /// # Panics
    /// As [`Node::leaf_insert`].
    pub(crate) fn leaf_insert_at(
        &mut self,
        at: Result<usize, usize>,
        key: u64,
        val: V,
    ) -> Option<V> {
        self.prefetch_vals();
        let pos = match at {
            Ok(i) => return Some(std::mem::replace(&mut self.vals[i], val)),
            Err(i) => i,
        };
        assert!(
            self.vals.len() < self.vals.capacity(),
            "published leaf value buffer would reallocate while shared"
        );
        self.insert_key(pos, key);
        self.vals.insert(pos, val);
        None
    }

    /// Leaf removal; returns the value if the key existed.
    pub fn leaf_remove(&mut self, key: u64) -> Option<V> {
        self.prefetch_vals();
        let i = self.find(key).ok()?;
        self.remove_key(i);
        Some(self.vals.remove(i))
    }

    /// Whether an insert into this node could force a split at node
    /// capacity `cap` — the lock-coupling "insert-unsafe" test.
    pub fn insert_unsafe(&self, cap: usize) -> bool {
        self.keys().len() >= cap
    }

    /// Whether a delete could empty this node.
    pub fn delete_unsafe(&self) -> bool {
        self.keys().len() <= 1
    }

    /// Whether the node holds more than `cap` keys and must split.
    pub fn overfull(&self, cap: usize) -> bool {
        self.keys().len() > cap
    }

    /// Inserts a separator/child pair into this internal node.
    pub fn insert_separator(&mut self, sep: u64, child: NodeId) {
        debug_assert!(!self.is_leaf());
        let n = self.len();
        let (Ok(pos) | Err(pos)) = self.find(sep);
        self.insert_key(pos, sep);
        let base = self.kid_base();
        self.tail
            .copy_within(base + pos + 1..base + n + 1, base + pos + 2);
        self.tail[base + pos + 1] = child.to_bits();
    }

    /// Removes child `i` (`i ≥ 1`) and the separator to its left: how
    /// vacuum unlinks an emptied leaf from its parent.
    pub(crate) fn remove_child(&mut self, i: usize) {
        debug_assert!(!self.is_leaf() && i >= 1);
        let n = self.len();
        self.remove_key(i - 1);
        let base = self.kid_base();
        self.tail.copy_within(base + i + 1..base + n + 1, base + i);
    }

    /// Empties the node in place as a fresh node at `level` whose value
    /// buffer has room for `room` values. The buffer is cleared, never
    /// freed: a slot keeps the buffer its first install reserved for
    /// the arena's lifetime, so an optimistic reader still inside a
    /// window on a retired or recycled slot reads live memory (and then
    /// fails validation).
    pub(crate) fn reset(&mut self, level: usize, room: usize) {
        self.nkeys = 0;
        self.level = level;
        self.right = None;
        self.high = None;
        self.vals.clear();
        self.vals.reserve_exact(room);
    }

    /// The raw key count (unclamped: exact under a latch).
    fn len(&self) -> usize {
        self.nkeys as usize
    }

    fn insert_key(&mut self, pos: usize, key: u64) {
        let n = self.len();
        assert!(n < self.kid_base(), "node key overflow ({n} keys)");
        self.tail.copy_within(pos..n, pos + 1);
        self.tail[pos] = key;
        self.nkeys += 1;
    }

    fn remove_key(&mut self, pos: usize) {
        let n = self.len();
        self.tail.copy_within(pos + 1..n, pos);
        self.nkeys -= 1;
    }
}

impl<V: fmt::Debug> fmt::Debug for Node<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Node");
        d.field("level", &self.level).field("keys", &self.keys());
        if self.is_leaf() {
            d.field("vals", &self.vals);
        } else {
            d.field("kids", &self.kids().collect::<Vec<_>>());
        }
        d.field("right", &self.right)
            .field("high", &self.high)
            .finish()
    }
}

/// Half-splits the node behind an exclusive latch into a fresh slot of
/// `arena`, built in place under the slot's own exclusive latch, and
/// links it: the composition every split site uses. The sibling takes
/// the upper half and inherits the node's right link and high key; the
/// node's high key becomes the separator, which the caller publishes
/// upward. Returns `(separator, sibling_handle)`.
pub fn split_node<'a, V>(arena: &'a Arena<V>, node: &mut Node<V>) -> (u64, NodeRef<'a, V>) {
    let mut sib = arena.alloc(node.level);
    let len = node.len();
    debug_assert!(len >= 2);
    let mid = len / 2;
    let sep = node.tail[mid];
    if node.is_leaf() {
        sib.tail[..len - mid].copy_from_slice(&node.tail[mid..len]);
        sib.vals.extend(node.vals.drain(mid..));
        sib.nkeys = (len - mid) as u32;
    } else {
        // The separator moves up: the sibling takes the keys after it
        // and the children right of it.
        let base = node.kid_base();
        let moved = len - mid - 1;
        sib.tail[..moved].copy_from_slice(&node.tail[mid + 1..len]);
        sib.tail[base..=base + moved].copy_from_slice(&node.tail[base + mid + 1..=base + len]);
        sib.nkeys = moved as u32;
    }
    node.nkeys = mid as u32;
    sib.right = node.right;
    sib.high = node.high;
    node.high = Some(sep);
    node.right = Some(sib.id());
    (sep, sib.node_ref())
}

/// Makes a new root over `left` and `right` separated by `sep`, built in
/// place in a fresh slot of `arena`.
pub fn make_root<V>(
    arena: &Arena<V>,
    left: NodeId,
    sep: u64,
    right: NodeId,
    level: usize,
) -> NodeRef<'_, V> {
    let mut root = arena.alloc(level);
    let base = root.kid_base();
    root.tail[base] = left.to_bits();
    root.insert_separator(sep, right);
    root.node_ref()
}

/// Visits every node handle in the tree, top level first. Walks the
/// leftmost spine downward and each level's right-link chain — all
/// protocols maintain right links, so this reaches every node. `f`
/// receives `(level, handle)`. Each node is read under a shared latch
/// that reports to no statistics (like [`level_heads`]), so callers must
/// ensure quiescence: no concurrent mutation or vacuum, and no latch of
/// this tree held by the calling thread.
pub fn for_each_handle<'a, V>(root: &NodeRef<'a, V>, mut f: impl FnMut(usize, &NodeRef<'a, V>)) {
    let mut leftmost = Some(*root);
    while let Some(first) = leftmost.take() {
        let mut cur = Some(first);
        while let Some(node) = cur.take() {
            let (level, first_child, right) = {
                let n = node.read();
                (n.level, n.kid(0), n.right)
            };
            if leftmost.is_none() {
                leftmost = first_child.map(|id| node.at(id));
            }
            f(level, &node);
            cur = right.map(|id| node.at(id));
        }
    }
}

/// The leftmost node of every level, top level first (audit accessor:
/// each entry is the head of that level's right-link chain). Callers
/// must ensure the tree is quiescent.
pub fn level_heads<'a, V>(root: &NodeRef<'a, V>) -> Vec<NodeRef<'a, V>> {
    let mut heads = Vec::new();
    let mut cur = Some(*root);
    while let Some(node) = cur.take() {
        cur = node.read().kid(0).map(|id| node.at(id));
        heads.push(node);
    }
    heads
}

/// Every node of one level, in right-link order starting from `head`
/// (audit accessor; quiescent use).
pub fn level_chain<'a, V>(head: &NodeRef<'a, V>) -> Vec<NodeRef<'a, V>> {
    let mut chain = Vec::new();
    let mut cur = Some(*head);
    while let Some(node) = cur.take() {
        cur = node.read().right.map(|id| node.at(id));
        chain.push(node);
    }
    chain
}

/// Walks the whole tree (quiescently — callers must ensure no concurrent
/// mutation) checking structural invariants. Returns a description of the
/// first violation.
pub fn check_invariants<V>(root: &NodeRef<'_, V>, cap: usize) -> Result<(), String> {
    fn walk<V>(
        node: &NodeRef<'_, V>,
        cap: usize,
        min: Option<u64>,
        high: Option<u64>,
    ) -> Result<usize, String> {
        if node.stale() {
            return Err("handle is stale (slot recycled)".into());
        }
        let n = node.read();
        let keys = n.keys();
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("keys not strictly sorted".into());
        }
        if keys.len() > cap {
            return Err(format!("node overfull: {} > {cap}", keys.len()));
        }
        if let Some(h) = n.high {
            if keys.iter().any(|&k| k >= h) {
                return Err("key at or above high key".into());
            }
        }
        if n.right.is_some() != n.high.is_some() {
            return Err("right link / high key mismatch".into());
        }
        if n.high != high {
            return Err(format!(
                "high key {:?} disagrees with parent bound {high:?}",
                n.high
            ));
        }
        if let Some(lo) = min {
            if keys.iter().any(|&k| k < lo) {
                return Err("key below subtree lower bound".into());
            }
        }
        if n.is_leaf() {
            if n.vals().len() != keys.len() {
                return Err("leaf vals/keys length mismatch".into());
            }
            return Ok(1);
        }
        let mut height = None;
        for (i, kid) in n.kids().enumerate() {
            let lo = if i == 0 { min } else { Some(keys[i - 1]) };
            let hi = keys.get(i).copied().or(n.high);
            let h = walk(&node.at(kid), cap, lo, hi)?;
            if *height.get_or_insert(h) != h {
                return Err("children at unequal heights".into());
            }
        }
        Ok(height.unwrap_or(0) + 1)
    }
    walk(root, cap, None, None).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(cap: usize) -> Arena<u64> {
        Arena::new(cap)
    }

    fn leaf_with<'a>(arena: &'a Arena<u64>, keys: &[u64]) -> NodeRef<'a, u64> {
        let mut n = arena.alloc(1);
        for &k in keys {
            n.leaf_insert(k, k * 10);
        }
        n.node_ref()
    }

    /// An internal node at level 2 over fresh leaves, one per separator
    /// gap.
    fn internal_with<'a>(arena: &'a Arena<u64>, seps: &[u64]) -> NodeRef<'a, u64> {
        let kid = || arena.alloc(1).id();
        let root = make_root(arena, kid(), seps[0], kid(), 2);
        for &s in &seps[1..] {
            root.write().insert_separator(s, kid());
        }
        root
    }

    #[test]
    fn leaf_insert_get_remove() {
        let arena = arena(8);
        let h = leaf_with(&arena, &[5, 1, 3]);
        let mut n = h.write();
        assert_eq!(n.keys(), &[1, 3, 5]);
        assert_eq!(n.leaf_get(3), Some(&30));
        assert_eq!(n.leaf_insert(3, 99), Some(30));
        assert_eq!(n.leaf_get(3), Some(&99));
        assert_eq!(n.leaf_remove(1), Some(10));
        assert_eq!(n.leaf_remove(1), None);
        assert_eq!(n.keys(), &[3, 5]);
        assert_eq!(n.vals(), &[99, 50]);
    }

    #[test]
    fn leaf_split_keeps_order_and_links() {
        let arena = arena(4);
        let h = leaf_with(&arena, &[1, 2, 3, 4, 5]);
        let mut n = h.write();
        let (sep, sib) = split_node(&arena, &mut n);
        assert_eq!(sep, 3);
        assert_eq!(n.keys(), &[1, 2]);
        assert_eq!(n.vals(), &[10, 20]);
        assert_eq!(n.high, Some(3));
        let s = sib.read();
        assert_eq!(s.keys(), &[3, 4, 5]);
        assert_eq!(s.vals(), &[30, 40, 50]);
        assert_eq!(n.right, Some(sib.id()));
    }

    #[test]
    fn internal_split_moves_separator_up() {
        let arena = arena(5);
        let h = internal_with(&arena, &[10, 20, 30, 40, 50]);
        let kids: Vec<NodeId> = h.read().kids().collect();
        assert_eq!(kids.len(), 6);
        let mut n = h.write();
        let (sep, sib) = split_node(&arena, &mut n);
        assert_eq!(sep, 30);
        assert_eq!(n.keys(), &[10, 20]);
        let s = sib.read();
        assert_eq!(s.keys(), &[40, 50]);
        assert_eq!(n.kids().collect::<Vec<_>>(), kids[..3]);
        assert_eq!(s.kids().collect::<Vec<_>>(), kids[3..]);
    }

    #[test]
    fn separators_insert_and_remove_with_their_right_child() {
        let arena = arena(8);
        let h = internal_with(&arena, &[10, 30]);
        let kids: Vec<NodeId> = h.read().kids().collect();
        let mut n = h.write();
        let new = NodeId { idx: 99, gen: 7 };
        n.insert_separator(20, new);
        assert_eq!(n.keys(), &[10, 20, 30]);
        assert_eq!(
            n.kids().collect::<Vec<_>>(),
            [kids[0], kids[1], new, kids[2]]
        );
        n.remove_child(2);
        assert_eq!(n.keys(), &[10, 30]);
        assert_eq!(n.kids().collect::<Vec<_>>(), kids);
        assert_eq!(n.kid(3), None);
    }

    #[test]
    fn covers_and_safety_checks() {
        let arena = arena(4);
        let h = leaf_with(&arena, &[1, 2, 3]);
        let mut n = h.write();
        assert!(n.covers(1_000_000));
        n.high = Some(10);
        assert!(n.covers(9));
        assert!(!n.covers(10));
        assert!(n.insert_unsafe(3));
        assert!(!n.insert_unsafe(4));
        assert!(!n.delete_unsafe());
        assert!(leaf_with(&arena, &[7]).read().delete_unsafe());
        assert_eq!(n.kid(0), None, "leaves have no children");
    }

    #[test]
    fn child_index_routing() {
        let arena = arena(4);
        let n = internal_with(&arena, &[10, 20]);
        let n = n.read();
        assert_eq!(n.child_index(5), 0);
        assert_eq!(n.child_index(10), 1);
        assert_eq!(n.child_index(15), 1);
        assert_eq!(n.child_index(20), 2);
        assert_eq!(n.child_index(99), 2);
        assert_eq!(n.child_for(15), n.kid(1).unwrap());
    }

    /// The scans agree with the binary searches they replace on every
    /// capacity class, every run length up to the transient `C + 1` and
    /// every probe at, beside and outside the keys; and on a torn key
    /// count, which `keys()` clamps to the key room.
    #[test]
    fn scans_agree_with_binary_search() {
        fn check(n: &Node<u64>) {
            let keys = n.keys();
            let probes = keys.iter().flat_map(|&k| [k - 1, k, k + 1]);
            for p in probes.chain([0, u64::MAX]) {
                let what = format!("probe {p} in {keys:?}");
                assert_eq!(
                    n.child_index(p),
                    keys.partition_point(|&k| k <= p),
                    "{what}"
                );
                assert_eq!(n.find(p), keys.binary_search(&p), "{what}");
            }
        }
        for class in [4, 8, 16, 32, 64, 128] {
            let arena = arena(class);
            let mut n = arena.alloc(1);
            let room = n.kid_base();
            assert_eq!(room, class + 1);
            for i in 0..room {
                n.tail[i] = 3 * (i as u64 + 1);
            }
            for len in 0..=room {
                n.nkeys = len as u32;
                assert_eq!(n.keys().len(), len);
                check(&n);
            }
            n.nkeys = u32::MAX;
            assert_eq!(n.keys().len(), room, "a torn count is clamped");
            check(&n);
        }
    }

    #[test]
    fn retire_keeps_the_value_buffer_for_the_next_tenant() {
        let arena = arena(16);
        let h = leaf_with(&arena, &[1, 2, 3]);
        let (ptr, room) = {
            let n = h.read();
            (n.vals.as_ptr(), n.vals.capacity())
        };
        assert_eq!(room, 17, "a leaf's buffer holds cap + 1 values");
        let mut g = h.write_guard();
        arena.retire(&mut g);
        assert!(g.keys().is_empty() && g.vals().is_empty());
        assert_eq!(g.vals.as_ptr(), ptr, "retire clears, never frees");
        drop(g);
        arena.recycle(h.id());
        let again = arena.alloc(1);
        assert_eq!(again.id().idx, h.id().idx, "the slot is recycled");
        assert_eq!(again.vals.as_ptr(), ptr);
        assert_eq!(again.vals.capacity(), 17);
    }

    /// Two linked leaves under a fresh root, for the invariant tests.
    fn two_leaf_tree<'a>(arena: &'a Arena<u64>, left_keys: &[u64]) -> NodeRef<'a, u64> {
        let left = leaf_with(arena, left_keys);
        let right = leaf_with(arena, &[5, 6]);
        {
            let mut l = left.write();
            l.high = Some(5);
            l.right = Some(right.id());
        }
        make_root(arena, left.id(), 5, right.id(), 2)
    }

    #[test]
    fn invariant_checker_accepts_valid_tree() {
        let arena = arena(4);
        let root = two_leaf_tree(&arena, &[1, 2]);
        check_invariants(&root, 4).unwrap();
    }

    #[test]
    fn invariant_checker_rejects_bad_separator() {
        let arena = arena(4);
        let root = two_leaf_tree(&arena, &[1, 9]); // 9 >= separator 5
        assert!(check_invariants(&root, 4).is_err());
    }

    #[test]
    fn invariant_checker_rejects_stale_child() {
        let arena = arena(4);
        let root = two_leaf_tree(&arena, &[1, 2]);
        check_invariants(&root, 4).unwrap();
        // Retire the right leaf without unlinking it from the parent —
        // exactly the inconsistency a buggy vacuum would leave behind.
        let right = root.at(root.read().kid(1).unwrap());
        let mut g = right.write_guard();
        arena.retire(&mut g);
        drop(g);
        let err = check_invariants(&root, 4).unwrap_err();
        assert!(err.contains("stale"), "got: {err}");
    }
}
