//! Shared node representation for all three concurrent B+-trees.
//!
//! Nodes live in a per-tree slab [`Arena`] and are addressed by
//! generation-checked [`NodeId`] handles (see [`crate::arena`]); internal
//! nodes hold child ids in a fixed-capacity inline array, so routing data
//! sits in the same cache lines as the node header and splits allocate
//! nothing but a free-list pop. Every node — in every protocol —
//! maintains Lehman–Yao metadata (high key and right link): the link
//! protocols need it for correctness, the others carry it for free and it
//! enables one common invariant checker.
//!
//! Leaf *values* are the one heap-allocated part of a node (`V` is an
//! arbitrary `Clone` type). A published leaf's value buffer is reserved
//! to the true transient maximum — `cap + 1` values, held momentarily
//! just before a split — so no insert can ever reallocate a buffer while
//! optimistic readers may be chasing it. That stability invariant is
//! asserted on every publish path ([`Node::leaf_insert`]); keys and child
//! ids are inline [`InlineVec`]s and cannot move by construction.

use crate::arena::{Arena, InlineVec, MAX_KEYS, MAX_KIDS};

pub use crate::arena::{NodeId, NodeRef};

/// Children of a node: leaf payloads or internal child ids.
///
/// The size gap between the variants is deliberate: child ids are
/// stored inline (the arena's whole point — no per-node heap chase),
/// and every node lives in a fixed-size arena slot anyway, so boxing
/// the large variant would buy nothing and cost an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Children<V> {
    /// Leaf: `vals[i]` is the value for `keys[i]`.
    Leaf(Vec<V>),
    /// Internal: `kids.len() == keys.len() + 1`.
    Internal(InlineVec<NodeId, MAX_KIDS>),
}

/// One B+-tree node.
#[derive(Debug)]
pub struct Node<V> {
    /// Sorted keys (separators for internal nodes), stored inline.
    pub keys: InlineVec<u64, MAX_KEYS>,
    /// Leaf values or child ids.
    pub children: Children<V>,
    /// Right sibling on the same level (`None` = rightmost).
    pub right: Option<NodeId>,
    /// Exclusive upper bound of this node's key range (`None` = +∞).
    pub high: Option<u64>,
    /// Height: 1 = leaf.
    pub level: usize,
}

impl<V> Node<V> {
    /// A fresh empty leaf with no value buffer (scratch/placeholder use;
    /// leaves published into a tree come from [`Node::new_leaf_for`]).
    pub fn new_leaf() -> Self {
        Node {
            keys: InlineVec::new(),
            children: Children::Leaf(Vec::new()),
            right: None,
            high: None,
            level: 1,
        }
    }

    /// A fresh empty leaf whose value buffer is reserved for a tree of
    /// node capacity `cap`: a leaf transiently holds `cap + 1` values
    /// (just before its split), never more, so `cap + 1` is exactly the
    /// reservation that makes in-place inserts realloc-free for the
    /// node's lifetime — the buffer-stability invariant OLC's unsafe
    /// read contract cites.
    pub fn new_leaf_for(cap: usize) -> Self {
        Node {
            keys: InlineVec::new(),
            children: Children::Leaf(Vec::with_capacity(cap + 1)),
            right: None,
            high: None,
            level: 1,
        }
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

    /// Index of the child an internal node routes `key` to.
    pub fn child_index(&self, key: u64) -> usize {
        debug_assert!(!self.is_leaf());
        self.keys.partition_point(|&k| k <= key)
    }

    /// The child id `key` routes to.
    ///
    /// # Panics
    /// Panics on leaves.
    pub fn child_for(&self, key: u64) -> NodeId {
        match &self.children {
            Children::Internal(kids) => kids[self.child_index(key)],
            Children::Leaf(_) => panic!("child_for on a leaf"),
        }
    }

    /// Leaf lookup.
    pub fn leaf_get(&self, key: u64) -> Option<&V> {
        match &self.children {
            Children::Leaf(vals) => self.keys.binary_search(&key).ok().map(|i| &vals[i]),
            Children::Internal(_) => panic!("leaf_get on internal node"),
        }
    }

    /// Leaf insert/replace; returns the previous value if the key existed.
    pub fn leaf_insert(&mut self, key: u64, val: V) -> Option<V> {
        let pos = match self.keys.binary_search(&key) {
            Ok(i) => {
                if let Children::Leaf(vals) = &mut self.children {
                    return Some(std::mem::replace(&mut vals[i], val));
                }
                unreachable!()
            }
            Err(i) => i,
        };
        self.keys.insert(pos, key);
        if let Children::Leaf(vals) = &mut self.children {
            // Published leaves are reserved to the `cap + 1` transient
            // maximum; growing past the reservation would reallocate a
            // buffer that latch-free readers may hold a pointer into.
            // (Scratch leaves from `new_leaf()` have no reservation and
            // are exempt — they are never shared.)
            debug_assert!(
                vals.capacity() == 0 || vals.len() < vals.capacity(),
                "published leaf value buffer would reallocate while shared"
            );
            vals.insert(pos, val);
        }
        None
    }

    /// Leaf removal; returns the value if the key existed.
    pub fn leaf_remove(&mut self, key: u64) -> Option<V> {
        match self.keys.binary_search(&key) {
            Ok(i) => {
                self.keys.remove(i);
                if let Children::Leaf(vals) = &mut self.children {
                    Some(vals.remove(i))
                } else {
                    unreachable!()
                }
            }
            Err(_) => None,
        }
    }

    /// Whether an insert into this node could force a split at node
    /// capacity `cap` — the lock-coupling "insert-unsafe" test.
    pub fn insert_unsafe(&self, cap: usize) -> bool {
        self.keys.len() >= cap
    }

    /// Whether a delete could empty this node.
    pub fn delete_unsafe(&self) -> bool {
        self.keys.len() <= 1
    }

    /// Whether the node holds more than `cap` keys and must split.
    pub fn overfull(&self, cap: usize) -> bool {
        self.keys.len() > cap
    }

    /// Half-splits this node in place, returning `(separator, sibling)`.
    /// The sibling inherits this node's right link and high key; this
    /// node's high key becomes the separator. The caller must hold this
    /// node's exclusive latch, install the sibling into the arena, point
    /// `self.right` at the installed id (see [`split_node`]) and publish
    /// the separator to the parent. A split leaf's new value buffer is
    /// reserved for node capacity `cap` (see [`Node::new_leaf_for`]).
    pub fn half_split(&mut self, cap: usize) -> (u64, Node<V>) {
        let len = self.keys.len();
        debug_assert!(len >= 2);
        let mid = len / 2;
        let (sep, right_keys, right_children) = match &mut self.children {
            Children::Leaf(vals) => {
                let right_keys = self.keys.split_off(mid);
                let mut right_vals = Vec::with_capacity(cap + 1);
                right_vals.extend(vals.drain(mid..));
                (right_keys[0], right_keys, Children::Leaf(right_vals))
            }
            Children::Internal(kids) => {
                let right_keys = self.keys.split_off(mid + 1);
                let sep = self.keys.pop().expect("mid >= 1");
                let right_kids = kids.split_off(mid + 1);
                (sep, right_keys, Children::Internal(right_kids))
            }
        };
        let sibling = Node {
            keys: right_keys,
            children: right_children,
            right: self.right,
            high: self.high,
            level: self.level,
        };
        self.high = Some(sep);
        (sep, sibling)
    }

    /// Inserts a separator/child pair into this internal node.
    pub fn insert_separator(&mut self, sep: u64, child: NodeId) {
        debug_assert!(!self.is_leaf());
        let pos = self.keys.partition_point(|&k| k < sep);
        self.keys.insert(pos, sep);
        if let Children::Internal(kids) = &mut self.children {
            kids.insert(pos + 1, child);
        }
    }
}

/// Half-splits the node behind an exclusive latch, installs the new
/// sibling into `arena`, and links it: the composition every split site
/// uses. Returns `(separator, sibling_handle)`.
pub fn split_node<'a, V>(
    arena: &'a Arena<V>,
    node: &mut Node<V>,
    cap: usize,
) -> (u64, NodeRef<'a, V>) {
    let (sep, sibling) = node.half_split(cap);
    let sib = arena.alloc(sibling);
    node.right = Some(sib.id());
    (sep, sib)
}

/// Makes a new root over `left` and `right` separated by `sep` and
/// installs it into `arena`. Internal nodes are entirely inline, so no
/// buffer reservation is needed.
pub fn make_root<V>(
    arena: &Arena<V>,
    left: NodeId,
    sep: u64,
    right: NodeId,
    level: usize,
) -> NodeRef<'_, V> {
    arena.alloc(Node {
        keys: InlineVec::from_slice(&[sep]),
        children: Children::Internal(InlineVec::from_slice(&[left, right])),
        right: None,
        high: None,
        level,
    })
}

/// Visits every node handle in the tree, top level first. Walks the
/// leftmost spine downward and each level's right-link chain — all
/// protocols maintain right links, so this reaches every node. `f`
/// receives `(level, handle)` and can read the handle's embedded lock
/// statistics without latching. The walk uses version-validated
/// optimistic reads so that on a quiescent tree it never perturbs those
/// statistics — a latched walk would charge one read acquisition per
/// node to whatever measurement window the caller is snapshotting. A
/// node whose window keeps failing (a writer in residence, a version
/// bump mid-walk, or a slot recycled by a concurrent vacuum) is retried
/// a few times and then read under a blocking shared latch, so a
/// non-quiescent caller gets a slightly perturbed snapshot rather than
/// an abort. Callers wanting an exact snapshot must ensure quiescence
/// (no concurrent mutation or vacuum).
#[allow(unsafe_code)]
pub fn for_each_handle<'a, V>(root: &NodeRef<'a, V>, mut f: impl FnMut(usize, &NodeRef<'a, V>)) {
    type Peek = (usize, Option<NodeId>, Option<NodeId>);
    fn read<V>(n: &Node<V>) -> Peek {
        let first_child = match &n.children {
            Children::Internal(kids) => kids.first().copied(),
            Children::Leaf(_) => None,
        };
        (n.level, first_child, n.right)
    }
    let peek = |node: &NodeRef<'_, V>| {
        // A few optimistic retries ride out a straggling writer or a
        // version bump; on a genuinely quiescent tree the first attempt
        // succeeds and no latch is ever taken.
        for _ in 0..8 {
            // SAFETY: `read` copies only POD fields (level and child
            // ids) through checked accesses and materializes no value;
            // a torn result is discarded on failed validation. The
            // post-validation staleness check rejects windows read from
            // a slot recycled since the handle was created.
            if let Some((_, out)) = unsafe { node.read_optimistic(read) } {
                if !node.stale() {
                    return out;
                }
            }
            std::thread::yield_now();
        }
        // Not quiescent after all: fall back to one blocking shared
        // latch (charging a read acquisition to the caller's stats
        // window) rather than aborting the walk.
        read(&node.read())
    };
    let mut leftmost = Some(*root);
    while let Some(first) = leftmost.take() {
        let mut cur = Some(first);
        while let Some(node) = cur.take() {
            let (level, first_child, right) = peek(&node);
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
        cur = {
            let g = node.read();
            match &g.children {
                Children::Internal(kids) => Some(node.at(kids[0])),
                Children::Leaf(_) => None,
            }
        };
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
        if !n.keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("keys not strictly sorted".into());
        }
        if n.keys.len() > cap {
            return Err(format!("node overfull: {} > {cap}", n.keys.len()));
        }
        if let Some(h) = n.high {
            if n.keys.iter().any(|&k| k >= h) {
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
            if n.keys.iter().any(|&k| k < lo) {
                return Err("key below subtree lower bound".into());
            }
        }
        match &n.children {
            Children::Leaf(vals) => {
                if vals.len() != n.keys.len() {
                    return Err("leaf vals/keys length mismatch".into());
                }
                Ok(1)
            }
            Children::Internal(kids) => {
                if kids.len() != n.keys.len() + 1 {
                    Err(format!(
                        "internal node has {} kids for {} keys",
                        kids.len(),
                        n.keys.len()
                    ))?;
                }
                let mut height = None;
                for (i, &kid) in kids.iter().enumerate() {
                    let lo = if i == 0 { min } else { Some(n.keys[i - 1]) };
                    let hi = if i == kids.len() - 1 {
                        n.high
                    } else {
                        Some(n.keys[i])
                    };
                    let h = walk(&node.at(kid), cap, lo, hi)?;
                    if *height.get_or_insert(h) != h {
                        return Err("children at unequal heights".into());
                    }
                }
                Ok(height.unwrap_or(0) + 1)
            }
        }
    }
    walk(root, cap, None, None).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_sync::SamplePeriod;

    fn arena() -> Arena<u64> {
        Arena::new(SamplePeriod::EXACT)
    }

    fn leaf_with(keys: &[u64]) -> Node<u64> {
        let mut n = Node::new_leaf_for(8);
        for &k in keys {
            n.leaf_insert(k, k * 10);
        }
        n
    }

    #[test]
    fn leaf_insert_get_remove() {
        let mut n = leaf_with(&[5, 1, 3]);
        assert_eq!(&n.keys[..], &[1, 3, 5]);
        assert_eq!(n.leaf_get(3), Some(&30));
        assert_eq!(n.leaf_insert(3, 99), Some(30));
        assert_eq!(n.leaf_get(3), Some(&99));
        assert_eq!(n.leaf_remove(1), Some(10));
        assert_eq!(n.leaf_remove(1), None);
        assert_eq!(&n.keys[..], &[3, 5]);
    }

    #[test]
    fn leaf_split_keeps_order_and_links() {
        let arena = arena();
        let mut n = leaf_with(&[1, 2, 3, 4, 5]);
        let (sep, sib) = split_node(&arena, &mut n, 4);
        assert_eq!(sep, 3);
        assert_eq!(&n.keys[..], &[1, 2]);
        assert_eq!(n.high, Some(3));
        let s = sib.read();
        assert_eq!(&s.keys[..], &[3, 4, 5]);
        assert_eq!(n.right, Some(sib.id()));
    }

    #[test]
    fn internal_split_moves_separator_up() {
        let arena = arena();
        let kid_ids: Vec<NodeId> = (0..6)
            .map(|_| arena.alloc(Node::new_leaf_for(5)).id())
            .collect();
        let mut n = Node {
            keys: InlineVec::from_slice(&[10, 20, 30, 40, 50]),
            children: Children::Internal(InlineVec::from_slice(&kid_ids)),
            right: None,
            high: None,
            level: 2,
        };
        let (sep, sib) = split_node(&arena, &mut n, 5);
        assert_eq!(sep, 30);
        assert_eq!(&n.keys[..], &[10, 20]);
        let s = sib.read();
        assert_eq!(&s.keys[..], &[40, 50]);
        match (&n.children, &s.children) {
            (Children::Internal(a), Children::Internal(b)) => {
                assert_eq!(a.len(), 3);
                assert_eq!(b.len(), 3);
            }
            _ => panic!("expected internal"),
        }
    }

    #[test]
    fn covers_and_safety_checks() {
        let mut n = leaf_with(&[1, 2, 3]);
        assert!(n.covers(1_000_000));
        n.high = Some(10);
        assert!(n.covers(9));
        assert!(!n.covers(10));
        assert!(n.insert_unsafe(3));
        assert!(!n.insert_unsafe(4));
        assert!(!n.delete_unsafe());
        let one = leaf_with(&[7]);
        assert!(one.delete_unsafe());
    }

    #[test]
    fn child_index_routing() {
        let arena = arena();
        let kid_ids: Vec<NodeId> = (0..3)
            .map(|_| arena.alloc(Node::new_leaf_for(4)).id())
            .collect();
        let n: Node<u64> = Node {
            keys: InlineVec::from_slice(&[10, 20]),
            children: Children::Internal(InlineVec::from_slice(&kid_ids)),
            right: None,
            high: None,
            level: 2,
        };
        assert_eq!(n.child_index(5), 0);
        assert_eq!(n.child_index(10), 1);
        assert_eq!(n.child_index(15), 1);
        assert_eq!(n.child_index(20), 2);
        assert_eq!(n.child_index(99), 2);
    }

    /// Two linked leaves under a fresh root, for the invariant tests.
    fn two_leaf_tree<'a>(arena: &'a Arena<u64>, left_keys: &[u64]) -> NodeRef<'a, u64> {
        let left = arena.alloc(leaf_with(left_keys));
        let right = arena.alloc(leaf_with(&[5, 6]));
        {
            let mut l = left.write();
            l.high = Some(5);
            l.right = Some(right.id());
        }
        make_root(arena, left.id(), 5, right.id(), 2)
    }

    #[test]
    fn invariant_checker_accepts_valid_tree() {
        let arena = arena();
        let root = two_leaf_tree(&arena, &[1, 2]);
        check_invariants(&root, 4).unwrap();
    }

    #[test]
    fn invariant_checker_rejects_bad_separator() {
        let arena = arena();
        let root = two_leaf_tree(&arena, &[1, 9]); // 9 >= separator 5
        assert!(check_invariants(&root, 4).is_err());
    }

    #[test]
    fn invariant_checker_rejects_stale_child() {
        let arena = arena();
        let root = two_leaf_tree(&arena, &[1, 2]);
        check_invariants(&root, 4).unwrap();
        // Retire the right leaf without unlinking it from the parent —
        // exactly the inconsistency a buggy vacuum would leave behind.
        let right_id = match &root.read().children {
            Children::Internal(kids) => kids[1],
            Children::Leaf(_) => unreachable!(),
        };
        let right = root.at(right_id);
        let mut g = right.write_guard();
        arena.retire(&mut g);
        drop(g);
        let err = check_invariants(&root, 4).unwrap_err();
        assert!(err.contains("stale"), "got: {err}");
    }
}
