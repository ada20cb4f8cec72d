//! The simulated B+-tree: real keys, real occupancies, right links and
//! high keys (for the Link-type algorithm), merge-at-empty semantics.
//!
//! Nodes live in a slab indexed by [`NodeId`]; operations navigate by key
//! and perform structural mutations *instantaneously* at the simulated
//! moment their protocol holds the required locks (the time cost of the
//! mutation is modeled by the service delays the driver schedules).
//!
//! Merge-at-empty with lazy reclamation: a node that loses its last key
//! stays in place (empty but linked) rather than being unlinked. With the
//! paper's insert-dominated mixes, empties are rare and never propagate —
//! the same regime in which the paper's analysis drops merge terms — and
//! lazy reclamation keeps concurrent right-link traversals safe without
//! modeling left-neighbor locking the algorithms don't perform.

use crate::locks::NodeId;

/// One B+-tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Height of this node: 1 = leaf (paper convention).
    pub level: usize,
    /// Sorted separators (internal) or keys (leaf).
    pub keys: Vec<u64>,
    /// Children (empty for leaves). `kids.len() == keys.len() + 1` for
    /// internal nodes.
    pub kids: Vec<NodeId>,
    /// Right sibling on the same level, `None` for the rightmost node.
    pub right: Option<NodeId>,
    /// Upper bound (exclusive) of this node's key range; `None` = +∞.
    /// This is Lehman–Yao's high key, maintained on every split.
    pub high: Option<u64>,
}

impl Node {
    fn new_leaf() -> Self {
        Node {
            level: 1,
            keys: Vec::new(),
            kids: Vec::new(),
            right: None,
            high: None,
        }
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level == 1
    }

    /// Whether `key` falls inside this node's key range (Lehman–Yao's
    /// range test; a `false` during a descent means a concurrent split
    /// moved the key right).
    pub fn covers(&self, key: u64) -> bool {
        self.high.is_none_or(|h| key < h)
    }
}

/// The simulated B+-tree.
#[derive(Debug, Clone)]
pub struct SimTree {
    nodes: Vec<Node>,
    root: NodeId,
    height: usize,
    /// Maximum number of keys per node (`N`).
    pub capacity: usize,
    /// Number of splits performed (all levels).
    pub splits: u64,
    /// Number of keys currently stored in leaves.
    pub item_count: u64,
}

impl SimTree {
    /// An empty tree with the given node capacity.
    ///
    /// # Panics
    /// Panics when `capacity < 3` (splits need room for two non-empty
    /// halves plus a separator).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 3, "node capacity must be at least 3");
        SimTree {
            nodes: vec![Node::new_leaf()],
            root: 0,
            height: 1,
            capacity,
            splits: 0,
            item_count: 0,
        }
    }

    /// Builds a tree by applying a construction sequence sequentially.
    pub fn build(capacity: usize, ops: &[cbtree_workload::Operation]) -> Self {
        let mut t = SimTree::new(capacity);
        for op in ops {
            match *op {
                cbtree_workload::Operation::Insert(k) => {
                    t.insert_sequential(k);
                }
                cbtree_workload::Operation::Delete(k) => {
                    t.delete_sequential(k);
                }
                cbtree_workload::Operation::Search(_) => {}
            }
        }
        t
    }

    /// Current root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Tree height (levels; 1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Level of a node (1 = leaf).
    pub fn level(&self, id: NodeId) -> usize {
        self.nodes[id].level
    }

    /// Number of allocated nodes (including lazily retained empties).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The child an internal node routes `key` to.
    ///
    /// # Panics
    /// Panics on leaves.
    pub fn child_for(&self, id: NodeId, key: u64) -> NodeId {
        let n = &self.nodes[id];
        assert!(!n.is_leaf(), "child_for on leaf {id}");
        let idx = n.keys.partition_point(|&k| k <= key);
        n.kids[idx]
    }

    /// Whether a leaf contains `key`.
    pub fn leaf_contains(&self, id: NodeId, key: u64) -> bool {
        let n = &self.nodes[id];
        debug_assert!(n.is_leaf());
        n.keys.binary_search(&key).is_ok()
    }

    /// Inserts `key` into a leaf (no split). Returns `false` when the key
    /// was already present.
    pub fn leaf_insert(&mut self, id: NodeId, key: u64) -> bool {
        let n = &mut self.nodes[id];
        debug_assert!(n.is_leaf());
        match n.keys.binary_search(&key) {
            Ok(_) => false,
            Err(pos) => {
                n.keys.insert(pos, key);
                self.item_count += 1;
                true
            }
        }
    }

    /// Removes `key` from a leaf. Returns `false` when absent.
    pub fn leaf_remove(&mut self, id: NodeId, key: u64) -> bool {
        let n = &mut self.nodes[id];
        debug_assert!(n.is_leaf());
        match n.keys.binary_search(&key) {
            Ok(pos) => {
                n.keys.remove(pos);
                self.item_count -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Whether the node is over capacity and must split.
    pub fn overfull(&self, id: NodeId) -> bool {
        self.nodes[id].keys.len() > self.capacity
    }

    /// Whether an insert into this node could force a split (the node is
    /// full) — the lock-coupling "insert-unsafe" test.
    pub fn insert_unsafe(&self, id: NodeId) -> bool {
        self.nodes[id].keys.len() >= self.capacity
    }

    /// Whether a delete could empty this node — the "delete-unsafe" test.
    pub fn delete_unsafe(&self, id: NodeId) -> bool {
        self.nodes[id].keys.len() <= 1
    }

    /// Half-splits node `id`: moves the upper half of its keys (and kids)
    /// into a fresh right sibling, linking it in and maintaining high
    /// keys. Returns `(new_sibling, separator)`; the separator must be
    /// inserted into the parent (or a new root made if `id` was the
    /// root — see [`SimTree::split_root_if_needed`]).
    pub fn half_split(&mut self, id: NodeId) -> (NodeId, u64) {
        self.splits += 1;
        let new_id = self.nodes.len();
        let node = &mut self.nodes[id];
        let len = node.keys.len();
        debug_assert!(len >= 2, "splitting a node with {len} keys");
        let mid = len / 2;
        let (sep, right_keys, right_kids) = if node.is_leaf() {
            // B+-tree leaf split: separator is copied up, stays in right.
            let right_keys = node.keys.split_off(mid);
            (right_keys[0], right_keys, Vec::new())
        } else {
            // Internal split: separator moves up.
            let right_keys = node.keys.split_off(mid + 1);
            let sep = node.keys.pop().expect("mid >= 1");
            let right_kids = node.kids.split_off(mid + 1);
            (sep, right_keys, right_kids)
        };
        let new_node = Node {
            level: node.level,
            keys: right_keys,
            kids: right_kids,
            right: node.right,
            high: node.high,
        };
        node.right = Some(new_id);
        node.high = Some(sep);
        self.nodes.push(new_node);
        (new_id, sep)
    }

    /// Inserts a separator/child pair into an internal node (no split).
    pub fn insert_separator(&mut self, parent: NodeId, sep: u64, child: NodeId) {
        let n = &mut self.nodes[parent];
        debug_assert!(!n.is_leaf());
        let pos = n.keys.partition_point(|&k| k < sep);
        n.keys.insert(pos, sep);
        n.kids.insert(pos + 1, child);
    }

    /// If `old_root` (which the caller just split into `new_sibling` with
    /// `separator`) is still the root, grows the tree with a fresh root.
    /// Returns the new root id when growth happened.
    pub fn split_root_if_needed(
        &mut self,
        old_root: NodeId,
        separator: u64,
        new_sibling: NodeId,
    ) -> Option<NodeId> {
        if old_root != self.root {
            return None;
        }
        let level = self.nodes[old_root].level + 1;
        let new_root = self.nodes.len();
        self.nodes.push(Node {
            level,
            keys: vec![separator],
            kids: vec![old_root, new_sibling],
            right: None,
            high: None,
        });
        self.root = new_root;
        self.height = level;
        Some(new_root)
    }

    /// Sequential (single-threaded) insert used by the construction phase.
    pub fn insert_sequential(&mut self, key: u64) -> bool {
        // Descend, recording the path.
        let mut path = Vec::with_capacity(self.height);
        let mut cur = self.root;
        while !self.nodes[cur].is_leaf() {
            path.push(cur);
            cur = self.child_for(cur, key);
        }
        if !self.leaf_insert(cur, key) {
            return false;
        }
        // Split upward while over capacity.
        let mut node = cur;
        while self.overfull(node) {
            let (sib, sep) = self.half_split(node);
            match path.pop() {
                Some(parent) => {
                    self.insert_separator(parent, sep, sib);
                    node = parent;
                }
                None => {
                    self.split_root_if_needed(node, sep, sib);
                    break;
                }
            }
        }
        true
    }

    /// Sequential delete (merge-at-empty with lazy reclamation: empties
    /// persist).
    pub fn delete_sequential(&mut self, key: u64) -> bool {
        let mut cur = self.root;
        while !self.nodes[cur].is_leaf() {
            cur = self.child_for(cur, key);
        }
        self.leaf_remove(cur, key)
    }

    /// Sequential point lookup.
    pub fn contains(&self, key: u64) -> bool {
        let mut cur = self.root;
        while !self.nodes[cur].is_leaf() {
            cur = self.child_for(cur, key);
        }
        self.leaf_contains(cur, key)
    }

    /// Number of nodes on each level, leaves first (index 0 = level 1).
    pub fn level_node_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.height];
        for n in &self.nodes {
            if n.level <= self.height {
                counts[n.level - 1] += 1;
            }
        }
        counts
    }

    /// Average fill of leaf nodes (keys / capacity), ignoring empties'
    /// denominator contribution is *not* done — empties count, matching
    /// how space utilization is defined.
    pub fn leaf_utilization(&self) -> f64 {
        let mut used = 0usize;
        let mut slots = 0usize;
        for n in &self.nodes {
            if n.is_leaf() {
                used += n.keys.len();
                slots += self.capacity;
            }
        }
        if slots == 0 {
            0.0
        } else {
            used as f64 / slots as f64
        }
    }

    /// The leaf a lookup of `key` reaches from the root: descend, and
    /// chase right wherever a node's range no longer covers the key (a
    /// link-type half-split whose separator is not posted yet).
    pub fn leaf_for(&self, key: u64) -> NodeId {
        let mut cur = self.root;
        loop {
            let n = &self.nodes[cur];
            cur = match n.right {
                Some(right) if !n.covers(key) => right,
                _ if n.is_leaf() => return cur,
                _ => self.child_for(cur, key),
            };
        }
    }

    /// Checks structural invariants on every node (sortedness,
    /// key-range containment, link/high-key consistency) and audits the
    /// keys: every live key sits in the leaf a lookup of it reaches from
    /// the root, so no operation put a key where it cannot be found.
    /// The simulator runs it at the end of every run.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, n) in self.nodes.iter().enumerate() {
            if !n.keys.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("node {id}: keys not strictly sorted"));
            }
            if let Some(h) = n.high {
                if n.keys.iter().any(|&k| k >= h) {
                    return Err(format!("node {id}: key above high key"));
                }
            }
            if !n.is_leaf() {
                if n.kids.len() != n.keys.len() + 1 {
                    return Err(format!(
                        "node {id}: {} kids for {} keys",
                        n.kids.len(),
                        n.keys.len()
                    ));
                }
                for &kid in &n.kids {
                    if self.nodes[kid].level + 1 != n.level {
                        return Err(format!("node {id}: child {kid} at wrong level"));
                    }
                }
            }
            if let Some(r) = n.right {
                if self.nodes[r].level != n.level {
                    return Err(format!("node {id}: right link crosses levels"));
                }
                match (n.high, self.nodes[r].keys.first()) {
                    (Some(h), Some(&first)) if first < h => {
                        return Err(format!("node {id}: right sibling starts below high key"));
                    }
                    (None, _) => {
                        return Err(format!("node {id}: right link but infinite high key"));
                    }
                    _ => {}
                }
            }
        }
        for (id, n) in self.nodes.iter().enumerate().filter(|(_, n)| n.is_leaf()) {
            for &key in &n.keys {
                let found = self.leaf_for(key);
                if found != id {
                    return Err(format!(
                        "key {key} sits in leaf {id}, but a lookup reaches leaf {found}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_workload::{OpStream, OpsConfig};

    #[test]
    fn inserts_and_lookups() {
        let mut t = SimTree::new(4);
        for k in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            assert!(t.insert_sequential(k));
        }
        for k in 0..10u64 {
            assert!(t.contains(k), "missing {k}");
        }
        assert!(!t.contains(100));
        assert_eq!(t.item_count, 10);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = SimTree::new(4);
        assert!(t.insert_sequential(1));
        assert!(!t.insert_sequential(1));
        assert_eq!(t.item_count, 1);
    }

    #[test]
    fn delete_then_lookup() {
        let mut t = SimTree::new(4);
        for k in 0..50u64 {
            t.insert_sequential(k);
        }
        assert!(t.delete_sequential(25));
        assert!(!t.contains(25));
        assert!(!t.delete_sequential(25));
        assert_eq!(t.item_count, 49);
        t.check_invariants().unwrap();
    }

    #[test]
    fn grows_in_height() {
        let mut t = SimTree::new(4);
        assert_eq!(t.height(), 1);
        for k in 0..1000u64 {
            t.insert_sequential(k);
        }
        assert!(t.height() >= 4, "height {}", t.height());
        t.check_invariants().unwrap();
        for k in 0..1000u64 {
            assert!(t.contains(k));
        }
    }

    #[test]
    fn paper_scale_build_matches_reported_shape() {
        // N = 13, ~40 000 items (paper §5.3): 5 levels, root ~6 children.
        let mut stream = OpStream::new(OpsConfig::paper(10_000_000), 1);
        let seq = stream.construction_sequence(40_000);
        let t = SimTree::build(13, &seq);
        assert_eq!(t.height(), 5, "paper: the B-tree had 5 levels");
        let rf = t.node(t.root()).kids.len();
        assert!((3..=13).contains(&rf), "root children {rf}");
        t.check_invariants().unwrap();
        let util = t.leaf_utilization();
        assert!(
            (0.55..0.8).contains(&util),
            "leaf utilization should sit near ln 2: {util}"
        );
    }

    #[test]
    fn high_keys_and_right_links_cover_the_level() {
        let mut t = SimTree::new(4);
        for k in 0..500u64 {
            t.insert_sequential(k * 2);
        }
        // Walk the leaf chain from the leftmost leaf: it must visit every
        // key in order.
        let mut cur = t.root();
        while !t.node(cur).is_leaf() {
            cur = t.node(cur).kids[0];
        }
        let mut seen = Vec::new();
        let mut leaf = Some(cur);
        while let Some(id) = leaf {
            seen.extend_from_slice(&t.node(id).keys);
            leaf = t.node(id).right;
        }
        assert_eq!(seen, (0..500u64).map(|k| k * 2).collect::<Vec<_>>());
    }

    #[test]
    fn covers_respects_high_key() {
        let mut t = SimTree::new(4);
        for k in 0..100u64 {
            t.insert_sequential(k);
        }
        let mut cur = t.root();
        while !t.node(cur).is_leaf() {
            cur = t.node(cur).kids[0];
        }
        let n = t.node(cur);
        let h = n.high.expect("leftmost leaf must have split");
        assert!(n.covers(h - 1) || n.keys.is_empty());
        assert!(!n.covers(h));
    }

    #[test]
    fn empty_nodes_persist_after_deletes() {
        let mut t = SimTree::new(3);
        for k in 0..30u64 {
            t.insert_sequential(k);
        }
        let nodes_before = t.node_count();
        for k in 0..30u64 {
            t.delete_sequential(k);
        }
        assert_eq!(t.item_count, 0);
        assert_eq!(
            t.node_count(),
            nodes_before,
            "merge-at-empty: lazy reclamation"
        );
        // The tree still accepts inserts and finds them.
        for k in 0..30u64 {
            assert!(t.insert_sequential(k));
        }
        for k in 0..30u64 {
            assert!(t.contains(k));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_statistics_track() {
        let mut t = SimTree::new(4);
        for k in 0..100u64 {
            t.insert_sequential(k);
        }
        assert!(t.splits > 10, "splits {}", t.splits);
    }

    #[test]
    fn audit_finds_a_key_a_lookup_cannot_reach() {
        let mut t = SimTree::new(4);
        for k in 0..10u64 {
            t.insert_sequential(k * 2);
        }
        assert_eq!(t.height(), 2);
        t.check_invariants().unwrap();
        // Lower the root's first separator onto the left leaf's last key:
        // every node still passes on its own, but a lookup of that key
        // now lands in the leaf to its right.
        let root = t.root();
        let sep = t.nodes[root].keys[0];
        t.nodes[root].keys[0] = sep - 2;
        let err = t.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("key {} sits in leaf", sep - 2)),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_capacity_rejected() {
        let _ = SimTree::new(2);
    }
}
