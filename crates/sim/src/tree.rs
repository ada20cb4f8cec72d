//! The simulated B+-tree: `cbtree-btree`'s own nodes, arena and splits.

use cbtree_btree::node::{self, Node};
use cbtree_btree::{Arena, NodeId};
use cbtree_workload::Operation;

/// [`Node<()>`]s (keys, no values) in an [`Arena`], plus what it lacks.
pub struct SimTree {
    arena: Arena<()>,
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
    /// Builds a tree of at most `capacity` (3 to `MAX_CAP`) keys per node.
    pub(crate) fn build(capacity: usize, ops: &[Operation]) -> Self {
        assert!(capacity >= 3, "node capacity must be at least 3");
        let arena = Arena::new(capacity);
        let root = arena.alloc(1).id();
        let mut t = SimTree {
            arena,
            root,
            height: 1,
            capacity,
            splits: 0,
            item_count: 0,
        };
        let mut path = Vec::new();
        for &op in ops {
            let mut cur = t.root;
            path.clear();
            loop {
                let n = t.node(cur);
                let Some(child) = n.kid(n.child_index(op.key())) else {
                    break;
                };
                path.push(cur);
                cur = child;
            }
            let mut overfull = t.modify_leaf(cur, op);
            while overfull {
                let (sib, sep) = t.half_split(cur);
                let Some(parent) = path.pop() else {
                    t.grow_root(sep, sib);
                    break;
                };
                overfull = t.insert_separator(parent, sep, sib);
                cur = parent;
            }
        }
        t
    }

    pub(crate) fn root(&self) -> NodeId {
        self.root
    }

    /// Tree height (levels; 1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Node `id`, read unlatched: the simulator's locks are its FCFS table.
    pub(crate) fn node(&mut self, id: NodeId) -> &Node<()> {
        self.arena.get_mut(id)
    }

    /// Applies an insert or delete to leaf `id`; returns whether it must split.
    pub(crate) fn modify_leaf(&mut self, id: NodeId, op: Operation) -> bool {
        let leaf = self.arena.get_mut(id);
        match op {
            Operation::Insert(k) => self.item_count += u64::from(leaf.leaf_insert(k, ()).is_none()),
            Operation::Delete(k) => self.item_count -= u64::from(leaf.leaf_remove(k).is_some()),
            Operation::Search(_) => {}
        }
        leaf.overfull(self.capacity)
    }

    /// Posts a separator/child pair into node `id`; returns whether it must split.
    pub(crate) fn insert_separator(&mut self, id: NodeId, sep: u64, child: NodeId) -> bool {
        let n = self.arena.get_mut(id);
        n.insert_separator(sep, child);
        n.overfull(self.capacity)
    }

    /// Half-splits node `id`; returns the new sibling and its separator.
    pub(crate) fn half_split(&mut self, id: NodeId) -> (NodeId, u64) {
        self.splits += 1;
        let (sep, sib) = node::split_node(&self.arena, &mut self.arena.at(id).write());
        (sib.id(), sep)
    }

    /// Grows a new root over the root and its new right sibling `sib`.
    pub(crate) fn grow_root(&mut self, sep: u64, sib: NodeId) {
        self.height += 1;
        self.root = node::make_root(&self.arena, self.root, sep, sib, self.height).id();
    }

    /// Number of nodes on each level, leaves first (index 0 = level 1).
    pub fn level_node_counts(&self) -> Vec<u64> {
        let mut counts = vec![0; self.height];
        node::for_each_handle(&self.arena.at(self.root), |level, _| counts[level - 1] += 1);
        counts
    }

    /// The leaf a lookup of `key` reaches, chasing right past unposted splits.
    fn leaf_for(&mut self, key: u64) -> NodeId {
        let mut cur = self.root;
        loop {
            let n = self.node(cur);
            cur = match n.right {
                Some(right) if !n.covers(key) => right,
                _ if n.is_leaf() => return cur,
                _ => n.child_for(key),
            };
        }
    }

    /// The end-of-run audit: every node, and each key where [`SimTree::leaf_for`] looks.
    pub(crate) fn check_invariants(&mut self) -> Result<(), String> {
        let mut ids = Vec::new();
        node::for_each_handle(&self.arena.at(self.root), |_, h| ids.push(h.id()));
        for id in ids {
            let n = self.node(id);
            let (level, high, right, keys) = (n.level, n.high, n.right, n.keys().to_vec());
            let kids: Vec<NodeId> = n.kids().collect();
            let first = right.and_then(|r| self.node(r).keys().first().copied());
            match () {
                _ if !keys.iter().chain(&high).is_sorted_by(|a, b| a < b) => Err("key order"),
                _ if kids.iter().any(|&k| self.node(k).level + 1 != level) => Err("child level"),
                _ if right.is_some_and(|r| self.node(r).level != level) => Err("link level"),
                _ if right.is_some() && high.is_none() => Err("high key"),
                _ if first.is_some() && first < high => Err("right sibling's first key"),
                _ => Ok(()),
            }
            .map_err(|fault| format!("node {id:?}: bad {fault}"))?;
            if let Some(key) = keys.iter().find(|&&k| level == 1 && self.leaf_for(k) != id) {
                return Err(format!("key {key} sits in leaf {id:?}, off its lookup"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_workload::{OpStream, OpsConfig};

    fn inserts(keys: impl IntoIterator<Item = u64>) -> Vec<Operation> {
        keys.into_iter().map(Operation::Insert).collect()
    }

    #[test]
    fn paper_scale_build_matches_reported_shape() {
        // N = 13, ~40 000 items (paper §5.3): 5 levels, root ~6 children.
        let mut stream = OpStream::new(OpsConfig::paper(10_000_000), 1);
        let seq = stream.construction_sequence(40_000);
        let mut t = SimTree::build(13, &seq);
        assert_eq!(t.height(), 5, "paper: the B-tree had 5 levels");
        let root = t.root();
        let rf = t.node(root).kids().len();
        assert!((3..=13).contains(&rf), "root children {rf}");
        t.check_invariants().unwrap();
        let util = t.item_count as f64 / (t.level_node_counts()[0] * 13) as f64;
        assert!(
            (0.55..0.8).contains(&util),
            "leaf utilization should sit near ln 2: {util}"
        );
    }

    #[test]
    fn empty_nodes_persist_after_deletes() {
        let mut ops = inserts(0..30);
        let full = SimTree::build(3, &ops);
        ops.extend((0..30).map(Operation::Delete));
        let emptied = SimTree::build(3, &ops);
        assert_eq!(emptied.item_count, 0);
        assert_eq!(
            emptied.level_node_counts(),
            full.level_node_counts(),
            "merge-at-empty: lazy reclamation"
        );
        // The tree still accepts inserts and finds them.
        ops.extend(inserts(0..30));
        let mut t = SimTree::build(3, &ops);
        assert_eq!(t.item_count, 30);
        for k in 0..30u64 {
            let leaf = t.leaf_for(k);
            assert!(t.node(leaf).keys().contains(&k), "key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_statistics_track() {
        let t = SimTree::build(4, &inserts(0..100));
        // Every node but the first leaf came from a split or a new root.
        let nodes: u64 = t.level_node_counts().iter().sum();
        assert_eq!(t.splits, nodes - t.height() as u64);
        assert!(t.splits > 10, "splits {}", t.splits);
    }

    #[test]
    fn audit_finds_a_key_a_lookup_cannot_reach() {
        let mut t = SimTree::build(4, &inserts((0..5).map(|k| k * 2)));
        assert_eq!(t.height(), 2);
        t.check_invariants().unwrap();
        // Lower the root's separator onto the left leaf's last key: every
        // node still passes on its own, but a lookup of that key now
        // lands in the leaf to its right.
        let root = t.root();
        let (left, right) = (t.node(root).kid(0).unwrap(), t.node(root).kid(1).unwrap());
        let sep = t.node(root).keys()[0];
        t.root = node::make_root(&t.arena, left, sep - 2, right, 2).id();
        let err = t.check_invariants().unwrap_err();
        assert!(
            err.contains(&format!("key {} sits in leaf", sep - 2)),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_capacity_rejected() {
        let _ = SimTree::build(2, &[]);
    }
}
