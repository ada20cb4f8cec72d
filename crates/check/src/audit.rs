//! Quiescent structural auditors for the concurrent B+-trees.
//!
//! These go beyond `check_invariants` (which walks child pointers only):
//! the b-link chain audit walks each level's right-link chain *and* the
//! parent level's child pointers independently and demands they reach the
//! same node set in the same key order. That catches lost separators —
//! a half-split whose sibling is reachable via the right link but was
//! never posted to the parent stays latently wrong under pure
//! child-pointer checking, and a rewired right link that skips a sibling
//! is invisible to a child-pointer walk.
//!
//! All auditors require a quiescent tree (no concurrent mutators); the
//! stress harness runs them after joining its workers.

use cbtree_btree::node::{self, NodeId, NodeRef};
use cbtree_btree::ConcurrentBTree;
use std::collections::BTreeMap;

/// Summary of a passing audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Nodes per level, top level first.
    pub nodes_per_level: Vec<usize>,
    /// Total keys counted at the leaf level.
    pub keys: usize,
}

/// Runs every structural audit on a quiescent tree:
///
/// 1. the tree's own recursive invariant checker (`check_invariants`);
/// 2. per-level chain integrity — consecutive high-key/low-key agreement,
///    strict key ordering *across* nodes, finite high key ⇔ right link;
/// 3. separator completeness — child-pointer reachability equals
///    right-link reachability on every level, in the same order;
/// 4. fullness — no node exceeds capacity and (root apart) no reachable
///    node is empty.
pub fn audit(tree: &ConcurrentBTree<u64>) -> Result<AuditReport, String> {
    tree.check()?;
    let root = tree.root_handle();
    audit_root(&root, tree.capacity())
}

/// Like [`audit`] but additionally demands the leaf contents equal
/// `expected` (e.g. the linearization oracle's final state) and that the
/// tree's maintained length agrees.
pub fn audit_with_contents(
    tree: &ConcurrentBTree<u64>,
    expected: &BTreeMap<u64, u64>,
) -> Result<AuditReport, String> {
    let report = audit(tree)?;
    let actual = contents(&tree.root_handle());
    if &actual != expected {
        let missing: Vec<u64> = expected
            .keys()
            .filter(|k| !actual.contains_key(k))
            .copied()
            .take(8)
            .collect();
        let extra: Vec<u64> = actual
            .keys()
            .filter(|k| !expected.contains_key(k))
            .copied()
            .take(8)
            .collect();
        return Err(format!(
            "tree contents diverge from oracle: {} vs {} keys; missing {missing:?}, extra {extra:?}",
            actual.len(),
            expected.len()
        ));
    }
    if tree.len() != expected.len() {
        return Err(format!(
            "maintained len {} disagrees with contents {}",
            tree.len(),
            expected.len()
        ));
    }
    Ok(report)
}

/// Leaf contents by right-link chain walk (quiescent use).
pub fn contents(root: &NodeRef<'_, u64>) -> BTreeMap<u64, u64> {
    let heads = node::level_heads(root);
    let mut out = BTreeMap::new();
    if let Some(leaf_head) = heads.last() {
        for n in node::level_chain(leaf_head) {
            let g = n.read();
            out.extend(g.keys().iter().copied().zip(g.vals().iter().copied()));
        }
    }
    out
}

/// Chain + separator audits on a raw root handle (exposed so tests can
/// audit hand-corrupted trees without a facade).
pub fn audit_root(root: &NodeRef<'_, u64>, cap: usize) -> Result<AuditReport, String> {
    let heads = node::level_heads(root);
    let mut nodes_per_level = Vec::with_capacity(heads.len());
    let mut keys = 0usize;
    let mut parent_chain: Option<Vec<NodeRef<'_, u64>>> = None;
    for (depth, head) in heads.iter().enumerate() {
        let chain = node::level_chain(head);
        audit_chain(&chain, depth, cap)?;
        if let Some(parents) = &parent_chain {
            audit_separators(parents, &chain, depth)?;
        }
        nodes_per_level.push(chain.len());
        if depth + 1 == heads.len() {
            keys = chain.iter().map(|n| n.read().keys().len()).sum();
        }
        parent_chain = Some(chain);
    }
    Ok(AuditReport {
        nodes_per_level,
        keys,
    })
}

/// One level's right-link chain: ordering, high keys, fullness.
fn audit_chain(chain: &[NodeRef<'_, u64>], depth: usize, cap: usize) -> Result<(), String> {
    let mut prev_high: Option<u64> = None;
    for (i, n) in chain.iter().enumerate() {
        let g = n.read();
        let keys = g.keys();
        let last = i + 1 == chain.len();
        if keys.len() > cap {
            return Err(format!(
                "level-{depth} node {i} overfull: {} keys > cap {cap}",
                keys.len()
            ));
        }
        // NB: empty nodes are legal — all trees are merge-at-empty with
        // lazy reclamation, so a drained leaf stays linked.
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("level-{depth} node {i} keys unsorted"));
        }
        if last {
            if g.high.is_some() {
                return Err(format!(
                    "level-{depth} chain tail has finite high key {:?}",
                    g.high
                ));
            }
        } else {
            let h = g.high.ok_or_else(|| {
                format!("level-{depth} node {i} has a right link but high = +inf")
            })?;
            if let Some(p) = prev_high {
                if keys.first().is_some_and(|&k| k < p) {
                    return Err(format!(
                        "level-{depth} node {i} starts below its left sibling's high key {p}"
                    ));
                }
            }
            if keys.iter().any(|&k| k >= h) {
                return Err(format!(
                    "level-{depth} node {i} holds a key >= its high key {h}"
                ));
            }
            prev_high = Some(h);
        }
        if !last && g.right.is_none() {
            return Err(format!("level-{depth} chain broke early at node {i}"));
        }
    }
    Ok(())
}

/// Separator completeness: concatenating every parent's child pointers
/// (left to right) must reproduce the child level's right-link chain
/// exactly — same nodes, same order, nothing skipped, nothing lost.
fn audit_separators(
    parents: &[NodeRef<'_, u64>],
    children_chain: &[NodeRef<'_, u64>],
    child_depth: usize,
) -> Result<(), String> {
    let mut via_parents: Vec<NodeId> = Vec::new();
    for p in parents {
        let g = p.read();
        if g.is_leaf() {
            return Err(format!(
                "level-{} node is a leaf but has a child level below",
                child_depth - 1
            ));
        }
        via_parents.extend(g.kids());
    }
    let via_chain: Vec<NodeId> = children_chain.iter().map(|n| n.id()).collect();
    if via_parents != via_chain {
        return Err(format!(
            "level-{child_depth} separator audit: parents reach {} children, right-link chain has {} — a split sibling was lost or the chain was rewired",
            via_parents.len(),
            via_chain.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_btree::{ConcurrentBTree, Protocol};

    fn build(protocol: Protocol) -> ConcurrentBTree<u64> {
        let t = ConcurrentBTree::new(protocol, 4);
        for k in 0..200u64 {
            t.insert(k.wrapping_mul(2_654_435_761) % 1000, k);
        }
        t
    }

    #[test]
    fn audit_accepts_all_protocols() {
        for p in Protocol::ALL_WITH_BASELINE {
            let t = build(p);
            let report = audit(&t).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert_eq!(report.keys, t.len(), "{p:?}");
            assert!(report.nodes_per_level.len() >= 2, "{p:?}");
        }
    }

    #[test]
    fn audit_with_contents_matches_oracle() {
        let t = ConcurrentBTree::new(Protocol::BLink, 4);
        let mut oracle = BTreeMap::new();
        for k in 0..300u64 {
            t.insert(k * 3, k);
            oracle.insert(k * 3, k);
        }
        for k in (0..300u64).step_by(7) {
            t.remove(&(k * 3));
            oracle.remove(&(k * 3));
        }
        audit_with_contents(&t, &oracle).unwrap();
        oracle.insert(999_999, 1);
        assert!(audit_with_contents(&t, &oracle).is_err());
    }

    #[test]
    fn audit_catches_rewired_right_link() {
        // Corrupt a healthy tree: make the leftmost leaf's right link
        // skip its sibling. check_invariants (child-pointer walk) cannot
        // see this; the separator audit must.
        let t = build(Protocol::BLink);
        let root = t.root_handle();
        let heads = node::level_heads(&root);
        let leaf_head = heads.last().unwrap();
        let chain = node::level_chain(leaf_head);
        assert!(chain.len() >= 3, "need >= 3 leaves to skip one");
        let skip_to = chain[2].id();
        let skip_low = chain[2].read().keys()[0];
        {
            let mut g = chain[0].write();
            g.right = Some(skip_to);
            // Keep right/high pairing legal so only the skip is wrong.
            g.high = Some(skip_low);
        }
        let err = audit_root(&root, t.capacity()).unwrap_err();
        assert!(
            err.contains("separator audit") || err.contains("high key"),
            "{err}"
        );
    }

    #[test]
    fn audit_catches_lost_separator() {
        // Simulate an un-posted half-split: split a leaf via the node
        // API but never tell the parent.
        let t = build(Protocol::BLink);
        let root = t.root_handle();
        let heads = node::level_heads(&root);
        let chain = node::level_chain(heads.last().unwrap());
        let victim = chain
            .iter()
            .find(|n| n.read().keys().len() >= 2)
            .expect("some leaf has >= 2 keys");
        // `split_node` allocates the sibling and links it into the leaf
        // chain but — unlike a real insert — never posts the separator.
        node::split_node(victim.arena(), &mut victim.write());
        let err = audit_root(&root, t.capacity()).unwrap_err();
        assert!(err.contains("separator audit"), "{err}");
    }

    #[test]
    fn singleton_root_audits_clean() {
        let t = ConcurrentBTree::new(Protocol::LockCoupling, 4);
        t.insert(1, 1);
        let report = audit(&t).unwrap();
        assert_eq!(report.nodes_per_level, vec![1]);
        assert_eq!(report.keys, 1);
    }
}
