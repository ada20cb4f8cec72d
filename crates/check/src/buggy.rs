//! Deliberately broken map implementations that the checker must catch.
//!
//! The correctness pillar is only trustworthy if it demonstrably rejects
//! wrong implementations, so this module keeps known-bad readers around
//! as permanent regression targets:
//!
//! * [`SkipRightLink`] re-creates the classic Lehman–Yao reader bug of
//!   trusting a stale leaf choice — reading the leaf it descended to
//!   *without* re-checking `covers()` and chasing right links after
//!   latching. When a concurrent half-split moves the key right in the
//!   window between descent and read, the read misses a present key.
//! * [`SkipParentRevalidation`] re-creates the classic OLC reader bug:
//!   an optimistic descent that validates each node's own version
//!   window but **skips the parent re-validation after the child
//!   read** — the hand-over-hand step. It models the link-free OLC
//!   readers of the literature (no `covers()`/right-link safety net),
//!   where that re-validation alone carries the proof that the routing
//!   decision was still current; without it, a split that moves the key
//!   sideways inside the window turns into a miss of a present key.
//! * [`SkipGenerationCheck`] re-creates the slot-recycling reader bug
//!   the arena's generation protocol exists to prevent: a reader that
//!   holds a node *handle* across an unlatched window and then trusts
//!   it **without re-checking the slot generation**. When a concurrent
//!   `vacuum` recycles the slot in that window, the reader latches a
//!   placeholder (or an unrelated re-allocated node), whose infinite
//!   high key happily `covers()` every key — so a present key reads as
//!   absent. Version validation cannot catch this: the recycled slot's
//!   *fresh* version validates fine.
//!
//! All three are linearizability violations (stale reads) that no
//! quiescent structural audit can see, because the trees themselves
//! stay perfectly well-formed.

use crate::history::ConcurrentMap;
use cbtree_btree::node::{NodeId, NodeRef};
use cbtree_btree::{ConcurrentBTree, OpCountersSnapshot, Protocol};

/// A B-link tree whose `get` skips the post-latch `covers()` re-check
/// and right-link chase at the leaf level. Writes delegate to the
/// correct tree, so all structure stays valid — only reads race.
#[derive(Debug)]
pub struct SkipRightLink {
    inner: ConcurrentBTree<u64>,
    /// Spin iterations between choosing the leaf and reading it, modeling
    /// a reader that holds its (unprotected) leaf choice across a delay.
    /// Widens the race so stress runs expose the bug reliably.
    window_spin: u32,
}

impl SkipRightLink {
    /// A buggy reader over a fresh B-link tree of the given capacity.
    pub fn new(capacity: usize) -> Self {
        SkipRightLink {
            inner: ConcurrentBTree::new(Protocol::BLink, capacity),
            window_spin: 400_000,
        }
    }
}

// Everything except `get` delegates to the sound inner tree, so the
// structural auditors pass — only the linearizability checker can
// convict this implementation.
impl ConcurrentMap<u64> for SkipRightLink {
    fn get(&self, key: &u64) -> Option<u64> {
        let key = *key;
        // Correct descent: chase right links on the way down.
        let mut cur = self.inner.root_handle();
        loop {
            let next = {
                let g = cur.read();
                if !g.covers(key) {
                    Some(g.right.expect("finite high key implies right"))
                } else if g.is_leaf() {
                    None
                } else {
                    Some(g.child_for(key))
                }
            };
            match next {
                Some(n) => cur = cur.at(n),
                None => break,
            }
        }
        // The window a correct reader closes by re-checking coverage
        // under the latch; a split landing here moves `key` right.
        for _ in 0..self.window_spin {
            std::hint::spin_loop();
        }
        std::thread::yield_now();
        let g = cur.read();
        // BUG: no `covers()` re-check, no right-link chase.
        g.leaf_get(key).copied()
    }

    fn protocol_name(&self) -> &'static str {
        "skip-right-link"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn height(&self) -> usize {
        self.inner.height()
    }

    fn insert(&self, key: u64, val: u64) -> Option<u64> {
        self.inner.insert(key, val)
    }

    fn remove(&self, key: &u64) -> Option<u64> {
        ConcurrentBTree::remove(&self.inner, key)
    }

    fn contains_key(&self, key: &u64) -> bool {
        self.get(key).is_some() // routed through the buggy reader
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner.range(lo, hi)
    }

    fn check(&self) -> Result<(), String> {
        self.inner.check()
    }

    fn root_handle(&self) -> NodeRef<'_, u64> {
        self.inner.root_handle()
    }

    fn counters(&self) -> OpCountersSnapshot {
        self.inner.counters()
    }
}

/// An OLC tree whose `get` validates each node's own version window but
/// never re-validates the parent after reading the child — the
/// hand-over-hand step of optimistic lock coupling. It models the
/// link-free OLC readers of the literature: routing is trusted from the
/// parent's window alone, with no `covers()` re-check or right-link
/// chase to fall back on, so the skipped re-validation is load-bearing.
/// Writes delegate to the correct tree, so all structure stays valid —
/// only reads race.
#[derive(Debug)]
pub struct SkipParentRevalidation {
    inner: ConcurrentBTree<u64>,
    /// Spin iterations between the parent's routing decision and the
    /// child read, modeling a reader descheduled mid-descent. Widens the
    /// race so stress runs expose the bug reliably.
    window_spin: u32,
}

impl SkipParentRevalidation {
    /// A buggy optimistic reader over a fresh OLC tree of the given
    /// capacity.
    pub fn new(capacity: usize) -> Self {
        SkipParentRevalidation {
            inner: ConcurrentBTree::new(Protocol::Olc, capacity),
            window_spin: 400_000,
        }
    }
}

// Everything except `get` delegates to the sound inner tree, so the
// structural auditors pass — only the linearizability checker can
// convict this implementation.
impl ConcurrentMap<u64> for SkipParentRevalidation {
    #[allow(unsafe_code)]
    fn get(&self, key: &u64) -> Option<u64> {
        enum Step {
            Down(NodeId),
            Done(Option<u64>),
        }
        let key = *key;
        'restart: loop {
            let mut cur = self.inner.root_handle();
            let mut routed = false;
            loop {
                // The window a correct reader closes by re-validating the
                // parent's recorded version after this node's own window;
                // a split landing here moves `key` sideways, out of reach
                // of a link-free descent. (No window before the root
                // visit — there is no routing decision to go stale yet.)
                // The spin is sliced up with yields: a pure spin would
                // starve the very writers whose split must land in the
                // window on a loaded or single-core host, while on an
                // idle multicore host the slices still hold the window
                // open.
                if routed && self.window_spin > 0 {
                    for _ in 0..16 {
                        for _ in 0..self.window_spin / 16 {
                            std::hint::spin_loop();
                        }
                        std::thread::yield_now();
                    }
                }
                routed = true;
                // Each node's own window is still validated (no torn
                // reads) — the bug is purely about stale routing.
                // SAFETY: the closure copies POD `u64`s through clamped and
                // checked accesses and copies `Copy` node ids; slab slots are
                // never deallocated, so even a torn id resolves to
                // initialized memory, and a torn result is discarded on
                // failed validation. The planted bug skips the *parent*
                // re-validation — a linearizability violation, not a
                // memory-safety one. (This tree never vacuums, so slot
                // generations never move.)
                let attempt = unsafe {
                    cur.read_optimistic(|n| {
                        if n.is_leaf() {
                            Some(Step::Done(n.leaf_get(key).copied()))
                        } else {
                            n.kid(n.child_index(key)).map(Step::Down)
                        }
                    })
                };
                match attempt {
                    // BUG: the parent's version is never recorded, so the
                    // routing that led here is trusted unconditionally.
                    Some((_ver, Some(Step::Done(v)))) => return v,
                    Some((_ver, Some(Step::Down(child)))) => cur = cur.at(child),
                    _ => continue 'restart,
                }
            }
        }
    }

    fn protocol_name(&self) -> &'static str {
        "skip-parent-revalidation"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn height(&self) -> usize {
        self.inner.height()
    }

    fn insert(&self, key: u64, val: u64) -> Option<u64> {
        self.inner.insert(key, val)
    }

    fn remove(&self, key: &u64) -> Option<u64> {
        ConcurrentBTree::remove(&self.inner, key)
    }

    fn contains_key(&self, key: &u64) -> bool {
        self.get(key).is_some() // routed through the buggy reader
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner.range(lo, hi)
    }

    fn check(&self) -> Result<(), String> {
        self.inner.check()
    }

    fn root_handle(&self) -> NodeRef<'_, u64> {
        self.inner.root_handle()
    }

    fn counters(&self) -> OpCountersSnapshot {
        self.inner.counters()
    }
}

/// An OLC tree whose latched reader holds a leaf *handle* across an
/// unlatched window and then trusts it without re-checking the slot
/// generation — while its own `remove` runs `vacuum` passes that
/// recycle emptied leaves under that very window. Everything else is
/// honest: the descent chases right links both before and after the
/// latch, so the only way to lose a key is through a recycled slot.
/// Writes delegate to the correct tree, so all structure stays valid —
/// only reads race.
#[derive(Debug)]
pub struct SkipGenerationCheck {
    inner: ConcurrentBTree<u64>,
    /// Spin iterations between resolving the leaf handle and latching
    /// it — the unlatched window a correct reader closes with
    /// `NodeRef::stale()`. Much wider than the other two bugs' windows:
    /// conviction needs a *compound* event inside it (a split moves the
    /// key right out of the held leaf, the leaf's remaining keys are
    /// removed, and a vacuum recycles the emptied slot — all while the
    /// key itself stays present), so the window must span many writer
    /// operations.
    window_spin: u32,
}

impl SkipGenerationCheck {
    /// A buggy latched reader over a fresh OLC tree of the given
    /// capacity.
    pub fn new(capacity: usize) -> Self {
        SkipGenerationCheck {
            inner: ConcurrentBTree::new(Protocol::Olc, capacity),
            window_spin: 4_000_000,
        }
    }
}

// Everything except `get` (and the vacuum-churning `remove`) delegates
// to the sound inner tree, so the structural auditors pass — only the
// linearizability checker can convict this implementation.
impl ConcurrentMap<u64> for SkipGenerationCheck {
    fn get(&self, key: &u64) -> Option<u64> {
        let key = *key;
        // Honest one-latch-at-a-time descent to the covering leaf.
        let mut cur = self.inner.root_handle();
        loop {
            let next = {
                let g = cur.read();
                if !g.covers(key) {
                    Some(g.right.expect("finite high key implies right"))
                } else if g.is_leaf() {
                    None
                } else {
                    Some(g.child_for(key))
                }
            };
            match next {
                Some(n) => cur = cur.at(n),
                None => break,
            }
        }
        // The unlatched window: the handle is held with no latch and no
        // version recorded. A concurrent vacuum recycling `cur`'s slot
        // here is exactly what `NodeRef::stale()` exists to catch. The
        // spin is sliced up with yields so the writers whose vacuum must
        // land in the window are not starved on a loaded host, and each
        // slice polls the slot so the read below lands at the worst
        // possible moment — right as the slot is recycled. The poll is
        // race-widening instrumentation (schedule steering, like
        // `window_spin` itself); the read path below is the BUG: it
        // still never consults `stale()` before trusting the handle.
        for _ in 0..64 {
            for _ in 0..self.window_spin / 64 {
                std::hint::spin_loop();
            }
            if cur.stale() {
                break;
            }
            std::thread::yield_now();
        }
        // Honest latched read — covers() re-checked, right links chased —
        // except for the BUG: `g.stale()` is never consulted, so a
        // recycled slot's placeholder (infinite high key, no keys) or an
        // unrelated re-allocated node is read as if it were our leaf.
        loop {
            let g = cur.read();
            if g.covers(key) {
                return g.leaf_get(key).copied();
            }
            let next = g.right.expect("finite high key implies right");
            drop(g);
            cur = cur.at(next);
        }
    }

    fn remove(&self, key: &u64) -> Option<u64> {
        let out = ConcurrentBTree::remove(&self.inner, key);
        // Recycle promptly: a leaf emptied inside some reader's window
        // must be reclaimed while that window is still open, so every
        // remove runs a vacuum pass (it serializes internally and the
        // trees here are tiny, so this stays cheap).
        self.inner.vacuum();
        out
    }

    fn protocol_name(&self) -> &'static str {
        "skip-generation-check"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn height(&self) -> usize {
        self.inner.height()
    }

    fn insert(&self, key: u64, val: u64) -> Option<u64> {
        self.inner.insert(key, val)
    }

    fn contains_key(&self, key: &u64) -> bool {
        self.get(key).is_some() // routed through the buggy reader
    }

    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner.range(lo, hi)
    }

    fn check(&self) -> Result<(), String> {
        self.inner.check()
    }

    fn root_handle(&self) -> NodeRef<'_, u64> {
        self.inner.root_handle()
    }

    fn counters(&self) -> OpCountersSnapshot {
        self.inner.counters()
    }

    fn vacuum(&self) -> usize {
        self.inner.vacuum()
    }
}

/// Drives [`SkipGenerationCheck`] through the one interleaving its
/// missing `stale()` check exists to prevent, records the execution as
/// a real concurrent history, and hands it to the linearizability
/// checker. Returns the checker's outcome; a working checker must
/// return a violation.
///
/// The random stress sweep essentially never convicts this bug, and for
/// an instructive reason: a leaf only recycles once it *drains*, and by
/// then the drained keys — the one being read included — are absent, so
/// the buggy `None` is linearizable. The only convicting sequence is
/// compound: a split first moves the read key *right*, out of the held
/// leaf, then the leaf's remnant empties and is vacuumed, all inside a
/// single reader's unlatched window, while the key itself is never
/// touched. Two further subtleties shape the setup:
///
/// * a split moves `K` rightward only when `K` sits in the *upper* half
///   of the overflowing leaf, so `K` must not be its leaf's minimum —
///   and once any split picks `K` as a separator, `K` *becomes* a leaf
///   minimum for good (splits keep minima in the left node), killing
///   every later chance. Hence `K` is placed *between* prefill keys,
///   never a separator initially, and the scenario is one-shot per map
///   (the driver retries with a fresh map instead of a fresh round);
/// * the vacuum pass never reclaims a parent's first child, so `K`'s
///   leaf must not be one of those immortal slots — the deterministic
///   ascending prefill pins the layout, making the choice stable.
///
/// The harness runs the sequence with two real racing threads:
///
/// * the **reader** descends to `K`'s covering leaf and parks in its
///   unlatched window (which polls the slot, so the buggy read lands
///   right after the recycle);
/// * the **writer** waits a beat for the reader to park, force-splits
///   `K`'s leaf by filling it from below (`K` ends in the new right
///   sibling; the held slot keeps the left remnant), then drains every
///   key but `K` — each remove runs a vacuum, so the emptied remnant
///   recycles under the reader, and nothing allocates afterwards, so
///   the slot stays a placeholder for the unchecked read to latch.
///
/// `K` is present from prefill to teardown and no write ever targets
/// it, so any `Get(K) → None` is unjustifiable under any linearization.
pub fn run_recycle_conviction() -> crate::stress::StressOutcome {
    use crate::audit::{audit, audit_with_contents};
    use crate::history::{record, Clock, History, Op};
    use crate::linearize::{check_history, CheckConfig, Verdict};
    use std::sync::atomic::{AtomicBool, Ordering};

    // Prefill 0, 8, …, 120 deterministically builds (capacity 3) leaves
    // on multiple-of-8 separators; 84 enters the reclaimable leaf
    // covering [80, 96) as a non-minimum, non-separator tenant, so the
    // fillers 81..84 land beside it and the first overflow sends it
    // right.
    const K: u64 = 84;
    let map = SkipGenerationCheck {
        // Far wider window than the stress default: it ends early (the
        // poll breaks it the moment the slot recycles), and a timeout
        // merely costs one attempt.
        window_spin: 40_000_000,
        ..SkipGenerationCheck::new(3)
    };
    let mut init: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 8, i * 8)).collect();
    init.push((K, K));
    for &(k, v) in &init {
        map.insert(k, v);
    }

    let clock = Clock::new();
    let done = AtomicBool::new(false);
    let batches = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut out = Vec::new();
            for _ in 0..3 {
                let r = record(&map, &clock, 0, Op::Get(K));
                let missed = r.ret.is_none();
                out.push(r);
                if missed {
                    break; // the stale read happened; one miss convicts
                }
            }
            done.store(true, Ordering::Release);
            out
        });
        let writer = s.spawn(|| {
            let mut out = Vec::new();
            // Let the reader reach K's leaf and park: its descent takes
            // microseconds, this pause a millisecond.
            std::thread::sleep(std::time::Duration::from_millis(1));
            // Overflow K's leaf from below: the first filler splits
            // {80, K, 88} into {80, 81} — the slot the reader holds —
            // and a fresh right sibling {K, 88}.
            for f in [K - 3, K - 2, K - 1] {
                out.push(record(&map, &clock, 1, Op::Insert(f, f)));
            }
            // Drain everything but K. Every remove vacuums, so the held
            // remnant is recycled the moment it empties — and nothing
            // allocates afterwards, so the slot stays a placeholder for
            // the reader's unchecked read to latch.
            for f in [K - 3, K - 2, K - 1] {
                out.push(record(&map, &clock, 1, Op::Remove(f)));
            }
            for &(k, _) in &init {
                if k != K {
                    out.push(record(&map, &clock, 1, Op::Remove(k)));
                }
            }
            // Hold still until the reader has taken its bite (or its
            // last window timed out).
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            out
        });
        vec![reader.join().unwrap(), writer.join().unwrap()]
    });

    let history = History::from_threads(init, batches);
    let ops = history.ops.len();
    let verdict = check_history(&history, CheckConfig::default());
    let audit_result = Some(match &verdict {
        Verdict::Linearizable { final_state } => audit_with_contents(&map, final_state),
        _ => audit(&map),
    });
    crate::stress::StressOutcome {
        verdict,
        audit: audit_result,
        ops,
        inject_stats: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_use_is_correct() {
        // Without concurrency the skipped re-check never matters.
        let m = SkipRightLink::new(4);
        for k in 0..200u64 {
            assert_eq!(m.insert(k, k * 7), None);
        }
        for k in 0..200u64 {
            assert_eq!(m.get(&k), Some(k * 7));
        }
        assert_eq!(m.remove(&13), Some(91));
        assert_eq!(m.get(&13), None);
    }

    #[test]
    fn sequential_olc_use_is_correct() {
        // Without concurrency the skipped parent re-validation never
        // matters either: every window validates on the first try.
        let m = SkipParentRevalidation {
            window_spin: 0, // no race to widen sequentially
            ..SkipParentRevalidation::new(4)
        };
        for k in 0..200u64 {
            assert_eq!(m.insert(k, k * 3), None);
        }
        for k in 0..200u64 {
            assert_eq!(m.get(&k), Some(k * 3));
        }
        assert_eq!(m.remove(&13), Some(39));
        assert_eq!(m.get(&13), None);
        assert!(m.contains_key(&14));
    }

    #[test]
    fn sequential_generation_skipping_use_is_correct() {
        // Without concurrency a slot is never recycled mid-read, so the
        // skipped stale() check never matters — even though removes run
        // real vacuum passes.
        let m = SkipGenerationCheck {
            window_spin: 0, // no race to widen sequentially
            ..SkipGenerationCheck::new(4)
        };
        for k in 0..200u64 {
            assert_eq!(m.insert(k, k * 5), None);
        }
        for k in 0..200u64 {
            assert_eq!(m.get(&k), Some(k * 5));
        }
        for k in 50..150u64 {
            assert_eq!(m.remove(&k), Some(k * 5));
        }
        m.check().expect("vacuumed tree stays well-formed");
        for k in 0..200u64 {
            assert_eq!(m.get(&k).is_some(), !(50..150).contains(&k), "key {k}");
        }
    }
}
