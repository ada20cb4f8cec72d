//! The descent engine: [`ConcurrentBTree`].
//!
//! Every latching protocol in this crate is the *same* B+-tree — shared
//! [`Node`] representation in a slab [`Arena`], Lehman–Yao metadata on
//! every node, merge-at-empty deletes — differing only in **how it
//! latches on the way down**: which mode, when a retained ancestor chain
//! is released, when an operation restarts, and how a traversal recovers
//! from a node that no longer covers its key. Three policy axes capture
//! exactly those choices; the tree stores its [`Protocol`] and reads its
//! row of the policy table ([`Protocol::policy`], the one place a
//! protocol's latching is decided, which the simulator and the model
//! read too) on every operation:
//!
//! * `ReadPolicy::Crab` — shared crabbing (child latched before the
//!   parent releases); `ReadPolicy::RetainAll` — strict 2PL, every
//!   shared latch held to completion; `ReadPolicy::Link` — at most one
//!   latch, right-link chases on non-covering nodes; `ReadPolicy::Olc`
//!   — optimistic lock coupling, **zero** reader latches: descents
//!   snapshot each node's version counter, read without latching,
//!   validate parent-then-child, and restart from the deepest
//!   still-valid ancestor on a mismatch.
//! * `UpdatePolicy::Crab` — exclusive crabbing, either releasing the
//!   retained chain above *safe* children (`retain_all: false`, the
//!   Bayer–Schkolnick write path) or never releasing (`retain_all:
//!   true`, the Two-Phase baseline); `UpdatePolicy::OptimisticLeaf` —
//!   shared descent + exclusive leaf, restarting as an exclusive crab
//!   when the leaf is unsafe; `UpdatePolicy::Link` — Lehman–Yao
//!   half-split with separators posted upward under one latch at a time.
//! * [`RecoveryMode`] — the paper's §7 recovery variants, the row's
//!   `txn` column: exclusive latches survive the operation and
//!   are held until [`ConcurrentBTree::txn_commit`], either the whole
//!   retained chain (`Naive`) or the leaf only (`LeafOnly`).
//!
//! The engine also owns the uniform telemetry (`OpCounters`): latch
//! acquisitions per level and mode, optimistic restarts, right-link
//! chases, peak latch-chain depth, and transaction commits/spills. The
//! same striped rows are the tree's lock statistics: every counted latch
//! step passes them to the node's lock as its sink, so a grant, its wait
//! and its hold are recorded at the node's level (see
//! [`ConcurrentBTree::level_stats`]).
//!
//! # Slot recycling and stale handles
//!
//! Emptied leaves persist, still linked, until an explicit
//! [`ConcurrentBTree::vacuum`] unlinks them and returns their arena
//! slots to the free list. Latched coupled descents can never observe a
//! recycled slot (a child is resolved under its parent's latch, and
//! vacuum holds the parent exclusively before freeing a child), so only
//! the paths that cross an **unlatched window** re-check the handle
//! generation: the OLC descent and the OLC range walk (after version
//! validation), and the leaf-chain hops of latched range scans. A stale
//! handle restarts the affected step; see [`crate::arena`] for why the
//! generation check must follow, not precede, version validation.
//!
//! # Deadlock freedom with retained transaction latches
//!
//! A thread holding retained exclusive latches from earlier operations
//! of its transaction must never *block* on a latch (another thread —
//! possibly blocked on one of ours — may hold it, and FCFS latches are
//! not recursive, so we could even block on ourselves). While any
//! retained guard exists, every latch acquisition therefore goes through
//! the non-blocking fast-path probe (`NodeRef::try_read_guard` /
//! `NodeRef::try_write_guard`); on the first refusal the engine
//! *spills* — releases every retained guard (an early commit, counted in
//! [`OpCountersSnapshot::txn_spills`]) — and redoes the descent in
//! ordinary blocking mode, which is safe because the thread then holds
//! nothing across operations. With transaction size 1 a commit follows
//! every operation, nothing is ever retained, and the recovery variants
//! behave (and perform) exactly like their underlying protocol plus
//! bookkeeping.

use crate::arena::{Arena, InlineVec, NodeId, NodeRef, Sink, MAX_CAP};
use crate::batch::{BatchOp, BatchOutcome, BatchScratch, BatchSummary};
use crate::counters::{OpCounters, OpCountersSnapshot, MAX_LEVELS};
use crate::node::{check_invariants, make_root, split_node, Node};
use cbtree_btree_model::{Policy, Protocol, ReadPolicy, RecoveryMode, UpdatePolicy};
use cbtree_sync::{
    LockSink, LockStatsSnapshot, RwLockWriteGuard, SamplePeriod, Stamp, UnownedWriteGuard,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, ThreadId};

pub(crate) use crate::arena::{ReadGuard, WriteGuard};

/// The B-link insert's ascent hints: the internal node visited at each
/// level on the way down, root-most first, inline so a non-splitting
/// insert allocates nothing.
type AscentHints = InlineVec<NodeId, MAX_LEVELS>;

/// A transaction-retained exclusive latch, with its hold still open when
/// timed: `(level tag, start)`, reported when the latch is released.
type Retained<V> = (UnownedWriteGuard<Node<V>>, Option<(u16, Stamp)>);

/// A concurrent B+-tree latched by the [`Protocol`] chosen at
/// construction — every protocol is this one engine reading a different
/// row of the policy table.
pub struct ConcurrentBTree<V> {
    /// Node storage: every node of this tree lives in one slab arena,
    /// owned here and borrowed by every handle and guard.
    arena: Arena<V>,
    /// The root's packed [`NodeId`] (root nodes are never recycled, so
    /// the word is ABA-free; swings use compare-exchange). Read by every
    /// operation and written once per root split, so it sits on a line
    /// nothing per-operation writes.
    root: RootWord,
    cap: usize,
    /// Read by every operation, never written: like `cap`, it stays off
    /// the striped counters' lines.
    protocol: Protocol,
    /// Operation telemetry, the key count and the per-level lock
    /// statistics, striped per thread.
    counters: OpCounters,
    /// Exclusive latches retained across operations by transaction
    /// (recovery protocols only; keyed by owning thread). A thread only
    /// ever touches its own entry. These are the only latch guards that
    /// outlive the borrow they were taken under; `Drop` releases any
    /// that remain before the arena goes.
    retained: Mutex<HashMap<ThreadId, Vec<Retained<V>>>>,
    /// Serializes [`ConcurrentBTree::vacuum`] passes (one reclaimer at a
    /// time keeps the latch-order argument two-party: vacuum vs.
    /// ordinary descents).
    vacuum_serial: Mutex<()>,
}

/// The root word alone on its cache lines.
#[repr(align(128))]
struct RootWord(AtomicU64);

impl<V> Drop for ConcurrentBTree<V> {
    fn drop(&mut self) {
        // Retained latches point into `arena`: release them while it is
        // still whole (a thread that exited mid-transaction leaves its
        // entry behind).
        self.retained
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl<V> fmt::Debug for ConcurrentBTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentBTree")
            .field("protocol", &self.protocol)
            .field("capacity", &self.cap)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<V> ConcurrentBTree<V> {
    /// Creates an empty tree with the given protocol, at most `capacity`
    /// keys per node and exact lock timing.
    ///
    /// # Panics
    /// Panics when `capacity < 3` or `capacity > MAX_CAP`.
    pub fn new(protocol: Protocol, capacity: usize) -> Self {
        ConcurrentBTree::with_sampling(protocol, capacity, SamplePeriod::EXACT)
    }

    /// Creates an empty tree whose lock statistics time one in
    /// `sample.period()` acquisitions per thread and level (counts stay
    /// exact; sampled durations are scaled so derived statistics stay
    /// unbiased).
    ///
    /// # Panics
    /// Panics when `capacity < 3` or `capacity > MAX_CAP`.
    pub fn with_sampling(protocol: Protocol, capacity: usize, sample: SamplePeriod) -> Self {
        assert!(capacity >= 3, "node capacity must be at least 3");
        assert!(
            capacity <= MAX_CAP,
            "node capacity must be at most {MAX_CAP} (largest slot class)"
        );
        let arena = Arena::new(capacity);
        let first_leaf = arena.alloc(1).id();
        ConcurrentBTree {
            root: RootWord(AtomicU64::new(first_leaf.to_bits())),
            arena,
            cap: capacity,
            protocol,
            counters: OpCounters::new(sample),
            retained: Mutex::new(HashMap::new()),
            vacuum_serial: Mutex::new(()),
        }
    }

    /// The protocol in use.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// This tree's row of the policy table.
    #[inline]
    fn policy(&self) -> Policy {
        self.protocol.policy()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node capacity (max keys per node) the tree was built with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The current root's id.
    fn root_id(&self) -> NodeId {
        NodeId::from_bits(self.root.0.load(Ordering::Acquire))
    }

    /// A handle to the current root.
    fn root_ref(&self) -> NodeRef<'_, V> {
        self.arena.at(self.root_id())
    }

    /// Current height (levels; 1 = a lone leaf root). Reads the root's
    /// level optimistically so metadata queries between measurement
    /// snapshots never show up as reader latch traffic; falls back to a
    /// latched read only when a writer holds the root.
    #[allow(unsafe_code)]
    pub fn height(&self) -> usize {
        let root = self.root_ref();
        // SAFETY: the window closure copies out the POD `usize` level —
        // no heap, no indexing — so a torn read is at worst a wrong
        // value, discarded on failed validation.
        match unsafe { root.read_optimistic(|n| n.level) } {
            Some((_, level)) => level,
            None => root.read().level,
        }
    }

    /// Snapshot of the engine's uniform operation telemetry: latches
    /// per level, restarts (the Optimistic redo rate), right-link chases
    /// (the Link-type crossing rate), splits and the rest.
    pub fn counters(&self) -> OpCountersSnapshot {
        self.counters.snapshot()
    }

    /// Checks structural invariants (intended for quiescent moments in
    /// tests; concurrent mutation may produce spurious reports).
    pub fn check(&self) -> Result<(), String> {
        check_invariants(&self.root_ref(), self.cap)
    }

    /// The current root handle (for quiescent instrumentation walks and
    /// audits).
    pub fn root_handle(&self) -> NodeRef<'_, V> {
        self.root_ref()
    }

    /// Lock statistics per level, leaves first: `(live nodes, merged
    /// statistics)` for each level of the current height — the paper's
    /// one representative queue per level. Reads O(height) state and
    /// takes no latch: the per-level accumulators every counted latch
    /// step reports to, and the arena's live-node counts. Acquisitions
    /// equal [`OpCountersSnapshot`]'s per-level latch counts exactly.
    /// Cumulative over the tree's lifetime; diff two reads with
    /// [`LockStatsSnapshot::since`].
    pub fn level_stats(&self) -> Vec<(u64, LockStatsSnapshot)> {
        (1..=self.height())
            .map(|level| {
                (
                    self.arena.live_nodes(level),
                    self.counters.level_snapshot(level),
                )
            })
            .collect()
    }

    /// Commits the calling thread's transaction: releases every
    /// exclusive latch retained by the recovery protocols. A no-op (not
    /// even counted) for protocols without transaction retention.
    ///
    /// Threads running against a recovery-variant tree **must** commit
    /// before exiting or quiescing: latches retained by a parked or dead
    /// thread block every other operation that reaches those nodes.
    pub fn txn_commit(&self) {
        if self.policy().txn == RecoveryMode::None {
            return;
        }
        let guards = self
            .retained
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&thread::current().id());
        // Latches release outside the map mutex.
        self.release_retained(guards.unwrap_or_default());
        self.counters.record_txn_commit();
    }

    /// Releases retained latches, reporting each timed hold at the level
    /// it was granted at (one stamp ends them all).
    fn release_retained(&self, retained: Vec<Retained<V>>) {
        let (sink, mut end) = (self.counters.sink(), None);
        for (latch, open) in retained {
            if let Some((tag, t0)) = open {
                let t1 = *end.get_or_insert_with(Stamp::now);
                sink.released(tag, true, t1.ticks_since(t0));
            }
            drop(latch);
        }
    }

    /// Whether the calling thread holds retained transaction latches —
    /// if so, every acquisition must be a non-blocking probe.
    fn must_probe(&self) -> bool {
        if self.policy().txn == RecoveryMode::None {
            return false;
        }
        self.retained
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&thread::current().id())
            .is_some_and(|v| !v.is_empty())
    }

    /// Releases the calling thread's retained latches early (deadlock
    /// avoidance — counted as a spill, i.e. a forced early commit).
    fn txn_spill(&self) {
        let guards = self
            .retained
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&thread::current().id());
        if let Some(g) = guards.filter(|g| !g.is_empty()) {
            self.release_retained(g);
            self.counters.record_txn_spill();
        }
    }

    /// Moves the exclusive guards a finished update still holds into the
    /// transaction-retention set, per the protocol's retention policy.
    #[allow(unsafe_code)]
    fn txn_retain(&self, mut held: Vec<WriteGuard<'_, V>>) {
        let keep = match self.policy().txn {
            RecoveryMode::None => return,
            RecoveryMode::LeafOnly => {
                let leaf = held.pop().expect("descent reaches a leaf");
                drop(held); // internal latches release now
                vec![leaf]
            }
            RecoveryMode::Naive => held,
        };
        self.retained
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(thread::current().id())
            .or_default()
            .extend(keep.into_iter().map(|g| {
                // SAFETY: the latch lives in a slot of `self.arena`,
                // whose slots never move or free before the arena
                // drops; the erased guard goes into `self.retained`,
                // which only `txn_commit`, `txn_spill` and `Drop`
                // empty — all while `self.arena` is alive.
                unsafe { RwLockWriteGuard::into_unowned(g.into_latch_guard()) }
            }));
    }

    // ------------------------------------------------------------------
    // Latch acquisition (counted; optionally non-blocking).
    //
    // Every counted acquisition reports to `self.counters`, at the level
    // the node's lock is tagged with. Every descent pays one stamp (a
    // time-stamp-counter read) per latch step (exact lock statistics),
    // read before the step's acquire, never after its CAS: a link step
    // releases and then acquires carrying the release's stamp, a crab
    // step ends the parent's hold where the child's starts (`crab_to`).
    // The handle a step latches came from `Arena::at` or
    // `NodeRef::goto`, which requested the slot's lines, so the lock
    // word, header and keys arrive in one memory round trip. See
    // `cbtree_sync`'s hand-over docs.
    // ------------------------------------------------------------------

    /// The sink counted acquisitions report to.
    #[inline]
    fn sink(&self) -> Sink<'_> {
        Some(self.counters.sink())
    }

    /// Blocking shared latch on `node`. `carried` is the stamp that ended
    /// the caller's previous latch when it holds none now (a link step);
    /// crab steps pass `None`.
    fn latch_read<'a>(&'a self, node: NodeRef<'a, V>, carried: Option<Stamp>) -> ReadGuard<'a, V> {
        node.read_guard_after(carried, self.sink())
    }

    /// Blocking exclusive latch on `node`, as [`Self::latch_read`].
    fn latch_write<'a>(
        &'a self,
        node: NodeRef<'a, V>,
        carried: Option<Stamp>,
    ) -> WriteGuard<'a, V> {
        node.write_guard_after(carried, self.sink())
    }

    /// A crab step's shared latch: blocking, or a non-blocking probe
    /// (`None` on refusal) in probe mode.
    fn crab_read<'a>(&'a self, node: NodeRef<'a, V>, probe: bool) -> Option<ReadGuard<'a, V>> {
        if !probe {
            return Some(self.latch_read(node, None));
        }
        node.try_read_guard(self.sink())
    }

    /// A crab step's exclusive latch, as [`Self::crab_read`].
    fn crab_write<'a>(&'a self, node: NodeRef<'a, V>, probe: bool) -> Option<WriteGuard<'a, V>> {
        if !probe {
            return Some(self.latch_write(node, None));
        }
        node.try_write_guard(self.sink())
    }

    /// Latches the current root shared, revalidating that the locked
    /// node is still the root (a concurrent root split swings the id;
    /// descending from a stale root would miss the upper half of the key
    /// space in the non-link protocols). Root slots are never recycled,
    /// so id equality is exact identity.
    fn lock_root_read(&self, probe: bool) -> Option<ReadGuard<'_, V>> {
        loop {
            let guard = self.crab_read(self.root_ref(), probe)?;
            if guard.id() == self.root_id() {
                return Some(guard);
            }
        }
    }

    /// Latches the current root exclusively, with the same validation.
    fn lock_root_write(&self, probe: bool) -> Option<WriteGuard<'_, V>> {
        loop {
            let guard = self.crab_write(self.root_ref(), probe)?;
            if guard.id() == self.root_id() {
                return Some(guard);
            }
        }
    }

    // ------------------------------------------------------------------
    // Read descents.
    // ------------------------------------------------------------------

    /// Shared-crab descent to the leaf covering `key` (the parent's
    /// latch is held until the child's is granted). `None` only in probe
    /// mode.
    fn crab_read_leaf(&self, key: u64, probe: bool) -> Option<ReadGuard<'_, V>> {
        let mut guard = self.lock_root_read(probe)?;
        while !guard.is_leaf() {
            let child = self.crab_read(guard.at(guard.child_for(key)), probe)?;
            guard.crab_to(child);
        }
        Some(guard)
    }

    /// Read descent per the protocol's read policy, yielding the
    /// shared-latched leaf for `key` plus — for
    /// [`ReadPolicy::RetainAll`] — the retained ancestor guards that
    /// must stay alive alongside it. Handles probe mode (and the
    /// spill-and-retry it implies) internally.
    fn read_leaf(&self, key: u64) -> (ReadGuard<'_, V>, Vec<ReadGuard<'_, V>>) {
        match self.policy().read {
            ReadPolicy::Crab => {
                let leaf = if self.must_probe() {
                    match self.crab_read_leaf(key, true) {
                        Some(leaf) => leaf,
                        None => {
                            self.txn_spill();
                            self.crab_read_leaf(key, false).expect("blocking descent")
                        }
                    }
                } else {
                    self.crab_read_leaf(key, false).expect("blocking descent")
                };
                (leaf, Vec::new())
            }
            ReadPolicy::RetainAll => {
                let mut held = vec![self.lock_root_read(false).expect("blocking")];
                loop {
                    let top = held.last().expect("non-empty");
                    if top.is_leaf() {
                        self.counters.note_chain_depth(held.len());
                        let leaf = held.pop().expect("non-empty");
                        return (leaf, held);
                    }
                    let child = top.at(top.child_for(key));
                    held.push(self.latch_read(child, None));
                }
            }
            ReadPolicy::Link => {
                let (mut cur, mut carried) = self.link_descend(key, 1, None);
                let mut g = self.latch_read(cur, carried);
                while !g.covers(key) {
                    let next = g.right.expect("covers");
                    self.counters.record_chase();
                    carried = g.release(None); // at most one latch at a time
                    cur.goto(next);
                    g = self.latch_read(cur, carried);
                }
                self.counters.note_chain_depth(1);
                (g, Vec::new())
            }
            // OLC reads never produce a latch guard; `get`/`contains_key`
            // divert to `olc_descend` before reaching here.
            ReadPolicy::Olc => unreachable!("OLC reads are latch-free"),
        }
    }

    // ------------------------------------------------------------------
    // The optimistic-lock-coupling (OLC) read descent.
    // ------------------------------------------------------------------

    /// Latch-free descent to the leaf covering `key`, returning the
    /// leaf's handle and the result of `leaf_read` applied to it inside
    /// a validated read window.
    ///
    /// Each node visit is one
    /// [`read_optimistic`](cbtree_sync::FcfsRwLock::read_optimistic)
    /// window: snapshot the version, read the node unlatched, validate.
    /// The descent is hand-over-hand in versions instead of latches —
    /// after a child's window closes, the parent's recorded version is
    /// **re-validated** (`validate`), proving the routing decision that
    /// led to the child was still current when the child was read.
    /// Skipping that re-validation is the classic OLC bug:
    /// `crates/check/mutants/skip-parent-revalidation.patch` plants it
    /// (with the right-link chase below, which would otherwise recover)
    /// and the linearizability checker convicts it.
    ///
    /// After a successful validation the node's **slot generation** is
    /// re-checked ([`NodeRef::stale`]): a concurrent vacuum may have
    /// recycled the slot after the unlatched hop that produced `cur`'s
    /// id (a right-link chase crossing a parent boundary is the case
    /// parent re-validation cannot cover). The generation only changes
    /// inside an exclusive section, so checking it *after* the validated
    /// window proves the slot held this id's node for the whole window.
    /// The OLC range walk makes the same check on every leaf-chain hop,
    /// where no parent re-validation backs it up;
    /// `crates/check/mutants/skip-generation-check.patch` removes it
    /// there.
    ///
    /// On any failed window the descent restarts from the deepest
    /// recorded ancestor whose version still validates (or the root).
    /// Non-covering nodes (a split moved the key right inside our
    /// window) are recovered from by chasing right links, as in the
    /// link protocol. All closure reads are defensive: any index that
    /// can tear under a concurrent write uses checked access, and a
    /// miss is treated as a failed validation.
    ///
    /// # Safety
    ///
    /// Every node visit runs its reads inside an unvalidated seqlock
    /// window. The routing reads this function performs obey that
    /// contract itself (POD fields, checked indexing, `Copy` node ids —
    /// slab slots are never deallocated, so even a torn id dereferences
    /// to *initialized* memory and is then rejected by generation or
    /// version validation). The caller must guarantee `leaf_read` obeys
    /// it too; in particular `leaf_read` may copy words out (keys, `u64`
    /// values) but must not materialize a heap-owning value.
    #[allow(unsafe_code)]
    unsafe fn olc_descend<R>(
        &self,
        key: u64,
        leaf_read: impl Fn(&Node<V>) -> R,
    ) -> (NodeRef<'_, V>, R) {
        enum Step<R> {
            Down(NodeId),
            Right(NodeId),
            Done(R),
        }
        // (node, version) per visited level, root-side first.
        let mut path: Vec<(NodeRef<'_, V>, u64)> = Vec::new();
        let mut cur = self.root_ref();
        loop {
            self.counters.record_validation();
            // SAFETY: `covers`/`is_leaf`/`child_index` read POD fields,
            // the child lookup is checked (`get`), ids are `Copy`, and
            // `leaf_read` obeys the window discipline per this
            // function's contract.
            let attempt = unsafe {
                cur.read_optimistic(|n| {
                    if !n.covers(key) {
                        n.right.map(Step::Right)
                    } else if n.is_leaf() {
                        Some(Step::Done(leaf_read(n)))
                    } else {
                        n.kid(n.child_index(key)).map(Step::Down)
                    }
                })
            };
            // Hand-over-hand: the parent must still be unchanged now
            // that this node's read window has closed, or the routing
            // that led here may have been stale. The slot generation is
            // checked after the successful window for the same reason —
            // a recycled slot means this id's node was gone before the
            // window even opened.
            let parent_ok = path.last().is_none_or(|(p, v)| p.validate(*v));
            if parent_ok && !cur.stale() {
                match attempt {
                    Some((_, Some(Step::Done(out)))) => {
                        return (cur, out);
                    }
                    Some((ver, Some(Step::Down(child)))) => {
                        path.push((cur, ver));
                        cur.goto(child);
                        continue;
                    }
                    Some((_, Some(Step::Right(right)))) => {
                        self.counters.record_chase();
                        cur.goto(right);
                        continue;
                    }
                    _ => {}
                }
            }
            // Validation failed (this window tore, the parent moved
            // underneath it, or the slot was recycled): restart from the
            // deepest ancestor whose recorded version still holds.
            let writer_blocked = cur.version().is_none();
            self.counters.record_olc_restart(writer_blocked);
            while path.last().is_some_and(|(p, v)| !p.validate(*v)) {
                path.pop();
            }
            cur = match path.pop() {
                Some((ancestor, _)) => ancestor, // revisited with a fresh version
                None => self.root_ref(),
            };
            if writer_blocked {
                // The writer holds the node; yield rather than spin the
                // window shut.
                thread::yield_now();
            }
        }
    }

    /// Read-crab descent to the leaf's parent, returning the leaf
    /// *candidate* for `key` unlatched, with the stamp of the parent's
    /// release: the latched range walk takes the leaf's latch once and
    /// chases right (or, for a recycled slot, restarts) as it would on
    /// any hop of the leaf chain. A lone leaf root is latched here only
    /// to learn that it is one.
    fn crab_leaf_candidate(&self, key: u64) -> (NodeRef<'_, V>, Option<Stamp>) {
        let mut guard = self.lock_root_read(false).expect("blocking");
        while guard.level > 2 {
            let child = self.latch_read(guard.at(guard.child_for(key)), None);
            guard.crab_to(child);
        }
        let leaf = if guard.is_leaf() {
            guard.node_ref()
        } else {
            guard.at(guard.child_for(key))
        };
        (leaf, guard.release(None))
    }

    // ------------------------------------------------------------------
    // Exclusive crab descents and the shared split-upward path.
    // ------------------------------------------------------------------

    /// Exclusive crab to the leaf for `key`. Retains the latch chain
    /// above every node that is unsafe per `is_unsafe` (or every node,
    /// with `retain_all`); returns the retained guards, top-first, last
    /// being the leaf. `None` only in probe mode.
    fn descend_exclusive(
        &self,
        key: u64,
        is_unsafe: impl Fn(&Node<V>) -> bool,
        retain_all: bool,
        probe: bool,
    ) -> Option<Vec<WriteGuard<'_, V>>> {
        let mut held = vec![self.lock_root_write(probe)?];
        let mut peak = 1;
        loop {
            let child = {
                let top = held.last().expect("chain never empty");
                if top.is_leaf() {
                    self.counters.note_chain_depth(peak);
                    return Some(held);
                }
                top.at(top.child_for(key))
            };
            let child_guard = self.crab_write(child, probe)?;
            if !retain_all && !is_unsafe(&child_guard) {
                // The child is safe: release every ancestor, their holds
                // ending where the child's starts.
                let end = child_guard.hold_start();
                for g in held.drain(..) {
                    g.release(end);
                }
            }
            held.push(child_guard);
            peak = peak.max(held.len());
        }
    }

    /// [`Self::descend_exclusive`] with probe mode decided by (and spill
    /// fallback for) the transaction-retention state.
    fn descend_exclusive_safe(
        &self,
        key: u64,
        is_unsafe: impl Fn(&Node<V>) -> bool,
        retain_all: bool,
    ) -> Vec<WriteGuard<'_, V>> {
        if self.must_probe() {
            if let Some(held) = self.descend_exclusive(key, &is_unsafe, retain_all, true) {
                return held;
            }
            self.txn_spill();
        }
        self.descend_exclusive(key, &is_unsafe, retain_all, false)
            .expect("blocking descent")
    }

    /// Inserts into an exclusively latched chain's leaf and splits
    /// upward through it (shared by the crab and optimistic-redo write
    /// paths). The chain is consumed into transaction retention.
    fn insert_through_chain(
        &self,
        mut held: Vec<WriteGuard<'_, V>>,
        key: u64,
        val: V,
    ) -> Option<V> {
        let leaf = held.last_mut().expect("descent reaches a leaf");
        debug_assert!(leaf.covers(key), "coupled descents never go stale");
        let old = leaf.leaf_insert(key, val);
        if old.is_some() {
            self.txn_retain(held);
            return old; // replacement: no growth, no split
        }
        self.counters.key_added();
        // Split upward through the retained chain.
        let mut idx = held.len() - 1;
        while held[idx].overfull(self.cap) {
            let split_level = held[idx].level.min(u16::MAX as usize) as u16;
            let split_id = held[idx].id();
            self.counters.record_split();
            cbtree_obs::trace::split_begin(split_level, split_id.to_bits());
            let (sep, sib) = split_node(&self.arena, &mut held[idx]);
            if idx == 0 {
                // Only the true root can overflow at the chain's top: a
                // retain-all chain starts there, and any released-above
                // chain top was safe when latched and gained at most one
                // separator.
                let level = held[0].level + 1;
                let new_root = make_root(&self.arena, split_id, sep, sib.id(), level);
                let swung = self.root.0.compare_exchange(
                    split_id.to_bits(),
                    new_root.id().to_bits(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                debug_assert!(swung.is_ok(), "chain top overflowed but was not the root");
                cbtree_obs::trace::split_end(split_level, split_id.to_bits());
                break;
            }
            held[idx - 1].insert_separator(sep, sib.id());
            cbtree_obs::trace::split_end(split_level, split_id.to_bits());
            idx -= 1;
        }
        self.txn_retain(held);
        None
    }

    /// Full exclusive-crab insert (the Naive Lock-coupling insert; also
    /// the Optimistic redo pass and the Two-Phase insert).
    fn insert_crab(&self, key: u64, val: V, retain_all: bool) -> Option<V> {
        let held = self.descend_exclusive_safe(key, |n| n.insert_unsafe(self.cap), retain_all);
        self.insert_through_chain(held, key, val)
    }

    /// Full exclusive-crab remove (merge-at-empty with lazy reclamation:
    /// latches are retained above delete-unsafe nodes, but an emptied
    /// node simply persists until a [`ConcurrentBTree::vacuum`] pass).
    fn remove_crab(&self, key: u64, retain_all: bool) -> Option<V> {
        let mut held = self.descend_exclusive_safe(key, |n| n.delete_unsafe(), retain_all);
        let leaf = held.last_mut().expect("descent reaches a leaf");
        let old = leaf.leaf_remove(key);
        if old.is_some() {
            self.counters.key_removed();
        }
        self.txn_retain(held);
        old
    }

    // ------------------------------------------------------------------
    // Vacuum: unlink emptied leaves and recycle their slots.
    // ------------------------------------------------------------------

    /// Unlinks emptied leaves and returns their arena slots to the free
    /// list, bumping each slot's generation so stale handles convict.
    /// Returns the number of slots reclaimed.
    ///
    /// The pass crabs exclusively down the leftmost spine to level 2 and
    /// walks that level's right-link chain; under each parent `P` (held
    /// exclusively) an empty non-leftmost leaf `E = kids[i]` is unlinked
    /// by latching `L = kids[i-1]` then `E` (parent-before-child and
    /// left-before-right, the same order every descent uses, so the
    /// pass cannot deadlock with ordinary operations), splicing
    /// `L.right = E.right` / `L.high = E.high`, removing `E`'s separator
    /// from `P`, and retiring `E`'s slot *while still holding `E`'s
    /// exclusive latch* — the ordering the generation protocol requires
    /// (see [`crate::arena`]).
    ///
    /// Leftmost leaves and old roots are never reclaimed, so root ids
    /// stay ABA-free. A no-op (returning 0) for the link protocols:
    /// their descents hold handles across unlatched windows with no
    /// revalidation protocol, which is exactly the reader recycling
    /// would break — lazy reclamation remains their documented behavior.
    pub fn vacuum(&self) -> usize {
        let policy = self.policy();
        if policy.read == ReadPolicy::Link || policy.update == UpdatePolicy::Link {
            return 0;
        }
        if self.must_probe() {
            self.txn_spill(); // never block while holding retained latches
        }
        let _one_at_a_time = self
            .vacuum_serial
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut parent = self.lock_root_write(false).expect("blocking");
        if parent.is_leaf() {
            return 0; // a lone leaf root is never reclaimed
        }
        // Crab down the leftmost spine to level 2.
        while parent.level > 2 {
            let child = parent.at(parent.kid(0).expect("level > 2 is internal"));
            let child = self.latch_write(child, None);
            parent.crab_to(child);
        }
        let mut freed = 0;
        loop {
            let mut i = 1; // kids[0] is never reclaimed
            while let (Some(l_id), Some(e_id)) = (parent.kid(i - 1), parent.kid(i)) {
                let mut l = self.latch_write(parent.at(l_id), None);
                let mut e = self.latch_write(parent.at(e_id), None);
                if e.is_leaf() && e.keys().is_empty() {
                    // Splice E out of the leaf chain and the parent.
                    l.right = e.right;
                    l.high = e.high;
                    parent.remove_child(i);
                    // Generation bump inside E's exclusive section, then
                    // release, then free-list — the retire protocol.
                    self.arena.retire(&mut e);
                    drop(e);
                    self.arena.recycle(e_id);
                    freed += 1;
                    // kids[i] is now the old kids[i+1]: don't advance.
                } else {
                    drop(e);
                    i += 1;
                }
                drop(l);
            }
            let next = parent.right;
            match next {
                // Crab rightward along level 2 (next latched before
                // `parent` releases, left before right).
                Some(id) => {
                    let next = self.latch_write(parent.at(id), None);
                    parent.crab_to(next);
                }
                None => return freed,
            }
        }
    }

    // ------------------------------------------------------------------
    // The exclusive-leaf descent (optimistic first pass, batches).
    // ------------------------------------------------------------------

    /// Locates and exclusively latches the leaf covering `key`: shared
    /// crab to the leaf's parent, exclusive leaf latch taken under the
    /// parent's shared latch — the optimistic first pass — plus the
    /// right-link chases the link protocols need (a lagging separator
    /// can route to a node left of the key at any level; coupled
    /// protocols never go stale under a held parent latch). Blocking
    /// mode: callers spill retained transaction latches first, and must
    /// hold **no** other latch (the descent acquires root-to-leaf, and
    /// holding a leaf across it would invert that order against a
    /// concurrent crab descent). Children are resolved under their
    /// parent's latch and internal slots are never recycled, so no
    /// handle here can be stale.
    fn write_leaf(&self, key: u64) -> WriteGuard<'_, V> {
        loop {
            let root = self.root_ref();
            let guard = self.latch_read(root, None);
            if guard.id() != self.root_id() {
                continue; // root split under us: retry
            }
            if guard.is_leaf() {
                // A lone leaf root: its shared latch only learned that;
                // take it again, exclusively.
                let carried = guard.release(None);
                let leaf = self.latch_write(root, carried);
                if leaf.id() == self.root_id() {
                    return leaf; // a root leaf covers every key
                }
                continue;
            }
            let mut parent = guard;
            loop {
                while !parent.covers(key) {
                    let next = parent.at(parent.right.expect("finite high key implies right link"));
                    self.counters.record_chase();
                    let next = self.latch_read(next, None); // left before right
                    parent.crab_to(next);
                }
                let child = parent.at(parent.child_for(key));
                if parent.level == 2 {
                    let leaf = self.latch_write(child, None);
                    parent.release(leaf.hold_start());
                    return self.chase_right_write(leaf, key);
                }
                let child = self.latch_read(child, None);
                parent.crab_to(child);
            }
        }
    }

    /// Crabs exclusively rightward from `leaf` until the latched leaf
    /// covers `key`. The right sibling is latched **before** the held
    /// leaf releases — left before right, the same order vacuum uses —
    /// and a held leaf's right sibling cannot be retired out from under
    /// us (vacuum must latch the left neighbor first), so the hop is
    /// deadlock-free and recycle-safe without a staleness check.
    fn chase_right_write<'a>(&'a self, mut leaf: WriteGuard<'a, V>, key: u64) -> WriteGuard<'a, V> {
        while !leaf.covers(key) {
            let next = leaf.at(leaf.right.expect("finite high key implies right link"));
            self.counters.record_chase();
            let next = self.latch_write(next, None);
            leaf.crab_to(next);
        }
        leaf
    }

    // ------------------------------------------------------------------
    // The Lehman–Yao link paths.
    // ------------------------------------------------------------------

    /// Link-order descent (one shared latch at a time, each acquisition
    /// carrying the previous release's stamp) to the *candidate* node at
    /// `level` for `key`, returned **unlatched** with the stamp of the
    /// last release: the caller latches it once, in its own mode, and
    /// chases right if it split in between (node levels never change, so
    /// a child of a `level + 1` node is at `level`). Records the visited
    /// node of every internal level as ascent hints when `stack` is
    /// given. A root at `level` is latched here only to learn that it is
    /// (a lone leaf root, for leaves). A root *below* `level` means
    /// another thread split the old root and has not yet swung the root
    /// word: we hold no latch, so that grower cannot be waiting on us —
    /// yield until its swap lands.
    fn link_descend(
        &self,
        key: u64,
        level: usize,
        mut stack: Option<&mut AscentHints>,
    ) -> (NodeRef<'_, V>, Option<Stamp>) {
        'restart: loop {
            let mut cur = self.root_ref();
            let mut carried = None;
            loop {
                let g = self.latch_read(cur, carried);
                if g.level < level {
                    drop(g);
                    thread::yield_now();
                    continue 'restart;
                }
                let (next, arrived) = if !g.covers(key) {
                    self.counters.record_chase();
                    (g.right.expect("finite high key implies right link"), false)
                } else if g.level == level {
                    return (cur, g.release(None));
                } else {
                    if let Some(stack) = stack.as_deref_mut() {
                        if stack.len() == MAX_LEVELS {
                            // Deeper than the hint stack: forget the
                            // root-most hint (the ascent then finds that
                            // ancestor by descent).
                            stack.remove(0);
                        }
                        stack.push(cur.id());
                    }
                    (g.child_for(key), g.level == level + 1)
                };
                carried = g.release(None);
                cur.goto(next);
                if arrived {
                    return (cur, carried);
                }
            }
        }
    }

    /// Exclusively latches `start` (carrying the caller's stamp),
    /// chasing right until the node covers `key`. Returns the guard of
    /// the covering node.
    fn link_latch_covering<'a>(
        &'a self,
        start: NodeRef<'a, V>,
        key: u64,
        carried: Option<Stamp>,
    ) -> WriteGuard<'a, V> {
        let mut cur = start;
        let mut guard = self.latch_write(cur, carried);
        while !guard.covers(key) {
            let next = guard.right.expect("covers");
            self.counters.record_chase();
            let carried = guard.release(None); // at most one latch at a time
            cur.goto(next);
            guard = self.latch_write(cur, carried);
        }
        // The link discipline's whole point: the chain never exceeds 1.
        self.counters.note_chain_depth(1);
        guard
    }

    /// Lehman–Yao insert: latch the covering leaf alone, half-split if
    /// overfull, then post separators upward via the ascent hints.
    fn insert_link(&self, key: u64, val: V) -> Option<V> {
        let mut stack = AscentHints::new();
        let (leaf, carried) = self.link_descend(key, 1, Some(&mut stack));
        let mut guard = self.link_latch_covering(leaf, key, carried);
        let old = guard.leaf_insert(key, val);
        if old.is_some() {
            return old;
        }
        self.counters.key_added();
        if !guard.overfull(self.cap) {
            return None;
        }
        // Half-split, then post separators upward.
        let mut split_level = guard.level.min(u16::MAX as usize) as u16;
        let mut split_id = guard.id();
        self.counters.record_split();
        cbtree_obs::trace::split_begin(split_level, split_id.to_bits());
        let (mut sep, mut sib) = split_node(&self.arena, &mut guard);
        let mut left = guard.id();
        let mut level = guard.level;
        drop(guard);
        // The sibling is linked and reachable, but its separator is not
        // yet posted in the parent — the Lehman–Yao window every other
        // operation must tolerate via right-link chases.
        cbtree_sync::inject::perturb(cbtree_sync::inject::Site::HalfSplit);
        loop {
            let (parent, carried) = match stack.pop() {
                Some(p) => (self.arena.at(p), None),
                None => {
                    if self.link_try_grow_root(left, sep, sib.id(), level) {
                        cbtree_obs::trace::split_end(split_level, split_id.to_bits());
                        return None;
                    }
                    // The tree grew underneath us (rare): find today's
                    // ancestor by descent.
                    self.link_descend(sep, level + 1, None)
                }
            };
            let mut pg = self.link_latch_covering(parent, sep, carried);
            debug_assert!(pg.level == level + 1, "ascent hint at wrong level");
            pg.insert_separator(sep, sib.id());
            // The separator is posted: this level's Lehman–Yao window
            // closes (a parent overflow opens a fresh one, one level up).
            cbtree_obs::trace::split_end(split_level, split_id.to_bits());
            if !pg.overfull(self.cap) {
                return None;
            }
            split_level = pg.level.min(u16::MAX as usize) as u16;
            split_id = pg.id();
            self.counters.record_split();
            cbtree_obs::trace::split_begin(split_level, split_id.to_bits());
            let (s, sb) = split_node(&self.arena, &mut pg);
            left = pg.id();
            level = pg.level;
            sep = s;
            sib = sb;
            drop(pg);
            // Same unposted-separator window, one level up.
            cbtree_sync::inject::perturb(cbtree_sync::inject::Site::HalfSplit);
        }
    }

    /// Attempts the root swap after splitting what was the root. Returns
    /// `false` when someone else already grew the tree.
    fn link_try_grow_root(&self, left: NodeId, sep: u64, sib: NodeId, level: usize) -> bool {
        let new_root = make_root(&self.arena, left, sep, sib, level + 1);
        let swung = self.root.0.compare_exchange(
            left.to_bits(),
            new_root.id().to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if swung.is_ok() {
            true
        } else {
            // Lost the race: the speculatively allocated root was never
            // published, so retire it straight back to the free list.
            let mut g = new_root.write_guard();
            self.arena.retire(&mut g);
            drop(g);
            self.arena.recycle(new_root.id());
            false
        }
    }

    /// Lehman–Yao remove: latch the covering leaf alone (merge-at-empty
    /// with lazy reclamation: an emptied leaf persists, still linked).
    fn remove_link(&self, key: u64) -> Option<V> {
        let (leaf, carried) = self.link_descend(key, 1, None);
        let mut guard = self.link_latch_covering(leaf, key, carried);
        let old = guard.leaf_remove(key);
        if old.is_some() {
            self.counters.key_removed();
        }
        old
    }

    // ------------------------------------------------------------------
    // Public operations, dispatched on the protocol's policies.
    // ------------------------------------------------------------------

    /// Inserts `key → val`; returns the previous value if the key
    /// existed.
    pub fn insert(&self, key: u64, val: V) -> Option<V> {
        cbtree_obs::trace::op_begin(cbtree_obs::opcode::INSERT);
        let out = self.insert_impl(key, val);
        cbtree_obs::trace::op_end(cbtree_obs::opcode::INSERT, out.is_some());
        out
    }

    fn insert_impl(&self, key: u64, val: V) -> Option<V> {
        self.counters.record_op();
        match self.policy().update {
            UpdatePolicy::Crab { retain_all } => self.insert_crab(key, val, retain_all),
            UpdatePolicy::OptimisticLeaf => {
                {
                    let mut leaf = self.write_leaf(key);
                    debug_assert!(leaf.covers(key));
                    let at = leaf.find(key);
                    if at.is_ok() || !leaf.insert_unsafe(self.cap) {
                        let old = leaf.leaf_insert_at(at, key, val);
                        if old.is_none() {
                            self.counters.key_added();
                        }
                        return old;
                    }
                    // Unsafe leaf: release and redo pessimistically.
                }
                self.counters.record_restart();
                self.insert_crab(key, val, false)
            }
            UpdatePolicy::Link => self.insert_link(key, val),
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: &u64) -> Option<V> {
        cbtree_obs::trace::op_begin(cbtree_obs::opcode::DELETE);
        let out = self.remove_impl(key);
        cbtree_obs::trace::op_end(cbtree_obs::opcode::DELETE, out.is_some());
        out
    }

    fn remove_impl(&self, key: &u64) -> Option<V> {
        self.counters.record_op();
        match self.policy().update {
            UpdatePolicy::Crab { retain_all } => self.remove_crab(*key, retain_all),
            UpdatePolicy::OptimisticLeaf => {
                {
                    let mut leaf = self.write_leaf(*key);
                    if !leaf.delete_unsafe() {
                        let old = leaf.leaf_remove(*key);
                        if old.is_some() {
                            self.counters.key_removed();
                        }
                        return old;
                    }
                }
                self.counters.record_restart();
                self.remove_crab(*key, false)
            }
            UpdatePolicy::Link => self.remove_link(*key),
        }
    }

    /// Whether `key` is present.
    #[allow(unsafe_code)]
    pub fn contains_key(&self, key: &u64) -> bool {
        cbtree_obs::trace::op_begin(cbtree_obs::opcode::CONTAINS);
        self.counters.record_op();
        let found = if self.policy().read == ReadPolicy::Olc {
            // SAFETY: the leaf closure scans the node's POD `u64` key
            // words (the clamped `keys()` run) — no heap value is
            // materialized; a torn window yields at worst a wrong bool,
            // discarded on validation.
            unsafe { self.olc_descend(*key, |n| n.find(*key).is_ok()) }.1
        } else {
            let (leaf, held) = self.read_leaf(*key);
            let found = leaf.find(*key).is_ok();
            release_read(leaf, held);
            found
        };
        cbtree_obs::trace::op_end(cbtree_obs::opcode::CONTAINS, found);
        found
    }
}

/// The read API serves word values: an OLC read copies its value out of
/// an unvalidated window, and only a word survives a torn copy as a
/// wrong value that validation discards, never as undefined behaviour.
impl ConcurrentBTree<u64> {
    /// Looks `key` up, copying the value out.
    ///
    /// On an OLC tree no level is latched: the value word is copied out
    /// of the leaf's read window, which the version check then
    /// validates.
    #[allow(unsafe_code)]
    pub fn get(&self, key: &u64) -> Option<u64> {
        cbtree_obs::trace::op_begin(cbtree_obs::opcode::SEARCH);
        self.counters.record_op();
        let out = if self.policy().read == ReadPolicy::Olc {
            // Defensive indexing: keys/vals can disagree mid-write; a
            // miss is discarded by the failed validation.
            // SAFETY: the leaf closure scans the clamped key words and
            // copies one value word out — at worst a wrong word,
            // discarded on failed validation. The routing reads follow
            // `olc_descend`'s contract.
            unsafe {
                self.olc_descend(*key, |n| {
                    let i = n.find(*key).ok()?;
                    n.vals().get(i).copied()
                })
            }
            .1
        } else {
            let (leaf, held) = self.read_leaf(*key);
            let out = leaf.leaf_get(*key).copied();
            release_read(leaf, held);
            out
        };
        cbtree_obs::trace::op_end(cbtree_obs::opcode::SEARCH, out.is_some());
        out
    }

    // ------------------------------------------------------------------
    // Sorted-batch execution with amortized descent.
    // ------------------------------------------------------------------

    /// Executes `ops` as one sorted batch with amortized descent; see
    /// [`crate::batch`] for the contract.
    ///
    /// The batch is **stable**-sorted by key, so same-key operations
    /// execute in submission order and the result vector (indexed in
    /// submission order) is exactly what singleton execution would have
    /// returned. One exclusively latched leaf is carried across
    /// consecutive keys: an operation the held leaf covers executes
    /// inline (every removal is leaf-local — merge-at-empty never
    /// restructures on the spot — and so is every non-splitting
    /// insert); a key just past the high key hops the right link while
    /// still holding the current leaf; any other miss drops the leaf
    /// and pays a fresh descent. Inserts that would overflow the leaf
    /// fall back to the protocol's native insert path, holding nothing
    /// across the call, so split correctness stays in one place.
    pub fn execute_batch(&self, mut ops: Vec<BatchOp<u64>>) -> BatchOutcome<u64> {
        let mut scratch = BatchScratch::default();
        let summary = self.execute_batch_in(&mut ops, &mut scratch);
        BatchOutcome {
            results: scratch.results,
            summary,
        }
    }

    /// [`Self::execute_batch`] in a caller's working memory: drains
    /// `ops`, leaves their results in `scratch` (see
    /// [`BatchScratch::results`]) and returns the accounting. A caller
    /// that keeps `ops` and `scratch` across batches allocates nothing
    /// per batch.
    pub fn execute_batch_in(
        &self,
        ops: &mut Vec<BatchOp<u64>>,
        scratch: &mut BatchScratch<u64>,
    ) -> BatchSummary {
        use cbtree_obs::{opcode, trace};
        let BatchScratch { sorted, results } = scratch;
        let mut summary = BatchSummary {
            ops: ops.len() as u64,
            ..BatchSummary::default()
        };
        results.clear();
        results.resize_with(ops.len(), || None);
        sorted.clear();
        sorted.extend(ops.drain(..).enumerate().map(|(i, op)| (i as u32, op)));
        // By key, then submission order: a stable sort that never
        // allocates.
        sorted.sort_unstable_by_key(|(i, op)| (op.key(), *i));
        let mut held: Option<WriteGuard<'_, u64>> = None;
        for (i, op) in sorted.drain(..) {
            let key = op.key();
            let leaf = match held.take() {
                Some(g) if g.covers(key) => {
                    summary.leaf_reuses += 1;
                    g
                }
                Some(g) => {
                    // Peek exactly one right hop while still holding the
                    // current leaf; a key landing further right than the
                    // immediate sibling re-descends instead of walking
                    // the whole chain latched.
                    let next = g.at(g.right.expect("finite high key implies right link"));
                    self.counters.record_chase();
                    let hop = self.latch_write(next, None);
                    g.release(hop.hold_start());
                    if hop.covers(key) {
                        summary.leaf_reuses += 1;
                        summary.right_hops += 1;
                        hop
                    } else {
                        drop(hop); // no latches across a fresh descent
                        if self.must_probe() {
                            self.txn_spill();
                        }
                        summary.descents += 1;
                        self.write_leaf(key)
                    }
                }
                None => {
                    if self.must_probe() {
                        self.txn_spill();
                    }
                    summary.descents += 1;
                    self.write_leaf(key)
                }
            };
            let mut leaf = leaf;
            match op {
                BatchOp::Get(k) => {
                    trace::op_begin(opcode::SEARCH);
                    self.counters.record_op();
                    let out = leaf.leaf_get(k).copied();
                    trace::op_end(opcode::SEARCH, out.is_some());
                    results[i as usize] = out;
                    held = Some(leaf);
                }
                BatchOp::Remove(k) => {
                    trace::op_begin(opcode::DELETE);
                    self.counters.record_op();
                    let old = leaf.leaf_remove(k);
                    if old.is_some() {
                        self.counters.key_removed();
                    }
                    trace::op_end(opcode::DELETE, old.is_some());
                    results[i as usize] = old;
                    held = Some(leaf);
                }
                BatchOp::Insert(k, v) => {
                    let at = leaf.find(k);
                    if at.is_ok() || !leaf.insert_unsafe(self.cap) {
                        trace::op_begin(opcode::INSERT);
                        self.counters.record_op();
                        let old = leaf.leaf_insert_at(at, k, v);
                        if old.is_none() {
                            self.counters.key_added();
                        }
                        trace::op_end(opcode::INSERT, old.is_some());
                        results[i as usize] = old;
                        held = Some(leaf);
                    } else {
                        // Full leaf: the native insert re-descends and
                        // splits. It records its own op and latches.
                        drop(leaf);
                        summary.fallback_inserts += 1;
                        summary.descents += 1;
                        trace::op_begin(opcode::INSERT);
                        let old = self.insert_impl(k, v);
                        trace::op_end(opcode::INSERT, old.is_some());
                        results[i as usize] = old;
                        held = None;
                    }
                }
            }
        }
        drop(held);
        summary
    }

    /// Ascending range scan over `[lo, hi)` via the leaf chain, one
    /// shared latch at a time. Weakly consistent under concurrent
    /// updates: keys present for the whole scan are returned exactly
    /// once (splits only move keys right, and the walk follows right
    /// links), but concurrent inserts/removes may or may not be
    /// observed.
    ///
    /// On a recovery-variant tree a scan first spills the calling
    /// thread's retained latches (an early commit): the chain walk takes
    /// blocking shared latches, which would self-deadlock on a leaf this
    /// thread retains exclusively.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        cbtree_obs::trace::op_begin(cbtree_obs::opcode::RANGE);
        let out = self.range_impl(lo, hi);
        cbtree_obs::trace::op_end(cbtree_obs::opcode::RANGE, !out.is_empty());
        out
    }

    #[allow(unsafe_code)]
    fn range_impl(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.counters.record_op();
        let mut out = Vec::new();
        if lo >= hi {
            return out;
        }
        if self.must_probe() {
            self.txn_spill();
        }
        match self.policy().read {
            ReadPolicy::Olc => {
                // Latch-free chain walk: each leaf is one validated read
                // window; a torn window retries the same leaf, so pages
                // are appended exactly once, while a stale leaf (slot
                // recycled mid-walk) re-descends to the resume cursor.
                // Weakly consistent, like the latched scans. A right
                // link is followed with no parent re-validation, so the
                // generation check is all that tells a recycled slot
                // from the leaf the link named.
                // SAFETY: the locator closure reads nothing; the page
                // closure walks the node's clamped key words beside its
                // value words and copies node ids — at worst wrong
                // words, discarded on validation.
                let mut cursor = lo;
                let (mut cur, ()) = unsafe { self.olc_descend(cursor, |_| ()) };
                loop {
                    self.counters.record_validation();
                    let attempt = unsafe {
                        cur.read_optimistic(|n| {
                            if !n.covers(cursor) {
                                // A split moved our range right inside
                                // the window: chase, collecting nothing.
                                return n.right.map(|r| (Vec::new(), Some(r), None, true));
                            }
                            let mut page = Vec::new();
                            for (&k, v) in n.keys().iter().zip(n.vals()) {
                                if k >= cursor && k < hi {
                                    page.push((k, *v));
                                }
                            }
                            let next = if n.high.is_none_or(|h| h >= hi) {
                                None // range exhausted
                            } else {
                                n.right
                            };
                            Some((page, next, n.high, false))
                        })
                    };
                    match attempt {
                        Some((_, Some((page, next, high, chased)))) if !cur.stale() => {
                            if chased {
                                self.counters.record_chase();
                            }
                            out.extend(page);
                            match next {
                                Some(r) => {
                                    if !chased {
                                        // Everything below this leaf's
                                        // high key is emitted.
                                        if let Some(h) = high {
                                            cursor = cursor.max(h);
                                        }
                                    }
                                    cur.goto(r);
                                }
                                None => return out,
                            }
                        }
                        _ if cur.stale() => {
                            // The slot was recycled mid-walk: this leaf's
                            // content belongs to someone else. Re-descend
                            // to the resume cursor.
                            self.counters.record_olc_restart(false);
                            cur = unsafe { self.olc_descend(cursor, |_| ()) }.0;
                        }
                        _ => {
                            let writer_blocked = cur.version().is_none();
                            self.counters.record_olc_restart(writer_blocked);
                            if writer_blocked {
                                thread::yield_now();
                            }
                        }
                    }
                }
            }
            // Every other protocol walks the leaf chain latched, one
            // shared latch at a time, from the leaf candidate its own
            // descent finds.
            _ => {
                let mut cursor = lo;
                let (mut cur, mut carried) = self.range_start(cursor);
                loop {
                    let g = self.latch_read(cur, carried);
                    if g.stale() {
                        // Slot recycled in the unlatched hop (never in
                        // link trees, which never vacuum): relocate to
                        // the resume cursor. Keys below it were emitted:
                        // only empty leaves are vacuumed, and crossing a
                        // live leaf advances the cursor to its high key.
                        drop(g);
                        self.counters.record_restart();
                        (cur, carried) = self.range_start(cursor);
                        continue;
                    }
                    let next = if !g.covers(cursor) {
                        // A split moved our range right before we latched.
                        self.counters.record_chase();
                        Some(g.right.expect("covers"))
                    } else {
                        for (&k, v) in g.keys().iter().zip(g.vals()) {
                            if k >= cursor && k < hi {
                                out.push((k, *v));
                            }
                        }
                        match g.high {
                            None => None,
                            Some(h) if h >= hi => None, // range exhausted
                            Some(h) => {
                                cursor = cursor.max(h);
                                Some(g.right.expect("finite high"))
                            }
                        }
                    };
                    carried = g.release(None);
                    match next {
                        Some(n) => cur.goto(n),
                        None => return out,
                    }
                }
            }
        }
    }

    /// Where a latched range walk starts: the leaf candidate for `key`,
    /// unlatched, found the protocol's way, with the stamp of the last
    /// latch released on the way there.
    fn range_start(&self, key: u64) -> (NodeRef<'_, u64>, Option<Stamp>) {
        match self.policy().read {
            ReadPolicy::Crab | ReadPolicy::RetainAll => self.crab_leaf_candidate(key),
            ReadPolicy::Link => self.link_descend(key, 1, None),
            // OLC ranges walk the leaf chain latch-free in `range_impl`.
            ReadPolicy::Olc => unreachable!("OLC ranges take no latch"),
        }
    }
}

/// Releases a read descent's leaf and then any ancestors it retained
/// (strict 2PL), all at the leaf's release reading.
fn release_read<V>(leaf: ReadGuard<'_, V>, held: Vec<ReadGuard<'_, V>>) {
    let mut end = leaf.release(None);
    for g in held {
        end = g.release(end).or(end);
    }
}

#[cfg(test)]
mod tests {
    use crate::{ConcurrentBTree, Protocol};
    use std::sync::Arc;

    // The write-path unit tests, on the lock-coupling protocol.

    #[test]
    fn insert_and_get_sequentially() {
        let tree: ConcurrentBTree<u64> = ConcurrentBTree::new(Protocol::LockCoupling, 8);
        for k in 0..500u64 {
            assert!(tree.insert(k * 3, k).is_none());
        }
        assert_eq!(tree.len(), 500);
        for k in 0..500u64 {
            assert_eq!(tree.get(&(k * 3)), Some(k));
            assert_eq!(tree.get(&(k * 3 + 1)), None);
        }
        tree.check().unwrap();
    }

    #[test]
    fn replacement_returns_old_value() {
        let tree = ConcurrentBTree::new(Protocol::LockCoupling, 8);
        tree.insert(7, 1);
        assert_eq!(tree.insert(7, 2), Some(1));
        assert_eq!(tree.len(), 1, "no growth on replace");
        assert_eq!(tree.get(&7), Some(2));
    }

    #[test]
    fn remove_roundtrip() {
        let tree = ConcurrentBTree::new(Protocol::LockCoupling, 8);
        for k in 0..200u64 {
            tree.insert(k, k);
        }
        assert_eq!(tree.remove(&100), Some(100));
        assert_eq!(tree.remove(&100), None);
        assert_eq!(tree.len(), 199);
        assert_eq!(tree.get(&100), None);
        tree.check().unwrap();
    }

    #[test]
    fn root_grows_through_multiple_levels() {
        let tree = ConcurrentBTree::new(Protocol::LockCoupling, 4);
        for k in 0..5000u64 {
            tree.insert(k, 0u8);
        }
        let height = tree.height();
        assert!(height >= 5, "height {height}");
        tree.check().unwrap();
    }

    #[test]
    fn fresh_tree_accessors() {
        let t: ConcurrentBTree<()> = ConcurrentBTree::new(Protocol::BLink, 32);
        assert_eq!(t.protocol(), Protocol::BLink);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 32);
        assert_eq!(t.height(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn tiny_capacity_rejected() {
        let _: ConcurrentBTree<()> = ConcurrentBTree::new(Protocol::LockCoupling, 2);
    }

    #[test]
    fn counters_track_latches_and_ops() {
        let tree = ConcurrentBTree::new(Protocol::LockCoupling, 8);
        for k in 0..100u64 {
            tree.insert(k, ());
        }
        for k in 0..100u64 {
            assert!(tree.contains_key(&k));
        }
        let snap = tree.counters();
        assert_eq!(snap.ops, 200);
        assert!(snap.w_latch_total() >= 100, "every insert latches W");
        assert!(snap.r_latch_total() >= 100, "every lookup latches R");
        assert!(snap.peak_chain >= 2, "retained chains were observed");
        assert_eq!(snap.restarts, 0);
        assert_eq!(snap.chases, 0);
    }

    #[test]
    fn vacuum_reclaims_emptied_leaves() {
        let tree = ConcurrentBTree::new(Protocol::LockCoupling, 4);
        for k in 0..512u64 {
            tree.insert(k, k);
        }
        tree.check().unwrap();
        // Empty a swath of leaves in the middle of the key space.
        for k in 100..400u64 {
            tree.remove(&k);
        }
        let allocated_before = tree.root_handle().arena().allocated();
        let freed = tree.vacuum();
        assert!(freed > 10, "emptied leaves were reclaimed (freed {freed})");
        assert_eq!(tree.root_handle().arena().recycled(), freed as u64);
        tree.check().unwrap();
        // Every surviving key is still reachable, ranges included.
        for k in 0..100u64 {
            assert_eq!(tree.get(&k), Some(k));
        }
        for k in 100..400u64 {
            assert_eq!(tree.get(&k), None);
        }
        for k in 400..512u64 {
            assert_eq!(tree.get(&k), Some(k));
        }
        assert_eq!(tree.range(0, 512).len(), 212);
        // Recycled slots are reused before the arena grows again.
        for k in 100..400u64 {
            tree.insert(k, k);
        }
        tree.check().unwrap();
        assert!(
            tree.root_handle().arena().allocated() > allocated_before,
            "reinserts split into recycled slots"
        );
        assert_eq!(tree.range(0, 512).len(), 512);
    }

    #[test]
    fn vacuum_under_concurrent_churn_stays_linearizable() {
        let tree = Arc::new(ConcurrentBTree::<u64>::new(Protocol::Olc, 4));
        // Anchor keys that must remain visible throughout.
        for k in (0..2_000u64).step_by(20) {
            tree.insert(k, k);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..2 {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                // Churn: fill and empty non-anchor keys, vacuuming as we
                // go, so leaves empty out and slots recycle under the
                // readers' feet.
                for round in 0..60u64 {
                    let base = (t * 10_000 + 2_000) as u64;
                    for k in 0..300u64 {
                        tree.insert(base + k, round);
                    }
                    for k in 0..300u64 {
                        tree.remove(&(base + k));
                    }
                    tree.vacuum();
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            }));
        }
        for _ in 0..2 {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for k in (0..2_000u64).step_by(20) {
                        assert_eq!(tree.get(&k), Some(k), "anchor key vanished");
                        assert!(tree.contains_key(&k));
                    }
                    let got = tree.range(0, 2_000);
                    assert!(got.len() >= 100, "anchors missing from range");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            tree.root_handle().arena().recycled() > 0,
            "churn recycled slots"
        );
        tree.check().unwrap();
    }

    // Optimistic Descent.

    #[test]
    fn optimistic_redos_happen_but_rarely() {
        let tree = ConcurrentBTree::new(Protocol::OptimisticDescent, 13);
        for k in 0..20_000u64 {
            tree.insert(k.wrapping_mul(0x9E37_79B9) % 1_000_000, k);
        }
        let redos = tree.counters().restarts;
        let redo_rate = redos as f64 / 20_000.0;
        assert!(redos > 0, "some leaves must have been full");
        assert!(redo_rate < 0.25, "redo rate {redo_rate} too high");
        tree.check().unwrap();
    }

    #[test]
    fn optimistic_grows_from_leaf_root_under_contention() {
        // Exercises the root-is-leaf first-pass path racing root growth.
        let tree = Arc::new(ConcurrentBTree::new(Protocol::OptimisticDescent, 3));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    for i in 0..500u64 {
                        tree.insert(i * 4 + t, ());
                    }
                });
            }
        });
        assert_eq!(tree.len(), 2000);
        assert!(tree.height() > 2);
        tree.check().unwrap();
    }

    // B-link.

    #[test]
    fn b_link_empty_leaves_persist_and_stay_usable() {
        let tree = ConcurrentBTree::new(Protocol::BLink, 4);
        for k in 0..100u64 {
            tree.insert(k, k);
        }
        for k in 0..100u64 {
            tree.remove(&k);
        }
        assert!(tree.is_empty());
        assert_eq!(tree.vacuum(), 0, "link trees never reclaim");
        for k in 0..100u64 {
            assert!(tree.insert(k, k).is_none());
        }
        assert_eq!(tree.len(), 100);
        tree.check().unwrap();
    }

    // Optimistic lock coupling.

    #[test]
    fn olc_readers_acquire_zero_latches() {
        let tree = ConcurrentBTree::new(Protocol::Olc, 6);
        for k in 0..2000u64 {
            tree.insert(k, k);
        }
        let before = tree.counters();
        for k in 0..2000u64 {
            assert_eq!(tree.get(&k), Some(k));
            assert!(tree.contains_key(&k));
        }
        assert_eq!(tree.range(100, 200).len(), 100);
        let reads = tree.counters().since(&before);
        assert_eq!(reads.r_latch_total(), 0, "OLC readers never latch");
        assert_eq!(reads.w_latch_total(), 0, "reads take no write latches");
        assert!(
            reads.v_validations as usize >= 2000 * tree.height(),
            "every node visit validates a version"
        );
    }

    #[test]
    fn olc_single_threaded_reads_never_restart() {
        let tree = ConcurrentBTree::new(Protocol::Olc, 5);
        for k in 0..3000u64 {
            tree.insert(k, ());
        }
        let before = tree.counters();
        for k in 0..3000u64 {
            assert!(tree.contains_key(&k));
        }
        let d = tree.counters().since(&before);
        assert_eq!(d.restarts, 0, "no concurrent writers, no restarts");
        assert_eq!(d.v_restarts_writer + d.v_restarts_version, 0);
    }

    // Two-Phase.

    #[test]
    fn two_phase_concurrent_updates_serialize_but_stay_correct() {
        let tree = Arc::new(ConcurrentBTree::new(Protocol::TwoPhase, 6));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        tree.insert(i * 4 + t, t);
                    }
                });
            }
        });
        assert_eq!(tree.len(), 4_000);
        tree.check().unwrap();
    }

    #[test]
    fn two_phase_readers_share_the_whole_path() {
        let tree = Arc::new(ConcurrentBTree::new(Protocol::TwoPhase, 8));
        for k in 0..500u64 {
            tree.insert(k, k);
        }
        std::thread::scope(|s| {
            for _ in 0..8 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    for k in 0..500u64 {
                        assert_eq!(tree.get(&k), Some(k));
                    }
                });
            }
        });
    }

    #[test]
    fn two_phase_grows_through_root_splits() {
        let tree = ConcurrentBTree::new(Protocol::TwoPhase, 3);
        for k in 0..500u64 {
            tree.insert(k, ());
        }
        assert!(tree.height() >= 4);
        tree.check().unwrap();
    }

    // The recovery variants.

    #[test]
    fn recovery_naive_retains_until_commit_and_spills_on_conflict() {
        let tree = Arc::new(ConcurrentBTree::new(Protocol::RecoveryNaive, 4));
        for k in 0..64u64 {
            tree.insert(k, k);
        }
        tree.txn_commit();
        let pre = tree.counters();
        assert!(pre.txn_commits >= 1);

        // Retain a leaf latch, then prove another thread can't touch it
        // until commit.
        tree.insert(10, 999);
        let t = {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                // Blocks until the owner commits.
                tree.insert(11, 1);
                tree.txn_commit();
            })
        };
        std::thread::yield_now();
        tree.txn_commit();
        t.join().unwrap();
        assert_eq!(tree.get(&10), Some(999));
        assert_eq!(tree.get(&11), Some(1));

        // Self-conflict: with latches retained, re-reading the same leaf
        // must spill rather than self-deadlock.
        tree.insert(20, 7);
        assert_eq!(tree.get(&20), Some(7));
        let snap = tree.counters();
        assert!(snap.txn_spills >= 1, "own-leaf reread must spill");
        tree.txn_commit();
        tree.check().unwrap();
    }

    #[test]
    fn recovery_leaf_retains_only_the_leaf() {
        let tree = ConcurrentBTree::new(Protocol::RecoveryLeaf, 4);
        for k in 0..256u64 {
            tree.insert(k, ());
            // Internal latches must already be free: a second update
            // through the same internals (different leaf region) works
            // without a commit in between as long as no leaf collides.
            tree.insert(10_000 + k, ());
            tree.txn_commit();
        }
        assert_eq!(tree.len(), 512);
        tree.check().unwrap();
        let snap = tree.counters();
        assert!(snap.txn_commits >= 256);
    }

    #[test]
    fn recovery_range_spills_retained_latches() {
        let tree = ConcurrentBTree::new(Protocol::RecoveryNaive, 4);
        for k in 0..64u64 {
            tree.insert(k, k);
        }
        // Without the spill this would self-deadlock on the retained
        // leaf latches.
        let got = tree.range(0, 64);
        assert_eq!(got.len(), 64);
        assert!(tree.counters().txn_spills >= 1);
        tree.txn_commit();
        tree.check().unwrap();
    }

    #[test]
    fn recovery_concurrent_transactions_make_progress() {
        // Transactions of 8 (naive) or 4 (leaf-only) updates over
        // overlapping key ranges: the probe-and-spill discipline must
        // keep every thread live.
        for (protocol, txn) in [(Protocol::RecoveryNaive, 8), (Protocol::RecoveryLeaf, 4)] {
            let tree = Arc::new(ConcurrentBTree::new(protocol, 5));
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let tree = Arc::clone(&tree);
                    s.spawn(move || {
                        for i in 0..1000u64 {
                            tree.insert(i * 4 + t, t);
                            if i % txn == txn - 1 {
                                tree.txn_commit();
                            }
                        }
                        tree.txn_commit();
                    });
                }
            });
            assert_eq!(tree.len(), 4000, "{protocol}");
            tree.check().unwrap();
            assert!(tree.counters().txn_commits > 0, "{protocol}");
        }
    }
}
