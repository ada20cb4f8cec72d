//! Slab-arena node storage with generation-checked handles.
//!
//! Nodes no longer live in per-node `Arc<RwLock<Node>>` heap cells:
//! every tree owns an [`Arena`], a segmented slab of preallocated
//! slots, and nodes are addressed by a compact [`NodeId`] — a `u32`
//! slot index paired with the slot's **generation** at handle-creation
//! time. Child pointers inside nodes are bare `NodeId`s (8 bytes); the
//! [`NodeRef`] handle that code outside a node passes around pairs an
//! id with a **borrow** of the arena. The tree owns its arena outright,
//! every handle and latch guard borrows it, and nothing an operation
//! does writes arena-wide state: there is no reference count to keep
//! alive storage the caller already borrows.
//!
//! # Layout
//!
//! A slot is a generation word plus the node's latch wrapped around the
//! node: header, then a tail of `2C + 3` words (`C + 1` keys ahead of
//! `C + 2` child ids — see [`crate::node`]). `C` is the arena's
//! **capacity class**, fixed at construction: the smallest of 4, 8, 16,
//! 32, 64 and 128 not below the tree's node capacity, so a slot is as
//! large as the tree asked for. Every class has its own segment type,
//! and `Arena::slot` hands out `&Slot<V>` with the tail unsized by
//! ordinary coercion, through one `match` on the class that every
//! resolve in a tree takes the same way.
//!
//! The slab is a spine of up to `SEG_COUNT` segments; segment `k`
//! holds `BASE << k` slots in one contiguous allocation and is created
//! at most once (`OnceLock`), so **slot addresses are stable forever**
//! — growth never moves or reallocates existing slots, which is the
//! invariant every latch guard and optimistic read window relies on.
//! Slot `idx` lives in segment `⌊log₂(idx/BASE + 1)⌋`; resolving a
//! handle is pure bit math plus one bounds-checked load, no lock.
//!
//! # Free list and generations
//!
//! Retired slots (vacuumed empty leaves — see
//! [`ConcurrentBTree::vacuum`](crate::ConcurrentBTree::vacuum)) go on
//! a free list and are recycled by later splits. Recycling is what the
//! old `Arc` representation never did — "nodes are never unlinked" was
//! the load-bearing safety argument for latch-free readers — so the
//! slab replaces that argument with **generation validation**: retiring
//! a slot bumps its generation *while the retiring writer still holds
//! the slot's exclusive latch*, and every reader that reached a slot
//! through an unlatched window re-checks `slot.gen == id.gen` after its
//! version validation. A stale handle therefore convicts itself instead
//! of silently routing into whatever node now occupies the slot:
//!
//! * an optimistic reader's version validation proves no exclusive
//!   section completed inside its read window, and the generation is
//!   only ever bumped inside an exclusive section — so a matching
//!   generation *after* a successful validation proves the slot held
//!   the handle's node for the entire window (checking the generation
//!   *before* the window instead would race with a retire-and-recycle
//!   between the check and the version snapshot);
//! * a latched reader simply checks the generation after acquiring the
//!   latch (the bump happens before the retiring latch is released, so
//!   acquisition order decides).
//!
//! Slots keep their lock across recycling; the lock's version counter
//! keeps advancing, which is exactly what makes a recycled slot's
//! windows fail closed. They keep their leaf value buffer too: retire
//! resets the node in place and clears the buffer without freeing it, so
//! a window that overlaps a retire reads live memory before its
//! validation fails. The retire/install writes are themselves exclusive
//! sections of the slot's own latch, so they are visible to the version
//! machinery like any other write.
//!
//! # No statistics in the slot
//!
//! A slot's latch carries no lock statistics: it is built with the
//! empty sink, and its tag is the node's level (set at install, reset to
//! 1 at retire, both inside the slot's exclusive section). The tree's
//! counted acquisitions pass its per-level accumulator as the sink, so a
//! grant and its hold are recorded at the level the node had when it was
//! granted, and a recycled slot carries no history. Installs and
//! quiescent walks (`node.read()`) report nowhere. The arena also counts
//! live nodes per level, changed only by [`Arena::alloc`] and
//! [`Arena::retire`], so a per-level window read is O(height).

use crate::counters::{StripeSink, MAX_LEVELS};
use crate::node::{Node, NodeT};
use cbtree_sync::{FcfsRwLock, RwLockReadGuard, RwLockWriteGuard, Stamp};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Hard upper bound on a tree's node capacity (max keys per node): the
/// largest capacity class. Real configurations use 4–64.
pub const MAX_CAP: usize = 128;

/// A slot's latch: no statistics of its own (the empty sink).
type Latch<T> = FcfsRwLock<T, ()>;

/// Where a latch step reports: the tree's per-level accumulator (the
/// calling thread's stripe of it), or nowhere (`None`: installs, retires
/// of never-published nodes).
pub(crate) type Sink<'a> = Option<StripeSink<'a>>;

/// Slots in the first slab segment; segment `k` holds `BASE << k`.
const BASE: usize = 64;

/// Spine length: segments 0..SEG_COUNT cover the whole `u32` index
/// space (the sum of `BASE << k` exceeds `u32::MAX` at k = 25).
const SEG_COUNT: usize = 26;

/// Tail words of capacity class `c`: `c + 1` keys (the transient
/// pre-split maximum), then `c + 2` child ids.
const fn words(c: usize) -> usize {
    2 * c + 3
}

// ---------------------------------------------------------------------
// InlineVec: fixed-capacity vector of plain-old-data elements.
// ---------------------------------------------------------------------

/// A fixed-capacity vector stored entirely inline, for `Copy + Default`
/// element types: the B-link insert's ascent hints, kept on the stack so
/// a non-splitting insert allocates nothing.
///
/// # Panics
///
/// Growth past `N` panics (silently dropping would be worse).
pub(crate) struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    buf: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub(crate) fn new() -> Self {
        InlineVec {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends an element.
    pub(crate) fn push(&mut self, x: T) {
        assert!(self.len < N, "inline buffer overflow ({N} elements)");
        self.buf[self.len] = x;
        self.len += 1;
    }

    /// Removes and returns the last element.
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.buf[self.len])
    }

    /// Removes and returns the element at `i`, shifting the tail left.
    pub(crate) fn remove(&mut self, i: usize) -> T {
        assert!(i < self.len, "remove index {i} out of bounds");
        let x = self.buf[i];
        self.buf.copy_within(i + 1..self.len, i);
        self.len -= 1;
        x
    }
}

// ---------------------------------------------------------------------
// NodeId: slot index + generation.
// ---------------------------------------------------------------------

/// A generation-checked node handle: slot index plus the slot's
/// generation when the handle was created. Packs into a `u64` (the
/// tree's root word and the trace pillar's `split_node` identifier).
/// Ids order by slot index, then generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// Slab slot index.
    pub idx: u32,
    /// Slot generation the handle was created under; a mismatch with
    /// the slot's current generation means the slot was recycled and
    /// this handle is stale.
    pub gen: u32,
}

impl NodeId {
    /// Packs the id into one word (`idx` high, `gen` low).
    pub fn to_bits(self) -> u64 {
        (u64::from(self.idx) << 32) | u64::from(self.gen)
    }

    /// Unpacks [`NodeId::to_bits`].
    pub fn from_bits(bits: u64) -> Self {
        NodeId {
            idx: (bits >> 32) as u32,
            gen: bits as u32,
        }
    }
}

// ---------------------------------------------------------------------
// The arena.
// ---------------------------------------------------------------------

/// One slab slot: a generation counter next to the latch-wrapped node.
/// Segments store `SlotT<V, [u64; W]>`; everything else sees [`Slot`].
struct SlotT<V, T: ?Sized> {
    /// Bumped once per retire, always inside the slot latch's exclusive
    /// section (see the module docs for why that placement is load-
    /// bearing).
    gen: AtomicU32,
    lock: Latch<NodeT<V, T>>,
}

/// A slot with its node's tail unsized.
type Slot<V> = SlotT<V, [u64]>;

// A field added to the node header or the lock shows up here: a slot
// is the generation, the lock word with its queue, the node header and
// the tail — no statistics.
const _: () = {
    assert!(std::mem::size_of::<SlotT<u64, [u64; words(16)]>>() <= 500);
    assert!(std::mem::size_of::<SlotT<u64, [u64; words(MAX_CAP)]>>() <= 2_240);
};

/// One slab segment of a capacity class: slots whose node tail is `W`
/// words, created at most once.
type Segment<V, const W: usize> = OnceLock<Box<[SlotT<V, [u64; W]>]>>;

/// One capacity class's segments.
struct Segments<V, const W: usize>([Segment<V, W>; SEG_COUNT]);

impl<V, const W: usize> Segments<V, W> {
    fn new() -> Self {
        Segments(std::array::from_fn(|_| OnceLock::new()))
    }

    /// Slot `off` of segment `k`; `None` when no initialized segment
    /// has it.
    fn get(&self, k: usize, off: usize) -> Option<&Slot<V>> {
        let slot: &Slot<V> = self.0.get(k)?.get()?.get(off)?;
        Some(slot)
    }

    fn slot(&self, k: usize, off: usize) -> &Slot<V> {
        self.get(k, off)
            .expect("slot index within an initialized segment")
    }

    fn slot_mut(&mut self, k: usize, off: usize) -> &mut Slot<V> {
        &mut self.0[k]
            .get_mut()
            .expect("slot index within an initialized segment")[off]
    }

    /// Creates segment `k`: `BASE << k` vacant slots.
    fn init(&self, k: usize) {
        let seg: Box<[SlotT<V, [u64; W]>]> = (0..BASE << k)
            .map(|_| SlotT {
                gen: AtomicU32::new(0),
                lock: Latch::with_sink(NodeT::vacant(), ()),
            })
            .collect();
        self.0[k].set(seg).ok().expect("segment set once");
    }
}

/// The segments of an arena's one capacity class.
enum Spine<V> {
    C4(Segments<V, { words(4) }>),
    C8(Segments<V, { words(8) }>),
    C16(Segments<V, { words(16) }>),
    C32(Segments<V, { words(32) }>),
    C64(Segments<V, { words(64) }>),
    C128(Segments<V, { words(MAX_CAP) }>),
}

/// Runs `$body` with `$segs` bound to the spine's segments, whatever
/// their class.
macro_rules! on_class {
    ($spine:expr, $segs:ident => $body:expr) => {
        match $spine {
            Spine::C4($segs) => $body,
            Spine::C8($segs) => $body,
            Spine::C16($segs) => $body,
            Spine::C32($segs) => $body,
            Spine::C64($segs) => $body,
            Spine::C128($segs) => $body,
        }
    };
}

impl<V> Spine<V> {
    /// The segments of the smallest class holding `cap` keys per node.
    fn for_capacity(cap: usize) -> Self {
        match cap {
            0..=4 => Spine::C4(Segments::new()),
            5..=8 => Spine::C8(Segments::new()),
            9..=16 => Spine::C16(Segments::new()),
            17..=32 => Spine::C32(Segments::new()),
            33..=64 => Spine::C64(Segments::new()),
            65..=MAX_CAP => Spine::C128(Segments::new()),
            _ => panic!("node capacity must be at most {MAX_CAP}"),
        }
    }
}

/// A tree's node slab. Owned by the tree; [`NodeRef`]s and latch guards
/// borrow it, so all storage is dropped with the tree and no operation
/// touches a shared reference count.
pub struct Arena<V> {
    /// Segment `k` holds `BASE << k` slots; created at most once, so
    /// slot addresses are stable for the arena's lifetime.
    spine: Spine<V>,
    /// The tree's node capacity: a slot's value buffer holds `cap + 1`.
    cap: usize,
    /// Recycled slot indices, consumed LIFO (warmest slot first).
    free: Mutex<Vec<u32>>,
    /// Number of initialized segments (guards segment creation).
    segments: Mutex<usize>,
    /// Slots ever handed out (diagnostics).
    allocated: AtomicU64,
    /// Slots retired for recycling (diagnostics; tests assert on it).
    recycled: AtomicU64,
    /// Live (installed, not retired) nodes per level, `level - 1`.
    live: [AtomicU64; MAX_LEVELS],
}

impl<V> fmt::Debug for Arena<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("allocated", &self.allocated.load(Ordering::Relaxed))
            .field("recycled", &self.recycled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Segment and in-segment offset of a global slot index.
fn locate(idx: u32) -> (usize, usize) {
    let chunk = idx as usize / BASE + 1;
    let k = usize::BITS as usize - 1 - chunk.leading_zeros() as usize;
    let seg_base = BASE * ((1 << k) - 1);
    (k, idx as usize - seg_base)
}

impl<V> Arena<V> {
    /// An empty arena for nodes of at most `cap` keys.
    ///
    /// # Panics
    /// Panics when `cap > MAX_CAP`.
    pub fn new(cap: usize) -> Self {
        Arena {
            spine: Spine::for_capacity(cap),
            cap,
            free: Mutex::new(Vec::new()),
            segments: Mutex::new(0),
            allocated: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            live: Default::default(),
        }
    }

    /// The live-node count of `level` (1 = leaf; deeper levels fold
    /// into the last counter).
    fn live_count(&self, level: usize) -> &AtomicU64 {
        &self.live[level.clamp(1, MAX_LEVELS) - 1]
    }

    fn slot(&self, idx: u32) -> &Slot<V> {
        let (k, off) = locate(idx);
        on_class!(&self.spine, segs => segs.slot(k, off))
    }

    /// Requests slot `idx`'s cache lines — generation, lock word, node
    /// header, keys and child ids — ahead of the latch and the search
    /// (see [`cbtree_sync::prefetch`]). An index no initialized segment
    /// holds requests nothing: unlike [`Arena::slot`], this cannot panic.
    #[inline]
    fn prefetch(&self, idx: u32) {
        let (k, off) = locate(idx);
        if let Some(slot) = on_class!(&self.spine, segs => segs.get(k, off)) {
            cbtree_sync::prefetch(slot);
        }
    }

    /// Takes a fresh or recycled slot and returns it exclusively
    /// latched, holding an empty node at `level` for the caller to build
    /// in place; the node is published when the guard drops. The install
    /// is one exclusive section of the slot's latch, so any straggling
    /// stale reader of a recycled slot sees a version bump (and already
    /// sees a generation mismatch). It reports to no sink: nobody can
    /// queue on a node before it is linked. A slot's first install
    /// reserves its value buffer (`cap + 1` values); later ones reuse it.
    pub fn alloc(&self, level: usize) -> WriteGuard<'_, V> {
        let idx = loop {
            if let Some(idx) = self
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop()
            {
                break idx;
            }
            self.grow();
        };
        let slot = self.slot(idx);
        let gen = slot.gen.load(Ordering::Acquire);
        let mut guard = self.at(NodeId { idx, gen }).write_guard();
        guard.reset(level, self.cap + 1);
        slot.lock.set_trace_tag(level.min(u16::MAX as usize) as u16);
        self.live_count(level).fetch_add(1, Ordering::Relaxed);
        self.allocated.fetch_add(1, Ordering::Relaxed);
        guard
    }

    /// Initializes the next segment and feeds its slots to the free
    /// list (no-op when another thread grew first).
    fn grow(&self) {
        let mut segments = self.segments.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
            if !free.is_empty() {
                return; // someone else grew (or freed) while we waited
            }
        }
        let k = *segments;
        assert!(k < SEG_COUNT, "arena exhausted the u32 handle space");
        on_class!(&self.spine, segs => segs.init(k));
        *segments = k + 1;
        let len = BASE << k;
        let seg_base = BASE * ((1 << k) - 1);
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        // Reversed so allocation consumes the segment low-index first.
        free.extend((seg_base as u32..(seg_base + len) as u32).rev());
    }

    /// Retires the node a caller holds exclusively: bumps the slot
    /// generation (convicting every outstanding handle) and empties the
    /// node in place as a level-1 node, retagging the latch to match,
    /// all inside the caller's exclusive section. The caller's hold is
    /// still recorded at the level it was granted at. The value buffer
    /// is cleared, not freed (an optimistic window may be reading it).
    /// The caller must drop its guard and then call [`Arena::recycle`]
    /// to return the slot to the free list.
    pub fn retire(&self, guard: &mut WriteGuard<'_, V>) {
        let id = guard.id();
        let slot = self.slot(id.idx);
        debug_assert_eq!(
            slot.gen.load(Ordering::Relaxed),
            id.gen,
            "retiring through a stale handle"
        );
        slot.gen.store(id.gen.wrapping_add(1), Ordering::Release);
        self.live_count(guard.level).fetch_sub(1, Ordering::Relaxed);
        guard.reset(1, 0);
        slot.lock.set_trace_tag(1);
        self.recycled.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a retired slot to the free list (after the retiring
    /// guard dropped; the slot may be handed out again immediately).
    pub fn recycle(&self, id: NodeId) {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(id.idx);
    }

    /// The node `id` names, read and written without its latch: the
    /// `&mut` borrow proves no handle or guard into this arena is live.
    /// For a single-threaded owner of the arena (the simulator).
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<V> {
        let (k, off) = locate(id.idx);
        let slot = on_class!(&mut self.spine, segs => segs.slot_mut(k, off));
        debug_assert_eq!(*slot.gen.get_mut(), id.gen, "stale id {id:?}");
        slot.lock.get_mut()
    }

    /// A handle for `id` in this arena (no liveness check — a stale id
    /// yields a handle whose [`NodeRef::stale`] is true). Forming it
    /// requests the slot's cache lines, so the latch and the node search
    /// that follow wait on one memory round trip, not a chain of them.
    pub fn at(&self, id: NodeId) -> NodeRef<'_, V> {
        self.prefetch(id.idx);
        NodeRef { arena: self, id }
    }

    /// Total slots ever handed out.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Total slots retired for recycling.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Live nodes at `level` (1 = leaf): installed and not retired.
    pub(crate) fn live_nodes(&self, level: usize) -> u64 {
        self.live_count(level).load(Ordering::Relaxed)
    }

    /// Current free-list length (test/diagnostic use).
    pub fn free_slots(&self) -> usize {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

// ---------------------------------------------------------------------
// NodeRef: arena borrow + id, the unit every descent passes around.
// ---------------------------------------------------------------------

/// A node handle: a borrow of the [`Arena`] plus a [`NodeId`] — two
/// words, `Copy`, so stepping, recording and passing handles writes
/// nothing shared. Dereferences to the slot's latch, so `read()`,
/// `write()` (reporting nowhere: quiescent walks and audits),
/// `version()`, `validate()` and `read_optimistic()` are available
/// directly; the tree's counted acquisitions return guards that remember
/// the id and the arena (the latch-crabbing shape: a child is resolved
/// through its latched parent's guard) and report to the tree.
pub struct NodeRef<'a, V> {
    arena: &'a Arena<V>,
    id: NodeId,
}

impl<V> Clone for NodeRef<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V> Copy for NodeRef<'_, V> {}

// A `Copy` handle cannot hide a reference count.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<NodeRef<'static, u64>>();
};

impl<V> fmt::Debug for NodeRef<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeRef").field("id", &self.id).finish()
    }
}

impl<V> Deref for NodeRef<'_, V> {
    type Target = Latch<Node<V>>;
    fn deref(&self) -> &Latch<Node<V>> {
        self.latch()
    }
}

impl<'a, V> NodeRef<'a, V> {
    /// This handle's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The arena this handle points into.
    pub fn arena(&self) -> &'a Arena<V> {
        self.arena
    }

    /// A sibling handle into the same arena.
    pub fn at(&self, id: NodeId) -> NodeRef<'a, V> {
        self.arena.at(id)
    }

    /// Rebinds this handle to `id` in place — the descent step —
    /// requesting the slot's lines as [`Arena::at`] does.
    pub fn goto(&mut self, id: NodeId) {
        self.arena.prefetch(id.idx);
        self.id = id;
    }

    /// Whether two handles name the same slot *and* generation.
    pub fn same_node(a: &NodeRef<'_, V>, b: &NodeRef<'_, V>) -> bool {
        a.id == b.id
    }

    /// Whether the slot was recycled since this handle was created. A
    /// stale handle's node content belongs to someone else (or to the
    /// placeholder); every path that reached a node through an
    /// unlatched window must check this **after** latching or after a
    /// successful version validation — see the module docs for why the
    /// check must come after, not before.
    pub fn stale(&self) -> bool {
        self.arena.slot(self.id.idx).gen.load(Ordering::Acquire) != self.id.gen
    }

    /// The slot's latch, borrowed for as long as the arena is (the
    /// `Deref` impl can only lend it for the handle's own borrow).
    fn latch(&self) -> &'a Latch<Node<V>> {
        &self.arena.slot(self.id.idx).lock
    }

    /// Blocking exclusive latch that reports nowhere (installs, and
    /// retiring a node nobody could reach).
    pub(crate) fn write_guard(&self) -> WriteGuard<'a, V> {
        self.write_guard_after(None, None)
    }

    /// Blocking shared latch reporting to `sink`, for a caller that
    /// released its previous latch at `carried`, as
    /// [`FcfsRwLock::read_after`](cbtree_sync::FcfsRwLock::read_after).
    pub(crate) fn read_guard_after(
        &self,
        carried: Option<Stamp>,
        sink: Sink<'a>,
    ) -> ReadGuard<'a, V> {
        ReadGuard {
            guard: self.latch().read_to(sink, carried),
            node: *self,
        }
    }

    /// Blocking exclusive latch, as [`NodeRef::read_guard_after`].
    pub(crate) fn write_guard_after(
        &self,
        carried: Option<Stamp>,
        sink: Sink<'a>,
    ) -> WriteGuard<'a, V> {
        WriteGuard {
            guard: self.latch().write_to(sink, carried),
            node: *self,
        }
    }

    /// Non-blocking shared probe (fast path only) reporting to `sink`, as
    /// [`FcfsRwLock::try_read`](cbtree_sync::FcfsRwLock::try_read).
    pub(crate) fn try_read_guard(&self, sink: Sink<'a>) -> Option<ReadGuard<'a, V>> {
        Some(ReadGuard {
            guard: self.latch().try_read_to(sink)?,
            node: *self,
        })
    }

    /// Non-blocking exclusive probe (fast path only).
    pub(crate) fn try_write_guard(&self, sink: Sink<'a>) -> Option<WriteGuard<'a, V>> {
        Some(WriteGuard {
            guard: self.latch().try_write_to(sink)?,
            node: *self,
        })
    }
}

// ---------------------------------------------------------------------
// Guards: a borrowed latch guard plus the handle it was taken through.
// ---------------------------------------------------------------------

/// Shared latch guard on an arena slot.
#[must_use = "dropping the guard releases the latch"]
pub struct ReadGuard<'a, V> {
    guard: RwLockReadGuard<'a, Node<V>, Sink<'a>>,
    node: NodeRef<'a, V>,
}

/// Exclusive latch guard on an arena slot (see [`ReadGuard`]).
#[must_use = "dropping the guard releases the latch"]
pub struct WriteGuard<'a, V> {
    guard: RwLockWriteGuard<'a, Node<V>, Sink<'a>>,
    node: NodeRef<'a, V>,
}

macro_rules! impl_arena_guard {
    ($guard:ident, $latch_guard:ident) => {
        impl<'a, V> $guard<'a, V> {
            /// The latched slot's id.
            pub fn id(&self) -> NodeId {
                self.node.id
            }

            /// Releases the latch, ending a timed hold at `end` when
            /// given and at a fresh stamp otherwise; returns the stamp
            /// that ended the hold, for the next acquisition to carry
            /// (see [`RwLockReadGuard::release`]).
            pub fn release(self, end: Option<Stamp>) -> Option<Stamp> {
                $latch_guard::release(self.guard, end)
            }

            /// When this hold's timing started (`None` when untimed).
            pub fn hold_start(&self) -> Option<Stamp> {
                $latch_guard::hold_start(&self.guard)
            }

            /// A crab step: `next`, granted while this latch is still
            /// held, becomes the held guard, and this latch releases with
            /// its hold ending where `next`'s starts — just before its
            /// acquire, or at its grant if it queued (one stamp for the
            /// step).
            pub fn crab_to(&mut self, next: Self) {
                let prev = std::mem::replace(self, next);
                prev.release(self.hold_start());
            }

            /// The handle the latch was taken through.
            pub fn node_ref(&self) -> NodeRef<'a, V> {
                self.node
            }

            /// A handle to `id` in the same arena (how a crab descent
            /// materializes the child named by a latched parent).
            pub fn at(&self, id: NodeId) -> NodeRef<'a, V> {
                self.node.at(id)
            }

            /// Whether the slot was recycled since the handle this
            /// guard was taken through was created (meaningful only
            /// when the handle crossed an unlatched window; see
            /// [`NodeRef::stale`]).
            pub fn stale(&self) -> bool {
                self.node.stale()
            }
        }

        impl<V> Deref for $guard<'_, V> {
            type Target = Node<V>;
            fn deref(&self) -> &Node<V> {
                &self.guard
            }
        }

        impl<V: fmt::Debug> fmt::Debug for $guard<'_, V> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&**self, f)
            }
        }
    };
}

impl_arena_guard!(ReadGuard, RwLockReadGuard);
impl_arena_guard!(WriteGuard, RwLockWriteGuard);

impl<V> DerefMut for WriteGuard<'_, V> {
    fn deref_mut(&mut self) -> &mut Node<V> {
        &mut self.guard
    }
}

impl<'a, V> WriteGuard<'a, V> {
    /// Unwraps the latch guard itself (for the recovery protocols'
    /// transaction retention, which holds latches past this borrow).
    pub(crate) fn into_latch_guard(self) -> RwLockWriteGuard<'a, Node<V>, Sink<'a>> {
        self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_vec_basics() {
        let mut v: InlineVec<u64, 8> = InlineVec::new();
        for k in [3, 1, 2, 9] {
            v.push(k);
        }
        assert_eq!(v.len(), 4);
        assert_eq!(v.remove(0), 3);
        assert_eq!(v.pop(), Some(9));
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    #[should_panic(expected = "inline buffer overflow")]
    fn inline_vec_overflow_panics() {
        let mut v: InlineVec<u64, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
    }

    #[test]
    fn slots_are_sized_by_capacity_class() {
        let bytes = |cap| {
            let arena: Arena<u64> = Arena::new(cap);
            let id = arena.alloc(1).id();
            std::mem::size_of_val(arena.slot(id.idx))
        };
        for (lo, hi) in [(3, 4), (5, 8), (9, 16), (17, 32), (33, 64), (65, 128)] {
            assert_eq!(bytes(lo), bytes(hi), "caps {lo}..={hi} share a class");
        }
        assert_eq!(
            bytes(16),
            std::mem::size_of::<SlotT<u64, [u64; words(16)]>>()
        );
        // One class up costs exactly its extra keys and child ids.
        assert_eq!(bytes(128) - bytes(64), 8 * (words(128) - words(64)));
        assert_eq!(bytes(8) - bytes(4), 8 * (words(8) - words(4)));
    }

    #[test]
    fn locate_covers_segment_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(447), (2, 255));
        assert_eq!(locate(448), (3, 0));
    }

    #[test]
    fn node_id_packs_and_unpacks() {
        let id = NodeId {
            idx: 0xDEAD,
            gen: 0xBEEF,
        };
        assert_eq!(NodeId::from_bits(id.to_bits()), id);
        assert_eq!(NodeId::from_bits(0), NodeId::default());
    }

    #[test]
    fn alloc_then_recycle_reuses_the_slot_with_a_new_generation() {
        let arena: Arena<u64> = Arena::new(8);
        let node = arena.alloc(1).node_ref();
        let id = node.id();
        assert!(!node.stale());

        let mut g = node.write_guard();
        arena.retire(&mut g);
        drop(g);
        arena.recycle(id);
        assert!(node.stale(), "retire bumps the generation");

        let again = arena.alloc(2);
        assert_eq!(again.id().idx, id.idx, "free list recycles the slot");
        assert_eq!(again.id().gen, id.gen + 1);
        assert_eq!(again.level, 2);
        assert!(!again.stale());
        assert!(node.stale(), "old handle stays convicted");
        assert_eq!(arena.recycled(), 1);
        assert_eq!(arena.allocated(), 2);
    }

    #[test]
    fn get_mut_sees_latched_writes_and_publishes_its_own() {
        let mut arena: Arena<u64> = Arena::new(8);
        let id = {
            let mut g = arena.alloc(1);
            g.leaf_insert(1, 10);
            g.id()
        };
        arena.at(id).write().leaf_insert(2, 20);
        let node = arena.get_mut(id);
        assert_eq!(node.keys(), &[1, 2], "sees what a latched write published");
        node.leaf_insert(3, 30);
        node.high = Some(9);
        let h = arena.at(id);
        let n = h.read();
        assert_eq!(n.keys(), &[1, 2, 3]);
        assert_eq!(n.leaf_get(3), Some(&30));
        assert_eq!(n.high, Some(9));
    }

    #[test]
    fn growth_keeps_old_slots_stable() {
        let arena: Arena<u64> = Arena::new(8);
        let first = arena.alloc(1).node_ref();
        let addr_before = std::ptr::from_ref(&*first).addr();
        // Force growth past several segments.
        let handles: Vec<_> = (0..300)
            .map(|k| {
                let mut n = arena.alloc(1);
                n.leaf_insert(k, k);
                n.node_ref()
            })
            .collect();
        assert_eq!(std::ptr::from_ref(&*first).addr(), addr_before);
        for (k, h) in handles.iter().enumerate() {
            assert_eq!(h.read().leaf_get(k as u64), Some(&(k as u64)));
        }
    }

    #[test]
    fn handles_prefetch_without_panicking_on_any_index() {
        let arena: Arena<u64> = Arena::new(8);
        // 100 slots take segments 0 and 1 (64 + 128 slots).
        let ids: Vec<NodeId> = (0..100).map(|_| arena.alloc(1).id()).collect();
        let top = NodeId { idx: 191, gen: 0 };
        let unmade = NodeId { idx: 192, gen: 0 };
        let last = NodeId {
            idx: u32::MAX,
            gen: 0,
        };
        let retired = ids[7];
        let mut g = arena.at(retired).write_guard();
        arena.retire(&mut g);
        drop(g);
        arena.recycle(retired);
        for id in [top, retired, unmade, last] {
            let mut h = arena.at(ids[0]);
            h.goto(id);
            assert_eq!(arena.at(id).id(), h.id());
        }
        assert!(arena.at(retired).stale());
        assert!(!arena.at(top).stale(), "an initialized, never used slot");
        let resolve =
            std::panic::AssertUnwindSafe(|| arena.slot(unmade.idx).gen.load(Ordering::Relaxed));
        assert!(
            std::panic::catch_unwind(resolve).is_err(),
            "resolving a slot no segment holds still panics"
        );
    }

    #[test]
    fn recycle_under_contention_never_resurrects_a_stale_handle() {
        let arena: Arena<u64> = Arena::new(8);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            // Churner: alloc/retire/recycle in a tight loop.
            s.spawn(|| {
                for i in 0..20_000u64 {
                    let mut g = arena.alloc(1);
                    g.leaf_insert(i, i);
                    let id = g.id();
                    arena.retire(&mut g);
                    drop(g);
                    arena.recycle(id);
                }
                stop.store(true, Ordering::Relaxed);
            });
            // Observer: handles taken before a retire must read as stale
            // afterwards; a fresh handle must never be stale.
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let mut g = arena.alloc(1);
                    let h = g.node_ref();
                    assert!(!h.stale(), "fresh handle can never be stale");
                    arena.retire(&mut g);
                    drop(g);
                    assert!(h.stale(), "retired handle must convict");
                    arena.recycle(h.id());
                }
            });
        });
        assert!(arena.recycled() >= 20_000);
    }
}
