//! Process-wide event tracing, compiled into every build and switched
//! on at run time.
//!
//! Emit functions (`op_begin`, `split_begin`, `enqueue`, ...) write
//! into the calling thread's [`Ring`] once [`enable`] has turned
//! emission on. Until then each costs one relaxed load and an untaken
//! branch: the body (clock read, ring lookup, push) is one cold,
//! outlined function, so the instrumented hot paths in `cbtree-btree`
//! and `cbtree-serve` call the emit functions unconditionally. The lock
//! in `cbtree-sync` checks [`enabled`] itself and calls [`latch`] only
//! when it is on. The `live`
//! and `serve` binaries switch emission on for `--trace-buf N`;
//! `cbtree_harness::run` and `cbtree_serve::serve` only drain, so a run
//! nobody asked to trace records nothing.
//!
//! The drain protocol: a coordinator quiesces its worker threads (the
//! harness parks them on a barrier), then calls [`drain`], which
//! harvests every registered ring into one trace ordered by timestamp,
//! preserving each thread's own event order (stable sort over
//! per-thread monotone sequences). Rings of threads that have exited
//! are drained one final time and then unregistered.

use crate::event::{Event, EventKind, MODE_EXCLUSIVE};
use crate::json::Json;
use crate::ring::{Ring, DEFAULT_RING_CAPACITY};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A drained trace: every surviving event across all threads, ordered
/// by timestamp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events sorted by `ts_ns`; ties keep per-thread order.
    pub events: Vec<Event>,
    /// Events overwritten in some ring before they could be drained.
    pub dropped: u64,
    /// Number of per-thread rings that contributed.
    pub threads: u32,
}

impl Trace {
    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Serializes the `trace_info` header record (event/drop counts).
    pub fn info_json(&self) -> Json {
        Json::obj([
            ("type", Json::from("trace_info")),
            ("events", Json::from(self.events.len() as u64)),
            ("dropped", Json::from(self.dropped)),
            ("threads", Json::from(u64::from(self.threads))),
        ])
    }
}

/// The run-time switch. Relaxed on both sides: it publishes no other
/// data (the epoch is a `OnceLock`, each ring is built by the thread
/// that owns it), so a thread seeing it late only misses some events.
static ENABLED: AtomicBool = AtomicBool::new(false);
static DEFAULT_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Every thread's ring, until a drain finds the thread gone.
static REGISTRY: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns event emission on or off process-wide. A running thread may
/// see the change a few events late; a measurement that needs an exact
/// window drains at quiesce (see the module doc).
pub fn enable(on: bool) {
    // Pin the epoch before the first event so timestamps are small.
    let _ = epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether emission is currently on: the one relaxed load every emit
/// function pays while tracing is off. Call sites that compute an
/// emit's arguments (a tag load, an address cast) check it first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the per-thread ring capacity (in events) used by threads
/// that have not traced yet. Existing rings keep their size.
pub fn set_default_ring_capacity(events: usize) {
    DEFAULT_CAP.store(events.max(2), Ordering::Relaxed);
}

/// Serializes whole-process trace measurements: rings are
/// process-wide, so two concurrent runs in one process would drain
/// each other's events.
pub fn measurement_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// TLS slot owning this thread's ring; the destructor marks the
/// ring dead so the registry can unregister it after a final drain.
struct ThreadRing(Arc<Ring>);

impl Drop for ThreadRing {
    fn drop(&mut self) {
        self.0.mark_dead();
    }
}

thread_local! {
    static TLS_RING: std::cell::OnceCell<ThreadRing> = const { std::cell::OnceCell::new() };
}

fn register() -> ThreadRing {
    let ring = Arc::new(Ring::new(
        DEFAULT_CAP.load(Ordering::Relaxed),
        NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
    ));
    REGISTRY
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Arc::clone(&ring));
    ThreadRing(ring)
}

/// What every emit function inlines: the flag check, and a call to
/// [`record`] that is never taken while tracing is off.
#[inline(always)]
fn emit(kind: EventKind, arg: u8, level: u16, node: u64) {
    if enabled() {
        record(kind, arg, level, node);
    }
}

/// The emission body, outlined once for every call site: clock read,
/// this thread's ring (registered on first use), push.
#[cold]
#[inline(never)]
fn record(kind: EventKind, arg: u8, level: u16, node: u64) {
    let ts = epoch().elapsed().as_nanos() as u64;
    let w1 = Event::pack(kind, arg, level);
    // Ignore emission attempts during thread teardown.
    let _ = TLS_RING.try_with(|cell| {
        cell.get_or_init(register).0.push(ts, w1, node);
    });
}

/// Harvests every registered ring into one time-ordered trace and
/// unregisters rings whose threads have exited. Call at quiesce:
/// events pushed concurrently with the drain may be missed until
/// the next drain or, at worst, torn and skipped.
pub fn drain() -> Trace {
    let mut reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut events = Vec::new();
    let mut dropped = 0;
    let threads = reg.len() as u32;
    for ring in reg.iter() {
        dropped += ring.drain_into(&mut events);
    }
    reg.retain(|r| !r.is_dead());
    drop(reg);
    // Stable sort: each ring's slice is already in its thread's
    // monotone timestamp order, and ties keep that order.
    events.sort_by_key(|e| e.ts_ns);
    Trace {
        events,
        dropped,
        threads,
    }
}

/// A latch on `node` at tree `level` was requested, granted or is
/// about to be released (`kind`). Outlined, unlike the other emit
/// functions: the lock checks [`enabled`] itself before it evaluates
/// these arguments (a tag load, an address cast), so its acquire and
/// release paths carry only that check and this call.
#[cold]
#[inline(never)]
pub fn latch(kind: EventKind, level: u16, exclusive: bool, node: u64) {
    emit(
        kind,
        if exclusive { MODE_EXCLUSIVE } else { 0 },
        level,
        node,
    );
}

/// A map operation (an [`opcode`](crate::event::opcode)) began.
#[inline(always)]
pub fn op_begin(op: u8) {
    emit(EventKind::OpBegin, op, 0, 0);
}

/// The operation finished; `hit` = found/replaced/removed a key.
#[inline(always)]
pub fn op_end(op: u8, hit: bool) {
    let arg = if hit { op | crate::event::OP_HIT } else { op };
    emit(EventKind::OpEnd, arg, 0, 0);
}

/// An optimistic descent restarted pessimistically.
#[inline(always)]
pub fn restart() {
    emit(EventKind::Restart, 0, 0, 0);
}

/// A B-link descent chased a right-link.
#[inline(always)]
pub fn chase() {
    emit(EventKind::Chase, 0, 0, 0);
}

/// A half-split restructure window opened at `node`.
#[inline(always)]
pub fn split_begin(level: u16, node: u64) {
    emit(EventKind::SplitBegin, 0, level, node);
}

/// The restructure window closed (separator posted / root grown).
#[inline(always)]
pub fn split_end(level: u16, node: u64) {
    emit(EventKind::SplitEnd, 0, level, node);
}

/// A recovery-protocol transaction committed.
#[inline(always)]
pub fn txn_commit() {
    emit(EventKind::TxnCommit, 0, 0, 0);
}

/// A probe-mode descent spilled its latches and retried.
#[inline(always)]
pub fn txn_spill() {
    emit(EventKind::TxnSpill, 0, 0, 0);
}

/// An operation on `key` entered shard `shard`'s ingress queue.
#[inline(always)]
pub fn enqueue(shard: u16, key: u64) {
    emit(EventKind::Enqueue, 0, shard, key);
}

/// A worker dequeued the operation on `key` from shard `shard`.
#[inline(always)]
pub fn dequeue(shard: u16, key: u64) {
    emit(EventKind::Dequeue, 0, shard, key);
}

/// Admission control dropped the operation on `key` at shard
/// `shard` (`reason`: a [`shed`](crate::event::shed) code).
#[inline(always)]
pub fn shed(shard: u16, reason: u8, key: u64) {
    emit(EventKind::Shed, reason, shard, key);
}

/// A worker on shard `shard` began executing a drained batch of
/// `size` operations (clamped at 255 in the event).
#[inline(always)]
pub fn batch_begin(shard: u16, size: usize) {
    emit(EventKind::BatchBegin, size.min(255) as u8, shard, 0);
}

/// The batch finished; `leaf_reuses` counts operations served from
/// an already-held leaf (the descents batching saved).
#[inline(always)]
pub fn batch_end(shard: u16, size: usize, leaf_reuses: u64) {
    emit(EventKind::BatchEnd, size.min(255) as u8, shard, leaf_reuses);
}
