//! Process-wide tracing facade.
//!
//! Emit functions (`latch_request`, `op_begin`, ...) write into the
//! calling thread's [`Ring`](crate::ring::Ring) and are compiled to
//! inlined no-ops unless the `trace` cargo feature is on, so the
//! instrumented hot paths in `cbtree-sync` and `cbtree-btree` call them
//! unconditionally. With the feature on, emission still costs nothing
//! until [`enable`] is called (one relaxed load).
//!
//! The drain protocol: a coordinator quiesces its worker threads (the
//! harness parks them on a barrier), then calls [`drain`], which
//! harvests every registered ring into one trace ordered by timestamp,
//! preserving each thread's own event order (stable sort over
//! per-thread monotone sequences). Rings of threads that have exited
//! are drained one final time and then unregistered.

use crate::event::Event;
use crate::json::Json;

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

pub use imp::*;

#[cfg(feature = "trace")]
mod imp {
    use super::Trace;
    use crate::event::{Event, EventKind, MODE_EXCLUSIVE};
    use crate::ring::{Ring, DEFAULT_RING_CAPACITY};
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static DEFAULT_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
    static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

    fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
        static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    /// Nanoseconds since the process trace epoch.
    pub fn now_ns() -> u64 {
        epoch().elapsed().as_nanos() as u64
    }

    /// Turns event emission on or off process-wide.
    pub fn enable(on: bool) {
        // Pin the epoch before the first event so timestamps are small.
        let _ = epoch();
        ENABLED.store(on, Ordering::Release);
    }

    /// Whether emission is currently on. Inline so call sites guarding
    /// otherwise-uninlinable emission (e.g. through a function pointer)
    /// pay one predictable load-and-branch while tracing is off.
    #[inline(always)]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Acquire)
    }

    /// Sets the per-thread ring capacity (in events) used by threads
    /// that have not traced yet. Existing rings keep their size.
    pub fn set_default_ring_capacity(events: usize) {
        DEFAULT_CAP.store(events.max(2), Ordering::Relaxed);
    }

    /// Serializes whole-process trace measurements (e.g. concurrent
    /// harness runs in one test binary would drain each other's rings).
    pub fn measurement_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// One traced measurement: [`measurement_lock`] held with emission
    /// on. Dropping it puts the flag back as it was found, so what the
    /// process runs after the measurement does not pay for emission.
    #[must_use = "dropping the window ends the traced measurement"]
    pub struct MeasurementWindow {
        was_enabled: bool,
        _lock: MutexGuard<'static, ()>,
    }

    /// Opens a [`MeasurementWindow`], waiting for any other to close.
    pub fn measurement_window() -> MeasurementWindow {
        let lock = measurement_lock();
        let was_enabled = enabled();
        enable(true);
        MeasurementWindow {
            was_enabled,
            _lock: lock,
        }
    }

    impl Drop for MeasurementWindow {
        fn drop(&mut self) {
            // Runs before `_lock` is released: the next window finds
            // the flag already restored.
            enable(self.was_enabled);
        }
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
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&ring));
        ThreadRing(ring)
    }

    #[inline]
    pub(super) fn emit(kind: EventKind, arg: u8, level: u16, node: u64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let ts = now_ns();
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
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
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

    /// A latch was requested on `node` at tree `level`.
    #[inline(always)]
    pub fn latch_request(level: u16, exclusive: bool, node: u64) {
        emit(
            EventKind::LatchRequest,
            if exclusive { MODE_EXCLUSIVE } else { 0 },
            level,
            node,
        );
    }

    /// The requested latch was granted.
    #[inline(always)]
    pub fn latch_grant(level: u16, exclusive: bool, node: u64) {
        emit(
            EventKind::LatchGrant,
            if exclusive { MODE_EXCLUSIVE } else { 0 },
            level,
            node,
        );
    }

    /// A held latch is about to be released.
    #[inline(always)]
    pub fn latch_release(level: u16, exclusive: bool, node: u64) {
        emit(
            EventKind::LatchRelease,
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
}

#[cfg(not(feature = "trace"))]
#[allow(missing_docs, clippy::missing_docs_in_private_items)]
mod imp {
    //! No-op stubs: with the `trace` feature off every emit inlines to
    //! nothing and `drain` reports an empty trace.
    use super::Trace;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// See the `trace`-feature implementation; always 0 here.
    pub fn now_ns() -> u64 {
        0
    }

    /// No-op (tracing is compiled out).
    pub fn enable(_on: bool) {}

    /// Always `false` (tracing is compiled out).
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// No-op (tracing is compiled out).
    pub fn set_default_ring_capacity(_events: usize) {}

    /// Still a real lock so callers can serialize measurements
    /// identically with or without the feature.
    pub fn measurement_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Always empty (tracing is compiled out).
    pub fn drain() -> Trace {
        Trace::default()
    }

    #[inline(always)]
    pub fn latch_request(_level: u16, _exclusive: bool, _node: u64) {}
    #[inline(always)]
    pub fn latch_grant(_level: u16, _exclusive: bool, _node: u64) {}
    #[inline(always)]
    pub fn latch_release(_level: u16, _exclusive: bool, _node: u64) {}
    #[inline(always)]
    pub fn op_begin(_op: u8) {}
    #[inline(always)]
    pub fn op_end(_op: u8, _hit: bool) {}
    #[inline(always)]
    pub fn restart() {}
    #[inline(always)]
    pub fn chase() {}
    #[inline(always)]
    pub fn split_begin(_level: u16, _node: u64) {}
    #[inline(always)]
    pub fn split_end(_level: u16, _node: u64) {}
    #[inline(always)]
    pub fn txn_commit() {}
    #[inline(always)]
    pub fn txn_spill() {}
    #[inline(always)]
    pub fn enqueue(_shard: u16, _key: u64) {}
    #[inline(always)]
    pub fn dequeue(_shard: u16, _key: u64) {}
    #[inline(always)]
    pub fn shed(_shard: u16, _reason: u8, _key: u64) {}
    #[inline(always)]
    pub fn batch_begin(_shard: u16, _size: usize) {}
    #[inline(always)]
    pub fn batch_end(_shard: u16, _size: usize, _leaf_reuses: u64) {}
}
