//! The FCFS reader/writer lock.
//!
//! Requests are served strictly in arrival order from a single ticketed
//! queue: a reader that arrives behind a waiting writer queues behind it
//! (no reader overtaking), and when a writer releases, the maximal
//! *prefix* of queued readers is admitted as one burst. This is exactly
//! the lock discipline of the paper's queueing model (Theorem 6 solves an
//! FCFS R/W queue with arrival-order reader bursts) and of the simulator's
//! `LockTable` — so measurements taken on this lock are directly
//! comparable with both.
//!
//! # Two-tier implementation
//!
//! The holder state lives in one packed `AtomicU64`:
//!
//! ```text
//!   bit 63   bit 62     bits 32..=61     bits 0..=31
//!  ┌────────┬────────┬────────────────┬──────────────┐
//!  │ WRITER │ QUEUED │ version (30 b) │ reader count │
//!  └────────┴────────┴────────────────┴──────────────┘
//! ```
//!
//! While `QUEUED` is clear (nobody is waiting), shared and exclusive
//! acquire *and* release are each a single CAS on this word — no mutex,
//! no syscall, no `Instant` reading unless the acquisition is sampled for
//! timing (and with a hand-over, not even then; see below). The moment
//! any request has to wait, it sets `QUEUED` (under the queue mutex) and
//! every subsequent acquire/release detours through the original
//! ticketed `Mutex`+`Condvar` queue, which preserves the
//! FCFS discipline bit for bit: strict arrival order, no reader
//! overtaking a queued writer, and maximal reader-burst admission on
//! writer release. `QUEUED` is set and cleared only under the mutex, so
//! `QUEUED == !queue.is_empty()` holds at every mutex release; a fast
//! path can never sneak past a waiter because its CAS carries the full
//! word (any concurrent `QUEUED` flip invalidates the expected value).
//!
//! # Version counter (optimistic reads)
//!
//! The 30-bit *version* field increments exactly once per exclusive
//! release — on both the CAS fast path and the mutex fallback — and
//! never on shared release. Readers can snapshot it without acquiring
//! anything ([`FcfsRwLock::version`]), do their reads, and re-validate
//! ([`FcfsRwLock::validate`], [`FcfsRwLock::read_optimistic`]): an
//! unchanged version with no writer present proves no exclusive section
//! ran in between (a seqlock, in the optimistic-lock-coupling style of
//! LeanStore/ART). `read_optimistic` is `unsafe`: the closure runs
//! against data a writer may be mutating, so it must obey the torn-read
//! discipline documented as its safety contract. Wraparound after 2^30
//! writes is harmless for validation windows spanning fewer than 2^30
//! exclusive sections.
//!
//! # Sinks: the lock reports, its owner records
//!
//! The lock keeps no counters of its own. Every grant and every timed
//! hold is reported to a [`LockSink`]: the mode, the lock's tag, the
//! time a queued request waited, and the hold. The sink decides which
//! holds are timed. A standalone lock ([`FcfsRwLock::new`]) carries a
//! [`LockStats`] and reports to it, so [`FcfsRwLock::stats`] reads that
//! lock alone. An owner with many locks builds them with a sink that
//! holds nothing (`FcfsRwLock::with_sink(value, ())`) and passes its own
//! sink to each acquisition ([`FcfsRwLock::read_to`] and friends); the
//! guard carries it to the release. The B-tree passes its per-level
//! accumulator and tags each node's lock with the node's level.
//!
//! [`LockStats`] times one in N acquisitions (see [`SamplePeriod`]):
//! acquisition *counts* stay exact, and sampled durations are scaled by N
//! so the sums behind `writer_utilization` and the mean-wait estimators
//! stay unbiased. A request that queues always times its wait (it is
//! about to block, so two clock readings are noise); the sink keeps the
//! wait only when it samples the grant.
//!
//! # Hand-over: one clock reading per latch step
//!
//! A descent that moves from latch to latch need not read the clock
//! twice per latch. Releasing through [`RwLockReadGuard::release`]
//! returns the reading that ended the hold, and an acquisition through
//! [`FcfsRwLock::read_after`] carries it as the next hold's start (link
//! order: release, then acquire). In crab order (child granted before
//! the parent releases) the child's grant reading, its
//! [`RwLockReadGuard::hold_start`], is passed to the parent's `release`
//! as its end. Either way a chain of `k` latches reads the clock `k + 1`
//! times, and its hold sums telescope to the chain's last release minus
//! its first grant. A contended grant still reads the clock at the
//! grant, so queueing is timed as wait and never also as hold.

use crate::stats::{LockSink, LockStats, SamplePeriod};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Packed-word bit assignments.
const WRITER: u64 = 1 << 63;
const QUEUED: u64 = 1 << 62;
/// Version field: 30 bits at 32..=61, one unit per exclusive release.
const VSHIFT: u32 = 32;
const VUNIT: u64 = 1 << VSHIFT;
const VMASK: u64 = ((1 << 30) - 1) << VSHIFT;
/// Reader count: the low 32 bits.
const READERS: u64 = VUNIT - 1;

/// Holder bits compatible with granting a request of the given mode
/// (the version field never blocks anyone).
#[inline]
fn compatible(word: u64, exclusive: bool) -> bool {
    if exclusive {
        word & (WRITER | READERS) == 0
    } else {
        word & WRITER == 0
    }
}

/// The word after one version bump: +1 in the version field, wrapping
/// inside it (the carry out of bit 61 is discarded, never reaching
/// `QUEUED`), all other bits preserved.
#[inline]
fn bump_version(word: u64) -> u64 {
    (word & !VMASK) | (word.wrapping_add(VUNIT) & VMASK)
}

/// Queue state, all under one mutex. Holder counts live in the packed
/// word, not here.
#[derive(Debug, Default)]
struct State {
    next_id: u64,
    /// Waiting requests in arrival order: `(ticket, exclusive)`.
    queue: VecDeque<(u64, bool)>,
    /// Tickets granted by a releaser but not yet observed by their waiter
    /// (holder bits are already in the word when a ticket lands here).
    granted: Vec<u64>,
}

/// What a request that entered the wait queue observed.
struct Queued {
    /// Nanoseconds spent queued.
    wait_ns: u64,
    /// The clock reading that ended the wait: the grant.
    granted: Instant,
}

/// The raw (untyped) FCFS lock: queue discipline only, no data.
#[derive(Debug, Default)]
struct RawFcfs {
    word: AtomicU64,
    state: Mutex<State>,
    cv: Condvar,
}

impl RawFcfs {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        // A panic while holding a *guard* never happens inside the lock's
        // own critical sections, so poison here only means a panicking
        // interleaved user thread; the state itself is always consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Uncontended acquire: one CAS, succeeds only while nobody waits and
    /// the holder bits are compatible.
    #[inline]
    fn try_acquire_fast(&self, exclusive: bool) -> bool {
        let mut cur = self.word.load(Ordering::Relaxed);
        loop {
            if cur & QUEUED != 0 {
                return false;
            }
            let next = if exclusive {
                if cur & (WRITER | READERS) != 0 {
                    return false;
                }
                cur | WRITER
            } else {
                if cur & WRITER != 0 {
                    return false;
                }
                debug_assert!(cur & READERS < READERS, "reader count overflow");
                cur + 1
            };
            match self
                .word
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Slow-path acquire: joins the FCFS queue (or grabs the lock under
    /// the mutex if it freed up in the meantime). Blocks until granted;
    /// returns the timed wait when the request entered the queue.
    fn acquire_slow(&self, exclusive: bool) -> Option<Queued> {
        let mut st = self.lock_state();
        // Announce a potential waiter *before* re-reading the holder
        // bits: any release CAS that lands after this `fetch_or` either
        // already freed the lock (we see it below) or fails and detours
        // through the mutex behind us (it will see our queue entry). The
        // bit is only ever set or cleared under the mutex.
        let cur = self.word.fetch_or(QUEUED, Ordering::AcqRel) | QUEUED;
        if st.queue.is_empty() && compatible(cur, exclusive) {
            // Second chance: the lock freed up between the failed fast
            // path and here, and nobody is ahead of us. Admit ourselves.
            if exclusive {
                self.word.fetch_or(WRITER, Ordering::AcqRel);
            } else {
                self.word.fetch_add(1, Ordering::AcqRel);
            }
            self.word.fetch_and(!QUEUED, Ordering::AcqRel);
            return None;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.queue.push_back((id, exclusive));
        let enqueued_at = Instant::now();
        loop {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            if let Some(pos) = st.granted.iter().position(|&g| g == id) {
                st.granted.swap_remove(pos);
                break;
            }
        }
        drop(st);
        let granted = Instant::now();
        Some(Queued {
            wait_ns: (granted - enqueued_at).as_nanos() as u64,
            granted,
        })
    }

    /// Uncontended release: one CAS, succeeds only while nobody waits.
    /// An exclusive release bumps the version field in the same CAS.
    #[inline]
    fn try_release_fast(&self, exclusive: bool) -> bool {
        let mut cur = self.word.load(Ordering::Relaxed);
        loop {
            if cur & QUEUED != 0 {
                return false;
            }
            let next = if exclusive {
                debug_assert!(cur & WRITER != 0, "release of an unheld writer lock");
                bump_version(cur) & !WRITER
            } else {
                debug_assert!(cur & READERS > 0, "release of an unheld reader lock");
                cur - 1
            };
            match self
                .word
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Slow-path release: drops the holder bit under the mutex and grants
    /// the maximal compatible FCFS prefix of the waiting queue (a writer,
    /// or an arrival-order reader burst).
    fn release_slow(&self, exclusive: bool) {
        let mut st = self.lock_state();
        if exclusive {
            // Drop WRITER and bump the version in one step. A CAS loop
            // rather than `fetch_and`: the bump needs read-modify-write
            // of the version field. Concurrent interference is limited
            // to `QUEUED` `fetch_or`s from arriving waiters (the fast
            // paths refuse while QUEUED is set, and QUEUED itself only
            // flips under the mutex we hold), so the loop terminates.
            let mut cur = self.word.load(Ordering::Relaxed);
            loop {
                debug_assert!(cur & WRITER != 0, "slow release of an unheld writer lock");
                let next = bump_version(cur) & !WRITER;
                match self.word.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        } else {
            self.word.fetch_sub(1, Ordering::AcqRel);
        }
        let mut granted_any = false;
        while let Some(&(id, exc)) = st.queue.front() {
            let cur = self.word.load(Ordering::Relaxed);
            if exc {
                if compatible(cur, true) {
                    st.queue.pop_front();
                    self.word.fetch_or(WRITER, Ordering::AcqRel);
                    st.granted.push(id);
                    granted_any = true;
                }
                break; // a granted or still-blocked writer ends the prefix
            } else if compatible(cur, false) {
                st.queue.pop_front();
                self.word.fetch_add(1, Ordering::AcqRel);
                st.granted.push(id);
                granted_any = true; // keep admitting the reader burst
            } else {
                break;
            }
        }
        if st.queue.is_empty() {
            self.word.fetch_and(!QUEUED, Ordering::AcqRel);
        }
        if granted_any {
            drop(st);
            self.cv.notify_all();
        }
    }

    fn release(&self, exclusive: bool) {
        if !self.try_release_fast(exclusive) {
            self.release_slow(exclusive);
        }
    }

    fn queued(&self) -> usize {
        self.lock_state().queue.len()
    }

    /// The current version, or `None` while a writer holds the lock (a
    /// version snapshotted under an active writer could never validate —
    /// the writer's release will bump it — so callers spin/yield instead
    /// of starting a doomed optimistic read).
    #[inline]
    fn version(&self) -> Option<u64> {
        let word = self.word.load(Ordering::Acquire);
        (word & WRITER == 0).then_some((word & VMASK) >> VSHIFT)
    }
}

/// The latch proper: the packed word and its FCFS queue, the owner's
/// tag and the data. Guards borrow it, whatever sink the lock carries.
#[derive(Default)]
struct Latch<T: ?Sized> {
    raw: RawFcfs,
    /// Small owner-assigned tag, handed to the sink with every report and
    /// stamped on trace events (the B-tree stores the node's level;
    /// 0 = untagged).
    tag: AtomicU16,
    data: UnsafeCell<T>,
}

// SAFETY: `raw` (atomics, `Mutex`, `Condvar`) and `tag` (an atomic) are
// `Send + Sync` themselves. The latch mediates all access to `data`:
// sending the latch sends the value, sharing it hands out `&T`/`&mut T`
// only under the reader/writer protocol, so the std `RwLock<T>` bounds
// apply verbatim.
#[allow(unsafe_code)]
unsafe impl<T: ?Sized + Send> Send for Latch<T> {}
#[allow(unsafe_code)]
unsafe impl<T: ?Sized + Send + Sync> Sync for Latch<T> {}

impl<T: ?Sized> Latch<T> {
    /// Emits one latch trace event for this lock. Compiled out (along
    /// with the tag load and address cast) without the `trace` feature.
    /// The `enabled` check runs before anything else: `emit` is a
    /// function pointer, so the indirect call — and the tag load and
    /// address cast feeding it — would otherwise be paid even while
    /// tracing is off, which is exactly the cost CI bounds by holding a
    /// trace-compiled build's `sync.*_acq_ns` to the default build's.
    #[inline(always)]
    fn trace_latch(&self, emit: fn(u16, bool, u64), exclusive: bool) {
        #[cfg(feature = "trace")]
        {
            /// Outlined emission: keeps the traced-build hot path at one
            /// load-and-branch so acquire/release stay small enough to
            /// inline; everything else lives behind this cold call.
            #[cold]
            #[inline(never)]
            fn emit_cold(emit: fn(u16, bool, u64), tag: u16, exclusive: bool, node: u64) {
                emit(tag, exclusive, node);
            }
            if cbtree_obs::trace::enabled() {
                emit_cold(
                    emit,
                    self.tag.load(Ordering::Relaxed),
                    exclusive,
                    self as *const Self as *const () as u64,
                );
            }
        }
        #[cfg(not(feature = "trace"))]
        let _ = (emit, exclusive);
    }

    /// Acquires in the given mode and reports the grant to `sink`.
    /// Returns the lock's tag at the grant and, when the sink times this
    /// hold, its start: `carried` (no clock read) or a fresh reading for
    /// an uncontended grant, the grant itself for a queued one.
    fn start<K: LockSink>(
        &self,
        sink: &K,
        exclusive: bool,
        carried: Option<Instant>,
    ) -> (u16, Option<Instant>) {
        crate::inject::perturb(if exclusive {
            crate::inject::Site::AcquireExclusive
        } else {
            crate::inject::Site::AcquireShared
        });
        self.trace_latch(cbtree_obs::trace::latch_request, exclusive);
        let queued = if self.raw.try_acquire_fast(exclusive) {
            None
        } else {
            self.raw.acquire_slow(exclusive)
        };
        self.trace_latch(cbtree_obs::trace::latch_grant, exclusive);
        // Read under the latch: an owner that retags does so inside an
        // exclusive section, so the tag is the one this grant sees.
        let tag = self.tag.load(Ordering::Relaxed);
        let timed = sink.granted(tag, exclusive, queued.as_ref().map(|q| q.wait_ns));
        let start = timed.then(|| match queued {
            Some(q) => q.granted,
            None => carried.unwrap_or_else(Instant::now),
        });
        (tag, start)
    }

    /// Non-blocking acquire attempt in the given mode. Takes only the
    /// uncontended fast path: fails whenever the holder bits are
    /// incompatible *or* any waiter is queued, and never joins the queue
    /// itself. Only a success is reported, so failed probes do not skew
    /// acquire counts or sampling.
    fn try_start<K: LockSink>(&self, sink: &K, exclusive: bool) -> Option<(u16, Option<Instant>)> {
        crate::inject::perturb(if exclusive {
            crate::inject::Site::AcquireExclusive
        } else {
            crate::inject::Site::AcquireShared
        });
        if !self.raw.try_acquire_fast(exclusive) {
            return None;
        }
        // Successful probe: request and grant coincide (zero wait).
        self.trace_latch(cbtree_obs::trace::latch_request, exclusive);
        self.trace_latch(cbtree_obs::trace::latch_grant, exclusive);
        let tag = self.tag.load(Ordering::Relaxed);
        Some((tag, sink.granted(tag, exclusive, None).then(Instant::now)))
    }

    /// Ends a hold: a timed one is reported to `sink`, ending at `end`
    /// when given (no clock read) and at a fresh reading otherwise; then
    /// releases. Returns the instant the hold ended (`None` when it was
    /// not timed).
    fn finish<K: LockSink>(
        &self,
        sink: &K,
        tag: u16,
        exclusive: bool,
        hold_start: Option<Instant>,
        end: Option<Instant>,
    ) -> Option<Instant> {
        let end = hold_start.map(|t0| {
            let t1 = end.unwrap_or_else(Instant::now);
            let hold = t1.saturating_duration_since(t0).as_nanos() as u64;
            sink.released(tag, exclusive, hold);
            t1
        });
        self.release(exclusive);
        end
    }

    /// Releases in the given mode, reporting nothing.
    fn release(&self, exclusive: bool) {
        // Emit before the release itself so the hold window closes while
        // the latch is still held.
        self.trace_latch(cbtree_obs::trace::latch_release, exclusive);
        self.raw.release(exclusive);
        crate::inject::perturb(crate::inject::Site::Release);
    }
}

/// A first-come-first-served reader/writer lock around a value. Every
/// grant and timed hold is reported to a sink (see the module docs): by
/// default the lock's own [`LockStats`].
///
/// # Example
///
/// ```
/// use cbtree_sync::FcfsRwLock;
/// use std::sync::Arc;
///
/// let lock = Arc::new(FcfsRwLock::new(0u64));
/// *lock.write() += 1;
/// assert_eq!(*lock.read(), 1);
/// let snap = lock.stats().snapshot();
/// assert_eq!(snap.r_acquires, 1);
/// assert_eq!(snap.w_acquires, 1);
/// ```
#[derive(Default)]
pub struct FcfsRwLock<T: ?Sized, S = LockStats> {
    /// Where plain acquisitions ([`FcfsRwLock::read`] and friends)
    /// report.
    sink: S,
    latch: Latch<T>,
}

impl<T> FcfsRwLock<T> {
    /// Wraps a value with exact (unsampled) wait/hold timing.
    pub fn new(value: T) -> Self {
        FcfsRwLock::with_sampling(value, SamplePeriod::EXACT)
    }

    /// Wraps a value, timing only one in `sample.period()` acquisitions
    /// (durations are scaled back up so the stats stay unbiased).
    pub fn with_sampling(value: T, sample: SamplePeriod) -> Self {
        FcfsRwLock::with_sink(value, LockStats::with_sampling(sample))
    }
}

impl<T, S> FcfsRwLock<T, S> {
    /// Wraps a value whose plain acquisitions report to `sink`. A lock
    /// built with `()` records nothing itself: its owner passes a sink to
    /// each acquisition ([`FcfsRwLock::read_to`] and friends).
    pub fn with_sink(value: T, sink: S) -> Self {
        FcfsRwLock {
            sink,
            latch: Latch {
                raw: RawFcfs::default(),
                tag: AtomicU16::new(0),
                data: UnsafeCell::new(value),
            },
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.latch.data.into_inner()
    }
}

impl<T: ?Sized> FcfsRwLock<T> {
    /// The lock's own statistics.
    pub fn stats(&self) -> &LockStats {
        &self.sink
    }
}

impl<T: ?Sized, S: LockSink> FcfsRwLock<T, S> {
    /// Acquires a shared latch, blocking FCFS behind earlier arrivals.
    pub fn read(&self) -> RwLockReadGuard<'_, T, &S> {
        self.read_after(None)
    }

    /// Acquires the exclusive latch, blocking FCFS behind earlier arrivals.
    pub fn write(&self) -> RwLockWriteGuard<'_, T, &S> {
        self.write_after(None)
    }

    /// [`FcfsRwLock::read`] for a caller that holds no latch and released
    /// its previous one at `carried` (the instant
    /// [`RwLockReadGuard::release`] returned): a timed, uncontended hold
    /// starts there, so the hand-over costs no clock read. The hold then
    /// also covers the acquire itself — one uncontended CAS. A contended
    /// grant ignores `carried` and starts the hold at the grant, so the
    /// wait is never counted as hold as well.
    pub fn read_after(&self, carried: Option<Instant>) -> RwLockReadGuard<'_, T, &S> {
        self.read_to(&self.sink, carried)
    }

    /// The exclusive counterpart of [`FcfsRwLock::read_after`].
    pub fn write_after(&self, carried: Option<Instant>) -> RwLockWriteGuard<'_, T, &S> {
        self.write_to(&self.sink, carried)
    }

    /// Attempts a shared latch without ever blocking or queueing (fast
    /// path only; `None` whenever the latch is write-held *or* anyone is
    /// waiting). Used by callers that must stay deadlock-free while
    /// already holding other latches, e.g. transaction-retained descents.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T, &S>> {
        self.try_read_to(&self.sink)
    }

    /// Attempts the exclusive latch without ever blocking or queueing
    /// (fast path only; `None` whenever any holder or waiter exists).
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T, &S>> {
        self.try_write_to(&self.sink)
    }
}

impl<T: ?Sized, S> FcfsRwLock<T, S> {
    /// Tags the lock with a small id, handed to the sink with every
    /// report and stamped on its trace events (the B-tree stores the
    /// node's level; leaves = 1). An owner that retags a lock others may
    /// acquire does so while holding it exclusively.
    pub fn set_trace_tag(&self, tag: u16) {
        self.latch.tag.store(tag, Ordering::Relaxed);
    }

    /// [`FcfsRwLock::read_after`] reporting to `sink` instead of the
    /// lock's own; the guard carries `sink` to the release.
    pub fn read_to<K: LockSink>(
        &self,
        sink: K,
        carried: Option<Instant>,
    ) -> RwLockReadGuard<'_, T, K> {
        let (tag, hold_start) = self.latch.start(&sink, false, carried);
        RwLockReadGuard {
            latch: &self.latch,
            sink,
            tag,
            hold_start,
        }
    }

    /// The exclusive counterpart of [`FcfsRwLock::read_to`].
    pub fn write_to<K: LockSink>(
        &self,
        sink: K,
        carried: Option<Instant>,
    ) -> RwLockWriteGuard<'_, T, K> {
        let (tag, hold_start) = self.latch.start(&sink, true, carried);
        RwLockWriteGuard {
            latch: &self.latch,
            sink,
            tag,
            hold_start,
        }
    }

    /// [`FcfsRwLock::try_read`] reporting to `sink`.
    pub fn try_read_to<K: LockSink>(&self, sink: K) -> Option<RwLockReadGuard<'_, T, K>> {
        let (tag, hold_start) = self.latch.try_start(&sink, false)?;
        Some(RwLockReadGuard {
            latch: &self.latch,
            sink,
            tag,
            hold_start,
        })
    }

    /// [`FcfsRwLock::try_write`] reporting to `sink`.
    pub fn try_write_to<K: LockSink>(&self, sink: K) -> Option<RwLockWriteGuard<'_, T, K>> {
        let (tag, hold_start) = self.latch.try_start(&sink, true)?;
        Some(RwLockWriteGuard {
            latch: &self.latch,
            sink,
            tag,
            hold_start,
        })
    }

    /// Snapshots the version counter without acquiring anything.
    /// Returns `None` while a writer holds the latch (an optimistic read
    /// started now could never validate). Costs one atomic load; no
    /// stats, no queueing, invisible to other threads.
    #[inline]
    pub fn version(&self) -> Option<u64> {
        crate::inject::perturb(crate::inject::Site::ReadVersion);
        self.latch.raw.version()
    }

    /// Re-checks a previously snapshotted version: `true` iff no writer
    /// holds the latch *and* the version still equals `version`, i.e. no
    /// exclusive section completed since the snapshot was taken.
    ///
    /// Callers close a seqlock read window with this check, so it
    /// carries the reader-side fence of the classic seqlock recipe
    /// (acquire load, data reads, acquire *fence*, re-load): the
    /// unguarded data reads that preceded this call cannot be reordered
    /// after the validating re-load — neither by the compiler nor by a
    /// weakly ordered CPU — so a torn read can never slip past a
    /// passing validation.
    #[inline]
    pub fn validate(&self, version: u64) -> bool {
        crate::inject::perturb(crate::inject::Site::Validate);
        // An acquire *load* alone only keeps later accesses from being
        // hoisted above it; this fence is what pins the preceding
        // unguarded reads before the re-load.
        std::sync::atomic::fence(Ordering::Acquire);
        self.latch.raw.version() == Some(version)
    }

    /// One version-validated optimistic read: snapshots the version,
    /// runs `f` against the data *without any latch*, and re-validates.
    /// Returns `Some((version, result))` only when no exclusive section
    /// overlapped the window; otherwise the result is discarded and the
    /// caller restarts. The returned version lets latch-free descents
    /// re-validate this node again later (parent-then-child coupling).
    /// The validating re-load is fenced (see [`FcfsRwLock::validate`])
    /// so the unguarded reads cannot drift past it.
    ///
    /// # Safety
    ///
    /// This is a seqlock read (the classic optimistic-lock-coupling
    /// window of LeanStore/ART): `f` runs against `&T` while a writer
    /// may be mutating the same bytes through `&mut T`, and the version
    /// re-check can only *discard* what `f` computed — it cannot undo
    /// anything `f` already did inside the window. The caller must
    /// guarantee that `f` tolerates every intermediate state a
    /// concurrent writer can expose (byte-blends of valid states, stale
    /// lengths, not-yet-initialized slots):
    ///
    /// * `f` only reads: it never writes through the reference and has
    ///   no side effects that escape before validation.
    /// * Every index into a growable region is checked (`get`, never
    ///   `[...]`) — lengths may be torn, and the protected structure
    ///   must never reallocate its buffers while shared (the B-tree
    ///   pre-reserves node vectors at construction).
    /// * `f` materializes no heap-owning value out of the data: cloning
    ///   a torn `String`/`Vec` dereferences a torn pointer, which is
    ///   undefined behavior *before* validation ever runs. Plain-old
    ///   data (integers, levels, keys) may be copied out. `Arc`s stored
    ///   in the data may be cloned only when the caller separately
    ///   guarantees that every pointer value the slot can hold refers
    ///   to an allocation kept alive for the whole structure lifetime
    ///   (the B-tree's never-unlinked node discipline).
    /// * On `None` the caller discards the result entirely.
    #[allow(unsafe_code)]
    pub unsafe fn read_optimistic<R>(&self, f: impl FnOnce(&T) -> R) -> Option<(u64, R)> {
        let version = self.version()?;
        // The perturbation sites sit *inside* the window (after the
        // snapshot, before the validation) so the schedule-perturbation
        // checker can dilate exactly the interval a torn read needs.
        // SAFETY: the unguarded read is the caller's contract (above);
        // any overlap with an exclusive holder is detected by the
        // fenced version re-check below and the value is discarded.
        let out = f(unsafe { &*self.latch.data.get() });
        self.validate(version).then_some((version, out))
    }

    /// Number of requests currently queued (diagnostic; racy by nature).
    pub fn queued(&self) -> usize {
        self.latch.raw.queued()
    }

    /// Mutable access without locking (requires `&mut`, hence exclusive).
    pub fn get_mut(&mut self) -> &mut T {
        self.latch.data.get_mut()
    }
}

impl<T: ?Sized, S> fmt::Debug for FcfsRwLock<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FcfsRwLock").finish_non_exhaustive()
    }
}

/// Shared guard borrowing the lock; reports its hold to `K` on release.
#[must_use = "dropping the guard releases the latch"]
pub struct RwLockReadGuard<'a, T: ?Sized, K: LockSink = &'a LockStats> {
    latch: &'a Latch<T>,
    sink: K,
    /// The lock's tag at the grant: the hold is reported under it.
    tag: u16,
    hold_start: Option<Instant>,
}

/// Exclusive guard borrowing the lock (see [`RwLockReadGuard`]).
#[must_use = "dropping the guard releases the latch"]
pub struct RwLockWriteGuard<'a, T: ?Sized, K: LockSink = &'a LockStats> {
    latch: &'a Latch<T>,
    sink: K,
    tag: u16,
    hold_start: Option<Instant>,
}

/// An exclusive latch held past the borrow it was taken under: the
/// guard keeps a raw pointer to the latch and releases through it on
/// drop. It gives no access to the data and reports nothing — it only
/// *holds* — which is the shape of a transaction-retained latch on a
/// lock embedded in storage the holder's owner keeps alive (see
/// [`RwLockWriteGuard::into_unowned`]).
#[must_use = "dropping the guard releases the latch"]
pub struct UnownedWriteGuard<T: ?Sized> {
    latch: NonNull<Latch<T>>,
}

// SAFETY: an unowned guard is a held exclusive latch plus a pointer to
// a lock the creator keeps alive; dropping it on another thread
// releases the latch there, which hands `&mut T` access on (hence
// `T: Send`) through a shared `&FcfsRwLock<T>` (hence `T: Sync`, as for
// `Arc<FcfsRwLock<T>>`).
unsafe impl<T: ?Sized + Send + Sync> Send for UnownedWriteGuard<T> {}
// SAFETY: `&UnownedWriteGuard` exposes nothing but `Debug`.
unsafe impl<T: ?Sized + Send + Sync> Sync for UnownedWriteGuard<T> {}

impl<T: ?Sized, K: LockSink> RwLockWriteGuard<'_, T, K> {
    /// Erases the guard's borrow so the latch can be held past it (the
    /// recovery protocols' transaction-retained latches). The latch
    /// stays held until the returned guard drops. A timed hold is handed
    /// back open, as `(tag, start)`: the unowned guard reports nothing,
    /// so the caller reports the hold when it releases the latch. The
    /// sink is dropped without running its destructor.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the lock remains valid (not dropped or
    /// moved) until the returned guard has been dropped — the
    /// obligation the erased borrow used to enforce.
    pub unsafe fn into_unowned(this: Self) -> (UnownedWriteGuard<T>, Option<(u16, Instant)>) {
        let this = ManuallyDrop::new(this); // the latch changes hands, unreleased
        let open = this.hold_start.map(|t0| (this.tag, t0));
        (
            UnownedWriteGuard {
                latch: NonNull::from(this.latch),
            },
            open,
        )
    }
}

impl<T: ?Sized> Drop for UnownedWriteGuard<T> {
    fn drop(&mut self) {
        // SAFETY: `into_unowned`'s contract — the lock outlives the
        // guard — makes the pointer valid here.
        unsafe { self.latch.as_ref() }.release(true);
    }
}

impl<T: ?Sized> fmt::Debug for UnownedWriteGuard<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnownedWriteGuard").finish_non_exhaustive()
    }
}

macro_rules! impl_guard {
    ($guard:ident, $lt:lifetime, deref_mut: $mutable:tt, exclusive: $exclusive:expr) => {
        impl<$lt, T: ?Sized, K: LockSink> $guard<$lt, T, K> {
            /// Releases the latch, ending a timed hold at `end` when given
            /// — in crab order, the [`hold_start`](Self::hold_start) of
            /// the child granted while this latch was still held — and
            /// at a fresh clock reading otherwise. Returns the instant the
            /// hold ended (`None` when it was not timed): the stamp the
            /// caller's next acquisition may carry (see
            /// [`FcfsRwLock::read_after`]). Dropping the guard is
            /// `release(guard, None)` without the return value.
            pub fn release(this: Self, end: Option<Instant>) -> Option<Instant> {
                let this = ManuallyDrop::new(this); // released here, not by Drop
                this.latch
                    .finish(&this.sink, this.tag, $exclusive, this.hold_start, end)
            }

            /// When this hold's timing started (`None` when the
            /// acquisition was not sampled for timing).
            pub fn hold_start(this: &Self) -> Option<Instant> {
                this.hold_start
            }
        }
        impl<$lt, T: ?Sized, K: LockSink> Deref for $guard<$lt, T, K> {
            type Target = T;
            fn deref(&self) -> &T {
                // SAFETY: the guard proves the latch is held in a mode
                // that permits this access until `Drop` runs.
                #[allow(unsafe_code)]
                unsafe {
                    &*self.latch.data.get()
                }
            }
        }
        impl_guard!(@mut $guard, $lt, $mutable);
        impl<$lt, T: ?Sized, K: LockSink> Drop for $guard<$lt, T, K> {
            fn drop(&mut self) {
                self.latch
                    .finish(&self.sink, self.tag, $exclusive, self.hold_start, None);
            }
        }
        impl<$lt, T: ?Sized + fmt::Debug, K: LockSink> fmt::Debug for $guard<$lt, T, K> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&**self, f)
            }
        }
    };
    (@mut $guard:ident, $lt:lifetime, yes) => {
        impl<$lt, T: ?Sized, K: LockSink> DerefMut for $guard<$lt, T, K> {
            fn deref_mut(&mut self) -> &mut T {
                // SAFETY: exclusive latch held for the guard's lifetime.
                #[allow(unsafe_code)]
                unsafe {
                    &mut *self.latch.data.get()
                }
            }
        }
    };
    (@mut $guard:ident, $lt:lifetime, no) => {};
}

impl_guard!(RwLockReadGuard, 'a, deref_mut: no, exclusive: false);
impl_guard!(RwLockWriteGuard, 'a, deref_mut: yes, exclusive: true);

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn read_write_roundtrip() {
        let lock = FcfsRwLock::new(vec![1, 2, 3]);
        assert_eq!(lock.read().len(), 3);
        lock.write().push(4);
        assert_eq!(*lock.read(), vec![1, 2, 3, 4]);
        assert_eq!(lock.into_inner(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn fast_path_leaves_word_clean() {
        let lock = FcfsRwLock::new(0u64);
        {
            let _r1 = lock.read();
            let _r2 = lock.read();
            assert_eq!(lock.latch.raw.word.load(Ordering::Relaxed), 2);
        }
        assert_eq!(lock.latch.raw.word.load(Ordering::Relaxed), 0);
        {
            let _w = lock.write();
            assert_eq!(lock.latch.raw.word.load(Ordering::Relaxed), WRITER);
        }
        // The write release leaves only the bumped version behind: the
        // holder and queue bits are clean.
        assert_eq!(lock.latch.raw.word.load(Ordering::Relaxed), VUNIT);
        assert_eq!(lock.queued(), 0);
    }

    #[test]
    fn queued_bit_tracks_the_queue() {
        let lock = Arc::new(FcfsRwLock::new(0u64));
        let g = lock.write();
        let t = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _g = lock.read();
            })
        };
        while lock.queued() == 0 {
            std::thread::yield_now();
        }
        assert_ne!(lock.latch.raw.word.load(Ordering::Relaxed) & QUEUED, 0);
        drop(g);
        t.join().unwrap();
        // Granting the last waiter clears QUEUED, and the holder bits
        // return to zero once the reader departs; only the slow-path
        // write release's version bump remains in the word.
        assert_eq!(lock.latch.raw.word.load(Ordering::Relaxed), VUNIT);
    }

    #[test]
    fn version_bumps_once_per_write_release_fast_path() {
        let lock = FcfsRwLock::new(0u64);
        assert_eq!(lock.version(), Some(0));
        for i in 1..=5u64 {
            *lock.write() += 1;
            assert_eq!(lock.version(), Some(i), "one bump per write release");
        }
        // Read acquisitions and releases never move the version.
        for _ in 0..10 {
            drop(lock.read());
        }
        assert_eq!(lock.version(), Some(5));
        assert!(lock.validate(5));
        assert!(!lock.validate(4));
    }

    #[test]
    fn version_hidden_while_writer_holds() {
        let lock = FcfsRwLock::new(0u64);
        let g = lock.write();
        assert_eq!(lock.version(), None, "no snapshot under an active writer");
        assert!(!lock.validate(0), "nothing validates under a writer");
        drop(g);
        assert_eq!(lock.version(), Some(1));
    }

    #[test]
    fn version_wraps_inside_its_field() {
        let lock = FcfsRwLock::new(0u64);
        // Pin the version field to its maximum and release once: the
        // carry must stay out of QUEUED.
        lock.latch.raw.word.store(VMASK, Ordering::Relaxed);
        drop(lock.write());
        assert_eq!(lock.latch.raw.word.load(Ordering::Relaxed), 0);
        assert_eq!(lock.version(), Some(0));
    }

    #[test]
    #[allow(unsafe_code)]
    fn read_optimistic_validates_and_discards() {
        let lock = FcfsRwLock::new(7u64);
        // SAFETY: the closure copies out a plain `u64` — no heap, no
        // unchecked indexing — so a torn window is at worst a wrong
        // value, discarded on failed validation.
        let read = |lock: &FcfsRwLock<u64>| unsafe { lock.read_optimistic(|x| *x) };
        let (v, out) = read(&lock).expect("uncontended");
        assert_eq!((v, out), (0, 7));
        *lock.write() = 8;
        // The old snapshot no longer validates; a fresh one does.
        assert!(!lock.validate(v));
        let (v2, out2) = read(&lock).expect("uncontended");
        assert_eq!((v2, out2), (1, 8));
        // Under an active writer the optimistic read refuses up front.
        let g = lock.write();
        assert!(read(&lock).is_none());
        drop(g);
    }

    #[test]
    fn readers_share_writers_exclude() {
        // Readers: each holds its shared latch until every reader is
        // inside the critical section at once. A correct lock admits
        // them all concurrently so the rendezvous completes immediately;
        // a lock that serialized readers trips the watchdog instead.
        // No sleeps — the handshake is purely event-ordered.
        const READERS: usize = 4;
        let lock = Arc::new(FcfsRwLock::new(0u64));
        let in_cs = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..READERS {
                let lock = Arc::clone(&lock);
                let in_cs = Arc::clone(&in_cs);
                s.spawn(move || {
                    let _g = lock.read();
                    in_cs.fetch_add(1, Ordering::SeqCst);
                    let t0 = Instant::now();
                    while in_cs.load(Ordering::SeqCst) < READERS {
                        assert!(
                            t0.elapsed() < std::time::Duration::from_secs(5),
                            "readers never all shared the lock"
                        );
                        std::thread::yield_now();
                    }
                });
            }
        });

        // Writers: strict mutual exclusion on a non-atomic counter.
        let total = 64;
        std::thread::scope(|s| {
            for _ in 0..8 {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for _ in 0..total / 8 {
                        let mut g = lock.write();
                        let v = *g;
                        std::thread::yield_now();
                        *g = v + 1;
                    }
                });
            }
        });
        assert_eq!(*lock.read(), total);
    }

    #[test]
    fn try_acquires_succeed_uncontended_and_count() {
        let lock = Arc::new(FcfsRwLock::new(5u64));
        {
            let g = lock.try_write().expect("free lock");
            assert_eq!(*g, 5);
            // A second writer, and any reader, must fail while held.
            assert!(lock.try_write().is_none());
            assert!(lock.try_read().is_none());
        }
        {
            let r1 = lock.try_read().expect("free lock");
            let r2 = lock.try_read().expect("readers share");
            assert_eq!(*r1 + *r2, 10);
            assert!(lock.try_write().is_none(), "writer excluded by readers");
        }
        let snap = lock.stats().snapshot();
        // Only the four successful acquisitions were counted.
        assert_eq!(snap.w_acquires, 1);
        assert_eq!(snap.r_acquires, 2);
        assert_eq!(snap.w_contended, 0);
        assert_eq!(snap.r_contended, 0);
    }

    #[test]
    fn try_acquires_fail_while_waiters_are_queued() {
        let lock = Arc::new(FcfsRwLock::new(0u64));
        let g = lock.write();
        let t = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _g = lock.read();
            })
        };
        while lock.queued() == 0 {
            std::thread::yield_now();
        }
        // The queue is non-empty, so even a compatible probe must refuse
        // (it would otherwise overtake the FCFS queue).
        assert!(lock.try_write().is_none());
        assert!(lock.try_read().is_none());
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut lock = FcfsRwLock::new(1);
        *lock.get_mut() = 5;
        assert_eq!(*lock.read(), 5);
        assert_eq!(lock.queued(), 0);
    }

    #[test]
    fn stats_count_contention() {
        let lock = Arc::new(FcfsRwLock::new(()));
        let g = lock.write();
        let t = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let _g = lock.read(); // must queue behind the writer
            })
        };
        // Event-ordered handshake: once the reader is visibly queued it
        // is contended by construction — no sleep or duration floor
        // needed, so the test cannot flake on scheduler jitter.
        while lock.queued() == 0 {
            std::thread::yield_now();
        }
        drop(g);
        t.join().unwrap();
        let snap = lock.stats().snapshot();
        assert_eq!(snap.w_acquires, 1);
        assert_eq!(snap.r_acquires, 1);
        assert_eq!(snap.r_contended, 1);
        assert!(snap.r_wait_ns > 0, "a queued acquisition records its wait");
        assert!(snap.w_hold_ns > 0, "the held span covers the handshake");
    }

    #[test]
    fn uncontended_acquires_are_never_contended() {
        let lock = FcfsRwLock::new(());
        for _ in 0..99 {
            drop(lock.read());
            drop(lock.write());
        }
        // Successful probes are zero-wait acquisitions too.
        drop(lock.try_read().expect("free lock"));
        drop(lock.try_write().expect("free lock"));
        let snap = lock.stats().snapshot();
        assert_eq!(snap.r_acquires, 100);
        assert_eq!(snap.w_acquires, 100);
        assert_eq!(snap.r_contended, 0);
        assert_eq!(snap.w_contended, 0);
        assert_eq!(snap.r_wait_ns, 0);
        assert_eq!(snap.w_wait_ns, 0);
        // Exact sampling: every acquire shows as a (zero) wait
        // observation — reconstructed by the snapshot, since the fast
        // path no longer writes one.
        for hist in [&snap.r_wait_hist, &snap.w_wait_hist] {
            assert_eq!(hist.total(), 100);
            assert_eq!(hist.counts[0], 100);
            assert_eq!(hist.p50(), 0);
            assert_eq!(hist.p999(), 0);
        }
        assert_eq!(snap.mean_r_wait_ns(), 0.0);
        assert_eq!(snap.mean_w_wait_ns(), 0.0);
        assert!(snap.w_hold_ns > 0, "holds are timed even when uncontended");
        // A window's diff reconstructs the same way.
        drop(lock.read());
        let delta = lock.stats().snapshot().since(&snap);
        assert_eq!(delta.r_wait_hist.total(), 1);
        assert_eq!(delta.r_wait_hist.counts[0], 1);
    }

    #[test]
    fn sampled_lock_keeps_counts_exact() {
        let lock = FcfsRwLock::with_sampling(0u64, SamplePeriod::every(4));
        for _ in 0..101 {
            *lock.write() += 1;
            drop(lock.read());
        }
        let snap = lock.stats().snapshot();
        assert_eq!(snap.w_acquires, 101, "counts must stay exact");
        assert_eq!(snap.r_acquires, 101);
        // Under the inject feature the period is forced to 1 (exact).
        let expect = if cfg!(feature = "inject") { 101 } else { 26 };
        for hist in [&snap.r_wait_hist, &snap.w_wait_hist] {
            assert_eq!(hist.total(), expect, "one observation per sampled acquire");
            assert_eq!(hist.counts[0], expect);
            assert_eq!(hist.p50(), 0);
        }
        assert_eq!(snap.w_wait_ns, 0, "scaled sum of zero waits");
        assert_eq!(snap.mean_w_wait_ns(), 0.0);
        assert!(snap.w_hold_ns > 0, "sampled holds are scaled into the sum");
    }

    #[test]
    fn contended_wait_keeps_its_bucket_beside_reconstructed_zeros() {
        let sample = SamplePeriod::every(4);
        let lock = Arc::new(FcfsRwLock::with_sampling((), sample));
        let g = lock.write();
        let t = {
            let lock = Arc::clone(&lock);
            // Shared acquisition 0: the one in four that is timed.
            std::thread::spawn(move || drop(lock.read()))
        };
        // The reader is queued by construction once it is visible; the
        // sleep only gives its wait a magnitude far from bucket 0.
        while lock.queued() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(g);
        t.join().unwrap();
        for _ in 0..7 {
            drop(lock.read()); // acquisitions 1..=7, uncontended; 4 is timed
        }
        let snap = lock.stats().snapshot();
        assert_eq!(snap.r_acquires, 8);
        assert_eq!(snap.r_contended, 1);
        let sampled = 8 / sample.period(); // 2, or all 8 under `inject`
        let hist = &snap.r_wait_hist;
        assert_eq!(hist.total(), sampled);
        assert_eq!(hist.counts[0], sampled - 1, "every sampled wait but one");
        assert!(
            hist.quantile(1.0) >= 500_000,
            "the real wait has its bucket"
        );
        assert!(
            snap.r_wait_ns >= 1_000_000 * sample.period(),
            "the sum carries the wait scaled by the period"
        );
        assert!(snap.mean_r_wait_ns() >= 125_000.0 * sample.period() as f64);
    }

    #[test]
    fn handed_over_holds_telescope() {
        // Link order (release, then acquire carrying the stamp) and crab
        // order (acquire the next, then release at its grant) across a
        // few locks: one clock reading per step, and the holds sum to the
        // last release minus the first grant, to the nanosecond.
        let locks: Vec<FcfsRwLock<()>> = (0..4).map(|_| FcfsRwLock::new(())).collect();
        let first = locks[0].read();
        let t0 = RwLockReadGuard::hold_start(&first).expect("exact timing");
        let carried = RwLockReadGuard::release(first, None);
        let mid = locks[1].write_after(carried);
        assert_eq!(RwLockWriteGuard::hold_start(&mid), carried);
        let next = locks[2].read(); // crab: granted while `mid` is held
        RwLockWriteGuard::release(mid, RwLockReadGuard::hold_start(&next));
        let carried = RwLockReadGuard::release(next, None);
        let last = locks[3].read_after(carried);
        let t1 = RwLockReadGuard::release(last, None).expect("exact timing");
        let held: u64 = locks
            .iter()
            .map(|l| {
                let s = l.stats().snapshot();
                s.r_hold_ns + s.w_hold_ns
            })
            .sum();
        assert_eq!(held, (t1 - t0).as_nanos() as u64);
    }

    #[test]
    fn contended_grant_starts_its_hold_at_the_grant() {
        let lock = Arc::new(FcfsRwLock::new(()));
        let g = lock.write();
        let carried = Instant::now();
        let t = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let r = lock.read_after(Some(carried)); // queues behind the writer
                let start = RwLockReadGuard::hold_start(&r).expect("exact timing");
                let end = RwLockReadGuard::release(r, None).expect("exact timing");
                (start, end)
            })
        };
        while lock.queued() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(g);
        let (start, end) = t.join().unwrap();
        let snap = lock.stats().snapshot();
        assert!(snap.r_wait_ns >= 1_000_000, "the queueing is wait");
        assert!(start - carried >= std::time::Duration::from_millis(1));
        assert_eq!(snap.r_hold_ns, (end - start).as_nanos() as u64);
        assert!(
            snap.r_wait_ns + snap.r_hold_ns <= (end - carried).as_nanos() as u64,
            "the wait is not counted again as hold"
        );
    }

    #[test]
    fn debug_does_not_block() {
        let lock = FcfsRwLock::new(3);
        let _g = lock.write();
        let s = format!("{lock:?}");
        assert!(s.contains("FcfsRwLock"));
    }
}
