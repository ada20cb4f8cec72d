//! Bounded lock-free ingress rings with admission control.
//!
//! One ring per shard. Generators `try_push` — a full ring *rejects*
//! instead of blocking (open-loop arrivals cannot be paused; shedding at
//! admission is what keeps sojourn times of accepted operations bounded
//! past saturation). Workers block on [`IngressQueue::pop_batch`] and
//! drain up to a configured batch of operations per wakeup; an optional
//! enqueue-age timeout (enforced by the worker at dequeue) sheds
//! operations whose queue wait already exceeds the deadline, so a
//! backlogged shard spends its service capacity on operations that can
//! still meet the SLO instead of on ones that have already blown it.
//!
//! # Ring layout
//!
//! The hot path is a bounded MPMC ring in the style long used by the
//! trace subsystem's per-thread rings: an array of slots, each carrying
//! a *sequence* word plus two data words, with two monotone cursors
//! (`enqueue_pos`, `dequeue_pos`). A slot's sequence tells both sides
//! whose turn it is: producers claim `enqueue_pos` by CAS when
//! `seq == pos`, publish data, then store `seq = pos + 1`; consumers
//! claim `dequeue_pos` when `seq == pos + 1` and recycle the slot with
//! `seq = pos + ring_len`. No mutex is held on either path, so `c`
//! workers and `G` generators never serialize on a queue lock — only on
//! the two cursors' CAS.
//!
//! The queued operation is *packed into the two data words* so the slot
//! can be plain atomics (safe Rust, no `unsafe` data races): word one is
//! the key, word two packs the opcode (2 bits), the measured flag
//! (1 bit), and the enqueue timestamp as nanoseconds since the ring's
//! creation epoch (61 bits — millennia of headroom).
//!
//! # Poll, then park
//!
//! Blocking is layered *beside* the ring, not inside it. A worker that
//! finds the ring empty first *polls* it: `try_pop` with a
//! `yield_now` between attempts (a busy spin would starve the
//! generator on a host with fewer cores than busy threads). It polls
//! for at most one *park cost*: the queue's smoothed enqueue → pop
//! latency of the ops that woke a parked worker (an EWMA with gain
//! 1/8, capped at the park timeout, zero until the first park). Polling
//! for as long as a park costs is the 2-competitive spin-then-block
//! rule of Karlin, Li, Manasse & Owicki ("Empirical studies of
//! competitive spinning for a shared-memory multiprocessor", SOSP
//! 1991): an op that arrives inside the budget is caught without a
//! futex wake, and an idle period longer than the budget wastes at most
//! what the park it ends in costs anyway. No constant, no knob.
//!
//! When the poll comes up empty, the worker parks on the doorbell,
//! whose handshake is the same with or without the poll: it registers
//! as a sleeper inside the doorbell mutex, re-polls, and waits on a
//! condvar with a short timeout; producers ring the doorbell only when
//! the sleeper count is nonzero, so at load the notify branch never
//! executes and the ring runs lock-free end to end. The sleeper count
//! and the enqueue cursor form a Dekker pair (each side writes its own
//! word, then reads the other's, all `SeqCst`), so either the producer
//! sees the sleeper or the sleeper's re-poll sees the op. The timeout
//! is a bounded-latency backstop, not a correctness requirement.
//!
//! # Cache lines
//!
//! The producer's words (the enqueue cursor and the two depth
//! high-water marks) and the consumer's (the dequeue cursor and the
//! park cost) sit on separate 128-byte lines, so a polling worker's
//! re-reads do not contend with every push's writes.

use cbtree_workload::Operation;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One queued operation with its admission timestamp.
#[derive(Debug, Clone, Copy)]
pub struct QueuedOp {
    /// The operation to execute.
    pub op: Operation,
    /// When the generator enqueued it — the sojourn clock starts here.
    pub enqueued: Instant,
    /// Whether it arrived inside the measured window (warmup and
    /// post-window arrivals are executed but not reported).
    pub measured: bool,
}

/// Why an operation was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The bounded queue was full at admission.
    QueueFull,
    /// The operation's queue wait exceeded the enqueue-age timeout.
    Timeout,
}

/// Opcode values packed into the low bits of a slot's meta word.
const OPC_SEARCH: u64 = 0;
const OPC_INSERT: u64 = 1;
const OPC_DELETE: u64 = 2;
/// Bit 2 of the meta word: the `measured` flag.
const META_MEASURED: u64 = 1 << 2;
/// Enqueue nanoseconds live above the opcode + measured bits.
const META_TS_SHIFT: u32 = 3;

/// How long an idle worker parks before re-polling the ring. Purely a
/// lost-wakeup backstop; the doorbell wakes sleepers promptly. Also the
/// cap on the park cost, and with it on one poll's budget.
const PARK: Duration = Duration::from_millis(2);

/// One ring slot: a Vyukov-style sequence word plus the packed payload.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    key: AtomicU64,
    meta: AtomicU64,
}

/// The producers' words: every admitted push CASes the cursor here.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ProducerLine {
    enqueue_pos: AtomicU64,
    depth_hwm: AtomicUsize,
    /// Like `depth_hwm`, but reset by the metrics sampler each window
    /// ([`IngressQueue::take_depth_high_water_window`]) so a time
    /// series shows the queue growing toward saturation instead of one
    /// sticky whole-run maximum.
    depth_hwm_window: AtomicUsize,
}

/// The consumers' words: every pop CASes the cursor here, and a
/// polling worker re-reads it.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ConsumerLine {
    dequeue_pos: AtomicU64,
    /// Smoothed cost of one park, ns: the poll budget ([`next_park_cost`]).
    park_cost_ns: AtomicU64,
}

/// A bounded lock-free MPMC ingress ring (the queue is also the *model
/// object* — an explicit λ-arrival FCFS buffer whose depth and overflow
/// behavior the M/G/c overlay predicts).
#[derive(Debug)]
pub struct IngressQueue {
    ring: Box<[Slot]>,
    /// `ring.len() - 1`; the ring length is a power of two.
    mask: u64,
    /// Admission bound — may be below the (power-of-two) ring length.
    capacity: usize,
    producer: ProducerLine,
    consumer: ConsumerLine,
    closed: AtomicBool,
    /// Timestamp origin for the packed enqueue nanoseconds.
    epoch: Instant,
    /// Workers currently parked (or about to park) on the doorbell.
    sleepers: AtomicUsize,
    doorbell: Mutex<()>,
    not_empty: Condvar,
}

/// The park-cost estimator. A worker that parked at `parked` and then
/// popped, at `popped`, an op enqueued at `enqueued` folds that op's
/// enqueue → pop latency into `cost_ns` with gain 1/8, capped at
/// [`PARK`]. An op enqueued before the park began was waiting already
/// and says nothing about the wake, so it leaves the estimate as it is.
fn next_park_cost(cost_ns: u64, parked: Instant, enqueued: Instant, popped: Instant) -> u64 {
    if enqueued < parked {
        return cost_ns;
    }
    let cap = PARK.as_nanos() as u64;
    let sample = u64::try_from(popped.saturating_duration_since(enqueued).as_nanos())
        .unwrap_or(u64::MAX)
        .min(cap);
    (cost_ns * 7 + sample) / 8
}

/// Raises a high-water mark to `depth`. The plain load skips the locked
/// RMW on every push that sets no new maximum.
#[inline]
fn raise(mark: &AtomicUsize, depth: usize) {
    if depth > mark.load(Ordering::Relaxed) {
        mark.fetch_max(depth, Ordering::Relaxed);
    }
}

fn encode(item: &QueuedOp, epoch: Instant) -> (u64, u64) {
    let opc = match item.op {
        Operation::Search(_) => OPC_SEARCH,
        Operation::Insert(_) => OPC_INSERT,
        Operation::Delete(_) => OPC_DELETE,
    };
    let measured = if item.measured { META_MEASURED } else { 0 };
    let ns = item
        .enqueued
        .saturating_duration_since(epoch)
        .as_nanos()
        .min(u128::from(u64::MAX >> META_TS_SHIFT)) as u64;
    (item.op.key(), (ns << META_TS_SHIFT) | measured | opc)
}

fn decode(key: u64, meta: u64, epoch: Instant) -> QueuedOp {
    let op = match meta & 0b11 {
        OPC_SEARCH => Operation::Search(key),
        OPC_INSERT => Operation::Insert(key),
        _ => Operation::Delete(key),
    };
    QueuedOp {
        op,
        enqueued: epoch + Duration::from_nanos(meta >> META_TS_SHIFT),
        measured: meta & META_MEASURED != 0,
    }
}

impl IngressQueue {
    /// A queue admitting at most `capacity` waiting operations.
    ///
    /// # Panics
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        let len = capacity.next_power_of_two().max(2);
        let ring = (0..len)
            .map(|i| Slot {
                seq: AtomicU64::new(i as u64),
                key: AtomicU64::new(0),
                meta: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        IngressQueue {
            ring,
            mask: len as u64 - 1,
            capacity,
            producer: ProducerLine::default(),
            consumer: ConsumerLine::default(),
            closed: AtomicBool::new(false),
            epoch: Instant::now(),
            sleepers: AtomicUsize::new(0),
            doorbell: Mutex::new(()),
            not_empty: Condvar::new(),
        }
    }

    /// Configured capacity (admission bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admits `item`, or sheds it when the queue is full (or closed).
    /// Lock-free: one CAS on the enqueue cursor plus slot stores.
    pub fn try_push(&self, item: QueuedOp) -> Result<(), Shed> {
        if self.closed.load(Ordering::Acquire) {
            return Err(Shed::QueueFull);
        }
        let (key, meta) = encode(&item, self.epoch);
        let mut pos = self.producer.enqueue_pos.load(Ordering::Relaxed);
        loop {
            // Admission bound below the power-of-two ring length. The
            // tail read may lag (consumers advance it concurrently), so
            // this can only *under*-admit at the boundary — the depth
            // high-water mark never exceeds `capacity`.
            let tail = self.consumer.dequeue_pos.load(Ordering::Relaxed);
            if pos.wrapping_sub(tail) >= self.capacity as u64 {
                return Err(Shed::QueueFull);
            }
            let slot = &self.ring[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos) as i64;
            if dif == 0 {
                // `SeqCst` on success: this CAS and the `sleepers` load
                // below are the producer's half of the doorbell's Dekker
                // pair; a parking consumer increments `sleepers`, then
                // loads `enqueue_pos`, both `SeqCst`. With all four in
                // the single total order, the producer sees the sleeper
                // or the sleeper's re-poll sees this op — never neither.
                // (On x86 this is the same `lock cmpxchg`.)
                match self.producer.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.key.store(key, Ordering::Relaxed);
                        slot.meta.store(meta, Ordering::Relaxed);
                        // Publish: consumers acquire this seq before
                        // reading the data words.
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        let depth = pos.wrapping_add(1).wrapping_sub(tail) as usize;
                        raise(&self.producer.depth_hwm, depth);
                        raise(&self.producer.depth_hwm_window, depth);
                        if self.sleepers.load(Ordering::SeqCst) > 0 {
                            // Enter the doorbell critical section so the
                            // notify cannot slip between a sleeper's
                            // registration and its park.
                            drop(self.doorbell.lock().unwrap_or_else(PoisonError::into_inner));
                            self.not_empty.notify_one();
                        }
                        return Ok(());
                    }
                    Err(seen) => pos = seen,
                }
            } else if dif < 0 {
                // A full lap behind: ring physically full (only possible
                // when `capacity` equals the ring length).
                return Err(Shed::QueueFull);
            } else {
                pos = self.producer.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// One non-blocking dequeue attempt.
    fn try_pop(&self) -> Option<QueuedOp> {
        let mut pos = self.consumer.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.ring[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos.wrapping_add(1)) as i64;
            if dif == 0 {
                match self.consumer.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Safe to read: the acquire on `seq` ordered the
                        // producer's data stores before this point, and
                        // winning the cursor CAS made this consumer the
                        // slot's sole reader until the recycle store.
                        let key = slot.key.load(Ordering::Relaxed);
                        let meta = slot.meta.load(Ordering::Relaxed);
                        slot.seq
                            .store(pos.wrapping_add(self.ring.len() as u64), Ordering::Release);
                        return Some(decode(key, meta, self.epoch));
                    }
                    Err(seen) => pos = seen,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.consumer.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Moves up to `max` ready operations into `out` without blocking;
    /// returns how many.
    fn drain(&self, max: usize, out: &mut Vec<QueuedOp>) -> usize {
        let mut n = 0;
        while n < max {
            match self.try_pop() {
                Some(item) => {
                    out.push(item);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Polls the empty ring for up to `budget`, yielding between
    /// attempts, and returns what the first successful attempt drained:
    /// `0` once the budget is spent or the queue is closed.
    fn poll(&self, max: usize, out: &mut Vec<QueuedOp>, budget: Duration) -> usize {
        let start = Instant::now();
        loop {
            std::thread::yield_now();
            let n = self.drain(max, out);
            if n > 0 || self.closed.load(Ordering::Acquire) || start.elapsed() >= budget {
                return n;
            }
        }
    }

    /// Drains up to `max` operations into `out`, blocking until at least
    /// one is available or the queue is closed *and* empty
    /// (drain-then-exit shutdown). Returns the number appended; `0`
    /// means shutdown. An idle caller polls for one park cost before it
    /// parks (see the module docs).
    ///
    /// # Panics
    /// Panics when `max` is 0.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<QueuedOp>) -> usize {
        assert!(max >= 1, "batch size must be at least 1");
        // Spent by the first empty poll of this call: an idle period
        // costs at most one park's worth of polling.
        let mut budget = Duration::from_nanos(self.consumer.park_cost_ns.load(Ordering::Relaxed));
        // When the wait that the next drain follows began.
        let mut parked = None;
        loop {
            let n = self.drain(max, out);
            if n > 0 {
                if let Some(parked) = parked {
                    let cost = &self.consumer.park_cost_ns;
                    let first = out[out.len() - n].enqueued;
                    let next =
                        next_park_cost(cost.load(Ordering::Relaxed), parked, first, Instant::now());
                    cost.store(next, Ordering::Relaxed);
                }
                return n;
            }
            parked = None;
            if self.closed.load(Ordering::SeqCst) {
                // A producer that won its cursor CAS before `close` may
                // not have published its slot yet; the cursors tell us
                // whether anything is still in flight.
                if self.producer.enqueue_pos.load(Ordering::SeqCst)
                    == self.consumer.dequeue_pos.load(Ordering::SeqCst)
                {
                    return 0;
                }
                std::thread::yield_now();
                continue;
            }
            if !budget.is_zero() {
                let n = self.poll(max, out, std::mem::take(&mut budget));
                if n > 0 {
                    return n;
                }
                continue;
            }
            // Park on the doorbell. Register as a sleeper *inside* the
            // critical section, then re-poll: a producer that publishes
            // after the re-poll sees `sleepers > 0` and must pass
            // through the same mutex before notifying, so its wakeup
            // cannot be lost. The timeout is a belt-and-braces bound,
            // not a correctness requirement.
            let guard = self.doorbell.lock().unwrap_or_else(PoisonError::into_inner);
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            let drained = self.consumer.dequeue_pos.load(Ordering::SeqCst)
                != self.producer.enqueue_pos.load(Ordering::SeqCst);
            if drained || self.closed.load(Ordering::SeqCst) {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            parked = Some(Instant::now());
            let _ = self
                .not_empty
                .wait_timeout(guard, PARK)
                .unwrap_or_else(PoisonError::into_inner);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Blocks until an operation is available or the queue is closed
    /// *and* empty. Single-op convenience over [`IngressQueue::pop_batch`].
    pub fn pop(&self) -> Option<QueuedOp> {
        let mut buf = Vec::with_capacity(1);
        if self.pop_batch(1, &mut buf) == 0 {
            None
        } else {
            buf.pop()
        }
    }

    /// Closes the queue: pending items are still drained, new pushes
    /// shed, and blocked workers wake once the queue empties.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        drop(self.doorbell.lock().unwrap_or_else(PoisonError::into_inner));
        self.not_empty.notify_all();
    }

    /// Current depth (racy; for monitoring only).
    pub fn depth(&self) -> usize {
        let head = self.producer.enqueue_pos.load(Ordering::Relaxed);
        let tail = self.consumer.dequeue_pos.load(Ordering::Relaxed);
        head.wrapping_sub(tail) as usize
    }

    /// Deepest the queue has ever been.
    pub fn depth_high_water(&self) -> usize {
        self.producer.depth_hwm.load(Ordering::Relaxed)
    }

    /// Deepest the queue got since this method was last called, and
    /// resets the per-window mark to zero — the sampler calls this once
    /// per window, so each time-series point carries its own window's
    /// high water rather than the run's sticky maximum. A push racing
    /// the reset lands its mark in one of the two windows (never lost):
    /// a push whose load saw the old mark is covered by the mark this
    /// call returns.
    pub fn take_depth_high_water_window(&self) -> usize {
        self.producer.depth_hwm_window.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn item() -> QueuedOp {
        QueuedOp {
            op: Operation::Search(7),
            enqueued: Instant::now(),
            measured: true,
        }
    }

    #[test]
    fn bounded_fifo_and_high_water() {
        let q = IngressQueue::new(2);
        assert!(q.try_push(item()).is_ok());
        assert!(q.try_push(item()).is_ok());
        assert_eq!(q.try_push(item()), Err(Shed::QueueFull));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.depth_high_water(), 2);
        assert!(q.pop().is_some());
        assert!(q.try_push(item()).is_ok(), "slot freed by pop");
        assert_eq!(q.depth_high_water(), 2, "hwm is sticky");
    }

    #[test]
    fn windowed_high_water_resets_per_take() {
        let q = IngressQueue::new(8);
        for _ in 0..3 {
            q.try_push(item()).unwrap();
        }
        assert_eq!(q.take_depth_high_water_window(), 3);
        assert_eq!(
            q.take_depth_high_water_window(),
            0,
            "an idle window reads zero, not the previous window's mark"
        );
        // Drain to depth 1, then push again: the next window's mark is
        // the depth reached *within* that window (2), while the run
        // high-water mark stays the sticky maximum (3).
        q.pop().unwrap();
        q.pop().unwrap();
        q.try_push(item()).unwrap();
        assert_eq!(q.take_depth_high_water_window(), 2);
        assert_eq!(q.depth_high_water(), 3, "run-level hwm is unaffected");
    }

    #[test]
    fn close_drains_then_wakes() {
        let q = IngressQueue::new(4);
        q.try_push(item()).unwrap();
        q.close();
        assert_eq!(q.try_push(item()), Err(Shed::QueueFull), "closed sheds");
        assert!(q.pop().is_some(), "pending item still served");
        assert!(q.pop().is_none(), "then workers see shutdown");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(IngressQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(item()).unwrap();
        assert!(h.join().unwrap().is_some());
    }

    #[test]
    fn payload_round_trips_through_the_ring() {
        let q = IngressQueue::new(8);
        let before = Instant::now();
        let ops = [
            (Operation::Search(u64::MAX), true),
            (Operation::Insert(0), false),
            (Operation::Delete(0xDEAD_BEEF), true),
        ];
        for &(op, measured) in &ops {
            q.try_push(QueuedOp {
                op,
                enqueued: Instant::now(),
                measured,
            })
            .unwrap();
        }
        for &(op, measured) in &ops {
            let got = q.pop().unwrap();
            assert_eq!(got.op, op);
            assert_eq!(got.measured, measured);
            assert!(got.enqueued >= before, "timestamp survived packing");
            assert!(
                got.enqueued.elapsed() < Duration::from_secs(1),
                "timestamp is recent, not the epoch"
            );
        }
    }

    #[test]
    fn pop_batch_drains_up_to_max() {
        let q = IngressQueue::new(16);
        for k in 0..10u64 {
            q.try_push(QueuedOp {
                op: Operation::Insert(k),
                enqueued: Instant::now(),
                measured: true,
            })
            .unwrap();
        }
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch(4, &mut buf), 4);
        assert_eq!(q.pop_batch(4, &mut buf), 4, "appends, does not clear");
        assert_eq!(q.pop_batch(4, &mut buf), 2, "partial final batch");
        let keys: Vec<u64> = buf.iter().map(|o| o.op.key()).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>(), "FIFO across batches");
        q.close();
        assert_eq!(q.pop_batch(4, &mut buf), 0, "shutdown returns 0");
    }

    #[test]
    fn capacity_bound_holds_below_ring_length() {
        // Capacity 3 rides a 4-slot ring; admission must stop at 3.
        let q = IngressQueue::new(3);
        for _ in 0..3 {
            assert!(q.try_push(item()).is_ok());
        }
        assert_eq!(q.try_push(item()), Err(Shed::QueueFull));
        assert_eq!(q.depth_high_water(), 3);
    }

    #[test]
    fn park_cost_is_a_capped_ewma_of_post_park_wakes() {
        let t = Instant::now();
        let at = |us: u64| t + Duration::from_micros(us);
        let q = IngressQueue::new(4);
        assert_eq!(
            q.consumer.park_cost_ns.load(Ordering::Relaxed),
            0,
            "zero before any park"
        );
        // Parked at 10 µs; an op enqueued at 18 µs and popped at 26 µs
        // took 8 µs: from zero, one sample moves the estimate an eighth.
        assert_eq!(next_park_cost(0, at(10), at(18), at(26)), 1_000);
        assert_eq!(
            next_park_cost(8_000, at(10), at(18), at(26)),
            8_000,
            "fixed point"
        );
        assert_eq!(
            next_park_cost(16_000, at(10), at(18), at(26)),
            15_000,
            "gain 1/8"
        );
        // An op that was already waiting when the park began says
        // nothing about the wake.
        assert_eq!(next_park_cost(4_000, at(10), at(9), at(26)), 4_000);
        // A wake slower than the park timeout counts as the timeout, and
        // the estimate never exceeds it.
        let park_ns = PARK.as_nanos() as u64;
        let slow = next_park_cost(park_ns, at(0), at(1), at(10_000_000));
        assert_eq!(slow, park_ns);
        let mut cost = 0;
        for _ in 0..200 {
            cost = next_park_cost(cost, at(0), at(1), at(1 + 60_000));
        }
        assert!(cost <= park_ns && cost > park_ns * 99 / 100, "{cost}");
    }

    #[test]
    fn close_ends_the_poll_phase() {
        // A budget far past any test timeout: only `close` can end this
        // poll before it runs out (the estimator caps at PARK; the word
        // is set directly here).
        let q = Arc::new(IngressQueue::new(4));
        q.consumer
            .park_cost_ns
            .store(3_600 * 1_000_000_000, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::channel();
        let q2 = Arc::clone(&q);
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            tx.send(q2.pop_batch(4, &mut buf)).unwrap();
        });
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        let popped = rx.recv_timeout(Duration::from_secs(30));
        assert_eq!(popped, Ok(0), "close must end the poll with a shutdown");
        assert_eq!(q.sleepers.load(Ordering::SeqCst), 0, "it never parked");
    }

    #[test]
    fn poll_phase_takes_an_op_without_the_doorbell() {
        // The test holds the doorbell for the whole exchange, so the
        // consumer cannot register as a sleeper, and a push that saw
        // one would block here: the op can only arrive through the poll.
        let q = Arc::new(IngressQueue::new(4));
        q.consumer
            .park_cost_ns
            .store(3_600 * 1_000_000_000, Ordering::Relaxed);
        let doorbell = q.doorbell.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let q2 = Arc::clone(&q);
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            let n = q2.pop_batch(4, &mut buf);
            tx.send((n, buf)).unwrap();
        });
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(item()).unwrap();
        assert_eq!(
            q.sleepers.load(Ordering::SeqCst),
            0,
            "no push saw a sleeper"
        );
        let (n, buf) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the polling consumer must take the op");
        assert_eq!(n, 1);
        assert_eq!(buf[0].op, Operation::Search(7));
        assert_eq!(q.sleepers.load(Ordering::SeqCst), 0);
        drop(doorbell);
    }

    /// The MPMC stress: several producers and consumers hammer a small
    /// ring; every admitted operation comes out exactly once, and each
    /// producer's own operations come out in its submission order
    /// (per-producer FIFO — the property batched execution relies on for
    /// same-key linearizability).
    #[test]
    fn concurrent_producers_and_consumers_account_for_everything() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let q = Arc::new(IngressQueue::new(64));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut admitted = 0u64;
                for i in 0..PER_PRODUCER {
                    // Key encodes (producer, index) for order checking.
                    let key = (p << 32) | i;
                    loop {
                        let pushed = q.try_push(QueuedOp {
                            op: Operation::Insert(key),
                            enqueued: Instant::now(),
                            measured: true,
                        });
                        if pushed.is_ok() {
                            admitted += 1;
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                admitted
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut buf = Vec::new();
                loop {
                    buf.clear();
                    if q.pop_batch(8, &mut buf) == 0 {
                        return got;
                    }
                    got.extend(buf.iter().map(|o| o.op.key()));
                }
            }));
        }
        let admitted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(admitted, PRODUCERS * PER_PRODUCER);
        q.close();
        let mut all: Vec<u64> = Vec::new();
        let mut last_index = vec![None::<u64>; PRODUCERS as usize];
        for c in consumers {
            let got = c.join().unwrap();
            // Per-producer order within one consumer's stream. (A single
            // consumer sees each producer's ops in claim order; with one
            // worker per shard this is global per-producer FIFO.)
            let mut seen = vec![None::<u64>; PRODUCERS as usize];
            for &key in &got {
                let (p, i) = ((key >> 32) as usize, key & 0xFFFF_FFFF);
                if let Some(prev) = seen[p] {
                    assert!(i > prev, "producer {p} reordered: {i} after {prev}");
                }
                seen[p] = Some(i);
                last_index[p] = Some(last_index[p].map_or(i, |l| l.max(i)));
            }
            all.extend(got);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len() as u64,
            PRODUCERS * PER_PRODUCER,
            "every op delivered exactly once"
        );
    }
}
