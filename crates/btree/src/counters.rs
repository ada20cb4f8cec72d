//! Uniform per-operation telemetry for every latching protocol, and the
//! tree's per-level lock statistics.
//!
//! The descent engine counts, with relaxed atomics owned by the *tree*
//! (never the lock — the lock's uncontended fast path stays a single
//! CAS) and striped per thread (never a line two running threads both
//! write), the quantities the paper's analytical models treat as
//! first-class inputs: latch acquisitions per level, optimistic
//! restarts (the `q_i·Pr[F(1)]` rate of the Optimistic model), right-link
//! chases (the Link-type crossing rate of Figure 9), the peak retained
//! latch-chain depth, and — for the §7 recovery variants — transaction
//! commits and deadlock-avoidance spills. The per-level latch counts
//! are also the acquisition counts of the lock statistics, whose hold
//! sums sit beside them in the same stripe row and whose waits, written
//! only by requests that queued, are kept once per level.

use cbtree_sync::{Histogram, LockSink, LockStatsSnapshot, SamplePeriod};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Per-level counter arrays cover levels `1..=MAX_LEVELS`; anything
/// deeper (unreachable at sane capacities) folds into the last slot.
pub const MAX_LEVELS: usize = 16;

/// Number of counter stripes per tree. Threads are dealt stripes
/// round-robin by a process-wide ordinal, so up to this many threads
/// count without ever writing a cache line another thread writes.
const STRIPES: usize = 16;

/// One level's latch traffic in one stripe, indexed by mode (0 = shared,
/// 1 = exclusive): the acquisitions granted, and the sampled hold sums
/// (each sample scaled by the sampling period).
#[derive(Debug, Default)]
struct LevelRow {
    acq: [AtomicU64; 2],
    hold_ns: [AtomicU64; 2],
}

/// One level's queueing, by mode: written only by requests that queued
/// (they already took the lock's queue mutex and are about to block), so
/// one copy per level is shared by every thread.
#[derive(Debug, Default)]
struct LevelWaits {
    contended: [AtomicU64; 2],
    /// Sampled waits, scaled by the sampling period.
    wait_ns: [AtomicU64; 2],
    /// Sampled waits, raw.
    wait_hist: [Histogram; 2],
}

impl LevelWaits {
    /// A queued grant; `shift` is the sampling shift when the grant was
    /// sampled.
    #[cold]
    fn record(&self, mode: usize, wait_ns: u64, shift: Option<u32>) {
        self.contended[mode].fetch_add(1, Ordering::Relaxed);
        if let Some(shift) = shift {
            self.wait_ns[mode].fetch_add(wait_ns << shift, Ordering::Relaxed);
            self.wait_hist[mode].record(wait_ns);
        }
    }
}

/// One thread's (or a few threads') share of a tree's counters, on
/// cache lines of its own: 128-byte alignment also keeps the adjacent-
/// line prefetcher from coupling neighbouring stripes.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe {
    ops: AtomicU64,
    /// Latch traffic per level, `level - 1` (0 = leaves).
    levels: [LevelRow; MAX_LEVELS],
    restarts: AtomicU64,
    chases: AtomicU64,
    splits: AtomicU64,
    peak_chain: AtomicU64,
    txn_commits: AtomicU64,
    txn_spills: AtomicU64,
    v_validations: AtomicU64,
    v_restarts_writer: AtomicU64,
    v_restarts_version: AtomicU64,
    /// Keys inserted minus keys removed through this stripe, wrapping:
    /// a thread may remove what another inserted, so one stripe can go
    /// "negative" while the wrapping sum over all stripes stays exact.
    len_delta: AtomicUsize,
}

const _: () = {
    assert!(std::mem::align_of::<Stripe>() >= 64);
    assert!(std::mem::size_of::<OpCounters>() <= 24 * 1024);
};

/// The row of a level (1 = leaf); deeper levels fold into the last.
#[inline]
fn level_index(level: usize) -> usize {
    level.clamp(1, MAX_LEVELS) - 1
}

/// The calling thread's stripe index: a process-wide ordinal dealt on a
/// thread's first count and kept for its lifetime.
#[inline]
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o) % STRIPES
}

/// Relaxed-atomic operation counters embedded in every tree, and the
/// tree's lock statistics: the [`LockSink`] every node latch reports to.
///
/// The counters are **striped**: each thread increments its own
/// cache-line-aligned [`Stripe`] (picked from a thread-local ordinal),
/// so counting an operation, a latch or a hold never writes a line
/// another running thread writes. A stripe keeps one row per level, so
/// a latch step costs one stripe lookup and one row. Every reader sums
/// the stripes, so [`OpCounters::snapshot`] (and the tree's `len`) keep
/// their exact-sum meaning; diff two snapshots with
/// [`OpCountersSnapshot::since`].
///
/// Lock statistics are kept per level, the paper's unit: one
/// representative FCFS queue per level. Each grant is recorded at the
/// level its node had when granted (the lock's tag), and so is its hold,
/// even when the node is retired inside it; a recycled slot therefore
/// brings no history into its new level. Holds and waits are timed for a
/// systematic 1-in-N sample of each stripe's grants at each level.
#[derive(Debug, Default)]
pub(crate) struct OpCounters {
    /// Log2 of the sampling period; set at construction.
    sample_shift: u32,
    stripes: [Stripe; STRIPES],
    waits: [LevelWaits; MAX_LEVELS],
}

impl OpCounters {
    /// Counters whose lock statistics time one in `sample.period()`
    /// grants per stripe and level.
    pub(crate) fn new(sample: SamplePeriod) -> Self {
        OpCounters {
            sample_shift: sample.period().trailing_zeros(),
            ..OpCounters::default()
        }
    }

    #[inline]
    fn mine(&self) -> &Stripe {
        &self.stripes[stripe_index()]
    }

    /// The calling thread's lock-statistics sink.
    #[inline]
    pub(crate) fn sink(&self) -> StripeSink<'_> {
        StripeSink {
            counters: self,
            stripe: self.mine(),
        }
    }

    fn sum(&self, field: impl Fn(&Stripe) -> &AtomicU64) -> u64 {
        self.stripes
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    /// One public operation (get/insert/remove/contains/range) started.
    #[inline]
    pub(crate) fn record_op(&self) {
        self.mine().ops.fetch_add(1, Ordering::Relaxed);
    }

    /// An optimistic first pass found an unsafe leaf and redid the
    /// operation as a full exclusive descent.
    #[inline]
    pub(crate) fn record_restart(&self) {
        self.mine().restarts.fetch_add(1, Ordering::Relaxed);
        cbtree_obs::trace::restart();
    }

    /// A traversal chased one right link (Lehman–Yao crossing).
    #[inline]
    pub(crate) fn record_chase(&self) {
        self.mine().chases.fetch_add(1, Ordering::Relaxed);
        cbtree_obs::trace::chase();
    }

    /// One node split (any level, any protocol) — the SMO rate the
    /// continuous metrics sampler turns into splits/s per window.
    #[inline]
    pub(crate) fn record_split(&self) {
        self.mine().splits.fetch_add(1, Ordering::Relaxed);
    }

    /// One optimistic (latch-free) node read attempted, ending in a
    /// version validation — the OLC reader's unit of work.
    #[inline]
    pub(crate) fn record_validation(&self) {
        self.mine().v_validations.fetch_add(1, Ordering::Relaxed);
    }

    /// An optimistic read window failed and the descent restarted from
    /// its deepest still-valid ancestor. `writer_blocked` attributes the
    /// cause: a writer held the node when the window closed (the reader
    /// must wait it out) versus a version advance (the node changed
    /// inside the window). Counts into the shared `restarts` total so
    /// OLC restarts flow through the same restart-rate plumbing as the
    /// Optimistic protocol's redo descents.
    #[inline]
    pub(crate) fn record_olc_restart(&self, writer_blocked: bool) {
        let stripe = self.mine();
        if writer_blocked {
            stripe.v_restarts_writer.fetch_add(1, Ordering::Relaxed);
        } else {
            stripe.v_restarts_version.fetch_add(1, Ordering::Relaxed);
        }
        self.record_restart();
    }

    /// Observes a retained latch-chain depth; keeps the maximum. The
    /// load-first test keeps the steady state (depth already seen) a
    /// read of the thread's own line instead of an RMW per operation.
    #[inline]
    pub(crate) fn note_chain_depth(&self, depth: usize) {
        let peak = &self.mine().peak_chain;
        if peak.load(Ordering::Relaxed) < depth as u64 {
            peak.fetch_max(depth as u64, Ordering::Relaxed);
        }
    }

    /// A transaction committed (recovery variants only).
    #[inline]
    pub(crate) fn record_txn_commit(&self) {
        self.mine().txn_commits.fetch_add(1, Ordering::Relaxed);
        cbtree_obs::trace::txn_commit();
    }

    /// Retained transaction latches were spilled early to stay
    /// deadlock-free (recovery variants only).
    #[inline]
    pub(crate) fn record_txn_spill(&self) {
        self.mine().txn_spills.fetch_add(1, Ordering::Relaxed);
        cbtree_obs::trace::txn_spill();
    }

    /// One key entered the tree (an insert that did not replace).
    #[inline]
    pub(crate) fn key_added(&self) {
        self.mine().len_delta.fetch_add(1, Ordering::AcqRel);
    }

    /// One key left the tree (a remove that found its key).
    #[inline]
    pub(crate) fn key_removed(&self) {
        self.mine().len_delta.fetch_sub(1, Ordering::AcqRel);
    }

    /// Keys stored: the wrapping sum of every stripe's delta. Exact
    /// whenever the tree is quiescent. Under concurrent updates the
    /// stripes are read one after another, so the sum can miss an
    /// insert whose matching remove (on a later-read stripe) it sees;
    /// such a transiently negative sum reads as 0, never as a huge
    /// wrapped count.
    pub(crate) fn len(&self) -> usize {
        let sum = self.stripes.iter().fold(0usize, |n, s| {
            n.wrapping_add(s.len_delta.load(Ordering::Acquire))
        });
        (sum as isize).max(0) as usize
    }

    /// A point-in-time copy of every counter, summed over the stripes.
    pub(crate) fn snapshot(&self) -> OpCountersSnapshot {
        let per_level = |mode: usize| std::array::from_fn(|i| self.sum(|s| &s.levels[i].acq[mode]));
        OpCountersSnapshot {
            ops: self.sum(|s| &s.ops),
            r_latches: per_level(0),
            w_latches: per_level(1),
            restarts: self.sum(|s| &s.restarts),
            chases: self.sum(|s| &s.chases),
            splits: self.sum(|s| &s.splits),
            peak_chain: self
                .stripes
                .iter()
                .map(|s| s.peak_chain.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
            txn_commits: self.sum(|s| &s.txn_commits),
            txn_spills: self.sum(|s| &s.txn_spills),
            v_validations: self.sum(|s| &s.v_validations),
            v_restarts_writer: self.sum(|s| &s.v_restarts_writer),
            v_restarts_version: self.sum(|s| &s.v_restarts_version),
        }
    }

    /// The lock statistics of `level` (1 = leaf), summed over the
    /// stripes. As in `LockStats::snapshot`, the zero bucket of each wait
    /// histogram is reconstructed: an uncontended grant records no wait,
    /// so bucket 0 gains *sampled grants − recorded waits*, the sampled
    /// grants being `⌈acquisitions / N⌉` per stripe.
    pub(crate) fn level_snapshot(&self, level: usize) -> LockStatsSnapshot {
        let i = level_index(level);
        let waits = &self.waits[i];
        // Histograms before the acquisition counts: a recorded wait was
        // counted as a grant first, so this order never sees more waits
        // than sampled grants.
        let mut hist = waits.wait_hist.each_ref().map(Histogram::snapshot);
        let mask = (1u64 << self.sample_shift) - 1;
        let (mut acq, mut sampled, mut hold) = ([0u64; 2], [0u64; 2], [0u64; 2]);
        for row in self.stripes.iter().map(|s| &s.levels[i]) {
            for m in 0..2 {
                let a = row.acq[m].load(Ordering::Relaxed);
                acq[m] += a;
                sampled[m] += (a + mask) >> self.sample_shift;
                hold[m] += row.hold_ns[m].load(Ordering::Relaxed);
            }
        }
        for (h, n) in hist.iter_mut().zip(sampled) {
            h.counts[0] += n.saturating_sub(h.total());
        }
        let load = |a: &[AtomicU64; 2]| a.each_ref().map(|x| x.load(Ordering::Relaxed));
        let (contended, wait_ns) = (load(&waits.contended), load(&waits.wait_ns));
        LockStatsSnapshot {
            r_acquires: acq[0],
            w_acquires: acq[1],
            r_contended: contended[0],
            w_contended: contended[1],
            r_wait_ns: wait_ns[0],
            w_wait_ns: wait_ns[1],
            r_hold_ns: hold[0],
            w_hold_ns: hold[1],
            r_wait_hist: hist[0],
            w_wait_hist: hist[1],
        }
    }
}

/// The sink the tree's node latches report to: the calling thread's
/// stripe, resolved once per latch step, so the release that ends the
/// hold finds it without a second thread-local lookup. The lock's tag is
/// the node's level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StripeSink<'a> {
    counters: &'a OpCounters,
    stripe: &'a Stripe,
}

impl LockSink for StripeSink<'_> {
    #[inline]
    fn granted(&self, tag: u16, exclusive: bool, queued_ns: Option<u64>) -> bool {
        let (i, mode) = (level_index(usize::from(tag)), usize::from(exclusive));
        let shift = self.counters.sample_shift;
        let prev = self.stripe.levels[i].acq[mode].fetch_add(1, Ordering::Relaxed);
        let sampled = prev & ((1u64 << shift) - 1) == 0;
        if let Some(wait_ns) = queued_ns {
            self.counters.waits[i].record(mode, wait_ns, sampled.then_some(shift));
        }
        sampled
    }

    #[inline]
    fn released(&self, tag: u16, exclusive: bool, hold_ns: u64) {
        let row = &self.stripe.levels[level_index(usize::from(tag))];
        row.hold_ns[usize::from(exclusive)]
            .fetch_add(hold_ns << self.counters.sample_shift, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a tree's counters, with derived rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCountersSnapshot {
    /// Public operations started.
    pub ops: u64,
    /// Shared latch acquisitions, indexed by `level - 1` (0 = leaves).
    pub r_latches: [u64; MAX_LEVELS],
    /// Exclusive latch acquisitions, indexed by `level - 1`.
    pub w_latches: [u64; MAX_LEVELS],
    /// Optimistic restarts (unsafe-leaf redo descents).
    pub restarts: u64,
    /// Right-link chases.
    pub chases: u64,
    /// Node splits (any level) — the structure-modification rate.
    pub splits: u64,
    /// Peak retained latch-chain depth observed (monotone over the
    /// tree's lifetime; `since` keeps the later snapshot's value).
    pub peak_chain: u64,
    /// Transaction commits (recovery variants).
    pub txn_commits: u64,
    /// Early transaction-latch spills for deadlock avoidance.
    pub txn_spills: u64,
    /// Optimistic (latch-free) node reads attempted, each ending in a
    /// version validation (OLC only; 0 elsewhere).
    pub v_validations: u64,
    /// OLC restarts caused by a writer holding the node when the read
    /// window closed.
    pub v_restarts_writer: u64,
    /// OLC restarts caused by the node's version advancing inside the
    /// read window.
    pub v_restarts_version: u64,
}

impl OpCountersSnapshot {
    /// Counters accumulated since `earlier` (peak depth, being a
    /// lifetime maximum, is carried over rather than subtracted).
    pub fn since(&self, earlier: &OpCountersSnapshot) -> OpCountersSnapshot {
        let mut r_latches = [0u64; MAX_LEVELS];
        let mut w_latches = [0u64; MAX_LEVELS];
        for i in 0..MAX_LEVELS {
            r_latches[i] = self.r_latches[i].saturating_sub(earlier.r_latches[i]);
            w_latches[i] = self.w_latches[i].saturating_sub(earlier.w_latches[i]);
        }
        OpCountersSnapshot {
            ops: self.ops.saturating_sub(earlier.ops),
            r_latches,
            w_latches,
            restarts: self.restarts.saturating_sub(earlier.restarts),
            chases: self.chases.saturating_sub(earlier.chases),
            splits: self.splits.saturating_sub(earlier.splits),
            peak_chain: self.peak_chain,
            txn_commits: self.txn_commits.saturating_sub(earlier.txn_commits),
            txn_spills: self.txn_spills.saturating_sub(earlier.txn_spills),
            v_validations: self.v_validations.saturating_sub(earlier.v_validations),
            v_restarts_writer: self
                .v_restarts_writer
                .saturating_sub(earlier.v_restarts_writer),
            v_restarts_version: self
                .v_restarts_version
                .saturating_sub(earlier.v_restarts_version),
        }
    }

    /// Shared latch acquisitions across all levels.
    pub fn r_latch_total(&self) -> u64 {
        self.r_latches.iter().sum()
    }

    /// Exclusive latch acquisitions across all levels.
    pub fn w_latch_total(&self) -> u64 {
        self.w_latches.iter().sum()
    }

    /// Optimistic restarts per operation (0 when no ops ran).
    pub fn restart_rate(&self) -> f64 {
        per_op(self.restarts, self.ops)
    }

    /// Right-link chases per operation (0 when no ops ran).
    pub fn chase_rate(&self) -> f64 {
        per_op(self.chases, self.ops)
    }

    /// Latch acquisitions (both modes) per operation.
    pub fn latches_per_op(&self) -> f64 {
        per_op(self.r_latch_total() + self.w_latch_total(), self.ops)
    }

    /// Optimistic version validations per operation (0 outside OLC).
    pub fn validation_rate(&self) -> f64 {
        per_op(self.v_validations, self.ops)
    }

    /// JSON object of every counter. The per-level arrays are trimmed at
    /// the deepest level with any activity (leaves first, index 0 =
    /// level 1), so artifacts stay compact for shallow trees.
    pub fn to_json(&self) -> cbtree_obs::Json {
        use cbtree_obs::Json;
        let trim = |arr: &[u64; MAX_LEVELS]| {
            let len = arr.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            Json::arr(arr[..len].iter().map(|&c| c.into()))
        };
        Json::obj(vec![
            ("ops", self.ops.into()),
            ("r_latches", trim(&self.r_latches)),
            ("w_latches", trim(&self.w_latches)),
            ("restarts", self.restarts.into()),
            ("chases", self.chases.into()),
            ("splits", self.splits.into()),
            ("peak_chain", self.peak_chain.into()),
            ("txn_commits", self.txn_commits.into()),
            ("txn_spills", self.txn_spills.into()),
            ("v_validations", self.v_validations.into()),
            ("v_restarts_writer", self.v_restarts_writer.into()),
            ("v_restarts_version", self.v_restarts_version.into()),
        ])
    }
}

fn per_op(count: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        count as f64 / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_and_rates() {
        let c = OpCounters::default();
        for _ in 0..10 {
            c.record_op();
        }
        let sink = c.sink();
        sink.granted(1, false, None);
        sink.granted(1, true, None);
        sink.granted(3, true, None);
        sink.granted(100, true, None); // clamps into the last slot
        c.record_restart();
        c.record_chase();
        c.record_chase();
        c.record_split();
        c.record_validation();
        c.record_validation();
        c.record_validation();
        c.record_olc_restart(true);
        c.record_olc_restart(false);
        c.record_olc_restart(false);
        c.note_chain_depth(2);
        c.note_chain_depth(5);
        c.note_chain_depth(3); // max is kept
        let a = c.snapshot();
        assert_eq!(a.ops, 10);
        assert_eq!(a.r_latches[0], 1);
        assert_eq!(a.w_latches[0], 1);
        assert_eq!(a.w_latches[2], 1);
        assert_eq!(a.w_latches[MAX_LEVELS - 1], 1);
        assert_eq!(a.w_latch_total(), 3);
        // One plain restart plus three OLC restarts, which flow into the
        // shared total and split by cause.
        assert_eq!(a.restart_rate(), 0.4);
        assert_eq!(a.v_validations, 3);
        assert_eq!(a.v_restarts_writer, 1);
        assert_eq!(a.v_restarts_version, 2);
        assert_eq!(a.validation_rate(), 0.3);
        assert_eq!(a.chase_rate(), 0.2);
        assert_eq!(a.splits, 1);
        assert_eq!(a.peak_chain, 5);

        for _ in 0..10 {
            c.record_op();
        }
        c.record_txn_commit();
        c.record_txn_spill();
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.ops, 10);
        assert_eq!(d.restarts, 0);
        assert_eq!(d.v_validations, 0);
        assert_eq!(d.v_restarts_writer, 0);
        assert_eq!(d.v_restarts_version, 0);
        assert_eq!(d.txn_commits, 1);
        assert_eq!(d.txn_spills, 1);
        assert_eq!(d.peak_chain, 5, "peak carries over");
        assert_eq!(d.w_latch_total(), 0);
    }

    #[test]
    fn len_sums_the_stripes_and_never_wraps() {
        let c = OpCounters::default();
        c.key_added();
        c.key_added();
        // Another thread (another stripe) removes what this one added.
        std::thread::scope(|s| {
            s.spawn(|| c.key_removed());
        });
        assert_eq!(c.len(), 1);
        // A sum caught below zero — a remove counted before the insert
        // it undoes — reads as empty.
        std::thread::scope(|s| {
            s.spawn(|| {
                c.key_removed();
                c.key_removed();
            });
        });
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let s = OpCountersSnapshot::default();
        assert_eq!(s.restart_rate(), 0.0);
        assert_eq!(s.chase_rate(), 0.0);
        assert_eq!(s.latches_per_op(), 0.0);
    }
}
