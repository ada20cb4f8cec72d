//! Lock observability: the [`LockSink`] a lock reports to, and the
//! per-lock sink [`LockStats`] with its snapshot.
//!
//! A lock owns no counters; it reports each grant and timed hold to a
//! sink (see the lock's module docs). A standalone [`crate::FcfsRwLock`]
//! reports to its own [`LockStats`]; the B-tree reports to per-level
//! accumulators of its own and builds the same [`LockStatsSnapshot`]
//! from them. Recording uses relaxed atomics only — no extra
//! synchronization on the hot path — and snapshots can be diffed across a
//! measurement window and merged across locks. The derived quantities are
//! exactly the observables of the paper's queueing model: writer
//! utilization `ρ_w = Σ hold_W / elapsed`, mean reader/writer waits, and
//! contention rates.
//!
//! # Exact and sampled timing
//!
//! A clock reading costs more than an uncontended acquisition itself. A
//! lone acquisition pays two (grant and release); a descent that hands
//! one latch over to the next pays one per latch step plus one, because
//! the reading that ends one hold starts the next (see the lock's
//! "hand-over" docs). That makes an exact hold sum exact up to one
//! uncontended acquire (a CAS, roughly 10–20 ns) per hold: a handed-over
//! hold starts just before its own acquire, or, in crab order, ends just
//! after the child's. Waits are unaffected: a contended grant reads the
//! clock itself.
//!
//! Duration measurement is optionally **1-in-N sampled** (see
//! [`SamplePeriod`]), which never reads more clocks than exact timing
//! of the same acquisitions would. Acquisition and contention
//! *counts* are always exact; only the wait/hold *durations* are sampled.
//! A sampled duration is added to the running sums as `dur × N`, which
//! keeps every sum — and therefore `writer_utilization` and the mean-wait
//! estimators, which divide those sums by exact denominators — unbiased:
//! `E[Σ scaled] = N · (1/N) · Σ true = Σ true`. Histograms record the raw
//! (unscaled) sampled values; because the sample is a deterministic
//! 1-in-N systematic sample of the acquisition stream, bucket
//! *proportions* and quantiles remain representative while `total()`
//! reflects only the sampled count.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// How often wait/hold durations are measured: one acquisition in
/// `period()` is timed, and its duration is scaled by `period()` when
/// added to the stat sums so estimators stay unbiased.
///
/// Periods are powers of two (the sampling decision is a mask test on the
/// acquisition counter). [`SamplePeriod::EXACT`] (N=1) times everything —
/// it is the default and preserves the crate's original behavior. When
/// the `inject` cargo feature is enabled the effective period is forced
/// to 1 so the check pillar's schedule perturbation sees unchanged
/// timing behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplePeriod {
    shift: u32,
}

impl SamplePeriod {
    /// Time every acquisition (N = 1).
    pub const EXACT: SamplePeriod = SamplePeriod { shift: 0 };

    /// Time one in `n` acquisitions, with `n` rounded **up** to the next
    /// power of two (`every(0)` and `every(1)` are [`Self::EXACT`]).
    pub fn every(n: u64) -> SamplePeriod {
        SamplePeriod {
            shift: n.max(1).next_power_of_two().trailing_zeros(),
        }
    }

    /// The sampling period N (a power of two).
    pub fn period(self) -> u64 {
        1u64 << self.effective_shift()
    }

    #[inline]
    pub(crate) fn effective_shift(self) -> u32 {
        if cfg!(feature = "inject") {
            0
        } else {
            self.shift
        }
    }
}

impl Default for SamplePeriod {
    fn default() -> Self {
        SamplePeriod::EXACT
    }
}

/// Where a lock reports what it observed. The lock calls
/// [`LockSink::granted`] once per grant and [`LockSink::released`] once
/// per hold the sink chose to time, always while the latch is held.
pub trait LockSink {
    /// One grant in the given mode, on a lock tagged `tag` (see
    /// [`crate::FcfsRwLock::set_trace_tag`]). `queued_ns` is how long
    /// the request waited in the FCFS queue, `None` when it was granted
    /// without queueing. Returns whether to time this hold.
    fn granted(&self, tag: u16, exclusive: bool, queued_ns: Option<u64>) -> bool;

    /// A timed hold ended after `hold_ns`; `tag` and `exclusive` are its
    /// grant's.
    fn released(&self, tag: u16, exclusive: bool, hold_ns: u64);
}

impl<S: LockSink + ?Sized> LockSink for &S {
    #[inline]
    fn granted(&self, tag: u16, exclusive: bool, queued_ns: Option<u64>) -> bool {
        (**self).granted(tag, exclusive, queued_ns)
    }

    #[inline]
    fn released(&self, tag: u16, exclusive: bool, hold_ns: u64) {
        (**self).released(tag, exclusive, hold_ns);
    }
}

/// `None` records nothing and times nothing.
impl<S: LockSink> LockSink for Option<S> {
    #[inline]
    fn granted(&self, tag: u16, exclusive: bool, queued_ns: Option<u64>) -> bool {
        self.as_ref()
            .is_some_and(|s| s.granted(tag, exclusive, queued_ns))
    }

    #[inline]
    fn released(&self, tag: u16, exclusive: bool, hold_ns: u64) {
        if let Some(s) = self {
            s.released(tag, exclusive, hold_ns);
        }
    }
}

/// The sink that holds nothing: records nothing and times nothing.
impl LockSink for () {
    #[inline]
    fn granted(&self, _: u16, _: bool, _: Option<u64>) -> bool {
        false
    }

    #[inline]
    fn released(&self, _: u16, _: bool, _: u64) {}
}

/// One lock's counters: the sink of a standalone [`crate::FcfsRwLock`].
#[derive(Debug, Default)]
pub struct LockStats {
    /// Log2 of the sampling period; set at construction, before the lock
    /// is shared, and read-only afterwards.
    sample_shift: u32,
    pub(crate) r_acquires: AtomicU64,
    pub(crate) w_acquires: AtomicU64,
    pub(crate) r_contended: AtomicU64,
    pub(crate) w_contended: AtomicU64,
    pub(crate) r_wait_ns: AtomicU64,
    pub(crate) w_wait_ns: AtomicU64,
    pub(crate) r_hold_ns: AtomicU64,
    pub(crate) w_hold_ns: AtomicU64,
    pub(crate) r_wait_hist: Histogram,
    pub(crate) w_wait_hist: Histogram,
}

impl LockStats {
    pub(crate) fn with_sampling(sample: SamplePeriod) -> LockStats {
        LockStats {
            sample_shift: sample.effective_shift(),
            ..LockStats::default()
        }
    }

    /// Counts an acquisition (exact) and decides whether this one is
    /// timed: returns `true` for one acquisition in `2^sample_shift`,
    /// reusing the count itself as the systematic-sampling clock.
    #[inline]
    pub(crate) fn begin_acquire(&self, exclusive: bool) -> bool {
        let acq = if exclusive {
            &self.w_acquires
        } else {
            &self.r_acquires
        };
        let prev = acq.fetch_add(1, Ordering::Relaxed);
        let mask = (1u64 << self.sample_shift) - 1;
        prev & mask == 0
    }

    /// Counts a queued (contended) acquisition. Exact, independent of
    /// sampling.
    #[inline]
    pub(crate) fn record_contended(&self, exclusive: bool) {
        if exclusive {
            self.w_contended.fetch_add(1, Ordering::Relaxed);
        } else {
            self.r_contended.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a sampled wait: the raw value feeds the histogram, the
    /// scaled value (`wait_ns × N`) feeds the unbiased sum. Called only
    /// for requests that left the fast path; the zero waits of
    /// uncontended acquisitions are reconstructed by
    /// [`LockStats::snapshot`].
    #[inline]
    pub(crate) fn record_sampled_wait(&self, exclusive: bool, wait_ns: u64) {
        let (wait, hist) = if exclusive {
            (&self.w_wait_ns, &self.w_wait_hist)
        } else {
            (&self.r_wait_ns, &self.r_wait_hist)
        };
        wait.fetch_add(wait_ns << self.sample_shift, Ordering::Relaxed);
        hist.record(wait_ns);
    }

    /// Records a sampled hold duration, scaled by the sampling period.
    #[inline]
    pub(crate) fn record_sampled_hold(&self, exclusive: bool, hold_ns: u64) {
        let hold = if exclusive {
            &self.w_hold_ns
        } else {
            &self.r_hold_ns
        };
        hold.fetch_add(hold_ns << self.sample_shift, Ordering::Relaxed);
    }

    /// How many of `acquires` acquisitions were sampled for timing: the
    /// systematic sample takes acquisitions 0, N, 2N, … (see
    /// [`LockStats::begin_acquire`]), i.e. `⌈acquires / N⌉` of them.
    fn sampled(&self, acquires: u64) -> u64 {
        let mask = (1u64 << self.sample_shift) - 1;
        (acquires + mask) >> self.sample_shift
    }

    /// A plain-integer copy of the counters at this instant.
    ///
    /// An uncontended acquisition waits 0 ns, and the lock's fast path
    /// does not spend two atomic writes saying so: the zero bucket of
    /// each wait histogram is **reconstructed** here as *sampled
    /// acquisitions − recorded waits*, so `total()`, the quantiles, the
    /// means and the JSON read exactly as if every sampled zero had
    /// been recorded. A request is counted and its wait recorded at its
    /// grant, so the reconstruction is exact whenever no grant is being
    /// reported at the same instant.
    pub fn snapshot(&self) -> LockStatsSnapshot {
        // Histograms before the acquisition counts: a recorded wait was
        // counted as an acquisition first, so this order never sees
        // more waits than sampled acquisitions (the subtraction
        // saturates regardless).
        let mut r_wait_hist = self.r_wait_hist.snapshot();
        let mut w_wait_hist = self.w_wait_hist.snapshot();
        let r_acquires = self.r_acquires.load(Ordering::Relaxed);
        let w_acquires = self.w_acquires.load(Ordering::Relaxed);
        r_wait_hist.counts[0] += self.sampled(r_acquires).saturating_sub(r_wait_hist.total());
        w_wait_hist.counts[0] += self.sampled(w_acquires).saturating_sub(w_wait_hist.total());
        LockStatsSnapshot {
            r_acquires,
            w_acquires,
            r_contended: self.r_contended.load(Ordering::Relaxed),
            w_contended: self.w_contended.load(Ordering::Relaxed),
            r_wait_ns: self.r_wait_ns.load(Ordering::Relaxed),
            w_wait_ns: self.w_wait_ns.load(Ordering::Relaxed),
            r_hold_ns: self.r_hold_ns.load(Ordering::Relaxed),
            w_hold_ns: self.w_hold_ns.load(Ordering::Relaxed),
            r_wait_hist,
            w_wait_hist,
        }
    }
}

impl LockSink for LockStats {
    #[inline]
    fn granted(&self, _tag: u16, exclusive: bool, queued_ns: Option<u64>) -> bool {
        let sampled = self.begin_acquire(exclusive);
        if let Some(wait_ns) = queued_ns {
            self.record_contended(exclusive);
            if sampled {
                self.record_sampled_wait(exclusive, wait_ns);
            }
        }
        sampled
    }

    #[inline]
    fn released(&self, _tag: u16, exclusive: bool, hold_ns: u64) {
        self.record_sampled_hold(exclusive, hold_ns);
    }
}

/// Counters of one lock (or a merged group of locks) at one instant, or
/// the difference of two such snapshots over a measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStatsSnapshot {
    /// Shared acquisitions granted.
    pub r_acquires: u64,
    /// Exclusive acquisitions granted.
    pub w_acquires: u64,
    /// Shared acquisitions that had to queue.
    pub r_contended: u64,
    /// Exclusive acquisitions that had to queue.
    pub w_contended: u64,
    /// Total nanoseconds shared requesters spent queued (sampled timing
    /// is pre-scaled, so this estimates the true total).
    pub r_wait_ns: u64,
    /// Total nanoseconds exclusive requesters spent queued.
    pub w_wait_ns: u64,
    /// Total nanoseconds the lock was held shared (summed over holders).
    pub r_hold_ns: u64,
    /// Total nanoseconds the lock was held exclusively.
    pub w_hold_ns: u64,
    /// Histogram of shared wait times (sampled acquisitions only).
    pub r_wait_hist: HistogramSnapshot,
    /// Histogram of exclusive wait times (sampled acquisitions only).
    pub w_wait_hist: HistogramSnapshot,
}

impl LockStatsSnapshot {
    /// Counters accumulated since `earlier` (field-wise saturating diff).
    pub fn since(&self, earlier: &LockStatsSnapshot) -> LockStatsSnapshot {
        LockStatsSnapshot {
            r_acquires: self.r_acquires.saturating_sub(earlier.r_acquires),
            w_acquires: self.w_acquires.saturating_sub(earlier.w_acquires),
            r_contended: self.r_contended.saturating_sub(earlier.r_contended),
            w_contended: self.w_contended.saturating_sub(earlier.w_contended),
            r_wait_ns: self.r_wait_ns.saturating_sub(earlier.r_wait_ns),
            w_wait_ns: self.w_wait_ns.saturating_sub(earlier.w_wait_ns),
            r_hold_ns: self.r_hold_ns.saturating_sub(earlier.r_hold_ns),
            w_hold_ns: self.w_hold_ns.saturating_sub(earlier.w_hold_ns),
            r_wait_hist: self.r_wait_hist.since(&earlier.r_wait_hist),
            w_wait_hist: self.w_wait_hist.since(&earlier.w_wait_hist),
        }
    }

    /// Adds another snapshot's counters into this one (aggregation across
    /// the locks of a tree level).
    pub fn merge(&mut self, other: &LockStatsSnapshot) {
        self.r_acquires += other.r_acquires;
        self.w_acquires += other.w_acquires;
        self.r_contended += other.r_contended;
        self.w_contended += other.w_contended;
        self.r_wait_ns += other.r_wait_ns;
        self.w_wait_ns += other.w_wait_ns;
        self.r_hold_ns += other.r_hold_ns;
        self.w_hold_ns += other.w_hold_ns;
        self.r_wait_hist.merge(&other.r_wait_hist);
        self.w_wait_hist.merge(&other.w_wait_hist);
    }

    /// Mean exclusive wait in nanoseconds (0 when no acquisitions).
    pub fn mean_w_wait_ns(&self) -> f64 {
        if self.w_acquires == 0 {
            0.0
        } else {
            self.w_wait_ns as f64 / self.w_acquires as f64
        }
    }

    /// Mean shared wait in nanoseconds (0 when no acquisitions).
    pub fn mean_r_wait_ns(&self) -> f64 {
        if self.r_acquires == 0 {
            0.0
        } else {
            self.r_wait_ns as f64 / self.r_acquires as f64
        }
    }

    /// Measured writer utilization over a window of `elapsed_ns`
    /// spanning `locks` locks: `Σ hold_W / (locks · elapsed)` — the live
    /// counterpart of the model's `ρ_w`.
    pub fn writer_utilization(&self, elapsed_ns: u64, locks: u64) -> f64 {
        let denom = elapsed_ns.saturating_mul(locks.max(1));
        if denom == 0 {
            0.0
        } else {
            (self.w_hold_ns as f64 / denom as f64).min(1.0)
        }
    }

    /// Fraction of exclusive acquisitions that queued.
    pub fn w_contention_rate(&self) -> f64 {
        if self.w_acquires == 0 {
            0.0
        } else {
            self.w_contended as f64 / self.w_acquires as f64
        }
    }

    /// JSON object of the raw counters plus derived means, the exclusive
    /// contention rate, and sampled wait quantiles (histogram buckets stay
    /// internal; their p50/p90/p99 upper bounds are what downstream
    /// tooling consumes).
    pub fn to_json(&self) -> cbtree_obs::Json {
        use cbtree_obs::Json;
        let quantiles = |h: &HistogramSnapshot| {
            Json::obj(vec![
                ("p50_ns", h.p50().into()),
                ("p90_ns", h.p90().into()),
                ("p99_ns", h.p99().into()),
                ("p999_ns", h.p999().into()),
            ])
        };
        Json::obj(vec![
            ("r_acquires", self.r_acquires.into()),
            ("w_acquires", self.w_acquires.into()),
            ("r_contended", self.r_contended.into()),
            ("w_contended", self.w_contended.into()),
            ("r_wait_ns", self.r_wait_ns.into()),
            ("w_wait_ns", self.w_wait_ns.into()),
            ("r_hold_ns", self.r_hold_ns.into()),
            ("w_hold_ns", self.w_hold_ns.into()),
            ("mean_r_wait_ns", Json::f64_or_null(self.mean_r_wait_ns())),
            ("mean_w_wait_ns", Json::f64_or_null(self.mean_w_wait_ns())),
            (
                "w_contention_rate",
                Json::f64_or_null(self.w_contention_rate()),
            ),
            ("r_wait", quantiles(&self.r_wait_hist)),
            ("w_wait", quantiles(&self.w_wait_hist)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let s = LockStats::default();
        assert!(s.begin_acquire(false), "first acquisition is sampled");
        assert!(s.begin_acquire(true));
        s.record_contended(true);
        s.record_sampled_wait(false, 100);
        s.record_sampled_wait(true, 200);
        s.record_sampled_hold(false, 1_000);
        s.record_sampled_hold(true, 2_000);
        let snap = s.snapshot();
        assert_eq!(snap.r_acquires, 1);
        assert_eq!(snap.w_acquires, 1);
        assert_eq!(snap.r_contended, 0);
        assert_eq!(snap.w_contended, 1);
        assert_eq!(snap.r_wait_ns, 100);
        assert_eq!(snap.w_wait_ns, 200);
        assert_eq!(snap.r_hold_ns, 1_000);
        assert_eq!(snap.w_hold_ns, 2_000);
        assert_eq!(snap.r_wait_hist.total(), 1);
        assert_eq!(snap.w_wait_hist.total(), 1);
    }

    #[test]
    fn since_and_merge_compose() {
        let s = LockStats::default();
        s.begin_acquire(true);
        s.record_contended(true);
        s.record_sampled_wait(true, 10);
        let a = s.snapshot();
        s.begin_acquire(true);
        s.record_sampled_wait(true, 30);
        s.record_sampled_hold(true, 50);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.w_acquires, 1);
        assert_eq!(d.w_contended, 0);
        assert_eq!(d.w_wait_ns, 30);
        assert_eq!(d.w_hold_ns, 50);
        let mut m = a;
        m.merge(&d);
        assert_eq!(m, b);
    }

    #[test]
    fn derived_metrics() {
        let mut snap = LockStatsSnapshot::default();
        assert_eq!(snap.mean_w_wait_ns(), 0.0);
        assert_eq!(snap.writer_utilization(0, 0), 0.0);
        snap.w_acquires = 4;
        snap.w_contended = 1;
        snap.w_wait_ns = 400;
        snap.w_hold_ns = 500;
        assert_eq!(snap.mean_w_wait_ns(), 100.0);
        assert_eq!(snap.w_contention_rate(), 0.25);
        assert_eq!(snap.writer_utilization(1_000, 1), 0.5);
        assert_eq!(snap.writer_utilization(1_000, 2), 0.25);
        assert_eq!(snap.writer_utilization(100, 1), 1.0, "clamped at 1");
    }

    #[test]
    fn sample_period_rounds_up_to_power_of_two() {
        assert_eq!(SamplePeriod::EXACT.period(), 1);
        assert_eq!(SamplePeriod::every(0), SamplePeriod::EXACT);
        assert_eq!(SamplePeriod::every(1), SamplePeriod::EXACT);
        if cfg!(feature = "inject") {
            // Inject builds force exact timing regardless of the knob.
            assert_eq!(SamplePeriod::every(8).period(), 1);
            return;
        }
        assert_eq!(SamplePeriod::every(2).period(), 2);
        assert_eq!(SamplePeriod::every(5).period(), 8);
        assert_eq!(SamplePeriod::every(8).period(), 8);
        assert_eq!(SamplePeriod::every(1000).period(), 1024);
    }

    #[test]
    fn sampling_selects_one_in_n_and_scales_sums() {
        // Hand-over: a chain alternating a 1-in-4 lock with an exact one,
        // each acquisition carrying the previous release's stamp. Only
        // timed holds return a stamp, and each adds exactly its
        // duration × N.
        use crate::{FcfsRwLock, RwLockWriteGuard};
        let period = SamplePeriod::every(4);
        let one_in_four = FcfsRwLock::with_sampling((), period);
        let exact = FcfsRwLock::new(());
        let (mut carried, mut want, mut timed) = (None, [0u64; 2], 0);
        for i in 0..32 {
            let (lock, scale) = if i % 2 == 0 {
                (&one_in_four, period.period())
            } else {
                (&exact, 1)
            };
            let g = lock.write_after(carried);
            let start = RwLockWriteGuard::hold_start(&g);
            if start.is_some() && carried.is_some() {
                assert_eq!(start, carried, "an uncontended hold starts at the stamp");
            }
            carried = RwLockWriteGuard::release(g, None);
            assert_eq!(start.is_some(), carried.is_some());
            if let (Some(t0), Some(t1)) = (start, carried) {
                want[i % 2] += (t1 - t0).as_nanos() as u64 * scale;
                timed += u64::from(i % 2 == 0);
            }
        }
        assert_eq!(
            timed,
            16 / period.period(),
            "one in N of the sampled lock's"
        );
        assert_eq!(one_in_four.stats().snapshot().w_hold_ns, want[0]);
        assert_eq!(exact.stats().snapshot().w_hold_ns, want[1]);
        assert_eq!(one_in_four.stats().snapshot().w_acquires, 16);

        let s = LockStats::with_sampling(SamplePeriod::every(4));
        let mut sampled = 0;
        for _ in 0..16 {
            if s.begin_acquire(true) {
                sampled += 1;
                s.record_sampled_wait(true, 100);
                s.record_sampled_hold(true, 100);
            }
        }
        let snap = s.snapshot();
        assert_eq!(snap.w_acquires, 16, "counts stay exact");
        if cfg!(feature = "inject") {
            assert_eq!(sampled, 16);
            assert_eq!(snap.w_wait_ns, 1_600);
            return;
        }
        assert_eq!(sampled, 4, "acquisitions 0, 4, 8, 12 are sampled");
        // Each sampled 100ns contributes 100 << 2 = 400 to the sum, so the
        // estimated total equals the true total (16 × 100).
        assert_eq!(snap.w_wait_ns, 1_600);
        assert_eq!(snap.w_hold_ns, 1_600);
        assert_eq!(snap.w_wait_hist.total(), 4, "histogram holds raw samples");
    }
}
