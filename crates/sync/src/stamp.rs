//! The clock lock statistics read: [`Stamp`], a raw tick reading.
//!
//! Exact lock statistics read the clock once per latch step, so the
//! reading is the largest cost timing adds to a descent. `Instant::now`
//! is a `clock_gettime`: a fenced counter read plus a seqlock and a
//! scaling. A `Stamp` is the counter read alone — on x86_64 the
//! time-stamp counter (`rdtsc`, unordered), elsewhere nanoseconds since a
//! process epoch taken from `Instant`. Holds are measured and summed in
//! raw ticks; a sum becomes nanoseconds only when a statistics snapshot
//! is built ([`Stamp::ticks_to_ns`]), through one ratio per process,
//! calibrated once against `Instant`. Converting sums rather than each
//! hold keeps handed-over holds telescoping exactly: the tick sum of a
//! chain is its last stamp minus its first.
//!
//! # Precision
//!
//! `rdtsc` is not ordered against the acquire's CAS, so a stamp may be
//! taken a few nanoseconds before or after the instruction it stands
//! for. That is within the one acquire every timed hold already covers
//! (a hold runs from just before its own acquire). The time-stamp counter is
//! invariant and synchronised across cores on every x86_64 part this
//! workspace targets; a stamp taken on one core may still read a few
//! ticks behind an earlier one taken on another, so every difference
//! saturates at zero and never wraps.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Binary point of the tick → ns ratio: `ns = ticks × scale >> 32`.
const SCALE_SHIFT: u32 = 32;

/// How long the one calibration of a process measures the tick rate.
const CALIBRATION: Duration = Duration::from_millis(2);

/// A raw tick reading of the clock lock statistics use. Differences of
/// stamps are ticks; [`Stamp::ticks_to_ns`] converts ticks to ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(u64);

impl Stamp {
    /// Reads the clock.
    #[inline]
    pub fn now() -> Stamp {
        Stamp(ticks())
    }

    /// Ticks from `earlier` to `self`; 0 when `earlier` is the later
    /// reading (a stamp taken on another core may lag by a few ticks).
    #[inline]
    pub fn ticks_since(self, earlier: Stamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Nanoseconds from `earlier` to `self`, 0 when `earlier` is later.
    pub(crate) fn ns_since(self, earlier: Stamp) -> u64 {
        Stamp::ticks_to_ns(self.ticks_since(earlier))
    }

    /// Converts a tick count (a difference or a sum of differences) to
    /// nanoseconds. The first conversion of a process calibrates the
    /// ratio, which takes a few milliseconds; building a lock pays that
    /// up front.
    pub fn ticks_to_ns(ticks: u64) -> u64 {
        to_ns(ticks, scale())
    }

    /// Calibrates the tick → ns ratio now unless it already is. Every
    /// lock calls it at construction, so a queued grant's wait never
    /// calibrates while a latch is held.
    pub(crate) fn calibrate() {
        scale();
    }
}

/// The clock: the time-stamp counter.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` is in the x86_64 baseline and reads a counter; it
    // has no memory operands and no preconditions.
    #[allow(unsafe_code)]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
}

/// The clock: nanoseconds since the process epoch.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    epoch_ns()
}

/// Nanoseconds since a process epoch, from `Instant`: the clock where no
/// time-stamp counter is read, and the reference a counter is calibrated
/// against.
fn epoch_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let ns = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// `ticks × scale >> SCALE_SHIFT`, saturating.
fn to_ns(ticks: u64, scale: u64) -> u64 {
    let ns = (u128::from(ticks) * u128::from(scale)) >> SCALE_SHIFT;
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// The process's tick → ns ratio in fixed point (`1 << SCALE_SHIFT` is
/// one ns per tick), calibrated on first use.
fn scale() -> u64 {
    static SCALE: OnceLock<u64> = OnceLock::new();
    *SCALE.get_or_init(|| {
        if cfg!(target_arch = "x86_64") {
            calibrate(ticks, CALIBRATION)
        } else {
            1 << SCALE_SHIFT
        }
    })
}

/// Measures `read`'s ticks against [`epoch_ns`] over at least `span`,
/// and returns ns per tick in fixed point.
fn calibrate(read: fn() -> u64, span: Duration) -> u64 {
    let (t0, ns0) = pair(read);
    std::thread::sleep(span);
    let (t1, ns1) = pair(read);
    let ns = u128::from(ns1.saturating_sub(ns0));
    let ticks = u128::from(t1.saturating_sub(t0).max(1));
    u64::try_from((ns << SCALE_SHIFT) / ticks).unwrap_or(u64::MAX)
}

/// One `(ticks, ns)` point: an [`epoch_ns`] reading bracketed by two
/// `read`s, paired with their midpoint. Of a few tries the tightest
/// bracket wins, so a preemption between the reads cannot skew it.
fn pair(read: fn() -> u64) -> (u64, u64) {
    (0..8)
        .map(|_| {
            let a = read();
            let ns = epoch_ns();
            let b = read();
            let gap = b.saturating_sub(a);
            (gap, a + gap / 2, ns)
        })
        .min_by_key(|&(gap, ..)| gap)
        .map(|(_, t, ns)| (t, ns))
        .expect("eight tries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn monotone_within_a_thread_and_across_a_hand_off() {
        let mut last = Stamp::now();
        for _ in 0..10_000 {
            let now = Stamp::now();
            assert!(now >= last, "{now:?} read before {last:?}");
            last = now;
        }
        // Ping-pong stamps between two threads: each side's reading is
        // no earlier than the one it was handed.
        let (to_b, from_a) = mpsc::channel::<Stamp>();
        let (to_a, from_b) = mpsc::channel::<Stamp>();
        std::thread::scope(|s| {
            s.spawn(move || {
                for sent in from_a {
                    let now = Stamp::now();
                    assert!(now >= sent, "thread B read {now:?} after {sent:?}");
                    to_a.send(now).expect("thread A waits");
                }
            });
            for _ in 0..1_000 {
                let sent = Stamp::now();
                to_b.send(sent).expect("thread B waits");
                let back = from_b.recv().expect("thread B answers");
                assert!(back >= sent);
                assert!(Stamp::now() >= back, "thread A read behind B");
            }
            drop(to_b);
        });
    }

    #[test]
    fn ns_ratio_matches_instant_over_20_ms() {
        // Bracket the stamps with `Instant`s on both sides: the stamps'
        // interval lies between the inner and the outer one, whatever
        // the scheduler does between the reads.
        let outer0 = Instant::now();
        let s0 = Stamp::now();
        let inner0 = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let inner1 = Instant::now();
        let s1 = Stamp::now();
        let outer1 = Instant::now();
        let (lo, hi) = ((inner1 - inner0).as_nanos(), (outer1 - outer0).as_nanos());
        let ns = u128::from(s1.ns_since(s0));
        assert!(
            ns * 1000 >= lo * 995 && ns * 1000 <= hi * 1005,
            "{ns} ns by stamp, {lo}..={hi} ns by Instant"
        );
    }

    #[test]
    fn an_earlier_than_reference_stamp_reads_zero() {
        // A hold whose end was read on a core lagging its start's.
        let start = Stamp::now();
        let end = Stamp(start.0 - 5);
        assert_eq!(end.ticks_since(start), 0);
        assert_eq!(end.ns_since(start), 0);
        assert_eq!(Stamp(0).ns_since(Stamp(u64::MAX)), 0);
        // The far end neither wraps nor overflows the conversion.
        assert_eq!(Stamp(u64::MAX).ticks_since(Stamp(0)), u64::MAX);
        assert_eq!(to_ns(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(to_ns(u64::MAX, 1 << SCALE_SHIFT), u64::MAX);
    }

    #[test]
    fn epoch_fallback_counts_nanoseconds() {
        // The clock of targets without a time-stamp counter, exercised
        // here: monotone, one ns per tick, and calibrating it against
        // itself yields the identity ratio its targets use.
        let a = epoch_ns();
        std::thread::sleep(Duration::from_millis(1));
        let b = epoch_ns();
        assert!(b - a >= 1_000_000, "{a} → {b}");
        assert_eq!(to_ns(b - a, 1 << SCALE_SHIFT), b - a);
        let scale = calibrate(epoch_ns, Duration::from_millis(20));
        let one = 1u64 << SCALE_SHIFT;
        assert!(
            scale.abs_diff(one) <= one / 200,
            "self-calibration {scale} vs {one}"
        );
    }
}
