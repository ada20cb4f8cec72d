//! Log-bucketed duration histogram with lock-free recording.
//!
//! Bucket `b` holds observations whose nanosecond value has `b`
//! significant bits, i.e. durations in `[2^(b-1), 2^b)` ns (bucket 0 is
//! exactly 0 ns). Recording is a single relaxed `fetch_add`, so writer
//! threads never serialize on the histogram itself — the property the
//! measurement harness needs to observe lock waits without creating a
//! second contention point.

use cbtree_obs::metrics::{bucket_of, bucket_quantile, BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free log₂-bucketed histogram of nanosecond durations (the
/// bucket scheme is `cbtree_obs::metrics`').
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation (relaxed; safe from any thread).
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (c, b) in counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { counts }
    }
}

/// A plain-integer copy of a [`Histogram`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub counts: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Counts recorded since `earlier` (bucket-wise saturating diff).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (c, (a, b)) in counts
            .iter_mut()
            .zip(self.counts.iter().zip(&earlier.counts))
        {
            *c = a.saturating_sub(*b);
        }
        HistogramSnapshot { counts }
    }

    /// Adds another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Approximate quantile in nanoseconds, interpolated inside the log₂
    /// bucket the rank lands in (see [`bucket_quantile`]): 0 when empty,
    /// `q` clamped into `[0.0, 1.0]`, NaN acting as 0.
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(&self.counts, q)
    }

    /// Median (50th percentile), in nanoseconds. 0 when empty.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile, in nanoseconds. 0 when empty.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile, in nanoseconds. 0 when empty.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile, in nanoseconds — the tail-latency quantile
    /// every latency report leads with. 0 when empty.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_obs::metrics::WindowSnapshot;
    use cbtree_workload::Rng;

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(100); // 7 bits
        h.record(100);
        let s = h.snapshot();
        assert_eq!(s.total(), 4);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[bucket_of(100)], 2);
    }

    /// Seeded property test of the one quantile core through both
    /// snapshot families: monotone in `q`, inside the bucket the rank
    /// lands in, and `HistogramSnapshot` agrees with `WindowSnapshot`
    /// for `q < 1` whenever the window's exact max does not clamp.
    #[test]
    fn quantile_is_monotone_in_bucket_and_family_agnostic() {
        let mut rng = Rng::new(0x5EED);
        for round in 0..200 {
            let h = Histogram::new();
            let mut samples: Vec<u64> = (0..1 + rng.next_below(300))
                .map(|_| rng.next_u64() >> rng.next_below(64))
                .collect();
            samples.iter().for_each(|&ns| h.record(ns));
            samples.sort_unstable();
            let s = h.snapshot();
            let w = WindowSnapshot {
                counts: s.counts,
                sum_ns: 0,
                max_ns: u64::MAX, // never clamps
            };
            let mut prev = 0;
            for i in 0..=40 {
                let q = f64::from(i) / 40.0;
                let v = s.quantile(q);
                assert!(v >= prev, "round {round}: q={q} not monotone");
                prev = v;
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let landing = bucket_of(samples[rank - 1]);
                assert_eq!(
                    bucket_of(v),
                    landing,
                    "round {round}: q={q} left its bucket"
                );
                if q < 1.0 {
                    assert_eq!(w.quantile(q), v, "round {round}: q={q} families disagree");
                }
            }
            assert_eq!(s.p999(), s.quantile(0.999), "accessor is the quantile");
        }
        // Empty: every accessor of both families is 0, never a panic.
        let (e, we) = (HistogramSnapshot::default(), WindowSnapshot::default());
        for v in [
            e.p50(),
            e.p90(),
            e.p99(),
            e.p999(),
            we.p50(),
            we.p99(),
            we.p999(),
        ] {
            assert_eq!(v, 0);
        }
        assert_eq!(we.quantile(1.0), 0);
    }

    #[test]
    fn since_merge_round_trip_preserves_quantiles() {
        let h = Histogram::new();
        h.record(10);
        h.record(10_000);
        let early = h.snapshot();
        for ns in [3, 33, 333, 3_333, 33_333] {
            h.record(ns);
        }
        let late = h.snapshot();
        let delta = late.since(&early);
        assert_eq!(delta.total(), 5);
        // since() then merge() reconstructs the later snapshot exactly,
        // so every quantile agrees.
        let mut rebuilt = early;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, late);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(rebuilt.quantile(q), late.quantile(q), "q = {q}");
        }
        // since() against a *newer* snapshot saturates at zero rather
        // than underflowing.
        let backwards = early.since(&late);
        assert_eq!(backwards.total(), 0);
        assert_eq!(backwards.quantile(0.5), 0);
    }
}
