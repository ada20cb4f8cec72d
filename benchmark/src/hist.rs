//! Benchmark-owned latency recorder: a log-linear histogram with
//! [`SUB`] linear sub-buckets per octave, so a reported quantile is
//! within 1/(2·SUB) < 1 % of a recorded value. (The crates' own
//! histograms use one bucket per octave; interpolating inside a 2×
//! bucket moves a median by tens of percent between identical runs.)

/// Linear sub-buckets per octave.
const SUB: u64 = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Octaves above the exact range: values up to 2^(SUB_BITS+OCTAVES) ns
/// (≈ 39 hours) keep full relative precision; larger ones clamp.
const OCTAVES: u32 = 40;
const BUCKETS: usize = (SUB as usize) * (OCTAVES as usize + 1);

/// Percentiles a report may quote, ascending.
const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];
/// Samples that must lie beyond a percentile before it is quoted.
const MIN_BEYOND: f64 = 10.0;

/// A single-writer histogram of nanosecond durations.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

/// Bucket of `ns`: values below `SUB` are exact; above, the top
/// `SUB_BITS + 1` significant bits select the bucket.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let octave = (63 - ns.leading_zeros()) - SUB_BITS; // ≥ 0
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    let sub = (ns >> octave) & (SUB - 1);
    ((octave as u64 + 1) * SUB + sub) as usize
}

/// Midpoint of bucket `b`'s value range.
fn bucket_mid(b: usize) -> f64 {
    let (row, sub) = (b as u64 / SUB, b as u64 % SUB);
    if row == 0 {
        return sub as f64;
    }
    let octave = row - 1;
    let lo = (SUB + sub) << octave;
    lo as f64 + ((1u64 << octave) as f64 - 1.0) / 2.0
}

impl LatencyHist {
    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Recorded sample count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (nearest-rank, bucket midpoint);
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        bucket_mid(BUCKETS - 1)
    }

    /// The tail a report may quote: the highest percentile of the
    /// ladder with at least ten samples beyond it, and its value.
    /// `None` below 20 samples (not even the median qualifies).
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_percentile(self.total).map(|p| (p, self.quantile(p)))
    }
}

/// The highest ladder percentile with ≥ [`MIN_BEYOND`] of `samples`
/// beyond it.
pub fn tail_percentile(samples: u64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| samples as f64 * (1.0 - p) >= MIN_BEYOND - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_within_one_percent_of_its_bucket_midpoint() {
        let mut v = 1u64;
        while v < 1 << 45 {
            for x in [v, v + v / 3, v + v / 2, 2 * v - 1] {
                let mid = bucket_mid(bucket_of(x));
                let err = (mid - x as f64).abs() / (x as f64).max(1.0);
                assert!(err <= 0.01, "value {x}: midpoint {mid}, error {err}");
            }
            v *= 2;
        }
        // Small values are exact.
        for x in 0..SUB {
            assert_eq!(bucket_mid(bucket_of(x)), x as f64);
        }
        // Beyond the covered range values clamp instead of overflowing.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_known_sample() {
        let mut h = LatencyHist::default();
        for ns in 1..=10_000u64 {
            h.record(ns * 100); // 100 ns .. 1 ms, uniform
        }
        assert_eq!(h.total(), 10_000);
        for (q, want) in [(0.5, 500_000.0), (0.9, 900_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want <= 0.01,
                "q{q}: got {got}, want {want}"
            );
        }
        assert!((h.quantile(0.0) - 100.0).abs() <= 1.0, "q0 is the minimum");
        assert!(
            (h.quantile(1.0) - 1e6).abs() / 1e6 <= 0.01,
            "q1 is the maximum"
        );
        assert_eq!(LatencyHist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_samples() {
        let (mut a, mut b) = (LatencyHist::default(), LatencyHist::default());
        (0..100).for_each(|_| a.record(1_000));
        (0..300).for_each(|_| b.record(9_000));
        a.merge(&b);
        assert_eq!(a.total(), 400);
        assert!((a.quantile(0.2) - 1_000.0).abs() <= 10.0);
        assert!((a.quantile(0.5) - 9_000.0).abs() <= 90.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(999_999), Some(0.9999));
        assert_eq!(tail_percentile(1_000_000), Some(0.99999));
        assert_eq!(tail_percentile(u64::MAX), Some(0.99999));
    }
}
