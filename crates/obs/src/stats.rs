//! Sample statistics every pillar reports: Welford online mean/variance
//! and the `{mean, ci95, n}` summary the simulator's and the live
//! harness's reports share.

use crate::Json;

/// Online mean/variance accumulator (Welford's algorithm, numerically
//  stable for long runs).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Adds an observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of an approximate 95% confidence interval
    /// (normal-approximation, 1.96·SE).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }
}

/// A point estimate with spread, as reported across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Mean across observations.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
    /// Number of observations.
    pub n: u64,
}

impl Summary {
    /// Builds a summary from a Welford accumulator.
    pub fn from_welford(w: &Welford) -> Self {
        Summary {
            mean: w.mean(),
            ci95: w.ci95_half_width(),
            n: w.count(),
        }
    }

    /// Builds a summary from raw values.
    pub fn from_values(values: &[f64]) -> Self {
        let mut w = Welford::new();
        for &v in values {
            w.add(v);
        }
        Summary::from_welford(&w)
    }

    /// JSON object `{mean, ci95, n}` (non-finite values become `null`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mean", Json::f64_or_null(self.mean)),
            ("ci95", Json::f64_or_null(self.ci95)),
            ("n", self.n.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // population variance is 4, sample variance = 32/7
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.add(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.add(1.0);
        a.add(2.0);
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a, before);
        let mut empty = Welford::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn summary_from_values() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.n, 3);
        assert!(s.ci95 > 0.0);
    }
}
