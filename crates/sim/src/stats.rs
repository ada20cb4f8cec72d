//! Simulation-time statistics: time-weighted averages for utilizations
//! and batch means for within-run confidence intervals. The sample
//! accumulator and the summary every report carries live in
//! [`cbtree_obs::stats`].

use cbtree_obs::stats::Welford;

/// Time-weighted average of a piecewise-constant signal (utilizations,
/// queue lengths). Call [`TimeWeighted::advance`] at every event with the
/// *current* value of the signal since the previous event.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeWeighted {
    area: f64,
    last_t: f64,
    started: bool,
    start_t: f64,
}

impl TimeWeighted {
    /// A fresh accumulator starting at time `t0`.
    pub fn starting_at(t0: f64) -> Self {
        TimeWeighted {
            area: 0.0,
            last_t: t0,
            started: true,
            start_t: t0,
        }
    }

    /// Accumulates `value` over the interval since the previous call.
    pub fn advance(&mut self, now: f64, value: f64) {
        if !self.started {
            *self = TimeWeighted::starting_at(now);
            return;
        }
        debug_assert!(now + 1e-9 >= self.last_t, "time must not go backwards");
        self.area += (now - self.last_t).max(0.0) * value;
        self.last_t = now;
    }

    /// The time-weighted mean over the observed span (0 before any span).
    pub fn mean(&self) -> f64 {
        let span = self.last_t - self.start_t;
        if span <= 0.0 {
            0.0
        } else {
            self.area / span
        }
    }

    /// Total observed time span.
    pub fn span(&self) -> f64 {
        if self.started {
            self.last_t - self.start_t
        } else {
            0.0
        }
    }
}

/// Batch-means accumulator: consecutive observations are grouped into
/// fixed-size batches and the confidence interval is computed over the
/// batch means. Within a simulation run successive response times are
/// positively autocorrelated (they share queue backlogs), so a raw
/// per-sample CI badly understates the variance; batching is the
/// standard remedy (and why the paper reruns with independent seeds).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMeans {
    batch_size: u64,
    current: Welford,
    batches: Welford,
}

impl BatchMeans {
    /// A fresh accumulator with the given batch size (≥ 1).
    pub fn new(batch_size: u64) -> Self {
        BatchMeans {
            batch_size: batch_size.max(1),
            current: Welford::new(),
            batches: Welford::new(),
        }
    }

    /// Adds an observation; completes a batch every `batch_size` adds.
    pub fn add(&mut self, x: f64) {
        self.current.add(x);
        if self.current.count() >= self.batch_size {
            self.batches.add(self.current.mean());
            self.current = Welford::new();
        }
    }

    /// Number of completed batches.
    pub fn batch_count(&self) -> u64 {
        self.batches.count()
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> u64 {
        self.batch_size
    }

    /// Mean over completed batches (equal-sized, so also the sample mean
    /// over the observations they cover).
    pub fn mean(&self) -> f64 {
        self.batches.mean()
    }

    /// 95% CI half-width over batch means (0 until two batches complete).
    pub fn ci95_half_width(&self) -> f64 {
        self.batches.ci95_half_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_square_wave() {
        let mut tw = TimeWeighted::starting_at(0.0);
        tw.advance(1.0, 1.0); // value 1 over [0,1)
        tw.advance(3.0, 0.0); // value 0 over [1,3)
        tw.advance(4.0, 1.0); // value 1 over [3,4)
        assert!((tw.mean() - 0.5).abs() < 1e-12);
        assert_eq!(tw.span(), 4.0);
    }

    #[test]
    fn time_weighted_empty_is_zero() {
        let tw = TimeWeighted::starting_at(5.0);
        assert_eq!(tw.mean(), 0.0);
        assert_eq!(tw.span(), 0.0);
    }

    #[test]
    fn batch_means_basic() {
        let mut b = BatchMeans::new(3);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0] {
            b.add(x);
        }
        // Two completed batches: means 2 and 5; the trailing 7 is pending.
        assert_eq!(b.batch_count(), 2);
        assert!((b.mean() - 3.5).abs() < 1e-12);
        assert!(b.ci95_half_width() > 0.0);
    }

    #[test]
    fn batch_means_single_batch_has_no_ci() {
        let mut b = BatchMeans::new(10);
        for _ in 0..10 {
            b.add(1.0);
        }
        assert_eq!(b.batch_count(), 1);
        assert_eq!(b.ci95_half_width(), 0.0);
    }

    #[test]
    fn batch_means_tighter_than_raw_for_correlated_data() {
        // A slowly wandering series: raw per-sample CI treats the drift
        // as independent noise and understates it; batch means see it.
        let mut raw = Welford::new();
        let mut batched = BatchMeans::new(50);
        let mut level = 0.0;
        let mut state = 1u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            level = 0.99 * level + noise;
            let x = 10.0 + level;
            raw.add(x);
            batched.add(x);
        }
        assert!(
            batched.ci95_half_width() > raw.ci95_half_width(),
            "batch CI {} must exceed the optimistic raw CI {}",
            batched.ci95_half_width(),
            raw.ci95_half_width()
        );
    }
}
