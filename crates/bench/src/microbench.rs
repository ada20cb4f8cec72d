//! Minimal std-only microbenchmark runner used by `lockbench` (a plain
//! `fn main()` harness, no external framework).
//!
//! Each measurement runs one warmup pass, then `samples` timed passes of
//! the closure, and reports the best and mean per-element time plus
//! throughput. Deliberately simple: these benches exist to show ranking
//! and order-of-magnitude behavior, not to chase nanosecond-stable
//! confidence intervals (the harness crate's saturation search does the
//! rigorous live measurement).

use std::time::{Duration, Instant};

/// One benchmark's samples, in nanoseconds per pass.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label, e.g. `btree/single-thread-mixed/b-link`.
    pub name: String,
    /// Elements (operations) processed per pass, for throughput.
    pub elements: u64,
    /// Wall-clock duration of each timed pass.
    pub samples: Vec<Duration>,
}

impl Measurement {
    /// Fastest pass.
    pub fn best(&self) -> Duration {
        self.samples.iter().copied().min().unwrap_or_default()
    }

    /// Mean pass duration.
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.iter().sum::<Duration>() / self.samples.len() as u32
    }

    /// Throughput of the fastest pass, in elements per second.
    pub fn best_throughput(&self) -> f64 {
        let s = self.best().as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.elements as f64 / s
        }
    }

    /// One human-readable report line.
    pub fn report(&self) -> String {
        let per_op = self.best().as_secs_f64() * 1e9 / self.elements.max(1) as f64;
        format!(
            "{:<44} {:>10.1} ns/op {:>12.0} op/s (mean pass {:?}, {} samples)",
            self.name,
            per_op,
            self.best_throughput(),
            self.mean(),
            self.samples.len()
        )
    }
}

/// Runs `f` once for warmup and `samples` timed passes, printing the
/// report line immediately and returning the raw samples.
pub fn bench(name: &str, elements: u64, samples: usize, mut f: impl FnMut()) -> Measurement {
    f(); // warmup
    let mut m = Measurement {
        name: name.to_string(),
        elements,
        samples: Vec::with_capacity(samples),
    };
    for _ in 0..samples {
        let t0 = Instant::now();
        f();
        m.samples.push(t0.elapsed());
    }
    println!("{}", m.report());
    m
}
