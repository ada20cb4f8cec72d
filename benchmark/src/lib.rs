//! The repository's benchmark: five workloads over the tree, the
//! ingress ring and `serve()`, each reporting the same five end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`), every
//! layer measured from outside through the crates' public functions.
//! `benchmark/README.md` says why each workload exists and which
//! end-to-end metric each layer metric should move.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod hist;
pub mod layers;
pub mod pipeline;
pub mod service;
pub mod spans;
pub mod tree;

use cbtree_btree::{BatchOp, ConcurrentBTree};
use cbtree_workload::{KeyDist, Operation, Rng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Busy threads of every workload: the 2-core target's `nproc`.
pub const THREADS: usize = 2;

/// Workload names, in suite order.
pub const WORKLOADS: [&str; 5] = [
    "tree-read",
    "tree-churn",
    "serve-sat",
    "serve-paced",
    "serve-disk",
];

/// End-to-end metrics `(name, unit)`: what `--trace 0` prints, on
/// every workload. `BENCHMARK.json` lists the same, with bounds.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("bytes_per_key", "B"),
];

/// Per-layer metrics `(name, unit)`: what `--trace 1` prints. A metric
/// whose layer is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("workload.next_op_ns", "ns"),
    ("workload.arrival_ns", "ns"),
    ("workload.gen_lag_frac", "frac"),
    ("router.shard_of_ns", "ns"),
    ("queue.push_ns", "ns"),
    ("queue.pop1_ns", "ns"),
    ("queue.pop16_ns_per_op", "ns"),
    ("queue.handoff_ns", "ns"),
    ("queue.wait_mean_us", "us"),
    ("queue.shed_frac", "frac"),
    ("queue.depth_hwm", "count"),
    ("shard.service_mean_us", "us"),
    ("shard.batch_wait_mean_us", "us"),
    ("shard.mean_batch_size", "count"),
    ("service.sojourn_p99_us", "us"),
    ("service.cpu_s_per_mop", "s"),
    ("btree.get_ns", "ns"),
    ("btree.insert_ns", "ns"),
    ("btree.remove_ns", "ns"),
    ("btree.batch1_ns_per_op", "ns"),
    ("btree.batch16_ns_per_op", "ns"),
    ("btree.olc_get_ns", "ns"),
    ("btree.descents_per_op", "count"),
    ("btree.leaf_reuse_frac", "frac"),
    ("btree.latches_per_op", "count"),
    ("btree.splits_per_kop", "count"),
    ("btree.restarts_per_kop", "count"),
    ("btree.chases_per_kop", "count"),
    ("btree.height", "count"),
    ("btree.op_p99_ns", "ns"),
    ("btree.vacuum_ms", "ms"),
    ("btree.vacuum_reclaimed", "count"),
    ("arena.slots_allocated", "count"),
    ("arena.free_slots", "count"),
    ("arena.bytes_per_slot", "B"),
    ("sync.read_acq_ns", "ns"),
    ("sync.write_acq_ns", "ns"),
    ("sync.read_acq_sampled_ns", "ns"),
    ("sync.write_acq_sampled_ns", "ns"),
    ("sync.stats_exact_delta_ns", "ns"),
    ("sync.root_rho_w", "frac"),
    ("sync.leaf_w_wait_mean_ns", "ns"),
    ("sync.w_contention_rate", "frac"),
    ("obs.record_ns", "ns"),
    ("obs.session_record_ns", "ns"),
    ("harness.overhead_ns_per_op", "ns"),
    ("queueing.mgc_residual_frac", "frac"),
    ("core.solve_us", "us"),
    ("alloc.calls_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("proc.peak_rss_mb", "MB"),
    ("ledger.unexplained_frac", "frac"),
    ("ledger.layers_ns_per_op", "ns"),
    ("ledger.wall_ns_per_op", "ns"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
    ("self.workload_ns_per_op", "ns"),
    ("self.router_ns_per_op", "ns"),
    ("self.queue_push_ns_per_op", "ns"),
    ("self.queue_pop_ns_per_op", "ns"),
    ("self.btree_ns_per_op", "ns"),
    ("self.obs_ns_per_op", "ns"),
    ("self.shard_ns_per_op", "ns"),
    ("self.span_clock_ns", "ns"),
];

/// Named measurements of one run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How one run is shaped.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Repetitions of (set-up + warm-up + window); medians are reported.
    pub reps: usize,
    /// Unmeasured lead-in of each repetition.
    pub warm: Duration,
    /// Measured window of each repetition.
    pub window: Duration,
    /// Test-only: corrupt one expected result, so the run must fail.
    pub plant_wrong: bool,
    /// Where the traced pass writes `trace-<workload>.jsonl`.
    pub out_dir: PathBuf,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outcome was checked inside measured windows.
    pub attempted: u64,
    /// Wrong results, accepted-but-unanswered operations, and — on the
    /// paced workloads — shed or timed-out operations.
    pub failed: u64,
    /// Correctness violations (wrong result, broken invariant). Any
    /// entry makes the run incorrect and the process exit nonzero.
    pub violations: Vec<String>,
    /// The run's metrics.
    pub metrics: Metrics,
    /// Human-readable context printed above the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness violation that `failed` operations showed.
    pub fn violation(&mut self, failed: u64, what: String) {
        self.failed += failed;
        self.violations.push(what);
    }
}

/// Runs `workload` once; `trace` selects the per-layer pass.
///
/// # Panics
/// Panics on an unknown workload name.
pub fn run_workload(workload: &str, opts: &Opts, trace: bool) -> Outcome {
    match (workload, trace) {
        ("tree-read", false) => tree::end_to_end(&tree::READ, opts),
        ("tree-churn", false) => tree::end_to_end(&tree::CHURN, opts),
        ("tree-read", true) => tree::per_layer(&tree::READ, opts),
        ("tree-churn", true) => tree::per_layer(&tree::CHURN, opts),
        (name, false) => service::end_to_end(service::Workload::parse(name), opts),
        (name, true) => service::per_layer(service::Workload::parse(name), opts),
    }
}

/// Fills `tree` with `items` distinct keys drawn from `keys`, the way
/// `serve()` and `harness::run` prefill theirs.
pub fn prefill(tree: &ConcurrentBTree<u64>, keys: &KeyDist, items: usize, seed: u64) {
    let mut rng = Rng::new(seed);
    let mut filled = 0u64;
    while (filled as usize) < items {
        let k = keys.sample(&mut rng, filled);
        filled += u64::from(tree.insert(k, k).is_none());
    }
}

/// A workload operation as the batch entry point takes it (values are
/// their keys throughout the benchmark).
pub fn to_batch_op(op: Operation) -> BatchOp<u64> {
    match op {
        Operation::Search(k) => BatchOp::Get(k),
        Operation::Insert(k) => BatchOp::Insert(k, k),
        Operation::Delete(k) => BatchOp::Remove(k),
    }
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median ns per call of `f`, timed in chunks of `chunk` calls for
/// about `budget`. Chunked so the clock is read once per chunk, and a
/// median over chunks so a preempted chunk does not move the price.
pub fn price(chunk: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let deadline = Instant::now() + budget;
    let mut per_call = Vec::new();
    loop {
        let t0 = Instant::now();
        for _ in 0..chunk {
            f();
        }
        let dt = t0.elapsed();
        per_call.push(dt.as_nanos() as f64 / chunk as f64);
        if Instant::now() >= deadline && per_call.len() >= 5 {
            return median(&per_call);
        }
    }
}

/// Process CPU seconds so far (user + system, all threads), from
/// `/proc/self/stat` at the kernel's 100 Hz tick; 0 where unreadable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the name.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set of the process in MB (`VmHWM`); 0 where unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
