//! Machine-readable results of one open-loop measurement.
//!
//! The headline quantity is *sojourn time* — queue wait plus service,
//! clocked from the instant the generator stamped the operation into the
//! shard's ingress queue — reported as p50/p99/p999 per shard and in
//! aggregate, together with achieved-vs-offered λ, shed rate, and
//! queue-depth high-water marks. The schema round-trips through the
//! `cbtree-obs` JSONL machinery (`type: "serve_report"`).

use crate::metrics::{SloReport, TimeseriesPoint};
use cbtree_btree::{BatchSummary, OpCountersSnapshot};
use cbtree_harness::{latency_json, LevelLive};
use cbtree_obs::{Json, Trace};
use cbtree_queueing::BatchSizeMoments;
use cbtree_sync::HistogramSnapshot;

/// Measured behavior of one shard over the window.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Inclusive lower bound of the shard's key range.
    pub lo: u64,
    /// Inclusive upper bound of the shard's key range.
    pub hi: u64,
    /// Operations that arrived for this shard inside the window.
    pub offered: u64,
    /// Operations shed at admission (bounded queue full).
    pub rejected_full: u64,
    /// Operations shed at dequeue (enqueue-age timeout exceeded).
    pub timed_out: u64,
    /// Operations served to completion.
    pub served: u64,
    /// Deepest the ingress queue ever got.
    pub queue_depth_hwm: usize,
    /// Sojourn (enqueue → completion) histogram of served operations,
    /// nanoseconds.
    pub sojourn: HistogramSnapshot,
    /// Exact mean sojourn of served operations, seconds.
    pub sojourn_mean_s: f64,
    /// Queue ages of timed-out operations at the moment they were shed
    /// — the waiting time of work that never got served.
    pub shed_wait: HistogramSnapshot,
    /// Mean service time (dequeue → completion) of served ops, seconds.
    pub service_mean_s: f64,
    /// Second raw moment `E[X²]` of the service time, seconds² — feeds
    /// the M/G/1 Pollaczek–Khinchine prediction in the overlay.
    pub service_m2_s2: f64,
    /// Mean queue wait (enqueue → drain) of served ops, seconds — the
    /// first term of the sojourn decomposition.
    pub queue_wait_mean_s: f64,
    /// Mean batch wait (share of the batch busy period spent on the
    /// *other* ops of an op's batch) of served ops, seconds. Zero for
    /// singleton service.
    pub batch_wait_mean_s: f64,
    /// Batches executed that carried at least one measured op.
    pub batches: u64,
    /// Sorted-batch descent accounting summed over those batches:
    /// descents actually paid, leaf reuses, right-link hops, and
    /// fallback inserts.
    pub batch: BatchSummary,
    /// Per-batch-size service accumulations `(n_k, ΣS, ΣS²)` — the
    /// inputs to the M/G/c batch-service moment transform. Sizes with
    /// zero observations are omitted.
    pub batch_sizes: Vec<BatchSizeMoments>,
    /// The shard tree's operation counters over the measured window —
    /// latches per op is the direct evidence of amortized descent.
    pub counters: OpCountersSnapshot,
    /// Per-level lock measurements of the shard's tree over the window
    /// (leaves first), same shape as the closed-loop harness.
    pub levels: Vec<LevelLive>,
    /// Keys in the shard's tree at the end of the run.
    pub final_len: usize,
}

impl ShardReport {
    /// Offered arrival rate over the window, ops/s.
    pub fn offered_rate(&self, window_s: f64) -> f64 {
        if window_s > 0.0 {
            self.offered as f64 / window_s
        } else {
            0.0
        }
    }

    /// Achieved completion rate over the window, ops/s.
    pub fn achieved_rate(&self, window_s: f64) -> f64 {
        if window_s > 0.0 {
            self.served as f64 / window_s
        } else {
            0.0
        }
    }

    /// Fraction of offered operations shed (admission + timeout).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.rejected_full + self.timed_out) as f64 / self.offered as f64
        }
    }

    /// JSON object for the `shards` array of a `serve_report`.
    pub fn to_json(&self, window_s: f64) -> Json {
        Json::obj(vec![
            ("shard", self.shard.into()),
            ("lo", self.lo.into()),
            ("hi", self.hi.into()),
            ("offered", self.offered.into()),
            ("rejected_full", self.rejected_full.into()),
            ("timed_out", self.timed_out.into()),
            ("served", self.served.into()),
            ("queue_depth_hwm", self.queue_depth_hwm.into()),
            (
                "offered_rate",
                Json::f64_or_null(self.offered_rate(window_s)),
            ),
            (
                "achieved_rate",
                Json::f64_or_null(self.achieved_rate(window_s)),
            ),
            ("shed_rate", Json::f64_or_null(self.shed_rate())),
            ("sojourn", latency_json(&self.sojourn)),
            ("sojourn_mean_s", Json::f64_or_null(self.sojourn_mean_s)),
            ("shed_wait", latency_json(&self.shed_wait)),
            ("service_mean_s", Json::f64_or_null(self.service_mean_s)),
            ("service_m2_s2", Json::f64_or_null(self.service_m2_s2)),
            (
                "queue_wait_mean_s",
                Json::f64_or_null(self.queue_wait_mean_s),
            ),
            (
                "batch_wait_mean_s",
                Json::f64_or_null(self.batch_wait_mean_s),
            ),
            ("batches", self.batches.into()),
            (
                "batch",
                Json::obj(vec![
                    ("ops", self.batch.ops.into()),
                    ("descents", self.batch.descents.into()),
                    ("leaf_reuses", self.batch.leaf_reuses.into()),
                    ("right_hops", self.batch.right_hops.into()),
                    ("fallback_inserts", self.batch.fallback_inserts.into()),
                ]),
            ),
            (
                "batch_sizes",
                Json::arr(self.batch_sizes.iter().map(|b| {
                    Json::obj(vec![
                        ("size", b.size.into()),
                        ("batches", b.batches.into()),
                        ("service_sum_s", Json::f64_or_null(b.service_sum_s)),
                        ("service_sum_sq_s2", Json::f64_or_null(b.service_sum_sq_s2)),
                    ])
                })),
            ),
            ("counters", self.counters.to_json()),
            (
                "levels",
                Json::arr(self.levels.iter().map(LevelLive::to_json)),
            ),
            ("final_len", self.final_len.into()),
        ])
    }
}

/// Result of one open-loop service-layer measurement.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Configured aggregate offered rate λ, ops/s.
    pub lambda: f64,
    /// Number of shards.
    pub shards: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Most operations a worker drains and executes as one sorted batch
    /// per wakeup (`1` = singleton service).
    pub batch_max: usize,
    /// Open-loop generator threads.
    pub generators: usize,
    /// Length of the measured window, seconds.
    pub measured_time: f64,
    /// Per-shard measurements.
    pub per_shard: Vec<ShardReport>,
    /// Aggregate sojourn histogram (all shards merged).
    pub sojourn: HistogramSnapshot,
    /// Aggregate mean sojourn of served operations, seconds.
    pub sojourn_mean_s: f64,
    /// The continuous time series: one point per sampler window. Empty
    /// unless the run was configured with a `sample_interval`.
    pub timeseries: Vec<TimeseriesPoint>,
    /// SLO burn-monitor outcome. `None` unless the run was configured
    /// with both a `sample_interval` and an `slo_p99` budget.
    pub slo: Option<SloReport>,
    /// Events drained at the end of the run (enqueue/dequeue/shed plus
    /// the shards' latch/op events). Empty unless tracing is switched
    /// on (`trace::enable`, `serve --trace-buf`).
    pub trace: Trace,
}

impl ServeReport {
    /// Total operations offered inside the window.
    pub fn offered(&self) -> u64 {
        self.per_shard.iter().map(|s| s.offered).sum()
    }

    /// Total operations served.
    pub fn served(&self) -> u64 {
        self.per_shard.iter().map(|s| s.served).sum()
    }

    /// Total operations shed (admission rejections + timeouts).
    pub fn shed(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.rejected_full + s.timed_out)
            .sum()
    }

    /// Aggregate offered rate, ops/s.
    pub fn offered_rate(&self) -> f64 {
        if self.measured_time > 0.0 {
            self.offered() as f64 / self.measured_time
        } else {
            0.0
        }
    }

    /// Aggregate achieved (completion) rate, ops/s.
    pub fn achieved_rate(&self) -> f64 {
        if self.measured_time > 0.0 {
            self.served() as f64 / self.measured_time
        } else {
            0.0
        }
    }

    /// Aggregate shed fraction.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed() as f64 / offered as f64
        }
    }

    /// The `serve_report` JSONL record. Trace events are summarized,
    /// not inlined (the `serve` binary writes them as separate records).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", "serve_report".into()),
            ("lambda", Json::f64_or_null(self.lambda)),
            ("shards", self.shards.into()),
            ("workers_per_shard", self.workers_per_shard.into()),
            ("batch_max", self.batch_max.into()),
            ("generators", self.generators.into()),
            ("measured_time", Json::f64_or_null(self.measured_time)),
            ("offered", self.offered().into()),
            ("served", self.served().into()),
            (
                "rejected_full",
                Json::from(self.per_shard.iter().map(|s| s.rejected_full).sum::<u64>()),
            ),
            (
                "timed_out",
                Json::from(self.per_shard.iter().map(|s| s.timed_out).sum::<u64>()),
            ),
            ("offered_rate", Json::f64_or_null(self.offered_rate())),
            ("achieved_rate", Json::f64_or_null(self.achieved_rate())),
            ("shed_rate", Json::f64_or_null(self.shed_rate())),
            ("sojourn", latency_json(&self.sojourn)),
            ("sojourn_mean_s", Json::f64_or_null(self.sojourn_mean_s)),
            (
                "shards_detail",
                Json::arr(self.per_shard.iter().map(|s| s.to_json(self.measured_time))),
            ),
            ("timeseries_windows", self.timeseries.len().into()),
            (
                "slo",
                match &self.slo {
                    Some(slo) => slo.to_json(),
                    None => Json::Null,
                },
            ),
            ("trace_events", self.trace.events.len().into()),
            ("trace_dropped", self.trace.dropped.into()),
        ])
    }
}
