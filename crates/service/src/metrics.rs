//! The continuous metrics plane of the service layer: an always-on
//! per-shard registry of relaxed-atomic counters and a double-buffered
//! windowed sojourn histogram (`cbtree-obs::metrics`), plus the sampler
//! loop that harvests them every `sample_interval` into timestamped
//! [`TimeseriesPoint`]s and runs the SLO burn monitor.
//!
//! Unlike the event rings, which record only once tracing is switched
//! on, the registry is recorded on every operation — warmup, measured
//! window, and drain alike. The sampler is the only windowing
//! authority: rates are diffs of monotone counters between ticks, so a
//! point is exact for its own window regardless of when recording
//! started.

use crate::queue::Shed;
use crate::shard::ShardRuntime;
use crate::ServeConfig;
use cbtree_btree::OpCountersSnapshot;
use cbtree_harness::{level_snapshots, level_windows, sample_windows, LevelLive};
use cbtree_obs::metrics::{Counter, WindowCursor, WindowSnapshot, WindowedHistogram};
use cbtree_obs::{Json, LevelRecord};
use cbtree_sync::LockStatsSnapshot;
use std::sync::atomic::AtomicU8;

/// Consecutive over-SLO windows required before the monitor declares a
/// burn (one bad window is a transient; three in a row at the default
/// 50 ms interval is 150 ms of sustained violation — saturation onset).
pub const SLO_BURN_WINDOWS: usize = 3;

/// One shard's always-on metrics registry. Every field is a fixed-size
/// block of atomics (see `cbtree_obs::metrics` for the memory bounds);
/// recording is a handful of relaxed `fetch_add`s per operation,
/// priced by the benchmark as `obs.session_record_ns` and held to 20 ns
/// by CI. The generators' counters and the workers' sit on separate
/// cache lines, so neither side's increments evict the other's.
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    /// Written by the generators, at admission.
    pub admission: AdmissionCounters,
    /// Written by the shard's workers, per batch.
    pub worker: WorkerCounters,
    /// Windowed sojourn (enqueue → completion) of served ops, ns. Also
    /// the completion count: every served op records exactly one
    /// sojourn, so the window's total *is* the window's completions — a
    /// separate counter on the per-op path would be a redundant RMW.
    pub sojourn: WindowedHistogram,
}

/// The generators' counters, on a line of their own.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct AdmissionCounters {
    /// Arrivals routed to this shard (admitted or not).
    pub offered: Counter,
    /// Arrivals admitted into the ingress queue.
    pub accepted: Counter,
    /// Arrivals shed at admission (queue full or closed).
    pub shed_full: Counter,
}

/// The workers' counters, on a line of their own.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct WorkerCounters {
    /// Operations shed at dequeue (enqueue-age timeout).
    pub timed_out: Counter,
    /// Batches executed.
    pub batches: Counter,
    /// Operations carried by those batches.
    pub batch_ops: Counter,
}

impl ShardMetrics {
    /// Records an admission outcome.
    #[inline]
    pub fn record_offer(&self, outcome: &Result<(), Shed>) {
        let a = &self.admission;
        a.offered.inc();
        match outcome {
            Ok(()) => a.accepted.inc(),
            Err(_) => a.shed_full.inc(),
        }
    }
}

/// Per-shard slice of one sampled window.
#[derive(Debug, Clone)]
pub struct ShardWindow {
    /// Shard index.
    pub shard: usize,
    /// Arrivals routed to the shard inside the window.
    pub offered: u64,
    /// Operations completed inside the window.
    pub completed: u64,
    /// Operations shed (admission + timeout) inside the window.
    pub shed: u64,
    /// Ingress-queue depth at the window's end.
    pub queue_depth: usize,
    /// Deepest the queue got *within* the window (per-window reset).
    pub queue_depth_hwm: usize,
    /// Windowed sojourn p99, ns.
    pub sojourn_p99_ns: u64,
    /// Node splits inside the window.
    pub splits: u64,
}

impl ShardWindow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("shard", self.shard.into()),
            ("offered", self.offered.into()),
            ("completed", self.completed.into()),
            ("shed", self.shed.into()),
            ("queue_depth", self.queue_depth.into()),
            ("queue_depth_hwm", self.queue_depth_hwm.into()),
            ("sojourn_p99_ns", self.sojourn_p99_ns.into()),
            ("splits", self.splits.into()),
        ])
    }
}

/// One window of the continuous time series (`type: "timeseries"` in
/// JSONL artifacts). Rates are per second over the *actual* window
/// length; quantiles come from the double-buffered windowed histogram
/// with exact-max clamping, so a single-window spike is visible instead
/// of being averaged into the run histogram.
#[derive(Debug, Clone)]
pub struct TimeseriesPoint {
    /// Configured aggregate λ of the measurement this window belongs to
    /// (the timeline tool groups windows by it).
    pub lambda: f64,
    /// Window end, seconds since the measured window began.
    pub t_s: f64,
    /// Actual window length, seconds.
    pub window_s: f64,
    /// Arrival rate offered in the window, ops/s.
    pub offered_rate: f64,
    /// Admission rate (offered minus admission sheds), ops/s.
    pub accepted_rate: f64,
    /// Completion rate, ops/s.
    pub completed_rate: f64,
    /// Fraction of the window's offered ops shed (admission + timeout).
    pub shed_rate: f64,
    /// Total ingress depth across shards at the window's end.
    pub queue_depth: usize,
    /// Largest per-window queue high-water mark across shards.
    pub queue_depth_hwm: usize,
    /// Per-level lock records over the window (leaves first, seconds),
    /// shards aggregated: nodes summed, lock statistics merged.
    pub levels: Vec<LevelRecord>,
    /// Served operations whose sojourn landed in this window.
    pub sojourn_n: u64,
    /// Windowed sojourn p50, ns.
    pub sojourn_p50_ns: u64,
    /// Windowed sojourn p99, ns.
    pub sojourn_p99_ns: u64,
    /// Exact maximum sojourn recorded in the window, ns.
    pub sojourn_max_ns: u64,
    /// Mean executed-batch size over the window (0 when no batches).
    pub mean_batch: f64,
    /// Node splits per second — the SMO rate.
    pub splits_per_s: f64,
    /// Right-link chases per second.
    pub chases_per_s: f64,
    /// Whether the SLO monitor considered this window over budget.
    pub slo_burning: bool,
    /// Per-shard detail.
    pub shards: Vec<ShardWindow>,
}

impl TimeseriesPoint {
    /// The `timeseries` JSONL record.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", "timeseries".into()),
            ("lambda", Json::f64_or_null(self.lambda)),
            ("t_s", Json::f64_or_null(self.t_s)),
            ("window_s", Json::f64_or_null(self.window_s)),
            ("offered_rate", Json::f64_or_null(self.offered_rate)),
            ("accepted_rate", Json::f64_or_null(self.accepted_rate)),
            ("completed_rate", Json::f64_or_null(self.completed_rate)),
            ("shed_rate", Json::f64_or_null(self.shed_rate)),
            ("queue_depth", self.queue_depth.into()),
            ("queue_depth_hwm", self.queue_depth_hwm.into()),
            (
                "levels",
                Json::arr(self.levels.iter().map(LevelRecord::to_json)),
            ),
            ("sojourn_n", self.sojourn_n.into()),
            ("sojourn_p50_ns", self.sojourn_p50_ns.into()),
            ("sojourn_p99_ns", self.sojourn_p99_ns.into()),
            ("sojourn_max_ns", self.sojourn_max_ns.into()),
            ("mean_batch", Json::f64_or_null(self.mean_batch)),
            ("splits_per_s", Json::f64_or_null(self.splits_per_s)),
            ("chases_per_s", Json::f64_or_null(self.chases_per_s)),
            ("slo_burning", self.slo_burning.into()),
            (
                "shards",
                Json::arr(self.shards.iter().map(ShardWindow::to_json)),
            ),
        ])
    }
}

/// Outcome of the SLO burn monitor over one measurement.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// The p99 sojourn budget, nanoseconds.
    pub slo_p99_ns: u64,
    /// Consecutive over-budget windows required to declare a burn.
    pub burn_windows: usize,
    /// Start time (seconds into the measured window) of the first
    /// window of the first sustained burn — the saturation onset.
    /// `None` when the SLO never burned.
    pub saturation_onset_s: Option<f64>,
    /// Start time of the first window in which any operation was shed.
    /// `None` when nothing was shed. Under overload the burn onset
    /// precedes this: latency blows the budget while the queue still
    /// absorbs the backlog, and shedding begins only once it fills.
    pub first_shed_s: Option<f64>,
}

impl SloReport {
    /// JSON object for the `slo` field of a `serve_report`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("slo_p99_ns", self.slo_p99_ns.into()),
            ("burn_windows", self.burn_windows.into()),
            (
                "saturation_onset_s",
                match self.saturation_onset_s {
                    Some(t) => Json::f64_or_null(t),
                    None => Json::Null,
                },
            ),
            (
                "first_shed_s",
                match self.first_shed_s {
                    Some(t) => Json::f64_or_null(t),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// The one-line summary of a `slo` record object ([`SloReport::to_json`]):
/// the budget and the two stamps, `never` for one the run did not reach.
pub fn slo_line(slo: &Json) -> String {
    let stamp = |key: &str| match slo.get(key).and_then(Json::as_f64) {
        Some(t) => format!("{t:.3} s"),
        None => "never".into(),
    };
    format!(
        "slo: p99 budget {:.0} us | saturation onset {} | first shed {}",
        slo.get("slo_p99_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e3,
        stamp("saturation_onset_s"),
        stamp("first_shed_s"),
    )
}

/// What the sampler thread hands back at join.
pub(crate) struct SamplerOutput {
    pub points: Vec<TimeseriesPoint>,
    pub slo: Option<SloReport>,
}

/// Monotone-counter baseline of one shard, diffed per tick.
struct ShardBaseline {
    offered: u64,
    accepted: u64,
    shed_full: u64,
    timed_out: u64,
    batches: u64,
    batch_ops: u64,
    counters: OpCountersSnapshot,
    levels: Vec<(u64, LockStatsSnapshot)>,
    cursor: WindowCursor,
}

impl ShardBaseline {
    fn take(rt: &ShardRuntime) -> ShardBaseline {
        let m = &rt.metrics;
        // The per-window queue mark resets with the cursor baseline.
        rt.queue.take_depth_high_water_window();
        ShardBaseline {
            offered: m.admission.offered.get(),
            accepted: m.admission.accepted.get(),
            shed_full: m.admission.shed_full.get(),
            timed_out: m.worker.timed_out.get(),
            batches: m.worker.batches.get(),
            batch_ops: m.worker.batch_ops.get(),
            counters: rt.tree.counters(),
            levels: level_snapshots(&rt.tree),
            cursor: m.sojourn.baseline(),
        }
    }
}

/// The service's sampler: on the shared [`sample_windows`] loop,
/// baselines every shard at the warmup→measure flip, then harvests one
/// [`TimeseriesPoint`] per `sample_interval` until the run is done,
/// feeding each aggregate window to the SLO monitor. Runs concurrently
/// with generators and workers — every source it reads is a monotone
/// relaxed atomic or the double-buffered histogram, so nothing here
/// blocks the serving path.
pub(crate) fn sampler_loop(
    cfg: &ServeConfig,
    runtimes: &[ShardRuntime],
    phase: &AtomicU8,
) -> SamplerOutput {
    let interval = cfg.sample_interval.expect("sampler needs an interval");
    // SLO monitor state.
    let slo_ns = cfg
        .slo_p99
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    let mut burn_run = 0usize;
    let mut burn_run_start_s = 0.0f64;
    let mut saturation_onset_s: Option<f64> = None;
    let mut first_shed_s: Option<f64> = None;

    let baseline = || -> Vec<ShardBaseline> { runtimes.iter().map(ShardBaseline::take).collect() };
    let points = sample_windows(phase, interval, baseline, |base, w| {
        let (window_s, window_start_s) = (w.window_s, w.start_s);
        let window_ns = (window_s * 1e9) as u64;

        let mut agg_sojourn = WindowSnapshot::default();
        let mut shards = Vec::with_capacity(runtimes.len());
        let (mut offered, mut accepted, mut completed, mut shed) = (0u64, 0u64, 0u64, 0u64);
        let (mut batches, mut batch_ops, mut splits, mut chases) = (0u64, 0u64, 0u64, 0u64);
        let (mut depth, mut depth_hwm) = (0usize, 0usize);
        // Per-level windows aggregated across shards: nodes summed,
        // statistics merged (`record()` derives everything from them).
        let mut levels_agg: Vec<LevelLive> = Vec::new();
        for (sh, (rt, b)) in runtimes.iter().zip(base).enumerate() {
            let m = &rt.metrics;
            let diff = |cur: u64, prev: &mut u64| {
                let d = cur.wrapping_sub(*prev);
                *prev = cur;
                d
            };
            let s_offered = diff(m.admission.offered.get(), &mut b.offered);
            let s_accepted = diff(m.admission.accepted.get(), &mut b.accepted);
            let s_shed = diff(m.admission.shed_full.get(), &mut b.shed_full)
                + diff(m.worker.timed_out.get(), &mut b.timed_out);
            batches += diff(m.worker.batches.get(), &mut b.batches);
            batch_ops += diff(m.worker.batch_ops.get(), &mut b.batch_ops);
            let ctr = rt.tree.counters();
            let ctr_diff = ctr.since(&b.counters);
            b.counters = ctr;
            let s_splits = ctr_diff.splits;
            chases += ctr_diff.chases;
            let levels = level_snapshots(&rt.tree);
            for l in level_windows(&b.levels, &levels, window_ns) {
                match levels_agg.get_mut(l.level - 1) {
                    Some(agg) => {
                        agg.nodes += l.nodes;
                        agg.stats.merge(&l.stats);
                    }
                    None => levels_agg.push(l),
                }
            }
            b.levels = levels;
            let sojourn = m.sojourn.harvest(&mut b.cursor);
            // Completions are the sojourn window's total: one record
            // per served op (see `ShardMetrics::sojourn`).
            let s_completed = sojourn.total();
            let s_depth = rt.queue.depth();
            let s_hwm = rt.queue.take_depth_high_water_window();
            offered += s_offered;
            accepted += s_accepted;
            completed += s_completed;
            shed += s_shed;
            splits += s_splits;
            depth += s_depth;
            depth_hwm = depth_hwm.max(s_hwm);
            shards.push(ShardWindow {
                shard: sh,
                offered: s_offered,
                completed: s_completed,
                shed: s_shed,
                queue_depth: s_depth,
                queue_depth_hwm: s_hwm,
                sojourn_p99_ns: sojourn.p99(),
                splits: s_splits,
            });
            agg_sojourn.merge(&sojourn);
        }

        // SLO monitor: a window burns when its p99 blows the budget, or
        // when load arrived but nothing at all was served (the queue is
        // absorbing everything — worse than any finite p99).
        let burning = match slo_ns {
            Some(slo) => {
                (agg_sojourn.total() > 0 && agg_sojourn.p99() > slo)
                    || (agg_sojourn.total() == 0 && offered > 0 && depth > 0)
            }
            None => false,
        };
        if slo_ns.is_some() {
            if burning {
                if burn_run == 0 {
                    burn_run_start_s = window_start_s;
                }
                burn_run += 1;
                if burn_run >= SLO_BURN_WINDOWS && saturation_onset_s.is_none() {
                    saturation_onset_s = Some(burn_run_start_s);
                }
            } else {
                burn_run = 0;
            }
            if shed > 0 && first_shed_s.is_none() {
                first_shed_s = Some(window_start_s);
            }
        }

        TimeseriesPoint {
            lambda: cfg.lambda,
            t_s: w.t_s,
            window_s,
            offered_rate: offered as f64 / window_s,
            accepted_rate: accepted as f64 / window_s,
            completed_rate: completed as f64 / window_s,
            shed_rate: if offered > 0 {
                shed as f64 / offered as f64
            } else {
                0.0
            },
            queue_depth: depth,
            queue_depth_hwm: depth_hwm,
            levels: levels_agg.iter().map(LevelLive::record).collect(),
            sojourn_n: agg_sojourn.total(),
            sojourn_p50_ns: agg_sojourn.p50(),
            sojourn_p99_ns: agg_sojourn.p99(),
            sojourn_max_ns: agg_sojourn.max_ns,
            mean_batch: if batches > 0 {
                batch_ops as f64 / batches as f64
            } else {
                0.0
            },
            splits_per_s: splits as f64 / window_s,
            chases_per_s: chases as f64 / window_s,
            slo_burning: burning,
            shards,
        }
    });

    let slo = slo_ns.map(|slo_p99_ns| SloReport {
        slo_p99_ns,
        burn_windows: SLO_BURN_WINDOWS,
        saturation_onset_s,
        first_shed_s,
    });
    SamplerOutput { points, slo }
}
