//! `cbtree-harness`: the *live execution* pillar.
//!
//! The framework now has three ways of producing the same performance
//! observables:
//!
//! 1. **Analysis** (`cbtree-analysis`): closed-form queueing models;
//! 2. **Simulation** (`cbtree-sim`): discrete-event simulation of lock
//!    queues on a modeled tree;
//! 3. **Live execution** (this crate): the *real* concurrent B+-trees of
//!    `cbtree-btree`, latched with the observable FCFS lock of
//!    `cbtree-sync`, driven by OS threads under `cbtree-workload`
//!    operation mixes.
//!
//! A [`run`] executes one measurement: prefill the tree, warm up, take a
//! quiescent snapshot of the tree's per-level lock statistics, run a
//! timed measurement window, quiesce again, snapshot again, and diff.
//! The resulting [`LiveReport`] mirrors the simulator's `SimReport`
//! schema (same `Summary` type, same leaves-first per-level vectors), so
//! the `analyze` binary can print analysis vs simulation vs live
//! three-way tables.
//!
//! [`saturation_search`] finds the maximum sustainable throughput by
//! doubling the thread count until added threads stop paying.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;

use cbtree_btree::{ConcurrentBTree, OpCountersSnapshot, Protocol};
use cbtree_obs::metrics::{Counter, WindowedHistogram};
use cbtree_obs::{Json, Trace};
use cbtree_sim::stats::{Summary, Welford};
use cbtree_sync::{Histogram, HistogramSnapshot, LockStatsSnapshot, SamplePeriod};
use cbtree_workload::{OpStream, Operation, OpsConfig, Rng};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Configuration of one live measurement.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Latching protocol to run.
    pub protocol: Protocol,
    /// Number of worker OS threads (closed-loop: each thread issues its
    /// next operation as soon as the previous one completes).
    pub threads: usize,
    /// Node capacity (max keys per node).
    pub capacity: usize,
    /// Keys inserted before measurement starts.
    pub initial_items: usize,
    /// Operation mix and key distribution.
    pub ops: OpsConfig,
    /// Untimed warmup before the measured window.
    pub warmup: Duration,
    /// Length of the measured window.
    pub measure: Duration,
    /// Seed for all workload streams (thread `t` uses a SplitMix64-forked
    /// stream of `(seed, t)`, so runs are reproducible up to OS
    /// scheduling and distinct `(seed, thread)` pairs get disjoint
    /// streams).
    pub seed: u64,
    /// Lock-timing sampling period for the tree's node locks: one in
    /// `stats_sampling.period()` acquisitions is timed (counts stay
    /// exact, sampled durations are scaled so the derived statistics stay
    /// unbiased). [`SamplePeriod::EXACT`] times everything.
    pub stats_sampling: SamplePeriod,
    /// Transaction size: workers commit after every `txn` operations.
    /// Only the recovery protocols retain latches between commits; for
    /// every other protocol the commit is a no-op, so `txn = 1` (the
    /// default) makes all protocols directly comparable.
    pub txn: usize,
    /// When set, a sampler thread harvests the run's always-on metrics
    /// registry at this interval during the measured window, emitting
    /// one [`LivePoint`] per window into the report. The sampler reads
    /// only relaxed atomics and takes no latch, so it does not perturb
    /// the closed-loop measurement. `None` (the default) runs
    /// without it.
    pub sample_interval: Option<Duration>,
}

impl LiveConfig {
    /// The paper-style default: mix `.3/.5/.2`, capacity 64, 50k initial
    /// items over a 1M key space.
    pub fn paper(protocol: Protocol, threads: usize) -> Self {
        LiveConfig {
            protocol,
            threads,
            capacity: 64,
            initial_items: 50_000,
            ops: OpsConfig::paper(1_000_000),
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(1000),
            seed: 0x11FE,
            stats_sampling: SamplePeriod::EXACT,
            txn: 1,
            sample_interval: None,
        }
    }

    /// A fast variant for smoke tests.
    pub fn quick(protocol: Protocol, threads: usize) -> Self {
        LiveConfig {
            capacity: 16,
            initial_items: 4_000,
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(120),
            ..LiveConfig::paper(protocol, threads)
        }
    }

    /// The `meta` JSONL record: everything a downstream analyzer needs to
    /// rebuild the analytical/simulation configuration this run measured.
    pub fn meta_json(&self) -> Json {
        Json::obj(vec![
            ("type", "meta".into()),
            ("schema", cbtree_obs::SCHEMA_VERSION.into()),
            ("kind", "live_run".into()),
            ("protocol", self.protocol.name().into()),
            ("threads", self.threads.into()),
            ("capacity", self.capacity.into()),
            ("initial_items", self.initial_items.into()),
            (
                "mix",
                Json::arr([
                    self.ops.q_search.into(),
                    self.ops.q_insert.into(),
                    self.ops.q_delete.into(),
                ]),
            ),
            ("keyspace", self.ops.keys.span().into()),
            ("key_dist", self.ops.keys.name().into()),
            ("seed", self.seed.into()),
            ("txn", self.txn.into()),
            ("warmup_ms", Json::whole(self.warmup.as_millis())),
            ("measure_ms", Json::whole(self.measure.as_millis())),
            (
                "sample_interval_ms",
                self.sample_interval
                    .map_or(Json::Null, |d| Json::whole(d.as_millis())),
            ),
        ])
    }
}

/// Measured lock behavior of one tree level over the window.
#[derive(Debug, Clone)]
pub struct LevelLive {
    /// Level number (1 = leaves).
    pub level: usize,
    /// Nodes on this level at the end of the window.
    pub nodes: u64,
    /// Aggregated lock counters accumulated during the window.
    pub stats: LockStatsSnapshot,
    /// Measured writer utilization `ρ_w` of this level: total exclusive
    /// hold time divided by `nodes · window` — the per-lock average.
    pub rho_w: f64,
}

impl LevelLive {
    /// JSON object `{level, nodes, rho_w, stats}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("level", self.level.into()),
            ("nodes", self.nodes.into()),
            ("rho_w", Json::f64_or_null(self.rho_w)),
            ("stats", self.stats.to_json()),
        ])
    }
}

/// Result of one live measurement, schema-aligned with
/// `cbtree_sim::SimReport`.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Worker threads used.
    pub threads: usize,
    /// Completions per second over the measured window.
    pub throughput: f64,
    /// Operations completed in the measured window.
    pub completed: u64,
    /// Duration of the measured window in seconds.
    pub measured_time: f64,
    /// Mean/CI of search response times, in seconds.
    pub resp_search: Summary,
    /// Mean/CI of insert response times, in seconds.
    pub resp_insert: Summary,
    /// Mean/CI of delete response times, in seconds.
    pub resp_delete: Summary,
    /// Mean exclusive-lock wait per level in seconds (leaves first).
    pub wait_w_by_level: Vec<f64>,
    /// Mean shared-lock wait per level in seconds (leaves first).
    pub wait_r_by_level: Vec<f64>,
    /// Measured writer utilization of the root's level.
    pub root_writer_utilization: f64,
    /// Engine telemetry accumulated over the measured window: latch
    /// acquisitions per level, optimistic restarts, right-link chases,
    /// transaction commits/spills. Restart and chase rates here are the
    /// direct validation inputs for the Optimistic and Link-type
    /// analytical models.
    pub counters: OpCountersSnapshot,
    /// Log-bucketed histogram of every completed operation's latency in
    /// nanoseconds, all op kinds pooled — the p50/p99/p999 source.
    pub latency: HistogramSnapshot,
    /// Full per-level measurements (leaves first).
    pub levels: Vec<LevelLive>,
    /// Tree height at the end of the run.
    pub final_height: usize,
    /// Keys in the tree at the end of the run.
    pub final_len: usize,
    /// The continuous time series: one point per sampler window. Empty
    /// unless the run was configured with a `sample_interval`.
    pub timeseries: Vec<LivePoint>,
    /// Events drained from the per-thread rings at the closing quiesce
    /// point — the measured window only (the warmup drain is discarded).
    /// Empty unless the `trace` cargo feature is on and tracing enabled.
    pub trace: Trace,
}

impl LiveReport {
    /// Mean response time across the operation mix, in seconds.
    pub fn mean_response_time(&self) -> f64 {
        let total = self.resp_search.n + self.resp_insert.n + self.resp_delete.n;
        if total == 0 {
            return 0.0;
        }
        (self.resp_search.mean * self.resp_search.n as f64
            + self.resp_insert.mean * self.resp_insert.n as f64
            + self.resp_delete.mean * self.resp_delete.n as f64)
            / total as f64
    }

    /// JSON record of the whole report (`type: "live_report"`; the mix
    /// mean response time is `latency.mean_s`). Trace events are *not*
    /// inlined — `live --json` writes them as separate JSONL records
    /// after this one; only the drained-trace shape (event/drop counts)
    /// is summarized here.
    pub fn to_json(&self) -> Json {
        let secs_arr = |v: &[f64]| Json::arr(v.iter().map(|&x| Json::f64_or_null(x)));
        Json::obj(vec![
            ("type", "live_report".into()),
            ("threads", self.threads.into()),
            ("throughput", Json::f64_or_null(self.throughput)),
            ("completed", self.completed.into()),
            ("measured_time", Json::f64_or_null(self.measured_time)),
            ("resp_search", self.resp_search.to_json()),
            ("resp_insert", self.resp_insert.to_json()),
            ("resp_delete", self.resp_delete.to_json()),
            ("wait_w_by_level", secs_arr(&self.wait_w_by_level)),
            ("wait_r_by_level", secs_arr(&self.wait_r_by_level)),
            (
                "root_writer_utilization",
                Json::f64_or_null(self.root_writer_utilization),
            ),
            ("counters", self.counters.to_json()),
            (
                "latency",
                latency_json(&self.latency)
                    .with("mean_s", Json::f64_or_null(self.mean_response_time())),
            ),
            (
                "levels",
                Json::arr(self.levels.iter().map(LevelLive::to_json)),
            ),
            ("final_height", self.final_height.into()),
            ("final_len", self.final_len.into()),
            ("timeseries_windows", self.timeseries.len().into()),
            ("trace_events", self.trace.events.len().into()),
            ("trace_dropped", self.trace.dropped.into()),
        ])
    }
}

/// One window of a live run's continuous time series (`type:
/// "timeseries"` in JSONL artifacts — the field names shared with the
/// service layer's richer points are identical, so `cbtree-trace
/// timeline` replays either kind).
#[derive(Debug, Clone)]
pub struct LivePoint {
    /// Window end, seconds since the measured window began.
    pub t_s: f64,
    /// Actual window length, seconds.
    pub window_s: f64,
    /// Completion rate over the window, ops/s.
    pub completed_rate: f64,
    /// Operations whose latency landed in this window.
    pub n: u64,
    /// Windowed latency p50, ns.
    pub latency_p50_ns: u64,
    /// Windowed latency p99, ns.
    pub latency_p99_ns: u64,
    /// Exact maximum latency recorded in the window, ns.
    pub latency_max_ns: u64,
    /// Node splits per second — the SMO rate.
    pub splits_per_s: f64,
    /// Right-link chases per second.
    pub chases_per_s: f64,
}

impl LivePoint {
    /// The `timeseries` JSONL record.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", "timeseries".into()),
            ("t_s", Json::f64_or_null(self.t_s)),
            ("window_s", Json::f64_or_null(self.window_s)),
            ("completed_rate", Json::f64_or_null(self.completed_rate)),
            ("n", self.n.into()),
            ("latency_p50_ns", self.latency_p50_ns.into()),
            ("latency_p99_ns", self.latency_p99_ns.into()),
            ("latency_max_ns", self.latency_max_ns.into()),
            ("splits_per_s", Json::f64_or_null(self.splits_per_s)),
            ("chases_per_s", Json::f64_or_null(self.chases_per_s)),
        ])
    }
}

/// The standard latency-quantile JSON object every report in the
/// workspace uses: `{n, p50_ns, p90_ns, p99_ns, p999_ns}`.
pub fn latency_json(h: &HistogramSnapshot) -> Json {
    Json::obj(vec![
        ("n", h.total().into()),
        ("p50_ns", h.p50().into()),
        ("p90_ns", h.p90().into()),
        ("p99_ns", h.p99().into()),
        ("p999_ns", h.p999().into()),
    ])
}

/// First of the three run phases a coordinator drives through one
/// atomic (shared with the service layer): untimed warmup.
pub const PHASE_WARMUP: u8 = 0;
/// Second phase: the measured window.
pub const PHASE_MEASURE: u8 = 1;
/// Last phase: the window is over; workers, generators and the sampler
/// wind down.
pub const PHASE_DONE: u8 = 2;

/// Timing of one sampler window, in seconds since the measured phase
/// began.
#[derive(Debug, Clone, Copy)]
pub struct SampleWindow {
    /// Window start (the previous window's end).
    pub start_s: f64,
    /// Window end.
    pub t_s: f64,
    /// Actual window length.
    pub window_s: f64,
}

/// The one sampler loop behind both continuous time series (`live` and
/// `serve`): waits out `PHASE_WARMUP`, calls `baseline` once at the
/// flip to `PHASE_MEASURE` (callers snapshot their monotone counters
/// and take `WindowedHistogram::baseline` cursors there, so warmup
/// records stay out of window 1), then calls `window` once per
/// `interval`, paced against `t0 + interval · tick` so ticks do not
/// drift, until the phase leaves `PHASE_MEASURE`. Sleeps in ≤ 1 ms
/// chunks, so it exits within a millisecond or so of `PHASE_DONE`.
/// Returns the windows' points in order.
pub fn sample_windows<S, P>(
    phase: &AtomicU8,
    interval: Duration,
    baseline: impl FnOnce() -> S,
    mut window: impl FnMut(&mut S, &SampleWindow) -> P,
) -> Vec<P> {
    const CHUNK: Duration = Duration::from_millis(1);
    while phase.load(Ordering::Acquire) == PHASE_WARMUP {
        std::thread::sleep(interval.min(CHUNK));
    }
    let t0 = Instant::now();
    let mut state = baseline();
    let mut points = Vec::new();
    let mut prev_t = t0;
    let mut tick = 0u32;
    loop {
        tick += 1;
        let deadline = t0 + interval * tick;
        loop {
            if phase.load(Ordering::Acquire) != PHASE_MEASURE {
                return points;
            }
            let Some(remain) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            std::thread::sleep(remain.min(CHUNK));
        }
        let now = Instant::now();
        let window_s = now.duration_since(prev_t).as_secs_f64();
        if window_s <= 0.0 {
            continue;
        }
        let w = SampleWindow {
            start_s: prev_t.duration_since(t0).as_secs_f64(),
            t_s: now.duration_since(t0).as_secs_f64(),
            window_s,
        };
        points.push(window(&mut state, &w));
        prev_t = now;
    }
}

/// The run's always-on metrics registry: recorded by every worker on
/// every operation (warmup included), harvested only by the sampler.
/// Unlike [`ThreadStats`] it is shared — a relaxed counter bump and a
/// double-buffered histogram record per op, cheap enough to leave on
/// unconditionally (the benchmark prices it as `obs.record_ns` and
/// `harness.overhead_ns_per_op`).
#[derive(Default)]
struct LiveMetrics {
    completed: Counter,
    latency: WindowedHistogram,
}

/// Per-thread measurement accumulators.
#[derive(Default)]
struct ThreadStats {
    search: Welford,
    insert: Welford,
    delete: Welford,
    latency: Histogram,
    completed: u64,
}

/// The tree's lock statistics per level, leaves first (like
/// `SimReport`): `(live nodes, merged stats)` per level, read from the
/// tree's per-level accumulators in O(height) without a latch (see
/// [`ConcurrentBTree::level_stats`]). The closed-loop harness and the
/// open-loop service layer (`cbtree-serve`) both diff these snapshots
/// across their measured windows.
pub fn level_snapshots(tree: &ConcurrentBTree<u64>) -> Vec<(u64, LockStatsSnapshot)> {
    tree.level_stats()
}

/// Prefills `tree` with `items` distinct keys drawn from the workload's
/// key distribution (independent of the operation mix, so read-only
/// mixes still get a populated tree).
fn prefill(tree: &ConcurrentBTree<u64>, cfg: &LiveConfig) {
    let mut rng = Rng::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut inserted = 0u64;
    while (inserted as usize) < cfg.initial_items {
        let k = cfg.ops.keys.sample(&mut rng, inserted);
        if tree.insert(k, k).is_none() {
            inserted += 1;
        }
    }
    // Recovery protocols retain latches: release them before workers
    // start, or the prefilling thread would block the whole run.
    tree.txn_commit();
}

/// Forks a per-thread workload seed with a SplitMix64 step: the stream
/// index enters through the golden-ratio increment and the state is run
/// through the full finalizer, so distinct `(seed, thread)` pairs
/// collide only when `seed − seed′ = (thread′ − thread) · γ (mod 2⁶⁴)` —
/// unlike the old `seed ^ (0xA5A5 + t)`, which aliased nearby seeds
/// across thread indices (e.g. `(3, 0)` and `(0, 1)` shared a stream).
/// Shared with the service layer's generator threads.
pub fn fork_seed(seed: u64, thread: u64) -> u64 {
    let mut z = seed.wrapping_add(thread.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn apply(tree: &ConcurrentBTree<u64>, op: Operation) {
    match op {
        Operation::Search(k) => {
            std::hint::black_box(tree.get(&k));
        }
        Operation::Insert(k) => {
            std::hint::black_box(tree.insert(k, k));
        }
        Operation::Delete(k) => {
            std::hint::black_box(tree.remove(&k));
        }
    }
}

/// Runs one live measurement.
///
/// Choreography: worker threads run the closed-loop workload through a
/// warmup phase; the coordinator then parks everyone on a barrier
/// (quiescing the tree), snapshots its per-level lock statistics,
/// releases the workers into the timed window, quiesces again, snapshots
/// again, and diffs the two snapshots per level.
///
/// # Panics
/// Panics when `threads == 0` or the operation mix is invalid.
pub fn run(cfg: &LiveConfig) -> LiveReport {
    assert!(cfg.threads > 0, "need at least one worker thread");
    assert!(cfg.ops.is_valid(), "operation mix must sum to 1");

    // With tracing compiled in, the whole measurement holds the global
    // trace lock: rings are process-wide, so two concurrent runs would
    // interleave their events and corrupt each other's drains.
    #[cfg(feature = "trace")]
    let _trace_window = cbtree_obs::trace::measurement_window();

    let tree = Arc::new(ConcurrentBTree::with_sampling(
        cfg.protocol,
        cfg.capacity,
        cfg.stats_sampling,
    ));
    prefill(&tree, cfg);

    let phase = Arc::new(AtomicU8::new(PHASE_WARMUP));
    let metrics = Arc::new(LiveMetrics::default());
    // Two rendezvous per quiesce point: workers arrive (tree quiescent),
    // the coordinator snapshots, everyone departs together.
    let quiesce_a = Arc::new(Barrier::new(cfg.threads + 1));
    let resume_a = Arc::new(Barrier::new(cfg.threads + 1));
    let quiesce_b = Arc::new(Barrier::new(cfg.threads + 1));
    let resume_b = Arc::new(Barrier::new(cfg.threads + 1));

    let (reports, snap_a, snap_b, counters, elapsed, trace, timeseries) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads as u64 {
            let tree = Arc::clone(&tree);
            let phase = Arc::clone(&phase);
            let metrics = Arc::clone(&metrics);
            let (qa, ra) = (Arc::clone(&quiesce_a), Arc::clone(&resume_a));
            let (qb, rb) = (Arc::clone(&quiesce_b), Arc::clone(&resume_b));
            let mut stream = OpStream::new(cfg.ops, fork_seed(cfg.seed, t)).with_txn(cfg.txn);
            handles.push(s.spawn(move || {
                // Warmup: run until the coordinator flips the phase. The
                // always-on registry records here too — its windows
                // describe the run as it actually executed, and the
                // sampler discards everything up to its baseline anyway.
                while phase.load(Ordering::Acquire) == PHASE_WARMUP {
                    let t0 = Instant::now();
                    apply(&tree, stream.next_op());
                    if stream.at_commit_point() {
                        tree.txn_commit();
                    }
                    metrics
                        .latency
                        .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    metrics.completed.inc();
                }
                // Commit before parking: a worker must never carry
                // retained latches into a quiesce barrier (their holds
                // would straddle the snapshot, and the final structural
                // check would block on them).
                tree.txn_commit();
                qa.wait();
                ra.wait();
                // Measured window.
                let mut stats = ThreadStats::default();
                while phase.load(Ordering::Acquire) == PHASE_MEASURE {
                    let op = stream.next_op();
                    let t0 = Instant::now();
                    apply(&tree, op);
                    if stream.at_commit_point() {
                        tree.txn_commit();
                    }
                    let elapsed = t0.elapsed();
                    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
                    metrics.latency.record(ns);
                    metrics.completed.inc();
                    stats.latency.record(ns);
                    let dt = elapsed.as_secs_f64();
                    match op {
                        Operation::Search(_) => stats.search.add(dt),
                        Operation::Insert(_) => stats.insert.add(dt),
                        Operation::Delete(_) => stats.delete.add(dt),
                    }
                    stats.completed += 1;
                }
                tree.txn_commit(); // same rule at the closing barrier
                qb.wait();
                rb.wait();
                stats
            }));
        }

        // The continuous sampler, when configured. It is deliberately
        // *not* part of the quiesce barriers: it self-synchronizes on
        // the phase atomic and reads only the relaxed-atomic registry
        // and op counters.
        let sampler_handle = cfg.sample_interval.map(|interval| {
            let tree = Arc::clone(&tree);
            let phase = Arc::clone(&phase);
            let metrics = Arc::clone(&metrics);
            s.spawn(move || {
                sample_windows(
                    &phase,
                    interval,
                    || {
                        let cursor = metrics.latency.baseline();
                        (cursor, metrics.completed.get(), tree.counters())
                    },
                    |(cursor, prev_completed, prev_ctr), w| {
                        let completed = metrics.completed.get();
                        let ctr = tree.counters();
                        let window_ctr = ctr.since(prev_ctr);
                        let latency = metrics.latency.harvest(cursor);
                        let rate = completed.wrapping_sub(*prev_completed) as f64 / w.window_s;
                        (*prev_completed, *prev_ctr) = (completed, ctr);
                        LivePoint {
                            t_s: w.t_s,
                            window_s: w.window_s,
                            completed_rate: rate,
                            n: latency.total(),
                            latency_p50_ns: latency.p50(),
                            latency_p99_ns: latency.p99(),
                            latency_max_ns: latency.max_ns,
                            splits_per_s: window_ctr.splits as f64 / w.window_s,
                            chases_per_s: window_ctr.chases as f64 / w.window_s,
                        }
                    },
                )
            })
        });

        std::thread::sleep(cfg.warmup);
        phase.store(PHASE_MEASURE, Ordering::Release);
        quiesce_a.wait(); // all workers parked; tree quiescent
        let snap_a = level_snapshots(&tree);
        let ctr_a = tree.counters();
        // Discard prefill/warmup events so the trace covers exactly the
        // measured window (workers are parked, so nothing races this).
        let _ = cbtree_obs::trace::drain();
        resume_a.wait();
        // Start the clock only after the resume barrier has released the
        // workers: taking it earlier charged every worker's barrier
        // wake-up latency to the window, biasing throughput low as the
        // thread count grew.
        let t0 = Instant::now();
        std::thread::sleep(cfg.measure);
        phase.store(PHASE_DONE, Ordering::Release);
        quiesce_b.wait(); // quiescent again
        let elapsed = t0.elapsed();
        let timeseries = sampler_handle
            .map(|h| h.join().expect("sampler panicked"))
            .unwrap_or_default();
        // Drain the measured-window trace while the workers are parked
        // (rings registered but quiescent).
        let trace = cbtree_obs::trace::drain();
        let snap_b = level_snapshots(&tree);
        let ctr_b = tree.counters();
        resume_b.wait();

        let reports: Vec<ThreadStats> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        (
            reports,
            snap_a,
            snap_b,
            ctr_b.since(&ctr_a),
            elapsed,
            trace,
            timeseries,
        )
    });

    // Final quiescent structural check: every live run ends with the tree
    // still satisfying its own invariants (key ordering, high keys, link
    // chains) — a measurement taken on a corrupted tree is worthless.
    tree.check()
        .unwrap_or_else(|e| panic!("post-run structural check failed: {e}"));

    let mut search = Welford::new();
    let mut insert = Welford::new();
    let mut delete = Welford::new();
    let mut latency = HistogramSnapshot::default();
    let mut completed = 0;
    for r in &reports {
        search.merge(&r.search);
        insert.merge(&r.insert);
        delete.merge(&r.delete);
        latency.merge(&r.latency.snapshot());
        completed += r.completed;
    }

    let elapsed_secs = elapsed.as_secs_f64();
    let elapsed_ns = elapsed.as_nanos() as u64;
    // The tree may have grown during the window: align per level, using
    // the end-of-window shape (new nodes have zero baseline counters).
    let mut levels = Vec::with_capacity(snap_b.len());
    for (i, (nodes, after)) in snap_b.iter().enumerate() {
        let window = match snap_a.get(i) {
            Some((_, before)) => after.since(before),
            None => *after,
        };
        levels.push(LevelLive {
            level: i + 1,
            nodes: *nodes,
            rho_w: window.writer_utilization(elapsed_ns, *nodes),
            stats: window,
        });
    }

    LiveReport {
        threads: cfg.threads,
        throughput: if elapsed_secs > 0.0 {
            completed as f64 / elapsed_secs
        } else {
            0.0
        },
        completed,
        measured_time: elapsed_secs,
        resp_search: Summary::from_welford(&search),
        resp_insert: Summary::from_welford(&insert),
        resp_delete: Summary::from_welford(&delete),
        wait_w_by_level: levels
            .iter()
            .map(|l| l.stats.mean_w_wait_ns() * 1e-9)
            .collect(),
        wait_r_by_level: levels
            .iter()
            .map(|l| l.stats.mean_r_wait_ns() * 1e-9)
            .collect(),
        root_writer_utilization: levels.last().map_or(0.0, |l| l.rho_w),
        counters,
        latency,
        final_height: levels.len(),
        final_len: tree.len(),
        levels,
        timeseries,
        trace,
    }
}

/// The saturation-search schedule, separated from measurement so it is
/// unit-testable: visits thread counts 1, 2, 4, … doubling but clamped
/// to `max_threads` (so a non-power-of-two maximum is still measured
/// rather than overshot), stopping early once a point gains less than 5%
/// over the best seen so far — with the current point's throughput
/// folded into that best, so a flat curve stops at its first flat point.
/// Returns the thread counts measured, in order.
fn saturation_points(max_threads: usize, mut measure: impl FnMut(usize) -> f64) -> Vec<usize> {
    let max = max_threads.max(1);
    let mut visited = Vec::new();
    let mut best = 0.0f64;
    let mut threads = 1usize;
    loop {
        let tp = measure(threads);
        visited.push(threads);
        let improved = threads == 1 || tp >= best * 1.05;
        best = best.max(tp);
        if !improved || threads >= max {
            break;
        }
        threads = (threads * 2).min(max);
    }
    visited
}

/// Finds the maximum sustainable throughput by doubling the worker count
/// from 1 up to `max_threads` (always measuring `max_threads` itself,
/// even when it is not a power of two), stopping once extra threads gain
/// less than 5% over the best measurement so far. Returns every
/// `(threads, report)` pair tried, in order; the peak is the maximum of
/// `report.throughput`.
pub fn saturation_search(base: &LiveConfig, max_threads: usize) -> Vec<(usize, LiveReport)> {
    let mut out = Vec::new();
    saturation_points(max_threads, |threads| {
        let report = run(&LiveConfig {
            threads,
            ..base.clone()
        });
        let tp = report.throughput;
        out.push((threads, report));
        tp
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the old `seed ^ (0xA5A5 + t)` fork, under which
    /// e.g. `(seed=3, t=0)` and `(seed=0, t=1)` shared a workload
    /// stream: every nearby `(seed, thread)` pair must now produce a
    /// distinct operation prefix.
    #[test]
    fn nearby_seeds_fork_disjoint_streams() {
        let ops = OpsConfig::paper(1_000_000);
        let prefix = |seed: u64, t: u64| -> Vec<Operation> {
            let mut stream = OpStream::new(ops, fork_seed(seed, t));
            (0..32).map(|_| stream.next_op()).collect()
        };
        let mut seen = Vec::new();
        for seed in 0..4u64 {
            for t in 0..4u64 {
                let p = prefix(seed, t);
                assert!(
                    !seen
                        .iter()
                        .any(|(s0, t0, p0)| { *p0 == p && (*s0, *t0) != (seed, t) }),
                    "(seed={seed}, t={t}) collides with an earlier stream"
                );
                seen.push((seed, t, p));
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn saturation_schedule_reaches_non_power_of_two_max() {
        // Monotone curve: doubling must clamp to 6, not overshoot to 8
        // and exit without ever measuring max_threads.
        let visited = saturation_points(6, |t| t as f64);
        assert_eq!(visited, vec![1, 2, 4, 6]);
    }

    #[test]
    fn saturation_schedule_stops_on_flat_curve() {
        // Monotone then flat at 4 threads: the first flat point is
        // measured (its throughput folds into best-so-far) and the
        // search stops there.
        let visited = saturation_points(64, |t| t.min(4) as f64);
        assert_eq!(visited, vec![1, 2, 4, 8]);
    }

    #[test]
    fn saturation_schedule_degenerate_cases() {
        assert_eq!(saturation_points(1, |t| t as f64), vec![1]);
        assert_eq!(saturation_points(0, |t| t as f64), vec![1]);
        // A sub-5% gain at 2 threads ends the search immediately.
        let visited = saturation_points(16, |t| if t == 1 { 100.0 } else { 102.0 });
        assert_eq!(visited, vec![1, 2]);
    }

    #[test]
    fn level_snapshot_covers_whole_tree() {
        let tree = ConcurrentBTree::new(Protocol::BLink, 4);
        for k in 0..500u64 {
            tree.insert(k, k);
        }
        let snaps = level_snapshots(&tree);
        assert_eq!(snaps.len(), tree.height());
        // Leaves-first: many leaves, exactly one root.
        assert!(snaps[0].0 > 1);
        assert_eq!(snaps.last().unwrap().0, 1);
        // Every insert touched a leaf lock at least once.
        assert!(snaps[0].1.w_acquires >= 500);
    }

    #[test]
    fn single_thread_run_reports_consistent_counts() {
        let mut cfg = LiveConfig::quick(Protocol::LockCoupling, 1);
        cfg.measure = Duration::from_millis(60);
        let report = run(&cfg);
        assert_eq!(report.threads, 1);
        assert!(report.completed > 0, "no operations completed");
        let n = report.resp_search.n + report.resp_insert.n + report.resp_delete.n;
        assert_eq!(n, report.completed);
        assert!(report.throughput > 0.0);
        assert!(report.measured_time > 0.0);
        assert_eq!(report.levels.len(), report.final_height);
        for l in &report.levels {
            assert!(
                (0.0..=1.0).contains(&l.rho_w),
                "level {}: {}",
                l.level,
                l.rho_w
            );
        }
        // Window-scoped engine telemetry rides along.
        assert!(report.counters.ops > 0);
        assert!(report.counters.latches_per_op() >= 1.0);
        // Every completed op landed in the pooled latency histogram, and
        // the quantiles are ordered.
        assert_eq!(report.latency.total(), report.completed);
        assert!(report.latency.p50() <= report.latency.p99());
        assert!(report.latency.p99() <= report.latency.p999());
    }

    #[test]
    fn live_report_json_round_trips() {
        let mut cfg = LiveConfig::quick(Protocol::BLink, 2);
        cfg.measure = Duration::from_millis(50);
        let report = run(&cfg);
        let j = report.to_json();
        let parsed = Json::parse(&j.to_string().unwrap()).unwrap();
        assert_eq!(parsed, j, "serialize → parse must be the identity");
        assert_eq!(
            parsed.get("type").and_then(Json::as_str),
            Some("live_report")
        );
        assert_eq!(
            parsed.get("completed").and_then(Json::as_u64),
            Some(report.completed)
        );
        assert_eq!(
            parsed
                .get("levels")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(report.levels.len())
        );
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("ops"))
                .and_then(Json::as_u64),
            Some(report.counters.ops)
        );
    }

    /// With tracing compiled in, every live run's report carries the
    /// measured-window trace: events exist, grants pair with releases,
    /// and timestamps stay inside (a generous bound of) the window.
    #[cfg(feature = "trace")]
    #[test]
    fn live_run_attaches_measured_window_trace() {
        use cbtree_obs::EventKind;
        // The default 2^16-event rings drop under even a short window of
        // debug-build lock coupling (that is what the drop counter is
        // for); size them for a lossless window so pairing is exact.
        cbtree_obs::trace::set_default_ring_capacity(1 << 19);
        let mut cfg = LiveConfig::quick(Protocol::LockCoupling, 2);
        cfg.measure = Duration::from_millis(80);
        let report = run(&cfg);
        let t = &report.trace;
        assert!(!t.events.is_empty(), "traced run produced no events");
        assert_eq!(t.dropped, 0, "sized rings must hold the whole window");
        let count = |k: EventKind| t.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::LatchGrant), count(EventKind::LatchRelease));
        assert_eq!(count(EventKind::OpBegin), count(EventKind::OpEnd));
        assert!(count(EventKind::OpBegin) > 0);
        let span_ns = t.events.last().unwrap().ts_ns - t.events.first().unwrap().ts_ns;
        // The drain happens at quiesce B: nothing in the trace can span
        // much more than the measured window plus scheduling slop.
        assert!(
            (span_ns as f64) < (report.measured_time + 1.0) * 1e9,
            "trace spans {span_ns} ns, window was {} s",
            report.measured_time
        );
        // Once no run is in its window, emission is off again: what the
        // process does next must not pay for it.
        let _no_run_in_flight = cbtree_obs::trace::measurement_lock();
        assert!(!cbtree_obs::trace::enabled(), "run() left tracing on");
    }

    /// The shared sampler driver against a hand-driven phase atomic: no
    /// window before MEASURE, warmup records excluded from window 1,
    /// exit within one interval of DONE, and every measured record in
    /// exactly one window or the final drain.
    #[test]
    fn sampler_driver_follows_the_phase_atomic() {
        use cbtree_obs::metrics::WindowCursor;
        use std::sync::{mpsc, Mutex};
        let interval = Duration::from_millis(40);
        let phase = AtomicU8::new(PHASE_WARMUP);
        let hist = WindowedHistogram::new();
        let cursor = Mutex::new(WindowCursor::new());
        let (tx, rx) = mpsc::channel::<Option<u64>>();
        let record = |n: u64| (0..n).for_each(|_| hist.record(100));
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                sample_windows(
                    &phase,
                    interval,
                    || {
                        *cursor.lock().unwrap() = hist.baseline();
                        tx.send(None).unwrap();
                    },
                    |(), w| {
                        let n = hist.harvest(&mut cursor.lock().unwrap()).total();
                        tx.send(Some(n)).unwrap();
                        (*w, n)
                    },
                )
            });
            record(7); // warmup
            std::thread::sleep(2 * interval);
            assert!(rx.try_recv().is_err(), "nothing happens before MEASURE");
            phase.store(PHASE_MEASURE, Ordering::Release);
            assert_eq!(rx.recv().unwrap(), None, "baseline comes first");
            record(11);
            // The 11 measured records arrive in the next window(s); the
            // 7 warmup records never do.
            let mut seen = 0;
            while seen < 11 {
                seen += rx.recv().unwrap().expect("windows follow the baseline");
            }
            assert_eq!(seen, 11, "warmup records leaked into a window");
            record(5);
            let t_done = Instant::now();
            phase.store(PHASE_DONE, Ordering::Release);
            let points = sampler.join().expect("sampler panicked");
            assert!(t_done.elapsed() < interval, "exit within one interval");
            let mut cur = cursor.lock().unwrap();
            let drain = hist.harvest(&mut cur).total() + hist.harvest(&mut cur).total();
            let windowed: u64 = points.iter().map(|(_, n)| n).sum();
            assert_eq!(
                windowed + drain,
                16,
                "records conserved across windows + drain"
            );
            let mut prev_end = 0.0;
            for (w, _) in &points {
                assert_eq!(w.start_s, prev_end, "windows tile the measured phase");
                assert!(w.window_s > 0.0 && w.t_s > w.start_s);
                prev_end = w.t_s;
            }
        });
    }

    #[test]
    fn sampler_emits_live_windows() {
        let mut cfg = LiveConfig::quick(Protocol::BLink, 2);
        cfg.measure = Duration::from_millis(200);
        cfg.sample_interval = Some(Duration::from_millis(30));
        let report = run(&cfg);
        assert!(
            report.timeseries.len() >= 3,
            "a 200 ms window at 30 ms ticks should yield several points, got {}",
            report.timeseries.len()
        );
        let windowed_n: u64 = report.timeseries.iter().map(|p| p.n).sum();
        assert!(windowed_n > 0, "windows must observe completions");
        // The windowed registry counts every op it saw; the measured
        // window's completions are a subset of the sampler's span plus
        // edge windows, so the totals agree only loosely — but a
        // closed loop at full tilt must land work in most windows.
        for p in &report.timeseries {
            assert!(p.window_s > 0.0);
            assert!(p.latency_p50_ns <= p.latency_p99_ns);
            assert!(p.latency_p99_ns <= p.latency_max_ns);
            let j = p.to_json();
            let parsed = Json::parse(&j.to_string().unwrap()).unwrap();
            assert_eq!(parsed, j, "timeseries record must round-trip");
            assert_eq!(
                parsed.get("type").and_then(Json::as_str),
                Some("timeseries")
            );
        }
        assert_eq!(
            report
                .to_json()
                .get("timeseries_windows")
                .and_then(Json::as_u64),
            Some(report.timeseries.len() as u64)
        );
    }

    #[test]
    fn recovery_run_with_transactions_completes() {
        let mut cfg = LiveConfig::quick(Protocol::RecoveryNaive, 3);
        cfg.txn = 4;
        cfg.measure = Duration::from_millis(80);
        let report = run(&cfg);
        assert!(report.completed > 0);
        assert!(report.counters.txn_commits > 0, "commits must be counted");
    }
}
