//! `cbtree-serve`: an *open-loop* sharded service layer over the
//! concurrent B+-trees of `cbtree-btree`.
//!
//! The closed-loop harness (`cbtree-harness`) matches the paper's
//! simulator: a fixed set of threads, each issuing its next operation
//! the instant the previous one completes — offered load falls
//! automatically as the tree slows down, so response times saturate
//! gently and queueing delay is invisible. The paper's *analysis*,
//! however, is an open queueing network: operations arrive at rate λ
//! whether or not the previous ones have finished. This crate closes
//! that gap:
//!
//! * a [`KeyRangeRouter`] carves the key space into `M` contiguous
//!   ranges, each owned by an independent tree shard;
//! * per shard, a bounded [`IngressQueue`] with admission control
//!   (shed when full, plus an optional enqueue-age timeout) is drained
//!   by a configurable worker pool;
//! * open-loop generator threads emit operations on Poisson or bursty
//!   on-off arrival processes (`cbtree-workload`), stamping the enqueue
//!   time so the report measures true *sojourn* time — queue wait plus
//!   service — including the waiting time of operations that are shed
//!   rather than served.
//!
//! [`serve`] runs one measurement at a fixed λ; [`sweep`] maps a λ list
//! into the λ-vs-response-time curve the paper plots; and
//! [`max_sustainable_lambda`] runs the bracket-then-bisect saturation
//! search for the largest λ the service sustains without shedding.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod metrics;
mod queue;
mod report;
mod router;
mod shard;

pub use metrics::{slo_line, ShardWindow, SloReport, TimeseriesPoint, SLO_BURN_WINDOWS};
pub use queue::{IngressQueue, QueuedOp, Shed};
pub use report::{ServeReport, ShardReport};
pub use router::KeyRangeRouter;

use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_harness::{
    fork_seed, level_snapshots, level_windows, PHASE_DONE, PHASE_MEASURE, PHASE_WARMUP,
};
use cbtree_queueing::BatchSizeMoments;
use cbtree_sync::{HistogramSnapshot, SamplePeriod};
use cbtree_workload::{ArrivalProcess, OnOffArrivals, OpStream, OpsConfig, PoissonArrivals, Rng};
use shard::{offer, worker_loop, GenLocal, ShardRuntime, WorkerLocal};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of the arrival process feeding the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// Memoryless Poisson arrivals at the configured λ — the paper's
    /// open-network assumption.
    Poisson,
    /// Two-state on-off modulated Poisson arrivals with the *same*
    /// long-run λ, concentrated into bursts: inside an ON period the
    /// instantaneous rate is `burstiness · λ`; OFF periods are silent.
    OnOff {
        /// Peak-to-mean ratio `b ≥ 1` (`1` degenerates to Poisson).
        burstiness: f64,
        /// Mean length of an ON burst.
        mean_on: Duration,
    },
}

/// Configuration of one open-loop measurement.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Latching protocol every shard's tree runs.
    pub protocol: Protocol,
    /// Number of key-range shards (independent trees + queues).
    pub shards: usize,
    /// Worker threads draining each shard's queue.
    pub workers_per_shard: usize,
    /// Most operations a worker drains (and executes as one sorted
    /// batch) per wakeup. `1` is singleton service — exactly the
    /// pre-batching behavior. Larger values amortize root-to-leaf
    /// descents across ops that land in the same leaf and amortize the
    /// per-descent service floor with them.
    pub batch_max: usize,
    /// Open-loop generator threads. Each emits an independent arrival
    /// process at `lambda / generators`; their superposition offers the
    /// aggregate λ (exactly Poisson for [`ArrivalShape::Poisson`]).
    pub generators: usize,
    /// Node capacity (max keys per node) of each shard's tree.
    pub capacity: usize,
    /// Keys inserted across all shards before measurement starts.
    pub initial_items: usize,
    /// Operation mix and key distribution.
    pub ops: OpsConfig,
    /// Aggregate offered arrival rate, operations per second.
    pub lambda: f64,
    /// Arrival process shape.
    pub arrivals: ArrivalShape,
    /// Minimum service time per operation: workers sleep out the
    /// remainder after the tree op completes, emulating the paper's
    /// disk-resident node cost (an in-memory op is ~1 µs, which pins
    /// `ρ = λ·E[X]` near zero at any paceable λ; the floor makes the
    /// utilization regime of the λ-vs-sojourn curve configurable).
    /// `Duration::ZERO` (the default) serves at raw tree speed.
    pub service_floor: Duration,
    /// Bound on each shard's ingress queue; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Optional admission deadline: an operation whose queue wait
    /// exceeds this at dequeue is shed instead of served.
    pub max_enqueue_age: Option<Duration>,
    /// Untimed warmup before the measured window.
    pub warmup: Duration,
    /// Length of the measured window.
    pub measure: Duration,
    /// Seed for arrival processes and workload streams (forked per
    /// generator, so runs are reproducible up to OS scheduling).
    pub seed: u64,
    /// Lock-timing sampling period for the shards' node locks.
    pub stats_sampling: SamplePeriod,
    /// When set, a sampler thread harvests every shard's always-on
    /// metrics registry at this interval during the measured window,
    /// emitting one [`TimeseriesPoint`] per window. `None` (the
    /// default) runs without the sampler; the registries still record.
    pub sample_interval: Option<Duration>,
    /// Optional p99-sojourn SLO budget for the burn monitor: with the
    /// sampler on, [`SLO_BURN_WINDOWS`] consecutive windows whose p99
    /// blows this budget stamp the saturation onset into the report.
    pub slo_p99: Option<Duration>,
}

impl ServeConfig {
    /// Paper-style default: mix `.3/.5/.2` over a 1M key space,
    /// capacity-64 nodes, 50k initial items split across `shards`,
    /// Poisson arrivals, one worker per shard.
    pub fn paper(protocol: Protocol, shards: usize, lambda: f64) -> Self {
        ServeConfig {
            protocol,
            shards,
            workers_per_shard: 1,
            batch_max: 1,
            generators: 2,
            capacity: 64,
            initial_items: 50_000,
            ops: OpsConfig::paper(1_000_000),
            lambda,
            arrivals: ArrivalShape::Poisson,
            service_floor: Duration::ZERO,
            queue_capacity: 4096,
            max_enqueue_age: None,
            warmup: Duration::from_millis(200),
            measure: Duration::from_millis(1000),
            seed: 0x5E47E,
            stats_sampling: SamplePeriod::EXACT,
            sample_interval: None,
            slo_p99: None,
        }
    }

    /// A fast variant for smoke tests.
    pub fn quick(protocol: Protocol, shards: usize, lambda: f64) -> Self {
        ServeConfig {
            capacity: 16,
            initial_items: 4_000,
            warmup: Duration::from_millis(30),
            measure: Duration::from_millis(120),
            ..ServeConfig::paper(protocol, shards, lambda)
        }
    }

    /// The router this configuration shards by: the workload's key space
    /// carved into `shards` contiguous ranges (routing over the *used*
    /// space keeps the shards balanced; a sequential workload has no
    /// bound, so it splits the full `u64` space).
    pub fn router(&self) -> KeyRangeRouter {
        KeyRangeRouter::with_space(self.shards, self.ops.keys.key_space_hi())
    }
}

/// Sleeps until `deadline`: coarse bounded chunks down to the last
/// millisecond, then a yield loop. The two-stage shape matters —
/// `thread::sleep` routinely oversleeps by tens to hundreds of
/// microseconds, and at sub-millisecond inter-arrival times a
/// perpetually-late generator degenerates into emitting catch-up
/// *bursts*, inflating every measured queue wait with an artifact of
/// the generator itself. The fine stage uses `yield_now` rather than a
/// pure spin: on an idle core it returns almost immediately (precise
/// pacing), while on an oversubscribed machine it cedes the core to
/// the very workers whose service this run is measuring. Bails out
/// early, returning `false`, once the run is `DONE`; the sleep
/// chunking bounds how long a low-λ generator can block the
/// coordinator's join.
fn pace_until(deadline: Instant, phase: &AtomicU8) -> bool {
    const YIELD_WINDOW: Duration = Duration::from_millis(1);
    loop {
        if phase.load(Ordering::Acquire) == PHASE_DONE {
            return false;
        }
        match deadline.checked_duration_since(Instant::now()) {
            None => return true, // behind schedule: offer immediately
            Some(remain) if remain <= YIELD_WINDOW => break,
            Some(remain) => {
                std::thread::sleep((remain - YIELD_WINDOW).min(Duration::from_millis(2)));
            }
        }
    }
    let mut polls = 0u32;
    while Instant::now() < deadline {
        polls = polls.wrapping_add(1);
        if polls.is_multiple_of(16) && phase.load(Ordering::Acquire) == PHASE_DONE {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

fn make_arrivals(cfg: &ServeConfig, gen: u64) -> ArrivalProcess {
    let rate = cfg.lambda / cfg.generators as f64;
    let seed = fork_seed(cfg.seed, gen);
    match cfg.arrivals {
        ArrivalShape::Poisson => ArrivalProcess::Poisson(PoissonArrivals::new(rate, seed)),
        ArrivalShape::OnOff {
            burstiness,
            mean_on,
        } => ArrivalProcess::OnOff(OnOffArrivals::with_mean_rate(
            rate,
            burstiness,
            mean_on.as_secs_f64(),
            seed,
        )),
    }
}

/// Prefills every shard with its slice of `initial_items` keys drawn
/// from the workload's key distribution and routed like live traffic.
fn prefill(runtimes: &[ShardRuntime], router: &KeyRangeRouter, cfg: &ServeConfig) {
    let mut rng = Rng::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut inserted = 0u64;
    while (inserted as usize) < cfg.initial_items {
        let k = cfg.ops.keys.sample(&mut rng, inserted);
        if runtimes[router.shard_of(k)].tree.insert(k, k).is_none() {
            inserted += 1;
        }
    }
    for rt in runtimes {
        rt.tree.txn_commit();
    }
}

/// Runs one open-loop measurement at `cfg.lambda`.
///
/// Choreography: shards (tree + bounded queue + workers) come up first;
/// generators then emit operations on their arrival processes,
/// routing each by key and stamping the enqueue time. Operations that
/// arrive during warmup or after the window are executed but not
/// reported. The coordinator flips phases on one atomic — unlike the
/// closed-loop harness there is no quiesce barrier, because an open
/// loop must keep arriving while snapshots are taken; per-level lock
/// snapshots are diffed across the window instead. After the window,
/// generators stop, the queues are closed, and workers drain them to
/// the end so every accepted measured operation gets an outcome
/// (served or timed out) before the report is assembled.
///
/// # Panics
/// Panics on a zero shard/worker/generator count, an invalid operation
/// mix, a non-positive λ, or a post-run structural check failure.
pub fn serve(cfg: &ServeConfig) -> ServeReport {
    assert!(
        cfg.workers_per_shard >= 1,
        "need at least one worker per shard"
    );
    assert!(
        (1..=255).contains(&cfg.batch_max),
        "batch_max must be in 1..=255 (trace events carry the size in a byte), got {}",
        cfg.batch_max
    );
    assert!(cfg.generators >= 1, "need at least one generator");
    assert!(cfg.ops.is_valid(), "operation mix must sum to 1");
    assert!(
        cfg.lambda.is_finite() && cfg.lambda > 0.0,
        "lambda must be positive, got {}",
        cfg.lambda
    );

    // Hold the process-wide trace lock for the whole measurement (rings
    // are global; concurrent runs would interleave their events).
    // Whether anything is emitted is the process's switch (`serve
    // --trace-buf`), not the run's.
    let _one_run_at_a_time = cbtree_obs::trace::measurement_lock();

    let router = cfg.router();
    let runtimes: Vec<ShardRuntime> = (0..cfg.shards)
        .map(|_| ShardRuntime {
            tree: Arc::new(ConcurrentBTree::with_sampling(
                cfg.protocol,
                cfg.capacity,
                cfg.stats_sampling,
            )),
            queue: Arc::new(IngressQueue::new(cfg.queue_capacity)),
            metrics: Arc::new(Default::default()),
        })
        .collect();
    prefill(&runtimes, &router, cfg);

    let phase = AtomicU8::new(PHASE_WARMUP);
    let epoch = Instant::now(); // arrival-process time zero

    let (gens, workers, snap_a, snap_b, ctr_a, ctr_b, elapsed, trace, sampler) =
        std::thread::scope(|s| {
            let mut worker_handles = Vec::with_capacity(cfg.shards * cfg.workers_per_shard);
            for (sh, rt) in runtimes.iter().enumerate() {
                for _ in 0..cfg.workers_per_shard {
                    let (tree, queue) = (Arc::clone(&rt.tree), Arc::clone(&rt.queue));
                    let metrics = Arc::clone(&rt.metrics);
                    let (max_age, floor) = (cfg.max_enqueue_age, cfg.service_floor);
                    let batch_max = cfg.batch_max;
                    worker_handles.push(s.spawn(move || {
                        (
                            sh,
                            worker_loop(
                                sh as u16, &tree, &queue, &metrics, max_age, floor, batch_max,
                            ),
                        )
                    }));
                }
            }

            // The continuous sampler, when configured: it self-synchronizes
            // on the phase atomic (baselines at the warmup→measure flip,
            // exits at DONE) and reads only monotone atomics, so it needs no
            // barrier with generators or workers.
            let sampler_handle = cfg
                .sample_interval
                .map(|_| s.spawn(|| metrics::sampler_loop(cfg, &runtimes, &phase)));

            let mut gen_handles = Vec::with_capacity(cfg.generators);
            for g in 0..cfg.generators as u64 {
                let (phase, router, runtimes) = (&phase, &router, &runtimes);
                let mut arrivals = make_arrivals(cfg, g);
                // Forking the ops seed from `!seed` keeps the operation
                // streams disjoint from the arrival-time streams. Sequential
                // streams append above the prefill, each generator in its
                // own disjoint band so their counters never collide.
                let mut stream = OpStream::new(cfg.ops, fork_seed(!cfg.seed, g))
                    .with_seq_base(cfg.initial_items as u64 + (g << 40));
                gen_handles.push(s.spawn(move || {
                    let mut local = GenLocal::new(runtimes.len());
                    loop {
                        let t = arrivals.next_arrival();
                        if !pace_until(epoch + Duration::from_secs_f64(t), phase) {
                            break;
                        }
                        // An arrival behind schedule is offered immediately:
                        // open-loop catch-up, not back-pressure.
                        let measured = phase.load(Ordering::Acquire) == PHASE_MEASURE;
                        let op = stream.next_op();
                        let sh = router.shard_of(op.key());
                        offer(&runtimes[sh], sh, op, measured, &mut local);
                    }
                    local
                }));
            }

            // The window. Snapshots are taken while the shards keep serving
            // (an open loop cannot quiesce mid-run); the per-level lock
            // statistics are monotone, so the diff is exact up to ops in
            // flight at the instants of the two reads.
            std::thread::sleep(cfg.warmup);
            let snap_a: Vec<_> = runtimes
                .iter()
                .map(|rt| level_snapshots(&rt.tree))
                .collect();
            let ctr_a: Vec<_> = runtimes.iter().map(|rt| rt.tree.counters()).collect();
            let _ = cbtree_obs::trace::drain(); // discard prefill/warmup events
            phase.store(PHASE_MEASURE, Ordering::Release);
            let t0 = Instant::now();
            std::thread::sleep(cfg.measure);
            let snap_b: Vec<_> = runtimes
                .iter()
                .map(|rt| level_snapshots(&rt.tree))
                .collect();
            let ctr_b: Vec<_> = runtimes.iter().map(|rt| rt.tree.counters()).collect();
            let elapsed = t0.elapsed();
            phase.store(PHASE_DONE, Ordering::Release);
            let sampler = sampler_handle.map(|h| h.join().expect("sampler panicked"));

            let gens: Vec<GenLocal> = gen_handles
                .into_iter()
                .map(|h| h.join().expect("generator panicked"))
                .collect();
            // Generators have stopped: close the queues so workers drain
            // what is left and exit — every accepted measured operation
            // still gets an outcome.
            for rt in &runtimes {
                rt.queue.close();
            }
            let workers: Vec<(usize, WorkerLocal)> = worker_handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect();
            let trace = cbtree_obs::trace::drain();
            (
                gens, workers, snap_a, snap_b, ctr_a, ctr_b, elapsed, trace, sampler,
            )
        });

    // Post-run structural check: a measurement over a corrupted shard is
    // worthless.
    for (sh, rt) in runtimes.iter().enumerate() {
        rt.tree
            .check()
            .unwrap_or_else(|e| panic!("shard {sh}: post-run structural check failed: {e}"));
    }

    let elapsed_secs = elapsed.as_secs_f64();
    let elapsed_ns = elapsed.as_nanos() as u64;
    let mut per_shard = Vec::with_capacity(cfg.shards);
    let mut agg_sojourn = HistogramSnapshot::default();
    let mut agg_sojourn_sum_ns = 0u64;
    for (sh, rt) in runtimes.iter().enumerate() {
        let mut served = 0u64;
        let mut timed_out = 0u64;
        let mut sojourn = HistogramSnapshot::default();
        let mut shed_wait = HistogramSnapshot::default();
        let mut sojourn_sum_ns = 0u64;
        let mut service_sum_s = 0.0f64;
        let mut service_sum_sq_s2 = 0.0f64;
        let mut queue_wait_sum_ns = 0u64;
        let mut batch_wait_sum_ns = 0u64;
        let mut batches = 0u64;
        let mut batch = cbtree_btree::BatchSummary::default();
        let mut size_sums: Vec<(u64, f64, f64)> = Vec::new();
        for (_, w) in workers.iter().filter(|(s, _)| *s == sh) {
            served += w.served;
            timed_out += w.timed_out;
            sojourn.merge(&w.sojourn.snapshot());
            shed_wait.merge(&w.shed_wait.snapshot());
            sojourn_sum_ns = sojourn_sum_ns.saturating_add(w.sojourn_sum_ns);
            service_sum_s += w.service_sum_s;
            service_sum_sq_s2 += w.service_sum_sq_s2;
            queue_wait_sum_ns = queue_wait_sum_ns.saturating_add(w.queue_wait_sum_ns);
            batch_wait_sum_ns = batch_wait_sum_ns.saturating_add(w.batch_wait_sum_ns);
            batches += w.batches;
            batch.merge(&w.batch_summary);
            if size_sums.len() < w.batch_sizes.len() {
                size_sums.resize(w.batch_sizes.len(), (0, 0.0, 0.0));
            }
            for (k, &(n, s, s2)) in w.batch_sizes.iter().enumerate() {
                size_sums[k].0 += n;
                size_sums[k].1 += s;
                size_sums[k].2 += s2;
            }
        }
        let batch_sizes: Vec<BatchSizeMoments> = size_sums
            .iter()
            .enumerate()
            .filter(|(_, &(n, _, _))| n > 0)
            .map(|(k, &(n, s, s2))| BatchSizeMoments {
                size: k as u32,
                batches: n,
                service_sum_s: s,
                service_sum_sq_s2: s2,
            })
            .collect();
        let offered: u64 = gens.iter().map(|g| g.offered[sh]).sum();
        let rejected_full: u64 = gens.iter().map(|g| g.rejected[sh]).sum();

        agg_sojourn.merge(&sojourn);
        agg_sojourn_sum_ns = agg_sojourn_sum_ns.saturating_add(sojourn_sum_ns);
        let (lo, hi) = router.range(sh);
        per_shard.push(ShardReport {
            shard: sh,
            lo,
            hi,
            offered,
            rejected_full,
            timed_out,
            served,
            queue_depth_hwm: rt.queue.depth_high_water(),
            sojourn,
            sojourn_mean_s: if served > 0 {
                sojourn_sum_ns as f64 * 1e-9 / served as f64
            } else {
                0.0
            },
            shed_wait,
            service_mean_s: if served > 0 {
                service_sum_s / served as f64
            } else {
                0.0
            },
            service_m2_s2: if served > 0 {
                service_sum_sq_s2 / served as f64
            } else {
                0.0
            },
            queue_wait_mean_s: if served > 0 {
                queue_wait_sum_ns as f64 * 1e-9 / served as f64
            } else {
                0.0
            },
            batch_wait_mean_s: if served > 0 {
                batch_wait_sum_ns as f64 * 1e-9 / served as f64
            } else {
                0.0
            },
            batches,
            batch,
            batch_sizes,
            counters: ctr_b[sh].since(&ctr_a[sh]),
            levels: level_windows(&snap_a[sh], &snap_b[sh], elapsed_ns),
            final_len: rt.tree.len(),
        });
    }

    let total_served: u64 = per_shard.iter().map(|s| s.served).sum();
    let (timeseries, slo) = match sampler {
        Some(out) => (out.points, out.slo),
        None => (Vec::new(), None),
    };
    ServeReport {
        lambda: cfg.lambda,
        shards: cfg.shards,
        workers_per_shard: cfg.workers_per_shard,
        batch_max: cfg.batch_max,
        generators: cfg.generators,
        measured_time: elapsed_secs,
        per_shard,
        sojourn: agg_sojourn,
        sojourn_mean_s: if total_served > 0 {
            agg_sojourn_sum_ns as f64 * 1e-9 / total_served as f64
        } else {
            0.0
        },
        timeseries,
        slo,
        trace,
    }
}

/// Runs [`serve`] once per λ in `lambdas` — the λ-vs-response-time
/// curve.
pub fn sweep(base: &ServeConfig, lambdas: &[f64]) -> Vec<ServeReport> {
    lambdas
        .iter()
        .map(|&lambda| {
            serve(&ServeConfig {
                lambda,
                ..base.clone()
            })
        })
        .collect()
}

/// Shed-rate bound under which a λ counts as sustained: an open-loop
/// run at a sustainable rate should shed (admission + timeout) at most
/// this fraction of its offered operations.
pub const SUSTAINABLE_SHED_RATE: f64 = 0.01;

/// Whether `report` shows a sustained rate: the shed fraction is within
/// [`SUSTAINABLE_SHED_RATE`] and the service kept up with the offered
/// rate (completions within 10% of arrivals — a growing backlog means
/// the queue, not the tree, absorbed the load).
pub fn is_sustainable(report: &ServeReport) -> bool {
    report.shed_rate() <= SUSTAINABLE_SHED_RATE
        && report.achieved_rate() >= 0.9 * report.offered_rate()
}

/// The saturation-search schedule, separated from measurement so it is
/// unit-testable. Brackets the sustainability boundary by doubling from
/// `lambda0` (halving instead when even `lambda0` is unsustainable),
/// then bisects the bracket `bisect_iters` times. Returns the largest λ
/// probed sustainable (0.0 when none was) and every λ probed, in order.
/// `sustainable` is called exactly once per returned probe.
pub fn saturation_schedule(
    lambda0: f64,
    max_doublings: usize,
    bisect_iters: usize,
    mut sustainable: impl FnMut(f64) -> bool,
) -> (f64, Vec<f64>) {
    assert!(
        lambda0.is_finite() && lambda0 > 0.0,
        "lambda0 must be positive, got {lambda0}"
    );
    let mut probed = Vec::new();
    let mut probe = |l: f64, probed: &mut Vec<f64>| {
        probed.push(l);
        sustainable(l)
    };

    // Bracket upward: double until a probe fails.
    let mut lo = 0.0f64; // largest known-sustainable
    let mut hi = None; // smallest known-unsustainable
    let mut l = lambda0;
    for _ in 0..=max_doublings {
        if probe(l, &mut probed) {
            lo = l;
            l *= 2.0;
        } else {
            hi = Some(l);
            break;
        }
    }
    let Some(mut hi) = hi else {
        // Never saturated within the doubling budget: report the largest
        // rate actually demonstrated.
        return (lo, probed);
    };
    if lo == 0.0 {
        // Even lambda0 was unsustainable: bracket downward instead.
        let mut l = lambda0 / 2.0;
        for _ in 0..max_doublings {
            if probe(l, &mut probed) {
                lo = l;
                break;
            }
            hi = l;
            l /= 2.0;
        }
        if lo == 0.0 {
            return (0.0, probed);
        }
    }
    for _ in 0..bisect_iters {
        let mid = (lo + hi) / 2.0;
        if probe(mid, &mut probed) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probed)
}

/// Finds the maximum sustainable arrival rate: brackets by doubling
/// from `lambda0`, bisects `bisect_iters` times, judging each probe
/// with [`is_sustainable`]. Returns the largest sustained λ and every
/// `ServeReport` measured, in probe order.
pub fn max_sustainable_lambda(
    base: &ServeConfig,
    lambda0: f64,
    bisect_iters: usize,
) -> (f64, Vec<ServeReport>) {
    let mut reports = Vec::new();
    let (best, _probed) = saturation_schedule(lambda0, 10, bisect_iters, |lambda| {
        let report = serve(&ServeConfig {
            lambda,
            ..base.clone()
        });
        let ok = is_sustainable(&report);
        reports.push(report);
        ok
    });
    (best, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbtree_obs::Json;

    #[test]
    fn schedule_converges_to_threshold() {
        // True capacity 1000: every probe below is sustainable.
        let (best, probed) = saturation_schedule(100.0, 10, 20, |l| l <= 1000.0);
        assert!((best - 1000.0).abs() < 1.0, "best {best}");
        // Doubling bracket: 100, 200, 400, 800, 1600(fail), then bisect.
        assert_eq!(&probed[..5], &[100.0, 200.0, 400.0, 800.0, 1600.0]);
        assert_eq!(probed.len(), 5 + 20);
    }

    #[test]
    fn schedule_halves_down_when_start_is_unsustainable() {
        let (best, probed) = saturation_schedule(8000.0, 10, 20, |l| l <= 1000.0);
        assert!((best - 1000.0).abs() < 2.0, "best {best}");
        assert_eq!(&probed[..4], &[8000.0, 4000.0, 2000.0, 1000.0]);
    }

    #[test]
    fn schedule_handles_never_sustainable_and_never_saturated() {
        let (best, _) = saturation_schedule(100.0, 3, 5, |_| false);
        assert_eq!(best, 0.0);
        let (best, probed) = saturation_schedule(100.0, 3, 5, |_| true);
        assert_eq!(best, 800.0, "largest demonstrated rate");
        assert_eq!(probed, vec![100.0, 200.0, 400.0, 800.0]);
    }

    #[test]
    fn router_covers_the_workload_key_space() {
        let cfg = ServeConfig::quick(Protocol::BLink, 4, 1000.0);
        let router = cfg.router();
        // Paper workload: uniform over [0, 1M) — shards split that.
        assert_eq!(router.shard_of(0), 0);
        assert_eq!(router.shard_of(999_999), 3);
        assert_eq!(router.shard_of(250_000), 1);
    }

    #[test]
    fn serve_smoke_low_lambda_sheds_nothing() {
        let mut cfg = ServeConfig::quick(Protocol::BLink, 2, 2_000.0);
        cfg.initial_items = 2_000;
        let report = serve(&cfg);
        assert_eq!(report.shards, 2);
        assert!(report.offered() > 0, "no arrivals in the window");
        assert!(report.served() > 0);
        assert_eq!(report.shed(), 0, "low λ must not shed");
        assert!(report.shed_rate() == 0.0);
        // Every measured-window op got an outcome: served + shed =
        // offered is not exact (ops in flight at the window edges are
        // counted on the offered side only when *admission* fell inside
        // the window), but the drain guarantees served ≤ offered and
        // close to it at low λ.
        assert!(report.served() <= report.offered());
        assert_eq!(report.sojourn.total(), report.served());
        assert!(report.sojourn_mean_s > 0.0);
        assert!(report.sojourn.p50() <= report.sojourn.p999());
        for s in &report.per_shard {
            assert_eq!(s.sojourn.total(), s.served);
            assert!(s.queue_depth_hwm <= cfg.queue_capacity);
            assert!(s.final_len > 0, "prefill routed keys into every shard");
            assert!(!s.levels.is_empty());
        }
        // Shard ranges tile the key space.
        assert_eq!(report.per_shard[0].lo, 0);
        assert_eq!(report.per_shard[1].hi, u64::MAX);
        assert!(report.per_shard[0].hi + 1 == report.per_shard[1].lo);
    }

    #[test]
    fn serve_report_json_round_trips() {
        let mut cfg = ServeConfig::quick(Protocol::LockCoupling, 2, 1_500.0);
        cfg.initial_items = 1_000;
        cfg.measure = Duration::from_millis(80);
        let report = serve(&cfg);
        let j = report.to_json();
        let parsed = Json::parse(&j.to_string().unwrap()).unwrap();
        assert_eq!(parsed, j, "serialize → parse must be the identity");
        assert_eq!(
            parsed.get("type").and_then(Json::as_str),
            Some("serve_report")
        );
        assert_eq!(
            parsed.get("served").and_then(Json::as_u64),
            Some(report.served())
        );
        assert_eq!(
            parsed
                .get("shards_detail")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn tiny_queue_sheds_under_overload() {
        // One shard, one worker, a 4-deep queue, and a λ far beyond what
        // a single worker serves: admission control must shed rather
        // than queue without bound, and the sojourn of *served* ops
        // stays bounded by what a 4-deep queue can hold.
        let mut cfg = ServeConfig::quick(Protocol::BLink, 1, 200_000.0);
        cfg.initial_items = 1_000;
        cfg.queue_capacity = 4;
        cfg.generators = 2;
        cfg.measure = Duration::from_millis(100);
        let report = serve(&cfg);
        assert!(report.shed() > 0, "overload must shed");
        assert!(report.shed_rate() > 0.0);
        assert!(report.per_shard[0].queue_depth_hwm <= 4);
        assert!(!is_sustainable(&report));
    }

    #[test]
    fn batched_service_drains_and_accounts() {
        let mut cfg = ServeConfig::quick(Protocol::BLink, 1, 20_000.0);
        cfg.initial_items = 2_000;
        cfg.batch_max = 16;
        let report = serve(&cfg);
        assert!(report.served() > 0);
        assert_eq!(report.batch_max, 16);
        let s = &report.per_shard[0];
        assert!(s.batches > 0, "batched drain must have executed batches");
        assert!(
            s.batch.ops >= s.served,
            "every served op rode in a counted batch"
        );
        // Every op either reused the held leaf or paid a fresh descent;
        // fallback inserts pay one extra descent on top.
        assert_eq!(
            s.batch.descents,
            s.batch.ops - s.batch.leaf_reuses + s.batch.fallback_inserts,
            "descent accounting identity: {:?}",
            s.batch
        );
        // The per-size sums tile the batch accounting exactly.
        let n_ops: u64 = s
            .batch_sizes
            .iter()
            .map(|b| b.batches * u64::from(b.size))
            .sum();
        assert_eq!(n_ops, s.batch.ops);
        assert_eq!(
            s.batch_sizes.iter().map(|b| b.batches).sum::<u64>(),
            s.batches
        );
        // Sojourn decomposes into queue wait + batch wait + effective
        // service exactly: all three end at the batch's one completion
        // stamp, so only the batch wait's integer division (< 1 ns per
        // op) and float rounding separate the sides.
        let sum = s.queue_wait_mean_s + s.batch_wait_mean_s + s.service_mean_s;
        assert!(
            (sum - s.sojourn_mean_s).abs() <= 1e-9 + 1e-9 * s.sojourn_mean_s,
            "decomposition {sum} vs sojourn {}",
            s.sojourn_mean_s
        );
        assert!(s.counters.ops > 0, "window counters captured");
    }

    #[test]
    fn sequential_batches_amortize_descents() {
        // Append-only sequential keys: consecutive drained ops land in
        // the same rightmost leaf, so sorted-batch descent should serve
        // most of a batch from the held leaf. The service floor prices
        // each descent like a disk read, so a singleton server would
        // saturate at 1/floor = 10k ops/s — the 20k λ forces a backlog
        // that only batch amortization can drain.
        let mut cfg = ServeConfig::quick(Protocol::BLink, 1, 20_000.0);
        cfg.ops = OpsConfig {
            q_search: 0.0,
            q_insert: 1.0,
            q_delete: 0.0,
            keys: cbtree_workload::KeyDist::Sequential,
        };
        cfg.initial_items = 1_000;
        cfg.service_floor = Duration::from_micros(100);
        cfg.batch_max = 32;
        cfg.generators = 1;
        let report = serve(&cfg);
        let s = &report.per_shard[0];
        assert!(s.batches > 0);
        assert!(
            s.batch.leaf_reuses > 0,
            "sequential batches must reuse the held leaf: {:?}",
            s.batch
        );
        assert!(
            s.batch.descents < s.batch.ops,
            "amortization must beat one descent per op: {:?}",
            s.batch
        );
    }

    #[test]
    fn sampler_emits_windows_and_json_round_trips() {
        let mut cfg = ServeConfig::quick(Protocol::BLink, 2, 2_000.0);
        cfg.initial_items = 1_000;
        cfg.measure = Duration::from_millis(260);
        cfg.sample_interval = Some(Duration::from_millis(40));
        cfg.slo_p99 = Some(Duration::from_secs(5));
        let report = serve(&cfg);
        assert!(
            report.timeseries.len() >= 3,
            "a 260 ms window at 40 ms ticks should yield several points, got {}",
            report.timeseries.len()
        );
        let completed: u64 = report
            .timeseries
            .iter()
            .flat_map(|p| p.shards.iter())
            .map(|s| s.completed)
            .sum();
        assert!(completed > 0, "windows must observe completions");
        for p in &report.timeseries {
            assert!(p.window_s > 0.0);
            assert_eq!(p.shards.len(), 2);
            assert!(p.sojourn_p50_ns <= p.sojourn_p99_ns);
            assert!(p.sojourn_p99_ns <= p.sojourn_max_ns);
            assert!(!p.slo_burning, "a 5 s budget cannot burn at 2k ops/s");
            let j = p.to_json();
            let parsed = Json::parse(&j.to_string().unwrap()).unwrap();
            assert_eq!(parsed, j, "timeseries record must round-trip");
            assert_eq!(
                parsed.get("type").and_then(Json::as_str),
                Some("timeseries")
            );
        }
        let slo = report.slo.as_ref().expect("slo monitor configured");
        assert_eq!(slo.saturation_onset_s, None, "no burn at trivial load");
        assert_eq!(slo.first_shed_s, None, "no shed at trivial load");
        let j = report.to_json();
        assert_eq!(
            j.get("timeseries_windows").and_then(Json::as_u64),
            Some(report.timeseries.len() as u64)
        );
        assert!(j.get("slo").is_some());
    }

    #[test]
    fn slo_burn_onset_precedes_first_shed_under_overload() {
        // One worker at a 100 µs service floor serves at most 10k ops/s;
        // λ = 20k backlogs ~10k ops/s, so the 2048-deep queue fills a
        // couple hundred ms in, while a 500 µs p99 budget burns within
        // the first few windows — the monitor must stamp saturation
        // onset before the first shed.
        let mut cfg = ServeConfig::quick(Protocol::BLink, 1, 20_000.0);
        cfg.initial_items = 1_000;
        cfg.service_floor = Duration::from_micros(100);
        cfg.queue_capacity = 2048;
        cfg.measure = Duration::from_millis(400);
        cfg.sample_interval = Some(Duration::from_millis(30));
        cfg.slo_p99 = Some(Duration::from_micros(500));
        let report = serve(&cfg);
        let slo = report.slo.as_ref().expect("slo monitor configured");
        let onset = slo
            .saturation_onset_s
            .expect("sustained overload must burn the SLO");
        let shed = slo.first_shed_s.expect("a filled queue must shed");
        assert!(
            onset <= shed,
            "saturation onset {onset}s must not follow first shed {shed}s"
        );
        assert!(report.timeseries.iter().any(|p| p.slo_burning));
    }

    #[test]
    fn bursty_arrivals_run_end_to_end() {
        let mut cfg = ServeConfig::quick(Protocol::BLink, 2, 3_000.0);
        cfg.initial_items = 1_000;
        cfg.arrivals = ArrivalShape::OnOff {
            burstiness: 4.0,
            mean_on: Duration::from_millis(10),
        };
        let report = serve(&cfg);
        assert!(report.offered() > 0);
        assert!(report.served() > 0);
    }

    #[test]
    fn enqueue_age_timeout_sheds_stale_ops() {
        // Zero-tolerance deadline: every queued op is already too old at
        // dequeue, so everything offered times out and nothing is
        // served.
        let mut cfg = ServeConfig::quick(Protocol::BLink, 1, 5_000.0);
        cfg.initial_items = 500;
        cfg.max_enqueue_age = Some(Duration::ZERO);
        cfg.measure = Duration::from_millis(80);
        let report = serve(&cfg);
        assert_eq!(report.served(), 0);
        let timed_out: u64 = report.per_shard.iter().map(|s| s.timed_out).sum();
        assert!(timed_out > 0, "stale ops must be counted as timed out");
        assert!(report.per_shard[0].shed_wait.total() > 0);
    }
}
