//! `serve-sat`, `serve-paced` and `serve-disk`: the whole pipeline
//! through its one public entry, `serve()`, driven open-loop by its own
//! generators. Library defaults (`ServeConfig::paper`: B-link, exact
//! lock statistics) with only the fields below overridden.
//!
//! Sojourn is clocked from the generator's enqueue stamp — the
//! response path that would let it be clocked from the due time does
//! not exist yet — and `workload.gen_lag_frac` reports how far behind
//! its schedule the generator ran.

use crate::tree::SLICE;
use crate::{alloc, layers, median, pipeline, prefill, process_cpu_s, Metrics, Opts, Outcome};
use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_harness::fork_seed;
use cbtree_queueing::{batch_service_moments, mgc};
use cbtree_serve::{serve, ServeConfig, ServeReport};
use cbtree_sync::{LockStatsSnapshot, SamplePeriod};
use cbtree_workload::{KeyDist, OpsConfig};
use std::time::{Duration, Instant};

/// The three `serve()` workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// λ ≈ 4× capacity at memory speed, singleton service.
    Sat,
    /// λ ≈ 40 % of capacity at memory speed, batch ≤ 16.
    Paced,
    /// Sequential inserts behind a 100 µs per-descent floor, batch ≤ 16.
    Disk,
}

impl Workload {
    /// Parses a workload name.
    ///
    /// # Panics
    /// Panics on a name that is not a serve workload.
    pub fn parse(name: &str) -> Workload {
        match name {
            "serve-sat" => Workload::Sat,
            "serve-paced" => Workload::Paced,
            "serve-disk" => Workload::Disk,
            other => panic!("unknown workload {other:?}"),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sat => "serve-sat",
            Workload::Paced => "serve-paced",
            Workload::Disk => "serve-disk",
        }
    }

    /// Whether shedding is the generator's back-pressure (saturation)
    /// rather than a failed operation.
    fn sheds_by_design(self) -> bool {
        self == Workload::Sat
    }

    /// The `serve()` configuration: 1 shard × 1 worker × 1 generator,
    /// so the run keeps two threads busy (the sampler sleeps between
    /// its four harvests a second).
    pub fn config(self, seed: u64, warm: Duration, window: Duration) -> ServeConfig {
        let base = ServeConfig {
            generators: 1,
            queue_capacity: 4096,
            warmup: warm,
            measure: window,
            seed,
            sample_interval: Some(SLICE),
            ..ServeConfig::paper(Protocol::BLink, 1, 2_000_000.0)
        };
        match self {
            Workload::Sat => base,
            // A ring deep enough that a third of a second of host
            // stall delays ops instead of shedding them: no operation
            // fails on this workload.
            Workload::Paced => ServeConfig {
                lambda: 200_000.0,
                batch_max: 16,
                queue_capacity: 65_536,
                ..base
            },
            Workload::Disk => ServeConfig {
                lambda: 10_000.0,
                batch_max: 16,
                service_floor: Duration::from_micros(100),
                ops: OpsConfig {
                    q_search: 0.0,
                    q_insert: 1.0,
                    q_delete: 0.0,
                    keys: KeyDist::Sequential,
                },
                ..base
            },
        }
    }
}

/// One `serve()` call with the outside-in measurements around it.
struct Rep {
    report: ServeReport,
    /// `serve()` wall time minus its warm-up and window: prefill,
    /// thread start, drain, join and the post-run check.
    setup_s: f64,
    /// Process CPU seconds burned inside the call.
    cpu_s: f64,
}

/// Runs `serve()` once. `plant_wrong` (test only) claims one served op
/// too many, which the accounting check must catch.
fn run_rep(cfg: &ServeConfig, plant_wrong: bool) -> Rep {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut report = serve(cfg);
    let wall = t0.elapsed().as_secs_f64();
    if plant_wrong {
        report.per_shard[0].served += 1;
    }
    Rep {
        setup_s: wall - cfg.warmup.as_secs_f64() - report.measured_time,
        cpu_s: process_cpu_s() - cpu0,
        report,
    }
}

/// Checks one report's accounting; returns (attempted, failed).
fn check(w: Workload, cfg: &ServeConfig, r: &ServeReport, out: &mut Outcome) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for s in &r.per_shard {
        attempted += s.offered;
        // Every op admitted inside the window got an outcome.
        if s.offered - s.rejected_full != s.served + s.timed_out {
            out.violation(
                1,
                format!(
                    "{}: shard {}: offered {} − rejected {} ≠ served {} + timed out {}",
                    w.name(),
                    s.shard,
                    s.offered,
                    s.rejected_full,
                    s.served,
                    s.timed_out
                ),
            );
        }
        if s.sojourn.total() != s.served {
            out.violation(
                1,
                format!(
                    "{}: shard {}: {} sojourn samples for {} served ops",
                    w.name(),
                    s.shard,
                    s.sojourn.total(),
                    s.served
                ),
            );
        }
        if !w.sheds_by_design() {
            failed += s.rejected_full + s.timed_out;
        }
        if w == Workload::Disk {
            // Every accepted op appended a new key. The report counts
            // only the window, so warm-up and drain bound the rest.
            let lo = cfg.initial_items as u64 + s.served;
            let slack = cfg.lambda * (cfg.warmup.as_secs_f64() + 0.5) * 1.5;
            let hi = lo + slack as u64;
            if !(lo..=hi).contains(&(s.final_len as u64)) {
                out.violation(
                    1,
                    format!(
                        "{}: final_len {} outside [{lo}, {hi}]",
                        w.name(),
                        s.final_len
                    ),
                );
            }
        }
    }
    (attempted, failed)
}

/// Heap bytes per key of the service at its prefill size: peak live
/// heap of a near-idle `serve()` of the same configuration (ring, tree
/// slab, registry) over the keys it ends with. Measured apart from the
/// timed repetitions so the allocator counter is off inside them, and
/// at a fixed size so slab doubling cannot land on either side of a
/// boundary from run to run.
fn bytes_per_key(w: Workload, seed: u64) -> f64 {
    let cfg = ServeConfig {
        lambda: 1_000.0,
        ..w.config(seed, Duration::ZERO, Duration::from_millis(20))
    };
    let scope = alloc::Scope::begin();
    let report = serve(&cfg);
    let counted = scope.end();
    let keys: usize = report.per_shard.iter().map(|s| s.final_len).sum();
    counted.peak_live as f64 / keys.max(1) as f64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `--trace 0`: `reps` × `serve()`, the window read in the sampler's
/// slices.
///
/// * `ops_per_s` — the median slice's completion rate: the capacity on
///   `serve-sat`; pinned to λ on the paced workloads, where it falls
///   only if the service stops keeping up.
/// * `lat_p50_us`, `lat_p99_us` — the median slice's sojourn
///   quantiles, with two exceptions. On `serve-sat` the ring is always
///   full, so every quantile is the time to drain it and sits on an
///   edge of the crates' one-bucket-per-octave histogram: both metrics
///   report the exact mean sojourn. On `serve-paced` the p99 of any
///   slice is the host scheduler's (a stolen millisecond delays 200
///   ops), so `lat_p99_us` repeats `lat_p50_us` and carries no claim;
///   the measured tail is the layer metric `service.sojourn_p99_us`.
pub fn end_to_end(w: Workload, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut mean_us) = (vec![], vec![]);
    let (mut rate, mut p50, mut p99) = (vec![], vec![], vec![]);
    let mut shed = 0;
    for rep in 0..opts.reps {
        let cfg = w.config(fork_seed(opts.seed, rep as u64), opts.warm, opts.window);
        let r = run_rep(&cfg, opts.plant_wrong && rep == 0);
        let (attempted, failed) = check(w, &cfg, &r.report, &mut out);
        out.attempted += attempted;
        out.failed += failed;
        shed += r.report.shed();
        setup.push(r.setup_s);
        mean_us.push(r.report.sojourn_mean_s * 1e6);
        // The last slice of a window may be a sliver: leave it out.
        for p in &r.report.timeseries {
            if p.window_s >= SLICE.as_secs_f64() / 2.0 && p.sojourn_n > 0 {
                rate.push(p.completed_rate);
                p50.push(us(p.sojourn_p50_ns));
                p99.push(us(p.sojourn_p99_ns));
            }
        }
    }
    let cfg = w.config(0, opts.warm, opts.window);
    out.notes.push(format!(
        "serve(): 1 shard x 1 worker x 1 generator, lambda {}/s, batch_max {}, floor {:?}; \
         {} reps x {:?} in {} slices; {shed} shed; slice ops_per_s {:.0}..{:.0}; \
         median slice: sojourn p50 {:.1} us, p99 {:.1} us",
        cfg.lambda,
        cfg.batch_max,
        cfg.service_floor,
        opts.reps,
        opts.window,
        rate.len(),
        rate.iter().copied().fold(f64::INFINITY, f64::min),
        rate.iter().copied().fold(0.0, f64::max),
        median(&p50),
        median(&p99),
    ));
    let (p50, p99) = (median(&p50), median(&p99));
    let (lat_p50, lat_p99) = match w {
        Workload::Sat => (median(&mean_us), median(&mean_us)),
        Workload::Paced => (p50, p50),
        Workload::Disk => (p50, p99),
    };
    out.metrics = Metrics::from([
        ("setup_s", median(&setup)),
        ("ops_per_s", median(&rate)),
        ("lat_p50_us", lat_p50),
        ("lat_p99_us", lat_p99),
        ("bytes_per_key", bytes_per_key(w, opts.seed)),
    ]);
    out
}

/// A tree shaped like the one `serve()` prefills, for the layer prices.
fn prefilled(cfg: &ServeConfig, protocol: Protocol, sample: SamplePeriod) -> ConcurrentBTree<u64> {
    let tree = ConcurrentBTree::with_sampling(protocol, cfg.capacity, sample);
    prefill(&tree, &cfg.ops.keys, cfg.initial_items, cfg.seed);
    tree
}

/// `--trace 1`: layer prices on the service's tree shape, one `serve()`
/// with every report field read, and the traced + untraced passes of
/// the benchmark's own serve-equivalent pipeline.
pub fn per_layer(w: Workload, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let cfg = w.config(opts.seed, opts.warm, opts.window);
    let mut m = layers::standalone(&cfg.ops, opts.seed);

    let key_hi = cfg
        .ops
        .keys
        .key_space_hi()
        .unwrap_or(cfg.initial_items as u64);
    let scope = alloc::Scope::begin();
    let exact = prefilled(&cfg, Protocol::BLink, SamplePeriod::EXACT);
    let tree_bytes = scope.end().live;
    let exact_get = layers::get_ns(&exact, key_hi, opts.seed);
    let sampled = prefilled(&cfg, Protocol::BLink, SamplePeriod::every(64));
    let olc = prefilled(&cfg, Protocol::Olc, SamplePeriod::EXACT);
    m.insert("btree.get_ns", exact_get);
    m.insert("btree.olc_get_ns", layers::get_ns(&olc, key_hi, opts.seed));
    m.insert(
        "sync.stats_exact_delta_ns",
        exact_get - layers::get_ns(&sampled, key_hi, opts.seed),
    );
    drop((sampled, olc));

    // serve() itself, allocator counted, every report field read.
    let scope = alloc::Scope::begin();
    let r = run_rep(&cfg, opts.plant_wrong);
    let counted = scope.end();
    let (attempted, failed) = check(w, &cfg, &r.report, &mut out);
    out.attempted = attempted;
    out.failed += failed;
    let rep = &r.report;
    let s = &rep.per_shard[0];
    let all_ops = s.counters.ops.max(1) as f64;
    // The allocator and the CPU clock run over the whole call, so over
    // the ops of the warm-up too.
    let counted_ops =
        (rep.achieved_rate() * (rep.measured_time + cfg.warmup.as_secs_f64())).max(1.0);
    let due = cfg.lambda * rep.measured_time;
    m.insert(
        "workload.gen_lag_frac",
        (1.0 - s.offered as f64 / due).max(0.0),
    );
    m.insert("queue.wait_mean_us", s.queue_wait_mean_s * 1e6);
    m.insert("queue.shed_frac", rep.shed_rate());
    m.insert("queue.depth_hwm", s.queue_depth_hwm as f64);
    m.insert("shard.service_mean_us", s.service_mean_s * 1e6);
    m.insert("shard.batch_wait_mean_us", s.batch_wait_mean_s * 1e6);
    m.insert(
        "shard.mean_batch_size",
        s.batch.ops as f64 / s.batches.max(1) as f64,
    );
    m.insert("service.sojourn_p99_us", us(rep.sojourn.quantile(0.99)));
    m.insert("service.cpu_s_per_mop", r.cpu_s / (counted_ops / 1e6));
    m.insert(
        "btree.descents_per_op",
        s.batch.descents as f64 / s.batch.ops.max(1) as f64,
    );
    m.insert(
        "btree.leaf_reuse_frac",
        s.batch.leaf_reuses as f64 / s.batch.ops.max(1) as f64,
    );
    m.insert("btree.latches_per_op", s.counters.latches_per_op());
    m.insert(
        "btree.splits_per_kop",
        s.counters.splits as f64 * 1e3 / all_ops,
    );
    m.insert(
        "btree.restarts_per_kop",
        s.counters.restarts as f64 * 1e3 / all_ops,
    );
    m.insert(
        "btree.chases_per_kop",
        s.counters.chases as f64 * 1e3 / all_ops,
    );
    m.insert("btree.height", s.levels.len() as f64);
    if let (Some(root), Some(leaf)) = (s.levels.last(), s.levels.first()) {
        m.insert("sync.root_rho_w", root.rho_w);
        m.insert("sync.leaf_w_wait_mean_ns", leaf.stats.mean_w_wait_ns());
    }
    let mut all = LockStatsSnapshot::default();
    s.levels.iter().for_each(|l| all.merge(&l.stats));
    m.insert("sync.w_contention_rate", all.w_contention_rate());
    m.insert("alloc.calls_per_op", counted.calls as f64 / counted_ops);
    m.insert("alloc.bytes_per_op", counted.bytes as f64 / counted_ops);
    if w == Workload::Disk {
        // The model overlay: M/G/1 on the batch-transformed service
        // moments against the measured mean sojourn.
        if let Some(service) = batch_service_moments(&s.batch_sizes) {
            match mgc::sojourn_time(rep.achieved_rate(), 1, service) {
                Ok(predicted) => {
                    m.insert(
                        "queueing.mgc_residual_frac",
                        (s.sojourn_mean_s - predicted) / s.sojourn_mean_s,
                    );
                    out.notes.push(format!(
                        "M/G/c overlay: predicted mean sojourn {:.1} us, measured {:.1} us",
                        predicted * 1e6,
                        s.sojourn_mean_s * 1e6
                    ));
                }
                Err(e) => out.notes.push(format!("M/G/c overlay: {e}")),
            }
        }
    }

    // The serve-equivalent pipeline, untraced then traced.
    let pipe = pipeline::Config::from_serve(&cfg);
    let plain = pipeline::run(&pipe, opts.warm / 2, opts.window / 2, false);
    let traced = pipeline::run(&pipe, opts.warm / 2, opts.window / 2, true);
    for p in [&plain, &traced] {
        if p.wrong > 0 {
            out.violation(
                p.wrong,
                format!("{}: pipeline returned {} wrong values", w.name(), p.wrong),
            );
        }
    }
    let trace = traced.trace.as_ref().expect("traced pass records spans");
    let clock = layers::span_clock_ns();
    let ledger = pipeline::ledger(trace, clock);
    // On serve-sat the worker is never idle, so serve()'s own per-op
    // time is the wall the layers must add up to; elsewhere it is the
    // untraced pipeline's.
    let wall = match w {
        Workload::Sat => 1e9 / rep.achieved_rate(),
        _ => 1e9 / plain.ops_per_s,
    };
    for (name, ns) in &ledger.self_ns_per_op {
        m.insert(name, *ns);
    }
    m.insert("self.span_clock_ns", clock);
    m.insert("btree.op_p99_ns", ledger.batch_p99_ns_per_op);
    m.insert("ledger.layers_ns_per_op", ledger.worker_layers_ns_per_op);
    m.insert("ledger.wall_ns_per_op", wall);
    m.insert(
        "ledger.unexplained_frac",
        1.0 - ledger.worker_layers_ns_per_op / wall,
    );
    m.insert(
        "trace.overhead_frac",
        1.0 - traced.ops_per_s / plain.ops_per_s,
    );
    m.insert("trace.spans", trace.span_count() as f64);
    m.insert("trace.spans_dropped", trace.dropped() as f64);
    let path = opts.out_dir.join(format!("trace-{}.jsonl", w.name()));
    if let Err(e) = trace.write_jsonl(&path) {
        out.violation(1, format!("cannot write {}: {e}", path.display()));
    }
    out.notes.push(format!(
        "ledger: wall {wall:.0} ns/op = worker layers {:.0} (pop + batch + record) + unexplained; \
         serve-equivalent pipeline {:.0} ops/s untraced, {:.0} traced",
        ledger.worker_layers_ns_per_op, plain.ops_per_s, traced.ops_per_s
    ));

    // Arena and the prices that change the tree, on the exact tree.
    let arena = exact.root_handle().arena().clone();
    m.insert("arena.slots_allocated", arena.allocated() as f64);
    m.insert("arena.free_slots", arena.free_slots() as f64);
    let slots = (arena.allocated() - arena.recycled()) as usize + arena.free_slots();
    m.insert(
        "arena.bytes_per_slot",
        tree_bytes as f64 / slots.max(1) as f64,
    );
    layers::mutating(&exact, &cfg.ops, opts.seed, &mut m);
    m.insert("proc.peak_rss_mb", crate::peak_rss_mb());
    out.metrics = m;
    out
}
