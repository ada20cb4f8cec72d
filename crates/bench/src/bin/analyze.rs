//! Capacity-planning CLI: point the analytical framework at *your*
//! B-tree and workload, get response times, saturation points, and an
//! algorithm recommendation — with an optional simulation cross-check.
//!
//! ```text
//! analyze [--items N] [--node-size N] [--mix qs,qi,qd] [--disk-cost D]
//!         [--memory-levels M] [--buffer-nodes B] [--rate λ]
//!         [--recovery none|naive|leaf-only] [--t-trans T] [--verify]
//! ```
//!
//! Examples:
//!
//! ```text
//! analyze --items 1000000 --node-size 64 --rate 2.0
//! analyze --mix 0.9,0.08,0.02 --disk-cost 10 --buffer-nodes 5000
//! analyze --rate 0.5 --recovery leaf-only --t-trans 200 --verify
//! ```

use cbtree_analysis::{Algorithm, ModelConfig, RecoveryMode};
use cbtree_bench::pillars;
use cbtree_btree::Protocol;
use cbtree_btree_model::{lru_cost_model, CostModel, NodeParams, OpMix, TreeShape};
use cbtree_harness::LiveConfig;
use cbtree_obs::table::{Column, Table};
use cbtree_obs::Json;
use cbtree_sync::SamplePeriod;
use cbtree_workload::cli::Flags;
use cbtree_workload::{KeyDist, OpsConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    items: u64,
    node_size: usize,
    mix: (f64, f64, f64),
    disk_cost: f64,
    memory_levels: usize,
    buffer_nodes: Option<f64>,
    rate: Option<f64>,
    recovery: RecoveryMode,
    t_trans: f64,
    verify: bool,
    live: bool,
    live_threads: usize,
    sample_every: u64,
    serve: Option<PathBuf>,
    json: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            items: 1_000_000,
            node_size: 64,
            mix: (0.3, 0.5, 0.2),
            disk_cost: 5.0,
            memory_levels: 2,
            buffer_nodes: None,
            rate: None,
            recovery: RecoveryMode::None,
            t_trans: 100.0,
            verify: false,
            live: false,
            live_threads: 4,
            sample_every: 1,
            serve: None,
            json: None,
        }
    }
}

const USAGE: &str = "\
usage: analyze [--items N] [--node-size N] [--mix qs,qi,qd] [--disk-cost D]
               [--memory-levels M] [--buffer-nodes B] [--rate lambda]
               [--recovery none|naive|leaf-only] [--t-trans T] [--verify]
               [--live] [--live-threads N] [--sample-every N]
               [--serve RESULTS.jsonl] [--json PATH]
";

/// The protocols `--verify` and `--live` put beside the analysis, in
/// table order.
const COMPARED: [Protocol; 5] = [
    Protocol::LockCoupling,
    Protocol::OptimisticDescent,
    Protocol::BLink,
    Protocol::TwoPhase,
    Protocol::Olc,
];

/// The simulations beside the analysis draw keys from the paper's key
/// space, where (as the analysis assumes) every insert adds a key.
const PAPER_KEYSPACE: u64 = 100_000_000;

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--items" => a.items = flags.value()?,
            "--node-size" => a.node_size = flags.value()?,
            "--mix" => a.mix = flags.mix()?,
            "--disk-cost" => a.disk_cost = flags.value()?,
            "--memory-levels" => a.memory_levels = flags.value()?,
            "--buffer-nodes" => a.buffer_nodes = Some(flags.value()?),
            "--rate" => a.rate = Some(flags.value()?),
            "--recovery" => {
                a.recovery = match flags.value::<String>()?.as_str() {
                    "none" => RecoveryMode::None,
                    "naive" => RecoveryMode::Naive,
                    "leaf-only" => RecoveryMode::LeafOnly,
                    other => return Err(format!("--recovery: unknown mode {other:?}")),
                }
            }
            "--t-trans" => a.t_trans = flags.value()?,
            "--verify" => a.verify = true,
            "--live" => a.live = true,
            "--live-threads" => a.live_threads = flags.value()?,
            "--sample-every" => a.sample_every = flags.value()?,
            "--serve" => a.serve = Some(flags.value()?),
            "--json" => a.json = Some(flags.value()?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(a)
}

/// The tree and workload the arguments describe, its levels priced by
/// an LRU pool of `buffer_nodes` or else by the `--memory-levels` split.
fn model_config(args: &Args, buffer_nodes: Option<f64>) -> Result<ModelConfig, String> {
    let mix = OpMix::new(args.mix.0, args.mix.1, args.mix.2)
        .map_err(|_| "mix must be three probabilities summing to 1")?;
    let node = NodeParams::with_max_size(args.node_size).map_err(|e| e.to_string())?;
    let shape = TreeShape::derive(args.items, node).map_err(|e| e.to_string())?;
    let cost = match buffer_nodes {
        Some(b) => lru_cost_model(&shape, b, args.disk_cost, 1.0),
        None => CostModel::paper_style(shape.height, args.memory_levels, args.disk_cost, 1.0),
    };
    Ok(
        ModelConfig::new(shape, mix, cost.map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?
            .with_recovery(args.recovery, args.t_trans),
    )
}

fn main() -> ExitCode {
    let args = Flags::from_env(USAGE).parse_or_exit(parse_args);
    let cfg = match model_config(&args, args.buffer_nodes) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mix = cfg.mix;

    println!(
        "tree: {} items, N = {}, height {}, root fanout {:.1}; disk cost {}; \
         mix {:.2}/{:.2}/{:.2}; recovery {:?}\n",
        cfg.shape.n_items,
        args.node_size,
        cfg.height(),
        cfg.shape.root_fanout(),
        args.disk_cost,
        mix.q_search,
        mix.q_insert,
        mix.q_delete,
        args.recovery,
    );

    let mut records = vec![meta_json(&args, mix, &cfg)];
    let rate = args.rate;
    let mut best: Option<(Algorithm, f64)> = None;
    for alg in Algorithm::ALL_EXTENDED {
        let model = alg.model(&cfg);
        let max = model.max_throughput().unwrap_or(f64::NAN);
        let eff = model.lambda_at_root_rho(0.5).ok();
        let probe = rate.unwrap_or(0.4 * max);
        let point = model.evaluate(probe).ok();
        let (s_rt, i_rt, rho) = match &point {
            Some(p) => (
                p.response_time_search,
                p.response_time_insert,
                p.root_writer_utilization(),
            ),
            None => (f64::NAN, f64::NAN, f64::NAN),
        };
        records.push(Json::obj(vec![
            ("type", "analysis_point".into()),
            ("algorithm", alg.name().into()),
            ("max_throughput", Json::f64_or_null(max)),
            (
                "eff_max_rho_half",
                eff.map_or(Json::Null, Json::f64_or_null),
            ),
            ("lambda", Json::f64_or_null(probe)),
            ("saturated", point.is_none().into()),
            ("search_rt", Json::f64_or_null(s_rt)),
            ("insert_rt", Json::f64_or_null(i_rt)),
            ("rho_root", Json::f64_or_null(rho)),
        ]));
        if let Some(r) = rate {
            if max > 1.3 * r && best.is_none_or(|(_, m)| max < m) {
                // Prefer the *least* powerful algorithm with ≥30% headroom
                // (simpler protocols when they suffice).
                best = Some((alg, max));
            }
        }
    }
    const ANALYSIS: &[Column] = &[
        ("algorithm", "algorithm", 1.0, 0),
        ("max-thru", "max_throughput", 1.0, 4),
        ("eff-max(rho=.5)", "eff_max_rho_half", 1.0, 4),
        ("search-RT", "search_rt", 1.0, 2),
        ("insert-RT", "insert_rt", 1.0, 2),
        ("rho_root", "rho_root", 1.0, 3),
    ];
    Table::project("analytical model (cost units)", ANALYSIS, &records[1..]).print();
    if let Some(r) = rate {
        match best {
            Some((alg, max)) => println!(
                "\nrecommendation at λ = {r}: {} (max throughput {max:.3}, ≥30% headroom)",
                alg.name()
            ),
            None => println!(
                "\nno algorithm sustains λ = {r} with headroom on this configuration; \
                 consider larger nodes (optimistic) or the link algorithm"
            ),
        }
        records.push(Json::obj(vec![
            ("type", "recommendation".into()),
            ("lambda", r.into()),
            (
                "algorithm",
                best.map_or(Json::Null, |(alg, _)| alg.name().into()),
            ),
        ]));
    }

    if args.verify {
        let Some(r) = rate else {
            eprintln!("--verify needs --rate");
            return ExitCode::FAILURE;
        };
        println!("\nsimulation cross-check at λ = {r} (3 seeds):");
        const SIM_CHECK: &[Column] = &[
            ("algorithm", "algorithm", 1.0, 0),
            ("search-RT", "resp_search.mean", 1.0, 2),
            ("±ci95", "resp_search.ci95", 1.0, 2),
            ("insert-RT", "resp_insert.mean", 1.0, 2),
            ("±ci95", "resp_insert.ci95", 1.0, 2),
        ];
        let mut t = Table::project("simulation cross-check", SIM_CHECK, []);
        // The simulator has no buffer pool: under --buffer-nodes it
        // cross-checks the --memory-levels split.
        let sim_cfg = model_config(&args, None).expect("built once already");
        for protocol in COMPARED {
            let alg = pillars::of(protocol).0;
            match pillars::simulate(protocol, &sim_cfg, PAPER_KEYSPACE, r, &[1, 2, 3]) {
                Ok(s) => {
                    let record = Json::obj(vec![
                        ("type", "sim_check".into()),
                        ("algorithm", alg.name().into()),
                        ("lambda", r.into()),
                        ("resp_search", s.resp_search.to_json()),
                        ("resp_insert", s.resp_insert.to_json()),
                    ]);
                    t.push_record(SIM_CHECK, &record);
                    records.push(record);
                }
                // A failed simulation writes no record: its error fills
                // the row.
                Err(e) => t.push(vec![
                    alg.name().to_string(),
                    e.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]),
            }
        }
        t.print();
        println!(
            "(simulation uses up to 200k items; at larger --items the analysis \
             extrapolates the same per-level model)"
        );
    }

    if args.live {
        if let Err(e) = live_compare(&args, mix, &mut records) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.serve {
        if let Err(e) = serve_overlay(path, &mut records) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = cbtree_obs::write_jsonl(path, &records) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// The `meta` JSONL record for an `analyze` invocation.
fn meta_json(args: &Args, mix: OpMix, cfg: &ModelConfig) -> Json {
    Json::obj(vec![
        ("type", "meta".into()),
        ("schema", cbtree_obs::SCHEMA_VERSION.into()),
        ("kind", "analyze".into()),
        ("items", args.items.into()),
        ("node_size", args.node_size.into()),
        ("height", cfg.height().into()),
        (
            "mix",
            Json::arr([
                mix.q_search.into(),
                mix.q_insert.into(),
                mix.q_delete.into(),
            ]),
        ),
        ("disk_cost", args.disk_cost.into()),
        ("memory_levels", args.memory_levels.into()),
        (
            "buffer_nodes",
            args.buffer_nodes.map_or(Json::Null, Json::f64_or_null),
        ),
        ("rate", args.rate.map_or(Json::Null, Json::f64_or_null)),
        ("recovery", format!("{:?}", args.recovery).into()),
        ("t_trans", args.t_trans.into()),
    ])
}

/// Three-way comparison: the analytical model, the discrete-event
/// simulator, and the *real* trees running on OS threads, all on an
/// all-in-memory configuration (the live harness has no disk).
///
/// Units are aligned by calibration: a single-threaded uncontended
/// search-only live run fixes the wall-clock length of one model cost
/// unit, live throughput is converted into a model arrival rate λ, and
/// analysis/simulation are evaluated at that same λ.
fn live_compare(args: &Args, mix: OpMix, records: &mut Vec<Json>) -> Result<(), String> {
    let items = args.items.min(pillars::SIM_MAX_ITEMS) as usize;
    let mcfg = pillars::memory_resident(items as u64, args.node_size, mix)?;

    let ops = OpsConfig {
        q_search: mix.q_search,
        q_insert: mix.q_insert,
        q_delete: mix.q_delete,
        keys: KeyDist::Uniform {
            lo: 0,
            hi: (2 * items) as u64,
        },
    };
    let base = LiveConfig {
        protocol: Protocol::BLink,
        threads: args.live_threads.max(1),
        capacity: args.node_size,
        initial_items: items,
        ops,
        warmup: Duration::from_millis(150),
        measure: Duration::from_millis(500),
        seed: 0x11FE,
        stats_sampling: SamplePeriod::every(args.sample_every),
        txn: 1,
        sample_interval: None,
    };

    // Calibrate: one model cost unit, in seconds of wall clock.
    let calib = cbtree_harness::run(&LiveConfig {
        threads: 1,
        ops: OpsConfig {
            q_search: 1.0,
            q_insert: 0.0,
            q_delete: 0.0,
            ..ops
        },
        ..base.clone()
    });
    let zero_load_units = pillars::zero_load(&mcfg)?.response_time_search;
    if calib.resp_search.n == 0 || calib.resp_search.mean <= 0.0 {
        return Err("calibration run completed no searches".into());
    }
    let unit_secs = calib.resp_search.mean / zero_load_units;
    println!(
        "\nlive execution cross-check: {} threads, {} items in memory, capacity {}",
        base.threads, items, args.node_size
    );
    println!(
        "calibration: 1 model cost unit = {:.0} ns wall clock \
         ({:.2} us per uncontended search / {:.2} units zero-load path)",
        unit_secs * 1e9,
        calib.resp_search.mean * 1e6,
        zero_load_units
    );
    let first = records.len();
    for protocol in COMPARED {
        let live = cbtree_harness::run(&LiveConfig {
            protocol,
            ..base.clone()
        });
        // The live run is closed-loop; its completion rate, expressed in
        // model cost units, is the open-loop λ the other two pillars see.
        let lambda = live.throughput * unit_secs;
        let (anl, sim) = pillars::evaluate(protocol, &mcfg, PAPER_KEYSPACE, lambda, &[1, 2]);
        let (anl_s, anl_i) = anl.map_or((f64::NAN, f64::NAN), |p| {
            (p.response_time_search, p.response_time_insert)
        });
        let (sim_s, sim_i) = sim.map_or((f64::NAN, f64::NAN), |s| {
            (s.resp_search.mean, s.resp_insert.mean)
        });
        let live_s = live.resp_search.mean / unit_secs;
        let live_i = live.resp_insert.mean / unit_secs;
        records.push(Json::obj(vec![
            ("type", "live_compare".into()),
            ("protocol", protocol.name().into()),
            ("live_throughput", Json::f64_or_null(live.throughput)),
            ("lambda", Json::f64_or_null(lambda)),
            ("unit_secs", Json::f64_or_null(unit_secs)),
            ("anl_search_rt", Json::f64_or_null(anl_s)),
            ("sim_search_rt", Json::f64_or_null(sim_s)),
            ("live_search_rt", Json::f64_or_null(live_s)),
            ("anl_insert_rt", Json::f64_or_null(anl_i)),
            ("sim_insert_rt", Json::f64_or_null(sim_i)),
            ("live_insert_rt", Json::f64_or_null(live_i)),
            (
                "latches_per_op",
                Json::f64_or_null(live.counters.latches_per_op()),
            ),
            (
                "restart_rate",
                Json::f64_or_null(live.counters.restart_rate()),
            ),
            ("chase_rate", Json::f64_or_null(live.counters.chase_rate())),
        ]));
    }
    const LIVE_COMPARE: &[Column] = &[
        ("algorithm", "protocol", 1.0, 0),
        ("live-thru", "live_throughput", 1.0, 0),
        ("lambda", "lambda", 1.0, 4),
        ("anl-sRT", "anl_search_rt", 1.0, 2),
        ("sim-sRT", "sim_search_rt", 1.0, 2),
        ("live-sRT", "live_search_rt", 1.0, 2),
        ("anl-iRT", "anl_insert_rt", 1.0, 2),
        ("sim-iRT", "sim_insert_rt", 1.0, 2),
        ("live-iRT", "live_insert_rt", 1.0, 2),
        ("ltch/op", "latches_per_op", 1.0, 2),
        ("restart", "restart_rate", 1.0, 4),
        ("chase", "chase_rate", 1.0, 4),
    ];
    Table::project(
        "analysis vs simulation vs live (response times in cost units)",
        LIVE_COMPARE,
        &records[first..],
    )
    .print();
    println!(
        "(response times in model cost units; live converted via the calibrated unit; \
         each pillar evaluated at the live run's measured λ; ltch/op, restart and \
         chase rates from the engine's per-operation telemetry)"
    );
    Ok(())
}

/// Tolerance of the serve overlay's measured-vs-predicted comparison.
const SERVE_OVERLAY_TOLERANCE: f64 = 0.5;
/// Utilization above which the open M/G/1 prediction is not expected to
/// hold (a finite queue sheds instead of growing without bound).
const SERVE_OVERLAY_MAX_RHO: f64 = 0.7;

/// One parsed per-shard point of a `serve_report` record.
struct ServePoint {
    lambda: f64,
    shard: u64,
    /// Workers draining this shard's queue — the `c` of M/G/c.
    c: u32,
    arrival_rate: f64,
    service: cbtree_queueing::mg1::ServiceMoments,
    sojourn_mean_s: f64,
    shed_rate: f64,
}

/// Overlay mode: compare the measured per-shard λ-vs-sojourn curves of
/// an open-loop `serve` sweep against the M/G/c (Lee–Longton)
/// prediction built from each shard's *measured* service moments, with
/// `c` the sweep's workers-per-shard (at `c = 1` the prediction is
/// exactly M/G/1 Pollaczek–Khinchine, so singleton sweeps are judged as
/// before). A batched sweep reports per-batch-size service sums; the
/// overlay folds them through the batch-service moment transform to get
/// the effective *per-operation* moments the queue actually exhibits.
///
/// The measured sojourn includes a dispatch overhead the queueing model
/// knows nothing about (doorbell wake-up and scheduling latency between
/// enqueue and dequeue, present even on an empty queue), so the overlay
/// calibrates it per shard from the sweep's lowest-λ point — exactly the
/// role the uncontended calibration run plays in `--live` — and checks
/// the remaining points against `W_q(λ) + E[X] + overhead`. Agreement
/// is only expected where ρ = λ·E[X]/c stays low-to-mid (≤ 0.7): past
/// that, the bounded queue sheds, which an open M/G/c cannot model.
fn serve_overlay(path: &std::path::Path, records: &mut Vec<Json>) -> Result<(), String> {
    use cbtree_queueing::mg1::ServiceMoments;
    use cbtree_queueing::mgc::sojourn_time;
    use cbtree_queueing::BatchSizeMoments;

    let parsed = cbtree_obs::read_jsonl(path)?;
    let mut points: Vec<ServePoint> = Vec::new();
    for rec in &parsed {
        if rec.get("type").and_then(Json::as_str) != Some("serve_report") {
            continue;
        }
        let lambda = rec
            .get("lambda")
            .and_then(Json::as_f64)
            .ok_or("serve_report without lambda")?;
        let c = u32::try_from(
            rec.get("workers_per_shard")
                .and_then(Json::as_u64)
                .unwrap_or(1),
        )
        .map_err(|_| "workers_per_shard out of range")?;
        let shards = rec
            .get("shards_detail")
            .and_then(Json::as_arr)
            .ok_or("serve_report without shards_detail")?;
        for sh in shards {
            let f = |key: &str| {
                sh.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("shard record without {key}"))
            };
            // Prefer the batch-service transform when per-batch-size
            // sums are present (older artifacts predate them); the plain
            // per-op moments are the `batch_max = 1` degenerate case.
            let batch_sizes: Vec<BatchSizeMoments> = sh
                .get("batch_sizes")
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(|b| {
                            Some(BatchSizeMoments {
                                size: u32::try_from(b.get("size")?.as_u64()?).ok()?,
                                batches: b.get("batches")?.as_u64()?,
                                service_sum_s: b.get("service_sum_s")?.as_f64()?,
                                service_sum_sq_s2: b.get("service_sum_sq_s2")?.as_f64()?,
                            })
                        })
                        .collect()
                })
                .unwrap_or_default();
            let service = match cbtree_queueing::batch_service_moments(&batch_sizes) {
                Some(m) => m,
                None => ServiceMoments {
                    mean: f("service_mean_s")?,
                    second: f("service_m2_s2")?,
                },
            };
            points.push(ServePoint {
                lambda,
                shard: sh.get("shard").and_then(Json::as_u64).unwrap_or(0),
                c,
                arrival_rate: f("offered_rate")?,
                service,
                sojourn_mean_s: f("sojourn_mean_s")?,
                shed_rate: f("shed_rate")?,
            });
        }
    }
    if points.is_empty() {
        return Err(format!(
            "{}: no serve_report records (produce one with `serve --json`)",
            path.display()
        ));
    }

    // Calibrate the per-shard dispatch overhead at the lowest λ.
    let lambda_min = points
        .iter()
        .map(|p| p.lambda)
        .fold(f64::INFINITY, f64::min);
    let overhead_of = |shard: u64| -> Option<f64> {
        let p = points
            .iter()
            .find(|p| p.lambda == lambda_min && p.shard == shard)?;
        let predicted = sojourn_time(p.arrival_rate, p.c, p.service).ok()?;
        Some((p.sojourn_mean_s - predicted).max(0.0))
    };

    println!(
        "\nserve overlay: {} ({} points), M/G/c from measured service moments \
         (c = workers per shard; exact M/G/1 at c = 1), dispatch overhead \
         calibrated at lambda {:.0}",
        path.display(),
        points.len(),
        lambda_min
    );
    let first = records.len();
    let mut checked = 0u64;
    let mut agreed = 0u64;
    for p in &points {
        let rho = p.arrival_rate * p.service.mean / f64::from(p.c);
        let overhead = overhead_of(p.shard).unwrap_or(0.0);
        let predicted = sojourn_time(p.arrival_rate, p.c, p.service)
            .ok()
            .map(|s| s + overhead);
        let ratio = predicted
            .filter(|&pr| pr > 0.0)
            .map(|pr| p.sojourn_mean_s / pr);
        // The calibration point matches by construction; judge the rest.
        let calibration = p.lambda == lambda_min;
        let verdict = match (predicted, ratio) {
            _ if calibration => "calib",
            (None, _) => "saturated",
            _ if rho > SERVE_OVERLAY_MAX_RHO => "high-util",
            (_, Some(r)) => {
                checked += 1;
                let within = (1.0 / (1.0 + SERVE_OVERLAY_TOLERANCE)
                    ..=1.0 + SERVE_OVERLAY_TOLERANCE)
                    .contains(&r);
                if within {
                    agreed += 1;
                    "ok"
                } else {
                    "off"
                }
            }
            _ => "-",
        };
        records.push(Json::obj(vec![
            ("type", "serve_overlay".into()),
            ("lambda", Json::f64_or_null(p.lambda)),
            ("shard", p.shard.into()),
            ("workers", p.c.into()),
            ("rho", Json::f64_or_null(rho)),
            ("service_scv", Json::f64_or_null(p.service.scv())),
            ("shed_rate", Json::f64_or_null(p.shed_rate)),
            ("measured_sojourn_s", Json::f64_or_null(p.sojourn_mean_s)),
            (
                "predicted_sojourn_s",
                predicted.map_or(Json::Null, Json::f64_or_null),
            ),
            ("overhead_s", Json::f64_or_null(overhead)),
            ("ratio", ratio.map_or(Json::Null, Json::f64_or_null)),
            ("verdict", verdict.into()),
        ]));
    }
    const OVERLAY: &[Column] = &[
        ("lambda", "lambda", 1.0, 0),
        ("shard", "shard", 1.0, 0),
        ("c", "workers", 1.0, 0),
        ("rho", "rho", 1.0, 3),
        ("scv", "service_scv", 1.0, 2),
        ("shed%", "shed_rate", 100.0, 2),
        ("meas(us)", "measured_sojourn_s", 1e6, 2),
        ("pred(us)", "predicted_sojourn_s", 1e6, 2),
        ("ratio", "ratio", 1.0, 2),
        ("verdict", "verdict", 1.0, 0),
    ];
    Table::project(
        "open-loop measured vs M/G/c predicted sojourn, per shard",
        OVERLAY,
        &records[first..],
    )
    .print();
    if checked > 0 {
        println!(
            "agreement at rho <= {SERVE_OVERLAY_MAX_RHO}: {agreed}/{checked} points within \
             {:.0}% of the M/G/c prediction",
            SERVE_OVERLAY_TOLERANCE * 100.0
        );
    } else {
        println!(
            "no comparable points at rho <= {SERVE_OVERLAY_MAX_RHO}; sweep lower lambdas \
             for an overlap with the model's validity region"
        );
    }
    Ok(())
}
