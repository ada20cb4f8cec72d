//! `serve`: drive the sharded trees under *open-loop* load and print
//! sojourn-time-under-load tables.
//!
//! ```text
//! cargo run --release -p cbtree-serve --bin serve -- \
//!     --algo blink --shards 4 --sweep 20000,50000,100000
//! ```

use cbtree_btree::Protocol;
use cbtree_harness::cli::RunFlags;
use cbtree_obs::table::{fmt_f, Column, Table};
use cbtree_obs::{replay, Json};
use cbtree_serve::{
    max_sustainable_lambda, serve, slo_line, sweep, ArrivalShape, ServeConfig, ServeReport,
    SUSTAINABLE_SHED_RATE,
};
use cbtree_workload::cli::Flags;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
usage: serve [options]

  --algo NAME        b-link | lock-coupling | optimistic | two-phase |
                     recovery-naive | recovery-leaf  (default b-link)
  --shards N         key-range shards, each an independent tree + queue
                     (default 2)
  --workers N        worker threads per shard (default 1)
  --batch-max N      most ops a worker drains and executes as one
                     sorted batch per wakeup, 1..=255 (default 1 =
                     singleton service)
  --generators N     open-loop generator threads (default 2)
  --lambda F         aggregate offered arrival rate, ops/s (default 50000)
  --sweep F,F,...    one measurement per listed lambda (the
                     lambda-vs-response-time curve)
  --saturate F       max-sustainable-rate search: bracket by doubling
                     from lambda F, then bisect
  --bisect N         bisection iterations for --saturate (default 4)
  --burstiness F     use bursty on-off arrivals with peak-to-mean ratio F
                     instead of Poisson (same long-run lambda)
  --mean-on-ms N     mean ON-burst length for --burstiness (default 10)
  --service-floor-us N
                     minimum service time per op: workers sleep out the
                     remainder, emulating disk-resident nodes (default 0
                     = raw in-memory tree speed)
  --queue-cap N      per-shard ingress queue bound; arrivals beyond it
                     are shed (default 4096)
  --max-age-ms N     shed queued ops older than N ms at dequeue
                     (default: no age limit)
  --capacity N       max keys per node (default 64)
  --items N          keys prefilled across all shards (default 50000)
  --keyspace N       key space size (default 1000000)
  --key-dist SPEC    key distribution over the key space:
                     uniform | zipf:<theta> | seq  (default uniform;
                     seq appends above the prefill — the workload where
                     sorted-batch descent amortizes hardest)
  --mix S,I,D        operation mix, must sum to 1 (default 0.3,0.5,0.2)
  --warmup-ms N      untimed warmup (default 200)
  --measure-ms N     measured window (default 1000)
  --seed N           seed for arrivals and workloads (default 386174)
  --sample-every N   time 1 in N lock acquisitions (default 1 = exact)
  --sample-interval-ms N
                     run the continuous sampler: harvest the always-on
                     metrics registry every N ms during the measured
                     window, one timeseries JSONL record per window
                     (default: off)
  --slo-p99-us N     p99 sojourn SLO budget for the burn monitor; with
                     the sampler on, consecutive over-budget windows
                     stamp the saturation onset into the report
  --assert-low-shed  exit nonzero unless the lowest-lambda measurement
                     shed no operations (CI guard)
  --json PATH        write the run as JSONL records: meta, one
                     serve_report per measurement, and (single-run mode,
                     with --trace-buf) the drained events
  --trace-buf N      trace every latch, operation and queue event into a
                     per-thread ring of N events, 2..=16777216
                     (default: tracing off)
  -h, --help         print this help
";

enum Mode {
    Single,
    Sweep(Vec<f64>),
    Saturate(f64),
}

struct Args {
    cfg: ServeConfig,
    mode: Mode,
    bisect: usize,
    json: Option<PathBuf>,
    assert_low_shed: bool,
    trace_buf: Option<usize>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut run = RunFlags::paper(0x5E47E);
    let mut cfg = ServeConfig::paper(Protocol::BLink, 2, 50_000.0);
    let mut mode = Mode::Single;
    let mut bisect = 4usize;
    let mut burstiness: Option<f64> = None;
    let mut mean_on = Duration::from_millis(10);
    let mut assert_low_shed = false;
    while let Some(flag) = flags.next_flag() {
        if run.accept(&flag, flags)? {
            continue;
        }
        match flag.as_str() {
            "--shards" => cfg.shards = flags.at_least(1)?,
            "--workers" => cfg.workers_per_shard = flags.at_least(1)?,
            "--batch-max" => cfg.batch_max = flags.in_range(1..=255)?,
            "--generators" => cfg.generators = flags.at_least(1)?,
            "--lambda" => cfg.lambda = flags.positive()?,
            "--sweep" => {
                let lambdas: Vec<f64> = flags.list()?;
                if lambdas.iter().any(|&l| !(l.is_finite() && l > 0.0)) {
                    return Err(format!("--sweep needs positive rates, got {lambdas:?}"));
                }
                mode = Mode::Sweep(lambdas);
            }
            "--saturate" => mode = Mode::Saturate(flags.positive()?),
            "--bisect" => bisect = flags.value()?,
            "--burstiness" => burstiness = Some(flags.at_least(1.0)?),
            "--mean-on-ms" => mean_on = flags.millis(1)?,
            "--service-floor-us" => cfg.service_floor = flags.micros(0)?,
            "--queue-cap" => cfg.queue_capacity = flags.at_least(1)?,
            "--max-age-ms" => cfg.max_enqueue_age = Some(flags.millis(0)?),
            "--slo-p99-us" => cfg.slo_p99 = Some(flags.micros(1)?),
            "--assert-low-shed" => assert_low_shed = true,
            _ => return Err(flags.unknown()),
        }
    }
    if let Some(b) = burstiness {
        cfg.arrivals = ArrivalShape::OnOff {
            burstiness: b,
            mean_on,
        };
    }
    Ok(Args {
        cfg: ServeConfig {
            protocol: run.protocol,
            capacity: run.capacity,
            initial_items: run.initial_items,
            ops: run.ops()?,
            warmup: run.warmup,
            measure: run.measure,
            seed: run.seed,
            stats_sampling: run.stats_sampling,
            sample_interval: run.sample_interval,
            ..cfg
        },
        mode,
        bisect,
        json: run.json,
        assert_low_shed,
        trace_buf: run.trace_buf,
    })
}

/// The `meta` JSONL record for a serve run.
fn meta_json(cfg: &ServeConfig) -> Json {
    let arrivals = match cfg.arrivals {
        ArrivalShape::Poisson => Json::obj(vec![("shape", "poisson".into())]),
        ArrivalShape::OnOff {
            burstiness,
            mean_on,
        } => Json::obj(vec![
            ("shape", "on_off".into()),
            ("burstiness", Json::f64_or_null(burstiness)),
            ("mean_on_s", Json::f64_or_null(mean_on.as_secs_f64())),
        ]),
    };
    Json::obj(vec![
        ("type", "meta".into()),
        ("schema", cbtree_obs::SCHEMA_VERSION.into()),
        ("kind", "serve_run".into()),
        ("protocol", cfg.protocol.name().into()),
        ("shards", cfg.shards.into()),
        ("workers_per_shard", cfg.workers_per_shard.into()),
        ("batch_max", cfg.batch_max.into()),
        ("generators", cfg.generators.into()),
        ("arrivals", arrivals),
        (
            "service_floor_us",
            Json::whole(cfg.service_floor.as_micros()),
        ),
        ("queue_capacity", cfg.queue_capacity.into()),
        (
            "max_enqueue_age_ms",
            cfg.max_enqueue_age
                .map_or(Json::Null, |d| Json::whole(d.as_millis())),
        ),
        ("capacity", cfg.capacity.into()),
        ("initial_items", cfg.initial_items.into()),
        (
            "mix",
            Json::arr([
                cfg.ops.q_search.into(),
                cfg.ops.q_insert.into(),
                cfg.ops.q_delete.into(),
            ]),
        ),
        ("keyspace", cfg.ops.keys.span().into()),
        ("key_dist", cfg.ops.keys.name().into()),
        ("seed", cfg.seed.into()),
        ("warmup_ms", Json::whole(cfg.warmup.as_millis())),
        ("measure_ms", Json::whole(cfg.measure.as_millis())),
        (
            "sample_interval_ms",
            cfg.sample_interval
                .map_or(Json::Null, |d| Json::whole(d.as_millis())),
        ),
        (
            "slo_p99_us",
            cfg.slo_p99
                .map_or(Json::Null, |d| Json::whole(d.as_micros())),
        ),
    ])
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `report`, whose `serve_report` record is `record`, as the human
/// summary of a single run.
fn print_report(report: &ServeReport, record: &Json) {
    println!(
        "open-loop window {:.3} s | lambda {:.0} offered, {:.0}/s arrived, {:.0}/s served | shed {:.2}%",
        report.measured_time,
        report.lambda,
        report.offered_rate(),
        report.achieved_rate(),
        report.shed_rate() * 100.0,
    );
    println!(
        "sojourn (us): mean {:.2} | p50 {:.2} | p99 {:.2} | p999 {:.2}  (queue wait + service, {} served ops)",
        report.sojourn_mean_s * 1e6,
        us(report.sojourn.p50()),
        us(report.sojourn.p99()),
        us(report.sojourn.p999()),
        report.served(),
    );
    const SHARDS: &[Column] = &[
        ("shard", "shard", 1.0, 0),
        ("offered", "offered", 1.0, 0),
        ("served", "served", 1.0, 0),
        ("shed%", "shed_rate", 100.0, 2),
        ("q-hwm", "queue_depth_hwm", 1.0, 0),
        ("soj-p50(us)", "sojourn.p50_ns", 1e-3, 2),
        ("soj-p99(us)", "sojourn.p99_ns", 1e-3, 2),
        ("soj-p999(us)", "sojourn.p999_ns", 1e-3, 2),
        ("svc-mean(us)", "service_mean_s", 1e6, 2),
        ("keys", "final_len", 1.0, 0),
    ];
    let shards = record.get("shards_detail").and_then(Json::as_arr);
    Table::project("per-shard behavior", SHARDS, shards.unwrap_or_default()).print();
    if report.per_shard.iter().any(|s| s.batches > 0) {
        // Hand-built: the record carries the raw batch counts, not these
        // per-op ratios.
        let mut b = Table::new(
            "per-shard batched execution",
            &[
                "shard",
                "batches",
                "mean-size",
                "descents/op",
                "reuse%",
                "latch/op",
                "q-wait(us)",
                "b-wait(us)",
            ],
        );
        for s in &report.per_shard {
            if s.batches == 0 {
                continue;
            }
            let ops = s.batch.ops.max(1) as f64;
            b.push(vec![
                s.shard.to_string(),
                s.batches.to_string(),
                fmt_f(ops / s.batches as f64, 2),
                fmt_f(s.batch.descents as f64 / ops, 3),
                fmt_f(s.batch.leaf_reuses as f64 / ops * 100.0, 1),
                fmt_f(s.counters.latches_per_op(), 2),
                fmt_f(s.queue_wait_mean_s * 1e6, 2),
                fmt_f(s.batch_wait_mean_s * 1e6, 2),
            ]);
        }
        b.print();
    }
    if !report.timeseries.is_empty() {
        println!(
            "timeseries: {} windows sampled (replay with `cbtree-trace timeline`)",
            report.timeseries.len()
        );
    }
    if let Some(slo) = record.get("slo").filter(|s| !s.is_null()) {
        println!("{}", slo_line(slo));
    }
    if !report.trace.is_empty() {
        println!(
            "trace: {} events from {} threads ({} dropped)",
            report.trace.events.len(),
            report.trace.threads,
            report.trace.dropped
        );
    }
}

/// The λ-vs-response-time curve of a sweep, one `serve_report` record
/// per measurement.
fn print_curve(records: &[Json]) {
    const CURVE: &[Column] = &[
        ("lambda", "lambda", 1.0, 0),
        ("offered/s", "offered_rate", 1.0, 0),
        ("served/s", "achieved_rate", 1.0, 0),
        ("shed%", "shed_rate", 100.0, 2),
        ("soj-mean(us)", "sojourn_mean_s", 1e6, 2),
        ("soj-p50(us)", "sojourn.p50_ns", 1e-3, 2),
        ("soj-p99(us)", "sojourn.p99_ns", 1e-3, 2),
        ("soj-p999(us)", "sojourn.p999_ns", 1e-3, 2),
    ];
    Table::project("lambda vs response time", CURVE, records).print();
    for r in records {
        if let Some(slo) = r.get("slo").filter(|s| !s.is_null()) {
            println!(
                "lambda {:.0}: {} | {} windows",
                r.get("lambda").and_then(Json::as_f64).unwrap_or(f64::NAN),
                slo_line(slo),
                r.get("timeseries_windows")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            );
        }
    }
}

fn write_json(
    path: &std::path::Path,
    cfg: &ServeConfig,
    reports: &[ServeReport],
    report_records: Vec<Json>,
) -> Result<(), String> {
    let mut records = vec![meta_json(cfg)];
    for (r, record) in reports.iter().zip(report_records) {
        records.push(record);
        // The continuous time series rides as one record per window,
        // right after the report it belongs to (each point carries its
        // lambda, so `cbtree-trace timeline` can group a sweep).
        records.extend(r.timeseries.iter().map(|p| p.to_json()));
    }
    // Single-run mode inlines the drained trace (a sweep's would dwarf
    // the reports).
    if let [only] = reports {
        if !only.trace.is_empty() {
            records.push(only.trace.info_json());
            records.push(replay(&only.trace).to_json());
            records.extend(only.trace.events.iter().map(|e| e.to_json()));
        }
    }
    cbtree_obs::write_jsonl(path, &records)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    // Read-back guard: every record must round-trip through the parser,
    // so downstream analyzers never meet a half-written artifact.
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("re-reading {}: {e}", path.display()))?;
    for (i, line) in text.lines().enumerate() {
        Json::parse(line)
            .map_err(|e| format!("{}:{}: round-trip failed: {e}", path.display(), i + 1))?;
    }
    Ok(())
}

fn main() {
    let args = Flags::from_env(USAGE).parse_or_exit(parse_args);

    if let Some(n) = args.trace_buf {
        cbtree_obs::trace::set_default_ring_capacity(n);
        cbtree_obs::trace::enable(true);
    }

    println!(
        "service: {} | {} shards x {} workers | batch max {} | {} keys | {} generators | queue cap {}{}",
        args.cfg.protocol.name(),
        args.cfg.shards,
        args.cfg.workers_per_shard,
        args.cfg.batch_max,
        args.cfg.ops.keys.name(),
        args.cfg.generators,
        args.cfg.queue_capacity,
        match args.cfg.arrivals {
            ArrivalShape::Poisson => String::new(),
            ArrivalShape::OnOff { burstiness, .. } =>
                format!(" | on-off arrivals, burstiness {burstiness}"),
        },
    );

    let mut best = None;
    let reports: Vec<ServeReport> = match &args.mode {
        Mode::Single => vec![serve(&args.cfg)],
        Mode::Sweep(lambdas) => sweep(&args.cfg, lambdas),
        Mode::Saturate(lambda0) => {
            println!(
                "saturation search from lambda {lambda0:.0} ({} bisections, shed bound {:.1}%)",
                args.bisect,
                SUSTAINABLE_SHED_RATE * 100.0
            );
            let (max, reports) = max_sustainable_lambda(&args.cfg, *lambda0, args.bisect);
            best = Some(max);
            reports
        }
    };
    let records: Vec<Json> = reports.iter().map(ServeReport::to_json).collect();
    match args.mode {
        Mode::Single => print_report(&reports[0], &records[0]),
        _ => print_curve(&records),
    }
    if let Some(best) = best {
        println!("max sustainable arrival rate: {best:.0} ops/s");
    }

    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &args.cfg, &reports, records) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }

    if args.assert_low_shed {
        // CI guard: the *least-loaded* measurement must shed nothing —
        // if it does, admission control is broken (or the smoke sweep's
        // lowest lambda is mis-sized for the machine).
        let least = reports
            .iter()
            .min_by(|a, b| a.lambda.total_cmp(&b.lambda))
            .expect("at least one measurement");
        if least.shed() > 0 {
            eprintln!(
                "error: lowest-lambda run ({:.0} ops/s) shed {} of {} offered ops",
                least.lambda,
                least.shed(),
                least.offered()
            );
            std::process::exit(1);
        }
        println!(
            "assert-low-shed: ok (lambda {:.0} shed nothing)",
            least.lambda
        );
    }
}
