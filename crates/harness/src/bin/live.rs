//! `live`: run the real concurrent B+-trees on OS threads and print the
//! measured per-level performance table.
//!
//! ```text
//! cargo run --release -p cbtree-harness --bin live -- --algo blink --threads 8
//! ```

use cbtree_harness::cli::RunFlags;
use cbtree_harness::{run, saturation_search, LiveConfig, LiveReport};
use cbtree_obs::table::{Column, Table};
use cbtree_obs::{replay, Json};
use cbtree_workload::cli::Flags;
use std::path::PathBuf;

const USAGE: &str = "\
usage: live [options]

  --algo NAME        b-link | lock-coupling | optimistic | olc | two-phase |
                     recovery-naive | recovery-leaf  (default b-link;
                     historical aliases like blink/coupling also work)
  --threads N        worker threads (default 4)
  --txn N            transaction size: commit after every N ops; only the
                     recovery protocols retain latches between commits
                     (default 1)
  --capacity N       max keys per node (default 64)
  --items N          keys prefilled before measurement (default 50000)
  --keyspace N       key space size (default 1000000)
  --key-dist SPEC    key distribution over the key space:
                     uniform | zipf:<theta> | seq  (default uniform)
  --mix S,I,D        operation mix, must sum to 1 (default 0.3,0.5,0.2)
  --warmup-ms N      untimed warmup (default 200)
  --measure-ms N     measured window (default 1000)
  --seed N           workload seed (default 4606)
  --sample-every N   time 1 in N lock acquisitions, N rounded up to a
                     power of two (default 1 = exact; counts stay exact
                     and sampled stats stay unbiased either way)
  --sample-interval-ms N
                     run the continuous sampler: harvest the always-on
                     metrics registry every N ms during the measured
                     window, one timeseries JSONL record per window
                     (default: off)
  --saturate N       saturation search: double threads from 1 up to N
  --json PATH        write the run as JSONL records: meta, live_report,
                     and (with --trace-buf) trace_info, trace_summary,
                     and one record per drained event
  --trace-buf N      trace every latch and operation event into a
                     per-thread ring of N events, 2..=16777216
                     (default: tracing off)
  -h, --help         print this help
";

struct Args {
    cfg: LiveConfig,
    saturate: Option<usize>,
    json: Option<PathBuf>,
    trace_buf: Option<usize>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let mut run = RunFlags::paper(0x11FE);
    let (mut threads, mut txn, mut saturate) = (4, 1, None);
    while let Some(flag) = flags.next_flag() {
        if run.accept(&flag, flags)? {
            continue;
        }
        match flag.as_str() {
            "--threads" => threads = flags.at_least(1)?,
            "--txn" => txn = flags.at_least(1)?,
            "--saturate" => saturate = Some(flags.value()?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(Args {
        cfg: LiveConfig {
            protocol: run.protocol,
            threads,
            capacity: run.capacity,
            initial_items: run.initial_items,
            ops: run.ops()?,
            warmup: run.warmup,
            measure: run.measure,
            seed: run.seed,
            stats_sampling: run.stats_sampling,
            txn,
            sample_interval: run.sample_interval,
        },
        saturate,
        json: run.json,
        trace_buf: run.trace_buf,
    })
}

/// Serializes one finished run as JSONL: meta, report, and — when a
/// trace was drained — its shape, replay summary, and every event.
fn write_json(
    path: &std::path::Path,
    cfg: &LiveConfig,
    report: &LiveReport,
    record: Json,
) -> std::io::Result<()> {
    let mut records = vec![cfg.meta_json(), record];
    // The continuous time series rides as one record per window, right
    // after the report (`cbtree-trace timeline` replays these).
    records.extend(report.timeseries.iter().map(|p| p.to_json()));
    if !report.trace.is_empty() {
        records.push(report.trace.info_json());
        records.push(replay(&report.trace).to_json());
        records.extend(report.trace.events.iter().map(|e| e.to_json()));
    }
    cbtree_obs::write_jsonl(path, &records)
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// `report`, whose `live_report` record is `record`, as the human
/// summary.
fn print_report(cfg: &LiveConfig, report: &LiveReport, record: &Json) {
    println!(
        "live execution: {} | {} threads | capacity {} | {} initial items",
        cfg.protocol.name(),
        report.threads,
        cfg.capacity,
        cfg.initial_items
    );
    println!(
        "window {:.3} s | {} ops completed | throughput {:.0} ops/s",
        report.measured_time, report.completed, report.throughput
    );
    println!(
        "response time (us): search {:.2} ± {:.2} | insert {:.2} ± {:.2} | delete {:.2} ± {:.2} | mix mean {:.2}",
        us(report.resp_search.mean),
        us(report.resp_search.ci95),
        us(report.resp_insert.mean),
        us(report.resp_insert.ci95),
        us(report.resp_delete.mean),
        us(report.resp_delete.ci95),
        us(report.mean_response_time()),
    );
    println!(
        "latency quantiles (us): p50 {:.2} | p99 {:.2} | p999 {:.2}",
        report.latency.p50() as f64 / 1e3,
        report.latency.p99() as f64 / 1e3,
        report.latency.p999() as f64 / 1e3,
    );
    println!(
        "final height {} | final keys {}",
        report.levels.len(),
        report.final_len
    );
    let c = &report.counters;
    println!(
        "engine telemetry: {:.2} latches/op | restart rate {:.4} | chase rate {:.4} | peak latch chain {}",
        c.latches_per_op(),
        c.restart_rate(),
        c.chase_rate(),
        c.peak_chain,
    );
    if cfg.txn > 1 || c.txn_commits > 0 {
        println!(
            "transactions: size {} | {} commits | {} deadlock-avoidance spills",
            cfg.txn, c.txn_commits, c.txn_spills
        );
    }
    println!();
    const LEVELS: &[Column] = &[
        ("level", "level", 1.0, 0),
        ("nodes", "nodes", 1.0, 0),
        ("w-acq", "w_acquires", 1.0, 0),
        ("r-acq", "r_acquires", 1.0, 0),
        ("rho_w-hold", "rho_w_hold", 1.0, 4),
        ("w-wait(us)", "mean_w_wait", 1e6, 3),
        ("r-wait(us)", "mean_r_wait", 1e6, 3),
        ("w-cont", "stats.w_contention_rate", 1.0, 4),
    ];
    let levels = record.get("levels").and_then(Json::as_arr);
    let title = "per-level lock behavior (level 1 = leaves)";
    Table::project(title, LEVELS, levels.unwrap_or_default().iter().rev()).print();
    if !report.timeseries.is_empty() {
        println!(
            "timeseries: {} windows sampled (replay with `cbtree-trace timeline`)",
            report.timeseries.len()
        );
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

fn main() {
    let args = Flags::from_env(USAGE).parse_or_exit(parse_args);

    if let Some(n) = args.trace_buf {
        cbtree_obs::trace::set_default_ring_capacity(n);
        cbtree_obs::trace::enable(true);
    }

    match args.saturate {
        None => {
            let report = run(&args.cfg);
            let record = report.to_json();
            print_report(&args.cfg, &report, &record);
            if let Some(path) = &args.json {
                if let Err(e) = write_json(path, &args.cfg, &report, record) {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
                println!("wrote {}", path.display());
            }
        }
        Some(max_threads) => {
            println!(
                "saturation search: {} up to {max_threads} threads",
                args.cfg.protocol.name()
            );
            let runs = saturation_search(&args.cfg, max_threads);
            // Saturation mode: one meta record plus one report per
            // measured point (no event records — each point's trace
            // would dwarf the sweep).
            let mut records = vec![args.cfg.meta_json()];
            records.extend(runs.iter().map(|(_, r)| r.to_json()));
            const SATURATION: &[Column] = &[
                ("threads", "threads", 1.0, 0),
                ("ops/s", "throughput", 1.0, 0),
                ("mix-mean(us)", "latency.mean_s", 1e6, 2),
                ("root-rho_w-hold", "root_rho_w_hold", 1.0, 4),
            ];
            // A row is the point's record plus its root's hold-only ρ_w.
            let rows = runs.iter().map(|(_, r)| {
                let root = r
                    .levels
                    .last()
                    .map_or(Json::Null, |l| Json::f64_or_null(l.rho_w));
                r.to_json().with("root_rho_w_hold", root)
            });
            Table::project("saturation", SATURATION, &rows.collect::<Vec<_>>()).print();
            let best = runs.iter().reduce(|best, run| {
                if run.1.throughput > best.1.throughput {
                    run
                } else {
                    best
                }
            });
            if let Some((threads, report)) = best {
                println!(
                    "max sustainable throughput: {:.0} ops/s at {} threads",
                    report.throughput, threads
                );
            }
            if let Some(path) = &args.json {
                if let Err(e) = cbtree_obs::write_jsonl(path, &records) {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
                println!("wrote {}", path.display());
            }
        }
    }
}
