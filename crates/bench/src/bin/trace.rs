//! `cbtree-trace`: offline analyzer for `live --json` run artifacts.
//!
//! Reads the JSONL records a traced live run wrote (meta, live_report,
//! trace_info, and per-event records), replays the event stream into
//! per-level statistics, re-evaluates the analytical model and the
//! discrete-event simulator at the run's measured arrival rate, and
//! prints the four-pillar comparison per level:
//!
//! ```text
//! cargo run --release -p cbtree-bench --bin cbtree-trace -- results/run-blink.jsonl
//! ```
//!
//! Every pillar reports a level as the same `LevelRecord`, in seconds.
//! Its `rho_w` is *presence* (a writer holds **or waits for** the latch),
//! which the analysis, the simulator and the trace fill; `rho_w_hold`
//! counts holds only, which the live lock counters and the trace fill.

use cbtree_bench::pillars;
use cbtree_btree::Protocol;
use cbtree_btree_model::OpMix;
use cbtree_obs::event::Event;
use cbtree_obs::table::{fmt_f, Column, Table};
use cbtree_obs::{replay, Json, LevelRecord, Replay, Trace};
use cbtree_serve::slo_line;
use cbtree_sim::SimReport;
use cbtree_workload::cli::Flags;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: cbtree-trace [options] FILE...
       cbtree-trace timeline [--expect-spike] FILE...

Analyzes JSONL run artifacts written by `live --json`.

  --json PATH     write the comparison as JSONL records
  --timeline N    print the first N trace events as a latch timeline
  --sim-seed N    simulator seed for the cross-check (default 1)
  -h, --help      print this help

The `timeline` subcommand replays the continuous time series a
sampler-enabled run wrote (`serve`/`live` with --sample-interval-ms):
it prints the per-window table per measured lambda and flags windows
where a split burst co-occurs with a p99 spike (p99 at least 1.5x the
trailing median of the preceding non-empty windows while the split rate
is at least half the run's mean). With --expect-spike it exits nonzero
unless at least one window is flagged (CI guard).
";

#[derive(Default)]
struct Args {
    files: Vec<PathBuf>,
    json: Option<PathBuf>,
    timeline: usize,
    sim_seed: u64,
    expect_spike: bool,
}

/// Parses either command form; `timeline_cmd` selects which flags exist.
fn parse_args(flags: &mut Flags, timeline_cmd: bool) -> Result<Args, String> {
    let mut args = Args {
        sim_seed: 1,
        ..Args::default()
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--expect-spike" if timeline_cmd => args.expect_spike = true,
            "--json" if !timeline_cmd => args.json = Some(flags.value()?),
            "--timeline" if !timeline_cmd => args.timeline = flags.value()?,
            "--sim-seed" if !timeline_cmd => args.sim_seed = flags.value()?,
            other if other.starts_with('-') => return Err(flags.unknown()),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if args.files.is_empty() {
        return Err("no input files".into());
    }
    Ok(args)
}

/// The parsed pieces of one run artifact.
struct RunArtifact {
    protocol: Protocol,
    capacity: usize,
    initial_items: u64,
    mix: (f64, f64, f64),
    keyspace: u64,
    txn: u64,
    threads: u64,
    report: Json,
    trace: Option<Trace>,
}

fn f64_field(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn u64_field(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The array at `key`, empty when absent or null.
fn array<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    j.get(key).and_then(Json::as_arr).unwrap_or_default()
}

fn load(path: &Path) -> Result<RunArtifact, String> {
    let records = cbtree_obs::read_jsonl(path)?;
    let of_type = |t: &str| {
        records
            .iter()
            .find(|r| r.get("type").and_then(Json::as_str) == Some(t))
    };
    let meta = of_type("meta").ok_or("no meta record")?;
    if meta.get("kind").and_then(Json::as_str) != Some("live_run") {
        return Err("meta record is not a live_run".into());
    }
    let report = of_type("live_report")
        .ok_or("no live_report record")?
        .clone();
    let mix = meta
        .get("mix")
        .and_then(Json::as_arr)
        .filter(|m| m.len() == 3)
        .ok_or("meta mix is not a 3-array")?;
    let events: Vec<Event> = records
        .iter()
        .filter(|r| r.get("type").and_then(Json::as_str) == Some("event"))
        .map(Event::from_json)
        .collect::<Result<_, _>>()?;
    let trace = (!events.is_empty()).then(|| {
        let info = of_type("trace_info");
        Trace {
            events,
            dropped: info.map_or(0, |i| u64_field(i, "dropped")),
            threads: info.map_or(0, |i| u64_field(i, "threads") as u32),
        }
    });
    Ok(RunArtifact {
        protocol: meta
            .get("protocol")
            .and_then(Json::as_str)
            .ok_or("meta has no protocol")?
            .parse()?,
        capacity: u64_field(meta, "capacity") as usize,
        initial_items: u64_field(meta, "initial_items"),
        mix: (
            mix[0].as_f64().unwrap_or(f64::NAN),
            mix[1].as_f64().unwrap_or(f64::NAN),
            mix[2].as_f64().unwrap_or(f64::NAN),
        ),
        keyspace: u64_field(meta, "keyspace").max(1),
        txn: u64_field(meta, "txn").max(1),
        threads: u64_field(meta, "threads"),
        report,
        trace,
    })
}

/// The `trace_compare` record of one artifact — per level, each pillar's
/// record in seconds (null where a pillar has no such level); the
/// engine's event rates, counters beside trace — and the replayed trace.
fn compare(
    path: &Path,
    run: &RunArtifact,
    sim_seed: u64,
) -> Result<(Json, Option<Replay>), String> {
    let mix = OpMix::new(run.mix.0, run.mix.1, run.mix.2).map_err(|e| e.to_string())?;
    let base_cfg = pillars::memory_resident(run.initial_items.max(1), run.capacity, mix)?;
    let height = base_cfg.height();

    // Calibration: one model cost unit in wall-clock seconds, fixed by
    // this run's own mean search response time against the zero-load
    // link-type path. Contention inflates the numerator, so under load
    // this over-estimates the unit — good enough to place the measured
    // throughput on the model's λ axis, rougher than `analyze --live`'s
    // dedicated single-threaded calibration run.
    let zero = pillars::zero_load(&base_cfg)?;
    let resp_search = run
        .report
        .get("resp_search")
        .map(|s| f64_field(s, "mean"))
        .unwrap_or(f64::NAN);
    if !resp_search.is_finite() || resp_search <= 0.0 {
        return Err("live_report has no usable resp_search.mean".into());
    }
    let unit_secs = resp_search / zero.response_time_search;
    let throughput = f64_field(&run.report, "throughput");
    let lambda = throughput * unit_secs;
    let t_trans = run.txn as f64 * zero.response_time_insert;
    let cfg = base_cfg.with_recovery(run.protocol.policy().txn, t_trans);

    let (perf, sim) = pillars::evaluate(run.protocol, &cfg, run.keyspace, lambda, &[sim_seed]);
    let sim = sim.ok().and_then(|s| s.runs.into_iter().next());

    let replayed = run.trace.as_ref().map(replay);
    let anl = perf.as_ref().map(pillars::analysis_levels);
    let live = array(&run.report, "levels").iter();
    let trc = replayed.as_ref().map_or(vec![], |r| r.levels.clone());
    // Every pillar's per-level records, in seconds.
    let in_secs = |ls: &[LevelRecord]| ls.iter().map(|l| l.in_seconds(unit_secs)).collect();
    let pillars: [(&str, Vec<LevelRecord>); 4] = [
        ("anl", in_secs(anl.as_deref().unwrap_or_default())),
        ("sim", in_secs(sim.as_ref().map_or(&[], |s| &s.levels))),
        (
            "live",
            live.map(LevelRecord::from_json).collect::<Result<_, _>>()?,
        ),
        ("trace", trc),
    ];
    let n_levels = pillars
        .iter()
        .flat_map(|(_, ls)| ls.iter().map(|l| l.level));
    let levels = (1..=n_levels.fold(height, usize::max)).map(|level| {
        let row = Json::obj([("level", level.into())]);
        pillars.iter().fold(row, |row, (pillar, records)| {
            let record = records.iter().find(|r| r.level == level);
            row.with(pillar, record.map_or(Json::Null, LevelRecord::to_json))
        })
    });

    let counters = run.report.get("counters").cloned().unwrap_or(Json::Null);
    let ops = u64_field(&counters, "ops").max(1) as f64;
    let rate = |key: &str| u64_field(&counters, key) as f64 / ops;
    let trc_rate = |f: fn(&Replay) -> u64| {
        replayed.as_ref().map(|r| {
            let completed: u64 = r.ops.iter().map(|o| o.completed).sum();
            f(r) as f64 / completed.max(1) as f64
        })
    };
    let rates = [
        rates_json("restart rate", rate("restarts"), trc_rate(|r| r.restarts)),
        rates_json("chase rate", rate("chases"), trc_rate(|r| r.chases)),
        rates_json(
            "peak latch chain",
            u64_field(&counters, "peak_chain") as f64,
            replayed.as_ref().map(|r| r.peak_latch_chain as f64),
        ),
        rates_json(
            "txn commits",
            u64_field(&counters, "txn_commits") as f64,
            replayed.as_ref().map(|r| r.txn_commits as f64),
        ),
        rates_json(
            "txn spills",
            u64_field(&counters, "txn_spills") as f64,
            replayed.as_ref().map(|r| r.txn_spills as f64),
        ),
    ];
    let record = Json::obj(vec![
        ("type", "trace_compare".into()),
        ("file", path.display().to_string().into()),
        ("protocol", run.protocol.name().into()),
        ("lambda", Json::f64_or_null(lambda)),
        ("unit_secs", Json::f64_or_null(unit_secs)),
        ("levels", Json::arr(levels)),
        ("rates", Json::arr(rates)),
        (
            "trace_summary",
            replayed.as_ref().map_or(Json::Null, Replay::to_json),
        ),
        (
            "sim_report",
            sim.as_ref().map_or(Json::Null, SimReport::to_json),
        ),
    ]);
    Ok((record, replayed))
}

fn rates_json(label: &str, live: f64, trace: Option<f64>) -> Json {
    Json::obj(vec![
        ("metric", label.into()),
        ("live", Json::f64_or_null(live)),
        ("trace", trace.map_or(Json::Null, Json::f64_or_null)),
    ])
}

fn print_timeline(trace: &Trace, n: usize) {
    let mut t = Table::new(
        "latch timeline (first events of the measured window)",
        &["ts(us)", "thread", "event", "arg", "level", "node"],
    );
    for e in trace.events.iter().take(n) {
        t.push(vec![
            fmt_f(e.ts_ns as f64 / 1e3, 3),
            e.thread.to_string(),
            e.kind.name().to_string(),
            e.arg.to_string(),
            e.level.to_string(),
            format!("{:#x}", e.node),
        ]);
    }
    t.print();
}

fn analyze_file(path: &Path, args: &Args, records: &mut Vec<Json>) -> Result<(), String> {
    let run = load(path)?;
    let (record, replayed) = compare(path, &run, args.sim_seed)?;

    println!(
        "{}: {} | {} threads | capacity {} | {} initial items | txn {}",
        path.display(),
        run.protocol.name(),
        run.threads,
        run.capacity,
        run.initial_items,
        run.txn,
    );
    println!(
        "calibration: 1 cost unit = {:.0} ns (from this run's searches) | λ = {:.4} ops/unit",
        f64_field(&record, "unit_secs") * 1e9,
        f64_field(&record, "lambda")
    );
    match &replayed {
        Some(r) => println!(
            "trace: {:.1} ms window, {} unmatched, {} dropped",
            r.window_ns() as f64 / 1e6,
            r.unmatched,
            r.dropped
        ),
        None => println!("trace: no event records (run without --trace-buf?)"),
    }

    let levels = array(&record, "levels");
    const RHO_W: &[Column] = &[
        ("level", "level", 1.0, 0),
        ("anl", "anl.rho_w", 1.0, 4),
        ("sim", "sim.rho_w", 1.0, 4),
        ("trc", "trace.rho_w", 1.0, 4),
        ("live-hold", "live.rho_w_hold", 1.0, 4),
        ("trc-hold", "trace.rho_w_hold", 1.0, 4),
    ];
    let title = "per-level writer utilization rho_w (level 1 = leaves)";
    Table::project(title, RHO_W, levels.iter().rev()).print();
    println!("(rho_w counts queued writers as present; the -hold columns count holds only)");
    const WAIT: &[Column] = &[
        ("level", "level", 1.0, 0),
        ("anl", "anl.mean_w_wait", 1e9, 0),
        ("sim", "sim.mean_w_wait", 1e9, 0),
        ("live", "live.mean_w_wait", 1e9, 0),
        ("trc", "trace.mean_w_wait", 1e9, 0),
    ];
    let title = "per-level mean exclusive wait (ns)";
    Table::project(title, WAIT, levels.iter().rev()).print();
    const RATES: &[Column] = &[
        ("metric", "metric", 1.0, 0),
        ("live", "live", 1.0, 4),
        ("trc", "trace", 1.0, 4),
    ];
    let title = "engine events: counters vs trace";
    Table::project(title, RATES, array(&record, "rates")).print();
    let batches = record
        .get("trace_summary")
        .map_or(&[][..], |s| array(s, "batches"));
    if !batches.is_empty() {
        const BATCHES: &[Column] = &[
            ("shard", "shard", 1.0, 0),
            ("batches", "batches", 1.0, 0),
            ("ops", "ops", 1.0, 0),
            ("mean-size", "mean_size", 1.0, 2),
            ("max", "max_size", 1.0, 0),
            ("reuse%", "reuse_rate", 100.0, 1),
            ("mean-us", "mean_ns", 1e-3, 1),
        ];
        let title = "per-shard batched execution (from trace)";
        Table::project(title, BATCHES, batches).print();
    }

    if let (Some(trace), true) = (&run.trace, args.timeline > 0) {
        print_timeline(trace, args.timeline);
    }
    println!();
    records.push(record);
    Ok(())
}

/// How many preceding non-empty windows the spike detector's trailing
/// median looks back over.
const SPIKE_BASELINE_WINDOWS: usize = 5;
/// A window's p99 must be at least this multiple of the trailing median
/// to count as a spike.
const SPIKE_P99_FACTOR: f64 = 1.5;

/// Median of a non-empty slice (mean of the middle pair when even).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The per-window SMO-spike detector: window `i` is flagged when its
/// p99 is at least [`SPIKE_P99_FACTOR`] times the trailing median of up
/// to [`SPIKE_BASELINE_WINDOWS`] preceding non-empty windows *and* its
/// split rate is at least half the run's mean split rate (so a latency
/// spike with no SMO activity — a scheduling hiccup — is not blamed on
/// splits). Returns one flag per window. Separated from printing so it
/// is unit-testable.
fn smo_spike_flags(p99s: &[f64], splits_per_s: &[f64]) -> Vec<bool> {
    let active: Vec<f64> = splits_per_s
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .collect();
    let mean_splits = if active.is_empty() {
        0.0
    } else {
        active.iter().sum::<f64>() / active.len() as f64
    };
    let split_floor = (0.5 * mean_splits).max(1.0);
    let mut flags = vec![false; p99s.len()];
    let mut trailing: Vec<f64> = Vec::new();
    for (i, &p99) in p99s.iter().enumerate() {
        if p99 > 0.0 && !trailing.is_empty() {
            let mut window = trailing.clone();
            let baseline = median(&mut window);
            if baseline > 0.0
                && p99 >= SPIKE_P99_FACTOR * baseline
                && splits_per_s[i] >= split_floor
            {
                flags[i] = true;
            }
        }
        if p99 > 0.0 {
            trailing.push(p99);
            if trailing.len() > SPIKE_BASELINE_WINDOWS {
                trailing.remove(0);
            }
        }
    }
    flags
}

/// Replays one artifact's timeseries records: prints the per-window
/// table per lambda group and returns the number of flagged windows.
fn timeline_file(path: &Path) -> Result<usize, String> {
    let records = cbtree_obs::read_jsonl(path)?;
    // Consecutive points with the same lambda form one group (a sweep
    // writes each measurement's windows contiguously; live points have
    // no lambda and fall into one group).
    let mut groups: Vec<(Option<f64>, Vec<&Json>)> = Vec::new();
    for r in &records {
        if r.get("type").and_then(Json::as_str) != Some("timeseries") {
            continue;
        }
        let lambda = r.get("lambda").and_then(Json::as_f64);
        match groups.last_mut() {
            Some((l, points)) if *l == lambda => points.push(r),
            _ => groups.push((lambda, vec![r])),
        }
    }
    if groups.is_empty() {
        return Err(
            "no timeseries records (run serve/live with --sample-interval-ms and --json)".into(),
        );
    }

    let mut spikes_total = 0usize;
    for (lambda, points) in &groups {
        match lambda {
            Some(l) => println!(
                "{}: lambda {:.0}, {} windows",
                path.display(),
                l,
                points.len()
            ),
            None => println!("{}: {} windows", path.display(), points.len()),
        }
        // Serve points carry sojourn quantiles; live points carry
        // latency quantiles. Either way the detector sees the windowed
        // p99 in nanoseconds.
        let (n, p99, max) = if points[0].get("sojourn_n").is_some() {
            ("sojourn_n", "sojourn_p99_ns", "sojourn_max_ns")
        } else {
            ("n", "latency_p99_ns", "latency_max_ns")
        };
        let p99s: Vec<f64> = points.iter().map(|p| u64_field(p, p99) as f64).collect();
        let splits: Vec<f64> = points
            .iter()
            .map(|p| f64_field(p, "splits_per_s"))
            .collect();
        let flags = smo_spike_flags(&p99s, &splits);

        // A row is the window's record plus the two verdicts the
        // timeline derives from it.
        let rows: Vec<Json> = points
            .iter()
            .zip(&flags)
            .map(|(p, &spike)| {
                let slo = match p.get("slo_burning").and_then(Json::as_bool) {
                    Some(true) => "BURN".into(),
                    Some(false) => "ok".into(),
                    None => Json::Null,
                };
                let spike = if spike { "SPIKE" } else { "" };
                (*p).clone()
                    .with("slo", slo)
                    .with("smo_spike", spike.into())
            })
            .collect();
        let columns = [
            ("t(s)", "t_s", 1.0, 3),
            ("n", n, 1.0, 0),
            ("p99(us)", p99, 1e-3, 1),
            ("max(us)", max, 1e-3, 1),
            ("splits/s", "splits_per_s", 1.0, 1),
            ("chases/s", "chases_per_s", 1.0, 1),
            ("served/s", "completed_rate", 1.0, 0),
            // Only serve windows see a queue.
            ("shed%", "?shed_rate", 100.0, 1),
            ("q", "?queue_depth", 1.0, 0),
            ("q-hwm", "?queue_depth_hwm", 1.0, 0),
            ("slo", "slo", 1.0, 0),
            ("smo-spike", "smo_spike", 1.0, 0),
        ];
        let title = "continuous time series (per sampler window)";
        Table::project(title, &columns, &rows).print();

        let spikes = flags.iter().filter(|&&f| f).count();
        spikes_total += spikes;
        println!(
            "{} window(s) where a split burst co-occurs with a p99 spike",
            spikes
        );
        // The matching serve_report (if present) carries the SLO burn
        // monitor's verdict for this lambda.
        let report = records.iter().find(|r| {
            r.get("type").and_then(Json::as_str) == Some("serve_report")
                && r.get("lambda").and_then(Json::as_f64) == *lambda
        });
        if let Some(slo) = report.and_then(|r| r.get("slo")).filter(|s| !s.is_null()) {
            println!("{}", slo_line(slo));
        }
        println!();
    }
    Ok(spikes_total)
}

fn run_timeline() -> ExitCode {
    let args = Flags::new(USAGE, std::env::args().skip(2)).parse_or_exit(|f| parse_args(f, true));
    let mut spikes = 0usize;
    let mut failed = false;
    for path in &args.files {
        match timeline_file(path) {
            Ok(n) => spikes += n,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    if args.expect_spike && spikes == 0 {
        eprintln!("error: --expect-spike: no SMO-correlated p99 spike window found");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("timeline") {
        return run_timeline();
    }
    let args = Flags::from_env(USAGE).parse_or_exit(|f| parse_args(f, false));
    let mut records = vec![Json::obj(vec![
        ("type", "meta".into()),
        ("schema", cbtree_obs::SCHEMA_VERSION.into()),
        ("kind", "trace_compare".into()),
    ])];
    let mut failed = false;
    for path in &args.files {
        if let Err(e) = analyze_file(path, &args, &mut records) {
            eprintln!("error: {}: {e}", path.display());
            failed = true;
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = cbtree_obs::write_jsonl(path, &records) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_needs_both_p99_jump_and_split_activity() {
        // Overload ramp: p99 keeps doubling while splits stay hot — the
        // jump windows are flagged, the flattening one is not.
        let p99 = [10.0, 25.0, 60.0, 30.0];
        let splits = [100.0, 100.0, 100.0, 100.0];
        assert_eq!(
            smo_spike_flags(&p99, &splits),
            vec![false, true, true, false]
        );
        // The same latency shape with no SMO activity (a scheduling
        // hiccup, not a split burst) is never blamed on splits.
        let idle = [0.0, 0.0, 0.0, 0.0];
        assert!(smo_spike_flags(&p99, &idle).iter().all(|f| !f));
        // The first window can never spike: there is no baseline yet.
        assert_eq!(smo_spike_flags(&[1e9], &[100.0]), vec![false]);
    }

    #[test]
    fn empty_windows_do_not_poison_the_baseline() {
        // Windows that served nothing (p99 = 0) are skipped by the
        // trailing median, not treated as a zero baseline.
        let p99 = [10.0, 0.0, 0.0, 30.0];
        let splits = [10.0, 0.0, 0.0, 10.0];
        assert_eq!(
            smo_spike_flags(&p99, &splits),
            vec![false, false, false, true]
        );
    }

    #[test]
    fn trailing_median_looks_back_a_bounded_window() {
        // Seven flat windows, then a 2x jump: the median sees only the
        // last SPIKE_BASELINE_WINDOWS values, so early history cannot
        // dilute the baseline.
        let mut p99 = vec![100.0; 7];
        p99.push(200.0);
        let splits = vec![50.0; 8];
        let flags = smo_spike_flags(&p99, &splits);
        assert!(flags[7], "a 2x jump over a flat baseline must flag");
        assert!(flags[..7].iter().all(|f| !f));
    }

    #[test]
    fn median_handles_even_and_odd_lengths() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }
}
