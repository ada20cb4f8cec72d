//! `cbtree-benchmark`: runs the suite (or one workload) and prints
//! every metric by name with its unit; the last line of standard
//! output is the result object the driver reads.

use cbtree_benchmark::{
    alloc, compare, run_workload, Opts, Outcome, END_TO_END, PER_LAYER, WORKLOADS,
};
use cbtree_obs::Json;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: cbtree-benchmark [--workload NAME] [--seed N] [--seconds N] \
[--trace [0|1]] [--quick] [--json-out PATH] [--record COMMIT] [--plant-wrong]\n       \
cbtree-benchmark --compare FIRST.jsonl SECOND.jsonl";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    plant_wrong: bool,
    json_out: Option<PathBuf>,
    record: Option<String>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        plant_wrong: false,
        json_out: None,
        record: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                a.workloads = vec![w];
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace 0|1` for the driver; bare `--trace` means 1.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => a.quick = true,
            "--plant-wrong" => a.plant_wrong = true,
            "--json-out" => a.json_out = Some(value("a path")?.into()),
            "--record" => a.record = Some(value("a commit id")?),
            "--compare" => {
                a.compare = Some((value("two paths")?.into(), value("two paths")?.into()))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome, table: &[(&str, &str)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.violations.is_empty())),
        ("attempted", out.attempted.max(1).into()),
        ("failed", out.failed.into()),
        (
            "metrics",
            Json::obj(table.iter().map(|(name, unit)| {
                let v = out.metrics.get(name).copied().unwrap_or(0.0);
                (
                    *name,
                    Json::obj([("value", Json::F64(v)), ("unit", (*unit).into())]),
                )
            })),
        ),
    ])
}

fn append_line(path: &std::path::Path, row: &Json) -> Result<(), String> {
    let line = row.to_string().map_err(|e| e.to_string())?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run(a: &Args) -> Result<bool, String> {
    if let Some((first, second)) = &a.compare {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let out = compare::compare(first, second, &compare::rules(&text)?)?;
        println!("{out} metric x workload pairs out of bound");
        return Ok(out == 0);
    }
    // `--seconds` is the measured time of a run, split over the
    // repetitions; `--quick` is for smoke use only.
    let reps = 3;
    let (warm, window) = if a.quick {
        (Duration::from_millis(100), Duration::from_millis(300))
    } else {
        (
            Duration::from_millis(500),
            Duration::from_secs_f64(a.seconds / reps as f64),
        )
    };
    let opts = Opts {
        seed: a.seed,
        reps,
        warm,
        window,
        plant_wrong: a.plant_wrong,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut all_correct = true;
    let mut history = Vec::new();
    for (i, w) in a.workloads.iter().enumerate() {
        let out = run_workload(w, &opts, a.trace);
        for (name, _) in table {
            if !a.trace && out.metrics.get(name).is_none_or(|v| *v <= 0.0) {
                return Err(format!("{w}: end-to-end metric {name} was not measured"));
            }
        }
        println!(
            "== {w} (seed {}, {} busy threads of {nproc}) ==",
            a.seed,
            cbtree_benchmark::THREADS
        );
        for note in &out.notes {
            println!("  {note}");
        }
        for (name, unit) in table {
            println!(
                "  {name:<28} {:>16.4} {unit}",
                out.metrics.get(name).copied().unwrap_or(0.0)
            );
        }
        println!("  {:<28} {:>16}", "ops_attempted", out.attempted);
        println!("  {:<28} {:>16}", "ops_failed", out.failed);
        for v in &out.violations {
            println!("  VIOLATION: {v}");
        }
        all_correct &= out.violations.is_empty();
        let result = result_json(&out, table);
        if let Some(path) = &a.json_out {
            let Json::Obj(mut fields) = result.clone() else {
                unreachable!()
            };
            fields.insert(0, ("workload".to_string(), w.as_str().into()));
            append_line(path, &Json::Obj(fields))?;
        }
        history.push((
            w.as_str(),
            result.get("metrics").cloned().unwrap_or(Json::Null),
        ));
        // The result object is the last line of a single-workload run.
        if i + 1 == a.workloads.len() {
            println!("{}", result.to_string().map_err(|e| e.to_string())?);
        }
    }
    if let Some(commit) = &a.record {
        let row = Json::obj([
            ("commit", commit.as_str().into()),
            ("trace", Json::Bool(a.trace)),
            ("seed", a.seed.into()),
            ("seconds", Json::F64(a.seconds)),
            ("nproc", nproc.into()),
            ("workloads", Json::obj(history)),
        ]);
        append_line(std::path::Path::new("benchmark/history.jsonl"), &row)?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
