//! What `serve --json` writes: the record types and their top-level
//! field names, single run and sweep, and the fields of their per-level
//! entries. Scripts read these artifacts and
//! EXPERIMENTS.md quotes them, so the sets below are the contract; the
//! human tables are projections of the same records. Values are not
//! compared.

use cbtree_obs::{Json, LevelRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Record `type` → the top-level field names its records carry, and
/// `type.levels` (`serve_report.shards_detail.levels` for a shard's) →
/// the field names of its `levels` entries.
fn shapes(path: &std::path::Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut got: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut add = |key: String, obj: &Json| {
        let Json::Obj(fields) = obj else {
            panic!("{key} is not an object: {obj:?}")
        };
        let names = fields.iter().map(|(k, _)| k.clone());
        got.entry(key).or_default().extend(names);
    };
    let array = |j: &Json, key: &str| {
        j.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    for rec in cbtree_obs::read_jsonl(path).expect("readable JSONL") {
        let ty = rec.get("type").and_then(Json::as_str).expect("typed");
        add(ty.to_string(), &rec);
        for l in array(&rec, "levels") {
            add(format!("{ty}.levels"), &l);
        }
        for shard in array(&rec, "shards_detail") {
            for l in array(&shard, "levels") {
                add(format!("{ty}.shards_detail.levels"), &l);
            }
        }
    }
    got
}

#[test]
fn serve_json_writes_the_same_records() {
    let meta = "meta: type schema kind protocol shards workers_per_shard batch_max generators \
                arrivals service_floor_us queue_capacity max_enqueue_age_ms capacity \
                initial_items mix keyspace key_dist seed warmup_ms measure_ms \
                sample_interval_ms slo_p99_us";
    let report = "serve_report: type lambda shards workers_per_shard batch_max generators \
                  measured_time offered served rejected_full timed_out offered_rate \
                  achieved_rate shed_rate sojourn sojourn_mean_s shards_detail \
                  timeseries_windows slo trace_events trace_dropped";
    let window = "timeseries: type lambda t_s window_s offered_rate accepted_rate \
                  completed_rate shed_rate queue_depth queue_depth_hwm levels sojourn_n \
                  sojourn_p50_ns sojourn_p99_ns sojourn_max_ns mean_batch splits_per_s \
                  chases_per_s slo_burning shards";
    let info = "trace_info: type events dropped threads";
    let summary = "trace_summary: type window_start_ns window_end_ns levels ops restarts \
                   chases splits mean_split_ns txn_commits txn_spills peak_latch_chain \
                   unmatched dropped enqueues dequeues sheds batches";
    let event = "event: type ts thr k a lvl node";
    // The level record's own field set, pinned in `cbtree-obs`.
    let Json::Obj(fields) = LevelRecord::default().to_json() else {
        unreachable!()
    };
    let record: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let record = record.join(" ");
    let shard_levels = &format!("serve_report.shards_detail.levels: {record} stats");
    let window_levels = &format!("timeseries.levels: {record}");
    let trace_levels = &format!("trace_summary.levels: {record}");
    let cases: [(&[&str], &[&str]); 3] = [
        (&["--lambda", "2000"], &[meta, report, shard_levels]),
        (
            &["--sweep", "1000,2000", "--sample-interval-ms", "20"],
            &[meta, report, shard_levels, window, window_levels],
        ),
        (
            &["--lambda", "2000", "--trace-buf", "4096"],
            &[
                meta,
                report,
                shard_levels,
                info,
                summary,
                trace_levels,
                event,
            ],
        ),
    ];
    let out =
        std::env::temp_dir().join(format!("cbtree-serve-shapes-{}.jsonl", std::process::id()));
    for (mode, want) in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--shards", "2", "--generators", "1", "--items", "2000"])
            .args(["--warmup-ms", "20", "--measure-ms", "100"])
            .args(mode)
            .arg("--json")
            .arg(&out)
            .output()
            .expect("spawn serve");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{mode:?}: {stderr}");
        let want: BTreeMap<String, BTreeSet<String>> = want
            .iter()
            .map(|line| line.split_once(": ").unwrap())
            .map(|(ty, f)| (ty.into(), f.split_whitespace().map(String::from).collect()))
            .collect();
        assert_eq!(shapes(&out), want, "{mode:?}");
    }
    std::fs::remove_file(out).ok();
}
