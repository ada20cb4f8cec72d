//! What `serve --json` writes: the record types and their top-level
//! field names, single run and sweep. Scripts read these artifacts and
//! EXPERIMENTS.md quotes them, so the sets below are the contract; the
//! human tables are projections of the same records. Values are not
//! compared.

use cbtree_obs::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Record `type` → the top-level field names its records carry.
fn shapes(path: &std::path::Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut got: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for rec in cbtree_obs::read_jsonl(path).expect("readable JSONL") {
        let Json::Obj(fields) = &rec else {
            panic!("record is not an object: {rec:?}")
        };
        let ty = rec.get("type").and_then(Json::as_str).expect("typed");
        let names = fields.iter().map(|(k, _)| k.clone());
        got.entry(ty.to_string()).or_default().extend(names);
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
                  completed_rate shed_rate queue_depth queue_depth_hwm rho_w_levels sojourn_n \
                  sojourn_p50_ns sojourn_p99_ns sojourn_max_ns mean_batch splits_per_s \
                  chases_per_s slo_burning shards";
    let info = "trace_info: type events dropped threads";
    let summary = "trace_summary: type window_start_ns window_end_ns levels ops restarts \
                   chases splits mean_split_ns txn_commits txn_spills peak_latch_chain \
                   unmatched dropped enqueues dequeues sheds batches";
    let event = "event: type ts thr k a lvl node";
    let cases: [(&[&str], &[&str]); 3] = [
        (&["--lambda", "2000"], &[meta, report]),
        (
            &["--sweep", "1000,2000", "--sample-interval-ms", "20"],
            &[meta, report, window],
        ),
        (
            &["--lambda", "2000", "--trace-buf", "4096"],
            &[meta, report, info, summary, event],
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
