//! What `live --json` writes: the record types and their top-level field
//! names, single run and saturation search, and the fields of their
//! per-level entries. `cbtree-trace` and scripts read these artifacts,
//! so the sets below are the contract; the human tables are projections
//! of the same records. Values are not compared.

use cbtree_obs::{Json, LevelRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Record `type` → the top-level field names its records carry, and
/// `type.levels` → the field names of its `levels` entries.
fn shapes(path: &std::path::Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut got: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut add = |key: String, obj: &Json| {
        let Json::Obj(fields) = obj else {
            panic!("{key} is not an object: {obj:?}")
        };
        let names = fields.iter().map(|(k, _)| k.clone());
        got.entry(key).or_default().extend(names);
    };
    for rec in cbtree_obs::read_jsonl(path).expect("readable JSONL") {
        let ty = rec.get("type").and_then(Json::as_str).expect("typed");
        add(ty.to_string(), &rec);
        let levels = rec.get("levels").and_then(Json::as_arr).unwrap_or_default();
        levels.iter().for_each(|l| add(format!("{ty}.levels"), l));
    }
    got
}

#[test]
fn live_json_writes_the_same_records() {
    let meta = "meta: type schema kind protocol threads capacity initial_items mix keyspace \
                key_dist seed txn warmup_ms measure_ms sample_interval_ms";
    let report = "live_report: type threads throughput completed measured_time resp_search \
                  resp_insert resp_delete counters latency levels final_height final_len \
                  timeseries_windows trace_events trace_dropped";
    // The level record's own field set, pinned in `cbtree-obs`.
    let Json::Obj(fields) = LevelRecord::default().to_json() else {
        unreachable!()
    };
    let record: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let record = record.join(" ");
    let live_levels = &format!("live_report.levels: {record} stats");
    let trace_levels = &format!("trace_summary.levels: {record}");
    let info = "trace_info: type events dropped threads";
    let summary = "trace_summary: type window_start_ns window_end_ns levels ops restarts \
                   chases splits mean_split_ns txn_commits txn_spills peak_latch_chain \
                   unmatched dropped enqueues dequeues sheds batches";
    let event = "event: type ts thr k a lvl node";
    let cases: [(&[&str], &[&str]); 3] = [
        (&["--threads", "2"], &[meta, report, live_levels]),
        (&["--saturate", "2"], &[meta, report, live_levels]),
        (
            &["--threads", "2", "--trace-buf", "4096"],
            &[
                meta,
                report,
                live_levels,
                info,
                summary,
                trace_levels,
                event,
            ],
        ),
    ];
    let out = std::env::temp_dir().join(format!("cbtree-live-shapes-{}.jsonl", std::process::id()));
    for (mode, want) in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_live"))
            .args(["--items", "2000", "--capacity", "16"])
            .args(["--warmup-ms", "20", "--measure-ms", "60"])
            .args(mode)
            .arg("--json")
            .arg(&out)
            .output()
            .expect("spawn live");
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
