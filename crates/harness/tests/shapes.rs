//! What `live --json` writes: the record types and their top-level field
//! names, single run and saturation search. `cbtree-trace` and scripts
//! read these artifacts, so the sets below are the contract; the human
//! tables are projections of the same records. Values are not compared.

use cbtree_obs::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Record `type` → the top-level field names its records carry. The
/// trace records (`trace_info`, `trace_summary`, `event`) appear only
/// with the `trace` feature and are the obs crate's shapes, not live's.
fn shapes(path: &std::path::Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut got: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for rec in cbtree_obs::read_jsonl(path).expect("readable JSONL") {
        let Json::Obj(fields) = &rec else {
            panic!("record is not an object: {rec:?}")
        };
        let ty = rec.get("type").and_then(Json::as_str).expect("typed");
        if !matches!(ty, "trace_info" | "trace_summary" | "event") {
            let names = fields.iter().map(|(k, _)| k.clone());
            got.entry(ty.to_string()).or_default().extend(names);
        }
    }
    got
}

#[test]
fn live_json_writes_the_same_records() {
    let meta = "meta: type schema kind protocol threads capacity initial_items mix keyspace \
                key_dist seed txn warmup_ms measure_ms sample_interval_ms";
    let report = "live_report: type threads throughput completed measured_time resp_search \
                  resp_insert resp_delete wait_w_by_level wait_r_by_level \
                  root_writer_utilization counters latency levels final_height final_len \
                  timeseries_windows trace_events trace_dropped";
    let out = std::env::temp_dir().join(format!("cbtree-live-shapes-{}.jsonl", std::process::id()));
    for mode in [["--threads", "2"], ["--saturate", "2"]] {
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
        let want: BTreeMap<String, BTreeSet<String>> = [meta, report]
            .iter()
            .map(|line| line.split_once(": ").unwrap())
            .map(|(ty, f)| (ty.into(), f.split_whitespace().map(String::from).collect()))
            .collect();
        assert_eq!(shapes(&out), want, "{mode:?}");
    }
    std::fs::remove_file(out).ok();
}
