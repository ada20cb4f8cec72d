//! `analyze` argument handling through the shared flag table.

/// `--mix 0.3,x,0.5,0.2` used to be accepted as `0.30/0.50/0.20` (the
/// unparsable component was silently dropped); it is an error, as in
/// `live` and `serve`.
#[test]
fn analyze_rejects_a_malformed_mix_with_exit_code_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--mix", "0.3,x,0.5,0.2"])
        .output()
        .expect("spawn analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: --mix "), "{stderr}");
}

use cbtree_obs::{Json, LevelRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

/// Record `type` → the top-level field names its records carry.
type Shapes = BTreeMap<String, BTreeSet<String>>;

/// `analyze --verify`, `analyze --live` and `cbtree-trace` share one
/// evaluation routine; what each writes is read by scripts and quoted in
/// EXPERIMENTS.md, so the record types and field names below are the
/// contract: top level, and in a `trace_compare` row, one key per pillar
/// whose value is a level record. Values are not compared.
#[test]
fn pillar_comparisons_write_the_same_records() {
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("cbtree-bench-cli-{}-{name}", std::process::id()))
    };
    // What `live --json` writes for an untraced run: meta, then report.
    let mut cfg = cbtree_harness::LiveConfig::quick(cbtree_btree::Protocol::RecoveryLeaf, 2);
    cfg.measure = std::time::Duration::from_millis(60);
    let report = cbtree_harness::run(&cfg);
    let artifact = tmp("run.jsonl");
    cbtree_obs::write_jsonl(&artifact, &[cfg.meta_json(), report.to_json()]).unwrap();
    let artifact = artifact.to_str().unwrap();

    let (analyze, trace) = (
        env!("CARGO_BIN_EXE_analyze"),
        env!("CARGO_BIN_EXE_cbtree-trace"),
    );
    let tiny = ["--items", "2000", "--node-size", "16"];
    // A pillar's entry in a row is a record, or null where that pillar
    // has no such level (or, for the analysis, saturates); every record
    // lands under one key. The live pillar fills at least one level.
    // The level record's own field set, pinned in `cbtree-obs`.
    let Json::Obj(fields) = LevelRecord::default().to_json() else {
        unreachable!()
    };
    let record: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let record = record.join(" ");
    let pillar_levels = &format!("trace_compare.levels.*: {record}");
    let meta = "meta: type schema kind items node_size height mix disk_cost memory_levels \
                buffer_nodes rate recovery t_trans";
    let point = "analysis_point: type algorithm max_throughput eff_max_rho_half lambda \
                 saturated search_rt insert_rt rho_root";
    let cases: [(&str, &[&str], &[&str]); 3] = [
        (
            analyze,
            &["--rate", "0.2", "--verify"],
            &[
                meta,
                point,
                "recommendation: type lambda algorithm",
                "sim_check: type algorithm lambda resp_search resp_insert",
            ],
        ),
        (
            analyze,
            &["--live", "--live-threads", "2"],
            &[
                meta,
                point,
                "live_compare: type protocol live_throughput lambda unit_secs anl_search_rt \
                 sim_search_rt live_search_rt anl_insert_rt sim_insert_rt live_insert_rt \
                 latches_per_op restart_rate chase_rate",
            ],
        ),
        (
            trace,
            &[artifact],
            &[
                "meta: type schema kind",
                "trace_compare: type file protocol lambda unit_secs levels rates \
                 trace_summary sim_report",
                "trace_compare.levels: level anl sim live trace",
                pillar_levels,
            ],
        ),
    ];
    for (bin, mode, want) in cases {
        let out = tmp("out.jsonl");
        let mut cmd = Command::new(bin);
        if bin == analyze {
            cmd.args(tiny);
        }
        let run = cmd.args(mode).arg("--json").arg(&out).output().unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{mode:?}: {stderr}");
        let mut got = Shapes::new();
        let mut add = |key: String, obj: &Json| {
            let Json::Obj(fields) = obj else {
                panic!("{key} is not an object: {obj:?}")
            };
            let names = fields.iter().map(|(k, _)| k.clone());
            got.entry(key).or_default().extend(names);
        };
        for rec in cbtree_obs::read_jsonl(&out).expect("readable JSONL") {
            let ty = rec.get("type").and_then(Json::as_str).expect("typed");
            add(ty.to_string(), &rec);
            for row in rec.get("levels").and_then(Json::as_arr).unwrap_or_default() {
                add(format!("{ty}.levels"), row);
                for pillar in ["anl", "sim", "live", "trace"] {
                    match row.get(pillar).expect(pillar) {
                        Json::Null => {}
                        record => add(format!("{ty}.levels.*"), record),
                    }
                }
            }
        }
        let want: Shapes = want
            .iter()
            .map(|line| line.split_once(": ").unwrap())
            .map(|(ty, f)| (ty.into(), f.split_whitespace().map(String::from).collect()))
            .collect();
        assert_eq!(got, want, "{mode:?}");
        std::fs::remove_file(&out).ok();
    }
    std::fs::remove_file(artifact).ok();
}
