//! Smoke tests for the live-execution harness: each protocol completes a
//! short 4-thread run with internally consistent counters, and measured
//! writer utilizations are proper fractions.
//!
//! One measured run at a time: the tests of this binary run on parallel
//! threads and several compare throughputs, which means nothing while
//! sibling runs' workers take the cores (a two-core box gave one side
//! of a comparison a tenth of the other's throughput one run in five).
//! `run` holds the process-wide trace measurement lock for its whole
//! measurement, which excludes exactly that.

use cbtree_btree::Protocol;
use cbtree_harness::{run, LiveConfig};

/// The canonical protocol list; the recovery variants run with the
/// default transaction size 1, where commits follow every operation.
const PROTOCOLS: [Protocol; 7] = Protocol::ALL_WITH_RECOVERY;

fn smoke_cfg(protocol: Protocol) -> LiveConfig {
    LiveConfig::quick(protocol, 4)
}

#[test]
fn four_thread_run_completes_for_every_protocol() {
    for protocol in PROTOCOLS {
        let cfg = smoke_cfg(protocol);
        let report = run(&cfg);
        assert!(
            report.completed > 0,
            "{}: no operations completed",
            protocol.name()
        );
        assert!(report.throughput > 0.0, "{}", protocol.name());
        // The clock starts after the resume barrier and stops after the
        // end-of-window quiesce, so the measured window is the configured
        // length plus at most scheduling noise and one operation's tail
        // per worker — never shorter, and nowhere near double.
        let want = cfg.measure.as_secs_f64();
        assert!(
            report.measured_time >= 0.95 * want,
            "{}: window {}s shorter than configured {}s",
            protocol.name(),
            report.measured_time,
            want
        );
        assert!(
            report.measured_time <= 3.0 * want,
            "{}: window {}s far exceeds configured {}s",
            protocol.name(),
            report.measured_time,
            want
        );
        assert!(!report.levels.is_empty(), "{}", protocol.name());
        assert!(report.final_len > 0, "{}", protocol.name());
        // Nothing switched tracing on, so the run recorded no events
        // and left the switch as it found it.
        assert!(report.trace.is_empty(), "{}: untraced run", protocol.name());
        assert!(!cbtree_obs::trace::enabled(), "{}", protocol.name());
    }
}

#[test]
fn op_counts_are_consistent() {
    for protocol in PROTOCOLS {
        let report = run(&smoke_cfg(protocol));
        // Per-class counts sum to the total, and throughput is exactly
        // completed / window.
        let n = report.resp_search.n + report.resp_insert.n + report.resp_delete.n;
        assert_eq!(n, report.completed, "{}", protocol.name());
        let tp = report.completed as f64 / report.measured_time;
        assert!(
            (report.throughput - tp).abs() < 1e-6 * tp.max(1.0),
            "{}: throughput {} vs {}",
            protocol.name(),
            report.throughput,
            tp
        );
        // All three classes appear under the paper's .3/.5/.2 mix.
        assert!(report.resp_search.n > 0, "{}", protocol.name());
        assert!(report.resp_insert.n > 0, "{}", protocol.name());
        assert!(report.resp_delete.n > 0, "{}", protocol.name());
    }
}

#[test]
fn per_level_writer_utilization_is_a_fraction() {
    for protocol in PROTOCOLS {
        let report = run(&smoke_cfg(protocol));
        for l in &report.levels {
            // The record carries the hold-only value under its own name;
            // hold-only counters cannot see presence.
            let record = l.record();
            assert_eq!(record.rho_w_hold, Some(l.rho_w), "{}", protocol.name());
            assert_eq!(record.rho_w, None, "{}", protocol.name());
            assert!(
                (0.0..=1.0).contains(&l.rho_w),
                "{} level {}: rho_w = {}",
                protocol.name(),
                l.level,
                l.rho_w
            );
            assert!(l.nodes > 0, "{} level {}", protocol.name(), l.level);
        }
        // Leaves-first ordering: exactly one root, more leaves than roots.
        assert_eq!(
            report.levels.last().unwrap().nodes,
            1,
            "{}",
            protocol.name()
        );
        assert!(report.levels[0].nodes > 1, "{}", protocol.name());
        // The measured window saw real lock traffic on the leaves.
        let leaf = &report.levels[0].stats;
        assert!(
            leaf.r_acquires + leaf.w_acquires > 0,
            "{}: leaves saw no lock traffic",
            protocol.name()
        );
    }
}

#[test]
fn telemetry_shows_restarts_and_chases_under_contention() {
    // Small nodes + several threads force leaf splits, which is exactly
    // what produces optimistic restarts and b-link right-link chases.
    let mut cfg = LiveConfig::quick(Protocol::OptimisticDescent, 4);
    cfg.capacity = 4;
    let report = run(&cfg);
    assert!(
        report.counters.restarts > 0,
        "optimistic under contention must restart sometimes"
    );
    assert_eq!(report.counters.chases, 0, "crab descents never chase");

    let mut cfg = LiveConfig::quick(Protocol::BLink, 4);
    cfg.capacity = 4;
    let report = run(&cfg);
    assert!(
        report.counters.chases > 0,
        "b-link under contention must chase right links sometimes"
    );
    assert_eq!(report.counters.restarts, 0, "b-link never restarts");
}

#[test]
fn recovery_naive_at_txn1_matches_lock_coupling_throughput() {
    // With transaction size 1 a commit follows every operation, so
    // RecoveryNaive is LockCoupling plus commit bookkeeping: throughput
    // must agree within (generous, CI-proof) measurement noise.
    let coupling = run(&smoke_cfg(Protocol::LockCoupling));
    let recovery = run(&smoke_cfg(Protocol::RecoveryNaive));
    assert!(recovery.completed > 0 && coupling.completed > 0);
    let ratio = recovery.throughput / coupling.throughput;
    assert!(
        (0.33..=3.0).contains(&ratio),
        "recovery-naive/lock-coupling throughput ratio {ratio} out of range \
         ({} vs {} ops/s)",
        recovery.throughput,
        coupling.throughput
    );
    assert!(
        recovery.counters.txn_commits > 0,
        "every op ends a transaction at txn=1"
    );
}

#[test]
fn sampled_stats_run_keeps_counts_and_fractions_sane() {
    let mut cfg = smoke_cfg(Protocol::BLink);
    cfg.stats_sampling = cbtree_sync::SamplePeriod::every(8);
    let report = run(&cfg);
    assert!(report.completed > 0);
    // Acquisition counts are exact regardless of sampling.
    let leaf = &report.levels[0].stats;
    assert!(leaf.r_acquires + leaf.w_acquires > 0);
    // Scaled sums keep utilization a proper fraction.
    for l in &report.levels {
        assert!((0.0..=1.0).contains(&l.rho_w), "level {}", l.level);
    }
}

#[test]
fn read_only_mix_runs_and_scales_with_cores() {
    // A pure-search mix must still get a populated tree (prefill is
    // independent of the mix) and complete work on every thread count.
    let mut cfg = LiveConfig::quick(Protocol::BLink, 1);
    cfg.ops.q_search = 1.0;
    cfg.ops.q_insert = 0.0;
    cfg.ops.q_delete = 0.0;
    let one = run(&cfg);
    assert!(one.completed > 0);
    assert_eq!(one.resp_search.n, one.completed);
    cfg.threads = 4;
    let four = run(&cfg);
    assert!(four.completed > 0);
    // Scaling is only observable with real parallelism; single-core CI
    // boxes time-slice the four threads and gain nothing.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            four.completed as f64 > 1.2 * one.completed as f64,
            "1 thread: {}, 4 threads: {} on {} cores",
            one.completed,
            four.completed,
            cores
        );
    }
}

/// Out-of-range and malformed flag values are rejected by the shared
/// flag table with `error: <flag> …` and exit code 2 — not parsed
/// cleanly and then tripped over an `assert!` inside `run()`.
#[test]
fn live_rejects_bad_flag_values_with_exit_code_2() {
    for (flag, value) in [
        ("--threads", "0"),
        ("--capacity", "1"),
        ("--capacity", "1000"),
        ("--mix", "0.3,x,0.5,0.2"),
        ("--trace-buf", "1"),
        ("--trace-buf", "16777217"),
        ("--trace-buf", "18446744073709551615"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_live"))
            .args([flag, value])
            .output()
            .expect("spawn live");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag} ")),
            "{flag} {value}: {stderr}"
        );
    }
}
