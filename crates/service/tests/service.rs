//! Integration tests for the open-loop service layer: router partition
//! properties, saturation behavior of admission control, and a
//! differential check against the closed-loop harness.

use cbtree_btree::Protocol;
use cbtree_harness::{LevelLive, LiveConfig, LiveReport};
use cbtree_serve::{serve, KeyRangeRouter, ServeConfig, ServeReport};
use cbtree_workload::{OpsConfig, Rng};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes the tests that run a measured `serve()`/`run()` window.
/// The trace rings, the trace enable flag and the default ring capacity
/// are process-global and this box has two cores: a sibling test's
/// threads running beside a window both register rings the window's
/// drains must walk and take the CPU its workers need to keep their
/// queues short. (`serve()` and `run()` already exclude each other; the
/// gate extends that to the whole test, set-up, test thread and the
/// traced test's switching tracing on and off included.)
fn measured_window() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Property test over every shard count in `1..=16`: the ranges are
/// contiguous, tile the whole `u64` key space with no gap or overlap,
/// are balanced to within one key, and `shard_of` is the exact inverse
/// of `range` — checked at every boundary and on a fuzzed key sample.
#[test]
fn router_partitions_tile_the_key_space() {
    let mut rng = Rng::new(0xDECAF);
    for m in 1..=16usize {
        let r = KeyRangeRouter::new(m);
        let mut next_lo = Some(0u64);
        let mut sizes = Vec::with_capacity(m);
        for i in 0..m {
            let (lo, hi) = r.range(i);
            assert_eq!(Some(lo), next_lo, "m={m}: shard {i} leaves a gap");
            assert!(hi >= lo, "m={m}: shard {i} range inverted");
            sizes.push(u128::from(hi) - u128::from(lo) + 1);
            // Every boundary key belongs to its own shard, and the key
            // just below to the previous one.
            assert_eq!(r.shard_of(lo), i, "m={m}: lo of shard {i}");
            assert_eq!(r.shard_of(hi), i, "m={m}: hi of shard {i}");
            if i > 0 {
                assert_eq!(r.shard_of(lo - 1), i - 1, "m={m}: below shard {i}");
            }
            next_lo = hi.checked_add(1);
        }
        assert_eq!(next_lo, None, "m={m}: ranges must end at u64::MAX");
        let spread = sizes.iter().max().unwrap() - sizes.iter().min().unwrap();
        assert!(spread <= 1, "m={m}: range sizes differ by {spread}");
        // Fuzzed keys: `shard_of` agrees with the owning range (which,
        // with the tiling above, proves every key maps to exactly one
        // shard).
        for _ in 0..4096 {
            let k = rng.next_u64();
            let s = r.shard_of(k);
            let (lo, hi) = r.range(s);
            assert!(
                (lo..=hi).contains(&k),
                "m={m}: key {k} routed to shard {s} [{lo}, {hi}]"
            );
        }
    }
}

/// The same tiling properties hold for bounded key spaces, with the
/// clamped tail keys folded into the last shard.
#[test]
fn bounded_router_partitions_tile_their_space() {
    let mut rng = Rng::new(0xB0B);
    for _ in 0..64 {
        let m = 1 + rng.next_below(16) as usize;
        let space = m as u64 + rng.next_below(10_000_000);
        let r = KeyRangeRouter::with_space(m, Some(space));
        let mut next_lo = Some(0u64);
        for i in 0..m {
            let (lo, hi) = r.range(i);
            assert_eq!(Some(lo), next_lo, "m={m} space={space}: gap at {i}");
            assert_eq!(r.shard_of(lo), i);
            assert_eq!(r.shard_of(hi), i);
            next_lo = hi.checked_add(1);
        }
        assert_eq!(next_lo, None);
        for _ in 0..512 {
            let k = rng.next_below(space);
            let s = r.shard_of(k);
            let (lo, hi) = r.range(s);
            assert!((lo..=hi).contains(&k));
        }
        assert_eq!(r.shard_of(space), m - 1, "first clamped key");
        assert_eq!(r.shard_of(u64::MAX), m - 1, "largest clamped key");
    }
}

/// Past saturation, admission control must keep the sojourn of
/// *accepted* operations bounded by what the queue can hold and report
/// the overflow as shed — the open loop's answer to "what happens when
/// λ exceeds capacity".
#[test]
fn past_saturation_bounded_queue_bounds_accepted_sojourn() {
    let _gate = measured_window();
    let mut cfg = ServeConfig::quick(Protocol::BLink, 1, 2_000.0);
    cfg.initial_items = 1_000;
    cfg.generators = 1;
    // 1 ms service floor → capacity ≈ 1000 ops/s, so λ = 2000 offers 2×
    // capacity. An 8-deep queue bounds any accepted op's sojourn to
    // roughly (8 + 1) services.
    cfg.service_floor = Duration::from_millis(1);
    cfg.queue_capacity = 8;
    cfg.warmup = Duration::from_millis(100);
    cfg.measure = Duration::from_millis(500);
    let report = serve(&cfg);
    // Nothing switched tracing on, so the run recorded no events and
    // left the switch as it found it.
    assert!(report.trace.is_empty(), "untraced run recorded events");
    assert!(!cbtree_obs::trace::enabled());

    assert!(report.offered() > 0);
    assert!(report.shed() > 0, "2x overload must shed");
    let shed_rate = report.shed_rate();
    assert!(
        shed_rate > 0.2,
        "2x overload should shed a large fraction, got {shed_rate}"
    );
    // p99 sojourn of *served* ops stays near the queue-bound ceiling:
    // (capacity + 1) services plus generous scheduling slop.
    let p99_s = report.sojourn.p99() as f64 * 1e-9;
    let ceiling = (cfg.queue_capacity as f64 + 2.0) * 4.0 * 1e-3;
    assert!(
        p99_s < ceiling,
        "p99 sojourn {p99_s}s exceeds the queue-bounded ceiling {ceiling}s"
    );
    assert!(report.per_shard[0].queue_depth_hwm <= cfg.queue_capacity);
}

/// A closed-loop `live` run and an open-loop `serve` run of the same
/// protocol, tree and mix, the open loop at ~25% of the closed loop's
/// throughput: comfortably sustainable, so both sit in the
/// low-utilization regime where per-op lock demand is rate-independent.
fn closed_and_open_loop_runs() -> (LiveReport, ServeReport) {
    let protocol = Protocol::BLink;
    let mut live_cfg = LiveConfig::quick(protocol, 1);
    live_cfg.measure = Duration::from_millis(400);
    live_cfg.seed = 0xD1FF;
    let live = cbtree_harness::run(&live_cfg);
    assert!(live.completed > 0);
    assert!(live.levels[0].stats.w_acquires > 0);

    let mut serve_cfg = ServeConfig::quick(protocol, 1, (live.throughput / 4.0).max(500.0));
    serve_cfg.generators = 1;
    serve_cfg.seed = 0xD1FF;
    serve_cfg.measure = Duration::from_millis(400);
    let open = serve(&serve_cfg);
    assert!(open.served() > 0);
    assert_eq!(open.shed(), 0, "quarter-rate load must not shed");
    assert!(open.per_shard[0].levels[0].stats.w_acquires > 0);
    (live, open)
}

/// Asserts `open / live` lies within `bound`× either way.
fn assert_agree(what: &str, open: f64, live: f64, bound: f64) {
    assert!(
        open > 0.0 && live > 0.0,
        "both loops must measure a nonzero {what}"
    );
    let ratio = open / live;
    assert!(
        (1.0 / bound..=bound).contains(&ratio),
        "{what} diverged: open {open:.3e} vs live {live:.3e} (ratio {ratio:.2})"
    );
}

/// Differential sanity: both loops take the same exclusive leaf latches
/// per update operation — counted exactly, by the engine's `OpCounters`
/// and by the leaf locks' own `w_acquires`, so the check does not depend
/// on how fast the host runs either loop. A service layer that skipped
/// ops, double-counted, or mis-windowed its snapshot diff would be off
/// by far more than the bound.
#[test]
fn open_and_closed_loop_agree_on_per_op_lock_demand() {
    let _gate = measured_window();
    let (live, open) = closed_and_open_loop_runs();
    let shard = &open.per_shard[0];
    // Both runs draw the paper mix.
    let update_share = 1.0 - OpsConfig::paper(1).q_search;
    let per_update = |count: u64, ops: u64| count as f64 / (ops as f64 * update_share);
    assert_agree(
        "OpCounters leaf write latches per update",
        per_update(shard.counters.w_latches[0], shard.counters.ops),
        per_update(live.counters.w_latches[0], live.counters.ops),
        3.0,
    );
    assert_agree(
        "leaf w_acquires per update",
        per_update(shard.levels[0].stats.w_acquires, shard.counters.ops),
        per_update(live.levels[0].stats.w_acquires, live.counters.ops),
        3.0,
    );
}

/// The wall-clock version of the check above: per-completion leaf-level
/// exclusive lock demand `ρ_w · nodes / rate`, the total leaf write-hold
/// seconds each completed operation induces. (Raw `ρ_w` is a per-node
/// average, which the faster-growing closed-loop tree dilutes;
/// multiplying the node count back makes the quantity a property of the
/// *operation*, not of how the load arrives.) Hold times are the host's:
/// 1.7–2.7× alone, ≥ 3× beside other work, so `scripts/ci.sh` runs this
/// alone, and only when the host gives two cores. Both runs are
/// untraced: traced, the open loop's batch path emits more events per
/// operation inside the leaf's exclusive section, and its hold grows to
/// ~4x the closed loop's.
#[test]
#[ignore = "wall-clock: run alone on two cores (scripts/ci.sh)"]
fn open_and_closed_loop_agree_on_per_op_leaf_hold_time() {
    let _gate = measured_window();
    let (live, open) = closed_and_open_loop_runs();
    let demand = |leaf: &LevelLive, rate: f64| leaf.rho_w * leaf.nodes as f64 / rate;
    assert_agree(
        "per-op leaf writer demand (s/op)",
        demand(&open.per_shard[0].levels[0], open.achieved_rate()),
        demand(&live.levels[0], live.throughput),
        3.0,
    );
}

/// With tracing switched on, a serve run's drained trace carries the
/// ingress-queue life cycle: enqueues pair with dequeues and the shed
/// count matches the report.
///
/// The pairing is exact except at the window's opening edge: the
/// warm-up drain that discards set-up events cuts the rings one after
/// another while the shards keep serving, so an operation already
/// queued when the generator's ring was cut keeps its dequeue and loses
/// its enqueue. There can be no more of those than the queues ever held.
#[test]
fn traced_serve_run_records_queue_events() {
    use cbtree_obs::{replay, trace};
    let _gate = measured_window();
    trace::set_default_ring_capacity(1 << 17);
    let mut cfg = ServeConfig::quick(Protocol::BLink, 2, 2_000.0);
    cfg.initial_items = 1_000;
    trace::enable(true);
    let report = serve(&cfg);
    trace::enable(false);
    let t = &report.trace;
    assert!(!t.events.is_empty(), "traced run produced no events");
    let r = replay(t);
    assert!(r.enqueues > 0, "no enqueue events drained");
    assert!(r.dequeues > 0, "no dequeue events drained");
    // Low λ: nothing shed, and (drops aside) queue events balance.
    assert_eq!(r.sheds, 0);
    if t.dropped == 0 {
        let queued_at_cut: usize = report.per_shard.iter().map(|s| s.queue_depth_hwm).sum();
        assert!(
            r.dequeues <= r.enqueues + queued_at_cut as u64,
            "more dequeues ({}) than enqueues ({}) plus what the queues ever held ({queued_at_cut})",
            r.dequeues,
            r.enqueues
        );
    }
}

/// Out-of-range and malformed flag values are rejected by the shared
/// flag table with `error: <flag> …` and exit code 2 — not parsed
/// cleanly and then tripped over an `assert!` inside `serve()`.
#[test]
fn serve_rejects_bad_flag_values_with_exit_code_2() {
    for (flag, value) in [
        ("--workers", "0"),
        ("--generators", "0"),
        ("--lambda", "-5"),
        ("--queue-cap", "0"),
        ("--capacity", "1"),
        ("--capacity", "1000"),
        ("--mix", "0.3,x,0.5,0.2"),
        ("--trace-buf", "1"),
        ("--trace-buf", "16777217"),
        ("--trace-buf", "18446744073709551615"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([flag, value])
            .output()
            .expect("spawn serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag} ")),
            "{flag} {value}: {stderr}"
        );
    }
}
