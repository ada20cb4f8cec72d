//! Cross-crate integration: the facade crate's pieces compose — the
//! analytical model's structural predictions hold on the *real* threaded
//! B-trees, the simulated and the real tree split and latch alike, and
//! the workload generators drive everything consistently.

use cbtree::analysis::RecoveryConfig;
use cbtree::btree::{ConcurrentBTree, Protocol};
use cbtree::model::{Fullness, NodeParams, OpMix, TreeShape};
use cbtree::sim::runner::construction_phase;
use cbtree::sim::SimConfig;
use cbtree::sync::SamplePeriod;
use cbtree::workload::{OpStream, Operation, OpsConfig};
use cbtree_obs::LevelRecord;
use std::sync::Arc;

#[test]
fn real_od_redo_rate_tracks_corollary_1() {
    // Corollary 1 predicts the leaf-full probability Pr[F(1)]; the real
    // optimistic tree's redo rate per insert should sit in its vicinity
    // once the tree is warm.
    let n = 13usize;
    let tree = ConcurrentBTree::<u64>::new(Protocol::OptimisticDescent, n);
    let mut stream = OpStream::new(OpsConfig::paper(3_000_000), 42);
    // Warm phase (not counted).
    for _ in 0..60_000 {
        if let Operation::Insert(k) = stream.next_op() {
            tree.insert(k, k);
        }
    }
    let redo_before = tree.counters().restarts;
    let mut inserts = 0u64;
    for _ in 0..150_000 {
        match stream.next_op() {
            Operation::Insert(k) => {
                tree.insert(k, k);
                inserts += 1;
            }
            Operation::Delete(k) => {
                tree.remove(&k);
            }
            Operation::Search(_) => {}
        }
    }
    let measured = (tree.counters().restarts - redo_before) as f64 / inserts as f64;

    let shape =
        TreeShape::derive(tree.len() as u64, NodeParams::with_max_size(n).unwrap()).unwrap();
    let fullness = Fullness::corollary1(&shape, &OpMix::paper()).unwrap();
    let predicted = fullness.pr_full(1);
    assert!(
        measured > 0.2 * predicted && measured < 3.0 * predicted,
        "real redo rate {measured:.4} vs Corollary-1 Pr[F(1)] {predicted:.4}"
    );
}

#[test]
fn real_tree_height_matches_shape_model() {
    for n in [8usize, 16, 64] {
        let tree = ConcurrentBTree::<u64>::new(Protocol::BLink, n);
        for k in 0..30_000u64 {
            tree.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
        }
        let predicted = TreeShape::derive(tree.len() as u64, NodeParams::with_max_size(n).unwrap())
            .unwrap()
            .height;
        let actual = tree.height();
        assert!(
            (actual as i64 - predicted as i64).abs() <= 1,
            "N={n}: real height {actual} vs model {predicted}"
        );
    }
}

#[test]
fn workload_streams_drive_all_trees_identically() {
    // The same seeded stream applied to each protocol must leave the
    // exact same key set (sequential application).
    let mut contents: Vec<Vec<u64>> = Vec::new();
    for p in Protocol::ALL {
        let tree = ConcurrentBTree::<u64>::new(p, 8);
        let mut stream = OpStream::new(OpsConfig::paper(5_000), 7);
        for _ in 0..20_000 {
            match stream.next_op() {
                Operation::Search(_) => {}
                Operation::Insert(k) => {
                    tree.insert(k, k);
                }
                Operation::Delete(k) => {
                    tree.remove(&k);
                }
            }
        }
        let present: Vec<u64> = (0..5_000).filter(|k| tree.contains_key(k)).collect();
        contents.push(present);
        tree.check().unwrap();
    }
    assert_eq!(contents[0], contents[1]);
    assert_eq!(contents[1], contents[2]);
}

#[test]
fn simulated_and_real_trees_latch_alike() {
    // One seeded single-thread stream through the simulator (an arrival
    // rate so low that one operation is in flight at a time) and through
    // the real tree under every protocol: the split rule is the same, so
    // the constructed trees agree in height, splits, nodes per level and
    // items, and the paper's §4 descent descriptions grant the same
    // per-level locks the real protocols latch. Recovery protocols commit
    // after every operation.
    for cap in [3usize, 13] {
        for p in Protocol::ALL_WITH_RECOVERY {
            let cfg = SimConfig {
                node_capacity: cap,
                initial_items: 4_000,
                measured_ops: 3_000,
                warmup_ops: 100,
                recovery: RecoveryConfig {
                    mode: p.policy().txn,
                    t_trans: 100.0,
                },
                ..SimConfig::paper(p, 1e-6, 7)
            };
            let report = cbtree::sim::run(&cfg).unwrap();
            assert_eq!(report.max_in_flight, 1, "{p} cap {cap}: one op at a time");
            let (sim, _) = construction_phase(&cfg).unwrap();

            let tree = ConcurrentBTree::<u64>::new(p, cap);
            let apply = |op: Operation| {
                match op {
                    Operation::Search(k) => drop(tree.get(&k)),
                    Operation::Insert(k) => drop(tree.insert(k, k)),
                    Operation::Delete(k) => drop(tree.remove(&k)),
                }
                tree.txn_commit();
            };
            let mut ops = OpStream::new(cfg.ops, cfg.seed.wrapping_mul(0x9E37_79B9) ^ 0xB17D);
            ops.construction_sequence(cfg.initial_items)
                .into_iter()
                .for_each(apply);
            let nodes = || -> Vec<u64> { tree.level_stats().iter().map(|l| l.0).collect() };
            assert_eq!(tree.height(), sim.height(), "{p} cap {cap}: height");
            assert_eq!(tree.counters().splits, sim.splits, "{p} cap {cap}: splits");
            assert_eq!(
                nodes(),
                sim.level_node_counts(),
                "{p} cap {cap}: nodes per level"
            );
            assert_eq!(tree.len() as u64, sim.item_count, "{p} cap {cap}: items");

            (0..cfg.warmup_ops).for_each(|_| apply(ops.next_op()));
            let before = tree.counters();
            (0..cfg.measured_ops).for_each(|_| apply(ops.next_op()));
            let latched = tree.counters().since(&before);
            let grants = |f: fn(&LevelRecord) -> Option<u64>| -> Vec<u64> {
                report.levels.iter().map(|l| f(l).unwrap()).collect()
            };
            let height = report.levels.len();
            assert_eq!(tree.height(), height, "{p} cap {cap}: final height");
            let (r, w) = (grants(|l| l.r_acquires), grants(|l| l.w_acquires));
            assert_eq!(r, latched.r_latches[..height], "{p} cap {cap}: shared");
            assert_eq!(w, latched.w_latches[..height], "{p} cap {cap}: exclusive");
            assert!(
                r.iter().zip(&w).all(|(r, w)| r + w > 0),
                "{p} cap {cap}: every level latched, r {r:?} w {w:?}"
            );
            assert_eq!(
                nodes(),
                grants(|l| l.nodes),
                "{p} cap {cap}: final nodes per level"
            );
        }
    }
}

#[test]
fn concurrent_paper_mix_on_all_protocols() {
    // The paper's mix from 8 threads; every protocol must stay valid and
    // agree with the net-insert accounting.
    for p in Protocol::ALL {
        let tree = Arc::new(ConcurrentBTree::<u64>::new(p, 13));
        let net = Arc::new(std::sync::atomic::AtomicI64::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let tree = Arc::clone(&tree);
                let net = Arc::clone(&net);
                s.spawn(move || {
                    let mut stream = OpStream::new(OpsConfig::paper(500_000), 900 + t);
                    for _ in 0..5_000 {
                        match stream.next_op() {
                            Operation::Search(k) => {
                                let _ = tree.get(&k);
                            }
                            Operation::Insert(k) => {
                                if tree.insert(k, k).is_none() {
                                    net.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                }
                            }
                            Operation::Delete(k) => {
                                if tree.remove(&k).is_some() {
                                    net.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                                }
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(
            tree.len() as i64,
            net.load(std::sync::atomic::Ordering::Relaxed),
            "{p:?}"
        );
        tree.check().unwrap();
    }
}

/// Sampled lock statistics sample in the build that links the checker,
/// whose schedule-perturbation hooks every build carries: acquisitions
/// stay exact, and each level times one grant in eight.
#[test]
fn sampled_lock_statistics_sample_in_the_checker_build() {
    let tree = ConcurrentBTree::with_sampling(Protocol::BLink, 16, SamplePeriod::every(8));
    let mut stream = OpStream::new(OpsConfig::paper(20_000), 0x5A3D);
    for _ in 0..30_000 {
        match stream.next_op() {
            Operation::Search(k) => drop(tree.get(&k)),
            Operation::Insert(k) => drop(tree.insert(k, k)),
            Operation::Delete(k) => drop(tree.remove(&k)),
        }
    }
    let counted = tree.counters();
    for (i, (_, s)) in tree.level_stats().iter().enumerate() {
        let level = i + 1;
        assert_eq!(s.r_acquires, counted.r_latches[i], "level {level} shared");
        assert_eq!(
            s.w_acquires, counted.w_latches[i],
            "level {level} exclusive"
        );
        // One thread reports to one stripe, so the sample is exactly the
        // acquisitions 0, 8, 16, … of each mode.
        for (acq, hist) in [
            (s.r_acquires, &s.r_wait_hist),
            (s.w_acquires, &s.w_wait_hist),
        ] {
            assert_eq!(hist.total(), acq.div_ceil(8), "level {level}: {acq} grants");
        }
    }
    assert!(
        tree.level_stats()[0].1.r_acquires >= 8,
        "the leaves were read"
    );
}

#[test]
fn facade_reexports_compose() {
    // The doc-advertised entry points all resolve through the facade.
    let cfg = cbtree::analysis::ModelConfig::paper_base();
    let model = cbtree::analysis::Model::new(cbtree::analysis::Protocol::BLink, &cfg);
    let perf = model.evaluate(0.5).unwrap();
    assert!(perf.response_time_insert > 0.0);

    let q = cbtree::queueing::RwQueue::new(1.0, 0.1, 1.0, 1.0).unwrap();
    assert!(q.solve().unwrap().rho_w > 0.0);

    let report = cbtree::sim::run(
        &cbtree::sim::SimConfig::paper(cbtree::analysis::Protocol::BLink, 0.5, 1).scaled_down(20),
    )
    .unwrap();
    assert!(report.completed > 0);

    let tree = ConcurrentBTree::<&'static str>::new(Protocol::BLink, 16);
    tree.insert(1, "one");
    assert_eq!(tree.get(&1), Some("one"));
}
