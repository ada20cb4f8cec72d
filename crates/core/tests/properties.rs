//! Randomized tests of the analytical framework: structural invariants
//! that must hold for *every* algorithm across randomized configurations
//! — monotonicity in load, cost, and recovery burden; consistency between
//! per-level solutions and response times; and saturation behavior.
//! Cases come from `cbtree_workload::Rng` and reproduce from the printed
//! `(seed, case)` pair.

use cbtree_analysis::{Model, ModelConfig, Protocol, RecoveryMode};
use cbtree_btree_model::{CostModel, NodeParams, OpMix, TreeShape};
use cbtree_workload::Rng;

const SEED: u64 = 0x5EED_C04E;
const CASES: usize = 24;

fn uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Insert-dominated mixes (the regime the analysis targets).
fn random_mix(rng: &mut Rng) -> OpMix {
    loop {
        let qs = uniform(rng, 0.05, 0.9);
        let qd_frac = uniform(rng, 0.05, 0.45);
        let updates = 1.0 - qs;
        let qd = updates * qd_frac;
        let qi = updates - qd;
        if let Ok(m) = OpMix::new(qs, qi, qd) {
            if m.inserts_dominate() {
                return m;
            }
        }
    }
}

fn random_config(rng: &mut Rng) -> ModelConfig {
    loop {
        let n = 5 + rng.next_below(59) as usize;
        let items = rng.range_u64(10_000, 200_000);
        let d = uniform(rng, 1.0, 12.0);
        let mem = rng.next_below(4) as usize;
        let mix = random_mix(rng);
        let Ok(params) = NodeParams::with_max_size(n) else {
            continue;
        };
        let Ok(shape) = TreeShape::derive(items, params) else {
            continue;
        };
        let Ok(cost) = CostModel::paper_style(shape.height, mem, d, 1.0) else {
            continue;
        };
        if let Ok(cfg) = ModelConfig::new(shape, mix, cost) {
            return cfg;
        }
    }
}

fn algorithms() -> [Protocol; 4] {
    Protocol::ALL_WITH_BASELINE
}

/// At zero load every response time equals its serial cost: positive,
/// finite, and independent of the algorithm's lock discipline for
/// searches.
#[test]
fn zero_load_is_serial_and_wait_free() {
    let mut rng = Rng::new(SEED);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let serial_search: f64 = (1..=cfg.height()).map(|i| cfg.cost.se(i)).sum();
        for alg in algorithms() {
            let perf = Model::new(alg, &cfg).evaluate(0.0).unwrap();
            assert!(
                (perf.response_time_search - serial_search).abs() < 1e-6,
                "{alg:?} case={case}: {} vs serial {serial_search}",
                perf.response_time_search
            );
            assert!(perf.response_time_insert.is_finite());
            assert!(perf.response_time_insert > 0.0);
            for l in &perf.levels {
                assert_eq!(l.rho_w, 0.0, "{alg:?} case={case}");
                assert_eq!(l.r_wait, 0.0, "{alg:?} case={case}");
            }
        }
    }
}

/// Response times and the root utilization are monotone in the arrival
/// rate, for every algorithm.
#[test]
fn monotone_in_lambda() {
    let mut rng = Rng::new(SEED ^ 1);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let f1 = uniform(&mut rng, 0.05, 0.45);
        let f2 = uniform(&mut rng, 0.5, 0.9);
        for alg in algorithms() {
            let model = Model::new(alg, &cfg);
            let Ok(max) = model.max_throughput() else {
                continue;
            };
            let lo = model.evaluate(f1 * max).unwrap();
            let hi = model.evaluate(f2 * max).unwrap();
            assert!(
                hi.response_time_insert >= lo.response_time_insert - 1e-9,
                "{alg:?} case={case}: insert RT must grow with load"
            );
            assert!(hi.response_time_search >= lo.response_time_search - 1e-9);
            assert!(hi.root_writer_utilization() >= lo.root_writer_utilization() - 1e-9);
        }
    }
}

/// The maximum-throughput ranking 2PL ≤ naive ≤ optimistic ≤ link holds
/// across random configurations.
#[test]
fn ranking_invariant() {
    let mut rng = Rng::new(SEED ^ 2);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let max = |a: Protocol| Model::new(a, &cfg).max_throughput().unwrap();
        let tp = max(Protocol::TwoPhase);
        let naive = max(Protocol::LockCoupling);
        let od = max(Protocol::OptimisticDescent);
        let link = max(Protocol::BLink);
        assert!(
            tp <= naive * 1.001,
            "case={case}: 2pl {tp} vs naive {naive}"
        );
        assert!(naive <= od * 1.001, "case={case}: naive {naive} vs od {od}");
        assert!(od <= link * 1.001, "case={case}: od {od} vs link {link}");
    }
}

/// Evaluating exactly at a stable rate never errs, and just above the
/// maximum always saturates.
#[test]
fn saturation_boundary_is_sharp() {
    let mut rng = Rng::new(SEED ^ 3);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let frac = uniform(&mut rng, 0.1, 0.95);
        for alg in [
            Protocol::LockCoupling,
            Protocol::OptimisticDescent,
            Protocol::TwoPhase,
        ] {
            let model = Model::new(alg, &cfg);
            let max = model.max_throughput().unwrap();
            assert!(
                model.evaluate(frac * max).is_ok(),
                "{alg:?} case={case}: stable below max"
            );
            assert!(
                model.evaluate(max * 1.05).is_err(),
                "{alg:?} case={case}: must saturate above max"
            );
        }
    }
}

/// Uniform service dilation scales zero-load response times linearly and
/// maximum throughput inversely (§5.2).
#[test]
fn dilation_covariance() {
    let mut rng = Rng::new(SEED ^ 4);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let factor = uniform(&mut rng, 1.1, 4.0);
        let dilated = ModelConfig::new(
            cfg.shape.clone(),
            cfg.mix,
            cfg.cost.dilated(factor).unwrap(),
        )
        .unwrap();
        for alg in algorithms() {
            let m0 = Model::new(alg, &cfg);
            let m1 = Model::new(alg, &dilated);
            let rt0 = m0.evaluate(0.0).unwrap().response_time_insert;
            let rt1 = m1.evaluate(0.0).unwrap().response_time_insert;
            assert!((rt1 / rt0 - factor).abs() < 1e-6, "{alg:?} case={case}");
            let max0 = m0.max_throughput().unwrap();
            let max1 = m1.max_throughput().unwrap();
            assert!(
                (max0 / max1 - factor).abs() < 0.05 * factor,
                "{alg:?} case={case}: max {max0} vs dilated {max1}"
            );
        }
    }
}

/// Recovery ordering none ≤ leaf-only ≤ naive holds at any stable load,
/// for the algorithms with full W descents.
#[test]
fn recovery_ordering() {
    let mut rng = Rng::new(SEED ^ 5);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let frac = uniform(&mut rng, 0.1, 0.7);
        let t_trans = uniform(&mut rng, 10.0, 300.0);
        for alg in [Protocol::LockCoupling, Protocol::OptimisticDescent] {
            let naive_cfg = cfg.clone().with_recovery(RecoveryMode::Naive, t_trans);
            let leaf_cfg = cfg.clone().with_recovery(RecoveryMode::LeafOnly, t_trans);
            let m_naive = Model::new(alg, &naive_cfg);
            let Ok(max) = m_naive.max_throughput() else {
                continue;
            };
            let lambda = frac * max;
            let rt_none = Model::new(alg, &cfg)
                .evaluate(lambda)
                .unwrap()
                .response_time_insert;
            let rt_leaf = Model::new(alg, &leaf_cfg)
                .evaluate(lambda)
                .unwrap()
                .response_time_insert;
            let rt_naive = m_naive.evaluate(lambda).unwrap().response_time_insert;
            assert!(rt_none <= rt_leaf + 1e-9, "{alg:?} case={case}");
            assert!(rt_leaf <= rt_naive + 1e-9, "{alg:?} case={case}");
        }
    }
}

/// Per-level consistency: writer waits dominate reader waits, and
/// utilizations live in [0, 1).
#[test]
fn level_solutions_consistent() {
    let mut rng = Rng::new(SEED ^ 6);
    for case in 0..CASES {
        let cfg = random_config(&mut rng);
        let frac = uniform(&mut rng, 0.2, 0.8);
        for alg in algorithms() {
            let model = Model::new(alg, &cfg);
            let Ok(max) = model.max_throughput() else {
                continue;
            };
            let perf = model.evaluate(frac * max).unwrap();
            for l in &perf.levels {
                assert!(
                    (0.0..1.0).contains(&l.rho_w),
                    "{alg:?} case={case} level {}",
                    l.level
                );
                assert!(
                    l.w_wait + 1e-9 >= l.r_wait,
                    "{alg:?} case={case} level {}: W wait {} < R wait {}",
                    l.level,
                    l.w_wait,
                    l.r_wait
                );
                assert!(l.r_wait >= 0.0 && l.w_wait.is_finite());
            }
        }
    }
}

/// Rules of thumb stay within an order of magnitude of the full analysis
/// for in-memory trees (their advertised regime).
#[test]
fn rules_of_thumb_sane_in_memory() {
    let mut rng = Rng::new(SEED ^ 7);
    for case in 0..CASES {
        let n = 9 + rng.next_below(119) as usize;
        let mix = random_mix(&mut rng);
        let shape = TreeShape::derive(100_000, NodeParams::with_max_size(n).unwrap()).unwrap();
        let height = shape.height;
        let cost = CostModel::paper_style(height, height, 1.0, 1.0).unwrap();
        let cfg = ModelConfig::new(shape, mix, cost).unwrap();
        if let (Ok(exact), Ok(rot)) = (
            Model::new(Protocol::LockCoupling, &cfg).lambda_at_root_rho(0.5),
            cbtree_analysis::rules_of_thumb::naive_lc_rot1(&cfg),
        ) {
            let ratio = rot / exact;
            assert!(
                (0.2..5.0).contains(&ratio),
                "case={case}: RoT1 {rot} vs analysis {exact} at N={n}"
            );
        }
    }
}
