//! The paper's central validation: the analytical framework's
//! predictions agree with discrete-event simulation of the actual
//! algorithms on actual B-trees ("The comparison shows that the analysis
//! and the simulation predict the same response times", §5.3).
//!
//! These tests run at the paper's full scale (40 000-item tree, 10 000
//! measured operations) — one simulation takes tens of milliseconds.

use cbtree::analysis::{Algorithm, Model, ModelConfig};
use cbtree::model::{CostModel, OpMix};
use cbtree::sim::runner::matched_tree_shape;
use cbtree::sim::{run_seeds, SimConfig};

const SEEDS: [u64; 3] = [1, 2, 3];

/// Builds the analytical model of exactly the tree the simulation runs on.
fn matched_model(algorithm: Algorithm, sim_cfg: &SimConfig) -> Model {
    let shape = matched_tree_shape(sim_cfg).expect("valid shape");
    let cost = CostModel::paper_style(
        shape.height,
        sim_cfg.costs.memory_levels,
        sim_cfg.costs.disk_cost,
        sim_cfg.costs.base,
    )
    .expect("valid cost");
    let cfg = ModelConfig::new(shape, OpMix::paper(), cost).expect("consistent");
    algorithm.model(&cfg)
}

fn assert_close(what: &str, analysis: f64, sim: f64, rel_tol: f64) {
    let err = (analysis - sim).abs() / sim.max(1e-9);
    assert!(
        err < rel_tol,
        "{what}: analysis {analysis:.3} vs simulation {sim:.3} (rel err {err:.3} > {rel_tol})"
    );
}

fn validate(algorithm: Algorithm, lambdas: &[f64], rel_tol: f64) {
    let sim_cfg = SimConfig::paper(algorithm, 1.0, 1);
    let model = matched_model(algorithm, &sim_cfg);
    for &lambda in lambdas {
        let mut c = sim_cfg.clone();
        c.arrival_rate = lambda;
        let sim = run_seeds(&c, &SEEDS).expect("stable at this rate");
        let a = model
            .evaluate(lambda)
            .expect("analysis stable at this rate");
        assert_close(
            &format!("{algorithm:?} search RT at λ={lambda}"),
            a.response_time_search,
            sim.resp_search.mean,
            rel_tol,
        );
        assert_close(
            &format!("{algorithm:?} insert RT at λ={lambda}"),
            a.response_time_insert,
            sim.resp_insert.mean,
            rel_tol,
        );
        assert_close(
            &format!("{algorithm:?} delete RT at λ={lambda}"),
            a.response_time_delete,
            sim.resp_delete.mean,
            rel_tol,
        );
    }
}

#[test]
fn naive_lock_coupling_matches_simulation() {
    // Up to 70% of the analytic maximum; beyond that both curves blow up
    // and relative comparisons become noise-dominated (paper figures show
    // the same).
    let sim_cfg = SimConfig::paper(Algorithm::NaiveLockCoupling, 1.0, 1);
    let max = matched_model(Algorithm::NaiveLockCoupling, &sim_cfg)
        .max_throughput()
        .unwrap();
    validate(
        Algorithm::NaiveLockCoupling,
        &[0.3 * max, 0.5 * max, 0.7 * max],
        0.20,
    );
}

#[test]
fn optimistic_descent_matches_simulation() {
    let sim_cfg = SimConfig::paper(Algorithm::OptimisticDescent, 1.0, 1);
    let max = matched_model(Algorithm::OptimisticDescent, &sim_cfg)
        .max_throughput()
        .unwrap();
    validate(Algorithm::OptimisticDescent, &[0.3 * max, 0.6 * max], 0.20);
}

#[test]
fn link_type_matches_simulation() {
    validate(Algorithm::LinkType, &[0.5, 2.0, 5.0], 0.15);
}

#[test]
fn two_phase_locking_matches_simulation() {
    // The §8 baseline extension: 2PL saturates very early; validate the
    // model well below its tiny maximum.
    let sim_cfg = SimConfig::paper(Algorithm::TwoPhaseLocking, 1.0, 1);
    let max = matched_model(Algorithm::TwoPhaseLocking, &sim_cfg)
        .max_throughput()
        .unwrap();
    assert!(max < 0.2, "2PL max must be tiny: {max}");
    validate(Algorithm::TwoPhaseLocking, &[0.3 * max, 0.5 * max], 0.30);
}

#[test]
fn root_writer_utilization_matches() {
    // Figure 10's quantity: ρ_w(h) from the fixed point vs the simulated
    // time-weighted writer-present indicator at the root.
    let sim_cfg = SimConfig::paper(Algorithm::NaiveLockCoupling, 1.0, 1);
    let model = matched_model(Algorithm::NaiveLockCoupling, &sim_cfg);
    let max = model.max_throughput().unwrap();
    for frac in [0.3, 0.5, 0.7] {
        let lambda = frac * max;
        let mut c = sim_cfg.clone();
        c.arrival_rate = lambda;
        let sim = run_seeds(&c, &SEEDS).unwrap();
        let rho_a = model.evaluate(lambda).unwrap().root_writer_utilization();
        let rho_s = sim.root_writer_utilization.mean;
        assert!(
            (rho_a - rho_s).abs() < 0.10,
            "rho at λ={lambda:.3}: analysis {rho_a:.3} vs sim {rho_s:.3}"
        );
    }
}

#[test]
fn optimistic_redo_rate_matches_pr_full() {
    // §5.1: redo-inserts enter at rate q_i·Pr[F(1)]·λ. Per *update* the
    // simulator reports redos/(inserts+deletes) = q_i·Pr[F(1)]/(q_i+q_d).
    let sim_cfg = SimConfig::paper(Algorithm::OptimisticDescent, 1.0, 1);
    let shape = matched_tree_shape(&sim_cfg).unwrap();
    let cost = CostModel::paper_style(shape.height, 2, 5.0, 1.0).unwrap();
    let cfg = ModelConfig::new(shape, OpMix::paper(), cost).unwrap();
    let predicted = cfg.mix.insert_share_of_updates() * cfg.fullness.pr_full(1);

    let sim = run_seeds(&sim_cfg, &SEEDS).unwrap();
    let measured = sim.redo_rate.mean;
    assert!(
        (measured - predicted).abs() < 0.6 * predicted,
        "redo per update: simulated {measured:.4} vs Corollary-1 prediction {predicted:.4}"
    );
}

#[test]
fn simulated_tree_shape_matches_paper_description() {
    // §5.3: "A node held a maximum of 13 items. The concurrent operations
    // started when the B-tree held about 40,000 items. The root held
    // about 6 children. The B-tree had 5 levels."
    let sim_cfg = SimConfig::paper(Algorithm::LinkType, 1.0, 1);
    let shape = matched_tree_shape(&sim_cfg).unwrap();
    assert_eq!(shape.height, 5);
    assert!(
        (3.0..=10.0).contains(&shape.root_fanout()),
        "root fanout {}",
        shape.root_fanout()
    );
    // Leaf occupancy near the 0.68·N Corollary-1 constant.
    let leaf_occ = shape.fanout(1) / 13.0;
    assert!((0.55..0.8).contains(&leaf_occ), "leaf occupancy {leaf_occ}");
}

#[test]
fn open_system_throughput_equals_arrival_rate() {
    // §3.1: "if all of the queues are stable, the throughput is equal to
    // the arrival rate".
    for (alg, lambda) in [
        (Algorithm::NaiveLockCoupling, 0.3),
        (Algorithm::OptimisticDescent, 1.0),
        (Algorithm::LinkType, 3.0),
    ] {
        let sim = run_seeds(&SimConfig::paper(alg, lambda, 1), &SEEDS).unwrap();
        let thr = sim.throughput.mean;
        assert!(
            (thr - lambda).abs() < 0.1 * lambda,
            "{alg:?}: throughput {thr} vs arrival rate {lambda}"
        );
    }
}
