//! The paper's central validation: the analytical framework's
//! predictions agree with discrete-event simulation of the actual
//! algorithms on actual B-trees ("The comparison shows that the analysis
//! and the simulation predict the same response times", §5.3).
//!
//! These tests run at the paper's full scale (40 000-item tree, 10 000
//! measured operations) — one simulation takes tens of milliseconds.

use cbtree::analysis::{Model, ModelConfig, Protocol};
use cbtree::model::{CostModel, OpMix};
use cbtree::sim::runner::matched_tree_shape;
use cbtree::sim::{run_seeds, SimConfig};

const SEEDS: [u64; 3] = [1, 2, 3];

/// Builds the analytical model of exactly the tree the simulation runs on.
fn matched_model(algorithm: Protocol, sim_cfg: &SimConfig) -> Model {
    let shape = matched_tree_shape(sim_cfg).expect("valid shape");
    let cost = CostModel::paper_style(
        shape.height,
        sim_cfg.costs.memory_levels,
        sim_cfg.costs.disk_cost,
        sim_cfg.costs.base,
    )
    .expect("valid cost");
    let cfg = ModelConfig::new(shape, OpMix::paper(), cost).expect("consistent");
    Model::new(algorithm, &cfg)
}

fn assert_close(what: &str, analysis: f64, sim: f64, rel_tol: f64) {
    let err = (analysis - sim).abs() / sim.max(1e-9);
    assert!(
        err < rel_tol,
        "{what}: analysis {analysis:.3} vs simulation {sim:.3} (rel err {err:.3} > {rel_tol})"
    );
}

/// One protocol's check against the simulator: its arrival rates, as
/// fractions of the model's maximum (or, for Link-type, which has no
/// effective maximum, as rates), the relative tolerance on the search,
/// insert and delete response times, and an absolute tolerance on the
/// root's ρ_w where the row checks it.
struct Row {
    protocol: Protocol,
    of_max: bool,
    lambdas: &'static [f64],
    rt_tol: f64,
    root_rho_tol: Option<f64>,
}

const ROWS: [Row; 5] = [
    // The §8 baseline saturates very early: checked well below its tiny
    // maximum.
    Row {
        protocol: Protocol::TwoPhase,
        of_max: true,
        lambdas: &[0.3, 0.5],
        rt_tol: 0.30,
        root_rho_tol: None,
    },
    // Up to 70% of the maximum; beyond that both curves blow up and
    // relative comparisons become noise-dominated (the paper's figures
    // show the same).
    Row {
        protocol: Protocol::LockCoupling,
        of_max: true,
        lambdas: &[0.3, 0.5, 0.7],
        rt_tol: 0.20,
        root_rho_tol: None,
    },
    Row {
        protocol: Protocol::OptimisticDescent,
        of_max: true,
        lambdas: &[0.3, 0.6],
        rt_tol: 0.20,
        root_rho_tol: None,
    },
    Row {
        protocol: Protocol::BLink,
        of_max: false,
        lambdas: &[0.5, 2.0, 5.0],
        rt_tol: 0.15,
        root_rho_tol: None,
    },
    // Latch-free readers: the search RT is serial work plus restart
    // rework. Measured residuals at 0.3 / 0.5 × max: search RT 3.0 % /
    // 6.5 %, insert 0.8 % / 1.6 %, delete 1.4 % / 1.1 %, root ρ_w
    // 0.181 vs 0.181 / 0.341 vs 0.329 (0.001 / 0.012).
    Row {
        protocol: Protocol::Olc,
        of_max: true,
        lambdas: &[0.3, 0.5],
        rt_tol: 0.10,
        root_rho_tol: Some(0.03),
    },
];

/// Checks `p`'s row of [`ROWS`] against the simulator.
fn validate(p: Protocol) {
    let row = ROWS
        .iter()
        .find(|r| r.protocol == p)
        .unwrap_or_else(|| panic!("{p} has no row"));
    let sim_cfg = SimConfig::paper(p, 1.0, 1);
    let model = matched_model(p, &sim_cfg);
    let max = model.max_throughput().unwrap();
    if p == Protocol::TwoPhase {
        assert!(max < 0.2, "2PL max must be tiny: {max}");
    }
    for &at in row.lambdas {
        let lambda = if row.of_max { at * max } else { at };
        let mut c = sim_cfg.clone();
        c.arrival_rate = lambda;
        let sim = run_seeds(&c, &SEEDS).expect("stable at this rate");
        let a = model
            .evaluate(lambda)
            .expect("analysis stable at this rate");
        for (what, analysis, simulated) in [
            ("search", a.response_time_search, sim.resp_search.mean),
            ("insert", a.response_time_insert, sim.resp_insert.mean),
            ("delete", a.response_time_delete, sim.resp_delete.mean),
        ] {
            let what = format!("{p} {what} RT at λ={lambda}");
            assert_close(&what, analysis, simulated, row.rt_tol);
        }
        if let Some(tol) = row.root_rho_tol {
            let (rho_a, rho_s) = (
                a.root_writer_utilization(),
                sim.root_writer_utilization.mean,
            );
            assert!(
                (rho_a - rho_s).abs() < tol,
                "{p} root rho_w at λ={lambda:.3}: analysis {rho_a:.3} vs sim {rho_s:.3}"
            );
        }
    }
}

#[test]
fn every_modelled_protocol_has_a_row() {
    let rows: Vec<Protocol> = ROWS.iter().map(|r| r.protocol).collect();
    assert_eq!(rows, Protocol::ALL_EXTENDED);
}

#[test]
fn two_phase_locking_matches_simulation() {
    validate(Protocol::TwoPhase);
}

#[test]
fn naive_lock_coupling_matches_simulation() {
    validate(Protocol::LockCoupling);
}

#[test]
fn optimistic_descent_matches_simulation() {
    validate(Protocol::OptimisticDescent);
}

#[test]
fn link_type_matches_simulation() {
    validate(Protocol::BLink);
}

#[test]
fn olc_matches_simulation() {
    validate(Protocol::Olc);
}

#[test]
fn root_writer_utilization_matches() {
    // Figure 10's quantity: ρ_w(h) from the fixed point vs the simulated
    // time-weighted writer-present indicator at the root.
    let sim_cfg = SimConfig::paper(Protocol::LockCoupling, 1.0, 1);
    let model = matched_model(Protocol::LockCoupling, &sim_cfg);
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
    let sim_cfg = SimConfig::paper(Protocol::OptimisticDescent, 1.0, 1);
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
    let sim_cfg = SimConfig::paper(Protocol::BLink, 1.0, 1);
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
        (Protocol::LockCoupling, 0.3),
        (Protocol::OptimisticDescent, 1.0),
        (Protocol::BLink, 3.0),
    ] {
        let sim = run_seeds(&SimConfig::paper(alg, lambda, 1), &SEEDS).unwrap();
        let thr = sim.throughput.mean;
        assert!(
            (thr - lambda).abs() < 0.1 * lambda,
            "{alg:?}: throughput {thr} vs arrival rate {lambda}"
        );
    }
}
