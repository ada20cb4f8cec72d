//! Side-by-side comparison of the three algorithms — analysis *and*
//! simulation — across an arrival-rate sweep, like the paper's Figure 12
//! but parameterized from the command line.
//!
//! ```text
//! cargo run --release --example algorithm_comparison [disk_cost] [n_points]
//! ```

use cbtree::analysis::{Model, ModelConfig, Protocol};
use cbtree::sim::costs::SimCosts;
use cbtree::sim::{run_seeds, SimConfig};

fn sim_insert_rt(alg: Protocol, lambda: f64, disk_cost: f64) -> String {
    let mut cfg = SimConfig::paper(alg, lambda, 1);
    cfg.costs = SimCosts {
        base: 1.0,
        disk_cost,
        memory_levels: 2,
    };
    match run_seeds(&cfg, &[1, 2, 3]) {
        Ok(s) => format!("{:.2}", s.resp_insert.mean),
        Err(_) => "unstable".to_string(),
    }
}

fn main() {
    let disk_cost: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let points: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    // Model the exact tree the simulator's construction phase builds.
    let mut sim_cfg = SimConfig::paper(Protocol::BLink, 1.0, 1);
    sim_cfg.costs = SimCosts {
        base: 1.0,
        disk_cost,
        memory_levels: 2,
    };
    let items = sim_cfg.initial_items;
    let shape = cbtree::sim::runner::matched_tree_shape(&sim_cfg).unwrap();
    let cost = cbtree::model::CostModel::paper_style(shape.height, 2, disk_cost, 1.0).unwrap();
    let cfg = ModelConfig::new(shape, cbtree::model::OpMix::paper(), cost).unwrap();

    let naive = Model::new(Protocol::LockCoupling, &cfg);
    let optim = Model::new(Protocol::OptimisticDescent, &cfg);
    let link = Model::new(Protocol::BLink, &cfg);
    let od_max = optim.max_throughput().unwrap();

    println!("insert response times, disk cost D = {disk_cost}, tree of {items} items\n");
    println!(
        "{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "lambda", "naive(A)", "naive(S)", "optim(A)", "optim(S)", "link(A)", "link(S)"
    );
    for i in 1..=points {
        let lambda = od_max * 1.1 * i as f64 / points as f64;
        let a = |m: &Model| -> String {
            m.evaluate(lambda)
                .map(|p| format!("{:.2}", p.response_time_insert))
                .unwrap_or_else(|_| "sat".to_string())
        };
        println!(
            "{:>8.4} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
            lambda,
            a(&naive),
            sim_insert_rt(Protocol::LockCoupling, lambda, disk_cost),
            a(&optim),
            sim_insert_rt(Protocol::OptimisticDescent, lambda, disk_cost),
            a(&link),
            sim_insert_rt(Protocol::BLink, lambda, disk_cost),
        );
    }
    println!(
        "\n(A) = analytical model, (S) = discrete-event simulation (3 seeds).\n\
         The paper's ranking: link >> optimistic >> naive lock-coupling."
    );
}
