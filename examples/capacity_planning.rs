//! Capacity planning with the rules of thumb (§6): given a workload mix
//! and a storage profile, how large should B-tree nodes be, and which
//! algorithm sustains the target arrival rate?
//!
//! Reproduces the paper's design guidance — the Naive Lock-coupling
//! algorithm's effective maximum barely moves with node size (with a
//! binary-search cost it *degrades*), while Optimistic Descent scales
//! like N/log²N, so it wants nodes as large as possible.
//!
//! ```text
//! cargo run --release --example capacity_planning [target_rate]
//! ```

use cbtree::analysis::{rules_of_thumb, Model, ModelConfig, Protocol};
use cbtree::model::{CostModel, NodeParams, OpMix, SearchCost, TreeShape};

fn config_for(n: usize, items: u64, disk_cost: f64) -> ModelConfig {
    let shape = TreeShape::derive(items, NodeParams::with_max_size(n).unwrap()).unwrap();
    // Binary-search node cost: a + b·log2(N) — the §6 model that makes
    // node size a genuine trade-off.
    let cost = CostModel::with_search_cost(
        shape.height,
        2,
        disk_cost,
        SearchCost::BinarySearch { a: 0.5, b: 0.125 },
        &NodeParams::with_max_size(n).unwrap(),
    )
    .unwrap();
    ModelConfig::new(shape, OpMix::paper(), cost).unwrap()
}

fn main() {
    let target: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let items = 1_000_000u64;
    let disk_cost = 5.0;

    println!("workload: mix .3/.5/.2, {items} items, disk cost {disk_cost}, binary-search nodes");
    println!("target sustained arrival rate: {target} ops/unit\n");
    println!(
        "{:>5} {:>3} | {:>12} {:>10} | {:>12} {:>10} | {:>12}",
        "N", "h", "naive rho=.5", "RoT 1", "optim rho=.5", "RoT 3", "link max"
    );

    let mut best: Option<(&str, usize, f64)> = None;
    for n in [13usize, 29, 59, 101, 201, 401] {
        let cfg = config_for(n, items, disk_cost);
        let naive = Model::new(Protocol::LockCoupling, &cfg);
        let optim = Model::new(Protocol::OptimisticDescent, &cfg);
        let link = Model::new(Protocol::BLink, &cfg);

        let naive_half = naive.lambda_at_root_rho(0.5).unwrap_or(f64::NAN);
        let optim_half = optim.lambda_at_root_rho(0.5).unwrap_or(f64::NAN);
        let link_max = link.max_throughput().unwrap_or(f64::NAN);
        let rot1 = rules_of_thumb::naive_lc_rot1(&cfg).unwrap_or(f64::NAN);
        let rot3 = rules_of_thumb::optimistic_rot3(&cfg).unwrap_or(f64::NAN);

        println!(
            "{:>5} {:>3} | {:>12.4} {:>10.4} | {:>12.4} {:>10.4} | {:>12.1}",
            n,
            cfg.height(),
            naive_half,
            rot1,
            optim_half,
            rot3,
            link_max
        );

        for (name, v) in [("lock-coupling", naive_half), ("optimistic", optim_half)] {
            if v.is_finite() && v >= target {
                let better = match best {
                    Some((_, _, b)) => v > b,
                    None => true,
                };
                if better {
                    best = Some((name, n, v));
                }
            }
        }
    }

    println!();
    match best {
        Some((alg, n, v)) => println!(
            "recommendation: {alg} with N = {n} sustains the target \
             (effective max {v:.3} ≥ {target})"
        ),
        None => println!(
            "no coupling-based configuration reaches {target}; use the \
             link-type algorithm (its effective maximum is far beyond the target)"
        ),
    }
    println!(
        "rule of thumb (§6): lock-coupling wants SMALL nodes; optimistic \
         descent wants LARGE nodes (effective max ∝ N/log²N)."
    );
}
