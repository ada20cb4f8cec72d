//! Per-level deep dive: the framework's internal quantities — writer
//! utilization `ρ_w(i)`, shared/exclusive lock waits `R(i)`/`W(i)` —
//! side by side with the simulator's measured per-level statistics, for
//! one algorithm at one operating point.
//!
//! This is the view behind the paper's Figure 1: the B-tree as a column
//! of FCFS R/W lock queues.
//!
//! ```text
//! cargo run --release --example per_level_diagnostics [PROTOCOL] [frac_of_max]
//! ```

use cbtree::analysis::{Model, ModelConfig};
use cbtree::btree::Protocol;
use cbtree::model::{CostModel, OpMix};
use cbtree::sim::runner::matched_tree_shape;
use cbtree::sim::{run, SimConfig};

fn main() {
    let arg = std::env::args().nth(1);
    let protocol: Protocol = arg
        .as_deref()
        .unwrap_or("lock-coupling")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        });
    let frac: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.7);
    // Model the exact tree the simulator builds.
    let base_cfg = SimConfig::paper(protocol, 1.0, 1);
    let shape = matched_tree_shape(&base_cfg).expect("valid shape");
    let cost = CostModel::paper_style(shape.height, 2, 5.0, 1.0).unwrap();
    let cfg = ModelConfig::new(shape, OpMix::paper(), cost).unwrap();
    let model = Model::new(protocol, &cfg);
    let max = model.max_throughput().expect("finite or capped");
    let lambda = frac * max.min(1e4);
    println!(
        "{} at λ = {lambda:.4} ({:.0}% of max throughput {max:.4}), D = 5\n",
        protocol.name(),
        frac * 100.0,
    );

    let perf = model.evaluate(lambda).expect("stable");

    // Run the simulator once at the same point and pull per-level stats.
    let mut sim_cfg = base_cfg.clone();
    sim_cfg.arrival_rate = lambda;
    sim_cfg = sim_cfg.with_min_window(120.0, 400.0);
    let sim = run(&sim_cfg).expect("stable at this rate");

    println!(
        "level   λ_R/node   λ_W/node | R(i) mdl R(i) sim | W(i) mdl W(i) sim | ρ_w model   ρ_w sim"
    );
    // Both pillars list levels leaves first; a value the simulator did
    // not observe prints as NaN.
    for (l, s) in perf.levels.iter().zip(&sim.levels).rev() {
        let nan = |v: Option<f64>| v.unwrap_or(f64::NAN);
        println!(
            "{:>5} {:>10.5} {:>10.5} | {:>8.3} {:>8.3} | {:>8.3} {:>8.3} | {:>9.3} {:>9.3}",
            l.level,
            l.lambda_r,
            l.lambda_w,
            l.r_wait,
            nan(s.mean_r_wait),
            l.w_wait,
            nan(s.mean_w_wait),
            l.rho_w,
            nan(s.rho_w),
        );
    }
    println!(
        "\nresponse times  model: search {:.2}  insert {:.2} | simulated: search {:.2}  insert {:.2}",
        perf.response_time_search,
        perf.response_time_insert,
        sim.resp_search.mean,
        sim.resp_insert.mean,
    );
    println!(
        "root writer utilization  model {:.3} | simulated {:.3}",
        perf.root_writer_utilization(),
        sim.root_writer_utilization
    );
}
