//! Quickstart: evaluate the three concurrent B-tree algorithms on the
//! paper's base configuration, print response times and maximum
//! throughputs, and cross-check one point against the simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cbtree::analysis::{Model, ModelConfig, Protocol};
use cbtree::sim::{run, SimConfig};

fn main() {
    // The paper's §5.3 setup: N = 13, ~40 000 items, 5 levels (top 2 in
    // memory), disk access 5× memory, mix .3 search / .5 insert / .2
    // delete, time unit = one root search.
    let cfg = ModelConfig::paper_base();
    println!(
        "B-tree: {} items, height {}, root fanout {:.1}, N = {}\n",
        cfg.shape.n_items,
        cfg.height(),
        cfg.shape.root_fanout(),
        cfg.shape.node.max_node_size
    );

    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>12}",
        "algorithm", "max-thru", "search@0.2", "insert@0.2", "rho_w@0.2"
    );
    for protocol in Protocol::ALL {
        let model = Model::new(protocol, &cfg);
        let max = model.max_throughput().expect("finite or capped");
        let perf = model.evaluate(0.2).expect("stable at lambda = 0.2");
        println!(
            "{:<12} {:>10.3} {:>12.2} {:>12.2} {:>12.3}",
            protocol.name(),
            max,
            perf.response_time_search,
            perf.response_time_insert,
            perf.root_writer_utilization()
        );
    }

    // Validate one operating point against the discrete-event simulator
    // (the paper's §4 protocol at full scale takes ~30 ms).
    let lambda = 0.2;
    let sim =
        run(&SimConfig::paper(Protocol::LockCoupling, lambda, 42)).expect("stable at this rate");
    let model = Model::new(Protocol::LockCoupling, &cfg);
    let analysis = model.evaluate(lambda).unwrap();
    println!(
        "\nvalidation at lambda = {lambda}: naive insert RT analysis {:.2} vs simulation {:.2} ± {:.2}",
        analysis.response_time_insert, sim.resp_insert.mean, sim.resp_insert.ci95
    );
}
