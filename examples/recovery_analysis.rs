//! The §7 application: how much index concurrency does transactional
//! recovery cost, and is Leaf-only lock retention worth a dedicated
//! protocol? Compares No-recovery / Leaf-only / Naive recovery on
//! Optimistic Descent for a given remaining-transaction time.
//!
//! ```text
//! cargo run --release --example recovery_analysis [t_trans] [disk_cost]
//! ```

use cbtree::analysis::recovery::RecoveryComparison;
use cbtree::analysis::{ModelConfig, Protocol};

fn main() {
    let t_trans: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100.0);
    let disk_cost: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);

    let cfg = ModelConfig::paper_with_disk_cost(disk_cost).expect("valid disk cost");
    let cmp = RecoveryComparison::new(Protocol::OptimisticDescent, &cfg, t_trans);

    let (max_none, max_leaf, max_naive) = cmp.max_throughputs().expect("finite maxima");
    println!("Optimistic Descent, D = {disk_cost}, T_trans = {t_trans}\n");
    println!("maximum throughput:");
    println!("  no recovery        {max_none:.4}");
    println!(
        "  leaf-only          {max_leaf:.4}  ({:.1}% of no-recovery)",
        100.0 * max_leaf / max_none
    );
    println!(
        "  naive recovery     {max_naive:.4}  ({:.1}% of no-recovery)",
        100.0 * max_naive / max_none
    );

    println!("\ninsert response times:");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "lambda", "no-recovery", "leaf-only", "naive"
    );
    for frac in [0.2, 0.4, 0.6, 0.8, 0.95] {
        let lambda = frac * max_naive;
        let row = cmp.insert_row(lambda).expect("stable below naive max");
        println!(
            "{:>8.4} {:>14.2} {:>14.2} {:>14.2}",
            lambda, row.insert_rt_none, row.insert_rt_leaf_only, row.insert_rt_naive
        );
    }

    println!(
        "\nconclusion (§7): Leaf-only retention costs only a few percent over \
         no recovery, while Naive retention cuts the sustainable throughput \
         to {:.0}% — retaining only leaf locks until commit is a cheap, \
         significant win.",
        100.0 * max_naive / max_leaf
    );
}
