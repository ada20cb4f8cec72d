//! Drives the *real* threaded B+-trees with the paper's operation mix and
//! reports per-protocol throughput plus the algorithm-specific statistics
//! the analysis predicts (optimistic redo rate, link crossing rate).
//!
//! ```text
//! cargo run --release --example btree_stress [threads] [ops_per_thread]
//! ```

use cbtree::btree::{ConcurrentBTree, Protocol};
use cbtree::workload::{OpStream, Operation, OpsConfig};
use std::time::Instant;

fn run_mix(tree: &ConcurrentBTree<u64>, threads: u64, per_thread: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = &*tree;
            s.spawn(move || {
                let mut stream = OpStream::new(OpsConfig::paper(1_000_000), 77 + t);
                for _ in 0..per_thread {
                    match stream.next_op() {
                        Operation::Search(k) => {
                            std::hint::black_box(tree.get(&k));
                        }
                        Operation::Insert(k) => {
                            tree.insert(k, k);
                        }
                        Operation::Delete(k) => {
                            tree.remove(&k);
                        }
                    }
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads as usize * per_thread) as f64 / secs / 1e6
}

fn prefill(tree: &ConcurrentBTree<u64>, items: u64) {
    let mut stream = OpStream::new(OpsConfig::paper(1_000_000), 5);
    let mut n = 0;
    while n < items {
        if let Operation::Insert(k) = stream.next_op() {
            if tree.insert(k, k).is_none() {
                n += 1;
            }
        }
    }
}

fn main() {
    let threads: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let per_thread: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);

    println!(
        "paper mix (.3/.5/.2), {threads} threads x {per_thread} ops, \
         100k-item prefill, node capacity 64\n"
    );
    println!("{:<16} {:>12} {:>12}", "protocol", "Mops/s", "final len");
    for protocol in Protocol::ALL {
        let tree = ConcurrentBTree::new(protocol, 64);
        prefill(&tree, 100_000);
        let mops = run_mix(&tree, threads, per_thread);
        println!("{:<16} {:>12.2} {:>12}", protocol.name(), mops, tree.len());
        tree.check()
            .expect("tree invariants must hold after the run");
    }

    // Protocol-specific statistics from each tree's counters.
    let blink = ConcurrentBTree::<u64>::new(Protocol::BLink, 8);
    std::thread::scope(|s| {
        for t in 0..threads {
            let blink = &blink;
            s.spawn(move || {
                for i in 0..50_000u64 {
                    blink.insert(i * threads + t, i);
                }
            });
        }
    });
    println!(
        "\nb-link crossings per op under {} contending inserters: {:.5} \
         (the paper's Figure 9: link chasing is rare)",
        threads,
        blink.counters().chases as f64 / (threads as f64 * 50_000.0)
    );

    let od = ConcurrentBTree::<u64>::new(Protocol::OptimisticDescent, 13);
    let mut stream = OpStream::new(OpsConfig::paper(1_000_000), 9);
    let mut inserts = 0u64;
    for _ in 0..200_000 {
        match stream.next_op() {
            Operation::Insert(k) => {
                od.insert(k, k);
                inserts += 1;
            }
            Operation::Delete(k) => {
                od.remove(&k);
            }
            Operation::Search(_) => {}
        }
    }
    println!(
        "optimistic redo rate with N=13: {:.4} per update \
         (analysis predicts ~ q_i·Pr[F(1)] ≈ 0.05 of all ops)",
        od.counters().restarts as f64 / inserts.max(1) as f64
    );
}
