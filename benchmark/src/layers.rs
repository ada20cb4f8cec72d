//! Layer prices: each public function a request crosses, timed alone
//! from outside, in ns per call. Prices that need a tree take the
//! workload's own tree, so `btree.get_ns` on `tree-read` is a
//! cache-missing get and on `tree-churn` a cache-resident one.

use crate::spans::{Recorder, Trace};
use crate::{median, price, to_batch_op, Metrics, THREADS};
use cbtree_analysis::{Algorithm, ModelConfig};
use cbtree_btree::{BatchSummary, ConcurrentBTree, Protocol};
use cbtree_harness::{fork_seed, LiveConfig};
use cbtree_obs::metrics::WindowedHistogram;
use cbtree_serve::{IngressQueue, KeyRangeRouter, QueuedOp};
use cbtree_sync::{FcfsRwLock, SamplePeriod};
use cbtree_workload::{ArrivalProcess, OpStream, Operation, OpsConfig, PoissonArrivals, Rng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Time spent on one price.
const BUDGET: Duration = Duration::from_millis(120);

/// What an empty span reports as its own duration: the clock bias
/// inside every span, subtracted before spans enter the ledger.
pub fn span_clock_ns() -> f64 {
    let mut rec = Recorder::new(0, Instant::now());
    for i in 0..10_000 {
        let s = rec.begin("empty", i, 1);
        rec.end(s);
    }
    let d: Vec<f64> = Trace::new(vec![rec])
        .durations("empty")
        .into_iter()
        .map(|ns| ns as f64)
        .collect();
    median(&d)
}

/// Price of a single-threaded `get` on `tree`, keys uniform over
/// `[0, key_hi)` — fresh keys every call, so a tree beyond the cache
/// stays beyond it.
pub fn get_ns(tree: &ConcurrentBTree<u64>, key_hi: u64, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x6E7);
    price(512, BUDGET * 2, || {
        black_box(tree.get(&rng.next_below(key_hi.max(1))));
    })
}

/// Prices that modify `tree`: `insert`, `remove`, and `execute_batch`
/// at sizes 1 and 16 over the workload's own mix. Fills
/// `btree.descents_per_op` / `btree.leaf_reuse_frac` from the size-16
/// batches unless the workload already measured them in service.
pub fn mutating(tree: &ConcurrentBTree<u64>, cfg: &OpsConfig, seed: u64, m: &mut Metrics) {
    let mut rng = Rng::new(seed ^ 0x1A5);
    let len = tree.len() as u64;
    let (mut ins, mut rem) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + BUDGET * 2;
    let mut drawn = 0u64;
    while Instant::now() < deadline || ins.len() < 5 {
        let keys: Vec<u64> = (0..512)
            .map(|_| {
                drawn += 1;
                // Uniform over the key space, or the next append
                // position of a sequential stream.
                cfg.keys.sample(&mut rng, len + drawn)
            })
            .collect();
        let t0 = Instant::now();
        let fresh: Vec<bool> = keys.iter().map(|&k| tree.insert(k, k).is_none()).collect();
        ins.push(t0.elapsed().as_nanos() as f64 / keys.len() as f64);
        // Take out exactly what went in, so the tree keeps its size.
        let n = fresh.iter().filter(|f| **f).count();
        let t0 = Instant::now();
        for (k, _) in keys.iter().zip(&fresh).filter(|(_, f)| **f) {
            black_box(tree.remove(k));
        }
        if n > 0 {
            rem.push(t0.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    m.insert("btree.insert_ns", median(&ins));
    m.insert("btree.remove_ns", median(&rem));

    let mut stream = OpStream::new(*cfg, seed ^ 0xBA7).with_seq_base(tree.len() as u64 + (1 << 40));
    m.insert(
        "btree.batch1_ns_per_op",
        price(256, BUDGET * 2, || {
            black_box(tree.execute_batch(vec![to_batch_op(stream.next_op())]));
        }),
    );
    let mut summary = BatchSummary::default();
    let per_batch = price(16, BUDGET * 2, || {
        let ops: Vec<_> = (0..16).map(|_| to_batch_op(stream.next_op())).collect();
        summary.merge(&black_box(tree.execute_batch(ops)).summary);
    });
    m.insert("btree.batch16_ns_per_op", per_batch / 16.0);
    let ops = summary.ops.max(1) as f64;
    m.entry("btree.descents_per_op")
        .or_insert(summary.descents as f64 / ops);
    m.entry("btree.leaf_reuse_frac")
        .or_insert(summary.leaf_reuses as f64 / ops);
}

fn queued(key: u64) -> QueuedOp {
    QueuedOp {
        op: Operation::Search(key),
        enqueued: Instant::now(),
        measured: true,
    }
}

/// Ring prices, one thread: push into a non-full ring, pop from a
/// non-empty one (so neither side ever parks).
fn queue_prices(m: &mut Metrics) {
    const ROUND: usize = 1024;
    let q = IngressQueue::new(4096);
    let item = queued(7);
    let mut out = Vec::with_capacity(ROUND);
    let (mut push, mut pop1, mut pop16) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..64 {
        let t0 = Instant::now();
        for _ in 0..ROUND {
            black_box(q.try_push(item)).expect("ring has room");
        }
        push.push(t0.elapsed().as_nanos() as f64 / ROUND as f64);
        out.clear();
        let t0 = Instant::now();
        if round % 2 == 0 {
            for _ in 0..ROUND {
                q.pop_batch(1, &mut out);
            }
            pop1.push(t0.elapsed().as_nanos() as f64 / ROUND as f64);
        } else {
            for _ in 0..ROUND / 16 {
                q.pop_batch(16, &mut out);
            }
            pop16.push(t0.elapsed().as_nanos() as f64 / ROUND as f64);
        }
        assert_eq!(out.len(), ROUND, "every pushed op came back");
    }
    m.insert("queue.push_ns", median(&push));
    m.insert("queue.pop1_ns", median(&pop1));
    m.insert("queue.pop16_ns_per_op", median(&pop16));
}

/// Median push → parked-consumer wake latency, two threads: the
/// producer waits long enough between pushes for the consumer to park
/// on the doorbell, and the consumer clocks each op from its stamp.
fn queue_handoff_ns() -> f64 {
    const ROUNDS: usize = 300;
    let q = IngressQueue::new(64);
    let acked = AtomicUsize::new(0);
    let lat = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let mut lat = Vec::with_capacity(ROUNDS);
            let mut buf = Vec::with_capacity(1);
            while q.pop_batch(1, &mut buf) > 0 {
                lat.push(buf[0].enqueued.elapsed().as_nanos() as f64);
                buf.clear();
                acked.fetch_add(1, Ordering::Release);
            }
            lat
        });
        for i in 0..ROUNDS {
            std::thread::sleep(Duration::from_micros(200));
            q.try_push(queued(i as u64)).expect("ring has room");
            while acked.load(Ordering::Acquire) <= i {
                std::hint::spin_loop();
            }
        }
        q.close();
        consumer.join().expect("consumer panicked")
    });
    median(&lat)
}

fn lock_prices(m: &mut Metrics) {
    for (sample, read, write) in [
        (SamplePeriod::EXACT, "sync.read_acq_ns", "sync.write_acq_ns"),
        (
            SamplePeriod::every(64),
            "sync.read_acq_sampled_ns",
            "sync.write_acq_sampled_ns",
        ),
    ] {
        let lock = FcfsRwLock::with_sampling(0u64, sample);
        m.insert(read, price(4096, BUDGET, || drop(black_box(lock.read()))));
        m.insert(
            write,
            price(4096, BUDGET, || {
                *lock.write() += 1;
            }),
        );
    }
}

fn obs_prices(m: &mut Metrics) {
    let h = WindowedHistogram::new();
    let mut ns = 1_000u64;
    m.insert(
        "obs.record_ns",
        price(4096, BUDGET, || {
            ns = ns % 50_000 + 997;
            h.record(black_box(ns));
        }),
    );
    let per_session = price(256, BUDGET, || {
        let mut s = h.session();
        for _ in 0..16 {
            ns = ns % 50_000 + 997;
            s.record(black_box(ns));
        }
    });
    m.insert("obs.session_record_ns", per_session / 16.0);
}

/// What `harness::run` adds around a tree call: its per-op time minus
/// that of a bare closed loop on the same configuration (the library's
/// paper default, whatever the workload — this prices the harness).
fn harness_overhead_ns(seed: u64) -> f64 {
    let cfg = LiveConfig {
        warmup: Duration::from_millis(100),
        measure: Duration::from_millis(600),
        seed,
        ..LiveConfig::paper(Protocol::BLink, THREADS)
    };
    let harness_ns = THREADS as f64 * 1e9 / cbtree_harness::run(&cfg).throughput;

    let tree = ConcurrentBTree::new(cfg.protocol, cfg.capacity);
    crate::prefill(&tree, &cfg.ops.keys, cfg.initial_items, seed);
    let stop = AtomicBool::new(false);
    let done: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let (tree, stop) = (&tree, &stop);
                let mut stream = OpStream::new(cfg.ops, fork_seed(seed, t));
                s.spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        match stream.next_op() {
                            Operation::Search(k) => black_box(tree.get(&k)),
                            Operation::Insert(k) => black_box(tree.insert(k, k)),
                            Operation::Delete(k) => black_box(tree.remove(&k)),
                        };
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        std::thread::sleep(cfg.warmup + cfg.measure);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("loop")).sum()
    });
    let bare_ns = THREADS as f64 * 1e9 * (cfg.warmup + cfg.measure).as_secs_f64() / done as f64;
    harness_ns - bare_ns
}

/// Prices that need no tree of the workload's: generator, router,
/// ring, lock, metrics plane, harness and the analytical solver.
pub fn standalone(cfg: &OpsConfig, seed: u64) -> Metrics {
    let mut m = Metrics::new();
    let mut stream = OpStream::new(*cfg, seed);
    m.insert(
        "workload.next_op_ns",
        price(4096, BUDGET, || {
            black_box(stream.next_op());
        }),
    );
    let mut arrivals = ArrivalProcess::Poisson(PoissonArrivals::new(1e6, seed));
    m.insert(
        "workload.arrival_ns",
        price(4096, BUDGET, || {
            black_box(arrivals.next_arrival());
        }),
    );
    let router = KeyRangeRouter::with_space(1, cfg.keys.key_space_hi());
    let mut rng = Rng::new(seed);
    let keys: Vec<u64> = (0..4096).map(|i| cfg.keys.sample(&mut rng, i)).collect();
    let mut i = 0;
    m.insert(
        "router.shard_of_ns",
        price(4096, BUDGET, || {
            i = (i + 1) & 4095;
            black_box(router.shard_of(black_box(keys[i])));
        }),
    );
    queue_prices(&mut m);
    m.insert("queue.handoff_ns", queue_handoff_ns());
    lock_prices(&mut m);
    obs_prices(&mut m);
    m.insert("harness.overhead_ns_per_op", harness_overhead_ns(seed));
    let model = Algorithm::LinkType.model(&ModelConfig::paper_base());
    let lambda = 0.5 * model.max_throughput().expect("paper base has a maximum");
    m.insert(
        "core.solve_us",
        price(16, BUDGET, || {
            black_box(
                model
                    .evaluate(black_box(lambda))
                    .expect("stable at half load"),
            );
        }) / 1e3,
    );
    m
}
