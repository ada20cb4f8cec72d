//! The benchmark's own serve-equivalent pipeline: one generator thread
//! and one worker thread assembled from the same public pieces
//! `serve()` uses (`OpStream`, `ArrivalProcess`, `KeyRangeRouter`,
//! `IngressQueue`, `ConcurrentBTree::execute_batch`,
//! `WindowedHistogram::session`), saturated — offered `serve-sat`'s
//! 2 000 000 ops/s whatever the mirrored workload's own λ. It exists so spans can be recorded around
//! each of those calls from outside; `serve()` itself is one call and
//! cannot be opened up without editing the crates.

use crate::spans::{Recorder, Trace};
use crate::to_batch_op;
use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_harness::fork_seed;
use cbtree_obs::metrics::WindowedHistogram;
use cbtree_serve::{IngressQueue, KeyRangeRouter, QueuedOp, ServeConfig};
use cbtree_workload::{ArrivalProcess, OpStream, OpsConfig, PoissonArrivals};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// One generator draw in 512 and one worker batch in 128 is wrapped in
/// spans: a window's worth fits the preallocated buffers.
const GEN_SPAN_EVERY: u64 = 512;
/// Offered rate: `serve-sat`'s λ, about four times what the worker
/// serves, whatever the mirrored workload's own λ.
const OFFERED_PER_S: f64 = 2e6;
const WORKER_SPAN_EVERY: u64 = 128;

/// Shape of one pipeline run, taken from the `serve()` configuration
/// it mirrors.
#[derive(Debug, Clone)]
pub struct Config {
    ops: OpsConfig,
    capacity: usize,
    initial_items: usize,
    batch_max: usize,
    queue_capacity: usize,
    seed: u64,
}

impl Config {
    /// The pipeline equivalent of `cfg` (its pacing and service floor
    /// are left out: the pipeline prices CPU work).
    pub fn from_serve(cfg: &ServeConfig) -> Self {
        Config {
            ops: cfg.ops,
            capacity: cfg.capacity,
            initial_items: cfg.initial_items,
            batch_max: cfg.batch_max,
            queue_capacity: cfg.queue_capacity,
            seed: cfg.seed,
        }
    }
}

/// What one pipeline run measured.
pub struct Run {
    /// Operations served inside the window, per second.
    pub ops_per_s: f64,
    /// `Get`s that returned a value other than their key.
    pub wrong: u64,
    /// Spans, when traced.
    pub trace: Option<Trace>,
}

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const DONE: u8 = 2;

/// Runs warm-up + window of the saturated pipeline.
pub fn run(cfg: &Config, warm: Duration, window: Duration, traced: bool) -> Run {
    let tree = ConcurrentBTree::new(Protocol::BLink, cfg.capacity);
    crate::prefill(&tree, &cfg.ops.keys, cfg.initial_items, cfg.seed);
    let queue = IngressQueue::new(cfg.queue_capacity);
    let router = KeyRangeRouter::with_space(1, cfg.ops.keys.key_space_hi());
    let sojourn = WindowedHistogram::new();
    let phase = AtomicU8::new(WARM);
    let epoch = Instant::now();

    let (gen_rec, (served, elapsed_s, wrong, work_rec)) = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let mut rec = traced.then(|| Recorder::new(0, epoch));
            let mut arrivals = ArrivalProcess::Poisson(PoissonArrivals::new(
                OFFERED_PER_S,
                fork_seed(cfg.seed, 0),
            ));
            let mut stream = OpStream::new(cfg.ops, fork_seed(!cfg.seed, 0))
                .with_seq_base(cfg.initial_items as u64);
            // Admitted so far: the ring is FIFO with one producer and
            // one consumer, so this is also the op's position in the
            // worker's pop order — the request id both sides share.
            let mut admitted = 0u64;
            let mut draws = 0u64;
            loop {
                let ph = phase.load(Ordering::Relaxed);
                if ph == DONE {
                    break;
                }
                draws += 1;
                let mut r = rec
                    .as_mut()
                    .filter(|_| draws.is_multiple_of(GEN_SPAN_EVERY));
                let root = r.as_mut().map(|r| r.begin("gen.request", admitted, 1));
                let s = r.as_mut().map(|r| r.begin("workload.arrival", admitted, 1));
                let due = epoch + Duration::from_secs_f64(arrivals.next_arrival());
                close(&mut r, s);
                // Offered like `serve-sat` offers: on the arrival
                // schedule, immediately when behind it.
                while Instant::now() < due && phase.load(Ordering::Relaxed) != DONE {
                    std::thread::yield_now();
                }
                let s = r.as_mut().map(|r| r.begin("workload.next_op", admitted, 1));
                let op = stream.next_op();
                close(&mut r, s);
                let s = r.as_mut().map(|r| r.begin("router.shard_of", admitted, 1));
                std::hint::black_box(router.shard_of(op.key()));
                close(&mut r, s);
                let item = QueuedOp {
                    op,
                    enqueued: Instant::now(),
                    measured: ph == MEASURE,
                };
                let s = r.as_mut().map(|r| r.begin("queue.push", admitted, 1));
                let pushed = queue.try_push(item).is_ok();
                close(&mut r, s);
                close(&mut r, root);
                admitted += u64::from(pushed);
            }
            rec
        });
        let worker = s.spawn(|| {
            let mut rec = traced.then(|| Recorder::new(1, epoch));
            let mut drained: Vec<QueuedOp> = Vec::with_capacity(cfg.batch_max);
            let (mut popped, mut batches, mut served, mut wrong) = (0u64, 0u64, 0u64, 0u64);
            let mut started: Option<Instant> = None;
            let mut elapsed_s = 0.0;
            loop {
                batches += 1;
                let mut r = rec
                    .as_mut()
                    .filter(|_| batches.is_multiple_of(WORKER_SPAN_EVERY));
                let root = r.as_mut().map(|r| r.begin("shard.serve", popped, 0));
                drained.clear();
                let s = r.as_mut().map(|r| r.begin("queue.pop", popped, 0));
                let n = queue.pop_batch(cfg.batch_max, &mut drained);
                if let (Some(r), Some(s), Some(root)) = (r.as_mut(), s, root) {
                    r.set_ops(s, n as u32);
                    r.set_ops(root, n as u32);
                }
                close(&mut r, s);
                if n == 0 {
                    close(&mut r, root);
                    break;
                }
                let ops: Vec<_> = drained.iter().map(|q| to_batch_op(q.op)).collect();
                let s = r.as_mut().map(|r| r.begin("btree.batch", popped, n as u32));
                let outcome = tree.execute_batch(ops);
                close(&mut r, s);
                let s = r
                    .as_mut()
                    .map(|r| r.begin("obs.session_record", popped, n as u32));
                let mut session = sojourn.session();
                for q in &drained {
                    session.record(q.enqueued.elapsed().as_nanos() as u64);
                }
                drop(session);
                close(&mut r, s);
                // Values are their keys: any other value is corruption.
                for (q, got) in drained.iter().zip(&outcome.results) {
                    wrong += u64::from(got.is_some_and(|v| v != q.op.key()));
                }
                let measured = drained.iter().filter(|q| q.measured).count() as u64;
                if measured > 0 {
                    let t0 = *started.get_or_insert_with(Instant::now);
                    served += measured;
                    elapsed_s = t0.elapsed().as_secs_f64();
                }
                popped += n as u64;
                close(&mut r, root);
            }
            (served, elapsed_s, wrong, rec)
        });
        std::thread::sleep(warm);
        phase.store(MEASURE, Ordering::Relaxed);
        std::thread::sleep(window);
        phase.store(DONE, Ordering::Relaxed);
        let gen_rec = generator.join().expect("generator panicked");
        queue.close();
        (gen_rec, worker.join().expect("worker panicked"))
    });
    if let Err(e) = tree.check() {
        panic!("pipeline: post-run structural check failed: {e}");
    }
    Run {
        ops_per_s: served as f64 / elapsed_s.max(1e-9),
        wrong,
        trace: traced.then(|| Trace::new(gen_rec.into_iter().chain(work_rec).collect())),
    }
}

fn close(rec: &mut Option<&mut Recorder>, open: Option<crate::spans::Open>) {
    if let (Some(r), Some(o)) = (rec.as_mut(), open) {
        r.end(o);
    }
}

/// The traced pass reduced to per-op self times.
pub struct Ledger {
    /// `self.*_ns_per_op` metrics: per-layer self time per op, the
    /// clock bias of each span taken out.
    pub self_ns_per_op: Vec<(&'static str, f64)>,
    /// Σ of the worker thread's named layers (pop + batch + record).
    pub worker_layers_ns_per_op: f64,
    /// p99 of `execute_batch` span durations, per op of the batch.
    pub batch_p99_ns_per_op: f64,
}

/// Reduces a traced pipeline pass; `clock_ns` is what an empty span
/// reports (see [`crate::layers::span_clock_ns`]).
pub fn ledger(trace: &Trace, clock_ns: f64) -> Ledger {
    let st = trace.self_times();
    // Self time per op of one span name: spans of a batch cover
    // several ops, and each span carries one clock bias.
    let per_op = |name: &str| {
        st.get(name).map_or(0.0, |t| {
            (t.self_ns as f64 - clock_ns * t.spans as f64).max(0.0) / t.ops.max(1) as f64
        })
    };
    let (pop, batch, record) = (
        per_op("queue.pop"),
        per_op("btree.batch"),
        per_op("obs.session_record"),
    );
    // Per-op durations of the batch spans, for the tail.
    let sizes = st
        .get("btree.batch")
        .map_or(1.0, |t| t.ops as f64 / t.spans.max(1) as f64);
    let mut d: Vec<f64> = trace
        .durations("btree.batch")
        .into_iter()
        .map(|ns| ns as f64 / sizes)
        .collect();
    d.sort_by(f64::total_cmp);
    let p99 = d
        .get((d.len() as f64 * 0.99) as usize)
        .or(d.last())
        .copied()
        .unwrap_or(0.0);
    Ledger {
        self_ns_per_op: vec![
            (
                "self.workload_ns_per_op",
                per_op("workload.arrival") + per_op("workload.next_op") + per_op("gen.request"),
            ),
            ("self.router_ns_per_op", per_op("router.shard_of")),
            ("self.queue_push_ns_per_op", per_op("queue.push")),
            ("self.queue_pop_ns_per_op", pop),
            ("self.btree_ns_per_op", batch),
            ("self.obs_ns_per_op", record),
            ("self.shard_ns_per_op", per_op("shard.serve")),
        ],
        worker_layers_ns_per_op: pop + batch + record,
        batch_p99_ns_per_op: p99,
    }
}
