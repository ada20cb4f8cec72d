//! One shard: an independent concurrent B+-tree, its bounded ingress
//! ring, and the worker loop that drains the ring into the tree in
//! batches.

use crate::metrics::ShardMetrics;
use crate::queue::{IngressQueue, QueuedOp, Shed};
use cbtree_btree::{BatchOp, BatchScratch, BatchSummary, ConcurrentBTree};
use cbtree_obs::event::shed as shed_reason;
use cbtree_obs::trace;
use cbtree_sync::Histogram;
use cbtree_workload::Operation;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shard's shared runtime state.
pub(crate) struct ShardRuntime {
    /// The shard's own tree — no key ever crosses shards.
    pub tree: Arc<ConcurrentBTree<u64>>,
    /// The shard's bounded ingress queue.
    pub queue: Arc<IngressQueue>,
    /// The shard's always-on metrics registry, harvested by the sampler.
    pub metrics: Arc<ShardMetrics>,
}

/// Per-worker measurement accumulators, merged at join. Workers never
/// share these, so the measurement path adds no synchronization beyond
/// the queue itself.
#[derive(Default)]
pub(crate) struct WorkerLocal {
    pub served: u64,
    pub timed_out: u64,
    /// Sojourn (enqueue → batch completion) of served ops, ns.
    pub sojourn: Histogram,
    pub sojourn_sum_ns: u64,
    /// Queue age of timed-out ops at shed, ns.
    pub shed_wait: Histogram,
    /// Effective per-op service (`S/k` for an op in a size-`k` batch
    /// whose whole-batch service was `S`) raw moment sums, seconds.
    /// For `batch_max = 1` this is exactly the singleton service time.
    pub service_sum_s: f64,
    pub service_sum_sq_s2: f64,
    /// Queue-wait component of sojourn (enqueue → drain), ns.
    pub queue_wait_sum_ns: u64,
    /// Batch-wait component (time inside the batch busy period spent on
    /// the *other* ops of the batch, `S·(k−1)/k`), ns. Sojourn
    /// decomposes as queue-wait + batch-wait + effective service.
    pub batch_wait_sum_ns: u64,
    /// Batches this worker executed that contained a measured op.
    pub batches: u64,
    /// Descent accounting summed over those batches.
    pub batch_summary: BatchSummary,
    /// Per-batch-size `(batches, ΣS, ΣS²)` sums (seconds), indexed by
    /// batch size — the inputs to the M/G/c batch-service transform.
    pub batch_sizes: Vec<(u64, f64, f64)>,
}

/// Drains the shard's queue until it is closed and empty, up to
/// `batch_max` operations per wakeup, executing each drained batch
/// through the tree's sorted-batch descent.
///
/// Admission control's second gate lives here: an operation whose queue
/// wait already exceeds `max_age` at drain is shed (counted, its age
/// recorded) instead of served — under overload the queue would
/// otherwise serve only operations that have already blown any
/// deadline. Metrics are recorded only for operations that arrived
/// inside the measured window.
///
/// `service_floor` pads each batch to a minimum of one floor *per
/// descent actually paid* by sleeping out the remainder — the open-loop
/// analogue of the paper's disk-resident node cost: an in-memory tree
/// op takes ~1 µs, which pins utilization near zero at any arrival rate
/// a generator can pace; the floor makes `ρ = λ·E[X]` controllable.
/// Charging per *descent* rather than per *op* is what lets batching
/// show up in the service distribution: a batch that reuses its held
/// leaf for `k − 1` of `k` ops pays one emulated I/O where singleton
/// execution pays `k`. Sleeping (not spinning) emulates I/O: a waiting
/// server burns no CPU.
pub(crate) fn worker_loop(
    shard: u16,
    tree: &ConcurrentBTree<u64>,
    queue: &IngressQueue,
    metrics: &ShardMetrics,
    max_age: Option<Duration>,
    service_floor: Duration,
    batch_max: usize,
) -> WorkerLocal {
    let mut local = WorkerLocal::default();
    // The worker's batch memory, reused by every batch: draining,
    // executing and reporting a batch allocate nothing.
    let mut drained: Vec<QueuedOp> = Vec::with_capacity(batch_max);
    let mut ops: Vec<BatchOp<u64>> = Vec::with_capacity(batch_max);
    let mut scratch = BatchScratch::default();
    loop {
        drained.clear();
        if queue.pop_batch(batch_max, &mut drained) == 0 {
            break;
        }
        drained.retain(|q| {
            if let Some(limit) = max_age {
                let wait = q.enqueued.elapsed();
                if wait > limit {
                    metrics.worker.timed_out.inc();
                    if q.measured {
                        local.timed_out += 1;
                        local
                            .shed_wait
                            .record(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
                    }
                    trace::shed(shard, shed_reason::TIMEOUT, q.op.key());
                    return false;
                }
            }
            trace::dequeue(shard, q.op.key());
            true
        });
        if drained.is_empty() {
            continue;
        }
        let k = drained.len();
        ops.extend(drained.iter().map(|q| match q.op {
            Operation::Search(key) => BatchOp::Get(key),
            Operation::Insert(key) => BatchOp::Insert(key, key),
            Operation::Delete(key) => BatchOp::Remove(key),
        }));
        trace::batch_begin(shard, k);
        let t0 = Instant::now();
        let summary = tree.execute_batch_in(&mut ops, &mut scratch);
        std::hint::black_box(scratch.results());
        if !service_floor.is_zero() {
            let floor_total = service_floor
                .checked_mul(u32::try_from(summary.descents).unwrap_or(u32::MAX))
                .unwrap_or(Duration::MAX);
            if let Some(pad) = floor_total.checked_sub(t0.elapsed()) {
                if !pad.is_zero() {
                    std::thread::sleep(pad);
                }
            }
        }
        // One completion stamp for the whole batch: service and every
        // op's sojourn end here, so queue wait + batch wait + effective
        // service sums to sojourn exactly (up to integer division).
        let done = Instant::now();
        let service = done - t0;
        trace::batch_end(shard, k, summary.leaf_reuses);
        // The continuous metrics plane counts every batch and op —
        // warmup and drain included — so the sampler's windows describe
        // the service as it actually ran, not just the measured slice.
        metrics.worker.batches.inc();
        metrics.worker.batch_ops.add(k as u64);
        // Batch-level accounting follows the measurement window: only
        // batches carrying at least one measured op count, so warmup
        // batches don't pollute the service moments.
        if drained.iter().any(|q| q.measured) {
            local.batches += 1;
            local.batch_summary.merge(&summary);
            if local.batch_sizes.len() <= k {
                local.batch_sizes.resize(k + 1, (0, 0.0, 0.0));
            }
            let s = service.as_secs_f64();
            let entry = &mut local.batch_sizes[k];
            entry.0 += 1;
            entry.1 += s;
            entry.2 += s * s;
        }
        let eff_s = service.as_secs_f64() / k as f64;
        let service_ns = u64::try_from(service.as_nanos()).unwrap_or(u64::MAX);
        let batch_wait_ns = service_ns - service_ns / k as u64;
        // One recording session per batch: the `started`/`done` bank
        // handshake is paid once here, leaving three relaxed RMWs per
        // op inside the loop (CI budgets the benchmark's
        // `obs.session_record_ns` at <= 20 ns). The loop is tight
        // bookkeeping — no sleeps — so the sampler's harvest spin stays
        // bounded.
        let mut sojourn_session = metrics.sojourn.session();
        for q in &drained {
            let sojourn = done.saturating_duration_since(q.enqueued);
            let ns = u64::try_from(sojourn.as_nanos()).unwrap_or(u64::MAX);
            sojourn_session.record(ns);
            if !q.measured {
                continue;
            }
            local.served += 1;
            local.sojourn.record(ns);
            local.sojourn_sum_ns = local.sojourn_sum_ns.saturating_add(ns);
            let qw = t0.saturating_duration_since(q.enqueued);
            local.queue_wait_sum_ns = local
                .queue_wait_sum_ns
                .saturating_add(u64::try_from(qw.as_nanos()).unwrap_or(u64::MAX));
            local.batch_wait_sum_ns = local.batch_wait_sum_ns.saturating_add(batch_wait_ns);
            local.service_sum_s += eff_s;
            local.service_sum_sq_s2 += eff_s * eff_s;
        }
        drop(sojourn_session);
    }
    local
}

/// Outcome counters a generator keeps per shard.
#[derive(Debug, Default, Clone)]
pub(crate) struct GenLocal {
    pub offered: Vec<u64>,
    pub rejected: Vec<u64>,
}

impl GenLocal {
    pub fn new(shards: usize) -> Self {
        GenLocal {
            offered: vec![0; shards],
            rejected: vec![0; shards],
        }
    }
}

/// Routes one arrival into its shard queue, tracking measured-window
/// admission outcomes.
pub(crate) fn offer(
    runtime: &ShardRuntime,
    shard: usize,
    op: Operation,
    measured: bool,
    gen: &mut GenLocal,
) {
    if measured {
        gen.offered[shard] += 1;
    }
    let item = QueuedOp {
        op,
        enqueued: Instant::now(),
        measured,
    };
    let outcome = runtime.queue.try_push(item);
    runtime.metrics.record_offer(&outcome);
    match outcome {
        Ok(()) => trace::enqueue(shard as u16, op.key()),
        Err(Shed::QueueFull) | Err(Shed::Timeout) => {
            if measured {
                gen.rejected[shard] += 1;
            }
            trace::shed(shard as u16, shed_reason::QUEUE_FULL, op.key());
        }
    }
}
