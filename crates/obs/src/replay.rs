//! Trace replay: reconstructs per-level utilization and wait/hold
//! statistics from a drained event stream.
//!
//! Pairing is per thread: latch acquisition is blocking, so between a
//! thread's `LatchRequest` and the matching `LatchGrant` that thread
//! emits no other latch event, and a grant's `LatchRelease` is matched
//! by `(thread, node)`. Ring buffers overwrite their oldest events
//! under pressure, so the replay computes utilization over the window
//! every surviving thread covers: from the latest per-thread first
//! timestamp to the latest timestamp overall. Holds are clipped to that
//! window; grants whose release was overwritten are counted in
//! [`Replay::unmatched`] and still contribute hold time to the window
//! end (they were genuinely held).

use crate::event::{opcode, EventKind, MODE_EXCLUSIVE, OP_HIT};
use crate::json::Json;
use crate::level::LevelRecord;
use crate::trace::Trace;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Per-operation-kind reconstruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpReplay {
    /// Operation name (see [`opcode::NAMES`]).
    pub op: &'static str,
    /// Completed operations (begin/end pairs).
    pub completed: u64,
    /// Mean begin→end nanoseconds over completed pairs.
    pub mean_ns: f64,
}

/// Per-shard batched-execution reconstruction (from
/// `BatchBegin`/`BatchEnd` pairs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReplay {
    /// Shard index the batches ran on.
    pub shard: u16,
    /// Completed batches (begin/end pairs).
    pub batches: u64,
    /// Operations across those batches (sum of batch sizes).
    pub ops: u64,
    /// Operations served from an already-held leaf (descents saved by
    /// sorted-batch amortization).
    pub leaf_reuses: u64,
    /// Largest batch observed (clamped at 255 in the events).
    pub max_size: u8,
    /// Mean begin→end nanoseconds over completed batches.
    pub mean_ns: f64,
}

impl BatchReplay {
    /// Mean operations per batch (0 when no batches completed).
    pub fn mean_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }

    /// Fraction of operations that reused a held leaf.
    pub fn reuse_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.leaf_reuses as f64 / self.ops as f64
        }
    }
}

/// Everything reconstructed from one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Window start: latest first-event timestamp across threads (the
    /// instant from which every surviving ring has coverage).
    pub window_start_ns: u64,
    /// Window end: latest event timestamp.
    pub window_end_ns: u64,
    /// Per-level records, tree levels only (level ≥ 1), leaves first, in
    /// seconds: `rho_w` from the per-node union of exclusive request →
    /// release intervals, `rho_w_hold` from grant → release only.
    pub levels: Vec<LevelRecord>,
    /// Per-op-kind reconstructions, ops that occurred only.
    pub ops: Vec<OpReplay>,
    /// Optimistic restarts.
    pub restarts: u64,
    /// Right-link chases.
    pub chases: u64,
    /// Completed split windows (begin/end pairs).
    pub splits: u64,
    /// Mean split-window nanoseconds over completed pairs.
    pub mean_split_ns: f64,
    /// Transaction commits.
    pub txn_commits: u64,
    /// Latch spill-and-retry events.
    pub txn_spills: u64,
    /// Deepest simultaneous latch chain observed on any thread.
    pub peak_latch_chain: usize,
    /// Grants or releases whose counterpart was overwritten.
    pub unmatched: u64,
    /// Events dropped by ring overwrite (copied from the trace).
    pub dropped: u64,
    /// Service-layer ingress enqueues (generator → shard queue).
    pub enqueues: u64,
    /// Service-layer dequeues (worker picked the operation up).
    pub dequeues: u64,
    /// Operations dropped by admission control (full queue or timeout).
    pub sheds: u64,
    /// Per-shard batched-execution statistics, shards with batches
    /// only, ascending shard index.
    pub batches: Vec<BatchReplay>,
}

impl Replay {
    /// Window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_end_ns.saturating_sub(self.window_start_ns)
    }

    /// Serializes the `trace_summary` JSONL record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::from("trace_summary")),
            ("window_start_ns", Json::from(self.window_start_ns)),
            ("window_end_ns", Json::from(self.window_end_ns)),
            (
                "levels",
                Json::arr(self.levels.iter().map(LevelRecord::to_json)),
            ),
            (
                "ops",
                Json::arr(self.ops.iter().map(|o| {
                    Json::obj([
                        ("op", Json::from(o.op)),
                        ("completed", Json::from(o.completed)),
                        ("mean_ns", Json::f64_or_null(o.mean_ns)),
                    ])
                })),
            ),
            ("restarts", Json::from(self.restarts)),
            ("chases", Json::from(self.chases)),
            ("splits", Json::from(self.splits)),
            ("mean_split_ns", Json::f64_or_null(self.mean_split_ns)),
            ("txn_commits", Json::from(self.txn_commits)),
            ("txn_spills", Json::from(self.txn_spills)),
            ("peak_latch_chain", Json::from(self.peak_latch_chain)),
            ("unmatched", Json::from(self.unmatched)),
            ("dropped", Json::from(self.dropped)),
            ("enqueues", Json::from(self.enqueues)),
            ("dequeues", Json::from(self.dequeues)),
            ("sheds", Json::from(self.sheds)),
            (
                "batches",
                Json::arr(self.batches.iter().map(|b| {
                    Json::obj([
                        ("shard", Json::from(u64::from(b.shard))),
                        ("batches", Json::from(b.batches)),
                        ("ops", Json::from(b.ops)),
                        ("leaf_reuses", Json::from(b.leaf_reuses)),
                        ("max_size", Json::from(u64::from(b.max_size))),
                        ("mean_size", Json::from(b.mean_size())),
                        ("reuse_rate", Json::from(b.reuse_rate())),
                        ("mean_ns", Json::f64_or_null(b.mean_ns)),
                    ])
                })),
            ),
        ])
    }
}

#[derive(Default)]
struct LevelAccum {
    nodes: HashSet<u64>,
    /// Per-node exclusive presence intervals (request → release).
    w_intervals: HashMap<u64, Vec<(u64, u64)>>,
    w_busy_ns: u64,
    /// Per mode, shared then exclusive: grants, and (count, total ns)
    /// of matched waits and of matched holds.
    grants: [u64; 2],
    waits: [(u64, u64); 2],
    holds: [(u64, u64); 2],
}

/// Reconstructs per-level and per-op statistics from a drained trace.
pub fn replay(trace: &Trace) -> Replay {
    let mut out = Replay {
        dropped: trace.dropped,
        ..Replay::default()
    };
    if trace.events.is_empty() {
        return out;
    }

    // Window: latest first-event ts per thread .. latest ts overall.
    let mut first_by_thread: HashMap<u32, u64> = HashMap::new();
    for e in &trace.events {
        first_by_thread.entry(e.thread).or_insert(e.ts_ns);
        out.window_end_ns = out.window_end_ns.max(e.ts_ns);
    }
    out.window_start_ns = first_by_thread.values().copied().max().unwrap_or(0);
    let (start, end) = (out.window_start_ns, out.window_end_ns);
    let clipped = |a: u64, b: u64| -> u64 { b.min(end).saturating_sub(a.max(start)) };

    let mut levels: BTreeMap<u16, LevelAccum> = BTreeMap::new();
    // (thread, node) → (request ts, exclusive, level) of the in-flight
    // blocking acquire.
    let mut requests: HashMap<(u32, u64), (u64, bool, u16)> = HashMap::new();
    // (thread, node) → (grant ts, exclusive, level, presence start) of a
    // held latch; presence starts at the request (a queued writer
    // already counts toward ρ_w) or at the grant when the request was
    // overwritten.
    let mut held: HashMap<(u32, u64), (u64, bool, u16, u64)> = HashMap::new();
    // thread → held-latch count (peak chain depth).
    let mut chain: HashMap<u32, usize> = HashMap::new();
    // thread → per-op-kind begin ts.
    let mut op_begin: HashMap<(u32, u8), u64> = HashMap::new();
    let mut op_ns: [(u64, u64); opcode::NAMES.len()] = Default::default();
    // (thread, node) → split-begin ts.
    let mut split_begin: HashMap<(u32, u64), u64> = HashMap::new();
    let mut split_ns: (u64, u64) = (0, 0);
    // (thread, shard) → batch-begin ts.
    let mut batch_begin: HashMap<(u32, u16), u64> = HashMap::new();
    // shard → (batches, ops, leaf_reuses, max_size, total ns).
    let mut batch_acc: HashMap<u16, (u64, u64, u64, u8, u64)> = HashMap::new();

    for e in &trace.events {
        match e.kind {
            EventKind::LatchRequest => {
                let exclusive = e.arg & MODE_EXCLUSIVE != 0;
                requests.insert((e.thread, e.node), (e.ts_ns, exclusive, e.level));
            }
            EventKind::LatchGrant => {
                let exclusive = e.arg & MODE_EXCLUSIVE != 0;
                let acc = levels.entry(e.level).or_default();
                acc.nodes.insert(e.node);
                let mode = usize::from(exclusive);
                let mut presence_start = e.ts_ns;
                if let Some((req, _, _)) = requests.remove(&(e.thread, e.node)) {
                    presence_start = req;
                    let wait = &mut acc.waits[mode];
                    *wait = (wait.0 + 1, wait.1 + e.ts_ns.saturating_sub(req));
                } else {
                    out.unmatched += 1;
                }
                acc.grants[mode] += 1;
                if held
                    .insert(
                        (e.thread, e.node),
                        (e.ts_ns, exclusive, e.level, presence_start),
                    )
                    .is_none()
                {
                    let depth = chain.entry(e.thread).or_insert(0);
                    *depth += 1;
                    out.peak_latch_chain = out.peak_latch_chain.max(*depth);
                }
            }
            EventKind::LatchRelease => {
                if let Some((granted, exclusive, level, presence_start)) =
                    held.remove(&(e.thread, e.node))
                {
                    if let Some(depth) = chain.get_mut(&e.thread) {
                        *depth = depth.saturating_sub(1);
                    }
                    let acc = levels.entry(level).or_default();
                    let hold = &mut acc.holds[usize::from(exclusive)];
                    *hold = (hold.0 + 1, hold.1 + e.ts_ns.saturating_sub(granted));
                    if exclusive {
                        acc.w_busy_ns += clipped(granted, e.ts_ns);
                        acc.w_intervals
                            .entry(e.node)
                            .or_default()
                            .push((presence_start, e.ts_ns));
                    }
                } else {
                    out.unmatched += 1;
                }
            }
            EventKind::OpBegin => {
                op_begin.insert((e.thread, e.arg), e.ts_ns);
            }
            EventKind::OpEnd => {
                let op = e.arg & !OP_HIT;
                if let Some(begin) = op_begin.remove(&(e.thread, op)) {
                    if let Some(slot) = op_ns.get_mut(op as usize) {
                        slot.0 += 1;
                        slot.1 += e.ts_ns.saturating_sub(begin);
                    }
                }
            }
            EventKind::Restart => out.restarts += 1,
            EventKind::Chase => out.chases += 1,
            EventKind::SplitBegin => {
                split_begin.insert((e.thread, e.node), e.ts_ns);
            }
            EventKind::SplitEnd => {
                if let Some(begin) = split_begin.remove(&(e.thread, e.node)) {
                    split_ns.0 += 1;
                    split_ns.1 += e.ts_ns.saturating_sub(begin);
                }
            }
            EventKind::TxnCommit => out.txn_commits += 1,
            EventKind::TxnSpill => out.txn_spills += 1,
            EventKind::Enqueue => out.enqueues += 1,
            EventKind::Dequeue => out.dequeues += 1,
            EventKind::Shed => out.sheds += 1,
            EventKind::BatchBegin => {
                batch_begin.insert((e.thread, e.level), e.ts_ns);
            }
            EventKind::BatchEnd => {
                if let Some(begin) = batch_begin.remove(&(e.thread, e.level)) {
                    let acc = batch_acc.entry(e.level).or_default();
                    acc.0 += 1;
                    acc.1 += u64::from(e.arg);
                    acc.2 += e.node;
                    acc.3 = acc.3.max(e.arg);
                    acc.4 += e.ts_ns.saturating_sub(begin);
                }
            }
        }
    }

    // Latches still held when the trace ends were genuinely busy to the
    // window end; writers still queued at trace end were present too.
    for (&(_, node), &(granted, exclusive, level, presence_start)) in &held {
        out.unmatched += 1;
        if exclusive {
            let acc = levels.entry(level).or_default();
            acc.w_busy_ns += clipped(granted, end);
            acc.w_intervals
                .entry(node)
                .or_default()
                .push((presence_start, end));
        }
    }
    for (&(_, node), &(req, exclusive, level)) in &requests {
        if exclusive {
            let acc = levels.entry(level).or_default();
            acc.nodes.insert(node);
            acc.w_intervals.entry(node).or_default().push((req, end));
        }
    }

    let window = out.window_ns().max(1) as f64;
    let mean = |sum: u64, n: u64| LevelRecord::mean(sum as f64, n).unwrap_or(f64::NAN);
    // Per-node union of presence intervals, clipped to the window:
    // overlapping writers (one holding, more queued) must not be
    // double-counted — ρ_w is "a writer is present", not "number of
    // writers present".
    let present_ns = |iv: &HashMap<u64, Vec<(u64, u64)>>| -> u64 {
        let mut total = 0u64;
        for spans in iv.values() {
            let mut spans = spans.clone();
            spans.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in spans {
                match &mut cur {
                    Some((_, e0)) if a <= *e0 => *e0 = (*e0).max(b),
                    _ => {
                        if let Some((s, e0)) = cur.take() {
                            total += clipped(s, e0);
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((s, e0)) = cur {
                total += clipped(s, e0);
            }
        }
        total
    };
    let mean_secs = |(n, ns): (u64, u64)| LevelRecord::mean(ns as f64 * 1e-9, n);
    out.levels = levels
        .range(1..)
        .map(|(&level, a)| {
            let nodes = a.nodes.len() as u64;
            let node_window = nodes.max(1) as f64 * window;
            let per_node_s = |n: u64| n as f64 / (node_window * 1e-9);
            LevelRecord {
                level: usize::from(level),
                nodes: Some(nodes),
                r_acquires: Some(a.grants[0]),
                w_acquires: Some(a.grants[1]),
                lambda_r: Some(per_node_s(a.grants[0])),
                lambda_w: Some(per_node_s(a.grants[1])),
                rho_w: Some(present_ns(&a.w_intervals) as f64 / node_window),
                rho_w_hold: Some(a.w_busy_ns as f64 / node_window),
                mean_r_wait: mean_secs(a.waits[0]),
                mean_w_wait: mean_secs(a.waits[1]),
                mean_r_hold: mean_secs(a.holds[0]),
                mean_w_hold: mean_secs(a.holds[1]),
            }
        })
        .collect();
    out.ops = op_ns
        .iter()
        .enumerate()
        .filter(|(_, (n, _))| *n > 0)
        .map(|(i, &(n, sum))| OpReplay {
            op: opcode::NAMES[i],
            completed: n,
            mean_ns: mean(sum, n),
        })
        .collect();
    out.splits = split_ns.0;
    out.mean_split_ns = mean(split_ns.1, split_ns.0);
    let mut shards: Vec<u16> = batch_acc.keys().copied().collect();
    shards.sort_unstable();
    out.batches = shards
        .into_iter()
        .map(|shard| {
            let (batches, ops, leaf_reuses, max_size, total_ns) = batch_acc[&shard];
            BatchReplay {
                shard,
                batches,
                ops,
                leaf_reuses,
                max_size,
                mean_ns: mean(total_ns, batches),
            }
        })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn close(got: Option<f64>, want: f64) -> bool {
        got.is_some_and(|x| (x - want).abs() <= 1e-12 * want.abs().max(1.0))
    }

    fn ev(ts: u64, thread: u32, kind: EventKind, arg: u8, level: u16, node: u64) -> Event {
        Event {
            ts_ns: ts,
            thread,
            kind,
            arg,
            level,
            node,
        }
    }

    #[test]
    fn reconstructs_rho_w_from_one_writer() {
        // One node at level 1: writer present (queued from 10, holding
        // from 20) until 60 of the 100ns window; both threads' coverage
        // starts at 0.
        let trace = Trace {
            events: vec![
                ev(0, 1, EventKind::Chase, 0, 0, 0),
                ev(0, 0, EventKind::OpBegin, opcode::SEARCH, 0, 0),
                ev(10, 0, EventKind::LatchRequest, MODE_EXCLUSIVE, 1, 7),
                ev(20, 0, EventKind::LatchGrant, MODE_EXCLUSIVE, 1, 7),
                ev(60, 0, EventKind::LatchRelease, MODE_EXCLUSIVE, 1, 7),
                ev(100, 1, EventKind::Chase, 0, 0, 0),
            ],
            dropped: 0,
            threads: 2,
        };
        let r = replay(&trace);
        assert_eq!(r.window_ns(), 100);
        let lvl = &r.levels[0];
        assert_eq!(lvl.level, 1);
        assert_eq!(lvl.nodes, Some(1));
        assert_eq!((lvl.w_acquires, lvl.r_acquires), (Some(1), Some(0)));
        // One grant on one node over 100 ns.
        assert!(close(lvl.lambda_w, 1e7), "{lvl:?}");
        // Presence spans request→release (50 ns); hold-only spans
        // grant→release (40 ns).
        assert!(close(lvl.rho_w, 0.50), "{lvl:?}");
        assert!(close(lvl.rho_w_hold, 0.40), "{lvl:?}");
        assert!(close(lvl.mean_w_wait, 10e-9), "{lvl:?}");
        assert!(close(lvl.mean_w_hold, 40e-9), "{lvl:?}");
        assert_eq!(lvl.mean_r_wait, None, "no reader waited");
        assert_eq!(r.chases, 2);
        assert_eq!(r.unmatched, 0);
    }

    #[test]
    fn overlapping_writers_union_not_sum() {
        // Thread 0 holds node 7 over [0, 20]; thread 1 queues at 5 and
        // holds over [20, 30]. Writer-present is the union [0, 30] of a
        // 40ns window — NOT 0+20 plus 5..30 summed (which would give
        // 45/40 > 1).
        let trace = Trace {
            events: vec![
                ev(0, 0, EventKind::LatchRequest, MODE_EXCLUSIVE, 1, 7),
                ev(0, 0, EventKind::LatchGrant, MODE_EXCLUSIVE, 1, 7),
                ev(0, 1, EventKind::Chase, 0, 0, 0),
                ev(5, 1, EventKind::LatchRequest, MODE_EXCLUSIVE, 1, 7),
                ev(20, 0, EventKind::LatchRelease, MODE_EXCLUSIVE, 1, 7),
                ev(20, 1, EventKind::LatchGrant, MODE_EXCLUSIVE, 1, 7),
                ev(30, 1, EventKind::LatchRelease, MODE_EXCLUSIVE, 1, 7),
                ev(40, 0, EventKind::Chase, 0, 0, 0),
            ],
            dropped: 0,
            threads: 2,
        };
        let r = replay(&trace);
        assert_eq!(r.window_ns(), 40);
        let lvl = &r.levels[0];
        assert!(close(lvl.rho_w, 0.75), "{lvl:?}");
        assert!(close(lvl.rho_w_hold, 0.75), "{lvl:?}");
        assert!(close(lvl.mean_w_wait, 7.5e-9), "waits 0 and 15 ns: {lvl:?}");
        assert_eq!(r.unmatched, 0);
    }

    #[test]
    fn open_holds_count_to_window_end_and_unmatched() {
        let trace = Trace {
            events: vec![
                ev(0, 0, EventKind::LatchGrant, MODE_EXCLUSIVE, 2, 9),
                ev(50, 0, EventKind::Restart, 0, 0, 0),
            ],
            dropped: 3,
            threads: 1,
        };
        let r = replay(&trace);
        // Grant with no request (request overwritten) + never released.
        assert_eq!(r.unmatched, 2);
        assert_eq!(r.dropped, 3);
        let lvl = &r.levels[0];
        assert_eq!(lvl.level, 2);
        assert!(close(lvl.rho_w, 1.0), "held for the whole window");
        assert_eq!(r.restarts, 1);
    }

    #[test]
    fn chain_depth_and_ops() {
        let trace = Trace {
            events: vec![
                ev(0, 0, EventKind::OpBegin, opcode::INSERT, 0, 0),
                ev(1, 0, EventKind::LatchGrant, MODE_EXCLUSIVE, 2, 1),
                ev(2, 0, EventKind::LatchGrant, MODE_EXCLUSIVE, 1, 2),
                ev(3, 0, EventKind::LatchRelease, MODE_EXCLUSIVE, 2, 1),
                ev(4, 0, EventKind::LatchRelease, MODE_EXCLUSIVE, 1, 2),
                ev(5, 0, EventKind::OpEnd, opcode::INSERT | OP_HIT, 0, 0),
            ],
            dropped: 0,
            threads: 1,
        };
        let r = replay(&trace);
        assert_eq!(r.peak_latch_chain, 2);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.ops[0].op, "insert");
        assert_eq!(r.ops[0].completed, 1);
        assert_eq!(r.ops[0].mean_ns, 5.0);
    }

    #[test]
    fn batch_pairs_aggregate_per_shard() {
        let trace = Trace {
            events: vec![
                ev(0, 0, EventKind::BatchBegin, 8, 0, 0),
                ev(100, 0, EventKind::BatchEnd, 8, 0, 6),
                ev(120, 0, EventKind::BatchBegin, 4, 0, 0),
                ev(180, 0, EventKind::BatchEnd, 4, 0, 2),
                ev(50, 1, EventKind::BatchBegin, 16, 3, 0),
                ev(250, 1, EventKind::BatchEnd, 16, 3, 15),
                // A begin whose end was overwritten contributes nothing.
                ev(300, 1, EventKind::BatchBegin, 2, 3, 0),
            ],
            dropped: 0,
            threads: 2,
        };
        let r = replay(&trace);
        assert_eq!(r.batches.len(), 2);
        let s0 = &r.batches[0];
        assert_eq!((s0.shard, s0.batches, s0.ops), (0, 2, 12));
        assert_eq!(s0.leaf_reuses, 8);
        assert_eq!(s0.max_size, 8);
        assert_eq!(s0.mean_size(), 6.0);
        assert_eq!(s0.mean_ns, 80.0);
        let s3 = &r.batches[1];
        assert_eq!((s3.shard, s3.batches, s3.ops), (3, 1, 16));
        assert!((s3.reuse_rate() - 15.0 / 16.0).abs() < 1e-12);
        let text = r.to_json().to_string().unwrap();
        assert!(text.contains("\"batches\":["));
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn summary_json_serializes_with_nan_means_as_null() {
        let trace = Trace {
            events: vec![ev(0, 0, EventKind::LatchGrant, 0, 1, 1)],
            dropped: 0,
            threads: 1,
        };
        let r = replay(&trace);
        // No releases → hold means are NaN; serialization must not fail.
        let text = r.to_json().to_string().unwrap();
        assert!(text.contains("\"mean_r_hold\":null"), "{text}");
        assert!(Json::parse(&text).is_ok());
    }
}
