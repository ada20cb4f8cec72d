//! The stress harness: drive N recording threads over a shared tree with
//! a reproducible workload (optionally under schedule-perturbation
//! injection), then check linearizability and run the structural
//! auditors on the quiesced tree.
//!
//! Everything is a pure function of [`StressConfig`], so a failing
//! `(protocol, seed)` pair replays the identical operation streams and
//! perturbation decisions: `stress --replay SEED` in the binary.

use crate::audit::{audit, audit_with_contents, AuditReport};
use crate::history::{record, record_batch, Clock, History, Op};
use crate::linearize::{check_history, CheckConfig, Verdict};
use cbtree_btree::{ConcurrentBTree, Protocol};
use cbtree_sync::inject;
use cbtree_sync::InjectConfig;
use cbtree_workload::{OpStream, Operation, OpsConfig};
use std::sync::{Barrier, Mutex};

/// Serializes stress runs within a process. A perturbed run's injector
/// already excludes other injectors; this gate also keeps an unperturbed
/// run from overlapping a sibling's injector, which would perturb it.
/// Parallelism lives *inside* a run.
static RUN_GATE: Mutex<()> = Mutex::new(());

/// One stress run, fully determined by this value.
#[derive(Debug, Clone, Copy)]
pub struct StressConfig {
    /// Latching protocol under test.
    pub protocol: Protocol,
    /// Worker thread count.
    pub threads: usize,
    /// Operations each worker performs.
    pub ops_per_thread: usize,
    /// Node capacity (small values force frequent splits).
    pub capacity: usize,
    /// Keys are drawn from `[0, key_space)` (small values force
    /// contention on shared nodes).
    pub key_space: u64,
    /// Keys pre-inserted before recording starts (the history's initial
    /// state).
    pub prefill: usize,
    /// Master seed; per-thread streams derive from it.
    pub seed: u64,
    /// Schedule-perturbation settings; `None` runs un-perturbed.
    pub inject: Option<InjectConfig>,
    /// Linearizability-search tuning.
    pub check: CheckConfig,
    /// Operations each worker groups into one `execute_batch` call
    /// (`1` = classic singleton recording). Batched runs exercise the
    /// sorted-batch descent path the service layer uses, and every op
    /// of a batch shares the batch's invocation/response interval.
    pub batch_max: usize,
}

impl StressConfig {
    /// The CI quick-mode shape: few hundred ops per thread, tiny nodes,
    /// hot key space, injection on.
    pub fn quick(protocol: Protocol, seed: u64) -> Self {
        StressConfig {
            protocol,
            threads: 8,
            ops_per_thread: 400,
            capacity: 4,
            key_space: 512,
            prefill: 128,
            seed,
            inject: Some(InjectConfig::default()),
            check: CheckConfig::default(),
            batch_max: 1,
        }
    }

    /// A heavier shape for the manual full sweep.
    pub fn full(protocol: Protocol, seed: u64) -> Self {
        StressConfig {
            threads: 16,
            ops_per_thread: 2_000,
            key_space: 2_048,
            prefill: 512,
            ..StressConfig::quick(protocol, seed)
        }
    }
}

/// Result of one stress run.
#[derive(Debug)]
pub struct StressOutcome {
    /// The linearizability verdict.
    pub verdict: Verdict,
    /// Structural-audit result (`Err` = invariant violation).
    pub audit: Result<AuditReport, String>,
    /// Total recorded operations.
    pub ops: usize,
    /// Perturbations performed (zeros when injection was off).
    pub inject_stats: inject::InjectStats,
}

impl StressOutcome {
    /// Whether the run found no problem.
    pub fn passed(&self) -> bool {
        self.verdict.passed() && self.audit.is_ok()
    }

    /// Human-readable failure description, if any.
    pub fn failure(&self) -> Option<String> {
        match &self.verdict {
            Verdict::Violation(w) => {
                return Some(format!("linearizability violation\n{}", w.render()))
            }
            Verdict::Inconclusive => return Some("checker ran out of budget".into()),
            _ => {}
        }
        if let Err(e) = &self.audit {
            return Some(format!("structural audit failed: {e}"));
        }
        None
    }
}

fn mix(stream_seed: u64, t: u64) -> u64 {
    // splitmix64-style avalanche so nearby seeds give unrelated streams.
    let mut z = stream_seed
        .wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the stress protocol against a fresh tree for `cfg.protocol`.
pub fn run_stress(cfg: &StressConfig) -> StressOutcome {
    let _serial = RUN_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let map = &ConcurrentBTree::new(cfg.protocol, cfg.capacity);
    // Deterministic prefill: evenly spread keys, value = key.
    let mut init: Vec<(u64, u64)> = Vec::with_capacity(cfg.prefill);
    if cfg.prefill > 0 {
        let stride = (cfg.key_space / cfg.prefill as u64).max(1);
        for i in 0..cfg.prefill as u64 {
            let k = (i * stride) % cfg.key_space.max(1);
            if map.insert(k, k).is_none() {
                init.push((k, k));
            }
        }
    }
    // Release latches a recovery protocol retained during prefill.
    map.txn_commit();

    let injector = cfg.inject.map(|icfg| inject::enable(cfg.seed, icfg));

    let clock = Clock::new();
    let barrier = Barrier::new(cfg.threads);
    let ops_cfg = OpsConfig::paper(cfg.key_space.max(1));
    let batches: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let clock = &clock;
                let barrier = &barrier;
                s.spawn(move || {
                    inject::register_thread(t as u64);
                    let mut stream = OpStream::new(ops_cfg, mix(cfg.seed, t as u64));
                    let mut out = Vec::with_capacity(cfg.ops_per_thread);
                    let mut pending: Vec<Op> = Vec::with_capacity(cfg.batch_max.max(1));
                    barrier.wait();
                    for i in 0..cfg.ops_per_thread {
                        let op = match stream.next_op() {
                            Operation::Search(k) => Op::Get(k),
                            // Unique insert values let the checker tell
                            // which insert a later read observed.
                            Operation::Insert(k) => {
                                Op::Insert(k, ((t as u64 + 1) << 32) | i as u64)
                            }
                            Operation::Delete(k) => Op::Remove(k),
                        };
                        if cfg.batch_max <= 1 {
                            out.push(record(map, clock, t, op));
                        } else {
                            pending.push(op);
                            if pending.len() == cfg.batch_max {
                                record_batch(map, clock, t, &pending, &mut out);
                                pending.clear();
                            }
                        }
                    }
                    if !pending.is_empty() {
                        record_batch(map, clock, t, &pending, &mut out);
                    }
                    // Release any transaction-retained latches before
                    // exiting: the post-join audit would otherwise block
                    // on latches no live thread can ever release.
                    map.txn_commit();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let inject_stats = injector.map_or_else(Default::default, |i| i.stats());

    let history = History::from_threads(init, batches);
    let ops = history.ops.len();
    let verdict = check_history(&history, cfg.check);

    // Workers are joined, so the tree is quiescent: audit structure, and
    // when the verdict pinned down a final state, contents too.
    let audit = match &verdict {
        Verdict::Linearizable { final_state } => audit_with_contents(map, final_state),
        _ => audit(map),
    };

    StressOutcome {
        verdict,
        audit,
        ops,
        inject_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_for_all_protocols() {
        for p in Protocol::ALL {
            let cfg = StressConfig {
                threads: 4,
                ops_per_thread: 120,
                ..StressConfig::quick(p, 7)
            };
            let out = run_stress(&cfg);
            assert!(out.passed(), "{p:?}: {}", out.failure().unwrap_or_default());
            assert_eq!(out.ops, cfg.threads * cfg.ops_per_thread);
        }
    }

    #[test]
    fn batched_quick_run_passes_for_all_protocols() {
        // Same sweep as the singleton quick run, but every worker
        // groups its ops into sorted batches of 4 through
        // `execute_batch` — linearizability and the structural audit
        // must hold over the amortized-descent path too.
        for p in Protocol::ALL {
            let cfg = StressConfig {
                threads: 4,
                ops_per_thread: 120,
                batch_max: 4,
                ..StressConfig::quick(p, 7)
            };
            let out = run_stress(&cfg);
            assert!(out.passed(), "{p:?}: {}", out.failure().unwrap_or_default());
            assert_eq!(out.ops, cfg.threads * cfg.ops_per_thread);
        }
    }

    #[test]
    fn injection_actually_perturbs() {
        let cfg = StressConfig {
            threads: 4,
            ops_per_thread: 100,
            ..StressConfig::quick(Protocol::BLink, 11)
        };
        let out = run_stress(&cfg);
        assert!(out.passed(), "{}", out.failure().unwrap_or_default());
        assert!(
            out.inject_stats.visits > 0,
            "injection sites should be visited while injecting"
        );
    }

    #[test]
    fn unperturbed_run_records_no_injections() {
        let cfg = StressConfig {
            threads: 2,
            ops_per_thread: 50,
            inject: None,
            ..StressConfig::quick(Protocol::LockCoupling, 3)
        };
        let out = run_stress(&cfg);
        assert!(out.passed(), "{}", out.failure().unwrap_or_default());
        assert_eq!(out.inject_stats, inject::InjectStats::default());
    }
}
