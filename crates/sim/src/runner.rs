//! Simulation configuration, reports, and multi-seed orchestration —
//! the paper's experimental protocol (§4, §5.3): build a ~40 000-item
//! tree with the concurrent mix's insert:delete ratio, run 10 000
//! concurrent operations arriving in a Poisson stream, and repeat with 5
//! seeds.

use crate::costs::SimCosts;
use crate::driver::Simulator;
use crate::stats::BatchMeans;
use crate::tree::SimTree;
use crate::{Result, SimError};
use cbtree_analysis::RecoveryConfig;
use cbtree_btree_model::{Protocol, ReadPolicy};
use cbtree_obs::stats::{Summary, Welford};
use cbtree_obs::LevelRecord;
use cbtree_workload::{OpStream, OpsConfig, PoissonArrivals};

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Protocol to simulate; its §7 retention is `recovery`'s.
    pub protocol: Protocol,
    /// Maximum keys per node (`N`).
    pub node_capacity: usize,
    /// Items in the tree when the concurrent phase starts.
    pub initial_items: usize,
    /// Operation mix and key distribution.
    pub ops: OpsConfig,
    /// Poisson arrival rate of concurrent operations.
    pub arrival_rate: f64,
    /// Operations to measure (after warmup).
    pub measured_ops: u64,
    /// Operations to complete before measurement starts.
    pub warmup_ops: u64,
    /// Service-cost model.
    pub costs: SimCosts,
    /// Abort threshold on concurrent in-flight operations.
    pub max_concurrent: usize,
    /// §7 transactional lock retention (default: none).
    pub recovery: RecoveryConfig,
    /// Random seed (construction, arrivals, services all derive from it).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's base setup (§5.3) at a given protocol and rate:
    /// `N = 13`, 40 000 items, mix .3/.5/.2, `D = 5`, 2 in-memory levels,
    /// 10 000 measured operations.
    pub fn paper(protocol: Protocol, arrival_rate: f64, seed: u64) -> Self {
        SimConfig {
            protocol,
            node_capacity: 13,
            initial_items: 40_000,
            ops: OpsConfig::paper(100_000_000),
            arrival_rate,
            measured_ops: 10_000,
            warmup_ops: 500,
            costs: SimCosts::paper(),
            max_concurrent: 20_000,
            recovery: RecoveryConfig::default(),
            seed,
        }
    }

    /// Shrinks the run (items and measured ops) by `factor` — used by
    /// tests and quick experiment modes to keep wall-clock time sane while
    /// preserving the configuration's shape.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        let f = factor.max(1);
        self.initial_items = (self.initial_items / f).max(500);
        self.measured_ops = (self.measured_ops / f as u64).max(200);
        self.warmup_ops = (self.warmup_ops / f as u64).max(50);
        self
    }

    /// Raises the warmup and measured operation counts so the simulated
    /// windows cover at least the given *time* spans. At high arrival
    /// rates a fixed operation count spans almost no simulated time —
    /// shorter than the system's own relaxation time (a few response
    /// times) — and the measurement would sample the ramp-up transient
    /// rather than steady state.
    pub fn with_min_window(mut self, warmup_time: f64, measured_time: f64) -> Self {
        self.warmup_ops = self
            .warmup_ops
            .max((self.arrival_rate * warmup_time) as u64);
        self.measured_ops = self
            .measured_ops
            .max((self.arrival_rate * measured_time) as u64);
        self
    }

    fn validate(&self) -> Result<()> {
        if !(self.arrival_rate.is_finite() && self.arrival_rate > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "arrival_rate",
                constraint: "must be finite and positive",
            });
        }
        if !(3..=cbtree_btree::arena::MAX_CAP).contains(&self.node_capacity) {
            return Err(SimError::InvalidConfig {
                name: "node_capacity",
                constraint: "must be between 3 and 128 (the arena's largest slot)",
            });
        }
        if self.measured_ops == 0 {
            return Err(SimError::InvalidConfig {
                name: "measured_ops",
                constraint: "must be positive",
            });
        }
        if !self.ops.is_valid() {
            return Err(SimError::InvalidConfig {
                name: "ops",
                constraint: "mix must sum to 1",
            });
        }
        Ok(())
    }
}

/// Report of one simulation run (measured window only).
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Arrival rate simulated.
    pub arrival_rate: f64,
    /// Mean/CI of search response times.
    pub resp_search: Summary,
    /// Mean/CI of insert response times.
    pub resp_insert: Summary,
    /// Mean/CI of delete response times.
    pub resp_delete: Summary,
    /// Time-weighted root writer utilization (simulated `ρ_w(h)`).
    pub root_writer_utilization: f64,
    /// Time-weighted mean number of in-flight operations.
    pub avg_concurrency: f64,
    /// Completions per time unit over the measured window.
    pub throughput: f64,
    /// Link crossings per completed operation (Link-type only; 0 else).
    pub crossings_per_op: f64,
    /// Redo descents per completed update (Optimistic Descent), or
    /// failed read windows per completed search (OLC); 0 else.
    pub redo_rate: f64,
    /// Per-level records, leaves first, in model cost units: end-of-run
    /// nodes, acquisitions and λ per node, waits, and presence ρ_w (the
    /// root's is `root_writer_utilization`). Holds are not timed.
    pub levels: Vec<LevelRecord>,
    /// Leaf space utilization at the end of the run.
    pub leaf_utilization: f64,
    /// Peak in-flight operations.
    pub max_in_flight: usize,
    /// Operations completed in the measured window.
    pub completed: u64,
    /// Duration of the measured window.
    pub measured_time: f64,
}

impl SimReport {
    /// JSON record of the whole report (`type: "sim_report"`).
    pub fn to_json(&self) -> cbtree_obs::Json {
        use cbtree_obs::Json;
        Json::obj(vec![
            ("type", "sim_report".into()),
            ("arrival_rate", Json::f64_or_null(self.arrival_rate)),
            ("resp_search", self.resp_search.to_json()),
            ("resp_insert", self.resp_insert.to_json()),
            ("resp_delete", self.resp_delete.to_json()),
            (
                "root_writer_utilization",
                Json::f64_or_null(self.root_writer_utilization),
            ),
            ("avg_concurrency", Json::f64_or_null(self.avg_concurrency)),
            ("throughput", Json::f64_or_null(self.throughput)),
            ("crossings_per_op", Json::f64_or_null(self.crossings_per_op)),
            ("redo_rate", Json::f64_or_null(self.redo_rate)),
            (
                "levels",
                Json::arr(self.levels.iter().map(LevelRecord::to_json)),
            ),
            ("final_height", self.levels.len().into()),
            ("leaf_utilization", Json::f64_or_null(self.leaf_utilization)),
            ("max_in_flight", self.max_in_flight.into()),
            ("completed", self.completed.into()),
            ("measured_time", Json::f64_or_null(self.measured_time)),
        ])
    }
}

/// Runs the construction phase, returning the tree the concurrent phase
/// starts from *and* the workload stream positioned right after
/// construction. Using one continuous stream across both phases is
/// important: a fresh stream would start with an empty delete pool, and
/// the resulting shift in delete locality sends the tree's fill
/// distribution through a long transient that suppresses splits for the
/// whole measurement window.
pub fn construction_phase(cfg: &SimConfig) -> Result<(SimTree, OpStream)> {
    cfg.validate()?;
    let mut stream = OpStream::new(cfg.ops, cfg.seed.wrapping_mul(0x9E37_79B9) ^ 0xB17D);
    let seq = stream.construction_sequence(cfg.initial_items);
    Ok((SimTree::build(cfg.node_capacity, &seq), stream))
}

/// Measures the constructed tree's shape for the analytical framework:
/// exact per-level node counts and fanouts of the tree `run` would
/// simulate on (same seed, same construction stream).
pub fn matched_tree_shape(cfg: &SimConfig) -> Result<cbtree_btree_model::TreeShape> {
    let (tree, _) = construction_phase(cfg)?;
    let counts: Vec<f64> = tree.level_node_counts().iter().map(|&c| c as f64).collect();
    let node = cbtree_btree_model::NodeParams::with_max_size(cfg.node_capacity).map_err(|_| {
        SimError::InvalidConfig {
            name: "node_capacity",
            constraint: "must be at least 3",
        }
    })?;
    cbtree_btree_model::TreeShape::from_node_counts(&counts, tree.item_count, node).map_err(|_| {
        SimError::InvalidConfig {
            name: "initial_items",
            constraint: "constructed tree has a degenerate shape",
        }
    })
}

/// Runs one simulation.
pub fn run(cfg: &SimConfig) -> Result<SimReport> {
    // The concurrent phase continues the construction stream (warm
    // delete pool, identical statistics in both phases — §4).
    let (tree, mut stream) = construction_phase(cfg)?;
    let mut sim = Simulator::new(cfg, tree);
    let mut arrivals = PoissonArrivals::new(cfg.arrival_rate, cfg.seed ^ 0xA221_44EE);

    sim.schedule_arrival(arrivals.next_arrival());
    let target = cfg.warmup_ops + cfg.measured_ops;
    sim.run_until(target, cfg.max_concurrent, move || {
        (stream.next_op(), arrivals.next_arrival())
    })?;
    // End-of-run audit: every live key is where a lookup would find it.
    sim.tree
        .check_invariants()
        .map_err(|detail| SimError::Corrupted {
            at_time: sim.now(),
            detail,
        })?;

    // Close out writer-presence intervals still open at the end of the
    // event loop so the per-level totals cover the whole measured window.
    sim.finalize_w_present();
    let level_nodes = sim.tree.level_node_counts();
    let stats = &sim.stats;
    let measured_time = (sim.now() - stats.measured_start).max(f64::MIN_POSITIVE);
    let levels = (0..sim.tree.height()).map(|i| {
        let nodes = level_nodes.get(i).copied().unwrap_or(0);
        let node_time = nodes.max(1) as f64 * measured_time;
        let l = stats.levels.get(i).copied().unwrap_or_default();
        let (r, w) = (l.wait_r, l.wait_w);
        LevelRecord {
            level: i + 1,
            nodes: Some(nodes),
            r_acquires: Some(r.count()),
            w_acquires: Some(w.count()),
            lambda_r: Some(r.count() as f64 / node_time),
            lambda_w: Some(w.count() as f64 / node_time),
            rho_w: Some((l.w_present / node_time).clamp(0.0, 1.0)),
            mean_r_wait: (r.count() > 0).then(|| r.mean()),
            mean_w_wait: (w.count() > 0).then(|| w.mean()),
            ..LevelRecord::default()
        }
    });
    // Single-run CIs use batch means (per-sample CIs understate variance
    // because successive response times share queue backlogs).
    let with_batch_ci = |w: &Welford, b: &BatchMeans| {
        let mut s = Summary::from_welford(w);
        if b.batch_count() >= 2 {
            s.ci95 = b.ci95_half_width();
        }
        s
    };
    let [b_search, b_insert, b_delete] = &sim.batches;
    // OLC's redos are failed read windows (its updates never redo);
    // Optimistic Descent's are update re-descents.
    let redoers = match cfg.protocol.policy().read {
        ReadPolicy::Olc => stats.completed - stats.updates_completed,
        _ => stats.updates_completed,
    };
    Ok(SimReport {
        arrival_rate: cfg.arrival_rate,
        resp_search: with_batch_ci(&stats.resp_search, b_search),
        resp_insert: with_batch_ci(&stats.resp_insert, b_insert),
        resp_delete: with_batch_ci(&stats.resp_delete, b_delete),
        root_writer_utilization: stats.root_writer.mean(),
        avg_concurrency: stats.concurrency.mean(),
        throughput: stats.completed as f64 / measured_time,
        crossings_per_op: stats.crossings as f64 / stats.completed.max(1) as f64,
        redo_rate: stats.redos as f64 / redoers.max(1) as f64,
        levels: levels.collect(),
        leaf_utilization: sim.tree.item_count as f64
            / (level_nodes[0] as usize * cfg.node_capacity) as f64,
        max_in_flight: stats.max_in_flight,
        completed: stats.completed,
        measured_time,
    })
}

/// Cross-seed summary of the headline metrics.
#[derive(Debug, Clone)]
pub struct SeedSummary {
    /// Arrival rate simulated.
    pub arrival_rate: f64,
    /// Search response time across seeds.
    pub resp_search: Summary,
    /// Insert response time across seeds.
    pub resp_insert: Summary,
    /// Delete response time across seeds.
    pub resp_delete: Summary,
    /// Root writer utilization across seeds.
    pub root_writer_utilization: Summary,
    /// Link crossings per op across seeds.
    pub crossings_per_op: Summary,
    /// Redo rate across seeds.
    pub redo_rate: Summary,
    /// Throughput across seeds.
    pub throughput: Summary,
    /// The individual reports.
    pub runs: Vec<SimReport>,
}

/// Runs the configuration once per seed and summarizes across seeds, the
/// paper's 5-seed protocol. Fails if **any** seed's run is unstable
/// (the paper reports nothing when the simulator crashes at a setting).
pub fn run_seeds(cfg: &SimConfig, seeds: &[u64]) -> Result<SeedSummary> {
    if seeds.is_empty() {
        return Err(SimError::InvalidConfig {
            name: "seeds",
            constraint: "must be non-empty",
        });
    }
    let mut runs = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let mut one = cfg.clone();
        one.seed = seed;
        runs.push(run(&one)?);
    }
    let collect = |f: &dyn Fn(&SimReport) -> f64| {
        Summary::from_values(&runs.iter().map(f).collect::<Vec<_>>())
    };
    Ok(SeedSummary {
        arrival_rate: cfg.arrival_rate,
        resp_search: collect(&|r| r.resp_search.mean),
        resp_insert: collect(&|r| r.resp_insert.mean),
        resp_delete: collect(&|r| r.resp_delete.mean),
        root_writer_utilization: collect(&|r| r.root_writer_utilization),
        crossings_per_op: collect(&|r| r.crossings_per_op),
        redo_rate: collect(&|r| r.redo_rate),
        throughput: collect(&|r| r.throughput),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(alg: Protocol, rate: f64) -> SimConfig {
        SimConfig::paper(alg, rate, 11).scaled_down(20)
    }

    #[test]
    fn run_produces_sane_report() {
        let r = run(&quick(Protocol::LockCoupling, 0.05)).unwrap();
        assert!(r.resp_search.mean > 0.0);
        assert!(r.resp_insert.mean > 0.0);
        assert!(r.completed >= 490);
        assert!(r.throughput > 0.0);
        assert!((0.0..=1.0).contains(&r.root_writer_utilization));
        assert!(r.levels.len() >= 4);
    }

    #[test]
    fn per_level_rho_w_is_sane_and_matches_root_tracker() {
        // Heavier load so writer holds are visible at every level.
        let r = run(&quick(Protocol::LockCoupling, 0.4)).unwrap();
        let rho = |l: &LevelRecord| l.rho_w.expect("the simulator sees presence");
        for l in &r.levels {
            assert!((0.0..=1.0).contains(&rho(l)), "{l:?}");
            // Writers queued at every level of lock-coupling; holds are
            // not timed.
            assert!(
                l.w_acquires.unwrap() > 0 && l.mean_w_wait.is_some(),
                "{l:?}"
            );
            assert_eq!((l.rho_w_hold, l.mean_w_hold), (None, None), "{l:?}");
        }
        // Leaves see writers under an update-heavy mix.
        assert!(rho(&r.levels[0]) > 0.0, "no leaf writer utilization");
        // Per node, the root sees every operation: λ_r + λ_w there is
        // the throughput.
        let root_rec = r.levels.last().unwrap();
        let root_lambda = root_rec.lambda_r.unwrap() + root_rec.lambda_w.unwrap();
        assert!(
            (root_lambda / r.throughput - 1.0).abs() < 0.05,
            "{root_rec:?}"
        );
        // The root's per-level value and the time-weighted root tracker
        // measure the same writer-present signal two ways; they must
        // agree up to event-boundary rounding.
        let root = rho(root_rec);
        assert!(
            (root - r.root_writer_utilization).abs() < 1e-6,
            "root rho_w {} vs tracker {}",
            root,
            r.root_writer_utilization
        );
    }

    #[test]
    fn sim_report_json_round_trips() {
        use cbtree_obs::Json;
        let r = run(&quick(Protocol::BLink, 0.2)).unwrap();
        let j = r.to_json();
        let parsed = Json::parse(&j.to_string().unwrap()).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(
            parsed.get("type").and_then(Json::as_str),
            Some("sim_report")
        );
        assert_eq!(
            parsed.get("completed").and_then(Json::as_u64),
            Some(r.completed)
        );
        assert_eq!(
            parsed
                .get("levels")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(r.levels.len())
        );
    }

    #[test]
    fn littles_law_roughly_holds() {
        // L = λ·W over the measured window.
        let r = run(&quick(Protocol::BLink, 0.5)).unwrap();
        let mean_rt =
            (0.3 * r.resp_search.mean + 0.5 * r.resp_insert.mean + 0.2 * r.resp_delete.mean)
                .max(1e-9);
        let implied_l = r.throughput * mean_rt;
        let ratio = r.avg_concurrency / implied_l;
        assert!(
            (0.7..1.4).contains(&ratio),
            "Little's law violated: L={} λW={} ratio {ratio}",
            r.avg_concurrency,
            implied_l
        );
    }

    #[test]
    fn throughput_tracks_arrival_rate_when_stable() {
        let r = run(&quick(Protocol::OptimisticDescent, 0.3)).unwrap();
        assert!(
            (r.throughput - 0.3).abs() < 0.1,
            "open system: throughput ≈ arrival rate, got {}",
            r.throughput
        );
    }

    #[test]
    fn overload_is_reported_not_hung() {
        let mut cfg = quick(Protocol::LockCoupling, 30.0);
        cfg.max_concurrent = 300;
        let err = run(&cfg).unwrap_err();
        assert!(err.is_overload());
    }

    #[test]
    fn seeds_averaged() {
        let s = run_seeds(&quick(Protocol::BLink, 0.3), &[1, 2, 3]).unwrap();
        assert_eq!(s.runs.len(), 3);
        assert_eq!(s.resp_insert.n, 3);
        assert!(s.resp_insert.mean > 0.0);
    }

    #[test]
    fn link_records_crossings_naive_does_not() {
        let link = run(&quick(Protocol::BLink, 1.0)).unwrap();
        let naive = run(&quick(Protocol::LockCoupling, 0.05)).unwrap();
        assert_eq!(naive.crossings_per_op, 0.0);
        // Crossings are *rare* but the machinery must be wired: accept 0
        // at small scale, but the rate must be tiny either way (Fig 9).
        assert!(
            link.crossings_per_op < 0.2,
            "crossings {}",
            link.crossings_per_op
        );
    }

    #[test]
    fn od_redo_rate_near_pr_full() {
        let r = run(&quick(Protocol::OptimisticDescent, 0.3)).unwrap();
        // Pr[F(1)] ≈ 0.068 for N=13 and the paper mix; inserts redo at
        // that rate, deletes almost never. Expect redo per update in
        // the broad vicinity of q_i/(q_i+q_d)·Pr[F(1)] ≈ 0.05.
        assert!(
            (0.005..0.2).contains(&r.redo_rate),
            "redo rate {} out of plausible band",
            r.redo_rate
        );
    }

    #[test]
    fn redo_rate_divides_redos_by_the_operations_that_redo() {
        // Optimistic Descent redoes updates; OLC restarts read windows and
        // its updates never redo. Either way the rate times its
        // denominator is a whole number of redos.
        let whole = |x: f64| x > 0.0 && (x - x.round()).abs() < 1e-6;
        let od = run(&quick(Protocol::OptimisticDescent, 0.3)).unwrap();
        let updates = od.resp_insert.n + od.resp_delete.n;
        assert!(whole(od.redo_rate * updates as f64), "{od:?}");
        let olc = run(&quick(Protocol::Olc, 0.35)).unwrap();
        let searches = olc.resp_search.n;
        assert!(whole(olc.redo_rate * searches as f64), "{olc:?}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = quick(Protocol::BLink, 0.0);
        assert!(run(&c).is_err());
        c.arrival_rate = 1.0;
        c.node_capacity = 2;
        assert!(run(&c).is_err());
        c.node_capacity = cbtree_btree::arena::MAX_CAP + 1;
        assert!(run(&c).is_err());
        assert!(run_seeds(&quick(Protocol::BLink, 0.1), &[]).is_err());
    }
}
