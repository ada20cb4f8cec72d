//! One function per paper figure (3–16) plus the ablations DESIGN.md
//! calls out. Every function returns a [`Table`] whose rows regenerate
//! the figure's series: the swept parameter, the analytical prediction,
//! and — where the paper overlays simulation — multi-seed simulation
//! means with 95% confidence intervals.

use crate::table::{fmt_f, Table};
use cbtree_analysis::recovery::RecoveryComparison;
use cbtree_analysis::{rules_of_thumb, Model, ModelConfig, RecoveryConfig, RecoveryMode};
use cbtree_btree_model::{MergePolicy, NodeParams, OpMix, Protocol, TreeShape, UpdatePolicy};
use cbtree_sim::costs::SimCosts;
use cbtree_sim::{run_seeds, SeedSummary, SimConfig};
use std::path::PathBuf;

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Shrinks simulations (~20×) for fast smoke runs.
    pub quick: bool,
    /// When set, each table is also written as `<out_dir>/<name>.csv`.
    pub out_dir: Option<PathBuf>,
    /// Seeds for the multi-seed simulation protocol (paper: 5 seeds).
    pub seeds: Vec<u64>,
    /// Skip simulations entirely (analysis-only tables where applicable).
    pub with_sim: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            quick: false,
            out_dir: None,
            seeds: vec![1, 2, 3, 4, 5],
            with_sim: true,
        }
    }
}

impl ExpOptions {
    /// Quick smoke-test options (small sims, 2 seeds).
    pub fn quick() -> Self {
        ExpOptions {
            quick: true,
            seeds: vec![1, 2],
            ..Default::default()
        }
    }
}

/// An experiment: one table from the shared options.
pub type Figure = fn(&ExpOptions) -> Table;

/// Every experiment [`run_figure`] accepts, by name, in the order `all`
/// runs them.
pub const FIGURES: [(&str, Figure); 21] = [
    ("fig3", |o| response_time_figure(RESPONSE_TIME[0], o)),
    ("fig4", |o| response_time_figure(RESPONSE_TIME[1], o)),
    ("fig5", |o| response_time_figure(RESPONSE_TIME[2], o)),
    ("fig6", |o| response_time_figure(RESPONSE_TIME[3], o)),
    ("fig7", |o| response_time_figure(RESPONSE_TIME[4], o)),
    ("fig8", |o| response_time_figure(RESPONSE_TIME[5], o)),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("baseline-2pl", baseline_2pl),
    ("extension-lru", extension_lru),
    ("extension-skew", extension_skew),
    ("ablation-rot-se2", ablation_rot_se2),
    ("ablation-merge-policy", ablation_merge_policy),
    ("ablation-hyperexp", ablation_hyperexp),
    ("sim-matrix", sim_matrix),
];

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// Node size of every simulated tree (the paper's N = 13).
const NODE_SIZE: usize = 13;

fn sim_config(protocol: Protocol, lambda: f64, disk_cost: f64, opts: &ExpOptions) -> SimConfig {
    let mut c = SimConfig::paper(protocol, lambda, 1);
    c.node_capacity = NODE_SIZE;
    c.costs = SimCosts {
        base: 1.0,
        disk_cost,
        memory_levels: 2,
    };
    if opts.quick {
        c = c.scaled_down(20).with_min_window(60.0, 150.0);
    } else {
        // Warm up for ≥120 time units (~5 zero-load response times) and
        // measure ≥400 — a fixed op count alone is far too short a window
        // at the link algorithm's high arrival rates.
        c = c.with_min_window(120.0, 400.0);
    }
    c
}

fn sim_point(
    protocol: Protocol,
    lambda: f64,
    disk_cost: f64,
    opts: &ExpOptions,
) -> Option<SeedSummary> {
    if !opts.with_sim {
        return None;
    }
    run_seeds(&sim_config(protocol, lambda, disk_cost, opts), &opts.seeds).ok()
}

/// Simulated mean insert response time at `lambda` (D = 5), or `-`.
fn sim_insert_rt(protocol: Protocol, lambda: f64, opts: &ExpOptions) -> String {
    sim_point(protocol, lambda, 5.0, opts)
        .map_or_else(|| "-".into(), |s| fmt_f(s.resp_insert.mean, 2))
}

/// Analysis configuration matching the simulated tree exactly: the shape
/// is *measured* from the tree the simulator's construction phase builds
/// (same seed), so the model analyzes the same B-tree the simulation runs
/// on — the paper's "performance of an algorithm on a B-tree of a
/// particular size".
fn matched_cfg(disk_cost: f64, opts: &ExpOptions) -> ModelConfig {
    let sim_c = sim_config(Protocol::BLink, 1.0, disk_cost, opts);
    let shape = cbtree_sim::runner::matched_tree_shape(&sim_c)
        .expect("construction produces a valid shape");
    paper_cfg(shape, disk_cost)
}

/// The paper's mix on `shape`, its top two levels in memory.
fn paper_cfg(shape: TreeShape, disk_cost: f64) -> ModelConfig {
    let cost = cbtree_btree_model::CostModel::paper_style(shape.height, 2, disk_cost, 1.0)
        .expect("valid cost");
    ModelConfig::new(shape, OpMix::paper(), cost).expect("consistent")
}

/// Mix-weighted zero-load response time of a model.
fn serial_rt(model: &Model) -> f64 {
    let p = model.evaluate(0.0).expect("zero load is always stable");
    let m = &model.config().mix;
    p.mean_response_time(m.q_search, m.q_insert, m.q_delete)
}

/// Smallest arrival rate at which the mix-weighted response time reaches
/// `factor` times its zero-load value, capped at the maximum throughput
/// (used to pick a display range for the Link-type algorithm, which has
/// no effective maximum).
fn lambda_at_rt_factor(model: &Model, factor: f64) -> f64 {
    let base = serial_rt(model);
    let max = model.max_throughput().unwrap_or(1.0);
    let m = model.config().mix;
    let rt = |lambda: f64| -> f64 {
        model
            .evaluate(lambda)
            .map(|p| p.mean_response_time(m.q_search, m.q_insert, m.q_delete))
            .unwrap_or(f64::INFINITY)
    };
    let mut lo = 0.0;
    let mut hi = max * (1.0 - 1e-6);
    if rt(hi) < factor * base {
        return hi;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if rt(mid) < factor * base {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

const SWEEP_FRACS: [f64; 8] = [0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 0.95];

#[derive(Clone, Copy)]
enum Metric {
    Search,
    Insert,
}

/// `model`'s `metric` response time at `lambda`; infinite where it
/// saturates.
fn response_time(model: &Model, lambda: f64, metric: Metric) -> f64 {
    model
        .evaluate(lambda)
        .map(|p| match metric {
            Metric::Search => p.response_time_search,
            Metric::Insert => p.response_time_insert,
        })
        .unwrap_or(f64::INFINITY)
}

// ----------------------------------------------------------------------
// Figures
// ----------------------------------------------------------------------

/// Figures 3–8: one protocol's search or insert response time against
/// the arrival rate, analysis beside simulation.
const RESPONSE_TIME: [(Protocol, Metric, &str); 6] = [
    (
        Protocol::LockCoupling,
        Metric::Insert,
        "Fig 3: Naive Lock-coupling insert response time vs arrival rate (D=5, 2 mem levels)",
    ),
    (
        Protocol::LockCoupling,
        Metric::Search,
        "Fig 4: Naive Lock-coupling search response time vs arrival rate (D=5, 2 mem levels)",
    ),
    (
        Protocol::OptimisticDescent,
        Metric::Search,
        "Fig 5: Optimistic Descent search response time vs arrival rate (D=5, 2 mem levels)",
    ),
    (
        Protocol::OptimisticDescent,
        Metric::Insert,
        "Fig 6: Optimistic Descent insert response time vs arrival rate (D=5, 2 mem levels)",
    ),
    (
        Protocol::BLink,
        Metric::Search,
        "Fig 7: Link-type search response time vs arrival rate (D=5, 2 mem levels)",
    ),
    (
        Protocol::BLink,
        Metric::Insert,
        "Fig 8: Link-type insert response time vs arrival rate (D=5, 2 mem levels)",
    ),
];

/// The engine of Figures 3–8: one [`RESPONSE_TIME`] row swept over the
/// arrival rate.
fn response_time_figure(
    (protocol, metric, title): (Protocol, Metric, &str),
    opts: &ExpOptions,
) -> Table {
    let cfg = matched_cfg(5.0, opts);
    let model = Model::new(protocol, &cfg);
    let top = match protocol.policy().update {
        // The link algorithm has no effective maximum; sweep to the knee.
        UpdatePolicy::Link => lambda_at_rt_factor(&model, 2.5),
        // Lock-retaining algorithms are swept to their saturation point
        // (OLC's writers still couple, so it saturates too).
        UpdatePolicy::Crab { .. } | UpdatePolicy::OptimisticLeaf => model
            .max_throughput()
            .expect("finite for coupling algorithms"),
    };
    let mut t = Table::new(
        title,
        &[
            "lambda",
            "analysis_rt",
            "sim_rt",
            "sim_ci95",
            "sim_rho_root",
        ],
    );
    for frac in SWEEP_FRACS {
        let lambda = frac * top;
        let (s_rt, s_ci, s_rho) = match sim_point(protocol, lambda, 5.0, opts) {
            Some(s) => {
                let sm = match metric {
                    Metric::Search => s.resp_search,
                    Metric::Insert => s.resp_insert,
                };
                (
                    fmt_f(sm.mean, 2),
                    fmt_f(sm.ci95, 2),
                    fmt_f(s.root_writer_utilization.mean, 3),
                )
            }
            None => ("-".into(), "-".into(), "-".into()),
        };
        t.push(vec![
            fmt_f(lambda, 4),
            fmt_f(response_time(&model, lambda, metric), 2),
            s_rt,
            s_ci,
            s_rho,
        ]);
    }
    t
}

/// Figure 9: link crossings are rare and have negligible performance
/// effect (D = 10). The analytical model ignores crossings entirely; its
/// agreement with the crossing-aware simulator is the "negligible" claim.
pub fn fig9(opts: &ExpOptions) -> Table {
    let cfg = matched_cfg(10.0, opts);
    let model = Model::new(Protocol::BLink, &cfg);
    let top = lambda_at_rt_factor(&model, 2.5);
    let mut t = Table::new(
        "Fig 9: Link-type crossings per operation vs arrival rate (D=10)",
        &[
            "lambda",
            "crossings_per_1000_ops",
            "sim_search_rt",
            "analysis_search_rt_no_chase",
        ],
    );
    for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let lambda = frac * top;
        let analysis = response_time(&model, lambda, Metric::Search);
        let (cross, s_rt) = match sim_point(Protocol::BLink, lambda, 10.0, opts) {
            Some(s) => (
                fmt_f(1000.0 * s.crossings_per_op.mean, 2),
                fmt_f(s.resp_search.mean, 2),
            ),
            None => ("-".into(), "-".into()),
        };
        t.push(vec![fmt_f(lambda, 3), cross, s_rt, fmt_f(analysis, 2)]);
    }
    t
}

/// Figure 10: root writer utilization of Naive Lock-coupling grows
/// super-linearly in the arrival rate.
pub fn fig10(opts: &ExpOptions) -> Table {
    let cfg = matched_cfg(5.0, opts);
    let model = Model::new(Protocol::LockCoupling, &cfg);
    let max = model.max_throughput().expect("finite");
    let mut t = Table::new(
        "Fig 10: Naive Lock-coupling root writer utilization vs arrival rate (D=5)",
        &[
            "lambda",
            "lambda_over_max",
            "rho_w_analysis",
            "rho_w_sim",
            "sim_ci95",
        ],
    );
    for frac in [0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99] {
        let lambda = frac * max;
        let rho = model
            .evaluate(lambda)
            .map(|p| p.root_writer_utilization())
            .unwrap_or(f64::INFINITY);
        let (s_rho, s_ci) = match sim_point(Protocol::LockCoupling, lambda, 5.0, opts) {
            Some(s) => (
                fmt_f(s.root_writer_utilization.mean, 3),
                fmt_f(s.root_writer_utilization.ci95, 3),
            ),
            None => ("-".into(), "-".into()),
        };
        t.push(vec![
            fmt_f(lambda, 4),
            fmt_f(frac, 2),
            fmt_f(rho, 3),
            s_rho,
            s_ci,
        ]);
    }
    t
}

/// Figure 11: Naive Lock-coupling maximum throughput vs disk cost.
pub fn fig11(_opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig 11: Naive Lock-coupling maximum throughput vs disk cost (2 mem levels)",
        &["disk_cost", "max_throughput", "lambda_rho_half"],
    );
    for d in [1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0] {
        let cfg = ModelConfig::paper_with_disk_cost(d).expect("valid disk cost");
        let model = Model::new(Protocol::LockCoupling, &cfg);
        let max = model.max_throughput().unwrap_or(f64::NAN);
        let half = model.lambda_at_root_rho(0.5).unwrap_or(f64::NAN);
        t.push(vec![fmt_f(d, 0), fmt_f(max, 4), fmt_f(half, 4)]);
    }
    t
}

/// Figure 12: insert response times of the three algorithms (D = 5).
pub fn fig12(opts: &ExpOptions) -> Table {
    let cfg = matched_cfg(5.0, opts);
    let naive = Model::new(Protocol::LockCoupling, &cfg);
    let od = Model::new(Protocol::OptimisticDescent, &cfg);
    let link = Model::new(Protocol::BLink, &cfg);
    let od_max = od.max_throughput().expect("finite");
    let mut t = Table::new(
        "Fig 12: insert response time comparison, analysis (D=5) — naive vs optimistic vs link",
        &[
            "lambda",
            "naive_rt",
            "optimistic_rt",
            "link_rt",
            "link_rt_sim",
        ],
    );
    for frac in [0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.1, 1.5, 3.0] {
        let lambda = frac * od_max;
        let rt = |m: &Model| fmt_f(response_time(m, lambda, Metric::Insert), 2);
        t.push(vec![
            fmt_f(lambda, 4),
            rt(&naive),
            rt(&od),
            rt(&link),
            sim_insert_rt(Protocol::BLink, lambda, opts),
        ]);
    }
    t
}

fn node_size_sweep() -> Vec<usize> {
    vec![5, 9, 13, 21, 31, 45, 59, 101]
}

fn pinned_cfg_for_n(n: usize, disk_cost: f64) -> ModelConfig {
    let shape = TreeShape::derive(40_000, NodeParams::with_max_size(n).expect("n >= 3"))
        .expect("valid shape");
    paper_cfg(shape, disk_cost)
}

/// A rule of thumb: the arrival rate at which the root's writer
/// utilization reaches one half, in closed form.
type Rule = fn(&ModelConfig) -> cbtree_analysis::Result<f64>;

/// The engine of Figures 13 and 14: `protocol`'s rule of thumb and
/// limit rule (named columns) against the full analysis, across node
/// sizes, for D = 1 (all memory-equivalent) and D = 10.
fn rules_of_thumb_figure(title: &str, protocol: Protocol, rules: [(&str, Rule); 2]) -> Table {
    let mut t = Table::new(title, &["N", "D", "analysis", rules[0].0, rules[1].0]);
    for d in [1.0, 10.0] {
        for n in node_size_sweep() {
            let cfg = pinned_cfg_for_n(n, d);
            let exact = Model::new(protocol, &cfg).lambda_at_root_rho(0.5);
            let [rule, limit] = rules.map(|(_, r)| fmt_f(r(&cfg).unwrap_or(f64::NAN), 4));
            t.push(vec![
                n.to_string(),
                fmt_f(d, 0),
                fmt_f(exact.unwrap_or(f64::NAN), 4),
                rule,
                limit,
            ]);
        }
    }
    t
}

/// Figure 13: Naive Lock-coupling rule-of-thumb 1 and limit rule 2 vs the
/// full analysis.
pub fn fig13(_opts: &ExpOptions) -> Table {
    rules_of_thumb_figure(
        "Fig 13: Naive Lock-coupling rules of thumb vs analysis (lambda at rho_w = .5)",
        Protocol::LockCoupling,
        [
            ("rule_of_thumb_1", rules_of_thumb::naive_lc_rot1),
            ("limit_rule_2", rules_of_thumb::naive_lc_rot2),
        ],
    )
}

/// Figure 14: Optimistic Descent rule-of-thumb 3 and limit rule 4 vs the
/// full analysis.
pub fn fig14(_opts: &ExpOptions) -> Table {
    rules_of_thumb_figure(
        "Fig 14: Optimistic Descent rules of thumb vs analysis (lambda at rho_w = .5)",
        Protocol::OptimisticDescent,
        [
            ("rule_of_thumb_3", rules_of_thumb::optimistic_rot3),
            ("limit_rule_4", rules_of_thumb::optimistic_rot4),
        ],
    )
}

fn recovery_figure(title: &str, cfg: ModelConfig, sim: Option<&ExpOptions>) -> Table {
    let cmp = RecoveryComparison::new(Protocol::OptimisticDescent, &cfg, 100.0);
    let (_, _, max_naive) = cmp
        .max_throughputs()
        .expect("recovery variants have finite maxima under optimistic descent");
    let mut t = Table::new(
        title,
        &[
            "lambda",
            "no_recovery_rt",
            "leaf_only_rt",
            "naive_recovery_rt",
            "leaf_only_sim",
            "naive_sim",
        ],
    );
    let sim_at = |lambda: f64, mode: RecoveryMode, opts: &ExpOptions| -> String {
        let mut c = sim_config(Protocol::OptimisticDescent, lambda, 10.0, opts);
        c.recovery = RecoveryConfig {
            mode,
            t_trans: 100.0,
        };
        run_seeds(&c, &opts.seeds)
            .map(|s| fmt_f(s.resp_insert.mean, 2))
            .unwrap_or_else(|_| "unstable".into())
    };
    for frac in [0.1, 0.3, 0.5, 0.7, 0.85, 1.2, 1.8] {
        let lambda = frac * max_naive;
        let one = |m: &Model| fmt_f(response_time(m, lambda, Metric::Insert), 2);
        let (s_leaf, s_naive) = match sim.filter(|o| o.with_sim) {
            Some(opts) => (
                sim_at(lambda, RecoveryMode::LeafOnly, opts),
                if frac < 1.0 {
                    sim_at(lambda, RecoveryMode::Naive, opts)
                } else {
                    "-".into()
                },
            ),
            None => ("-".into(), "-".into()),
        };
        t.push(vec![
            fmt_f(lambda, 4),
            one(&cmp.none),
            one(&cmp.leaf_only),
            one(&cmp.naive),
            s_leaf,
            s_naive,
        ]);
    }
    t
}

/// Figure 15: recovery-algorithm comparison on Optimistic Descent insert
/// response time, N = 13, h = 5, D = 10, T_trans = 100.
pub fn fig15(opts: &ExpOptions) -> Table {
    // The analysis columns use the matched (measured) shape so the
    // simulation overlay compares like with like.
    recovery_figure(
        "Fig 15: recovery comparison, OD insert RT (N=13, 5 levels, D=10, T_trans=100)",
        matched_cfg(10.0, opts),
        Some(opts),
    )
}

/// Figure 16: the same comparison with N = 59 and 4 levels.
///
/// The paper pins this tree at 4 levels; steady-state occupancy for
/// 40 000 items would give 3, so the shape is pinned explicitly (see
/// EXPERIMENTS.md).
pub fn fig16(_opts: &ExpOptions) -> Table {
    let cfg = ModelConfig::pinned(59, 4, 6.0, 2, 10.0, 1.0, OpMix::paper()).expect("valid");
    recovery_figure(
        "Fig 16: recovery comparison, OD insert RT (N=59, 4 levels, D=10, T_trans=100)",
        cfg,
        None, // the pinned 4-level shape has no simulated counterpart
    )
}

/// Ablation: Rule of Thumb 1 with the derivation's `Se(h−1)` vs the
/// printed formula's literal `Se(2)`, against the full analysis, as the
/// disk split makes the two levels differ.
pub fn ablation_rot_se2(_opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Ablation: RoT 1 child-level term — derivation Se(h-1) vs literal Se(2)",
        &["D", "analysis", "rot1_se_h_minus_1", "rot1_literal_se2"],
    );
    for d in [1.0, 2.0, 5.0, 10.0, 20.0] {
        let cfg = ModelConfig::paper_with_disk_cost(d).expect("valid");
        let model = Model::new(Protocol::LockCoupling, &cfg);
        let exact = model.lambda_at_root_rho(0.5).unwrap_or(f64::NAN);
        let derived = rules_of_thumb::naive_lc_rot1(&cfg).unwrap_or(f64::NAN);
        let literal = rules_of_thumb::naive_lc_rot1_literal_se2(&cfg).unwrap_or(f64::NAN);
        t.push(vec![
            fmt_f(d, 0),
            fmt_f(exact, 4),
            fmt_f(derived, 4),
            fmt_f(literal, 4),
        ]);
    }
    t
}

/// Extension (§8 "full version"): strict Two-Phase Locking as the
/// baseline against the paper's three algorithms — analysis and
/// simulation of insert response times, D = 5.
pub fn baseline_2pl(opts: &ExpOptions) -> Table {
    let cfg = matched_cfg(5.0, opts);
    let tp = Model::new(Protocol::TwoPhase, &cfg);
    let naive = Model::new(Protocol::LockCoupling, &cfg);
    let od = Model::new(Protocol::OptimisticDescent, &cfg);
    let link = Model::new(Protocol::BLink, &cfg);
    let tp_max = tp.max_throughput().expect("finite");
    let mut t = Table::new(
        "Extension: Two-Phase Locking baseline vs the paper's algorithms (insert RT, D=5)",
        &[
            "lambda",
            "two_phase_rt",
            "two_phase_sim",
            "naive_rt",
            "optimistic_rt",
            "link_rt",
        ],
    );
    for frac in [0.2, 0.5, 0.8, 0.95, 2.0, 6.0, 30.0] {
        let lambda = frac * tp_max;
        let rt = |m: &Model| fmt_f(response_time(m, lambda, Metric::Insert), 2);
        let sim = if frac < 1.0 {
            sim_insert_rt(Protocol::TwoPhase, lambda, opts)
        } else {
            "-".into()
        };
        t.push(vec![
            fmt_f(lambda, 4),
            rt(&tp),
            sim,
            rt(&naive),
            rt(&od),
            rt(&link),
        ]);
    }
    t
}

/// Extension (§8 "full version"): LRU buffering. Sweeps the buffer-pool
/// size (in nodes) and reports per-level hit rates plus each algorithm's
/// maximum throughput, replacing the binary memory/disk level split with
/// Che's-approximation hit probabilities.
pub fn extension_lru(_opts: &ExpOptions) -> Table {
    use cbtree_btree_model::{lru_cost_model, LruHits};
    let shape = TreeShape::paper();
    let total_nodes: f64 = (1..=shape.height).map(|l| shape.node_count(l)).sum();
    let mut t = Table::new(
        "Extension: LRU buffer sweep (D=5): hit rates and max throughput per algorithm",
        &[
            "buffer_nodes",
            "hit_leaf",
            "hit_L3",
            "hit_L4",
            "naive_max",
            "optimistic_max",
        ],
    );
    for frac in [0.002, 0.01, 0.05, 0.15, 0.3, 0.6, 1.0] {
        let buffer = frac * total_nodes;
        let hits = LruHits::compute(&shape, buffer).expect("valid buffer");
        let cost = lru_cost_model(&shape, buffer, 5.0, 1.0).expect("valid cost");
        let cfg = ModelConfig::new(shape.clone(), OpMix::paper(), cost).expect("consistent");
        let naive = Model::new(Protocol::LockCoupling, &cfg)
            .max_throughput()
            .unwrap_or(f64::NAN);
        let od = Model::new(Protocol::OptimisticDescent, &cfg)
            .max_throughput()
            .unwrap_or(f64::NAN);
        t.push(vec![
            fmt_f(buffer, 0),
            fmt_f(hits.hit(1), 3),
            fmt_f(hits.hit(3), 3),
            fmt_f(hits.hit(4), 3),
            fmt_f(naive, 4),
            fmt_f(od, 4),
        ]);
    }
    t
}

/// Extension: key-skew sensitivity. The framework assumes uniform key
/// traffic (arrival rates divide evenly by fanout); this experiment
/// sweeps Zipf skew in the *simulator* and reports how far response
/// times and link-crossing rates drift from the uniform-traffic
/// analysis — mapping the model's domain of validity.
pub fn extension_skew(opts: &ExpOptions) -> Table {
    use cbtree_workload::KeyDist;
    let cfg = matched_cfg(5.0, opts);
    let link = Model::new(Protocol::BLink, &cfg);
    let naive = Model::new(Protocol::LockCoupling, &cfg);
    let naive_max = naive.max_throughput().expect("finite");
    let lambda_naive = 0.6 * naive_max;
    let lambda_link = 20.0 * naive_max;
    let uniform_naive = response_time(&naive, lambda_naive, Metric::Insert);
    let uniform_link = response_time(&link, lambda_link, Metric::Insert);

    let mut t = Table::new(
        "Extension: Zipf key skew vs the uniform-traffic analysis (insert RT, D=5)",
        &[
            "zipf_theta",
            "naive_sim_rt",
            "naive_analysis_uniform",
            "link_sim_rt",
            "link_analysis_uniform",
            "link_crossings_per_1000",
        ],
    );
    for theta in [0.0, 0.5, 0.8, 0.99, 1.2] {
        let zipf = |protocol, lambda| {
            let mut c = sim_config(protocol, lambda, 5.0, opts);
            c.ops.keys = KeyDist::Zipf {
                n: 100_000_000,
                theta,
            };
            run_seeds(&c, &opts.seeds)
        };
        let naive_rt = zipf(Protocol::LockCoupling, lambda_naive)
            .map_or_else(|_| "unstable".into(), |s| fmt_f(s.resp_insert.mean, 2));
        let (link_rt, crossings) = match zipf(Protocol::BLink, lambda_link) {
            Ok(s) => (
                fmt_f(s.resp_insert.mean, 2),
                fmt_f(1000.0 * s.crossings_per_op.mean, 2),
            ),
            Err(_) => ("unstable".into(), "-".into()),
        };
        t.push(vec![
            fmt_f(theta, 2),
            naive_rt,
            fmt_f(uniform_naive, 2),
            link_rt,
            fmt_f(uniform_link, 2),
            crossings,
        ]);
    }
    t
}

/// Ablation: Theorem 3's staged hyperexponential upper-level server vs a
/// plain exponential of equal mean — how much waiting the variance
/// carries, validated against the simulator.
pub fn ablation_hyperexp(opts: &ExpOptions) -> Table {
    let cfg = matched_cfg(5.0, opts);
    let staged = Model::new(Protocol::LockCoupling, &cfg);
    let expo = Model::exponential_approx(&cfg);
    let max = staged.max_throughput().expect("finite");
    let mut t = Table::new(
        "Ablation: Theorem 3 staged server vs exponential approximation (naive LC insert RT)",
        &["lambda", "staged_rt", "exponential_rt", "sim_rt"],
    );
    for frac in [0.3, 0.5, 0.7, 0.85, 0.95] {
        let lambda = frac * max;
        t.push(vec![
            fmt_f(lambda, 4),
            fmt_f(response_time(&staged, lambda, Metric::Insert), 2),
            fmt_f(response_time(&expo, lambda, Metric::Insert), 2),
            sim_insert_rt(Protocol::LockCoupling, lambda, opts),
        ]);
    }
    t
}

/// Ablation: merge-at-empty vs merge-at-half restructuring rates (the
/// §3.2 justification for analyzing merge-at-empty B-trees).
pub fn ablation_merge_policy(_opts: &ExpOptions) -> Table {
    let mix = OpMix::paper();
    let mut t = Table::new(
        "Ablation: leaf restructurings per update — merge-at-empty vs merge-at-half",
        &["N", "at_empty", "at_half", "ratio"],
    );
    for n in node_size_sweep() {
        let node = NodeParams::with_max_size(n).expect("n >= 3");
        let ae = MergePolicy::AtEmpty.leaf_restructure_rate(&node, &mix);
        let ah = MergePolicy::AtHalf.leaf_restructure_rate(&node, &mix);
        t.push(vec![
            n.to_string(),
            fmt_f(ae, 5),
            fmt_f(ah, 5),
            fmt_f(ah / ae.max(1e-12), 2),
        ]);
    }
    t
}

/// Every simulated protocol pinned to the bit: each member of
/// `Protocol::ALL_WITH_RECOVERY`, with its [`Protocol::policy`] row
/// (retention column included), on the paper's N = 13 tree at a rate all seven
/// sustain, and on a cap-3 tree grown from 8 keys whose root splits
/// under queued descents. Cells print with `{:?}`, so a simulator change
/// that moves any bit of these statistics moves this table.
pub fn sim_matrix(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Simulator matrix: every protocol on the paper tree and on a growing cap-3 tree",
        &[
            "protocol",
            "tree",
            "lambda",
            "search_rt",
            "insert_rt",
            "delete_rt",
            "rho_root",
            "crossings_per_op",
            "redo_rate",
            "final_height",
            "completed",
        ],
    );
    for p in Protocol::ALL_WITH_RECOVERY {
        let growing = SimConfig {
            node_capacity: 3,
            initial_items: 8,
            measured_ops: 3_000,
            warmup_ops: 100,
            ..SimConfig::paper(p, 0.05, 1)
        };
        for (tree, mut c) in [
            ("paper-n13", sim_config(p, 0.02, 5.0, opts)),
            ("cap3-from-8", growing),
        ] {
            c.recovery = RecoveryConfig {
                mode: p.policy().txn,
                t_trans: 100.0,
            };
            let cells = match opts.with_sim.then(|| cbtree_sim::run(&c)) {
                Some(Ok(r)) => vec![
                    format!("{:?}", r.resp_search.mean),
                    format!("{:?}", r.resp_insert.mean),
                    format!("{:?}", r.resp_delete.mean),
                    format!("{:?}", r.root_writer_utilization),
                    format!("{:?}", r.crossings_per_op),
                    format!("{:?}", r.redo_rate),
                    r.levels.len().to_string(),
                    r.completed.to_string(),
                ],
                Some(Err(e)) => vec![e.to_string(); 8],
                None => vec!["-".into(); 8],
            };
            let mut row = vec![
                p.name().into(),
                tree.into(),
                format!("{:?}", c.arrival_rate),
            ];
            row.extend(cells);
            t.push(row);
        }
    }
    t
}

/// Runs one named experiment (or `all`), writing each table as
/// `<out_dir>/<name>.csv` when an output directory is configured.
pub fn run_figure(name: &str, opts: &ExpOptions) -> Vec<Table> {
    if name == "all" {
        return FIGURES
            .iter()
            .flat_map(|(n, _)| run_figure(n, opts))
            .collect();
    }
    let Some((_, figure)) = FIGURES.iter().find(|(n, _)| *n == name) else {
        let known = FIGURES.map(|(n, _)| n);
        panic!("unknown experiment `{name}`; known: {known:?} or `all`");
    };
    let table = figure(opts);
    if let Some(dir) = &opts.out_dir {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: failed to write {}: {e}", path.display());
        }
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nosim() -> ExpOptions {
        ExpOptions {
            with_sim: false,
            ..ExpOptions::quick()
        }
    }

    #[test]
    fn analysis_only_figures_have_rows() {
        for name in [
            "fig11",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "ablation-rot-se2",
            "ablation-merge-policy",
        ] {
            let tables = run_figure(name, &nosim());
            assert_eq!(tables.len(), 1, "{name}");
            assert!(!tables[0].rows.is_empty(), "{name} produced no rows");
        }
    }

    #[test]
    fn fig12_shows_the_ranking() {
        let t = fig12(&nosim());
        // At moderate load (lock queues active) the ranking is
        // naive ≥ optimistic ≥ link in response time. (At *zero* load OD
        // pays its redo overhead and can sit slightly above naive — the
        // paper's "higher maximum throughput usually means lower response
        // times, but not always".)
        let row = &t.rows[5]; // frac 0.7 of OD max
        let naive: f64 = row[1].parse().unwrap_or(f64::INFINITY);
        let od: f64 = row[2].parse().unwrap();
        let link: f64 = row[3].parse().unwrap();
        assert!(naive >= od && od >= link, "{naive} {od} {link}");
        // At the top rate naive must be saturated.
        let last = &t.rows[t.rows.len() - 1];
        assert_eq!(last[1], "sat");
    }

    #[test]
    fn fig11_throughput_decreases_with_disk_cost() {
        let t = fig11(&nosim());
        let max_at = |i: usize| -> f64 { t.rows[i][1].parse().unwrap() };
        for i in 1..t.rows.len() {
            assert!(max_at(i) < max_at(i - 1), "throughput must fall as D grows");
        }
        assert!(max_at(0) > 2.0 * max_at(7), "D=1 should far outrun D=20");
    }

    #[test]
    fn fig13_naive_flat_fig14_od_grows() {
        let t13 = fig13(&nosim());
        let first: f64 = t13.rows[0][2].parse().unwrap();
        let last_d1 = &t13.rows[node_size_sweep().len() - 1];
        let last: f64 = last_d1[2].parse().unwrap();
        assert!((last / first) < 2.0, "naive effective max nearly flat in N");

        let t14 = fig14(&nosim());
        let f14: f64 = t14.rows[0][2].parse().unwrap();
        let l14: f64 = t14.rows[node_size_sweep().len() - 1][2].parse().unwrap();
        assert!(
            l14 > 3.0 * f14,
            "OD effective max grows with N: {f14} → {l14}"
        );
    }

    #[test]
    fn recovery_figures_rank_correctly() {
        for t in [fig15(&nosim()), fig16(&nosim())] {
            for row in &t.rows {
                let none: f64 = row[1].parse().unwrap_or(f64::INFINITY);
                let leaf: f64 = row[2].parse().unwrap_or(f64::INFINITY);
                if let Ok(naive) = row[3].parse::<f64>() {
                    assert!(naive >= leaf - 1e-6, "naive ≥ leaf-only in {}", t.title);
                }
                if none.is_finite() && leaf.is_finite() {
                    assert!(leaf >= none - 1e-6);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_name_panics() {
        run_figure("fig99", &nosim());
    }
}
