//! The one routine that evaluates both model pillars for a live
//! [`Protocol`] at an arrival rate — what `analyze --verify`,
//! `analyze --live` and `cbtree-trace` compare a measurement against —
//! and the analysis's projection onto the shared per-level record.
//! The protocol names its algorithm with [`Algorithm::of`] and its
//! retention with [`Protocol::recovery`]; the analysis and the simulator
//! read both.

use cbtree_analysis::{Algorithm, LevelSolution, ModelConfig, Performance};
use cbtree_btree::Protocol;
use cbtree_btree_model::{CostModel, NodeParams, OpMix, TreeShape};
use cbtree_obs::LevelRecord;
use cbtree_sim::costs::SimCosts;
use cbtree_sim::{run_seeds, SeedSummary, SimConfig, SimError};
use cbtree_workload::{KeyDist, OpsConfig};

/// The simulator builds at most this many items; past it the analysis
/// extrapolates the same per-level model.
pub const SIM_MAX_ITEMS: u64 = 200_000;

/// The model of a tree held entirely in memory, which is what the live
/// harness runs: every level costs one unit, whatever height the
/// simulated tree grows to.
pub fn memory_resident(items: u64, capacity: usize, mix: OpMix) -> Result<ModelConfig, String> {
    let node = NodeParams::with_max_size(capacity).map_err(|e| e.to_string())?;
    let shape = TreeShape::derive(items, node).map_err(|e| e.to_string())?;
    let cost =
        CostModel::paper_style(shape.height, shape.height, 1.0, 1.0).map_err(|e| e.to_string())?;
    ModelConfig::new(shape, mix, cost).map_err(|e| e.to_string())
}

/// The zero-load link-type path through `cfg`'s tree. A measured
/// uncontended search time divided by its `response_time_search` is the
/// wall-clock length of one model cost unit.
pub fn zero_load(cfg: &ModelConfig) -> Result<Performance, String> {
    Algorithm::LinkType
        .model(cfg)
        .evaluate(1e-9)
        .map_err(|e| e.to_string())
}

/// Simulates `protocol` on `cfg`'s tree, mix, costs and recovery policy
/// at `lambda` (in operations per cost unit), once per seed, with keys
/// drawn uniformly from `0..keyspace`.
pub fn simulate(
    protocol: Protocol,
    cfg: &ModelConfig,
    keyspace: u64,
    lambda: f64,
    seeds: &[u64],
) -> Result<SeedSummary, SimError> {
    let mut sc = SimConfig::paper(Algorithm::of(protocol), lambda, 1);
    sc.node_capacity = cfg.shape.node.max_node_size;
    sc.initial_items = cfg.shape.n_items.min(SIM_MAX_ITEMS) as usize;
    sc.ops = OpsConfig {
        q_search: cfg.mix.q_search,
        q_insert: cfg.mix.q_insert,
        q_delete: cfg.mix.q_delete,
        keys: KeyDist::Uniform {
            lo: 0,
            hi: keyspace,
        },
    };
    sc.costs = SimCosts {
        base: 1.0,
        disk_cost: cfg.cost.disk_cost,
        memory_levels: cfg.cost.memory_levels,
    };
    sc.recovery = cfg.recovery;
    run_seeds(&sc.with_min_window(100.0, 300.0), seeds)
}

/// Both model pillars at one arrival rate: `protocol`'s analytical model
/// on `cfg` (`None` when it saturates below `lambda`) beside
/// [`simulate`]. The recovery policy is `cfg`'s own: a caller that wants
/// the table's applies it with `with_recovery`.
pub fn evaluate(
    protocol: Protocol,
    cfg: &ModelConfig,
    keyspace: u64,
    lambda: f64,
    seeds: &[u64],
) -> (Option<Performance>, Result<SeedSummary, SimError>) {
    let analysis = Algorithm::of(protocol).model(cfg).evaluate(lambda).ok();
    (analysis, simulate(protocol, cfg, keyspace, lambda, seeds))
}

/// The analysis pillar's per-level records, leaves first, in model cost
/// units: per-node λ, presence ρ_w, and the lock waits R(i) and W(i).
pub fn analysis_levels(perf: &Performance) -> Vec<LevelRecord> {
    let record = |l: &LevelSolution| LevelRecord {
        level: l.level,
        lambda_r: Some(l.lambda_r),
        lambda_w: Some(l.lambda_w),
        rho_w: Some(l.rho_w),
        mean_r_wait: Some(l.r_wait),
        mean_w_wait: Some(l.w_wait),
        ..LevelRecord::default()
    };
    perf.levels.iter().map(record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_and_simulation_agree_on_a_nearly_idle_memory_resident_tree() {
        let cfg = memory_resident(5_000, 16, OpMix::paper()).unwrap();
        assert_eq!(cfg.cost.memory_levels, cfg.height());
        let zero = zero_load(&cfg).unwrap().response_time_search;
        assert!((zero - cfg.height() as f64).abs() < 0.01, "{zero}");
        for p in Protocol::ALL_WITH_RECOVERY {
            let cfg = cfg.clone().with_recovery(p.recovery(), 1.0);
            // Far below two-phase's saturation point, where the models
            // and the simulator must agree whatever the protocol.
            let (anl, sim) = evaluate(p, &cfg, 10_000, 0.001, &[1, 2]);
            let name = p.name();
            let anl = anl.expect(name).response_time_search;
            let sim = sim.expect(name);
            assert_eq!(sim.runs.len(), 2, "{name}");
            let ratio = sim.resp_search.mean / anl;
            assert!((0.9..1.1).contains(&ratio), "{name}: {ratio}");
        }
    }
}
