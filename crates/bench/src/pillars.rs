//! The one table that says which analytical model and which simulated
//! algorithm stand for a live [`Protocol`], and the one routine that
//! evaluates both at an arrival rate — what `analyze --verify`,
//! `analyze --live` and `cbtree-trace` compare a measurement against.

use cbtree_analysis::{Algorithm, ModelConfig, Performance, RecoveryConfig, RecoveryMode};
use cbtree_btree::Protocol;
use cbtree_btree_model::{CostModel, NodeParams, OpMix, TreeShape};
use cbtree_sim::costs::SimCosts;
use cbtree_sim::{run_seeds, SeedSummary, SimAlgorithm, SimConfig, SimError, SimRecovery};
use cbtree_workload::{KeyDist, OpsConfig};

/// The simulator builds at most this many items; past it the analysis
/// extrapolates the same per-level model.
pub const SIM_MAX_ITEMS: u64 = 200_000;

/// The analytical and simulated counterparts of a live protocol. The
/// recovery protocols are naive lock-coupling under a retention mode.
pub fn of(p: Protocol) -> (Algorithm, RecoveryMode, SimAlgorithm) {
    use {Algorithm as A, RecoveryMode as R, SimAlgorithm as S};
    match p {
        Protocol::LockCoupling => (A::NaiveLockCoupling, R::None, S::NaiveLockCoupling),
        Protocol::OptimisticDescent => (A::OptimisticDescent, R::None, S::OptimisticDescent),
        Protocol::BLink => (A::LinkType, R::None, S::LinkType),
        Protocol::TwoPhase => (A::TwoPhaseLocking, R::None, S::TwoPhaseLocking),
        Protocol::Olc => (A::Olc, R::None, S::Olc),
        Protocol::RecoveryNaive => (A::NaiveLockCoupling, R::Naive, S::NaiveLockCoupling),
        Protocol::RecoveryLeaf => (A::NaiveLockCoupling, R::LeafOnly, S::NaiveLockCoupling),
    }
}

pub(crate) fn sim_recovery(r: RecoveryConfig) -> SimRecovery {
    let t_trans = r.t_trans;
    match r.mode {
        RecoveryMode::None => SimRecovery::None,
        RecoveryMode::Naive => SimRecovery::Naive { t_trans },
        RecoveryMode::LeafOnly => SimRecovery::LeafOnly { t_trans },
    }
}

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
    let mut sc = SimConfig::paper(of(protocol).2, lambda, 1);
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
    sc.recovery = sim_recovery(cfg.recovery);
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
    let analysis = of(protocol).0.model(cfg).evaluate(lambda).ok();
    (analysis, simulate(protocol, cfg, keyspace, lambda, seeds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_name_and_alias_finds_its_row() {
        // What `--algo` accepts and what a run artifact's `meta.protocol`
        // says, against the analysis it must be compared with.
        use {Algorithm as A, RecoveryMode as R};
        let rows = [
            ("lock-coupling", A::NaiveLockCoupling, R::None),
            ("coupling", A::NaiveLockCoupling, R::None),
            ("naive", A::NaiveLockCoupling, R::None),
            ("optimistic", A::OptimisticDescent, R::None),
            ("b-link", A::LinkType, R::None),
            ("blink", A::LinkType, R::None),
            ("link", A::LinkType, R::None),
            ("two-phase", A::TwoPhaseLocking, R::None),
            ("twophase", A::TwoPhaseLocking, R::None),
            ("olc", A::Olc, R::None),
            ("optimistic-lock-coupling", A::Olc, R::None),
            ("recovery-naive", A::NaiveLockCoupling, R::Naive),
            ("recovery-leaf", A::NaiveLockCoupling, R::LeafOnly),
        ];
        for (name, algorithm, recovery) in rows {
            let (a, r, s) = of(name.parse().expect(name));
            assert_eq!((a, r), (algorithm, recovery), "{name}");
            // Both pillars model the same algorithm: the two enums name
            // their variants alike.
            assert_eq!(format!("{a:?}"), format!("{s:?}"), "{name}");
        }
        for p in Protocol::ALL_WITH_RECOVERY {
            assert!(rows.iter().any(|row| row.0 == p.name()), "{}", p.name());
        }
    }

    #[test]
    fn recovery_mode_carries_its_t_trans_into_the_simulator() {
        let at = |mode| sim_recovery(RecoveryConfig { mode, t_trans: 7.0 });
        assert_eq!(at(RecoveryMode::None), SimRecovery::None);
        assert_eq!(at(RecoveryMode::Naive), SimRecovery::Naive { t_trans: 7.0 });
        assert_eq!(
            at(RecoveryMode::LeafOnly),
            SimRecovery::LeafOnly { t_trans: 7.0 }
        );
    }

    #[test]
    fn analysis_and_simulation_agree_on_a_nearly_idle_memory_resident_tree() {
        let cfg = memory_resident(5_000, 16, OpMix::paper()).unwrap();
        assert_eq!(cfg.cost.memory_levels, cfg.height());
        let zero = zero_load(&cfg).unwrap().response_time_search;
        assert!((zero - cfg.height() as f64).abs() < 0.01, "{zero}");
        for p in Protocol::ALL_WITH_RECOVERY {
            let cfg = cfg.clone().with_recovery(of(p).1, 1.0);
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
