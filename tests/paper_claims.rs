//! End-to-end checks of every qualitative claim the paper makes in its
//! conclusions (§6–§8), exercised through the public API.

use cbtree::analysis::recovery::RecoveryComparison;
use cbtree::analysis::{rules_of_thumb, Model, ModelConfig, Protocol};
use cbtree::model::{CostModel, NodeParams, OpMix, TreeShape};

fn cfg_for_n(n: usize, disk_cost: f64) -> ModelConfig {
    let shape = TreeShape::derive(40_000, NodeParams::with_max_size(n).unwrap()).unwrap();
    let cost = CostModel::paper_style(shape.height, 2, disk_cost, 1.0).unwrap();
    ModelConfig::new(shape, OpMix::paper(), cost).unwrap()
}

#[test]
fn headline_ranking_link_gg_od_gg_naive() {
    // §8: "the Link-type algorithm is significantly better than the
    // optimistic descent algorithm, which is significantly better than
    // the Naive Lock-coupling algorithm."
    let cfg = ModelConfig::paper_base();
    let naive = Model::new(Protocol::LockCoupling, &cfg)
        .max_throughput()
        .unwrap();
    let od = Model::new(Protocol::OptimisticDescent, &cfg)
        .max_throughput()
        .unwrap();
    let link = Model::new(Protocol::BLink, &cfg).max_throughput().unwrap();
    assert!(od > 2.0 * naive, "OD {od} must dominate naive {naive}");
    assert!(link > 10.0 * od, "link {link} must dominate OD {od}");
}

#[test]
fn naive_wants_small_nodes_od_wants_large_nodes() {
    // §6's design strategy, with binary-search node costs.
    use cbtree::model::SearchCost;
    let build = |n: usize| {
        let node = NodeParams::with_max_size(n).unwrap();
        let shape = TreeShape::derive(1_000_000, node).unwrap();
        let cost = CostModel::with_search_cost(
            shape.height,
            shape.height, // all in memory to isolate the search-cost effect
            1.0,
            SearchCost::BinarySearch { a: 0.5, b: 0.25 },
            &node,
        )
        .unwrap();
        ModelConfig::new(shape, OpMix::paper(), cost).unwrap()
    };
    let naive_small = Model::new(Protocol::LockCoupling, &build(13))
        .lambda_at_root_rho(0.5)
        .unwrap();
    let naive_large = Model::new(Protocol::LockCoupling, &build(401))
        .lambda_at_root_rho(0.5)
        .unwrap();
    assert!(
        naive_small > naive_large,
        "naive LC prefers small nodes: N=13 gives {naive_small}, N=401 gives {naive_large}"
    );
    let od_small = Model::new(Protocol::OptimisticDescent, &build(13))
        .lambda_at_root_rho(0.5)
        .unwrap();
    let od_large = Model::new(Protocol::OptimisticDescent, &build(401))
        .lambda_at_root_rho(0.5)
        .unwrap();
    assert!(
        od_large > 3.0 * od_small,
        "OD prefers large nodes: N=13 gives {od_small}, N=401 gives {od_large}"
    );
}

#[test]
fn rules_of_thumb_track_the_analysis_in_memory() {
    // Figure 13/14's headline: for in-memory trees the rules of thumb
    // closely match the analytical λ at ρ_w = .5.
    for n in [13usize, 31, 59] {
        let cfg = cfg_for_n(n, 1.0);
        let exact = Model::new(Protocol::LockCoupling, &cfg)
            .lambda_at_root_rho(0.5)
            .unwrap();
        let rot = rules_of_thumb::naive_lc_rot1(&cfg).unwrap();
        let ratio = rot / exact;
        assert!(
            (0.5..2.0).contains(&ratio),
            "N={n}: RoT1 {rot} vs analysis {exact}"
        );

        let od_exact = Model::new(Protocol::OptimisticDescent, &cfg)
            .lambda_at_root_rho(0.5)
            .unwrap();
        let rot3 = rules_of_thumb::optimistic_rot3(&cfg).unwrap();
        let od_ratio = rot3 / od_exact;
        assert!(
            (0.3..3.0).contains(&od_ratio),
            "N={n}: RoT3 {rot3} vs analysis {od_exact}"
        );
    }
}

#[test]
fn rot1_overestimates_on_disk_with_small_nodes() {
    // Figure 13's caveat: "If the disk cost is 10, rule of thumb 1 vastly
    // overestimates performance when the maximum node size is small."
    let cfg = cfg_for_n(9, 10.0);
    let exact = Model::new(Protocol::LockCoupling, &cfg)
        .lambda_at_root_rho(0.5)
        .unwrap();
    let rot = rules_of_thumb::naive_lc_rot1(&cfg).unwrap();
    assert!(
        rot > 1.3 * exact,
        "RoT1 {rot} should overestimate {exact} at D=10, N=9"
    );
}

#[test]
fn limit_rules_are_approached_as_nodes_grow() {
    for d in [1.0, 10.0] {
        let gap = |n: usize| -> f64 {
            let cfg = cfg_for_n(n, d);
            let r1 = rules_of_thumb::naive_lc_rot1(&cfg).unwrap();
            let r2 = rules_of_thumb::naive_lc_rot2(&cfg).unwrap();
            ((r1 - r2) / r2).abs()
        };
        assert!(
            gap(101) < gap(9),
            "D={d}: RoT1 must approach RoT2 as N grows"
        );
    }
}

#[test]
fn naive_effective_max_independent_of_node_size_od_proportional() {
    // §6: naive LC's effective max is independent of N (unit search
    // cost); OD's is inversely proportional to Pr[F(1)] ∝ 1/N.
    let naive_13 = rules_of_thumb::naive_lc_rot1(&cfg_for_n(13, 1.0)).unwrap();
    let naive_101 = rules_of_thumb::naive_lc_rot1(&cfg_for_n(101, 1.0)).unwrap();
    assert!((naive_101 / naive_13 - 1.0).abs() < 0.25);

    let od_13 = rules_of_thumb::optimistic_rot4(&cfg_for_n(13, 1.0)).unwrap();
    let od_101 = rules_of_thumb::optimistic_rot4(&cfg_for_n(101, 1.0)).unwrap();
    let growth = od_101 / od_13;
    assert!(
        (3.0..12.0).contains(&growth),
        "OD limit rule should grow roughly like N/log N: ×{growth:.2}"
    );
}

#[test]
fn recovery_conclusion_leaf_only_cheap_naive_expensive() {
    // §7/§8: "the Leaf-only recovery algorithm is significantly better
    // than the Naive recovery algorithm" and only slightly worse than no
    // recovery.
    let cfg = ModelConfig::paper_with_disk_cost(10.0).unwrap();
    let cmp = RecoveryComparison::new(Protocol::OptimisticDescent, &cfg, 100.0);
    let (none, leaf, naive) = cmp.max_throughputs().unwrap();
    assert!(
        leaf > 0.9 * none,
        "leaf-only ({leaf}) nearly matches no-recovery ({none})"
    );
    assert!(
        naive < 0.6 * leaf,
        "naive recovery ({naive}) far below leaf-only ({leaf})"
    );
}

#[test]
fn recovery_effect_scales_with_transaction_time() {
    let cfg = ModelConfig::paper_with_disk_cost(10.0).unwrap();
    let max_at = |t_trans: f64| {
        RecoveryComparison::new(Protocol::OptimisticDescent, &cfg, t_trans)
            .max_throughputs()
            .unwrap()
            .2
    };
    let short = max_at(10.0);
    let long = max_at(300.0);
    assert!(
        short > long,
        "longer transactions must hurt naive recovery more"
    );
}

#[test]
fn lock_coupling_bottleneck_is_the_root() {
    // Theorem 2: the saturating level under lock-coupling is the root.
    let cfg = ModelConfig::paper_base();
    let model = Model::new(Protocol::LockCoupling, &cfg);
    let max = model.max_throughput().unwrap();
    match model.evaluate(max * 1.02) {
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("level 5"),
                "bottleneck must be the root: {msg}"
            );
        }
        Ok(_) => panic!("must saturate just above the maximum"),
    }
}

#[test]
fn response_time_hockey_stick() {
    // §5.3: curves "stay level with an increasing arrival rate, then
    // increase rapidly as the arrival rate approaches the maximum".
    let cfg = ModelConfig::paper_base();
    let model = Model::new(Protocol::LockCoupling, &cfg);
    let max = model.max_throughput().unwrap();
    let rt = |f: f64| model.evaluate(f * max).unwrap().response_time_insert;
    let early_slope = (rt(0.3) - rt(0.1)) / (0.2 * max);
    let late_slope = (rt(0.97) - rt(0.90)) / (0.07 * max);
    assert!(
        late_slope > 10.0 * early_slope,
        "late slope {late_slope} must dwarf early slope {early_slope}"
    );
}

#[test]
fn resource_contention_dilation_scales_everything() {
    // §5.2: resource contention enters as a uniform service-time
    // dilation; response times scale accordingly, maxima inversely.
    let base = ModelConfig::paper_base();
    let dilated = ModelConfig::new(
        base.shape.clone(),
        base.mix,
        base.cost.dilated(2.0).unwrap(),
    )
    .unwrap();
    let m0 = Model::new(Protocol::OptimisticDescent, &base);
    let m2 = Model::new(Protocol::OptimisticDescent, &dilated);
    let rt0 = m0.evaluate(0.0).unwrap().response_time_search;
    let rt2 = m2.evaluate(0.0).unwrap().response_time_search;
    assert!((rt2 / rt0 - 2.0).abs() < 1e-9);
    let max0 = m0.max_throughput().unwrap();
    let max2 = m2.max_throughput().unwrap();
    assert!((max0 / max2 - 2.0).abs() < 0.01);
}
