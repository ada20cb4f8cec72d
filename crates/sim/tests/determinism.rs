//! Replay determinism: a simulation is a pure function of its
//! configuration (seed included). Two runs of the same config must agree
//! byte-for-byte on every reported statistic — this is what makes a
//! failing setting reportable and debuggable, and it pins down that no
//! hidden state (host RNG, time, iteration-order hashing) leaks into the
//! simulation.

use cbtree_sim::{run, SimAlgorithm as Algorithm, SimConfig};

fn report_bytes(cfg: &SimConfig) -> String {
    // Debug-format the full report: f64 shortest-round-trip printing is
    // injective on bit patterns (modulo NaN payloads, which a sane run
    // never produces), so equal strings ⇔ byte-identical statistics.
    format!(
        "{:?}",
        run(cfg).expect("run must be stable at this setting")
    )
}

#[test]
fn same_seed_same_config_is_byte_identical() {
    for alg in [
        Algorithm::NaiveLockCoupling,
        Algorithm::OptimisticDescent,
        Algorithm::LinkType,
        Algorithm::TwoPhaseLocking,
        Algorithm::Olc,
    ] {
        let cfg = SimConfig::paper(alg, 0.3, 0xD5EED).scaled_down(20);
        let a = report_bytes(&cfg);
        let b = report_bytes(&cfg);
        assert_eq!(a, b, "{alg:?}: two runs of one config diverged");
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the degenerate way to pass the test above: a
    // simulator that ignores its seed would be deterministic too.
    let a = report_bytes(&SimConfig::paper(Algorithm::LinkType, 0.3, 1).scaled_down(20));
    let b = report_bytes(&SimConfig::paper(Algorithm::LinkType, 0.3, 2).scaled_down(20));
    assert_ne!(a, b, "distinct seeds should produce distinct statistics");
}
