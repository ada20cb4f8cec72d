//! Golden values of the analytical model, compared bit for bit.
//!
//! `golden.txt` pins, for every algorithm under every recovery mode
//! (T_trans = 100) on the paper's base configuration and on its disk-cost
//! 10 variant, the maximum throughput, the λ at root `ρ_w = 0.5`, and at
//! λ = {0.25, 0.5, 0.9} × max the three response times and every level's
//! `rho_w`, `r_wait` and `w_wait` — plus the exponential-server ablation at
//! the staged lock-coupling model's points. Values are compared with
//! `f64::to_bits`: a refactor of the model that moves a bit has
//! reassociated an expression, and the fix is to restore its order, not
//! to regenerate the fixture.
//!
//! The second test pins the identity that makes OLC lock-coupling without
//! the reader class: with no searches, OLC's writers see exactly naive
//! lock-coupling's queues.

use cbtree_analysis::{Model, ModelConfig, Protocol, RecoveryMode};
use cbtree_analysis::{Performance, Result};
use cbtree_btree_model::{CostModel, OpMix, TreeShape};

const FRACTIONS: [f64; 3] = [0.25, 0.5, 0.9];

const RECOVERY: [(&str, RecoveryMode); 3] = [
    ("none", RecoveryMode::None),
    ("leaf-only", RecoveryMode::LeafOnly),
    ("naive", RecoveryMode::Naive),
];

/// One fixture line: a key and its named values (`Debug` of the `f64`, or
/// the error the model returned).
type Line = (String, Vec<(String, String)>);

fn text(value: Result<f64>) -> String {
    value.map_or_else(|e| format!("error: {e}"), |v| format!("{v:?}"))
}

/// Records one model: its two searches, then the operating points at
/// `FRACTIONS` of `max` (its own maximum unless given).
fn record(out: &mut Vec<Line>, label: &str, model: &Model, max: Option<f64>) {
    let own_max = model.max_throughput();
    let max = max.or(own_max.as_ref().ok().copied());
    let searches = vec![
        ("max_throughput".into(), text(own_max)),
        (
            "lambda_at_root_rho(0.5)".into(),
            text(model.lambda_at_root_rho(0.5)),
        ),
    ];
    out.push((label.to_string(), searches));
    let Some(max) = max else { return };
    for frac in FRACTIONS {
        let values = match model.evaluate(frac * max) {
            Ok(perf) => {
                let mut values = vec![
                    ("search".into(), text(Ok(perf.response_time_search))),
                    ("insert".into(), text(Ok(perf.response_time_insert))),
                    ("delete".into(), text(Ok(perf.response_time_delete))),
                ];
                for l in &perf.levels {
                    for (field, v) in [
                        ("rho_w", l.rho_w),
                        ("r_wait", l.r_wait),
                        ("w_wait", l.w_wait),
                    ] {
                        values.push((format!("L{}.{field}", l.level), text(Ok(v))));
                    }
                }
                values
            }
            Err(e) => vec![("evaluate".into(), text(Err(e)))],
        };
        out.push((format!("{label} λ={frac}·max"), values));
    }
}

fn golden() -> Vec<Line> {
    let configs = [
        ("paper", ModelConfig::paper_base()),
        ("disk10", ModelConfig::paper_with_disk_cost(10.0).unwrap()),
    ];
    let mut out = Vec::new();
    for (cfg_name, base) in configs {
        for (rec_name, mode) in RECOVERY {
            let cfg = base.clone().with_recovery(mode, 100.0);
            for alg in Protocol::ALL_EXTENDED {
                let label = format!("{} {cfg_name} {rec_name}", alg.name());
                record(&mut out, &label, &Model::new(alg, &cfg), None);
            }
            let staged_max = Model::new(Protocol::LockCoupling, &cfg)
                .max_throughput()
                .ok();
            let ablation = Model::exponential_approx(&cfg);
            let label = format!("exponential-approx {cfg_name} {rec_name}");
            record(&mut out, &label, &ablation, staged_max);
        }
    }
    out
}

#[test]
fn model_outputs_match_the_golden_fixture_bit_for_bit() {
    let fixture: Vec<(&str, Vec<&str>)> = include_str!("golden.txt")
        .lines()
        .map(|line| {
            let (key, values) = line.split_once(": ").expect("`key: values` lines");
            (key, values.split(" | ").collect())
        })
        .collect();
    let now = golden();
    assert_eq!(now.len(), fixture.len(), "the golden line count changed");
    let mut moved = Vec::new();
    for ((key, values), (old_key, old_values)) in now.iter().zip(&fixture) {
        assert_eq!(key, old_key, "the golden keys changed order");
        assert_eq!(values.len(), old_values.len(), "{key}: value count");
        for ((field, value), old) in values.iter().zip(old_values) {
            let same = match (value.parse::<f64>(), old.parse::<f64>()) {
                (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
                _ => value == old,
            };
            if !same {
                moved.push(format!("{key} {field}: {old} -> {value}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} golden values moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn olc_is_lock_coupling_without_the_reader_class() {
    // With no searches the only difference between the two models is the
    // reader class, which is empty: every writer-side number agrees.
    let cfg = ModelConfig::new(
        TreeShape::paper(),
        OpMix::new(0.0, 0.7, 0.3).unwrap(),
        CostModel::paper(),
    )
    .unwrap();
    let naive = Model::new(Protocol::LockCoupling, &cfg);
    let olc = Model::new(Protocol::Olc, &cfg);
    for lambda in [0.05, 0.1, 0.2, 0.3] {
        let (n, o) = (
            naive.evaluate(lambda).unwrap(),
            olc.evaluate(lambda).unwrap(),
        );
        for (a, b) in n.levels.iter().zip(&o.levels) {
            let level = a.level;
            assert_eq!(
                a.rho_w.to_bits(),
                b.rho_w.to_bits(),
                "λ={lambda} L{level} rho_w"
            );
            assert_eq!(
                a.w_wait.to_bits(),
                b.w_wait.to_bits(),
                "λ={lambda} L{level} w_wait"
            );
        }
        let bits = |p: &Performance| {
            (
                p.response_time_insert.to_bits(),
                p.response_time_delete.to_bits(),
            )
        };
        assert_eq!(
            bits(&n),
            bits(&o),
            "λ={lambda}: insert and delete response times"
        );
    }
    let (max_n, max_o) = (
        naive.max_throughput().unwrap(),
        olc.max_throughput().unwrap(),
    );
    assert_eq!(max_n.to_bits(), max_o.to_bits(), "{max_n} vs {max_o}");
}
