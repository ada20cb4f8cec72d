//! A/A comparison: two result files of the same commit, every
//! end-to-end metric × workload held to the bound `BENCHMARK.json`
//! fixes for it.

use cbtree_obs::{read_jsonl, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the first value by which the second may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` document.
pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            Ok(Rule {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
pub fn worse_by(rule: &Rule, a: f64, b: f64) -> f64 {
    if rule.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

type Results = BTreeMap<String, BTreeMap<String, f64>>;

fn load(path: &Path) -> Result<Results, String> {
    let mut out = Results::new();
    for row in read_jsonl(path)? {
        let workload = row
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{}: row without workload", path.display()))?;
        let Some(Json::Obj(metrics)) = row.get("metrics") else {
            return Err(format!("{}: row without metrics", path.display()));
        };
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.insert(workload.to_string(), values);
    }
    Ok(out)
}

/// Compares two result files under `rules`, prints the table, and
/// returns the number of metric × workload pairs out of bounds (in
/// either direction: on one commit neither run may be worse).
pub fn compare(first: &Path, second: &Path, rules: &[Rule]) -> Result<usize, String> {
    let (a, b) = (load(first)?, load(second)?);
    let mut violations = 0;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (workload, first_values) in &a {
        let second_values = b
            .get(workload)
            .ok_or(format!("{}: no row for {workload}", second.display()))?;
        for rule in rules {
            let get = |m: &BTreeMap<String, f64>| {
                m.get(&rule.name)
                    .copied()
                    .ok_or(format!("{workload}: no {}", rule.name))
            };
            let (x, y) = (get(first_values)?, get(second_values)?);
            let diff = worse_by(rule, x, y);
            let out = diff > rule.bound || worse_by(rule, y, x) > rule.bound;
            violations += usize::from(out);
            println!(
                "{workload:<12} {:<14} {x:>14.4} {y:>14.4} {:>+7.2}% {:>6.1}%{}",
                rule.name,
                diff * 100.0,
                rule.bound * 100.0,
                if out { "  OUT OF BOUND" } else { "" }
            );
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&crate::END_TO_END));
        assert_eq!(names("per_layer"), table(&crate::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        let rules = rules(text).unwrap();
        assert!(rules.iter().all(|r| r.bound > 0.0 && r.bound <= 0.25));
        let setup = rules.iter().find(|r| r.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better);
        assert!(
            rules.iter().all(|r| r.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let lower = Rule {
            name: "lat".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        let higher = Rule {
            name: "rate".into(),
            higher_is_better: true,
            bound: 0.1,
        };
        assert!((worse_by(&lower, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(&lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(&higher, 100.0, 125.0) + 0.25).abs() < 1e-12);
    }
}
