//! `--compare BASE CHANGE`: one verdict per (workload, metric).
//!
//! Each side is one results file, or a directory whose `*.json` files
//! are runs of one commit. With one file a side, the distribution is the
//! file's per-sample values; with several, it is their per-run medians,
//! and equal-length sides are also paired in file-name order.

use crate::metrics::is_exact;
use crate::stats::Summary;
use crate::BENCHMARK_JSON;
use stashdir::common::json::Value;
use std::path::{Path, PathBuf};

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The end-to-end rules declared in `BENCHMARK.json`.
pub fn rules() -> Vec<(String, Rule)> {
    let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                Rule {
                    lower_is_better: m.get("better")?.as_str()? == "lower",
                    bound: m.get("bound")?.as_f64()?,
                },
            ))
        })
        .collect()
}

/// The verdict on a bounded metric.
///
/// `improved` needs the runs to separate, the medians to differ by more
/// than the base's own interquartile distance, and, when runs were
/// paired, the change to win at least nine pairs in ten. A move inside
/// the bound is `no worse` and beyond it `worse`, unless either side's
/// spread exceeds the bound without the runs separating: `unresolved`.
pub fn verdict(
    base: &Summary,
    change: &Summary,
    rule: Rule,
    wins: Option<(usize, usize)>,
) -> &'static str {
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let worsening = sign * (change.median - base.median) / base.median;
    let (better_apart, worse_apart) = if rule.lower_is_better {
        (change.q3 < base.q1, change.q1 > base.q3)
    } else {
        (change.q1 > base.q3, change.q3 < base.q1)
    };
    let wins_enough = wins.is_none_or(|(won, pairs)| won * 10 >= pairs * 9);
    let beyond_noise = (change.median - base.median).abs() > (base.q3 - base.q1).abs();
    let noisy = base.rel_spread() > rule.bound || change.rel_spread() > rule.bound;
    if worsening < 0.0 && better_apart && beyond_noise && wins_enough {
        "improved"
    } else if noisy && !better_apart && !worse_apart {
        "unresolved"
    } else if worsening <= rule.bound {
        "no worse"
    } else {
        "worse"
    }
}

/// One results file: per workload, its digest and metric values.
struct Run {
    workloads: Vec<WorkloadRun>,
}

struct WorkloadRun {
    name: String,
    digest: Option<String>,
    metrics: Vec<MetricRun>,
}

struct MetricRun {
    name: String,
    unit: String,
    values: Vec<f64>,
    median: f64,
}

fn load_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = || format!("{}: not a benchmark results file", path.display());
    let mut workloads = Vec::new();
    for (name, w) in doc
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(bad)?
    {
        let digest = w.get("digest").and_then(Value::as_str).map(str::to_string);
        let mut metrics = Vec::new();
        for (metric, m) in w
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(bad)?
        {
            let unit = m.get("unit").and_then(Value::as_str).ok_or_else(bad)?;
            let median = m.get("median").and_then(Value::as_f64).ok_or_else(bad)?;
            let values = m
                .get("values")
                .and_then(Value::as_array)
                .ok_or_else(bad)?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<Vec<_>>>()
                .ok_or_else(bad)?;
            metrics.push(MetricRun {
                name: metric.clone(),
                unit: unit.to_string(),
                values,
                median,
            });
        }
        workloads.push(WorkloadRun {
            name: name.clone(),
            digest,
            metrics,
        });
    }
    Ok(Run { workloads })
}

/// A file, or every `.json` file of a directory in name order.
fn load_side(path: &Path) -> Result<Vec<Run>, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        return Err(format!("{}: no results files", path.display()));
    }
    files.iter().map(|f| load_run(f)).collect()
}

/// The side's distribution of one metric, and its per-run medians.
fn distribution(side: &[Run], workload: &str, metric: &str) -> Option<(Vec<f64>, Vec<f64>)> {
    let mut medians = Vec::new();
    let mut values = Vec::new();
    for run in side {
        let w = run.workloads.iter().find(|w| w.name == workload)?;
        let m = w.metrics.iter().find(|m| m.name == metric)?;
        medians.push(m.median);
        values.extend(&m.values);
    }
    Some(if side.len() == 1 {
        (values, medians)
    } else {
        (medians.clone(), medians)
    })
}

pub fn main(base: &Path, change: &Path) -> i32 {
    let (base, change) = match (load_side(base), load_side(change)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return 2;
        }
    };
    let rules = rules();
    let paired = base.len() == change.len() && base.len() > 1;
    let mut regressions = 0;
    println!("workload metric unit base change ratio verdict");
    for w in &base[0].workloads {
        let workload = &w.name;
        let change_digest = change[0]
            .workloads
            .iter()
            .find(|c| c.name == w.name)
            .and_then(|c| c.digest.as_ref());
        if let (Some(b), Some(c)) = (&w.digest, change_digest) {
            let same = b == c;
            regressions += usize::from(!same);
            println!(
                "{workload} digest - {b} {c} - {}",
                if same { "equal" } else { "changed" }
            );
        }
        for MetricRun {
            name: metric, unit, ..
        } in &w.metrics
        {
            let (Some((b, b_runs)), Some((c, c_runs))) = (
                distribution(&base, workload, metric),
                distribution(&change, workload, metric),
            ) else {
                continue;
            };
            let (Some(bs), Some(cs)) = (Summary::of(&b), Summary::of(&c)) else {
                continue;
            };
            let rule = rules.iter().find(|(n, _)| n == metric).map(|(_, r)| *r);
            let v = if is_exact(metric) {
                if b == c {
                    "equal"
                } else {
                    "changed"
                }
            } else if let Some(rule) = rule {
                let wins = paired.then(|| {
                    let won = b_runs
                        .iter()
                        .zip(&c_runs)
                        .filter(|(b, c)| if rule.lower_is_better { c < b } else { c > b })
                        .count();
                    (won, b_runs.len())
                });
                verdict(&bs, &cs, rule, wins)
            } else {
                // Per-layer host times carry no bound: they explain a
                // change, they do not judge it.
                "-"
            };
            regressions += usize::from(matches!(v, "worse" | "changed"));
            let ratio = if bs.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", cs.median / bs.median)
            };
            println!(
                "{workload} {metric} {unit} {} {} {ratio} {v}",
                bs.median, cs.median
            );
        }
    }
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 10,
        }
    }

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: 0.1,
    };

    #[test]
    fn verdicts() {
        let base = s(1.0, 0.99, 1.01);
        assert_eq!(verdict(&base, &s(0.8, 0.79, 0.81), LOWER, None), "improved");
        assert_eq!(
            verdict(&base, &s(1.05, 1.04, 1.06), LOWER, None),
            "no worse"
        );
        assert_eq!(verdict(&base, &s(1.2, 1.19, 1.21), LOWER, None), "worse");
        // Too noisy to tell, and the runs overlap.
        assert_eq!(verdict(&base, &s(1.2, 0.9, 1.5), LOWER, None), "unresolved");
        // Faster, but lost too many pairs.
        assert_eq!(
            verdict(&base, &s(0.8, 0.79, 0.81), LOWER, Some((8, 10))),
            "no worse"
        );
        let higher = Rule {
            lower_is_better: false,
            ..LOWER
        };
        assert_eq!(
            verdict(&base, &s(1.2, 1.19, 1.21), higher, Some((10, 10))),
            "improved"
        );
        assert_eq!(verdict(&base, &s(0.8, 0.79, 0.81), higher, None), "worse");
    }

    #[test]
    fn every_end_to_end_metric_has_a_rule() {
        let rules = rules();
        for (name, _) in crate::metrics::END_TO_END {
            assert!(rules.iter().any(|(n, _)| n == name), "{name}");
        }
    }
}
