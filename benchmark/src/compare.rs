//! `benchmark compare A.json B.json`: do two sets of runs agree?
//!
//! Each file is a report (`{"runs": [...]}`) as `--report` writes it.  Per
//! workload and end-to-end metric the medians over each file's untraced
//! runs are compared: B may be worse than A by at most the metric's bound.
//! Counters that repeat exactly (`store_bytes_per_row` and the per-layer
//! metrics marked exact) must be equal across all runs of the same seed.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;

/// The `runs` array of a report document.
pub fn runs_of(report: &Json) -> Result<&[Json], String> {
    report
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a benchmark report: no \"runs\" array".to_string())
}

/// Values of metric `name` over the runs of `workload` with the given
/// trace flag, each paired with its run's seed.
fn values(runs: &[Json], workload: &str, trace: bool, name: &str) -> Vec<(u64, f64)> {
    runs.iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_bool) == Some(trace)
        })
        .filter_map(|run| {
            let seed = run.get("seed").and_then(Json::as_f64)? as u64;
            let value = run.get("metrics")?.get(name)?.get("value")?.as_f64()?;
            Some((seed, value))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a;
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Compares two reports.  Returns the printed table and whether B agrees
/// with A on every row.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (runs_of(a)?, runs_of(b)?);
    let quick = |runs: &[Json]| -> BTreeSet<bool> {
        runs.iter()
            .filter_map(|run| run.get("quick").and_then(Json::as_bool))
            .collect()
    };
    let modes: BTreeSet<bool> = quick(runs_a).union(&quick(runs_b)).copied().collect();
    if modes.len() > 1 {
        return Err("quick and full runs are never comparable".to_string());
    }

    let mut table = String::new();
    let mut agree = true;
    let mut rows = 0;
    let _ = writeln!(
        table,
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound"
    );
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let side = |runs| -> Vec<f64> {
                values(runs, workload.name, false, metric.name)
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect()
            };
            let (values_a, values_b) = (side(runs_a), side(runs_b));
            if values_a.is_empty() || values_b.is_empty() {
                continue;
            }
            let (median_a, median_b) = (median(&values_a), median(&values_b));
            let worse = worsening(metric.better, median_a, median_b);
            let verdict = if worse > metric.bound {
                agree = false;
                "REGRESSION"
            } else {
                "ok"
            };
            rows += 1;
            let _ = writeln!(
                table,
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {verdict} (n = {} / {})",
                workload.name,
                metric.name,
                median_a,
                median_b,
                (median_b - median_a) / median_a * 100.0,
                metric.bound * 100.0,
                values_a.len(),
                values_b.len(),
            );
        }
    }
    if rows == 0 {
        return Err("the two reports share no untraced workload to compare".to_string());
    }

    // Exact counters: equal over every run of a seed, in both files.
    let exact = std::iter::once(("store_bytes_per_row", false))
        .chain(PER_LAYER.iter().filter(|m| m.exact).map(|m| (m.name, true)));
    let mut checked = 0;
    for (name, trace) in exact {
        for workload in &WORKLOADS {
            let mut all = values(runs_a, workload.name, trace, name);
            all.extend(values(runs_b, workload.name, trace, name));
            let seeds: BTreeSet<u64> = all.iter().map(|(seed, _)| *seed).collect();
            for seed in seeds {
                let of_seed: Vec<f64> = all
                    .iter()
                    .filter(|(s, _)| *s == seed)
                    .map(|(_, v)| *v)
                    .collect();
                if of_seed.len() < 2 {
                    continue;
                }
                checked += 1;
                if of_seed.iter().any(|v| v.to_bits() != of_seed[0].to_bits()) {
                    agree = false;
                    let _ = writeln!(
                        table,
                        "{:<20} {name} differs between runs of seed {seed}: {of_seed:?}  DIFFERS",
                        workload.name
                    );
                }
            }
        }
    }
    let _ = writeln!(table, "exact counters: {checked} compared by equality");
    let _ = writeln!(
        table,
        "{}",
        if agree {
            "AGREE: B is within every bound of A"
        } else {
            "DISAGREE: see the rows marked REGRESSION / DIFFERS"
        }
    );
    Ok((table, agree))
}

/// The subcommand: prints the table, returns whether the reports agree.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (table, agree) = compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, trace: bool, metrics: &[(&str, f64)]) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("quick", Json::Bool(false)),
            ("trace", Json::Bool(trace)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|(name, value)| {
                            (
                                (*name).to_string(),
                                Json::obj([("value", Json::Num(*value))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn report(runs: Vec<Json>) -> Json {
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn medians_within_bounds_agree_and_a_slowdown_past_the_bound_does_not() {
        let base = |qps: f64| {
            run(
                "scan_single",
                1,
                false,
                &[
                    ("qps", qps),
                    ("latency_p50_ms", 0.40),
                    ("store_bytes_per_row", 61.5),
                ],
            )
        };
        let a = report(vec![base(1000.0), base(1010.0), base(990.0)]);
        // 8 % slower: inside the 15 % bound.  Higher is better for qps.
        let b = report(vec![base(920.0), base(925.0), base(915.0)]);
        let (table, agree) = compare(&a, &b).unwrap();
        assert!(agree, "{table}");
        assert!(table.contains("scan_single") && table.contains("-8.00%"));
        // 20 % slower: a regression; 25 % faster is not.
        let slow = report(vec![base(800.0)]);
        let (table, agree) = compare(&a, &slow).unwrap();
        assert!(!agree && table.contains("REGRESSION"), "{table}");
        assert!(compare(&slow, &a).unwrap().1);
    }

    #[test]
    fn exact_counters_are_compared_by_equality_per_seed() {
        let e2e = run("simio_stream", 1, false, &[("qps", 400.0)]);
        let traced =
            |seed, pages| run("simio_stream", seed, true, &[("exec.io.pages_read", pages)]);
        let a = report(vec![e2e.clone(), traced(1, 5000.0), traced(2, 6000.0)]);
        let same = report(vec![e2e.clone(), traced(1, 5000.0)]);
        let (table, agree) = compare(&a, &same).unwrap();
        assert!(
            agree && table.contains("exact counters: 1 compared"),
            "{table}"
        );
        let moved = report(vec![e2e.clone(), traced(1, 5001.0)]);
        let (table, agree) = compare(&a, &moved).unwrap();
        assert!(!agree && table.contains("DIFFERS"), "{table}");
    }

    #[test]
    fn incomparable_inputs_are_errors() {
        let full = report(vec![run("scan_single", 1, false, &[("qps", 1.0)])]);
        let mut quick_run = run("scan_single", 1, false, &[("qps", 1.0)]);
        if let Json::Obj(members) = &mut quick_run {
            members[2].1 = Json::Bool(true);
        }
        assert!(compare(&full, &report(vec![quick_run])).is_err());
        assert!(compare(&full, &report(vec![])).is_err());
        assert!(compare(&full, &Json::obj([])).is_err());
    }
}
