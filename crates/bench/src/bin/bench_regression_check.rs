//! The exact regression gate over the `BENCH_*.json` reports.
//!
//! ```text
//! bench_regression_check --baseline <dir|file> --current <dir|file>
//! ```
//!
//! For every `BENCH_*.json` under `--current`, the file of the same name
//! under `--baseline` (default: the committed `bench/baseline/`) must exist
//! and equal the current file with its `"wall"` objects removed
//! ([`bench_support::report::without_wall`]) byte for byte.  A changed,
//! missing or extra deterministic field fails; a deliberate change updates
//! the baseline in the same commit.  Wall-clock numbers are not compared
//! here at all: `benchmark compare` is the wall-clock gate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench_support::arg_value;
use bench_support::report::without_wall;

/// Every line on which `current`'s deterministic part differs from the
/// baseline, narrowed to the differing members where the lines line up.
fn differences(baseline: &str, current: &str) -> Vec<String> {
    let current = without_wall(current);
    let (baseline_lines, current_lines) = (baseline.lines().count(), current.lines().count());
    let mut out = Vec::new();
    if baseline_lines != current_lines {
        out.push(format!(
            "baseline has {baseline_lines} lines, current run {current_lines}"
        ));
    }
    for (number, (expected, actual)) in baseline.lines().zip(current.lines()).enumerate() {
        if expected == actual {
            continue;
        }
        let (expected_members, actual_members): (Vec<&str>, Vec<&str>) =
            (expected.split(", ").collect(), actual.split(", ").collect());
        if expected_members.len() == actual_members.len() {
            for (e, a) in expected_members.iter().zip(&actual_members) {
                if e != a {
                    out.push(format!("line {}: baseline {e} / current {a}", number + 1));
                }
            }
        } else {
            out.push(format!(
                "line {}: fields differ\n     baseline {expected}\n     current  {actual}",
                number + 1
            ));
        }
    }
    out
}

/// Compares one current file against the baseline of the same name.
fn check_file(baseline: &Path, current_path: &Path) -> Vec<String> {
    let name = current_path.file_name().unwrap_or_default();
    let baseline_path = if baseline.is_file() {
        baseline.to_path_buf()
    } else {
        baseline.join(name)
    };
    let Ok(baseline_json) = std::fs::read_to_string(&baseline_path) else {
        return vec![format!(
            "no readable baseline at {} — commit one with the bench",
            baseline_path.display()
        )];
    };
    match std::fs::read_to_string(current_path) {
        Ok(current_json) => differences(&baseline_json, &current_json),
        Err(err) => vec![format!("cannot read {}: {err}", current_path.display())],
    }
}

/// The `BENCH_*.json` files under `path` (or `path` itself when a file).
fn bench_files(path: &Path) -> Vec<PathBuf> {
    if path.is_file() {
        return vec![path.to_path_buf()];
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn main() -> ExitCode {
    let baseline =
        PathBuf::from(arg_value("--baseline").unwrap_or_else(|| "bench/baseline".to_string()));
    let current_dir = PathBuf::from(arg_value("--current").unwrap_or_else(|| ".".to_string()));

    let current_files = bench_files(&current_dir);
    if current_files.is_empty() {
        eprintln!(
            "no BENCH_*.json files under {} — nothing to compare",
            current_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let mut failed = 0;
    for current_path in &current_files {
        let found = check_file(&baseline, current_path);
        println!(
            "== {}: {} ==",
            current_path.display(),
            if found.is_empty() { "equal" } else { "DIFFERS" }
        );
        for line in &found {
            println!("   {line}");
        }
        failed += usize::from(!found.is_empty());
    }

    if failed == 0 {
        println!("bench regression check passed: every deterministic field equals its baseline");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench regression check FAILED: {failed} of {} file(s) differ from the baseline; \
             if the change is deliberate, regenerate bench/baseline/ in the same commit \
             (EXPERIMENTS.md, \"Regenerating a baseline\")",
            current_files.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated `qps` beside wall `qps`, the way `fig_scaleout` reports them.
    const CURRENT: &str = r#"{
  "bench": "scaleout",
  "quick": true,
  "points": [
    {"nodes": 1, "qps": 100.000000, "net_pages": 0, "wall": {"qps": 4100.500000, "migration_rate": 0.000000}},
    {"nodes": 8, "qps": 300.000000, "net_pages": 96, "wall": {"qps": 5200.250000, "migration_rate": 0.125000}}
  ],
  "gate": {"scaling": 3.000000},
  "wall": {"cores": 2}
}
"#;

    fn baseline() -> String {
        without_wall(CURRENT)
    }

    #[test]
    fn identical_runs_pass() {
        assert!(differences(&baseline(), CURRENT).is_empty());
    }

    #[test]
    fn a_changed_wall_field_passes() {
        let noisy = CURRENT
            .replace("4100.500000", "1.000000")
            .replace("0.125000", "0.875000");
        assert_ne!(noisy, CURRENT);
        assert!(differences(&baseline(), &noisy).is_empty());
    }

    #[test]
    fn cores_is_ignored() {
        let other_host = CURRENT.replace("\"cores\": 2", "\"cores\": 64");
        assert!(differences(&baseline(), &other_host).is_empty());
    }

    #[test]
    fn a_30_percent_throughput_drop_fails() {
        // The simulated qps is deterministic: any change is a regression
        // (or a deliberate change that must update the baseline).
        let slower = CURRENT.replace("\"qps\": 300.000000", "\"qps\": 210.000000");
        let failures = differences(&baseline(), &slower);
        assert_eq!(
            failures,
            ["line 6: baseline \"qps\": 300.000000 / current \"qps\": 210.000000"]
        );
    }

    #[test]
    fn dropping_a_gated_metric_fails() {
        // Renaming or removing a deterministic field must not silently
        // stop the gate from gating it.
        let renamed = CURRENT.replace("\"scaling\"", "\"speedup\"");
        assert_eq!(differences(&baseline(), &renamed).len(), 1);
        let removed = CURRENT.replace(", \"net_pages\": 96", "");
        let failures = differences(&baseline(), &removed);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("line 6: fields differ"));
    }

    #[test]
    fn an_extra_deterministic_field_fails() {
        let extra = CURRENT.replace("\"scaling\":", "\"limit\": 2.000000, \"scaling\":");
        assert_eq!(differences(&baseline(), &extra).len(), 1);
        let extra_line = CURRENT.replace("  \"gate\"", "  \"bits\": 64,\n  \"gate\"");
        assert!(differences(&baseline(), &extra_line)[0].contains("lines"));
    }

    #[test]
    fn a_wall_field_in_the_baseline_fails() {
        assert!(!differences(CURRENT, CURRENT).is_empty());
    }

    #[test]
    fn a_current_file_without_a_baseline_fails() {
        let dir = std::env::temp_dir().join(format!("bench_check_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("baseline")).expect("temp dir");
        let current = dir.join("BENCH_new.json");
        std::fs::write(&current, CURRENT).expect("temp file");
        let failures = check_file(&dir.join("baseline"), &current);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("no readable baseline"));
        // With the baseline in place the same file passes.
        std::fs::write(dir.join("baseline/BENCH_new.json"), baseline()).expect("temp file");
        assert!(check_file(&dir.join("baseline"), &current).is_empty());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
