//! The repository benchmark: five workloads over the MDHF warehouse, every
//! result checked, every metric printed by name with its unit.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--quick] [--report <file>]
//! benchmark compare <A.json> <B.json>
//! benchmark spec                          # prints BENCHMARK.json
//! ```
//!
//! Run from the repository root.  The last line of standard output of a
//! single-workload run is one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  See `benchmark/README.md`.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod probe;
mod run;
mod setup;
mod span;
mod spec;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use warehouse::exec::ObsConfig;

use json::Json;
use run::Checks;
use span::Spans;
use spec::{Scale, Workload, END_TO_END, ORACLE_SAMPLE, PER_LAYER, SETUP_REPEATS, WORKERS};

/// Where runs keep their FGMT files, traces and reports (git-ignored).
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
struct Options {
    /// `None` runs all five.
    workload: Option<&'static Workload>,
    seed: u64,
    /// Time to measure per run; defaults to `RUN_SECONDS` (0.5 with `--quick`).
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    report: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--quick] [--report <file>]\n       \
                     benchmark compare <A.json> <B.json>\n       \
                     benchmark spec";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        report: None,
    };
    let mut named_workload = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                named_workload = true;
                options.workload = match name.as_str() {
                    "all" => None,
                    name => Some(spec::workload(name).ok_or_else(|| {
                        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                        format!(
                            "unknown workload {name:?}; known: all, {}",
                            known.join(", ")
                        )
                    })?),
                };
            }
            "--seed" => {
                let text = value()?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("--seed takes a u64, got {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                let seconds: f64 = text
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, got {text:?}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds must be within 0..=600, got {text}"));
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--quick" => options.quick = true,
            "--report" => options.report = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !named_workload {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(options)
}

fn provenance() -> Json {
    Json::obj([
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("rustc", Json::Str(sys::rustc_version())),
        ("git_commit", Json::Str(sys::git_commit())),
    ])
}

/// One metric of a run record: its value and unit, and — for a metric
/// taken several times in the run — the median and every raw value.
fn metric(name: &str, value: f64, raw: Option<&[f64]>) -> (String, Json) {
    let unit = spec::unit_of(name).expect("metric is in the normative tables");
    let mut members = vec![
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::str(unit)),
    ];
    if let Some(raw) = raw {
        members.push(("median".to_string(), Json::Num(stats::median(raw))));
        members.push(("raw".to_string(), Json::nums(raw)));
    }
    (name.to_string(), Json::Obj(members))
}

/// Runs one workload and returns its run record.
fn run_workload(
    workload: &'static Workload,
    options: &Options,
    out_dir: &Path,
) -> Result<Json, String> {
    let scale = if options.quick {
        Scale::quick()
    } else {
        Scale::full()
    };
    let seconds = options.seconds.unwrap_or(if options.quick {
        0.5
    } else {
        f64::from(spec::RUN_SECONDS)
    });
    let mut spans = Spans::new();

    // Set-up: once for a traced run, several times for a measured one so
    // that `setup_s` is a median.
    let repeats = if options.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut env = None;
    for _ in 0..repeats {
        // Free the previous store before building the next.
        drop(env.take());
        let built = setup::set_up(workload, &scale, options.seed, out_dir, &mut spans)?;
        setup_s.push(built.timings.total().as_secs_f64());
        env = Some(built);
    }
    let mut env = env.expect("at least one set-up ran");
    env.compute_reference();

    let mut checks = Checks::default();
    let (sampled, mismatches) = setup::check_oracle_sample(&env, options.seed, ORACLE_SAMPLE);
    checks.add(sampled, mismatches);

    let mut metrics = Vec::new();
    let mut rounds = 0;
    if options.trace {
        let values = probe::trace_run(workload, &scale, &env, &mut spans, &mut checks)?;
        for layer in &PER_LAYER {
            metrics.push(metric(layer.name, values[layer.name], None));
        }
        let trace_path = out_dir.join(format!("trace_{}.json", workload.name));
        let document = Json::obj([
            ("workload", Json::str(workload.name)),
            ("seed", Json::Num(options.seed as f64)),
            ("quick", Json::Bool(options.quick)),
            ("spans", spans.to_json()),
        ]);
        std::fs::write(&trace_path, document.render() + "\n")
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        eprintln!(
            "{} spans written to {}",
            spans.all().len(),
            trace_path.display()
        );
    } else {
        let session = run::session(
            workload,
            env.target(),
            WORKERS,
            workload.api.mpl(),
            ObsConfig::default(),
        );
        let measured = run::measure(
            &session,
            workload.api,
            &env.queries,
            &env.expected,
            seconds,
            &mut checks,
        )?;
        rounds = measured.rounds;

        metrics.push(metric("setup_s", stats::median(&setup_s), Some(&setup_s)));
        for (name, values) in measured.series.named() {
            let higher = END_TO_END
                .iter()
                .any(|m| m.name == name && m.better == spec::Better::Higher);
            metrics.push(metric(
                name,
                stats::best_decile(values, higher),
                Some(values),
            ));
        }
        metrics.push(metric("peak_rss_mb", sys::peak_rss_mib()?, None));
        metrics.push(metric(
            "store_bytes_per_row",
            env.file_bytes as f64 / env.rows as f64,
            None,
        ));
        debug_assert!(metrics
            .iter()
            .map(|(n, _)| n.as_str())
            .eq(END_TO_END.iter().map(|m| m.name)));
    }

    Ok(Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(options.quick)),
        ("trace", Json::Bool(options.trace)),
        ("batch", Json::Num(env.queries.len() as f64)),
        ("rounds", Json::Num(rounds as f64)),
        ("rows", Json::Num(env.rows as f64)),
        ("file_bytes", Json::Num(env.file_bytes as f64)),
        ("correct", Json::Bool(checks.correct())),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("provenance", provenance()),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// The contract's result object of a run record: `correct`, `attempted`,
/// `failed` and `metrics` with `{value, unit}` each.
fn result_line(record: &Json) -> Json {
    let metrics = record
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            let pick = |key: &str| m.get(key).cloned().unwrap_or(Json::Null);
            (
                name.clone(),
                Json::obj([("value", pick("value")), ("unit", pick("unit"))]),
            )
        })
        .collect();
    let pick = |key: &str| record.get(key).cloned().unwrap_or(Json::Null);
    Json::obj([
        ("correct", pick("correct")),
        ("attempted", pick("attempted")),
        ("failed", pick("failed")),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Appends `record` to the `runs` array of the report at `path`.
fn append_to_report(path: &Path, record: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            compare::runs_of(&Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)?
                .to_vec()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    runs.push(record);
    let lines: Vec<String> = runs
        .iter()
        .map(|run| format!("  {}", run.render()))
        .collect();
    let text = format!("{{\"runs\": [\n{}\n]}}\n", lines.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(options: &Options) -> Result<(), String> {
    if !Path::new("benchmark").is_dir() {
        return Err("no benchmark/ directory here: run from the repository root".to_string());
    }
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    sys::preflight(&out_dir)?;

    let selected: Vec<&'static Workload> = match options.workload {
        Some(workload) => vec![workload],
        None => spec::WORKLOADS.iter().collect(),
    };
    for workload in selected {
        let record = run_workload(workload, options, &out_dir)?;
        let report = options
            .report
            .clone()
            .unwrap_or_else(|| out_dir.join(format!("last_{}.json", workload.name)));
        if options.report.is_none() {
            // The default report holds only the latest run.
            let _ = std::fs::remove_file(&report);
        }
        append_to_report(&report, record.clone())?;

        let mode = if options.quick { " (quick)" } else { "" };
        println!("workload {}{mode}, seed {}", workload.name, options.seed);
        for (name, m) in record.get("metrics").map(Json::members).unwrap_or_default() {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("  {name:<44} {value:>16.6} {unit}");
        }
        if record.get("correct") != Some(&Json::Bool(true)) {
            eprintln!("{}: INCORRECT RESULTS — see `failed` below", workload.name);
        }
        println!("{}", result_line(&record).render());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            println!("{}", spec::benchmark_json().render());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        _ => parse_options(&args).and_then(|options| run(&options).map(|()| true)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use crate::sys::test_out_dir;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let options = parse_options(&args(
            "--workload simio_stream --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(options.workload.map(|w| w.name), Some("simio_stream"));
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (42, Some(10.0), true)
        );
        assert!(!options.quick && options.report.is_none());
        assert_eq!(
            parse_options(&args("--workload all --quick"))
                .unwrap()
                .workload
                .map(|w| w.name),
            None
        );
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload all --seed x",
            "--workload all --trace 2",
            "--workload all --seconds -1",
            "--workload all --bogus",
            "--workload",
        ] {
            assert!(
                parse_options(&args(bad)).is_err(),
                "{bad:?} must be refused"
            );
        }
    }

    fn quick(workload: &'static Workload, trace: bool, seed: u64) -> Json {
        let options = Options {
            workload: Some(workload),
            seed,
            seconds: Some(0.0),
            trace,
            quick: true,
            report: None,
        };
        run_workload(workload, &options, &test_out_dir()).unwrap()
    }

    /// The smoke run: all five workloads, untraced and traced, through the
    /// JSON writer; every emitted name is in `BENCHMARK.json`'s lists.
    #[test]
    fn quick_runs_emit_exactly_the_normative_metrics() {
        for workload in &WORKLOADS {
            for trace in [false, true] {
                let record = quick(workload, trace, 4);
                assert_eq!(record.get("quick"), Some(&Json::Bool(true)));
                let line = result_line(&record);
                let reparsed = Json::parse(&line.render()).unwrap();
                let keys: Vec<&str> = reparsed.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(
                    reparsed.get("correct"),
                    Some(&Json::Bool(true)),
                    "{}",
                    workload.name
                );
                assert_eq!(reparsed.get("failed").and_then(Json::as_f64), Some(0.0));
                assert!(reparsed.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

                let emitted: Vec<(&str, &str)> = reparsed
                    .get("metrics")
                    .unwrap()
                    .members()
                    .iter()
                    .map(|(name, m)| {
                        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                        (name.as_str(), m.get("unit").and_then(Json::as_str).unwrap())
                    })
                    .collect();
                let expected: Vec<(&str, &str)> = if trace {
                    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
                } else {
                    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
                };
                assert_eq!(emitted, expected, "{} trace={trace}", workload.name);
                if !trace {
                    for (name, m) in reparsed.get("metrics").unwrap().members() {
                        // A quick round is shorter than one 10 ms CPU tick.
                        let value = m.get("value").and_then(Json::as_f64).unwrap();
                        let positive = value > 0.0 || name == "cpu_ms_per_query";
                        assert!(positive, "{}: {name} must never be 0", workload.name);
                    }
                }
            }
            let trace_file = test_out_dir().join(format!("trace_{}.json", workload.name));
            let trace = Json::parse(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
            assert!(trace.get("spans").and_then(Json::as_arr).unwrap().len() > 40);
        }
    }

    #[test]
    fn reports_accumulate_runs_and_carry_provenance() {
        let path = test_out_dir().join(format!("report_test_{}.json", std::process::id()));
        let _guard = sys::TempFile::new(path.clone());
        let record = quick(&WORKLOADS[0], false, 6);
        append_to_report(&path, record.clone()).unwrap();
        append_to_report(&path, record.clone()).unwrap();
        let report = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = compare::runs_of(&report).unwrap();
        assert_eq!(runs, [record.clone(), record.clone()]);
        let provenance = record.get("provenance").unwrap();
        assert!(provenance.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(provenance.get("rustc").and_then(Json::as_str).is_some());
        assert!(provenance
            .get("git_commit")
            .and_then(Json::as_str)
            .is_some());
        assert_eq!(record.get("seed").and_then(Json::as_f64), Some(6.0));
        assert_eq!(record.get("batch").and_then(Json::as_f64), Some(40.0));
        let qps = record.get("metrics").unwrap().get("qps").unwrap();
        let raw = qps.get("raw").and_then(Json::as_arr).unwrap();
        assert_eq!(
            raw.len() as f64,
            record.get("rounds").and_then(Json::as_f64).unwrap()
        );
    }
}
