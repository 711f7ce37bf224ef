//! `detlint` — workspace-wide determinism & concurrency static analysis.
//!
//! Every number this repository reports — parallel star-join results,
//! skew-imbalance gates, multi-user throughput — rests on one invariant:
//! execution is **bit-identical** across runs, worker counts, MPLs and I/O
//! configurations.  The proptests enforce that dynamically; `detlint`
//! enforces the *sources* of nondeterminism statically:
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `hash-container` | `HashMap`/`HashSet` in result/metrics-producing crates |
//! | `wall-clock` | `Instant::now`/`SystemTime`/`env::*` outside the wall throttle and bench binaries |
//! | `ambient-rng` | entropy-seeded or hash-ambient randomness (only seeded xoshiro streams) |
//! | `lock-unwrap` | `.lock().unwrap()`, and bare `.lock()` in `exec` outside the `sync.rs` wrapper |
//! | `lock-discipline` | cycles in the may-hold-while-acquiring lock graph |
//! | `panic-budget` | `unwrap`/`expect`/indexing beyond the checked-in per-crate budget |
//! | `unsafe-safety` | `unsafe` without a `// SAFETY:` comment |
//! | `measure-sum` | `.sum()`/`.fold(` over a `measure_column(` outside the engine's lane kernel |
//! | `footprint` | `bitmaps_for_selection(`/`fact_tuples_per_page(` outside `mdhf::footprint` and the defining crates |
//!
//! Any site can be justified in place:
//!
//! ```text
//! // detlint: allow(wall-clock, reason = "latency observability; not part of results")
//! ```
//!
//! Run `cargo run -p detlint -- check` for diagnostics (exit 1 on any
//! un-allowlisted violation), `-- budget` to regenerate the panic budget,
//! `-- graph` to dump the lock graph.

#![forbid(unsafe_code)]

pub mod locks;
pub mod panics;
pub mod report;
pub mod rules;
pub mod source;

use std::io;
use std::path::{Path, PathBuf};

use report::{Allowed, Diagnostic, Report};
use source::SourceFile;

/// The scanned crates as `(crate name, source dir relative to the root)`.
/// `detlint` itself and the vendored offline deps are deliberately absent.
pub const CRATES: &[(&str, &str)] = &[
    ("allocation", "crates/allocation/src"),
    ("bench", "crates/bench/src"),
    ("bitmap", "crates/bitmap/src"),
    ("core", "crates/core/src"),
    ("exec", "crates/exec/src"),
    ("obs", "crates/obs/src"),
    ("schema", "crates/schema/src"),
    ("simpad", "crates/simpad/src"),
    ("storage", "crates/storage/src"),
    ("warehouse", "crates/warehouse/src"),
    ("workload", "crates/workload/src"),
];

/// Crates whose lock usage feeds the lock-discipline graph.
pub const LOCK_CRATES: &[&str] = &["exec", "storage"];

/// Default budget file name (at the workspace root).
pub const BUDGET_FILE: &str = "detlint-budget.txt";

/// Reads every scanned source file under `root`, sorted for determinism.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for &(krate, dir) in CRATES {
        let base = root.join(dir);
        let mut paths = Vec::new();
        collect_rs_files(&base, &mut paths)?;
        paths.sort();
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::read(&path, &rel, krate)?);
        }
    }
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Splits raw diagnostics into violations and allowlisted findings using the
/// file's `detlint: allow(...)` directives.
pub fn apply_allowlist(
    file: &SourceFile,
    diags: Vec<Diagnostic>,
) -> (Vec<Diagnostic>, Vec<Allowed>) {
    let mut violations = Vec::new();
    let mut allowed = Vec::new();
    for diag in diags {
        match file
            .allows
            .iter()
            .find(|a| a.rule == diag.rule && a.target_line == diag.line)
        {
            Some(a) => allowed.push(Allowed {
                diagnostic: diag,
                reason: a.reason.clone(),
            }),
            None => violations.push(diag),
        }
    }
    (violations, allowed)
}

/// Runs the full analysis over the workspace at `root` against the budget
/// file at `budget_path`.
pub fn check_workspace(root: &Path, budget_path: &Path) -> io::Result<Report> {
    let files = load_workspace(root)?;
    let mut report = Report::default();

    // Token rules, per file, allowlist applied per file.
    for file in &files {
        let mut diags = rules::hash_container(file);
        if file.krate != "bench" {
            diags.extend(rules::wall_clock(file));
        }
        diags.extend(rules::ambient_rng(file));
        diags.extend(rules::unsafe_safety(file));
        diags.extend(rules::lock_unwrap(file, file.krate == "exec"));
        diags.extend(rules::measure_sum(file));
        diags.extend(rules::footprint(file));
        let (violations, allowed) = apply_allowlist(file, diags);
        report.violations.extend(violations);
        report.allowed.extend(allowed);
        for (line, problem) in &file.bad_allows {
            report.violations.push(Diagnostic {
                rule: "bad-allow",
                file: file.rel_path.clone(),
                line: *line,
                message: problem.clone(),
            });
        }
    }

    // Lock-discipline over the concurrent crates.
    let lock_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| LOCK_CRATES.contains(&f.krate.as_str()))
        .collect();
    let analysis = locks::analyze(&lock_files, true);
    for diag in analysis.violations {
        match files
            .iter()
            .find(|f| f.rel_path == diag.file)
            .map(|f| apply_allowlist(f, vec![diag.clone()]))
        {
            Some((violations, allowed)) => {
                report.violations.extend(violations);
                report.allowed.extend(allowed);
            }
            None => report.violations.push(diag),
        }
    }
    report.lock_edges = analysis.edges;
    report.lock_cycles = analysis.cycles;

    // Panic budget.
    report.panic_counts = panics::count_workspace(&files);
    let budget_rel = budget_path
        .strip_prefix(root)
        .unwrap_or(budget_path)
        .to_string_lossy()
        .replace('\\', "/");
    match std::fs::read_to_string(budget_path) {
        Ok(text) => {
            let (budget, problems) = panics::parse_budget(&text, &budget_rel);
            report.violations.extend(problems);
            let (violations, notices) = panics::compare(&report.panic_counts, &budget, &budget_rel);
            report.violations.extend(violations);
            report.notices.extend(notices);
        }
        Err(_) => report.violations.push(Diagnostic {
            rule: "panic-budget",
            file: budget_rel,
            line: 0,
            message: "missing panic budget file; create it with `cargo run -p detlint -- budget`"
                .to_string(),
        }),
    }

    Ok(report)
}

/// Locates the workspace root: the compile-time manifest dir's grandparent
/// (`crates/detlint` → repo root).
#[must_use]
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}
