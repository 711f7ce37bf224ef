//! The determinism token rules and the lock-unwrap pattern rule.
//!
//! Each rule scans a file's *code view* (comments and literals blanked, test
//! regions skipped) and returns raw diagnostics; the caller applies the
//! allowlist afterwards so suppressed findings are still visible in the
//! report.

use crate::report::Diagnostic;
use crate::source::{token_lines, SourceFile};

/// `hash-container`: `HashMap`/`HashSet` iterate in hash order, which varies
/// with insertion history — a silent nondeterminism hazard in any crate that
/// produces results or metrics.  `BTreeMap`/`BTreeSet` (or an explicit sort
/// before iterating) keeps every output path canonically ordered.
pub fn hash_container(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for token in ["HashMap", "HashSet"] {
        for line in token_lines(file, token) {
            out.push(Diagnostic {
                rule: "hash-container",
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "{token} has unordered iteration; use BTreeMap/BTreeSet or sort before \
                     iterating (allow with `// detlint: allow(hash-container, reason = ...)`)"
                ),
            });
        }
    }
    out
}

/// `wall-clock`: reads of real time or the process environment make a value
/// depend on when/where the run happens.  Only the wall throttle and the
/// bench binaries may touch them; everything else must derive timing from
/// the simulated clock.
pub fn wall_clock(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for token in [
        "Instant::now",
        "SystemTime",
        "env::var",
        "env::vars",
        "env::args",
    ] {
        for line in token_lines(file, token) {
            out.push(Diagnostic {
                rule: "wall-clock",
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "`{token}` makes results depend on wall time or the environment; use the \
                     simulated clock, or allow with a reason if this only feeds observability"
                ),
            });
        }
    }
    out
}

/// `ambient-rng`: only explicitly seeded generators (such as SIMPAD's
/// in-tree xoshiro256++ `RngStream`) are allowed; entropy-seeded or
/// hash-ambient randomness breaks bit-identical replay.
pub fn ambient_rng(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for token in [
        "thread_rng",
        "from_entropy",
        "rand::",
        "RandomState",
        "DefaultHasher",
        "getrandom",
    ] {
        for line in token_lines(file, token) {
            out.push(Diagnostic {
                rule: "ambient-rng",
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "`{token}` draws ambient randomness; use an explicitly seeded generator \
                     (SIMPAD's xoshiro256++ RngStream) so every run replays bit-identically"
                ),
            });
        }
    }
    out
}

/// `measure-sum`: a whole measure column is summed in one place, the
/// engine's fixed-order lane kernel (`exec::engine::sum_column`).  An
/// iterator `.sum()` or `.fold(` on a line that reads `measure_column(`
/// is a second summation order, whose bits differ from the kernel's on
/// fractional data.  Binary targets (`src/bin/`) are not library code.
pub fn measure_sum(file: &SourceFile) -> Vec<Diagnostic> {
    if file.rel_path.contains("/bin/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for line in token_lines(file, "measure_column(") {
        let code = &file.code[line - 1];
        if [".sum()", ".sum::<", ".fold("]
            .iter()
            .any(|call| code.contains(call))
        {
            out.push(Diagnostic {
                rule: "measure-sum",
                file: file.rel_path.clone(),
                line,
                message: "a measure column summed outside the engine's lane kernel; call \
                          `sum_column` so every whole-column sum has one order"
                    .to_string(),
            });
        }
    }
    out
}

/// `footprint`: how many pages, granules and bitmaps one subquery reads is
/// counted in one place, `mdhf::footprint` — the count the cost model,
/// SIMPAD and the engine's I/O charger share.  A call to
/// `bitmaps_for_selection(` or `fact_tuples_per_page(` anywhere else is a
/// second copy of that arithmetic, free to round differently.  The crates
/// that define the two methods (`bitmap`, `schema`) may use them
/// internally.
pub fn footprint(file: &SourceFile) -> Vec<Diagnostic> {
    if file.rel_path.ends_with("core/src/footprint.rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (call, owner) in [
        ("bitmaps_for_selection(", "bitmap"),
        ("fact_tuples_per_page(", "schema"),
    ] {
        if file.krate == owner {
            continue;
        }
        for line in token_lines(file, call) {
            out.push(Diagnostic {
                rule: "footprint",
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "`{call}` outside `mdhf::footprint` copies the subquery arithmetic; read \
                     it from a `SubqueryFootprint` (or `Classification::bitmaps_per_subquery`)"
                ),
            });
        }
    }
    out
}

/// `unsafe-safety`: every `unsafe` occurrence must carry a `// SAFETY:`
/// comment on the same line or within the three lines above it.
pub fn unsafe_safety(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for line in token_lines(file, "unsafe") {
        let li = line - 1;
        let documented = (li.saturating_sub(3)..=li)
            .any(|i| file.raw.get(i).is_some_and(|l| l.contains("SAFETY:")));
        if !documented {
            out.push(Diagnostic {
                rule: "unsafe-safety",
                file: file.rel_path.clone(),
                line,
                message: "`unsafe` without a `// SAFETY:` comment on or directly above the site"
                    .to_string(),
            });
        }
    }
    out
}

/// `lock-unwrap`: `.lock().unwrap()` silently conflates poisoning with every
/// other panic.  In the `exec` crate (where `enforce_plock` is set) *any*
/// bare `.lock()` outside the designated `sync.rs` wrapper is rejected —
/// acquisition must go through `PoisonLock::plock`, which names the lock in
/// its poison message.
pub fn lock_unwrap(file: &SourceFile, enforce_plock: bool) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let in_wrapper = file.rel_path.ends_with("sync.rs");
    for (li, line) in file.code.iter().enumerate() {
        if !file.is_lintable(li) {
            continue;
        }
        if let Some(pos) = line.find(".lock()") {
            let after = &line[pos + ".lock()".len()..];
            if after.starts_with(".unwrap()") {
                out.push(Diagnostic {
                    rule: "lock-unwrap",
                    file: file.rel_path.clone(),
                    line: li + 1,
                    message: ".lock().unwrap() loses the poison context; use a \
                              poison-propagating wrapper (PoisonLock::plock)"
                        .to_string(),
                });
                continue;
            }
            if enforce_plock && !in_wrapper {
                out.push(Diagnostic {
                    rule: "lock-unwrap",
                    file: file.rel_path.clone(),
                    line: li + 1,
                    message: "bare .lock() in exec; acquire through PoisonLock::plock so a \
                              poisoned lock names itself when it panics"
                        .to_string(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_text(src, "t.rs", "t")
    }

    #[test]
    fn hash_rule_fires_once_per_line() {
        let f = file("use std::collections::HashMap;\nlet m: HashMap<u8, HashMap<u8, u8>> = HashMap::new();\n");
        assert_eq!(hash_container(&f).len(), 2);
    }

    #[test]
    fn wall_clock_ignores_comments_and_tests() {
        let f = file("// Instant::now in a comment\n#[cfg(test)]\nmod t {\n  fn x() { let t = Instant::now(); }\n}\n");
        assert!(wall_clock(&f).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = file("fn f() { unsafe { work() } }\n");
        assert_eq!(unsafe_safety(&bad).len(), 1);
        let good = file("// SAFETY: the buffer outlives the call.\nfn f() { unsafe { work() } }\n");
        assert!(unsafe_safety(&good).is_empty());
    }

    #[test]
    fn lock_unwrap_patterns() {
        let f = file("let g = m.lock().unwrap();\n");
        assert_eq!(lock_unwrap(&f, false).len(), 1);
        let g = file("let g = m.lock().expect(\"poisoned\");\n");
        assert!(lock_unwrap(&g, false).is_empty());
        assert_eq!(lock_unwrap(&g, true).len(), 1);
    }
}
