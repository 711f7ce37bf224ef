//! Rule-by-rule fixture tests: one positive (violating) and one
//! allowlisted/clean negative per rule family, exercising the same code
//! paths `detlint check` runs on the real workspace.

use std::path::PathBuf;

use detlint::source::SourceFile;
use detlint::{apply_allowlist, locks, panics, rules};

fn fixture(name: &str) -> SourceFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    SourceFile::read(&path, &format!("fixtures/{name}"), "fixture")
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

#[test]
fn hash_containers_are_flagged() {
    let f = fixture("hash_positive.rs");
    let (violations, allowed) = apply_allowlist(&f, rules::hash_container(&f));
    // Import line (HashMap + HashSet), the HashMap local, the HashSet local.
    assert_eq!(violations.len(), 4, "{violations:?}");
    assert!(allowed.is_empty());
    assert!(violations.iter().all(|d| d.rule == "hash-container"));
}

#[test]
fn justified_hash_container_is_allowlisted() {
    let f = fixture("hash_allowed.rs");
    assert!(f.bad_allows.is_empty(), "{:?}", f.bad_allows);
    let (violations, allowed) = apply_allowlist(&f, rules::hash_container(&f));
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(allowed.len(), 1);
    assert!(allowed[0].reason.contains("never iterated"));
}

#[test]
fn wall_clock_reads_are_flagged() {
    let f = fixture("wall_clock_positive.rs");
    let (violations, allowed) = apply_allowlist(&f, rules::wall_clock(&f));
    // SystemTime on the import, signature and call lines; Instant::now and
    // env::var once each.
    assert_eq!(violations.len(), 5, "{violations:?}");
    assert!(allowed.is_empty());
}

#[test]
fn justified_wall_clock_read_is_allowlisted() {
    let f = fixture("wall_clock_allowed.rs");
    let (violations, allowed) = apply_allowlist(&f, rules::wall_clock(&f));
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(allowed.len(), 1);
}

#[test]
fn ambient_randomness_is_flagged() {
    let f = fixture("rng_positive.rs");
    let (violations, allowed) = apply_allowlist(&f, rules::ambient_rng(&f));
    assert!(violations.len() >= 6, "{violations:?}");
    assert!(allowed.is_empty());
    for token in ["thread_rng", "from_entropy", "DefaultHasher", "RandomState"] {
        assert!(
            violations.iter().any(|d| d.message.contains(token)),
            "no diagnostic mentions {token}: {violations:?}"
        );
    }
}

#[test]
fn justified_scratch_hasher_is_allowlisted() {
    let f = fixture("rng_allowed.rs");
    let (violations, allowed) = apply_allowlist(&f, rules::ambient_rng(&f));
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(allowed.len(), 1);
}

#[test]
fn ad_hoc_measure_column_sums_are_flagged() {
    let f = fixture("measure_sum_positive.rs");
    let (violations, allowed) = apply_allowlist(&f, rules::measure_sum(&f));
    // `.sum()`, `.sum::<f64>()` and `.fold(`, one line each.
    assert_eq!(
        violations.iter().map(|d| d.line).collect::<Vec<_>>(),
        [4, 5, 6],
        "{violations:?}"
    );
    assert!(allowed.is_empty());
    assert!(violations.iter().all(|d| d.rule == "measure-sum"));
}

#[test]
fn kernel_calls_selected_rows_and_test_code_pass_the_measure_sum_rule() {
    let f = fixture("measure_sum_negative.rs");
    assert!(rules::measure_sum(&f).is_empty());
}

#[test]
fn binary_targets_are_exempt_from_the_measure_sum_rule() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("measure_sum_positive.rs");
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let f = SourceFile::from_text(&text, "crates/bench/src/bin/totals.rs", "bench");
    assert!(rules::measure_sum(&f).is_empty());
}

#[test]
fn hand_counted_subquery_pages_are_flagged() {
    let f = fixture("footprint_positive.rs");
    let (violations, allowed) = apply_allowlist(&f, rules::footprint(&f));
    // `bitmaps_for_selection(` and `fact_tuples_per_page(`, one line each.
    assert_eq!(
        violations.iter().map(|d| d.line).collect::<Vec<_>>(),
        [4, 5],
        "{violations:?}"
    );
    assert!(allowed.is_empty());
    assert!(violations.iter().all(|d| d.rule == "footprint"));
}

#[test]
fn footprint_reads_look_alikes_and_test_code_pass_the_footprint_rule() {
    let f = fixture("footprint_negative.rs");
    assert!(rules::footprint(&f).is_empty());
}

#[test]
fn the_footprint_module_and_the_defining_crates_may_count() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("footprint_positive.rs");
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let module = SourceFile::from_text(&text, "crates/core/src/footprint.rs", "core");
    assert!(rules::footprint(&module).is_empty());
    // Each defining crate may call its own method, not the other's.
    let bitmap = SourceFile::from_text(&text, "crates/bitmap/src/index.rs", "bitmap");
    assert_eq!(
        rules::footprint(&bitmap)
            .iter()
            .map(|d| d.line)
            .collect::<Vec<_>>(),
        [5]
    );
    let schema = SourceFile::from_text(&text, "crates/schema/src/size.rs", "schema");
    assert_eq!(
        rules::footprint(&schema)
            .iter()
            .map(|d| d.line)
            .collect::<Vec<_>>(),
        [4]
    );
}

#[test]
fn lock_order_inversion_is_a_cycle() {
    let f = fixture("lock_cycle.rs");
    let analysis = locks::analyze(&[&f], false);
    assert_eq!(
        analysis.cycles,
        vec![vec!["a".to_string(), "b".to_string()]]
    );
    assert!(analysis
        .violations
        .iter()
        .any(|d| d.rule == "lock-discipline" && d.message.contains("deadlock")));
}

#[test]
fn consistent_lock_order_with_scopes_and_drops_is_acyclic() {
    let f = fixture("lock_clean.rs");
    let analysis = locks::analyze(&[&f], false);
    assert!(analysis.cycles.is_empty(), "{:?}", analysis.edges);
    // Only f's a -> b survives: g's guards die at scope end / drop.
    assert_eq!(analysis.edges.len(), 1);
    assert_eq!(analysis.edges[0].from, "a");
    assert_eq!(analysis.edges[0].to, "b");
}

#[test]
fn guard_temporary_held_through_an_if_let_body_is_a_cycle() {
    let f = fixture("lock_iflet_guard.rs");
    let analysis = locks::analyze(&[&f], false);
    assert!(
        analysis
            .edges
            .iter()
            .any(|e| e.from == "decoded" && e.to == "backing"),
        "{:?}",
        analysis.edges
    );
    assert_eq!(
        analysis.cycles,
        vec![vec!["backing".to_string(), "decoded".to_string()]]
    );
}

#[test]
fn guard_scoped_before_the_if_is_acyclic() {
    let f = fixture("lock_iflet_scoped.rs");
    let analysis = locks::analyze(&[&f], false);
    assert!(analysis.cycles.is_empty(), "{:?}", analysis.edges);
    // Only evict's backing -> decoded survives.
    assert_eq!(analysis.edges.len(), 1);
    assert_eq!(analysis.edges[0].from, "backing");
    assert_eq!(analysis.edges[0].to, "decoded");
}

#[test]
fn lock_unwrap_and_wrapper_bypass_are_flagged() {
    let f = fixture("lock_unwrap.rs");
    // Outside exec only the poison-swallowing form is an error…
    let relaxed = rules::lock_unwrap(&f, false);
    assert_eq!(relaxed.len(), 1, "{relaxed:?}");
    assert!(relaxed[0].message.contains("poison"));
    // …inside exec any bare .lock() outside sync.rs is too.
    let strict = rules::lock_unwrap(&f, true);
    assert_eq!(strict.len(), 2, "{strict:?}");
}

#[test]
fn sync_rs_is_exempt_from_the_plock_rule() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("lock_unwrap.rs");
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let f = SourceFile::from_text(&text, "crates/exec/src/sync.rs", "exec");
    // The wrapper file may use bare .lock(); swallowing poison is still out.
    let strict = rules::lock_unwrap(&f, true);
    assert_eq!(strict.len(), 1, "{strict:?}");
    assert!(strict[0].message.contains("poison"));
}

#[test]
fn undocumented_unsafe_is_flagged() {
    let f = fixture("unsafe_positive.rs");
    let diags = rules::unsafe_safety(&f);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unsafe-safety");
}

#[test]
fn safety_comment_satisfies_the_unsafe_rule() {
    let f = fixture("unsafe_negative.rs");
    assert!(rules::unsafe_safety(&f).is_empty());
}

#[test]
fn panic_paths_are_counted_exactly() {
    let f = fixture("panic_paths.rs");
    let counts = panics::count_file(&f);
    assert_eq!(counts.unwrap, 2);
    assert_eq!(counts.expect, 1);
    // xs[0], xs[1], table[2]; the array literal and the string are excluded.
    assert_eq!(counts.index, 3);
}

#[test]
fn malformed_allow_directives_are_reported() {
    let f = fixture("bad_allow.rs");
    assert_eq!(f.bad_allows.len(), 2, "{:?}", f.bad_allows);
    assert!(f.bad_allows.iter().any(|(_, m)| m.contains("no-such-rule")));
    assert!(f
        .bad_allows
        .iter()
        .any(|(_, m)| m.contains("reason") || m.contains("missing")));
    // And no allow actually registered.
    assert!(f.allows.is_empty());
}

#[test]
fn wall_stamped_trace_events_are_flagged() {
    // The obs-crate rule in miniature: trace timestamps must come from the
    // simulated/logical clock, so wall-clock stamping is a violation on
    // the import, the SystemTime read and the Instant read.
    let f = fixture("trace_ts_positive.rs");
    let (violations, allowed) = apply_allowlist(&f, rules::wall_clock(&f));
    assert_eq!(violations.len(), 3, "{violations:?}");
    assert!(allowed.is_empty());
    assert!(violations.iter().all(|d| d.rule == "wall-clock"));
}

#[test]
fn logical_clock_trace_stamping_passes_with_one_justified_read() {
    // The deterministic design: logical-clock stamping produces no
    // diagnostics at all, and the single export-time wall read carries its
    // justification in place.
    let f = fixture("trace_ts_allowed.rs");
    assert!(f.bad_allows.is_empty(), "{:?}", f.bad_allows);
    let (violations, allowed) = apply_allowlist(&f, rules::wall_clock(&f));
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(allowed.len(), 1);
    assert!(allowed[0].reason.contains("simulated clock"));
}
