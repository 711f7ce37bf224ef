//! The workspace self-check: `detlint check` must pass on this repository
//! with the committed budget — the same gate CI's `analysis` job runs.

#[test]
fn workspace_passes_detlint_with_committed_budget() {
    let root = detlint::default_root();
    let budget = root.join(detlint::BUDGET_FILE);
    let report = detlint::check_workspace(&root, &budget).expect("workspace scan");
    assert!(
        report.is_clean(),
        "detlint violations on the workspace:\n{}",
        report.human()
    );
    assert!(
        report.lock_cycles.is_empty(),
        "lock-order cycles: {:?}",
        report.lock_cycles
    );
}

#[test]
fn workspace_lock_graph_has_the_expected_edges() {
    let root = detlint::default_root();
    let files = detlint::load_workspace(&root).expect("workspace scan");
    let lock_files: Vec<_> = files
        .iter()
        .filter(|f| detlint::LOCK_CRATES.contains(&f.krate.as_str()))
        .collect();
    let analysis = detlint::locks::analyze(&lock_files, true);
    // The scheduler admits under its control lock while dealing tasks to
    // the worker deques — and nothing acquires in the opposite order.
    // Simulated I/O is charged in the planning pass, before any worker
    // runs, so the simulated subsystem's `state` lock is never taken under
    // `control`.
    let edges: Vec<(String, String)> = analysis
        .edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    assert!(
        edges.contains(&("control".into(), "deques".into())),
        "missing control -> deques: {edges:?}"
    );
    assert!(
        !edges.contains(&("control".into(), "state".into())),
        "simulated I/O charged under the control lock: {edges:?}"
    );
    // The engine's persistent worker pool guards its tickets with one
    // `board` lock that is never held while a job runs: it is a leaf, so
    // no run's `control`/`deques` order can ever meet the pool's.
    assert!(analysis.locks.contains("board"), "{:?}", analysis.locks);
    assert!(
        !edges
            .iter()
            .any(|(from, to)| from == "board" || to == "board"),
        "the pool's board lock nests with another lock: {edges:?}"
    );
    // The file store takes a fragment's load lock, then the store-wide
    // backing mutex, then a fragment's decoded slot.  The hit path holds a
    // decoded slot alone: taking backing under it would deadlock against an
    // eviction.
    for (from, to) in [("load", "backing"), ("backing", "decoded")] {
        assert!(
            edges.contains(&(from.into(), to.into())),
            "missing {from} -> {to}: {edges:?}"
        );
    }
    assert!(
        !edges.contains(&("decoded".into(), "backing".into())),
        "decoded -> backing: {edges:?}"
    );
    assert!(analysis.cycles.is_empty(), "{:?}", analysis.cycles);
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
}

#[test]
fn committed_budget_matches_current_counts_or_is_looser() {
    // `compare` already enforces "no crate over budget"; this pins the
    // budget file itself to stay parseable and cover every crate.
    let root = detlint::default_root();
    let files = detlint::load_workspace(&root).expect("workspace scan");
    let counts = detlint::panics::count_workspace(&files);
    let text = std::fs::read_to_string(root.join(detlint::BUDGET_FILE))
        .expect("budget file committed at the workspace root");
    let (budget, problems) = detlint::panics::parse_budget(&text, detlint::BUDGET_FILE);
    assert!(problems.is_empty(), "{problems:?}");
    for (krate, c) in &counts {
        let b = budget
            .get(krate)
            .unwrap_or_else(|| panic!("crate {krate} missing from budget"));
        assert!(
            c.unwrap <= b.unwrap && c.expect <= b.expect && c.index <= b.index,
            "{krate} over budget: have {c}, budget {b}"
        );
    }
}
