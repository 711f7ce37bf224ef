//! Deterministic trace timeline — the observability counterpart of the
//! multi-user experiments.
//!
//! Runs a Zipf-skewed multi-user stream (the skew-resilience workload) with
//! [`ObsConfig`] enabled across an MPL sweep and demonstrates the `obs`
//! layer end to end:
//!
//! * every point's trace-derived totals are **reconciled exactly** against
//!   the engine's own aggregates — rows scanned, steal counts, per-worker
//!   simulated busy time (bitwise) and per-disk cache hits/misses against
//!   [`ExecMetrics`] / [`IoMetrics`],
//! * the **deterministic section** (query lifecycle, scans, disk service on
//!   the simulated clock) is asserted bit-identical — same canonical events,
//!   same digest — across a re-run and across worker counts,
//! * the reference point's trace is written as Chrome `trace_event` JSON
//!   (default `trace.json`, override with `--trace <path>`; load it in
//!   <https://ui.perfetto.dev> or `about:tracing`), one track per query,
//!   worker and disk,
//! * the sweep's counters and simulated-time histograms are written as a
//!   Prometheus-style text exposition (default `metrics.prom`, override
//!   with `--prom <path>`) with exact p50/p95/p99/p999 of the simulated
//!   query response times.
//!
//! The deterministic section of both artifacts (query lanes, disk lanes,
//! simulated-time histograms and the digest) reproduces exactly on every
//! re-run; the worker lanes and the steal counter record the actual thread
//! interleaving of *this* run, which is the point of the timeline view.

use bench_support::{arg_value, quick_mode, skewed_engine_and_stream, study_schema};
use warehouse::obs::{chrome_trace_json, EventKind, Exposition, FieldKey, Histogram, Trace, Track};
use warehouse::prelude::*;

/// One traced run of the stream.
fn run(
    engine: &StarJoinEngine,
    plans: &[QueryPlan],
    workers: usize,
    mpl: usize,
    disks: u64,
) -> StreamOutcome {
    let allocation = PhysicalAllocation::round_robin(disks);
    let config = RunConfig {
        workers,
        mpl,
        io: Some(IoConfig::with_allocation(allocation).cache(4_096)),
        obs: ObsConfig::enabled(),
    };
    engine.run(plans, &config, None)
}

/// Asserts every trace-derived total reconciles *exactly* with the run's
/// own metrics: rows, steals, per-worker busy time (bitwise) and per-disk
/// cache traffic.  This is the binary's gate — a drifted instrumentation
/// point fails the run.
fn assert_reconciles(outcome: &StreamOutcome, label: &str) -> u64 {
    let trace = outcome.trace.as_ref().expect("tracing enabled");
    let pool = &outcome.metrics.pool;
    assert_eq!(trace.dropped, 0, "{label}: trace ring overflowed");
    assert_eq!(
        trace.sum_field(EventKind::TaskRun, FieldKey::Rows),
        pool.total_rows_scanned(),
        "{label}: rows scanned"
    );
    assert_eq!(
        trace.count_of(EventKind::TaskRun),
        pool.total_fragments(),
        "{label}: task count"
    );
    assert_eq!(
        trace.count_of(EventKind::Steal),
        pool.total_stolen(),
        "{label}: steal count"
    );
    for worker in &pool.workers {
        let traced = trace.sim_ms_on(Track::Worker(worker.worker as u32), EventKind::TaskRun);
        assert_eq!(
            traced.to_bits(),
            worker.sim_io_ms.to_bits(),
            "{label}: worker {} simulated busy time",
            worker.worker
        );
    }
    let io = pool.io.as_ref().expect("I/O layer enabled");
    for disk in &io.per_disk {
        let track = Track::Disk(disk.disk as u32);
        let events: Vec<_> = trace
            .events_of(EventKind::DiskService)
            .filter(|e| e.track == track)
            .collect();
        assert_eq!(
            events.len() as u64,
            disk.scans,
            "{label}: disk {} scans",
            disk.disk
        );
        let hits: u64 = events
            .iter()
            .filter_map(|e| e.field(FieldKey::CacheHits))
            .sum();
        let misses: u64 = events
            .iter()
            .filter_map(|e| e.field(FieldKey::CacheMisses))
            .sum();
        assert_eq!(
            hits, disk.cache_hits,
            "{label}: disk {} cache hits",
            disk.disk
        );
        assert_eq!(
            misses, disk.pages_read,
            "{label}: disk {} pages read",
            disk.disk
        );
    }
    trace.digest()
}

/// Builds the Prometheus exposition from the reference run.
fn exposition(outcome: &StreamOutcome, trace: &Trace, mpl: usize) -> Exposition {
    let pool = &outcome.metrics.pool;
    let mut exposition = Exposition::new();
    exposition.counter(
        "warehouse_rows_scanned_total",
        "Fact rows scanned across the stream.",
        &[],
        pool.total_rows_scanned() as f64,
    );
    exposition.counter(
        "warehouse_fragments_processed_total",
        "Per-fragment tasks executed.",
        &[],
        pool.total_fragments() as f64,
    );
    exposition.counter(
        "warehouse_fragments_stolen_total",
        "Tasks obtained by work stealing.",
        &[],
        pool.total_stolen() as f64,
    );
    exposition.counter(
        "warehouse_queries_completed_total",
        "Queries completed by the scheduler.",
        &[],
        outcome.metrics.queries_completed as f64,
    );
    let io = pool.io.as_ref().expect("I/O layer enabled");
    for disk in &io.per_disk {
        let labels = [("disk", disk.disk.to_string())];
        exposition.counter(
            "warehouse_disk_cache_hits_total",
            "Page requests satisfied by the shared cache, per disk.",
            &labels,
            disk.cache_hits as f64,
        );
        exposition.counter(
            "warehouse_disk_pages_read_total",
            "Pages transferred from the platter, per disk.",
            &labels,
            disk.pages_read as f64,
        );
        exposition.gauge(
            "warehouse_disk_busy_sim_ms",
            "Simulated busy time per disk (ms).",
            &labels,
            disk.busy_ms,
        );
    }
    exposition.gauge(
        "warehouse_scheduler_mpl",
        "Multi-programming level of the reference run.",
        &[],
        mpl as f64,
    );

    // Simulated-time histograms from the deterministic trace sections —
    // exact nearest-rank percentiles, reproducible bit for bit.
    let mut query_us = Histogram::new();
    for event in trace.events_of(EventKind::Query) {
        query_us.record(event.dur_us);
    }
    let mut scan_us = Histogram::new();
    for event in trace.events_of(EventKind::Scan) {
        scan_us.record(event.dur_us);
    }
    exposition.histogram(
        "warehouse_query_sim_us",
        "Simulated query response time (us, admission to last charge).",
        &query_us,
    );
    exposition.histogram(
        "warehouse_scan_sim_us",
        "Simulated fragment-scan service time (us).",
        &scan_us,
    );
    for (name, value) in [
        ("p50", query_us.p50()),
        ("p95", query_us.p95()),
        ("p99", query_us.p99()),
        ("p999", query_us.p999()),
    ] {
        exposition.gauge(
            "warehouse_query_sim_us_quantile",
            "Exact percentiles of the simulated query response time (us).",
            &[("quantile", name.to_string())],
            value as f64,
        );
    }
    exposition
}

fn main() {
    let quick = quick_mode();
    let trace_path = arg_value("--trace").unwrap_or_else(|| "trace.json".to_string());
    let prom_path = arg_value("--prom").unwrap_or_else(|| "metrics.prom".to_string());
    let mpl_axis: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let rows = if quick { 60_000 } else { 150_000 };
    let stream_len = if quick { 48 } else { 128 };
    let (disks, workers, theta, reference_mpl) = (7u64, 4usize, 1.0f64, 4usize);

    let schema = study_schema();
    // The skew-resilience workload (`fig_skew_resilience`).
    let (engine, queries) = skewed_engine_and_stream(
        &schema,
        theta,
        rows,
        stream_len,
        &[QueryType::OneMonthOneGroup, QueryType::OneCode],
    );
    let plans: Vec<QueryPlan> = queries.iter().map(|q| engine.plan(q)).collect();
    println!(
        "Deterministic trace timeline: Zipf(θ={theta}) stream, {disks} disks, {workers} workers"
    );
    println!(
        "warehouse: {rows} rows, F_MonthCode fragmentation; stream: {stream_len} \
         1MONTH1GROUP/1CODE queries"
    );
    println!();

    let widths = [4usize, 8, 10, 10, 9, 8, 7, 18];
    bench_support::print_header(
        &[
            "mpl", "events", "det", "rows", "tasks", "steals", "cache", "digest",
        ],
        &widths,
    );
    let mut reference: Option<StreamOutcome> = None;
    for &mpl in mpl_axis {
        let outcome = run(&engine, &plans, workers, mpl, disks);
        let digest = assert_reconciles(&outcome, &format!("mpl {mpl}"));
        let trace = outcome.trace.as_ref().expect("tracing enabled");
        let io = outcome.metrics.pool.io.as_ref().expect("I/O metrics");
        bench_support::print_row(
            &[
                mpl.to_string(),
                trace.events.len().to_string(),
                trace.deterministic_events().len().to_string(),
                outcome.metrics.pool.total_rows_scanned().to_string(),
                outcome.metrics.pool.total_fragments().to_string(),
                outcome.metrics.pool.total_stolen().to_string(),
                format!("{:.2}", io.cache_hit_rate()),
                format!("{digest:016x}"),
            ],
            &widths,
        );
        if mpl == reference_mpl {
            reference = Some(outcome);
        }
    }
    let reference = reference.expect("reference MPL in the sweep");
    let reference_trace = reference.trace.as_ref().expect("tracing enabled");
    println!();

    // Determinism gate: the deterministic section is bit-identical across a
    // re-run and across worker counts (the thread-attributed section moves,
    // the simulated-clock section must not).
    let reference_events = reference_trace.deterministic_events();
    for rerun_workers in [workers, 1, 2, 8] {
        let again = run(&engine, &plans, rerun_workers, reference_mpl, disks);
        assert_reconciles(&again, &format!("{rerun_workers}-worker re-run"));
        let trace = again.trace.as_ref().expect("tracing enabled");
        assert_eq!(
            trace.digest(),
            reference_trace.digest(),
            "deterministic-section digest moved on the {rerun_workers}-worker re-run"
        );
        assert_eq!(
            trace.deterministic_events(),
            reference_events,
            "deterministic events moved on the {rerun_workers}-worker re-run"
        );
    }
    println!(
        "gate: trace totals reconcile with ExecMetrics/IoMetrics at every MPL, and the \
         deterministic section is bit-identical across re-runs and worker counts ✓"
    );

    let chrome = chrome_trace_json(reference_trace);
    if let Err(err) = std::fs::write(&trace_path, &chrome) {
        eprintln!("failed to write {trace_path}: {err}");
        std::process::exit(1);
    }
    println!(
        "wrote {trace_path} ({} events; load it in https://ui.perfetto.dev)",
        reference_trace.events.len()
    );

    let prom = exposition(&reference, reference_trace, reference_mpl).render();
    if let Err(err) = std::fs::write(&prom_path, &prom) {
        eprintln!("failed to write {prom_path}: {err}");
        std::process::exit(1);
    }
    println!("wrote {prom_path} ({} lines)", prom.lines().count());
}
