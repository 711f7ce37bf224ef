//! End-to-end reconciliation of the `obs` trace with the engine's own
//! metrics: every traced quantity (per-worker busy time, steal counts, rows
//! scanned, per-disk cache traffic) must agree *exactly* with
//! [`exec::ExecMetrics`] / [`exec::IoMetrics`], and the deterministic trace
//! section must be bit-identical across runs, worker counts and MPLs.

#![forbid(unsafe_code)]

use exec::{
    FragmentStore, IoConfig, ObsConfig, QueryPlan, RunConfig, StarJoinEngine, StreamOutcome,
};
use mdhf::Fragmentation;
use obs::{EventKind, FieldKey, Trace, Track};
use schema::apb1::apb1_scaled_down;
use workload::{BoundQuery, InterleavedStream, QueryType};

fn engine() -> StarJoinEngine {
    let schema = apb1_scaled_down();
    let fragmentation = Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
    StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 2024))
}

fn stream(engine: &StarJoinEngine, count: usize) -> Vec<BoundQuery> {
    let mut source = InterleavedStream::new(
        engine.store().schema(),
        &[
            QueryType::OneMonthOneGroup,
            QueryType::OneCode,
            QueryType::OneGroup,
            QueryType::OneStore,
        ],
        7,
    );
    source.take_queries(count)
}

/// Plans `queries` and runs them as one stream over five simulated disks,
/// recording a trace when `traced`.
fn run(
    engine: &StarJoinEngine,
    queries: &[BoundQuery],
    workers: usize,
    mpl: usize,
    traced: bool,
) -> StreamOutcome {
    let plans: Vec<QueryPlan> = queries.iter().map(|q| engine.plan(q)).collect();
    let config = RunConfig {
        workers,
        mpl,
        io: Some(IoConfig::with_disks(5).cache(20_000)),
        obs: if traced {
            ObsConfig::enabled()
        } else {
            ObsConfig::default()
        },
    };
    engine.run(&plans, &config, None)
}

/// Asserts every reconciliation invariant between one run's trace and its
/// pool/disk metrics.
fn assert_reconciles(outcome: &StreamOutcome, trace: &Trace, queries: usize) {
    let pool = &outcome.metrics.pool;
    assert_eq!(trace.dropped, 0, "ring must not overflow in this workload");

    // Query lifecycle: one submit/plan/admit/span/complete per query.
    for kind in [
        EventKind::QuerySubmit,
        EventKind::QueryPlan,
        EventKind::QueryAdmit,
        EventKind::Query,
        EventKind::QueryComplete,
    ] {
        assert_eq!(trace.count_of(kind), queries, "{} per query", kind.name());
    }

    // Worker section: one TaskRun per processed fragment, rows and steals
    // summing to the pool totals.
    assert_eq!(trace.count_of(EventKind::TaskRun), pool.total_fragments());
    assert_eq!(
        trace.sum_field(EventKind::TaskRun, FieldKey::Rows),
        pool.total_rows_scanned()
    );
    assert_eq!(
        trace.count_of(EventKind::Steal),
        pool.total_stolen(),
        "one Steal event per stolen fragment"
    );
    assert_eq!(
        trace.sum_field(EventKind::TaskRun, FieldKey::Stolen) as usize,
        pool.total_stolen()
    );

    // Per-worker simulated busy time reconciles *bitwise*: the trace folds
    // the same f64 charges in the same order as the worker's own counter.
    for worker in &pool.workers {
        let traced = trace.sim_ms_on(Track::Worker(worker.worker as u32), EventKind::TaskRun);
        assert_eq!(
            traced.to_bits(),
            worker.sim_io_ms.to_bits(),
            "worker {} simulated busy time",
            worker.worker
        );
    }

    // Scan section: one Scan per planned task, covering every scanned row.
    assert_eq!(trace.count_of(EventKind::Scan), pool.total_fragments());
    assert_eq!(
        trace.sum_field(EventKind::Scan, FieldKey::Rows),
        pool.total_rows_scanned()
    );

    // Disk section: per-disk service events reconcile with the simulated
    // disk statistics — scans, cache hits, cache misses and pages read.
    let io = pool.io.as_ref().expect("I/O layer enabled");
    for disk in &io.per_disk {
        let track = Track::Disk(disk.disk as u32);
        let events: Vec<_> = trace
            .events_of(EventKind::DiskService)
            .filter(|e| e.track == track)
            .collect();
        assert_eq!(events.len() as u64, disk.scans, "disk {} scans", disk.disk);
        let hits: u64 = events
            .iter()
            .filter_map(|e| e.field(FieldKey::CacheHits))
            .sum();
        let misses: u64 = events
            .iter()
            .filter_map(|e| e.field(FieldKey::CacheMisses))
            .sum();
        assert_eq!(hits, disk.cache_hits, "disk {} cache hits", disk.disk);
        assert_eq!(misses, disk.cache_misses, "disk {} cache misses", disk.disk);
        assert_eq!(misses, disk.pages_read, "disk {} pages read", disk.disk);
    }
}

#[test]
fn scheduler_trace_reconciles_with_metrics() {
    let engine = engine();
    let queries = stream(&engine, 12);
    let outcome = run(&engine, &queries, 4, 4, true);
    let trace = outcome.trace.as_ref().expect("tracing enabled");
    assert_reconciles(&outcome, trace, queries.len());
}

#[test]
fn deterministic_section_is_bit_identical_across_runs_and_shapes() {
    let engine = engine();
    let queries = stream(&engine, 10);
    let reference = run(&engine, &queries, 4, 4, true);
    let reference_trace = reference.trace.as_ref().expect("tracing enabled");
    let reference_events = reference_trace.deterministic_events();

    // Same configuration twice, plus different worker counts and MPLs: the
    // deterministic section never moves.
    for (workers, mpl) in [(4usize, 4usize), (1, 1), (2, 8), (7, 2)] {
        let outcome = run(&engine, &queries, workers, mpl, true);
        let trace = outcome.trace.as_ref().expect("tracing enabled");
        assert_reconciles(&outcome, trace, queries.len());
        assert_eq!(
            trace.digest(),
            reference_trace.digest(),
            "{workers}w mpl{mpl}"
        );
        assert_eq!(trace.deterministic_events(), reference_events);
    }
}

#[test]
fn disabled_tracing_returns_no_trace_and_identical_results() {
    let engine = engine();
    let queries = stream(&engine, 8);
    let plain = run(&engine, &queries, 4, 4, false);
    assert!(plain.trace.is_none(), "tracing is off by default");
    let traced = run(&engine, &queries, 4, 4, true);
    for (a, b) in plain.queries.iter().zip(&traced.queries) {
        assert_eq!(a.hits, b.hits);
        let a_bits: Vec<u64> = a.measure_sums.iter().map(|s| s.to_bits()).collect();
        let b_bits: Vec<u64> = b.measure_sums.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a_bits, b_bits);
    }
    // The simulated disk subsystem is oblivious to tracing.
    assert_eq!(plain.metrics.pool.io, traced.metrics.pool.io);
}

#[test]
fn single_query_engine_trace_reconciles() {
    let engine = engine();
    let schema = engine.store().schema().clone();
    let query = QueryType::OneGroup.to_star_query(&schema);
    let bound = BoundQuery::new(&schema, query, vec![1]);
    let config = RunConfig {
        workers: 3,
        io: Some(IoConfig::with_disks(4).cache(10_000)),
        obs: ObsConfig::enabled(),
        ..RunConfig::default()
    };
    let result = engine.execute(&bound, &config);
    let trace = result.trace.as_ref().expect("tracing enabled");
    assert_eq!(trace.dropped, 0);
    assert_eq!(trace.count_of(EventKind::Query), 1);
    assert_eq!(trace.count_of(EventKind::QueryComplete), 1);
    assert_eq!(
        trace.sum_field(EventKind::TaskRun, FieldKey::Rows),
        result.metrics.total_rows_scanned()
    );
    assert_eq!(
        trace.count_of(EventKind::TaskRun),
        result.metrics.total_fragments()
    );
    assert_eq!(
        trace.count_of(EventKind::Steal),
        result.metrics.total_stolen()
    );
    // `execute` is a stream of one at MPL 1: its deterministic section is
    // exactly that stream's, whatever the worker count.
    let one = RunConfig {
        workers: 1,
        mpl: 1,
        ..config
    };
    let stream = engine.run(&[engine.plan(&bound)], &one, None);
    let stream_trace = stream.trace.as_ref().expect("tracing enabled");
    assert_eq!(
        trace.deterministic_events(),
        stream_trace.deterministic_events()
    );
    assert_eq!(trace.digest(), stream_trace.digest());
}
