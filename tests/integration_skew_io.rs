//! Integration tests of the simulated disk I/O layer under skew: LRU
//! cache monotonicity, deterministic replay, per-disk accounting, and
//! result stability on selectivity-skewed stores.

use warehouse::prelude::*;

/// A small skewed warehouse plus a matching hot-spot query stream.
fn skewed_setup(theta: f64) -> (StarJoinEngine, Vec<BoundQuery>) {
    let schema = schema::apb1::Apb1Config {
        channels: 3,
        months: 12,
        stores: 60,
        product_codes: 120,
        density: 0.3,
        fact_tuple_bytes: 20,
    }
    .build();
    let fragmentation = Fragmentation::parse(&schema, &["time::month", "product::code"]).unwrap();
    let store = FragmentStore::build_skewed(&schema, &fragmentation, 11, theta, 40_000);
    let engine = StarJoinEngine::new(store);
    let mut stream = InterleavedStream::new(
        &schema,
        &[QueryType::OneMonthOneGroup, QueryType::OneCode],
        5,
    )
    .with_value_skew(theta);
    let queries = stream.take_queries(48);
    (engine, queries)
}

/// Plans the stream and runs it on the shared pool under `config`.
fn run(engine: &StarJoinEngine, queries: &[BoundQuery], config: RunConfig) -> StreamOutcome {
    let plans: Vec<QueryPlan> = queries.iter().map(|q| engine.plan(q)).collect();
    engine.run(&plans, &config, None)
}

/// Four workers at MPL 4 over seven disks with a cache of `cache_pages`.
fn cached(cache_pages: usize) -> RunConfig {
    RunConfig {
        workers: 4,
        mpl: 4,
        io: Some(IoConfig::with_disks(7).cache(cache_pages)),
        ..RunConfig::default()
    }
}

/// Runs the stream on the shared pool with a cache of `cache_pages`.
fn run_with_cache(
    engine: &StarJoinEngine,
    queries: &[BoundQuery],
    cache_pages: usize,
) -> ThroughputMetrics {
    run(engine, queries, cached(cache_pages)).metrics
}

#[test]
fn cache_hit_rate_is_monotone_in_cache_size() {
    // A repeated-scan workload: the Zipf-skewed stream keeps returning to
    // the hot fragments, so a larger LRU cache can only help.  LRU is a
    // stack algorithm, so the hit rate must be non-decreasing in the
    // capacity — a Belady-style anomaly here would mean the shared pool
    // broke the replacement order.
    let (engine, queries) = skewed_setup(1.0);
    let mut previous = -1.0f64;
    let mut rates = Vec::new();
    for cache_pages in [16usize, 64, 128, 256, 512, 4_096] {
        let metrics = run_with_cache(&engine, &queries, cache_pages);
        let rate = metrics.pool.cache_hit_rate();
        assert!(
            rate >= previous - 1e-12,
            "hit rate fell from {previous:.3} to {rate:.3} at {cache_pages} pages: {rates:?}"
        );
        previous = rate;
        rates.push((cache_pages, rate));
    }
    // The sweep spans the interesting range: the smallest cache thrashes,
    // the largest absorbs every repeated scan.
    assert!(rates.first().unwrap().1 < rates.last().unwrap().1);
    assert!(rates.last().unwrap().1 > 0.5, "{rates:?}");
}

#[test]
fn simulated_io_replay_is_deterministic_across_runs_and_pools() {
    let (engine, queries) = skewed_setup(0.5);
    let a = run_with_cache(&engine, &queries, 256);
    let b = run_with_cache(&engine, &queries, 256);
    assert_eq!(a.pool.io, b.pool.io, "same configuration, same replay");

    // Worker count and MPL change wall-clock scheduling but never the
    // simulated subsystem: plans are charged in query-id order.
    let other = run(
        &engine,
        &queries,
        RunConfig {
            workers: 2,
            mpl: 8,
            ..cached(256)
        },
    )
    .metrics;
    assert_eq!(a.pool.io, other.pool.io);
}

#[test]
fn per_disk_accounting_is_conserved() {
    let (engine, queries) = skewed_setup(1.0);
    let metrics = run_with_cache(&engine, &queries, 128);
    let io = metrics.pool.io.as_ref().expect("I/O metrics present");
    assert_eq!(io.disk_count(), 7);

    // Pages transferred equal cache misses, globally and per disk.
    assert_eq!(io.total_pages_read(), io.cache.misses);
    for disk in &io.per_disk {
        assert_eq!(disk.pages_read, disk.cache_misses);
        assert!(disk.busy_ms >= 0.0);
        assert!(disk.mean_queue_depth >= 0.0);
    }
    let per_disk_hits: u64 = io.per_disk.iter().map(|d| d.cache_hits).sum();
    assert_eq!(per_disk_hits, io.cache.hits);

    // The makespan is the busiest disk; imbalance is at least 1.
    let busiest = io.per_disk.iter().map(|d| d.busy_ms).fold(0.0, f64::max);
    assert!((io.elapsed_ms - busiest).abs() < 1e-9);
    assert!(io.disk_imbalance() >= 1.0);

    // Worker-side simulated time equals the subsystem's total busy time.
    assert!((metrics.pool.total_sim_io_ms() - io.total_busy_ms()).abs() < 1e-6);
}

#[test]
fn skewed_streams_stay_bit_identical_to_serial_with_io_enabled() {
    let (engine, queries) = skewed_setup(1.0);
    // The I/O layer seeds each query's tasks in its placement's
    // disk-affinity order.
    let placed = RunConfig {
        io: Some(IoConfig::with_allocation(PhysicalAllocation::round_robin(7)).cache(256)),
        ..cached(256)
    };
    let outcome = run(&engine, &queries, placed);
    for (bound, scheduled) in queries.iter().zip(&outcome.queries) {
        let serial = engine.execute(bound, &RunConfig::serial());
        assert_eq!(scheduled.hits, serial.hits, "{}", scheduled.query_name);
        let serial_bits: Vec<u64> = serial.measure_sums.iter().map(|s| s.to_bits()).collect();
        let scheduled_bits: Vec<u64> = scheduled.measure_sums.iter().map(|s| s.to_bits()).collect();
        assert_eq!(scheduled_bits, serial_bits, "{}", scheduled.query_name);
    }
}

#[test]
fn skew_aware_cache_keeps_disks_balanced_under_zipf() {
    // The miniature version of the fig_skew_resilience gate: with the
    // shared cache active, full Zipf skew keeps the per-disk imbalance in
    // the same regime as the uniform workload, while the uncached
    // subsystem degrades.
    let (uniform_engine, uniform_queries) = skewed_setup(0.0);
    let (skewed_engine, skewed_queries) = skewed_setup(1.0);
    let uniform = run_with_cache(&uniform_engine, &uniform_queries, 4_096)
        .pool
        .disk_imbalance();
    let skewed = run_with_cache(&skewed_engine, &skewed_queries, 4_096)
        .pool
        .disk_imbalance();
    assert!(
        skewed <= 1.5 * uniform,
        "θ=1 imbalance {skewed:.2}x vs uniform {uniform:.2}x"
    );

    // Without the cache, hot fragments are re-read on every scan and the
    // skewed imbalance exceeds the cached one.
    let uncached = run_with_cache(&skewed_engine, &skewed_queries, 0)
        .pool
        .disk_imbalance();
    assert!(
        uncached >= skewed,
        "uncached {uncached:.2}x vs cached {skewed:.2}x"
    );
}
