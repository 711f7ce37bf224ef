//! Integration tests of the `exec` parallel star-join engine: parallel
//! results must be **bit-identical** to serial ones for every worker count,
//! the work-stealing pool must account for every planned fragment, and — on
//! machines with at least 4 cores — the measured wall-clock speedup of a
//! 1STORE-class query at 4 workers must exceed 2x.

use std::num::NonZeroUsize;

use warehouse::prelude::*;
use warehouse::schema::apb1::Apb1Config;
use warehouse::workload::QueryType;

/// A mid-size APB-1-shaped warehouse: large enough that parallel execution
/// pays off, small enough to materialise in a debug-build test run.
fn speedup_schema() -> StarSchema {
    Apb1Config {
        channels: 3,
        months: 24,
        stores: 120,
        product_codes: 360,
        density: 0.55,
        fact_tuple_bytes: 20,
    }
    .build()
}

fn speedup_engine() -> StarJoinEngine {
    let schema = speedup_schema();
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid attrs");
    StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 7))
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

fn assert_bit_identical(serial: &QueryResult, parallel: &QueryResult, workers: usize) {
    assert_eq!(
        parallel.hits, serial.hits,
        "{} with {workers} workers",
        serial.query_name
    );
    let serial_bits: Vec<u64> = serial.measure_sums.iter().map(|s| s.to_bits()).collect();
    let parallel_bits: Vec<u64> = parallel.measure_sums.iter().map(|s| s.to_bits()).collect();
    assert_eq!(
        parallel_bits, serial_bits,
        "{} with {workers} workers: measure sums not bit-identical",
        serial.query_name
    );
}

#[test]
fn parallel_execution_is_exact_and_speeds_up() {
    let engine = speedup_engine();
    let schema = engine.store().schema().clone();

    // --- Exactness: every query class, every worker count, bit-identical. ---
    let cases = [
        (QueryType::OneStore, vec![17]), // IOC2-nosupp, all fragments
        (QueryType::OneMonth, vec![5]),  // IOC1, no bitmaps
        (QueryType::OneMonthOneGroup, vec![3, 1]), // IOC1-opt, one fragment
        (QueryType::OneCodeOneQuarter, vec![65, 2]), // Q4, mixed
        (QueryType::OneGroupOneStore, vec![4, 40]), // Q1 + unfragmented bitmap
    ];
    for (query_type, values) in cases {
        let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
        let plan = engine.plan(&bound);
        assert_eq!(
            plan.fragments().len() as u64,
            plan.classification().fragments_to_process,
            "{}: plan disagrees with analytic classification",
            plan.query_name()
        );
        let serial = engine.execute(&bound, &RunConfig::serial());
        for workers in [2usize, 4, 8] {
            let parallel = engine.execute(
                &bound,
                &RunConfig {
                    workers,
                    ..RunConfig::default()
                },
            );
            assert_bit_identical(&serial, &parallel, workers);
            assert_eq!(
                parallel.metrics.total_fragments(),
                parallel.metrics.planned_fragments,
                "{} with {workers} workers: fragments lost or double-processed",
                serial.query_name
            );
            // The pool is clamped to the planned fragment count, so a pruned
            // single-fragment query runs on one worker no matter the config.
            let expected_pool = workers.min(plan.fragments().len()).max(1);
            assert_eq!(parallel.metrics.worker_count(), expected_pool);
        }
    }

    // --- Sanity of the workload: 1STORE really is the full-scan class. ---
    let one_store = BoundQuery::new(
        &schema,
        QueryType::OneStore.to_star_query(&schema),
        vec![17],
    );
    let plan = engine.plan(&one_store);
    assert_eq!(
        plan.fragments().len() as u64,
        engine.store().fragmentation().fragment_count(),
        "1STORE must touch every fragment under F_MonthGroup"
    );
    assert!(!plan.bitmap_predicates().is_empty());

    // --- Measured speedup: >2x at 4 workers, on machines with >=4 cores. ---
    let cores = available_cores();
    if cores < 4 {
        eprintln!(
            "skipping the >2x speedup assertion: only {cores} core(s) available \
             (the exactness checks above still ran)"
        );
        return;
    }
    let best = |workers: usize| {
        (0..3)
            .map(|_| {
                engine
                    .execute(
                        &one_store,
                        &RunConfig {
                            workers,
                            ..RunConfig::default()
                        },
                    )
                    .metrics
                    .wall
            })
            .min()
            .expect("three runs")
    };
    // Wall-clock measurements on shared runners are noisy; allow one
    // re-measurement before declaring the speedup claim violated.
    let mut last = (std::time::Duration::ZERO, std::time::Duration::ZERO, 0.0);
    let ok = (0..2).any(|attempt| {
        let serial_wall = best(1);
        let parallel_wall = best(4);
        let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(f64::EPSILON);
        last = (serial_wall, parallel_wall, speedup);
        if speedup <= 2.0 && attempt == 0 {
            eprintln!("first speedup measurement was {speedup:.2}x; re-measuring once");
        }
        speedup > 2.0
    });
    let (serial_wall, parallel_wall, speedup) = last;
    assert!(
        ok,
        "1STORE speedup at 4 workers was only {speedup:.2}x \
         (serial {serial_wall:?}, parallel {parallel_wall:?}, {cores} cores)"
    );
}

#[test]
fn work_stealing_balances_a_skewed_store() {
    // Fragment the scaled-down schema by month only: 12 fat fragments.  With
    // 4 workers each owning 3 fragments, stealing is not required for
    // correctness but the totals must still add up, and an 8-worker pool
    // (more workers than some chunks) must still process every fragment.
    let schema = warehouse::schema::apb1::apb1_scaled_down();
    let fragmentation = Fragmentation::parse(&schema, &["time::month"]).expect("valid attrs");
    let engine = StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 42));
    let bound = BoundQuery::new(&schema, QueryType::OneStore.to_star_query(&schema), vec![9]);

    let serial = engine.execute(&bound, &RunConfig::serial());
    for workers in [4usize, 8, 16] {
        let parallel = engine.execute(
            &bound,
            &RunConfig {
                workers,
                ..RunConfig::default()
            },
        );
        assert_bit_identical(&serial, &parallel, workers);
        assert_eq!(parallel.metrics.total_fragments(), 12);
        assert_eq!(
            parallel.metrics.total_rows_scanned(),
            engine.store().total_rows() as u64
        );
    }
}

#[test]
fn engine_agrees_with_the_analytic_pillar() {
    // The physical engine, the analytic classifier and the logical sizing
    // arithmetic must tell one consistent story on the scaled-down schema.
    let schema = warehouse::schema::apb1::apb1_scaled_down();
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid attrs");
    let engine = StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 2024));

    for (query_type, values) in [
        (QueryType::OneStore, vec![3]),
        (QueryType::OneMonth, vec![11]),
        (QueryType::OneCode, vec![77]),
        (QueryType::OneMonthOneGroup, vec![0, 0]),
        (QueryType::OneCodeOneQuarter, vec![119, 3]),
    ] {
        let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
        let plan = engine.plan(&bound);
        let classification = mdhf::classify(&schema, &fragmentation, bound.query());
        assert_eq!(plan.classification(), &classification);
        assert_eq!(
            plan.fragments().len() as u64,
            classification.fragments_to_process
        );
        // IOC1 classes execute without a single bitmap predicate.
        assert_eq!(
            plan.bitmap_predicates().is_empty(),
            classification.needs_no_bitmaps()
        );
    }
    assert_eq!(
        engine.store().logical_bitmap_sizing().fragments(),
        fragmentation.fragment_count()
    );
}

#[test]
fn engine_agrees_with_the_reference_bitmap_evaluation() {
    // `bitmap::evaluate_star_query` is the reference implementation over the
    // unfragmented table; the engine's fragmented pipeline must agree with
    // it, pinning the two code paths together.
    use warehouse::bitmap::{evaluate_star_query, MaterialisedFactTable, MaterialisedIndex};

    let schema = warehouse::schema::apb1::apb1_scaled_down();
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid attrs");
    let table = MaterialisedFactTable::generate(&schema, 2024);
    let engine = StarJoinEngine::new(FragmentStore::from_table(&schema, &fragmentation, &table));
    let catalog = engine.store().catalog().clone();
    let indices: Vec<MaterialisedIndex> = (0..schema.dimension_count())
        .map(|d| MaterialisedIndex::build(&schema, &catalog, &table, d))
        .collect();

    for (query_type, values) in [
        (QueryType::OneStore, vec![21]),
        (QueryType::OneMonthOneGroup, vec![7, 3]),
        (QueryType::OneCodeOneQuarter, vec![88, 1]),
        (QueryType::OneGroupOneStore, vec![2, 5]),
    ] {
        let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
        let reference_predicates: Vec<(usize, usize, u64)> = bound
            .query()
            .predicates()
            .iter()
            .zip(bound.values())
            .map(|(p, &value)| (p.attr.dimension, p.attr.level, value))
            .collect();
        let (reference_hits, reference_sum) =
            evaluate_star_query(&table, &indices, &reference_predicates, 0);
        let result = engine.execute(&bound, &RunConfig::serial());
        assert_eq!(result.hits, reference_hits as u64, "{}", result.query_name);
        // Summation order differs (global row order vs. per-fragment), so
        // compare with a float tolerance rather than bit equality.
        assert!(
            (result.measure_sums[0] - reference_sum).abs() <= 1e-6 * reference_sum.abs().max(1.0),
            "{}: engine sum {} != reference sum {}",
            result.query_name,
            result.measure_sums[0],
            reference_sum
        );
    }
}
