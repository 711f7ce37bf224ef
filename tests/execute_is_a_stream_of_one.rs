//! The one-execution-path contract: a single query's `Session::execute`
//! and `Session::execute_plan` are the session's stream of one under
//! exclusive admission, and all are `StarJoinEngine::run` on that one plan
//! at MPL 1.  On a store whose sums round, results keep their bits across
//! every configuration and both backings, and stay within a relative
//! 1e-12 of a compensated brute-force scan.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::slice;

use proptest::prelude::*;
use warehouse::bitmap::{FactRow, MaterialisedFactTable};
use warehouse::exec::{write_store, FileStore};
use warehouse::prelude::*;
use warehouse::schema::apb1::{apb1_scaled_down, Apb1Config};

/// A deliberately tiny schema so each case (two store builds + four
/// executions) stays fast in debug builds.
fn tiny_schema() -> StarSchema {
    Apb1Config {
        channels: 3,
        months: 6,
        stores: 16,
        product_codes: 24,
        density: 0.2,
        fact_tuple_bytes: 20,
    }
    .build()
}

/// The generated fact table over `schema` with its measures replaced by
/// non-dyadic fractions (`k / 7`).  The generated stores hold whole
/// numbers, whose `f64` sums are exact in any order; these sums round, so
/// a merge that added partials in a different order would change their
/// bits.
fn fractional_table(schema: &StarSchema, seed: u64) -> MaterialisedFactTable {
    let generated = MaterialisedFactTable::generate(schema, seed);
    let rows = generated
        .rows()
        .iter()
        .enumerate()
        .map(|(k, row)| FactRow {
            keys: row.keys.clone(),
            measures: (0..row.measures.len())
                .map(|m| ((k * 5 + m * 3) % 997 + 1) as f64 / 7.0)
                .collect(),
        })
        .collect();
    MaterialisedFactTable::from_rows(rows, generated.dimension_cardinalities().to_vec())
}

/// The 4-disk allocation of the I/O layer, whose disk-affinity order
/// seeds the tasks: plain round robin, or with a one-disk gap per round
/// so the seed order differs.
fn placement(gapped: bool) -> PhysicalAllocation {
    if gapped {
        PhysicalAllocation::round_robin_with_gap(4, 1)
    } else {
        PhysicalAllocation::round_robin(4)
    }
}

/// A uniquely named file in the system temp directory, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        TempFile(std::env::temp_dir().join(format!(
            "fgmt_stream_of_one_{}_{tag}.fgmt",
            std::process::id()
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Neumaier-compensated sum: accurate to about one rounding of the result,
/// whatever the number of terms.
fn compensated_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut compensation) = (0.0f64, 0.0f64);
    for x in values {
        let t = sum + x;
        compensation += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + compensation
}

/// Every query type over the fractional store agrees with a compensated
/// brute-force scan of the same table: the same hits, and sums within a
/// relative 1e-12 (the engine's sums round; the reference barely does).
#[test]
fn fractional_results_match_compensated_brute_force_for_all_query_types() {
    let schema = apb1_scaled_down();
    let fragmentation = Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
    let table = fractional_table(&schema, 2024);
    let engine = StarJoinEngine::new(FragmentStore::from_table(&schema, &fragmentation, &table));
    let mut inexact = 0;
    for (query_type, values) in [
        (QueryType::OneStore, vec![7]),
        (QueryType::OneMonth, vec![5]),
        (QueryType::OneCode, vec![65]),
        (QueryType::OneMonthOneGroup, vec![3, 1]),
        (QueryType::OneCodeOneQuarter, vec![100, 2]),
        (QueryType::OneGroup, vec![9]),
        (QueryType::OneQuarter, vec![1]),
        (QueryType::OneGroupOneStore, vec![4, 11]),
    ] {
        let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
        let result = engine.execute(&bound, &RunConfig::serial());

        let mut predicates: Vec<Option<std::ops::Range<u64>>> =
            vec![None; schema.dimension_count()];
        for (pred, &value) in bound.query().predicates().iter().zip(bound.values()) {
            let hierarchy = schema.dimensions()[pred.attr.dimension].hierarchy();
            predicates[pred.attr.dimension] = Some(hierarchy.leaf_range_of(pred.attr.level, value));
        }
        let matching = table.scan(&predicates);
        assert_eq!(result.hits, matching.len() as u64, "{}", result.query_name);
        assert!(result.hits > 0, "{} selects nothing", result.query_name);
        for (measure, &got) in result.measure_sums.iter().enumerate() {
            let want = compensated_sum(
                matching
                    .iter()
                    .map(|&row| table.rows()[row].measures[measure]),
            );
            inexact += usize::from(got.fract() != 0.0);
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "{}: measure {measure} sum {got} != {want}",
                result.query_name
            );
        }
    }
    assert!(inexact > 0, "no sum rounded");
}

/// Every query of the standard mix over the fractional store gives the
/// same hits and sum bits for every worker count, I/O mode (off, flat,
/// 2-node shared nothing) over either placement, and MPL as the serial
/// run, on the in-memory store and on its `FGMT` file alike.
#[test]
fn fractional_sums_agree_across_configurations() {
    let schema = tiny_schema();
    let fragmentation = Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
    for seed in [3, 11] {
        let store =
            FragmentStore::from_table(&schema, &fragmentation, &fractional_table(&schema, seed));
        let file = TempFile::new(&format!("fractional_{seed}"));
        write_store(&store, &file.0).expect("serialise the fragment store");
        let engine = StarJoinEngine::new(store);
        let file_engine = StarJoinEngine::from_source(
            FileStore::open(&file.0).expect("reopen the fragment file"),
        );
        let plans: Vec<QueryPlan> = QueryType::standard_mix()
            .into_iter()
            .enumerate()
            .map(|(i, ty)| {
                engine.plan(&QueryGenerator::new(&schema, ty, seed + i as u64).next_instance())
            })
            .collect();
        let bits = |outcome: &StreamOutcome| -> Vec<(u64, Vec<u64>)> {
            outcome
                .queries
                .iter()
                .map(|q| (q.hits, q.measure_sums.iter().map(|s| s.to_bits()).collect()))
                .collect()
        };
        let serial = engine.run(&plans, &RunConfig::serial(), None);
        // The sums really are inexact: some are not whole numbers.
        assert!(serial
            .queries
            .iter()
            .flat_map(|q| &q.measure_sums)
            .any(|s| s.fract() != 0.0));
        let reference = bits(&serial);
        for workers in 1..=4 {
            for gapped in [false, true] {
                let allocation = placement(gapped);
                let flat = IoConfig::with_allocation(allocation).cache(256);
                for io in [
                    None,
                    Some(flat),
                    Some(IoConfig {
                        placement: NodePlacement::over(allocation, 2, NodeStrategy::SharedNothing),
                        ..flat
                    }),
                ] {
                    for mpl in [1, 3] {
                        let config = RunConfig {
                            workers,
                            mpl,
                            io,
                            obs: ObsConfig::default(),
                        };
                        for (backing, engine) in [("memory", &engine), ("file", &file_engine)] {
                            assert_eq!(
                                bits(&engine.run(&plans, &config, None)),
                                reference,
                                "seed {seed}, {backing}, {config:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Session::execute(q)`, `Session::execute_plan`, `Session::stream(&[q])`
    /// under `AdmissionPolicy::Exclusive` and `engine.run` at MPL 1 agree for
    /// every worker count, with the I/O layer off, flat or on a 2-node
    /// shared-nothing subsystem over either placement, traced or not:
    /// the same hits, sum bits, simulated I/O metrics and deterministic
    /// trace section.
    #[test]
    fn prop_execute_is_a_stream_of_one(
        type_idx in 0usize..5,
        raw_values in proptest::collection::vec(0u64..100_000, 2),
        seed in 1u64..1_000,
        workers in 1usize..5,
        gapped in proptest::bool::ANY,
        io_mode in 0usize..3,
        traced in proptest::bool::ANY,
    ) {
        let schema = tiny_schema();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let store = FragmentStore::build(&schema, &fragmentation, seed);
        let engine = StarJoinEngine::new(store.clone());
        let warehouse = Warehouse::in_memory(store);

        let shape = QueryType::standard_mix()[type_idx].to_star_query(&schema);
        let values: Vec<u64> = shape
            .predicates()
            .iter()
            .zip(raw_values.iter().chain(std::iter::repeat(&0)))
            .map(|(p, &raw)| raw % p.attr.cardinality(&schema))
            .collect();
        let bound = BoundQuery::new(&schema, shape, values);

        let allocation = placement(gapped);
        let flat = IoConfig::with_allocation(allocation).cache(256);
        let config = RunConfig {
            workers,
            mpl: 1,
            io: [
                None,
                Some(flat),
                Some(IoConfig {
                    placement: NodePlacement::over(allocation, 2, NodeStrategy::SharedNothing),
                    ..flat
                }),
            ][io_mode],
            obs: if traced { ObsConfig::enabled() } else { ObsConfig::default() },
        };
        let mut builder = warehouse
            .session()
            .workers(workers)
            .obs(config.obs)
            .policy(AdmissionPolicy::Exclusive);
        if let Some(io) = config.io {
            builder = builder.io(io);
        }
        let session = builder.build();
        prop_assert_eq!(session.config(), &config);

        let plan = engine.plan(&bound);
        let stream = session.stream(slice::from_ref(&bound));
        let run = engine.run(slice::from_ref(&plan), &config, None);
        prop_assert_eq!((stream.queries.len(), run.queries.len()), (1, 1));
        let single = session.execute(&bound);
        prop_assert_eq!(single.trace.is_some(), traced);
        let single_bits: Vec<u64> = single.measure_sums.iter().map(|s| s.to_bits()).collect();
        for other in [session.execute_plan(&plan), stream.into(), run.into()] {
            prop_assert_eq!(single.hits, other.hits);
            let other_bits: Vec<u64> = other.measure_sums.iter().map(|s| s.to_bits()).collect();
            prop_assert_eq!(&single_bits, &other_bits);
            prop_assert_eq!(single.metrics.io.as_ref(), other.metrics.io.as_ref());
            prop_assert_eq!(other.trace.is_some(), traced);
            if let (Some(a), Some(b)) = (&single.trace, &other.trace) {
                prop_assert_eq!(a.dropped, 0);
                prop_assert_eq!(a.deterministic_events(), b.deterministic_events());
                prop_assert_eq!(a.digest(), b.digest());
            }
        }
    }
}
