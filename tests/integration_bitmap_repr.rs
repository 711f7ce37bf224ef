//! Integration tests of the adaptive bitmap-representation layer, end to
//! end: index builds under {Plain, Wah, Roaring, Adaptive} policies must
//! yield bit-identical query results (serial and parallel), the adaptive
//! representation must shrink clustered-run index storage by at least 3x,
//! and the measured compression ratio must flow into the bitmap-fragment
//! page sizing and the analytic cost model.

use warehouse::bitmap::MaterialisedFactTable;
use warehouse::prelude::*;
use warehouse::workload::QueryType;

fn policies() -> [RepresentationPolicy; 4] {
    [
        RepresentationPolicy::Plain,
        RepresentationPolicy::Wah,
        RepresentationPolicy::Roaring,
        RepresentationPolicy::default(),
    ]
}

#[test]
fn every_policy_returns_bit_identical_results() {
    let schema = schema::apb1::apb1_scaled_down();
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid attrs");
    let table = MaterialisedFactTable::generate(&schema, 2024);

    let cases = [
        (QueryType::OneStore, vec![7]),
        (QueryType::OneMonth, vec![5]),
        (QueryType::OneMonthOneGroup, vec![3, 1]),
        (QueryType::OneCodeOneQuarter, vec![65, 2]),
        (QueryType::OneGroupOneStore, vec![4, 11]),
    ];

    // One store+engine per policy, shared across every query case; the
    // plain one doubles as the serial reference.
    let engines: Vec<(RepresentationPolicy, StarJoinEngine)> = policies()
        .into_iter()
        .map(|policy| {
            let store =
                FragmentStore::from_table_with_policy(&schema, &fragmentation, &table, policy);
            (policy, StarJoinEngine::new(store))
        })
        .collect();
    let plain_engine = &engines[0].1;
    assert_eq!(engines[0].0, RepresentationPolicy::Plain);
    for (query_type, values) in cases {
        let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values.clone());
        let reference = plain_engine.execute(&bound, &RunConfig::serial());
        let reference_bits: Vec<u64> = reference.measure_sums.iter().map(|s| s.to_bits()).collect();
        for (policy, engine) in &engines {
            for workers in [1usize, 2, 8] {
                let result = engine.execute(
                    &bound,
                    &RunConfig {
                        workers,
                        ..RunConfig::default()
                    },
                );
                assert_eq!(
                    result.hits, reference.hits,
                    "{} under {policy:?} with {workers} workers",
                    result.query_name
                );
                let bits: Vec<u64> = result.measure_sums.iter().map(|s| s.to_bits()).collect();
                assert_eq!(
                    bits, reference_bits,
                    "{} under {policy:?} with {workers} workers",
                    result.query_name
                );
            }
        }
    }
}

#[test]
fn adaptive_representation_shrinks_clustered_runs_at_least_3x() {
    // Clustered-run predicate bitmaps: the shape of selections on
    // range-contiguous hierarchy values (and of the acceptance criterion).
    let n = 500_000;
    let run = 1_000usize;
    let stride = 40_000usize;
    let mut stats = ReprStats::default();
    for phase in 0..8usize {
        let mut bitmap = Bitmap::new(n);
        let mut start = phase * (stride / 8);
        while start < n {
            for p in start..(start + run).min(n) {
                bitmap.set(p, true);
            }
            start += stride;
        }
        stats.absorb(&BitmapRepr::from_bitmap(
            bitmap,
            RepresentationPolicy::default(),
        ));
    }
    assert_eq!(stats.compressed, stats.bitmaps);
    assert!(
        stats.compression_ratio() >= 3.0,
        "clustered-run compression ratio only {:.2}x",
        stats.compression_ratio()
    );
    assert!(stats.size_bytes * 3 <= stats.plain_size_bytes);
}

#[test]
fn measured_ratio_flows_into_sizing_and_cost_model() {
    let schema = schema::apb1::apb1_scaled_down();
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid attrs");
    let store = FragmentStore::build(&schema, &fragmentation, 2024);
    let ratio = store.measured_compression_ratio();
    assert!(ratio >= 1.0, "adaptive storage never exceeds verbatim");

    let measured = store.measured_bitmap_sizing();
    assert_eq!(measured.compression_ratio(), ratio);
    let logical = store.logical_bitmap_sizing();
    assert!(
        (measured.bytes_per_fragment() * ratio - logical.bytes_per_fragment()).abs() < 1e-6,
        "measured sizing must be the logical sizing shrunk by the ratio"
    );

    // The cost model consumes the same measured ratio: bitmap page reads of
    // an index-dependent query shrink accordingly (floored at one page per
    // bitmap fragment).
    let full_schema = schema::apb1::apb1_schema();
    let catalog = IndexCatalog::default_for(&full_schema);
    let full_fragmentation =
        Fragmentation::parse(&full_schema, &["time::month", "product::group"]).expect("attrs");
    let query = StarQuery::exact_match(&full_schema, "1STORE", &["customer::store"]);
    let verbatim = CostModel::new(full_schema.clone(), catalog.clone());
    let compressed = CostModel::new(full_schema, catalog).with_measured_compression(4.0);
    let (_, v) = verbatim.evaluate(&full_fragmentation, &query);
    let (_, c) = compressed.evaluate(&full_fragmentation, &query);
    assert!(c.bitmap_pages_read < v.bitmap_pages_read);
    assert_eq!(c.fact_pages_read, v.fact_pages_read);
}

#[test]
fn placement_seeded_execution_is_bit_identical_to_unseeded() {
    let schema = schema::apb1::apb1_scaled_down();
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid attrs");
    let engine = StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 2024));
    let bound = BoundQuery::new(&schema, QueryType::OneStore.to_star_query(&schema), vec![7]);
    let baseline = engine.execute(&bound, &RunConfig::serial());
    for disks in [4u64, 10, 100] {
        for workers in [2usize, 4] {
            let config = RunConfig {
                workers,
                io: Some(IoConfig::with_disks(disks)),
                ..RunConfig::default()
            };
            let placed = engine.execute(&bound, &config);
            assert_eq!(placed.hits, baseline.hits);
            let a: Vec<u64> = baseline.measure_sums.iter().map(|s| s.to_bits()).collect();
            let b: Vec<u64> = placed.measure_sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(a, b, "{disks} disks, {workers} workers");
            assert_eq!(
                placed.metrics.total_fragments(),
                baseline.metrics.total_fragments()
            );
        }
    }
}
