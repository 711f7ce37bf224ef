//! Bitmap star-join on a materialised (scaled-down) warehouse, executed
//! through the [`Warehouse`] session API's serial path.
//!
//! The full-size APB-1 fact table is never materialised — the simulator works
//! on cardinalities.  This example builds a scaled-down instance with real
//! data, partitions it under `F_MonthGroup` into a [`FragmentStore`] with
//! fragment-aligned bitmap join indices (§3.2/§4), and lets the
//! [`StarJoinEngine`] plan and execute star queries: MDHF fragment pruning,
//! bitmap-AND selection (every selection bitmap, plain or compressed,
//! ANDed into one plain bitmap in place) and aggregation.  Results are
//! cross-checked against a brute-force scan and against a multi-way
//! intersection over *global* (unfragmented) bitmap indices.
//!
//! Run with `cargo run --release --example bitmap_star_join`.

use warehouse::bitmap::{MaterialisedFactTable, MaterialisedIndex};
use warehouse::prelude::*;
use warehouse::workload::QueryType;

fn main() {
    // A small APB-1-shaped warehouse that fits in memory.
    let schema = schema::apb1::apb1_scaled_down();
    let table = MaterialisedFactTable::generate(&schema, 2024);
    println!(
        "Materialised scaled-down warehouse: {} fact rows (density {}%)",
        table.len(),
        schema.fact().density() * 100.0
    );

    // Partition it under the paper's standard fragmentation and build the
    // fragment-aligned bitmap join indices (encoded for PRODUCT, simple for
    // the small dimensions), as in §3.2/§4.
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid attrs");
    let warehouse =
        Warehouse::in_memory(FragmentStore::from_table(&schema, &fragmentation, &table));
    let store = warehouse.source().as_memory().expect("in-memory warehouse");
    let session = warehouse.session().build();
    println!(
        "FragmentStore: {} fragments under {}, {:.1} rows/fragment on average",
        store.fragment_count(),
        fragmentation.describe(&schema),
        store.total_rows() as f64 / store.fragment_count() as f64,
    );
    for dimension in 0..schema.dimension_count() {
        println!(
            "  dimension {:9} -> {:2} bitmaps per fragment",
            schema.dimensions()[dimension].name(),
            store.catalog().spec(dimension).bitmap_count()
        );
    }

    // The adaptive representation layer: sparse simple-index bitmaps are
    // stored WAH-compressed, the ~50 %-density encoded bit slices stay
    // plain; the measured ratio feeds the compressed page sizing.
    let stats = store.index_stats();
    println!(
        "Index storage: {} bitmaps ({} WAH-compressed), {:.1} KiB stored vs {:.1} KiB verbatim ({:.2}x)",
        stats.bitmaps,
        stats.compressed,
        stats.size_bytes as f64 / 1024.0,
        stats.plain_size_bytes as f64 / 1024.0,
        stats.compression_ratio(),
    );

    // A 1MONTH1GROUP star query (month 3, product group 1): the MDHF planner
    // prunes it to a single fragment and needs no bitmap at all (IOC1-opt).
    let query = QueryType::OneMonthOneGroup.to_star_query(&schema);
    let bound = BoundQuery::new(&schema, query, vec![3, 1]);
    let plan = warehouse.plan(&bound);
    println!();
    println!(
        "1MONTH1GROUP plan: {} of {} fragments, {} bitmap predicate(s), {:?}",
        plan.fragments().len(),
        store.fragment_count(),
        plan.bitmap_predicates().len(),
        plan.classification().io_class,
    );
    let result = session.execute(&bound);
    println!(
        "1MONTH1GROUP result: {} hit rows, SUM(UnitsSold) = {}",
        result.hits, result.measure_sums[0]
    );

    // Cross-check against a brute-force scan of the unfragmented table.
    let product = schema.dimension_index("product").expect("product");
    let time = schema.dimension_index("time").expect("time");
    let group = schema.attr("product", "group").expect("group attr");
    let group_range = schema.dimensions()[product]
        .hierarchy()
        .leaf_range_of(group.level, 1);
    let mut predicates = vec![None, None, None, None];
    predicates[product] = Some(group_range);
    predicates[time] = Some(3..4);
    let scan_hits = table.scan(&predicates).len() as u64;
    println!("Brute-force scan agrees: {scan_hits} hit rows");
    assert_eq!(result.hits, scan_hits);

    // A query the fragmentation does not fully support: 1CODE1QUARTER keeps a
    // bitmap predicate for the product code (Q4, IOC2).
    let bound = BoundQuery::new(
        &schema,
        QueryType::OneCodeOneQuarter.to_star_query(&schema),
        vec![65, 2],
    );
    let plan = warehouse.plan(&bound);
    let result = session.execute(&bound);
    println!();
    println!(
        "1CODE1QUARTER plan: {} of {} fragments, {} bitmap predicate(s), {:?}",
        plan.fragments().len(),
        store.fragment_count(),
        plan.bitmap_predicates().len(),
        plan.classification().io_class,
    );
    println!(
        "1CODE1QUARTER result: {} hit rows, SUM(UnitsSold) = {}",
        result.hits, result.measure_sums[0]
    );

    // Cross-check via global (unfragmented) bitmap indices: one selection
    // bitmap per predicate, intersected with the multi-way Bitmap::and_many.
    let catalog = store.catalog().clone();
    let indices: Vec<MaterialisedIndex> = (0..schema.dimension_count())
        .map(|d| MaterialisedIndex::build(&schema, &catalog, &table, d))
        .collect();
    let selections: Vec<Bitmap> = bound
        .query()
        .predicates()
        .iter()
        .zip(bound.values())
        .map(|(pred, &value)| indices[pred.attr.dimension].select(pred.attr.level, value))
        .collect();
    let refs: Vec<&Bitmap> = selections.iter().collect();
    let global_hits = Bitmap::and_many(&refs).count_ones() as u64;
    println!("Global bitmap AND (and_many) agrees: {global_hits} hit rows");
    assert_eq!(result.hits, global_hits);
}
