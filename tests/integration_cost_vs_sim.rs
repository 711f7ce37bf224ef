//! Cross-validation of the analytic cost model against the simulator and
//! against materialised bitmap data.
//!
//! The paper uses the analytic formulas (report [33]) to pre-select
//! fragmentations and the simulator to validate them; both must therefore
//! agree on the *ordering* of alternatives, and they read the same
//! per-subquery footprint, as does the engine's I/O charger.  The
//! materialised scaled-down warehouse additionally validates that the
//! logical bitmap model (how many bitmaps, which rows match) corresponds to
//! real data.

use warehouse::bitmap::{MaterialisedFactTable, MaterialisedIndex};
use warehouse::prelude::*;

/// Analytic cost model and simulator agree on which fragmentation is better
/// for 1CODE1QUARTER (Figure 6, left): group < class < code in response time
/// and in estimated pages.
#[test]
fn cost_model_and_simulator_rank_fragmentations_identically() {
    let schema = schema::apb1::apb1_schema();
    let catalog = IndexCatalog::default_for(&schema);
    let model = CostModel::new(schema.clone(), catalog);
    let query = QueryType::OneCodeOneQuarter.to_star_query(&schema);
    let config = SimConfig {
        disks: 20,
        nodes: 4,
        subqueries_per_node: 3,
        ..SimConfig::default()
    };

    let mut analytic = Vec::new();
    let mut simulated = Vec::new();
    for product_level in ["product::group", "product::class", "product::code"] {
        let fragmentation = Fragmentation::parse(&schema, &["time::month", product_level]).unwrap();
        let (_, cost) = model.evaluate(&fragmentation, &query);
        analytic.push(cost.total_pages());
        let setup = ExperimentSetup::new(
            schema.clone(),
            fragmentation,
            config,
            QueryType::OneCodeOneQuarter,
            2,
        );
        simulated.push(run_experiment(&setup).mean_response_ms);
    }
    // Both metrics decrease from group to class to code.
    assert!(
        analytic[0] > analytic[1] && analytic[1] > analytic[2],
        "{analytic:?}"
    );
    assert!(
        simulated[0] > simulated[1] && simulated[1] > simulated[2],
        "{simulated:?}"
    );
}

/// For the IOC1 query the analytic model and the simulator read the same
/// footprint, each with its own rounding, and both counts are exact: the
/// model reads every page of each fragment (795 for a 1MONTH1GROUP
/// fragment), SIMPAD whole prefetch granules, the last one whole too
/// (100 × 8 = 800).
#[test]
fn simulated_page_counts_match_analytic_estimates_for_ioc1() {
    let schema = schema::apb1::apb1_schema();
    let catalog = IndexCatalog::default_for(&schema);
    let model = CostModel::new(schema.clone(), catalog);
    let fragmentation = Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
    let query = QueryType::OneMonthOneGroup.to_star_query(&schema);
    let (classification, cost) = model.evaluate(&fragmentation, &query);
    let footprint = SubqueryFootprint::uniform(
        model.sizing(),
        fragmentation.fragment_count(),
        None,
        0,
        &model.parameters(),
    );
    assert_eq!((footprint.fact_pages, footprint.fact_granules), (795, 100));
    let fragments = classification.fragments_to_process;
    assert_eq!(fragments, 1);
    assert_eq!(
        cost.total_pages(),
        (fragments * footprint.fact_pages) as f64
    );
    assert_eq!(cost.total_pages(), 795.0);

    let config = SimConfig {
        disks: 10,
        nodes: 2,
        subqueries_per_node: 2,
        use_buffer: false,
        ..SimConfig::default()
    };
    let setup = ExperimentSetup::new(
        schema,
        fragmentation,
        config,
        QueryType::OneMonthOneGroup,
        1,
    );
    let summary = run_experiment(&setup);
    assert_eq!(summary.queries[0].subqueries as u64, fragments);
    assert_eq!(
        summary.queries[0].pages_read,
        fragments * footprint.fact_granules * config.fact_prefetch_pages
    );
    assert_eq!(summary.queries[0].pages_read, 800);
}

/// The engine's I/O charger reads exactly what the plan's footprints say:
/// with the cache off, the pages it reads for a plan are the sum of the
/// plan's per-fragment footprints, for every named query type.
#[test]
fn io_charger_reads_exactly_the_plan_footprints_for_every_query_type() {
    let schema = schema::apb1::apb1_scaled_down();
    let fragmentation = Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
    let engine = StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 2024));
    let source = engine.source();
    let sizing = schema::PageSizing::new(&schema);
    let io_config = IoConfig::with_disks(4).cache(0);
    for query_type in [
        QueryType::OneStore,
        QueryType::OneMonth,
        QueryType::OneCode,
        QueryType::OneMonthOneGroup,
        QueryType::OneCodeOneQuarter,
        QueryType::OneGroup,
        QueryType::OneQuarter,
        QueryType::OneGroupOneStore,
    ] {
        let bound = QueryGenerator::new(&schema, query_type.clone(), 11).next_instance();
        let plan = engine.plan(&bound);
        let bitmaps = plan.classification().bitmaps_per_subquery(source.catalog());
        let footprint_pages: u64 = plan
            .fragments()
            .iter()
            .map(|&f| {
                SubqueryFootprint::stored(
                    &sizing,
                    source.fragment_rows(f),
                    bitmaps,
                    io_config.fact_prefetch_pages,
                )
                .total_pages()
            })
            .sum();
        let io = SimulatedIo::new(io_config, &schema);
        let charged = io.charge_plan(&plan, source);
        let name = query_type.name();
        assert!(footprint_pages > 0, "{name}");
        assert_eq!(io.metrics().total_pages_read(), footprint_pages, "{name}");
        assert_eq!(
            charged.iter().map(|t| t.pages_read).sum::<u64>(),
            footprint_pages,
            "{name}"
        );
    }
}

/// The logical bitmap-index model matches materialised data: the number of
/// bitmaps a selection reads equals the spec, and selections agree with a
/// brute-force scan for every dimension.
#[test]
fn materialised_bitmaps_agree_with_logical_model() {
    let schema = schema::apb1::apb1_scaled_down();
    let table = MaterialisedFactTable::generate(&schema, 99);
    let catalog = IndexCatalog::default_for(&schema);

    for dim in 0..schema.dimension_count() {
        let index = MaterialisedIndex::build(&schema, &catalog, &table, dim);
        assert_eq!(
            index.materialised_bitmap_count() as u64,
            catalog.spec(dim).bitmap_count()
        );
        let hierarchy = schema.dimensions()[dim].hierarchy();
        for level in 0..hierarchy.depth() {
            let value = hierarchy.cardinality(level) / 2;
            let selected: Vec<usize> = index.select(level, value).iter_ones().collect();
            let mut predicates = vec![None; schema.dimension_count()];
            predicates[dim] = Some(hierarchy.leaf_range_of(level, value));
            assert_eq!(selected, table.scan(&predicates), "dim {dim} level {level}");
        }
    }
}

/// Fragment-of-row mapping and bound-query fragment lists are consistent on
/// materialised data: every row matching the query lives in one of the
/// fragments the bound query declares relevant.
#[test]
fn bound_query_fragment_lists_cover_all_matching_rows() {
    let schema = schema::apb1::apb1_scaled_down();
    let table = MaterialisedFactTable::generate(&schema, 7);
    let fragmentation = Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
    let product = schema.dimension_index("product").unwrap();
    let time = schema.dimension_index("time").unwrap();
    let group_attr = schema.attr("product", "group").unwrap();

    let query = QueryType::OneMonthOneGroup.to_star_query(&schema);
    let bound = BoundQuery::new(&schema, query, vec![2, 3]);
    let relevant: std::collections::BTreeSet<u64> = bound
        .relevant_fragments(&schema, &fragmentation)
        .into_iter()
        .collect();

    let hierarchy = schema.dimensions()[product].hierarchy();
    for row in table.rows() {
        let matches = row.keys[time] == 2
            && hierarchy.ancestor_of_leaf(row.keys[product], group_attr.level) == 3;
        if matches {
            let fragment = fragmentation.fragment_of_row(&schema, &row.keys);
            assert!(relevant.contains(&fragment));
        }
    }
}
