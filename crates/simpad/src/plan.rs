//! Query planning: a bound query's task list and what each task reads.
//!
//! The coordinator "creates a task list of all subqueries to be performed,
//! each comprising one fact fragment and its associated bitmap fragments"
//! (§5).  [`plan_query`] returns that task list as the engine's own
//! [`QueryPlan`] — one subquery per relevant fragment, in allocation order
//! — together with the [`SubqueryFootprint`] every one of its subqueries
//! reads under the model's evenly spread rows.  Which disks serve a
//! subquery is the allocation's business
//! (`allocation::PhysicalAllocation::{fact_disk, bitmap_disk}`).

use bitmap::IndexCatalog;
use mdhf::{CostParameters, Fragmentation, SubqueryFootprint};
use schema::{PageSizing, StarSchema};
use workload::{BoundQuery, QueryPlan};

use crate::config::SimConfig;

/// Plans a bound query instance: its task list, and the footprint of each
/// of its subqueries at SIMPAD's page size and fact prefetch granule, in
/// whole I/Os and whole rows.
///
/// Expected hits are spread evenly over the plan's fragments; with no
/// bitmap left to read, every row of a fragment is relevant (IOC1).
#[must_use]
pub fn plan_query(
    schema: &StarSchema,
    catalog: &IndexCatalog,
    fragmentation: &Fragmentation,
    config: &SimConfig,
    bound: &BoundQuery,
) -> (QueryPlan, SubqueryFootprint) {
    let plan = QueryPlan::new(schema, fragmentation, bound);
    let classification = plan.classification();
    let hits_per_fragment = (!classification.needs_no_bitmaps())
        .then(|| bound.query().expected_hits(schema) / plan.task_count().max(1) as f64);
    let mut footprint = SubqueryFootprint::uniform(
        &PageSizing::with_page_size(schema, config.page_size),
        fragmentation.fragment_count(),
        hits_per_fragment,
        classification.bitmaps_per_subquery(catalog),
        &sim_cost_parameters(config),
    );
    // SIMPAD reads whole granules and processes whole rows: the expected
    // granules with a hit round up, to at least one and at most the
    // fragment's, and so do the expected hits.
    footprint.hit_granules = footprint
        .hit_granules
        .ceil()
        .max(1.0)
        .min(footprint.fact_granules as f64);
    footprint.relevant_rows = match hits_per_fragment {
        None => footprint.relevant_rows.round(),
        Some(_) => footprint.relevant_rows.ceil().max(1.0),
    };
    (plan, footprint)
}

/// The footprint parameters of `config`: its fact prefetch granule, and
/// bitmap fragments at their verbatim size.
#[must_use]
pub(crate) fn sim_cost_parameters(config: &SimConfig) -> CostParameters {
    CostParameters {
        fact_prefetch_pages: config.fact_prefetch_pages,
        ..CostParameters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allocation::PhysicalAllocation;
    use schema::apb1::apb1_schema;
    use workload::QueryType;

    fn setup() -> (StarSchema, IndexCatalog, Fragmentation, SimConfig) {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
        (s, catalog, f, SimConfig::default())
    }

    fn bound(s: &StarSchema, qt: QueryType, values: Vec<u64>) -> BoundQuery {
        BoundQuery::new(s, qt.to_star_query(s), values)
    }

    #[test]
    fn one_month_plan_reads_whole_fragments_without_bitmaps() {
        let (s, catalog, f, c) = setup();
        let (plan, footprint) = plan_query(
            &s,
            &catalog,
            &f,
            &c,
            &bound(&s, QueryType::OneMonth, vec![3]),
        );
        assert_eq!(plan.task_count(), 480);
        assert!(plan.classification().needs_no_bitmaps());
        assert_eq!(footprint.bitmaps, 0);
        // 162 000 rows / 204 rows per page = 795 pages → 100 granules,
        // every one of them read.
        assert_eq!(footprint.fact_pages, 795);
        assert_eq!(footprint.fact_granules, 100);
        assert_eq!(footprint.hit_granules, 100.0);
        assert_eq!(footprint.relevant_rows, 162_000.0);
        assert_eq!(footprint.total_pages(), 795);
    }

    #[test]
    fn one_store_plan_reads_12_bitmaps_per_fragment() {
        let (s, catalog, f, c) = setup();
        let (plan, footprint) = plan_query(
            &s,
            &catalog,
            &f,
            &c,
            &bound(&s, QueryType::OneStore, vec![7]),
        );
        assert_eq!(plan.task_count(), 11_520);
        assert_eq!(footprint.bitmaps, 12);
        // One bitmap fragment is 5 whole pages → 60 bitmap pages per subquery.
        assert_eq!(footprint.bitmap_pages, 5);
        assert_eq!(footprint.total_pages() - footprint.fact_pages, 60);
        // Only a subset of the fragment's granules contains hits: 67.8
        // expected, read as 68 whole I/Os.
        assert!(footprint.hit_granules < 100.0);
        assert!(footprint.hit_granules > 30.0);
        assert_eq!(footprint.hit_granules, 68.0);
        // 112.5 expected hit rows per fragment, processed as 113.
        assert!(footprint.relevant_rows >= 112.0 && footprint.relevant_rows <= 114.0);
        assert_eq!(footprint.relevant_rows, 113.0);
        // Staggered placement: bitmap disks are the ones after the fact disk.
        let a = PhysicalAllocation::round_robin(100);
        let fragment = plan.fragments()[0];
        let fact_disk = a.fact_disk(fragment);
        for b in 0..footprint.bitmaps {
            assert_eq!(a.bitmap_disk(fragment, b), (fact_disk + 1 + b) % 100);
        }
    }

    #[test]
    fn one_code_one_quarter_plan_has_three_subqueries() {
        let (s, catalog, f, c) = setup();
        let (plan, footprint) = plan_query(
            &s,
            &catalog,
            &f,
            &c,
            &bound(&s, QueryType::OneCodeOneQuarter, vec![65, 1]),
        );
        assert_eq!(plan.task_count(), 3);
        // Bitmap access for the product code: 15 encoded bitmaps.
        assert_eq!(footprint.bitmaps, 15);
        assert_eq!(plan.query_name(), "1CODE1QUARTER");
        assert!(footprint.total_pages() > 0);
    }

    #[test]
    fn plan_total_pages_tracks_cost_model_shape() {
        // The simulator plan and the analytic cost model must agree on the
        // relative ordering of fragmentations (they share the footprint).
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let c = SimConfig::default();
        let q = bound(&s, QueryType::OneStore, vec![0]);
        let mut totals = Vec::new();
        for spec in ["product::group", "product::class", "product::code"] {
            let f = Fragmentation::parse(&s, &["time::month", spec]).unwrap();
            let (plan, footprint) = plan_query(&s, &catalog, &f, &c, &q);
            totals.push(plan.task_count() as u64 * footprint.total_pages());
        }
        // F_MonthCode is the worst for 1STORE (bitmap explosion).
        assert!(totals[2] > totals[0]);
    }

    #[test]
    fn colocated_allocation_places_bitmaps_on_fact_disk() {
        let (s, catalog, f, c) = setup();
        let a = PhysicalAllocation::round_robin_colocated(100);
        let (plan, footprint) = plan_query(
            &s,
            &catalog,
            &f,
            &c,
            &bound(&s, QueryType::OneStore, vec![7]),
        );
        let fragment = plan.fragments()[42];
        for b in 0..footprint.bitmaps {
            assert_eq!(a.bitmap_disk(fragment, b), a.fact_disk(fragment));
        }
    }
}
