//! Query planning: turning a bound query into per-fragment subquery work.
//!
//! The coordinator "creates a task list of all subqueries to be performed,
//! each comprising one fact fragment and its associated bitmap fragments"
//! (§5).  [`plan_query`] computes that task list together with the physical
//! work each subquery entails: which disk holds the fact fragment, how many
//! prefetch-granule I/Os are needed, which bitmap fragments (on which disks)
//! must be read, and how many rows have to be extracted and aggregated.

use allocation::PhysicalAllocation;
use bitmap::IndexCatalog;
use mdhf::{classify, Classification, Fragmentation};
use schema::{PageSizing, StarSchema};
use workload::BoundQuery;

use crate::config::SimConfig;

/// One bitmap fragment a subquery has to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitmapRead {
    /// Disk holding the bitmap fragment.
    pub disk: u64,
    /// Pages of the bitmap fragment.
    pub pages: u64,
    /// Index of the bitmap among the fragment's bitmaps (for disk-layout
    /// offsets).
    pub bitmap_index: u64,
}

/// The work of one subquery (one fact fragment plus its bitmap fragments).
#[derive(Debug, Clone, PartialEq)]
pub struct SubqueryWork {
    /// The fact fragment processed by this subquery.
    pub fragment: u64,
    /// Disk holding the fact fragment.
    pub fact_disk: u64,
    /// Number of fact prefetch-granule I/O operations.
    pub fact_granules: u64,
    /// Pages transferred per fact granule.
    pub fact_pages_per_granule: u64,
    /// Total fact pages of the fragment (for track layout).
    pub fragment_pages: u64,
    /// Bitmap fragments to read before fact processing.
    pub bitmap_reads: Vec<BitmapRead>,
    /// Total bitmap pages read by this subquery.
    pub bitmap_pages: u64,
    /// Rows that must be extracted and aggregated.
    pub relevant_rows: u64,
}

impl SubqueryWork {
    /// Total pages this subquery transfers from disk.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.fact_granules * self.fact_pages_per_granule + self.bitmap_pages
    }
}

/// The complete plan of one query instance.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Query name (e.g. `"1STORE"`).
    pub query_name: String,
    /// Classification of the query under the fragmentation.
    pub classification: Classification,
    /// Subqueries in allocation order (the scheduler's task list is "sorted
    /// in the order in which the fragments were allocated to disks").
    pub subqueries: Vec<SubqueryWork>,
}

impl QueryPlan {
    /// Total pages transferred by all subqueries.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.subqueries.iter().map(SubqueryWork::total_pages).sum()
    }

    /// Number of subqueries (= fragments to process).
    #[must_use]
    pub fn subquery_count(&self) -> usize {
        self.subqueries.len()
    }
}

/// Builds the query plan for a bound query instance.
#[must_use]
pub fn plan_query(
    schema: &StarSchema,
    catalog: &IndexCatalog,
    fragmentation: &Fragmentation,
    allocation: &PhysicalAllocation,
    config: &SimConfig,
    bound: &BoundQuery,
) -> QueryPlan {
    let sizing = PageSizing::with_page_size(schema, config.page_size);
    let classification = classify(schema, fragmentation, bound.query());
    let fragments = bound.relevant_fragments(schema, fragmentation);

    let n = fragmentation.fragment_count();
    let rows_per_fragment = sizing.fact_rows() as f64 / n as f64;
    let rows_per_page = sizing.fact_tuples_per_page() as f64;
    let fragment_pages = (rows_per_fragment / rows_per_page).ceil().max(1.0) as u64;
    let granules_per_fragment = fragment_pages.div_ceil(config.fact_prefetch_pages).max(1);

    // Expected hits per relevant fragment (uniform-distribution assumption).
    let expected_hits = bound.query().expected_hits(schema);
    let hits_per_fragment = expected_hits / fragments.len().max(1) as f64;

    // Which bitmaps does each subquery consult, and how large is one bitmap
    // fragment?
    let bitmaps_per_fragment: u64 = classification
        .bitmap_requirements
        .iter()
        .map(|req| {
            catalog
                .spec(req.attr.dimension)
                .bitmaps_for_selection(req.attr.level)
        })
        .sum();
    let bitmap_fragment_pages = (sizing.bitmap_fragment_pages(n).ceil() as u64).max(1);

    // Fact granules actually read per fragment.
    let (fact_granules, relevant_rows) = if classification.needs_no_bitmaps() {
        // IOC1: the whole fragment is read and every row is relevant.
        (granules_per_fragment, rows_per_fragment.round() as u64)
    } else {
        // IOC2: only granules containing hits are read.
        let sel_in_fragment = (hits_per_fragment / rows_per_fragment).min(1.0);
        let rows_per_granule = rows_per_page * config.fact_prefetch_pages as f64;
        let p_hit = 1.0 - (1.0 - sel_in_fragment).powf(rows_per_granule);
        let granules = (granules_per_fragment as f64 * p_hit).ceil().max(1.0) as u64;
        (
            granules.min(granules_per_fragment),
            hits_per_fragment.ceil().max(1.0) as u64,
        )
    };

    let subqueries = fragments
        .iter()
        .map(|&fragment| {
            let fact_disk = allocation.fact_disk(fragment);
            let bitmap_reads = (0..bitmaps_per_fragment)
                .map(|b| BitmapRead {
                    disk: allocation.bitmap_disk(fragment, b),
                    pages: bitmap_fragment_pages,
                    bitmap_index: b,
                })
                .collect::<Vec<_>>();
            SubqueryWork {
                fragment,
                fact_disk,
                fact_granules,
                fact_pages_per_granule: config.fact_prefetch_pages,
                fragment_pages,
                bitmap_pages: bitmaps_per_fragment * bitmap_fragment_pages,
                bitmap_reads,
                relevant_rows,
            }
        })
        .collect();

    QueryPlan {
        query_name: bound.query().name().to_string(),
        classification,
        subqueries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;
    use workload::QueryType;

    fn setup() -> (
        StarSchema,
        IndexCatalog,
        Fragmentation,
        PhysicalAllocation,
        SimConfig,
    ) {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
        let a = PhysicalAllocation::round_robin(100);
        (s, catalog, f, a, SimConfig::default())
    }

    fn bound(s: &StarSchema, qt: QueryType, values: Vec<u64>) -> BoundQuery {
        BoundQuery::new(s, qt.to_star_query(s), values)
    }

    #[test]
    fn one_month_plan_reads_whole_fragments_without_bitmaps() {
        let (s, catalog, f, a, c) = setup();
        let plan = plan_query(
            &s,
            &catalog,
            &f,
            &a,
            &c,
            &bound(&s, QueryType::OneMonth, vec![3]),
        );
        assert_eq!(plan.subquery_count(), 480);
        assert!(plan.classification.needs_no_bitmaps());
        for sq in &plan.subqueries {
            assert!(sq.bitmap_reads.is_empty());
            assert_eq!(sq.bitmap_pages, 0);
            // 162 000 rows / 204 rows per page = 795 pages → 100 granules.
            assert_eq!(sq.fragment_pages, 795);
            assert_eq!(sq.fact_granules, 100);
            assert_eq!(sq.relevant_rows, 162_000);
            assert!(sq.fact_disk < 100);
        }
    }

    #[test]
    fn one_store_plan_reads_12_bitmaps_per_fragment() {
        let (s, catalog, f, a, c) = setup();
        let plan = plan_query(
            &s,
            &catalog,
            &f,
            &a,
            &c,
            &bound(&s, QueryType::OneStore, vec![7]),
        );
        assert_eq!(plan.subquery_count(), 11_520);
        let sq = &plan.subqueries[0];
        assert_eq!(sq.bitmap_reads.len(), 12);
        // One bitmap fragment is 5 whole pages → 60 bitmap pages per subquery.
        assert_eq!(sq.bitmap_pages, 60);
        // Only a subset of the fragment's granules contains hits.
        assert!(sq.fact_granules < 100);
        assert!(sq.fact_granules > 30);
        // ~112 hit rows per fragment.
        assert!(sq.relevant_rows >= 112 && sq.relevant_rows <= 114);
        // Staggered placement: bitmap disks are the ones after the fact disk.
        for (i, b) in sq.bitmap_reads.iter().enumerate() {
            assert_eq!(b.disk, (sq.fact_disk + 1 + i as u64) % 100);
        }
    }

    #[test]
    fn one_code_one_quarter_plan_has_three_subqueries() {
        let (s, catalog, f, a, c) = setup();
        let plan = plan_query(
            &s,
            &catalog,
            &f,
            &a,
            &c,
            &bound(&s, QueryType::OneCodeOneQuarter, vec![65, 1]),
        );
        assert_eq!(plan.subquery_count(), 3);
        // Bitmap access for the product code: 15 encoded bitmaps.
        assert_eq!(plan.subqueries[0].bitmap_reads.len(), 15);
        assert_eq!(plan.query_name, "1CODE1QUARTER");
        assert!(plan.total_pages() > 0);
    }

    #[test]
    fn plan_total_pages_tracks_cost_model_shape() {
        // The simulator plan and the analytic cost model must agree on the
        // relative ordering of fragmentations (they share assumptions).
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let a = PhysicalAllocation::round_robin(100);
        let c = SimConfig::default();
        let q = bound(&s, QueryType::OneStore, vec![0]);
        let mut totals = Vec::new();
        for spec in ["product::group", "product::class", "product::code"] {
            let f = Fragmentation::parse(&s, &["time::month", spec]).unwrap();
            let plan = plan_query(&s, &catalog, &f, &a, &c, &q);
            totals.push(plan.total_pages());
        }
        // F_MonthCode is the worst for 1STORE (bitmap explosion).
        assert!(totals[2] > totals[0]);
    }

    #[test]
    fn colocated_allocation_places_bitmaps_on_fact_disk() {
        let (s, catalog, f, _, c) = setup();
        let a = PhysicalAllocation::round_robin_colocated(100);
        let plan = plan_query(
            &s,
            &catalog,
            &f,
            &a,
            &c,
            &bound(&s, QueryType::OneStore, vec![7]),
        );
        let sq = &plan.subqueries[42];
        for b in &sq.bitmap_reads {
            assert_eq!(b.disk, sq.fact_disk);
        }
    }
}
