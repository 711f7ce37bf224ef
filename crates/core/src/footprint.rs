//! What one subquery reads (§4.5, §5).
//!
//! SIMPAD's unit of work is "one fact fragment and its associated bitmap
//! fragments" (§5).  [`SubqueryFootprint`] is how much such a subquery
//! reads: the pages and prefetch granules of its fact fragment, the bitmaps
//! it consults and the pages of one fragment of each, and the rows it
//! aggregates.  The analytic cost model, SIMPAD and the engine's simulated
//! I/O layer all read it, so the three count the same quantities.  Each
//! keeps only its own rounding:
//!
//! * the cost model multiplies the expected values by the fragments to
//!   process,
//! * SIMPAD rounds the expected granules with a hit up to whole I/Os,
//! * the engine's charger reads each stored fragment whole.
//!
//! [`SubqueryFootprint::uniform`] computes it from the model's evenly
//! spread rows, [`SubqueryFootprint::stored`] from a stored fragment's
//! actual rows.  Which disks hold the pages is the allocation's business
//! (`allocation::PhysicalAllocation::{fact_disk, bitmap_disk}`).

use bitmap::IndexCatalog;
use schema::PageSizing;

use crate::classify::Classification;
use crate::cost::CostParameters;

impl Classification {
    /// Bitmaps one subquery reads under `catalog`: for every query
    /// attribute that still needs bitmap access, the bitmaps of its
    /// dimension's index that an exact-match selection on its level reads
    /// (§4.3, step 2).  This is the `k` of the staggered allocation
    /// (`allocation::PhysicalAllocation::subquery_disks`).
    #[must_use]
    pub fn bitmaps_per_subquery(&self, catalog: &IndexCatalog) -> u64 {
        self.bitmap_requirements
            .iter()
            .map(|req| {
                catalog
                    .spec(req.attr.dimension)
                    .bitmaps_for_selection(req.attr.level)
            })
            .sum()
    }
}

/// The I/O of one subquery: one fact fragment plus one fragment of every
/// bitmap the query still needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubqueryFootprint {
    /// Fact rows the subquery extracts and aggregates: expected under the
    /// model, the whole fragment when stored.
    pub relevant_rows: f64,
    /// Pages of the whole fact fragment.
    pub fact_pages: u64,
    /// Prefetch granules of the whole fact fragment.
    pub fact_granules: u64,
    /// Expected granules holding at least one relevant row: every granule
    /// when the whole fragment is relevant, fewer for spread IOC2 hits.
    pub hit_granules: f64,
    /// Bitmaps consulted, one bitmap fragment each.
    pub bitmaps: u64,
    /// Pages of one bitmap fragment.
    pub bitmap_pages: u64,
}

impl SubqueryFootprint {
    /// The footprint under the model's assumptions (§4.5): every one of
    /// `fragments` fragments holds the same share of the fact rows, and
    /// `hits_per_fragment` of them are relevant, spread uniformly — `None`
    /// when every row is (IOC1).  Bitmap fragments shrink by the measured
    /// compression ratio of `params`; a fragment is at least one page.
    #[must_use]
    pub fn uniform(
        sizing: &PageSizing,
        fragments: u64,
        hits_per_fragment: Option<f64>,
        bitmaps: u64,
        params: &CostParameters,
    ) -> Self {
        let rows = sizing.fact_rows_per_fragment(fragments);
        let rows_per_page = sizing.fact_tuples_per_page() as f64;
        let fact_pages = (rows / rows_per_page).ceil().max(1.0) as u64;
        let fact_granules = fact_pages.div_ceil(params.fact_prefetch_pages.max(1));
        let (relevant_rows, hit_granules) = match hits_per_fragment {
            None => (rows, fact_granules as f64),
            Some(hits) => {
                // The chance that a granule holds at least one of the
                // uniformly spread hits.
                let selectivity = (hits / rows).min(1.0);
                let rows_per_granule = rows_per_page * params.fact_prefetch_pages as f64;
                let p_hit = 1.0 - (1.0 - selectivity).powf(rows_per_granule);
                (hits, fact_granules as f64 * p_hit)
            }
        };
        let bitmap_pages = (sizing.bitmap_fragment_pages(fragments)
            / params.bitmap_compression_ratio)
            .ceil()
            .max(1.0) as u64;
        SubqueryFootprint {
            relevant_rows,
            fact_pages,
            fact_granules,
            hit_granules,
            bitmaps,
            bitmap_pages,
        }
    }

    /// The footprint of a stored fragment of `rows` rows, read whole: its
    /// fact pages in prefetch granules of `fact_prefetch_pages`, and its
    /// bitmap fragments at one bit per row.  An empty fragment reads
    /// nothing.  Inlined, so the engine's charger keeps the sizing's
    /// division out of its per-task loop.
    #[inline]
    #[must_use]
    pub fn stored(sizing: &PageSizing, rows: u64, bitmaps: u64, fact_prefetch_pages: u64) -> Self {
        let fact_pages = rows.div_ceil(sizing.fact_tuples_per_page().max(1));
        let fact_granules = fact_pages.div_ceil(fact_prefetch_pages.max(1));
        SubqueryFootprint {
            relevant_rows: rows as f64,
            fact_pages,
            fact_granules,
            hit_granules: fact_granules as f64,
            bitmaps,
            bitmap_pages: rows.div_ceil(8 * sizing.page_size_bytes()),
        }
    }

    /// Pages of the whole fact fragment plus one fragment of every bitmap:
    /// what the engine's charger reads with its cache off.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.fact_pages + self.bitmaps * self.bitmap_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, Fragmentation, StarQuery};
    use schema::apb1::apb1_schema;

    #[test]
    fn bitmaps_per_subquery_sums_selection_costs() {
        let schema = apb1_schema();
        let catalog = IndexCatalog::default_for(&schema);
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let bitmaps = |name, attrs: &[&str]| {
            let query = StarQuery::exact_match(&schema, name, attrs);
            classify(&schema, &fragmentation, &query).bitmaps_per_subquery(&catalog)
        };
        // Q1 needs no bitmaps at all.
        assert_eq!(
            bitmaps("1MONTH1GROUP", &["time::month", "product::group"]),
            0
        );
        // 1STORE consults the customer index's selection bitmaps.
        let customer = schema.dimension_index("customer").unwrap();
        let store = schema.attr("customer", "store").unwrap();
        assert_eq!(
            bitmaps("1STORE", &["customer::store"]),
            catalog.spec(customer).bitmaps_for_selection(store.level)
        );
        // 1CODE1QUARTER: the code still needs its 15 encoded bitmaps
        // (Table 1).
        assert_eq!(
            bitmaps("1CODE1QUARTER", &["product::code", "time::quarter"]),
            15
        );
    }

    #[test]
    fn uniform_month_group_fragment_is_795_pages_in_100_granules() {
        // 162 000 rows at 204 rows per page; bitmap fragments of 162 000
        // bits are 4.9 pages, read as 5.
        let sizing = PageSizing::new(&apb1_schema());
        let params = CostParameters::default();
        let whole = SubqueryFootprint::uniform(&sizing, 11_520, None, 0, &params);
        assert_eq!(whole.relevant_rows, 162_000.0);
        assert_eq!((whole.fact_pages, whole.fact_granules), (795, 100));
        assert_eq!(whole.hit_granules, 100.0);
        assert_eq!(whole.bitmap_pages, 5);
        assert_eq!(whole.total_pages(), 795);

        // 1STORE: ~112.5 spread hits a fragment touch about two granules
        // in three, and twelve bitmaps are read.
        let spread = SubqueryFootprint::uniform(&sizing, 11_520, Some(112.5), 12, &params);
        assert!(spread.hit_granules > 30.0 && spread.hit_granules < 100.0);
        assert_eq!(spread.relevant_rows, 112.5);
        assert_eq!(spread.total_pages(), 795 + 60);
    }

    #[test]
    fn stored_fragments_are_read_whole_at_one_bit_per_row() {
        let sizing = PageSizing::new(&apb1_schema());
        let f = SubqueryFootprint::stored(&sizing, 1_000, 2, 8);
        assert_eq!((f.fact_pages, f.fact_granules), (5, 1));
        assert_eq!(f.hit_granules, 1.0);
        assert_eq!(f.bitmap_pages, 1);
        assert_eq!(f.total_pages(), 7);
        // 32 769 bits need two 4 KB pages.
        assert_eq!(
            SubqueryFootprint::stored(&sizing, 32_769, 1, 8).bitmap_pages,
            2
        );
        assert_eq!(SubqueryFootprint::stored(&sizing, 0, 3, 8).total_pages(), 0);
    }
}
