//! Fragmentation thresholds (§4.4).
//!
//! Three thresholds rule out unsuitable fragmentations before any detailed
//! cost analysis:
//!
//! 1. **Minimum bitmap-fragment size** — with too many fragments the average
//!    bitmap fragment drops below the prefetch granule (or even below one
//!    page), which explodes the number of bitmap I/Os.  The paper derives
//!    `n_max = N / (8 · PgSize · PrefetchGran)`.
//! 2. **Maximum number of fragments** — the fragmentation metadata should fit
//!    in main memory ("administration overhead").
//! 3. **Maximum number of bitmaps** to materialise.
//!
//! There is also a lower bound: at least one fragment per fact-table disk so
//! that all disks can be used.

use bitmap::IndexCatalog;
use schema::{PageSizing, StarSchema};

use crate::fragmentation::Fragmentation;

/// Administrator-supplied limits for the three thresholds of §4.4 plus the
/// minimum-parallelism lower bound of §4.7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentationConstraints {
    /// Prefetch granule for bitmap fragments, in pages (paper default: 4 for
    /// the n_max example, 5 in the simulation parameter table).
    pub bitmap_prefetch_pages: u64,
    /// Minimum average bitmap-fragment size, in pages.  The paper's threshold
    /// formula corresponds to requiring at least `bitmap_prefetch_pages`.
    pub min_bitmap_fragment_pages: f64,
    /// Maximum number of fragments the administrator is willing to manage.
    pub max_fragments: u64,
    /// Maximum number of bitmaps to materialise.
    pub max_bitmaps: u64,
    /// Number of disks the fact table is declustered over; a fragmentation
    /// must provide at least one fragment per disk.
    pub disks: u64,
}

impl Default for FragmentationConstraints {
    fn default() -> Self {
        FragmentationConstraints {
            bitmap_prefetch_pages: 4,
            min_bitmap_fragment_pages: 4.0,
            // "Ideally, the size of the fragmentation information should be
            // small enough to be cached in main memory" — one million
            // fragments of metadata is a generous default.
            max_fragments: 1_000_000,
            max_bitmaps: 100,
            disks: 100,
        }
    }
}

impl FragmentationConstraints {
    /// The paper's upper threshold on the number of fragments:
    /// `n_max = N / (8 · PgSize · PrefetchGran)`.
    ///
    /// With N = 1 866 240 000, 4 KB pages and a prefetch granule of 4 pages
    /// this yields 14 238 (§4.4).
    #[must_use]
    pub fn n_max(&self, sizing: &PageSizing) -> u64 {
        sizing.fact_rows() / (8 * sizing.page_size_bytes() * self.bitmap_prefetch_pages)
    }

    /// Corresponding minimal fact-fragment size in bytes
    /// ("this corresponds to a minimal fragment size of 2.5 MB").
    #[must_use]
    pub fn min_fact_fragment_bytes(&self, sizing: &PageSizing) -> f64 {
        let n_max = self.n_max(sizing).max(1);
        sizing.fact_rows() as f64 / n_max as f64 * sizing.fact_tuple_bytes() as f64
    }
}

/// Outcome of checking one fragmentation against the constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdReport {
    /// Number of fragments of the checked fragmentation.
    pub fragments: u64,
    /// Average bitmap-fragment size in pages.
    pub bitmap_fragment_pages: f64,
    /// Number of bitmaps that remain to be materialised under this
    /// fragmentation (after the §4.2 eliminations).
    pub bitmaps_required: u64,
    /// Violation: bitmap fragments smaller than the configured minimum.
    pub violates_min_bitmap_fragment: bool,
    /// Violation: more fragments than the administrator wants to manage.
    pub violates_max_fragments: bool,
    /// Violation: more bitmaps than allowed.
    pub violates_max_bitmaps: bool,
    /// Violation: fewer fragments than disks (cannot use all disks).
    pub violates_min_parallelism: bool,
}

impl ThresholdReport {
    /// True if the fragmentation satisfies every constraint.
    #[must_use]
    pub fn is_admissible(&self) -> bool {
        !self.violates_min_bitmap_fragment
            && !self.violates_max_fragments
            && !self.violates_max_bitmaps
            && !self.violates_min_parallelism
    }
}

/// Checks `fragmentation` against `constraints` for the given schema and
/// bitmap-index catalog.
#[must_use]
pub fn check_fragmentation(
    schema: &StarSchema,
    catalog: &IndexCatalog,
    constraints: &FragmentationConstraints,
    fragmentation: &Fragmentation,
) -> ThresholdReport {
    let sizing = PageSizing::new(schema);
    let fragments = fragmentation.fragment_count();
    let bitmap_fragment_pages = sizing.bitmap_fragment_pages(fragments);
    let frag_attrs: Vec<(usize, usize)> = fragmentation
        .attrs()
        .iter()
        .map(|a| (a.dimension, a.level))
        .collect();
    let bitmaps_required = catalog.total_bitmaps_under_fragmentation(&frag_attrs);

    ThresholdReport {
        fragments,
        bitmap_fragment_pages,
        bitmaps_required,
        violates_min_bitmap_fragment: bitmap_fragment_pages < constraints.min_bitmap_fragment_pages,
        violates_max_fragments: fragments > constraints.max_fragments,
        violates_max_bitmaps: bitmaps_required > constraints.max_bitmaps,
        violates_min_parallelism: fragments < constraints.disks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    #[test]
    fn n_max_matches_section_4_4() {
        // "with PrefetchGran = 4 and PgSize = 4K we get n_max = 14,238"
        let s = apb1_schema();
        let sizing = PageSizing::new(&s);
        let c = FragmentationConstraints::default();
        assert_eq!(c.n_max(&sizing), 14_238);
        // "For a fact tuple size of 20 B, this corresponds to a minimal
        // fragment size of 2.5 MB."
        let mb = c.min_fact_fragment_bytes(&sizing) / (1024.0 * 1024.0);
        assert!((mb - 2.5).abs() < 0.1, "min fragment size {mb} MB");
    }

    #[test]
    fn month_group_is_admissible() {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let c = FragmentationConstraints::default();
        let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
        let report = check_fragmentation(&s, &catalog, &c, &f);
        assert!(report.is_admissible(), "{report:?}");
        assert_eq!(report.fragments, 11_520);
        assert_eq!(report.bitmaps_required, 32);
        assert!(report.bitmap_fragment_pages > 4.0);
    }

    #[test]
    fn month_code_violates_bitmap_fragment_size() {
        // §6.3: F_MonthCode drops bitmap fragments to 0.16 pages and "must be
        // avoided, which can be achieved by considering the fragmentation
        // threshold introduced in Section 4".
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let c = FragmentationConstraints::default();
        let f = Fragmentation::parse(&s, &["time::month", "product::code"]).unwrap();
        let report = check_fragmentation(&s, &catalog, &c, &f);
        assert!(report.violates_min_bitmap_fragment);
        assert!(!report.is_admissible());
        assert!(report.bitmap_fragment_pages < 0.2);
    }

    #[test]
    fn coarse_fragmentation_violates_min_parallelism() {
        // A one-dimensional fragmentation on year yields only 2 fragments —
        // not enough for 100 disks (§4.7 "may have too few fragments to even
        // use all available disks, which is of course unacceptable").
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let c = FragmentationConstraints::default();
        let f = Fragmentation::parse(&s, &["time::year"]).unwrap();
        let report = check_fragmentation(&s, &catalog, &c, &f);
        assert!(report.violates_min_parallelism);
        assert!(!report.is_admissible());
    }

    #[test]
    fn four_dimensional_finest_violates_max_fragments() {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let c = FragmentationConstraints::default();
        let f = Fragmentation::parse(
            &s,
            &[
                "time::month",
                "product::code",
                "customer::store",
                "channel::channel",
            ],
        )
        .unwrap();
        let report = check_fragmentation(&s, &catalog, &c, &f);
        assert!(report.violates_max_fragments);
        assert!(report.violates_min_bitmap_fragment);
        // The finest fragmentation eliminates every bitmap.
        assert_eq!(report.bitmaps_required, 0);
    }

    #[test]
    fn max_bitmap_constraint() {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let constraints = FragmentationConstraints {
            max_bitmaps: 30,
            ..FragmentationConstraints::default()
        };
        // F_MonthGroup leaves 32 bitmaps > 30 → violation.
        let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
        let report = check_fragmentation(&s, &catalog, &constraints, &f);
        assert!(report.violates_max_bitmaps);
        // A fragmentation on customer::store additionally drops the 12
        // customer bitmaps (the store level is the finest) → 76-12-34... only
        // if time were fragmented; here only customer is: 76 - 12 = 64.
        let f = Fragmentation::parse(&s, &["customer::store"]).unwrap();
        let report = check_fragmentation(&s, &catalog, &constraints, &f);
        assert_eq!(report.bitmaps_required, 64);
    }

    #[test]
    fn n_max_scales_with_prefetch_granule() {
        let s = apb1_schema();
        let sizing = PageSizing::new(&s);
        let c8 = FragmentationConstraints {
            bitmap_prefetch_pages: 8,
            ..FragmentationConstraints::default()
        };
        let c1 = FragmentationConstraints {
            bitmap_prefetch_pages: 1,
            ..FragmentationConstraints::default()
        };
        assert_eq!(c8.n_max(&sizing), 7_119);
        assert_eq!(c1.n_max(&sizing), 56_953);
    }
}
