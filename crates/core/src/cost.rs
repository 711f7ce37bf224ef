//! Analytic I/O cost model (§4.5, re-derivation of the companion report
//! \[33\]).
//!
//! The model estimates, for a given fragmentation and query type, how many
//! fact-table and bitmap pages must be read and how many I/O operations
//! (prefetch granules) that takes.  Its assumptions are the ones stated in
//! the paper: query hits are uniformly distributed over the relevant
//! fragments and pages, and the pages of a fragment are stored consecutively
//! on disk.
//!
//! For queries of class IOC1 all pages of the selected fragments are read
//! sequentially with full prefetch efficiency.  For IOC2 queries the hits are
//! spread, so the model estimates the expected number of pages (and prefetch
//! granules) containing at least one hit; bitmap fragments of every required
//! bitmap are read for every selected fragment.
//!
//! Validated against the orders of magnitude of Table 3 (query 1STORE under
//! `F_opt = {customer::store}` vs `F_nosupp = F_MonthGroup`).

use bitmap::IndexCatalog;
use schema::{PageSizing, StarSchema};

use crate::classify::{classify, Classification};
use crate::footprint::SubqueryFootprint;
use crate::fragmentation::Fragmentation;
use crate::query::StarQuery;

/// Tunable parameters of the cost model (defaults follow Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParameters {
    /// Prefetch granule on fact fragments, in pages (Table 4: 8).
    pub fact_prefetch_pages: u64,
    /// Prefetch granule on bitmap fragments, in pages (Table 4: 5).
    pub bitmap_prefetch_pages: u64,
    /// Measured bitmap compression ratio (verbatim bytes over stored bytes,
    /// e.g. from a representation-aware index build): bitmap page counts
    /// are divided by it.  1.0 reproduces the paper's verbatim sizing.
    pub bitmap_compression_ratio: f64,
}

impl Default for CostParameters {
    fn default() -> Self {
        CostParameters {
            fact_prefetch_pages: 8,
            bitmap_prefetch_pages: 5,
            bitmap_compression_ratio: 1.0,
        }
    }
}

/// Estimated I/O work of one query under one fragmentation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryIoCost {
    /// Number of fact fragments that must be processed.
    pub fragments_to_process: u64,
    /// Expected number of fact rows satisfying the query.
    pub expected_hits: f64,
    /// Fact-table pages read (prefetch granules are read in full).
    pub fact_pages_read: f64,
    /// Fact-table I/O operations (one per prefetch granule touched).
    pub fact_io_ops: f64,
    /// Bitmap pages read.
    pub bitmap_pages_read: f64,
    /// Bitmap I/O operations.
    pub bitmap_io_ops: f64,
    /// Number of distinct bitmaps that must be consulted per fragment.
    pub bitmaps_per_fragment: u64,
}

impl QueryIoCost {
    /// Total pages read (fact + bitmap).
    #[must_use]
    pub fn total_pages(&self) -> f64 {
        self.fact_pages_read + self.bitmap_pages_read
    }

    /// Total I/O operations (fact + bitmap).
    #[must_use]
    pub fn total_io_ops(&self) -> f64 {
        self.fact_io_ops + self.bitmap_io_ops
    }

    /// Total I/O volume in bytes for the given page size.
    #[must_use]
    pub fn total_bytes(&self, page_size: u64) -> f64 {
        self.total_pages() * page_size as f64
    }

    /// Total I/O volume in megabytes (10⁶ bytes, as in Table 3).
    #[must_use]
    pub fn total_megabytes(&self, page_size: u64) -> f64 {
        self.total_bytes(page_size) / 1e6
    }
}

/// The analytic I/O cost model for a fixed schema and bitmap-index catalog.
#[derive(Debug, Clone)]
pub struct CostModel {
    schema: StarSchema,
    catalog: IndexCatalog,
    sizing: PageSizing,
    params: CostParameters,
}

impl CostModel {
    /// Creates a cost model with default parameters (Table 4 prefetch sizes).
    #[must_use]
    pub fn new(schema: StarSchema, catalog: IndexCatalog) -> Self {
        Self::with_parameters(schema, catalog, CostParameters::default())
    }

    /// Creates a cost model with explicit parameters.
    #[must_use]
    pub fn with_parameters(
        schema: StarSchema,
        catalog: IndexCatalog,
        params: CostParameters,
    ) -> Self {
        let sizing = PageSizing::new(&schema);
        CostModel {
            schema,
            catalog,
            sizing,
            params,
        }
    }

    /// Applies a *measured* bitmap compression ratio (verbatim bytes over
    /// stored bytes, e.g. [`bitmap::ReprStats::compression_ratio`] of a
    /// representation-aware index build), so bitmap page estimates reflect
    /// what the chosen representations actually occupy.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not strictly positive and finite.
    #[must_use]
    pub fn with_measured_compression(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "compression ratio must be positive and finite"
        );
        self.params.bitmap_compression_ratio = ratio;
        self
    }

    /// The schema this model evaluates against.
    #[must_use]
    pub fn schema(&self) -> &StarSchema {
        &self.schema
    }

    /// The bitmap-index catalog used for bitmap I/O estimation.
    #[must_use]
    pub fn catalog(&self) -> &IndexCatalog {
        &self.catalog
    }

    /// The page sizing derived from the schema.
    #[must_use]
    pub fn sizing(&self) -> &PageSizing {
        &self.sizing
    }

    /// The model parameters.
    #[must_use]
    pub fn parameters(&self) -> CostParameters {
        self.params
    }

    /// Estimates the I/O cost of `query` under `fragmentation`, together with
    /// its classification.
    #[must_use]
    pub fn evaluate(
        &self,
        fragmentation: &Fragmentation,
        query: &StarQuery,
    ) -> (Classification, QueryIoCost) {
        let classification = classify(&self.schema, fragmentation, query);
        let cost = self.cost_for(fragmentation, query, &classification);
        (classification, cost)
    }

    /// Estimates only the I/O cost (classification supplied by the caller).
    #[must_use]
    pub fn cost_for(
        &self,
        fragmentation: &Fragmentation,
        query: &StarQuery,
        classification: &Classification,
    ) -> QueryIoCost {
        let frags_q = classification.fragments_to_process;
        let expected_hits = query.expected_hits(&self.schema);
        // IOC1 reads every row of the selected fragments; IOC2 only the
        // hits, spread uniformly over them.
        let hits_per_frag =
            (!classification.needs_no_bitmaps()).then(|| expected_hits / frags_q as f64);
        let bitmaps_per_fragment = classification.bitmaps_per_subquery(&self.catalog);
        let footprint = SubqueryFootprint::uniform(
            &self.sizing,
            fragmentation.fragment_count(),
            hits_per_frag,
            bitmaps_per_fragment,
            &self.params,
        );

        // The model keeps expected values: every selected fragment reads
        // its expected granules with a hit, and a prefetch I/O transfers
        // its whole granule, but never more than the fragment.
        let frags = frags_q as f64;
        let fact_io_ops = frags * footprint.hit_granules;
        let fact_pages_read = (fact_io_ops * self.params.fact_prefetch_pages as f64)
            .min(frags * footprint.fact_pages as f64);
        // Bitmap I/O: every selected fragment reads one fragment of every
        // bitmap the query still needs.
        let bitmap_frag_pages = footprint.bitmap_pages as f64;
        let ops_per_bitmap_frag =
            (bitmap_frag_pages / self.params.bitmap_prefetch_pages as f64).ceil();
        let bitmap_io_ops = frags * bitmaps_per_fragment as f64 * ops_per_bitmap_frag;
        let bitmap_pages_read = frags * bitmaps_per_fragment as f64 * bitmap_frag_pages;

        QueryIoCost {
            fragments_to_process: frags_q,
            expected_hits,
            fact_pages_read,
            fact_io_ops,
            bitmap_pages_read,
            bitmap_io_ops,
            bitmaps_per_fragment,
        }
    }

    /// Total I/O pages for a weighted query mix — the aggregate the §4.7
    /// guidelines minimise when no query type is favoured.
    #[must_use]
    pub fn mix_total_pages(&self, fragmentation: &Fragmentation, mix: &[(StarQuery, f64)]) -> f64 {
        mix.iter()
            .map(|(q, weight)| {
                let (_, cost) = self.evaluate(fragmentation, q);
                weight * cost.total_pages()
            })
            .sum()
    }

    /// Multi-user throughput estimate for a closed workload of `mpl`
    /// concurrent queries of one type on `servers` parallel processing
    /// units (operational-analysis asymptotic bounds, with zero think
    /// time).
    ///
    /// A query's service demand is its total I/O pages `D`.  Running alone
    /// it spreads over at most `p₁ = min(servers, fragments)` units, so its
    /// response time is bounded by `D / p₁`.  With `mpl` queries in flight
    /// the system-wide page rate is capped by the `servers` units, giving
    ///
    /// ```text
    /// X(mpl) = min(mpl · p₁, servers) / D    queries per page-time
    /// ```
    ///
    /// — throughput grows linearly with the MPL while intra-query
    /// parallelism leaves units idle, and saturates once `mpl · p₁`
    /// reaches the pool size.  This is the trend the measured
    /// `fig_multiuser_throughput` sweep and SIMPAD's multi-user runs are
    /// cross-checked against; absolute page-time units cancel in the
    /// [`MultiUserEstimate::relative_throughput`] comparison.
    ///
    /// `mpl` and `servers` are clamped to at least 1.
    #[must_use]
    pub fn multi_user_throughput(
        &self,
        fragmentation: &Fragmentation,
        query: &StarQuery,
        mpl: usize,
        servers: usize,
    ) -> MultiUserEstimate {
        let mpl = mpl.max(1) as u64;
        let servers = servers.max(1) as u64;
        let (_, cost) = self.evaluate(fragmentation, query);
        let per_query_pages = cost.total_pages().max(1.0);
        let intra_parallelism = servers.min(cost.fragments_to_process).max(1);
        let busy = |m: u64| (m * intra_parallelism).min(servers) as f64;
        MultiUserEstimate {
            mpl: mpl as usize,
            servers: servers as usize,
            per_query_pages,
            intra_parallelism,
            throughput: busy(mpl) / per_query_pages,
            relative_throughput: busy(mpl) / busy(1),
            saturation_mpl: servers as f64 / intra_parallelism as f64,
        }
    }
}

/// The analytic multi-user throughput bound of
/// [`CostModel::multi_user_throughput`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiUserEstimate {
    /// The multi-programming level the bound was evaluated at.
    pub mpl: usize,
    /// Number of parallel processing units assumed.
    pub servers: usize,
    /// Service demand of one query, in I/O pages (at least 1).
    pub per_query_pages: f64,
    /// Units one query can use by itself: `min(servers, fragments)`.
    pub intra_parallelism: u64,
    /// Throughput bound in queries per page-read-time.
    pub throughput: f64,
    /// Throughput relative to the same workload at MPL 1 — the unit-free
    /// trend measured sweeps are compared against.
    pub relative_throughput: f64,
    /// The MPL at which the pool saturates (`servers / intra_parallelism`);
    /// beyond it, extra in-flight queries only add queueing delay.
    pub saturation_mpl: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    fn model() -> CostModel {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        CostModel::new(s, catalog)
    }

    #[test]
    fn table_3_optimal_fragmentation_for_1store() {
        // Table 3, column F_opt = {customer::store}: 1 fragment, ~795 fact
        // I/Os (8-page granules), no bitmap I/O, ~25 MB total.
        let m = model();
        let f = Fragmentation::parse(m.schema(), &["customer::store"]).unwrap();
        let q = StarQuery::exact_match(m.schema(), "1STORE", &["customer::store"]);
        let (c, cost) = m.evaluate(&f, &q);
        assert_eq!(cost.fragments_to_process, 1);
        assert!(c.needs_no_bitmaps());
        assert!((cost.expected_hits - 1_296_000.0).abs() < 1.0);
        // ~6 328 pages read in ~791 prefetch operations of 8 pages.
        assert!(
            (cost.fact_io_ops - 791.0).abs() < 10.0,
            "{}",
            cost.fact_io_ops
        );
        assert_eq!(cost.bitmap_io_ops, 0.0);
        assert_eq!(cost.bitmap_pages_read, 0.0);
        let mb = cost.total_megabytes(4_096);
        assert!((mb - 25.9).abs() < 1.5, "total {mb} MB");
    }

    #[test]
    fn table_3_unsupported_fragmentation_for_1store() {
        // Table 3, column F_nosupp = F_MonthGroup: 11 520 fragments, millions
        // of fact pages, 691 200 bitmap pages, tens of GB in total.
        let m = model();
        let f = Fragmentation::parse(m.schema(), &["time::month", "product::group"]).unwrap();
        let q = StarQuery::exact_match(m.schema(), "1STORE", &["customer::store"]);
        let (c, cost) = m.evaluate(&f, &q);
        assert_eq!(cost.fragments_to_process, 11_520);
        assert!(!c.needs_no_bitmaps());
        // The CUSTOMER dimension has a 12-bitmap encoded index; the store is
        // its finest level, so all 12 bitmaps are consulted per fragment.
        assert_eq!(cost.bitmaps_per_fragment, 12);
        // 11 520 fragments × 12 bitmaps × 5 whole pages = 691 200 bitmap pages
        // — exactly the paper's figure.
        assert!((cost.bitmap_pages_read - 691_200.0).abs() < 1.0);
        // Fact I/O in the millions of pages (paper: 5 189 760).
        assert!(
            cost.fact_pages_read > 3e6 && cost.fact_pages_read < 9e6,
            "{}",
            cost.fact_pages_read
        );
        // Total I/O volume in the tens of GB (paper: 31 075 MB).
        let mb = cost.total_megabytes(4_096);
        assert!(mb > 15_000.0 && mb < 45_000.0, "total {mb} MB");
    }

    #[test]
    fn table_3_improvement_is_several_orders_of_magnitude() {
        // "a suitable fragmentation permits improvements in I/O performance by
        // several orders of magnitude" — paper ratio ~1250× in MB.
        let m = model();
        let q = StarQuery::exact_match(m.schema(), "1STORE", &["customer::store"]);
        let f_opt = Fragmentation::parse(m.schema(), &["customer::store"]).unwrap();
        let f_nosupp =
            Fragmentation::parse(m.schema(), &["time::month", "product::group"]).unwrap();
        let (_, opt) = m.evaluate(&f_opt, &q);
        let (_, nosupp) = m.evaluate(&f_nosupp, &q);
        let ratio = nosupp.total_pages() / opt.total_pages();
        assert!(ratio > 500.0, "improvement ratio {ratio}");
    }

    #[test]
    fn ioc1_queries_read_exactly_their_fragments() {
        let m = model();
        let f = Fragmentation::parse(m.schema(), &["time::month", "product::group"]).unwrap();
        // 1MONTH1GROUP: one fragment of 162 000 rows = 795 pages (at 204
        // rows/page), read in ceil(795/8) = 100 granules.
        let q = StarQuery::exact_match(
            m.schema(),
            "1MONTH1GROUP",
            &["time::month", "product::group"],
        );
        let (_, cost) = m.evaluate(&f, &q);
        assert_eq!(cost.fragments_to_process, 1);
        assert!((cost.fact_pages_read - 795.0).abs() < 2.0);
        assert!((cost.fact_io_ops - 100.0).abs() < 2.0);
        assert_eq!(cost.bitmap_pages_read, 0.0);

        // 1MONTH: 480 fragments, all read completely (Figure 4's CPU-bound
        // query).
        let q = StarQuery::exact_match(m.schema(), "1MONTH", &["time::month"]);
        let (_, cost) = m.evaluate(&f, &q);
        assert_eq!(cost.fragments_to_process, 480);
        assert!((cost.fact_pages_read - 480.0 * 795.0).abs() < 500.0);
        assert_eq!(cost.bitmap_io_ops, 0.0);
    }

    #[test]
    fn figure_6_fragmentation_comparison_for_1code1quarter() {
        // §6.3: 1CODE1QUARTER accesses exactly 3 fragments for all three
        // fragmentations; fragment size (and hence I/O) halves from
        // F_MonthGroup to F_MonthClass, and F_MonthCode is best because no
        // bitmap access is needed and fragments contain only relevant tuples.
        let m = model();
        let q = StarQuery::exact_match(
            m.schema(),
            "1CODE1QUARTER",
            &["product::code", "time::quarter"],
        );
        let fragmentations = [
            ("group", "product::group"),
            ("class", "product::class"),
            ("code", "product::code"),
        ];
        let mut totals = Vec::new();
        for (_, product_level) in fragmentations {
            let f = Fragmentation::parse(m.schema(), &["time::month", product_level]).unwrap();
            let (c, cost) = m.evaluate(&f, &q);
            assert_eq!(cost.fragments_to_process, 3, "{product_level}");
            if product_level == "product::code" {
                assert!(c.needs_no_bitmaps());
            } else {
                assert!(!c.needs_no_bitmaps());
            }
            totals.push(cost.total_pages());
        }
        // Strictly improving from group → class → code.
        assert!(totals[0] > totals[1], "{totals:?}");
        assert!(totals[1] > totals[2], "{totals:?}");
    }

    #[test]
    fn figure_6_fragmentation_comparison_for_1store() {
        // §6.3: 1STORE exhibits the inverse behaviour — the fine-grained
        // F_MonthCode is by far the worst because bitmap fragments drop below
        // one page ("more than 4 million" bitmap pages).
        let m = model();
        let q = StarQuery::exact_match(m.schema(), "1STORE", &["customer::store"]);
        let mut totals = Vec::new();
        for product_level in ["product::group", "product::class", "product::code"] {
            let f = Fragmentation::parse(m.schema(), &["time::month", product_level]).unwrap();
            let (_, cost) = m.evaluate(&f, &q);
            totals.push((cost.total_pages(), cost.bitmap_pages_read));
        }
        // Code fragmentation is the worst overall and its bitmap I/O explodes.
        assert!(totals[2].0 > totals[0].0, "{totals:?}");
        assert!(totals[2].1 > 3e6, "bitmap pages {:?}", totals[2]);
    }

    #[test]
    fn measured_compression_shrinks_bitmap_pages_only() {
        // Table 3's F_nosupp column for 1STORE reads 691 200 bitmap pages at
        // verbatim sizing (5 whole pages per bitmap fragment).  A measured
        // 5x compression brings a fragment to 1 page, i.e. 138 240 total —
        // fact I/O is untouched.
        let m = model();
        let f = Fragmentation::parse(m.schema(), &["time::month", "product::group"]).unwrap();
        let q = StarQuery::exact_match(m.schema(), "1STORE", &["customer::store"]);
        let (_, verbatim) = m.evaluate(&f, &q);
        let compressed_model = model().with_measured_compression(5.0);
        assert_eq!(compressed_model.parameters().bitmap_compression_ratio, 5.0);
        let (_, compressed) = compressed_model.evaluate(&f, &q);
        assert!((verbatim.bitmap_pages_read - 691_200.0).abs() < 1.0);
        assert!((compressed.bitmap_pages_read - 138_240.0).abs() < 1.0);
        assert_eq!(compressed.fact_pages_read, verbatim.fact_pages_read);
        assert_eq!(compressed.fact_io_ops, verbatim.fact_io_ops);
        // Both sizings fit one 5-page prefetch granule per bitmap fragment,
        // so operation counts stay at their floor — only pages shrink.
        assert_eq!(compressed.bitmap_io_ops, verbatim.bitmap_io_ops);
        // A ratio of 1.0 (the default) reproduces the verbatim figures.
        assert_eq!(
            model().with_measured_compression(1.0).evaluate(&f, &q).1,
            verbatim
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_measured_compression_rejected() {
        let _ = model().with_measured_compression(f64::NAN);
    }

    #[test]
    fn multi_user_throughput_scales_until_the_pool_saturates() {
        // 1MONTH1GROUP under F_MonthGroup prunes to a single fragment, so a
        // lone query keeps 3 of 4 units idle: throughput must grow linearly
        // with the MPL up to 4x and then saturate.
        let m = model();
        let f = Fragmentation::parse(m.schema(), &["time::month", "product::group"]).unwrap();
        let q = StarQuery::exact_match(
            m.schema(),
            "1MONTH1GROUP",
            &["time::month", "product::group"],
        );
        let mut previous = 0.0;
        for mpl in [1usize, 2, 4] {
            let estimate = m.multi_user_throughput(&f, &q, mpl, 4);
            assert_eq!(estimate.intra_parallelism, 1);
            assert!((estimate.relative_throughput - mpl as f64).abs() < 1e-12);
            assert!(estimate.throughput > previous);
            previous = estimate.throughput;
        }
        let saturated = m.multi_user_throughput(&f, &q, 8, 4);
        assert!((saturated.relative_throughput - 4.0).abs() < 1e-12);
        assert!((saturated.saturation_mpl - 4.0).abs() < 1e-12);
        assert_eq!(
            saturated.throughput,
            m.multi_user_throughput(&f, &q, 4, 4).throughput
        );

        // 1MONTH spans 480 fragments: one query already saturates 4 units,
        // so adding users cannot raise the throughput bound.
        let q_month = StarQuery::exact_match(m.schema(), "1MONTH", &["time::month"]);
        let alone = m.multi_user_throughput(&f, &q_month, 1, 4);
        assert_eq!(alone.intra_parallelism, 4);
        for mpl in [2usize, 8] {
            let estimate = m.multi_user_throughput(&f, &q_month, mpl, 4);
            assert!((estimate.relative_throughput - 1.0).abs() < 1e-12);
        }
        // Degenerate inputs are clamped rather than dividing by zero.
        let clamped = m.multi_user_throughput(&f, &q, 0, 0);
        assert_eq!(clamped.mpl, 1);
        assert_eq!(clamped.servers, 1);
        assert!((clamped.relative_throughput - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mix_cost_weights_queries() {
        let m = model();
        let f = Fragmentation::parse(m.schema(), &["time::month", "product::group"]).unwrap();
        let q1 = StarQuery::exact_match(m.schema(), "1MONTH", &["time::month"]);
        let q2 = StarQuery::exact_match(m.schema(), "1STORE", &["customer::store"]);
        let only_q1 = m.mix_total_pages(&f, &[(q1.clone(), 1.0)]);
        let only_q2 = m.mix_total_pages(&f, &[(q2.clone(), 1.0)]);
        let mixed = m.mix_total_pages(&f, &[(q1, 0.5), (q2, 0.5)]);
        assert!((mixed - 0.5 * (only_q1 + only_q2)).abs() < 1e-6);
    }

    #[test]
    fn accessors() {
        let m = model();
        assert_eq!(m.parameters(), CostParameters::default());
        assert_eq!(m.sizing().page_size_bytes(), 4_096);
        assert_eq!(m.catalog().total_bitmaps(), 76);
        assert_eq!(m.schema().dimension_count(), 4);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use schema::apb1::apb1_schema;
    use schema::AttrRef;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Basic sanity of the cost model for arbitrary fragmentations and
        /// single-attribute queries: costs are non-negative and finite, pages
        /// are at least as many as operations times one page, and supported
        /// queries never cost more than unsupported ones on the same
        /// fragmentation dimensionality.
        #[test]
        fn prop_cost_sanity(
            frag_dim in 0usize..4,
            frag_level_seed in 0usize..6,
            query_dim in 0usize..4,
            query_level_seed in 0usize..6,
        ) {
            let s = apb1_schema();
            let catalog = IndexCatalog::default_for(&s);
            let m = CostModel::new(s.clone(), catalog);
            let frag_depth = s.dimensions()[frag_dim].hierarchy().depth();
            let query_depth = s.dimensions()[query_dim].hierarchy().depth();
            let f = Fragmentation::new(
                &s,
                vec![AttrRef::new(frag_dim, frag_level_seed % frag_depth)],
            ).unwrap();
            let q = StarQuery::new(
                "prop",
                vec![crate::query::Predicate::exact(AttrRef::new(
                    query_dim,
                    query_level_seed % query_depth,
                ))],
            );
            let (c, cost) = m.evaluate(&f, &q);
            prop_assert!(cost.fact_pages_read.is_finite() && cost.fact_pages_read >= 0.0);
            prop_assert!(cost.bitmap_pages_read.is_finite() && cost.bitmap_pages_read >= 0.0);
            prop_assert!(cost.fact_io_ops <= cost.fact_pages_read + 1.0);
            prop_assert!(cost.total_pages() >= 1.0);
            prop_assert_eq!(cost.fragments_to_process, c.fragments_to_process);
            if c.needs_no_bitmaps() {
                prop_assert_eq!(cost.bitmap_pages_read, 0.0);
                prop_assert_eq!(cost.bitmaps_per_fragment, 0);
            } else {
                prop_assert!(cost.bitmaps_per_fragment > 0);
            }
        }
    }
}
