//! Bitmap fragmentation aligned with fact-table fragments.
//!
//! The paper partitions every bitmap with the *same* fragmentation as the
//! fact table, "meaning that each bitmap of any bitmap index is partitioned
//! into n bitmap fragments.  This ensures that the bits of a bitmap fragment
//! refer to exactly one fact fragment and allows different fact fragments to
//! be processed independently" (§4).  This module provides the sizing
//! arithmetic used by the thresholds, the cost model and the simulator.

use schema::PageSizing;

/// Sizing of bitmap fragments for an `n`-fragment fact-table fragmentation.
///
/// By default sizes are verbatim (one bit per fact row).  When the bitmaps
/// are stored in a compressed representation, a *measured* compression
/// ratio ([`BitmapFragmentation::with_compression_ratio`]) scales the
/// physical byte/page figures so analytic page counts reflect what the
/// chosen representation actually occupies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitmapFragmentation {
    fragments: u64,
    fact_rows: u64,
    page_size_bytes: u64,
    /// Verbatim bytes over stored bytes; 1.0 = uncompressed.
    compression_ratio: f64,
}

impl BitmapFragmentation {
    /// Creates sizing information for `fragments` fact fragments with
    /// verbatim (uncompressed) bitmap sizes.
    ///
    /// # Panics
    ///
    /// Panics if `fragments` is zero.
    #[must_use]
    pub fn new(sizing: &PageSizing, fragments: u64) -> Self {
        assert!(fragments > 0, "fragment count must be positive");
        BitmapFragmentation {
            fragments,
            fact_rows: sizing.fact_rows(),
            page_size_bytes: sizing.page_size_bytes(),
            compression_ratio: 1.0,
        }
    }

    /// Applies a measured compression ratio (verbatim bytes over stored
    /// bytes, e.g. from [`crate::ReprStats::compression_ratio`]) to the
    /// physical byte/page figures.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not strictly positive and finite.
    #[must_use]
    pub fn with_compression_ratio(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "compression ratio must be positive and finite"
        );
        self.compression_ratio = ratio;
        self
    }

    /// The applied compression ratio (1.0 = verbatim).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        self.compression_ratio
    }

    /// Number of fact (and therefore bitmap) fragments.
    #[must_use]
    pub fn fragments(&self) -> u64 {
        self.fragments
    }

    /// Average number of fact rows (*logical* bits) per fragment —
    /// unaffected by compression.
    #[must_use]
    pub fn bits_per_fragment(&self) -> f64 {
        self.fact_rows as f64 / self.fragments as f64
    }

    /// Average *stored* bitmap-fragment size in bytes, after compression.
    #[must_use]
    pub fn bytes_per_fragment(&self) -> f64 {
        self.bits_per_fragment() / 8.0 / self.compression_ratio
    }

    /// Average bitmap-fragment size in pages (fractional) — the quantity
    /// reported in Table 6 and constrained by the thresholds of §4.4.
    #[must_use]
    pub fn pages_per_fragment(&self) -> f64 {
        self.bytes_per_fragment() / self.page_size_bytes as f64
    }

    /// Whole pages that must be read to fetch one bitmap fragment.
    #[must_use]
    pub fn whole_pages_per_fragment(&self) -> u64 {
        (self.pages_per_fragment().ceil() as u64).max(1)
    }

    /// I/O operations needed to read one bitmap fragment with the given
    /// prefetch granule (in pages).
    #[must_use]
    pub fn io_ops_per_fragment(&self, prefetch_pages: u64) -> u64 {
        assert!(prefetch_pages > 0);
        self.whole_pages_per_fragment().div_ceil(prefetch_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;
    use schema::PageSizing;

    #[test]
    fn table_6_fragment_sizes() {
        let sizing = PageSizing::new(&apb1_schema());
        let mg = BitmapFragmentation::new(&sizing, 11_520);
        let mc = BitmapFragmentation::new(&sizing, 23_040);
        let mcode = BitmapFragmentation::new(&sizing, 345_600);
        assert!((mg.pages_per_fragment() - 4.94).abs() < 0.05);
        assert!((mc.pages_per_fragment() - 2.47).abs() < 0.05);
        assert!((mcode.pages_per_fragment() - 0.165).abs() < 0.01);
        // Whole-page / prefetch rounding as used in Table 6's parentheses.
        assert_eq!(mg.whole_pages_per_fragment(), 5);
        assert_eq!(mc.whole_pages_per_fragment(), 3);
        assert_eq!(mcode.whole_pages_per_fragment(), 1);
    }

    #[test]
    fn io_ops_respect_prefetch_granule() {
        let sizing = PageSizing::new(&apb1_schema());
        let mg = BitmapFragmentation::new(&sizing, 11_520);
        assert_eq!(mg.io_ops_per_fragment(5), 1);
        assert_eq!(mg.io_ops_per_fragment(1), 5);
        assert_eq!(mg.io_ops_per_fragment(2), 3);
    }

    #[test]
    fn bits_and_bytes_consistent() {
        let sizing = PageSizing::new(&apb1_schema());
        let f = BitmapFragmentation::new(&sizing, 1_000);
        assert!((f.bits_per_fragment() - 1_866_240.0).abs() < 1.0);
        assert!((f.bytes_per_fragment() * 8.0 - f.bits_per_fragment()).abs() < 1e-6);
        assert_eq!(f.fragments(), 1_000);
        assert_eq!(f.compression_ratio(), 1.0);
    }

    #[test]
    fn compression_ratio_scales_physical_sizes_only() {
        let sizing = PageSizing::new(&apb1_schema());
        let verbatim = BitmapFragmentation::new(&sizing, 11_520);
        let compressed = verbatim.with_compression_ratio(4.0);
        assert_eq!(compressed.compression_ratio(), 4.0);
        // Logical bits are untouched; physical bytes/pages shrink 4x.
        assert_eq!(compressed.bits_per_fragment(), verbatim.bits_per_fragment());
        assert!(
            (compressed.bytes_per_fragment() * 4.0 - verbatim.bytes_per_fragment()).abs() < 1e-6
        );
        assert!(
            (compressed.pages_per_fragment() * 4.0 - verbatim.pages_per_fragment()).abs() < 1e-9
        );
        // 4.94 pages verbatim -> 1.23 compressed -> 2 whole pages, 1 I/O.
        assert_eq!(compressed.whole_pages_per_fragment(), 2);
        assert_eq!(compressed.io_ops_per_fragment(5), 1);
        assert_eq!(compressed.io_ops_per_fragment(1), 2);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_compression_ratio_rejected() {
        let sizing = PageSizing::new(&apb1_schema());
        let _ = BitmapFragmentation::new(&sizing, 10).with_compression_ratio(0.0);
    }

    #[test]
    #[should_panic(expected = "fragment count must be positive")]
    fn zero_fragments_rejected() {
        let sizing = PageSizing::new(&apb1_schema());
        let _ = BitmapFragmentation::new(&sizing, 0);
    }
}
