//! Page-level size calculations shared by the cost model and the simulator.
//!
//! The paper works with 4 KB pages, 20-byte fact tuples (≈ 200 tuples per
//! page) and bitmaps of one bit per fact row (≈ 223 MB per bitmap for the
//! full APB-1 configuration).  [`PageSizing`] packages those derived figures
//! for any [`StarSchema`].

use crate::star::StarSchema;

/// Default page size used throughout the paper: 4 KB.
pub const DEFAULT_PAGE_SIZE: u64 = 4 * 1024;

/// Derived page/tuple/bitmap sizing for a star schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSizing {
    page_size_bytes: u64,
    fact_tuple_bytes: u64,
    fact_rows: u64,
}

impl PageSizing {
    /// Creates sizing information with the default 4 KB page size.
    #[must_use]
    pub fn new(schema: &StarSchema) -> Self {
        Self::with_page_size(schema, DEFAULT_PAGE_SIZE)
    }

    /// Creates sizing information with an explicit page size.
    ///
    /// # Panics
    ///
    /// Panics if the page size is smaller than one fact tuple.
    #[must_use]
    pub fn with_page_size(schema: &StarSchema, page_size_bytes: u64) -> Self {
        let fact_tuple_bytes = schema.fact().tuple_size_bytes();
        assert!(
            page_size_bytes >= fact_tuple_bytes,
            "page size must hold at least one fact tuple"
        );
        PageSizing {
            page_size_bytes,
            fact_tuple_bytes,
            fact_rows: schema.fact_row_count(),
        }
    }

    /// The page size in bytes.
    #[must_use]
    pub fn page_size_bytes(&self) -> u64 {
        self.page_size_bytes
    }

    /// The fact tuple size in bytes.
    #[must_use]
    pub fn fact_tuple_bytes(&self) -> u64 {
        self.fact_tuple_bytes
    }

    /// Total number of fact rows.
    #[must_use]
    pub fn fact_rows(&self) -> u64 {
        self.fact_rows
    }

    /// Fact tuples that fit into one page (floor).
    #[must_use]
    pub fn fact_tuples_per_page(&self) -> u64 {
        self.page_size_bytes / self.fact_tuple_bytes
    }

    /// Total number of fact-table pages.
    #[must_use]
    pub fn fact_pages(&self) -> u64 {
        self.fact_rows.div_ceil(self.fact_tuples_per_page())
    }

    /// Number of fact rows in one fragment of an `n`-fragment fragmentation,
    /// assuming uniform distribution (the paper's assumption).
    #[must_use]
    pub fn fact_rows_per_fragment(&self, fragments: u64) -> f64 {
        assert!(fragments > 0);
        self.fact_rows as f64 / fragments as f64
    }

    /// Number of pages in one fact fragment (fractional; callers round up
    /// when they need whole pages).
    #[must_use]
    pub fn fact_pages_per_fragment(&self, fragments: u64) -> f64 {
        self.fact_rows_per_fragment(fragments) * self.fact_tuple_bytes as f64
            / self.page_size_bytes as f64
    }

    /// Size of one complete (unfragmented) bitmap in bytes: one bit per row.
    #[must_use]
    pub fn bitmap_bytes(&self) -> u64 {
        self.fact_rows.div_ceil(8)
    }

    /// Size of one complete bitmap in pages.
    #[must_use]
    pub fn bitmap_pages(&self) -> u64 {
        self.bitmap_bytes().div_ceil(self.page_size_bytes)
    }

    /// Size of one bitmap *fragment* in pages (fractional) for an
    /// `n`-fragment fragmentation — the quantity of the paper's
    /// minimum-bitmap-fragment-size threshold and of Table 6.
    #[must_use]
    pub fn bitmap_fragment_pages(&self, fragments: u64) -> f64 {
        assert!(fragments > 0);
        self.fact_rows as f64 / fragments as f64 / 8.0 / self.page_size_bytes as f64
    }

    /// The ratio between fact-fragment and bitmap-fragment sizes: a fact
    /// fragment is `8 × SizeFactTuple` times larger (paper, footnote 2).
    #[must_use]
    pub fn fact_to_bitmap_ratio(&self) -> u64 {
        8 * self.fact_tuple_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apb1::apb1_schema;

    #[test]
    fn paper_figures_for_full_apb1() {
        let s = apb1_schema();
        let sizing = PageSizing::new(&s);
        assert_eq!(sizing.page_size_bytes(), 4_096);
        assert_eq!(sizing.fact_tuple_bytes(), 20);
        assert_eq!(sizing.fact_rows(), 1_866_240_000);
        // "about 200 tuples per fact table page"
        assert_eq!(sizing.fact_tuples_per_page(), 204);
        // "each bitmap occupies 223 MB"
        let mb = sizing.bitmap_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mb - 222.5).abs() < 1.0, "bitmap size {mb} MiB");
        // fact fragment is 8 × 20 = 160 times larger than a bitmap fragment
        assert_eq!(sizing.fact_to_bitmap_ratio(), 160);
    }

    #[test]
    fn table_6_bitmap_fragment_sizes() {
        // Table 6: bitmap fragment sizes for the three two-dimensional
        // fragmentations of experiment 3.
        let s = apb1_schema();
        let sizing = PageSizing::new(&s);
        let month_group = sizing.bitmap_fragment_pages(11_520);
        let month_class = sizing.bitmap_fragment_pages(23_040);
        let month_code = sizing.bitmap_fragment_pages(345_600);
        assert!((month_group - 4.94).abs() < 0.05, "{month_group}");
        assert!((month_class - 2.47).abs() < 0.05, "{month_class}");
        assert!((month_code - 0.165).abs() < 0.01, "{month_code}");
    }

    #[test]
    fn per_fragment_sizes_scale_inversely() {
        let s = apb1_schema();
        let sizing = PageSizing::new(&s);
        let one = sizing.fact_pages_per_fragment(1);
        let thousand = sizing.fact_pages_per_fragment(1_000);
        assert!((one / thousand - 1_000.0).abs() < 1e-6);
        assert_eq!(sizing.fact_rows_per_fragment(1), 1_866_240_000.0);
    }

    #[test]
    fn fact_pages_rounding() {
        let s = apb1_schema();
        let sizing = PageSizing::new(&s);
        let expected = 1_866_240_000u64.div_ceil(204);
        assert_eq!(sizing.fact_pages(), expected);
        assert_eq!(sizing.bitmap_pages(), sizing.bitmap_bytes().div_ceil(4_096));
    }

    #[test]
    fn custom_page_size() {
        let s = apb1_schema();
        let sizing = PageSizing::with_page_size(&s, 8_192);
        assert_eq!(sizing.fact_tuples_per_page(), 409);
    }

    #[test]
    #[should_panic(expected = "at least one fact tuple")]
    fn page_smaller_than_tuple_rejected() {
        let s = apb1_schema();
        let _ = PageSizing::with_page_size(&s, 8);
    }
}
