//! Logical description of the bitmap join indices of a star schema.
//!
//! The cost model and the simulator do not need materialised bitmaps for the
//! full-size warehouse (a single bitmap is 223 MB); they need to know *how
//! many* bitmaps exist per dimension, *how many must be read* for a selection
//! on a given hierarchy level, and *how many can be eliminated* under a given
//! fragmentation.  [`IndexCatalog`] answers those questions.
//!
//! Following §3.2 of the paper, the default catalog uses hierarchically
//! encoded bitmap join indices for the high-cardinality dimensions (PRODUCT:
//! 15 bitmaps, CUSTOMER: 12) and simple bitmap indices — one bitmap per value
//! of every hierarchy level — for the low-cardinality dimensions (TIME: up to
//! 34, CHANNEL: 15), for a maximum of 76 bitmaps.

use schema::StarSchema;

use crate::encoding::HierarchicalEncoding;

/// The kind of bitmap join index maintained for a dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitmapIndexKind {
    /// One bitmap per attribute value, for every hierarchy level.
    Simple,
    /// A hierarchically encoded index with `ceil(log2(fanout))` bitmaps per
    /// level (Table 1).
    Encoded(HierarchicalEncoding),
}

/// The bitmap join index of one dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct BitmapIndexSpec {
    dimension: usize,
    kind: BitmapIndexKind,
    /// Total cardinality per hierarchy level (coarsest first), cached from the
    /// schema so the spec is self-contained.
    level_cardinalities: Vec<u64>,
}

impl BitmapIndexSpec {
    /// Builds a simple bitmap index spec for dimension `dimension`.
    #[must_use]
    pub fn simple(schema: &StarSchema, dimension: usize) -> Self {
        let dim = &schema.dimensions()[dimension];
        BitmapIndexSpec {
            dimension,
            kind: BitmapIndexKind::Simple,
            level_cardinalities: (0..dim.hierarchy().depth())
                .map(|l| dim.level_cardinality(l))
                .collect(),
        }
    }

    /// Builds an encoded bitmap index spec for dimension `dimension`.
    #[must_use]
    pub fn encoded(schema: &StarSchema, dimension: usize) -> Self {
        let dim = &schema.dimensions()[dimension];
        BitmapIndexSpec {
            dimension,
            kind: BitmapIndexKind::Encoded(HierarchicalEncoding::for_hierarchy(dim.hierarchy())),
            level_cardinalities: (0..dim.hierarchy().depth())
                .map(|l| dim.level_cardinality(l))
                .collect(),
        }
    }

    /// The dimension this index belongs to.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The index kind.
    #[must_use]
    pub fn kind(&self) -> &BitmapIndexKind {
        &self.kind
    }

    /// Number of hierarchy levels covered.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.level_cardinalities.len()
    }

    /// Total number of bitmaps maintained for this dimension.
    #[must_use]
    pub fn bitmap_count(&self) -> u64 {
        match &self.kind {
            BitmapIndexKind::Simple => self.level_cardinalities.iter().sum(),
            BitmapIndexKind::Encoded(e) => u64::from(e.total_bits()),
        }
    }

    /// Number of bitmaps that must be read to evaluate an exact-match
    /// selection on hierarchy level `level` (0 = coarsest).
    ///
    /// * Simple index: exactly one bitmap (the one for the selected value).
    /// * Encoded index: the prefix bitmaps of that level (Table 1 — e.g. 10 of
    ///   15 bitmaps to locate a product GROUP, all 15 for a CODE).
    #[must_use]
    pub fn bitmaps_for_selection(&self, level: usize) -> u64 {
        assert!(level < self.levels(), "level out of range");
        match &self.kind {
            BitmapIndexKind::Simple => 1,
            BitmapIndexKind::Encoded(e) => u64::from(e.prefix_bits(level)),
        }
    }

    /// Number of bitmaps of this index that become unnecessary when the
    /// dimension is a fragmentation dimension with fragmentation attribute at
    /// `frag_level`.
    ///
    /// Under MDHF, selections on the fragmentation attribute and on all
    /// *coarser* levels touch only complete fragments, so their bitmaps would
    /// contain only `1` bits and can be dropped (§4.2):
    ///
    /// * Simple index: the bitmaps of all levels `0..=frag_level`.
    /// * Encoded index: the prefix bits of `frag_level`.
    #[must_use]
    pub fn bitmaps_eliminated_by_fragmentation(&self, frag_level: usize) -> u64 {
        assert!(frag_level < self.levels(), "level out of range");
        match &self.kind {
            BitmapIndexKind::Simple => self.level_cardinalities[..=frag_level].iter().sum(),
            BitmapIndexKind::Encoded(e) => u64::from(e.prefix_bits(frag_level)),
        }
    }

    /// Number of bitmaps remaining under such a fragmentation.
    #[must_use]
    pub fn bitmaps_remaining_under_fragmentation(&self, frag_level: usize) -> u64 {
        self.bitmap_count() - self.bitmaps_eliminated_by_fragmentation(frag_level)
    }
}

/// The complete set of bitmap join indices of a star schema.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexCatalog {
    specs: Vec<BitmapIndexSpec>,
}

impl IndexCatalog {
    /// Leaf-cardinality threshold above which the default catalog switches
    /// from simple to encoded indices (the paper encodes PRODUCT with 14 400
    /// codes and CUSTOMER with 1 440 stores, but keeps TIME with 24 months and
    /// CHANNEL with 15 channels simple).
    pub const ENCODING_THRESHOLD: u64 = 100;

    /// Builds the paper's default catalog for a schema: encoded indices for
    /// dimensions whose leaf cardinality exceeds
    /// [`Self::ENCODING_THRESHOLD`], simple indices otherwise.
    #[must_use]
    pub fn default_for(schema: &StarSchema) -> Self {
        let specs = schema
            .dimensions()
            .iter()
            .enumerate()
            .map(|(i, d)| {
                if d.cardinality() > Self::ENCODING_THRESHOLD {
                    BitmapIndexSpec::encoded(schema, i)
                } else {
                    BitmapIndexSpec::simple(schema, i)
                }
            })
            .collect();
        IndexCatalog { specs }
    }

    /// Builds a catalog from explicit per-dimension specs.
    ///
    /// # Panics
    ///
    /// Panics if the specs do not cover dimensions `0..n` exactly once, in
    /// order.
    #[must_use]
    pub fn from_specs(specs: Vec<BitmapIndexSpec>) -> Self {
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.dimension(), i, "specs must cover dimensions in order");
        }
        IndexCatalog { specs }
    }

    /// Per-dimension index specs, in dimension order.
    #[must_use]
    pub fn specs(&self) -> &[BitmapIndexSpec] {
        &self.specs
    }

    /// The index spec of one dimension.
    #[must_use]
    pub fn spec(&self, dimension: usize) -> &BitmapIndexSpec {
        &self.specs[dimension]
    }

    /// Total number of bitmaps across all dimensions (76 for APB-1).
    #[must_use]
    pub fn total_bitmaps(&self) -> u64 {
        self.specs.iter().map(BitmapIndexSpec::bitmap_count).sum()
    }

    /// Total bitmaps remaining when the given `(dimension, frag_level)` pairs
    /// are fragmentation attributes (at most one entry per dimension).
    #[must_use]
    pub fn total_bitmaps_under_fragmentation(&self, frag_attrs: &[(usize, usize)]) -> u64 {
        let eliminated: u64 = frag_attrs
            .iter()
            .map(|&(dim, level)| self.specs[dim].bitmaps_eliminated_by_fragmentation(level))
            .sum();
        self.total_bitmaps() - eliminated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    #[test]
    fn default_catalog_matches_paper_counts() {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let product = catalog.spec(s.dimension_index("product").unwrap());
        let customer = catalog.spec(s.dimension_index("customer").unwrap());
        let time = catalog.spec(s.dimension_index("time").unwrap());
        let channel = catalog.spec(s.dimension_index("channel").unwrap());

        assert!(matches!(product.kind(), BitmapIndexKind::Encoded(_)));
        assert!(matches!(customer.kind(), BitmapIndexKind::Encoded(_)));
        assert!(matches!(time.kind(), BitmapIndexKind::Simple));
        assert!(matches!(channel.kind(), BitmapIndexKind::Simple));

        assert_eq!(product.bitmap_count(), 15);
        assert_eq!(customer.bitmap_count(), 12);
        // TIME: 2 years + 8 quarters + 24 months = 34 bitmaps.
        assert_eq!(time.bitmap_count(), 34);
        assert_eq!(channel.bitmap_count(), 15);
        // "This results in a maximum of 76 bitmaps for our configuration."
        assert_eq!(catalog.total_bitmaps(), 76);
    }

    #[test]
    fn selection_costs() {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let pd = s.dimension_index("product").unwrap();
        let td = s.dimension_index("time").unwrap();
        // Product code selection reads all 15 bitmaps; group only 10.
        assert_eq!(catalog.spec(pd).bitmaps_for_selection(5), 15);
        assert_eq!(catalog.spec(pd).bitmaps_for_selection(3), 10);
        assert_eq!(catalog.spec(pd).bitmaps_for_selection(0), 3);
        // Simple index: always exactly one bitmap.
        assert_eq!(catalog.spec(td).bitmaps_for_selection(2), 1);
        assert_eq!(catalog.spec(td).bitmaps_for_selection(0), 1);
    }

    #[test]
    fn fragmentation_eliminates_bitmaps_as_in_section_4_2() {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let pd = s.dimension_index("product").unwrap();
        let td = s.dimension_index("time").unwrap();
        // F_MonthGroup = {time::month, product::group}:
        // - time is fragmented at its finest level, so all 34 TIME bitmaps go;
        // - product at group level saves the 10 prefix bitmaps.
        let frag = [(td, 2), (pd, 3)];
        assert_eq!(catalog.spec(td).bitmaps_eliminated_by_fragmentation(2), 34);
        assert_eq!(catalog.spec(pd).bitmaps_eliminated_by_fragmentation(3), 10);
        assert_eq!(catalog.spec(pd).bitmaps_remaining_under_fragmentation(3), 5);
        // "for F_MonthGroup at most 32 bitmaps are thus to be maintained"
        assert_eq!(catalog.total_bitmaps_under_fragmentation(&frag), 32);
    }

    #[test]
    fn explicit_catalog_construction() {
        let s = apb1_schema();
        let specs = (0..s.dimension_count())
            .map(|i| BitmapIndexSpec::simple(&s, i))
            .collect::<Vec<_>>();
        let catalog = IndexCatalog::from_specs(specs);
        // All-simple catalog: one bitmap per value per level of every
        // dimension, i.e. a huge number dominated by product codes.
        assert!(catalog.total_bitmaps() > 14_400);
        assert_eq!(catalog.specs().len(), 4);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_specs_rejected() {
        let s = apb1_schema();
        let _ = IndexCatalog::from_specs(vec![BitmapIndexSpec::simple(&s, 1)]);
    }
}
