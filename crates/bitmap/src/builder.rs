//! Materialised fact tables and bitmap join indices (scaled-down scale).
//!
//! The full APB-1 fact table (1.87 billion rows) is never materialised — the
//! paper's simulator and our cost model work on cardinalities alone.  To make
//! sure the *logical* model (how many bitmaps, which rows match) is actually
//! correct, this module can generate a scaled-down fact table and build real
//! bitmap join indices over it.  Examples and integration tests compare
//! bitmap-driven star-join results against a brute-force scan.

use std::collections::BTreeMap;

use schema::StarSchema;

use crate::bitvec::Bitmap;
use crate::encoding::HierarchicalEncoding;
use crate::index::{BitmapIndexKind, BitmapIndexSpec, IndexCatalog};
use crate::repr::{BitmapRepr, ReprStats, RepresentationPolicy};

/// One materialised fact row: the leaf-level foreign key per dimension plus
/// the measure values.
#[derive(Debug, Clone, PartialEq)]
pub struct FactRow {
    /// Leaf key per dimension, in schema dimension order.
    pub keys: Vec<u64>,
    /// Measure values, in schema measure order.
    pub measures: Vec<f64>,
}

/// A small, fully materialised fact table.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialisedFactTable {
    rows: Vec<FactRow>,
    dimension_cardinalities: Vec<u64>,
}

impl MaterialisedFactTable {
    /// Generates a fact table for `schema` deterministically from `seed`.
    ///
    /// Collects the rows [`MaterialisedFactTable::generate_each`] streams,
    /// in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the schema's dimension cross product exceeds 50 million
    /// combinations — this generator is for scaled-down schemas only.
    #[must_use]
    pub fn generate(schema: &StarSchema, seed: u64) -> Self {
        let mut rows = Vec::new();
        Self::generate_each(schema, seed, |keys, measures| {
            rows.push(FactRow {
                keys: keys.to_vec(),
                measures: measures.to_vec(),
            });
        });
        MaterialisedFactTable {
            rows,
            dimension_cardinalities: leaf_cardinalities(schema),
        }
    }

    /// Streams the rows of [`MaterialisedFactTable::generate`] to `row` as
    /// `(leaf keys, measures)` without materialising them: one key buffer
    /// and one measure buffer are reused for every row.
    ///
    /// Every possible combination of dimension leaf values is visited in
    /// mixed-radix order (last dimension varying fastest) and kept with
    /// probability equal to the schema's density factor, using a splitmix-
    /// style hash of the combination index and the seed, so the same seed
    /// always produces the same rows.  Measure values are derived from the
    /// same hash.
    ///
    /// # Panics
    ///
    /// Panics if the schema's dimension cross product exceeds 50 million
    /// combinations — this generator is for scaled-down schemas only.
    pub fn generate_each(schema: &StarSchema, seed: u64, mut row: impl FnMut(&[u64], &[f64])) {
        let combos = schema.max_fact_combinations();
        assert!(
            combos <= 50_000_000,
            "refusing to materialise {combos} combinations; use a scaled-down schema"
        );
        let cards = leaf_cardinalities(schema);
        let density = schema.fact().density();
        let mut keys = vec![0u64; cards.len()];
        let mut measures = vec![0.0f64; schema.fact().measures().len().max(1)];
        for combo in 0..combos {
            let h = mix(seed, combo);
            // Map the hash to [0, 1) and keep the combination with
            // probability `density`.
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < density {
                for (m, value) in measures.iter_mut().enumerate() {
                    *value = f64::from((mix(h, m as u64) % 1_000) as u32) + 1.0;
                }
                row(&keys, &measures);
            }
            // Advance `keys` to combination `combo + 1`.
            for (key, &card) in keys.iter_mut().zip(&cards).rev() {
                *key += 1;
                if *key < card {
                    break;
                }
                *key = 0;
            }
        }
    }

    /// Builds a table directly from rows, e.g. a reference table a test
    /// writes out row by row.
    ///
    /// # Panics
    ///
    /// Panics if a row's key arity does not match `dimension_cardinalities`
    /// or a key is outside its dimension's cardinality.
    #[must_use]
    pub fn from_rows(rows: Vec<FactRow>, dimension_cardinalities: Vec<u64>) -> Self {
        for row in &rows {
            assert_eq!(
                row.keys.len(),
                dimension_cardinalities.len(),
                "one leaf key per dimension required"
            );
            for (key, &card) in row.keys.iter().zip(&dimension_cardinalities) {
                assert!(*key < card, "leaf key {key} out of range (< {card})");
            }
        }
        MaterialisedFactTable {
            rows,
            dimension_cardinalities,
        }
    }

    /// The materialised rows.
    #[must_use]
    pub fn rows(&self) -> &[FactRow] {
        &self.rows
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were generated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Leaf cardinality per dimension, in schema order.
    #[must_use]
    pub fn dimension_cardinalities(&self) -> &[u64] {
        &self.dimension_cardinalities
    }

    /// Brute-force evaluation of a conjunction of leaf-range predicates:
    /// `predicates[d] = Some(range)` restricts dimension `d`'s leaf key to
    /// `range`.  Returns matching row indices — the ground truth the bitmap
    /// indices are validated against.
    #[must_use]
    pub fn scan(&self, predicates: &[Option<std::ops::Range<u64>>]) -> Vec<usize> {
        assert_eq!(predicates.len(), self.dimension_cardinalities.len());
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| {
                predicates
                    .iter()
                    .zip(&row.keys)
                    .all(|(p, k)| p.as_ref().is_none_or(|r| r.contains(k)))
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Splitmix64-style mixing of `(seed, value)`.
fn mix(seed: u64, value: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Leaf cardinality per dimension, in schema order.
fn leaf_cardinalities(schema: &StarSchema) -> Vec<u64> {
    schema
        .dimensions()
        .iter()
        .map(schema::Dimension::cardinality)
        .collect()
}

/// A materialised bitmap join index for one dimension of a
/// [`MaterialisedFactTable`].
///
/// Every bitmap is stored in its [`RepresentationPolicy`]-chosen
/// representation ([`BitmapRepr`]): under the default adaptive policy the
/// sparse per-value bitmaps of simple indices compress to WAH runs while
/// the ~50 %-density bit slices of encoded indices stay plain.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialisedIndex {
    dimension: usize,
    spec: BitmapIndexSpec,
    policy: RepresentationPolicy,
    /// For encoded indices: one bitmap per encoding bit (most significant /
    /// coarsest first).  For simple indices: bitmaps keyed by (level, value).
    encoded_bitmaps: Vec<BitmapRepr>,
    simple_bitmaps: BTreeMap<(usize, u64), BitmapRepr>,
    encoding: Option<HierarchicalEncoding>,
}

impl MaterialisedIndex {
    /// Builds the bitmap join index for dimension `dimension` of `table`,
    /// using the index kind given by `catalog` and the default adaptive
    /// representation policy.
    #[must_use]
    pub fn build(
        schema: &StarSchema,
        catalog: &IndexCatalog,
        table: &MaterialisedFactTable,
        dimension: usize,
    ) -> Self {
        Self::build_with_policy(
            schema,
            catalog,
            table,
            dimension,
            RepresentationPolicy::default(),
        )
    }

    /// Builds the index with an explicit per-bitmap representation policy,
    /// over `table`'s leaf keys of `dimension`
    /// ([`MaterialisedIndex::build_from_column`]).
    #[must_use]
    pub fn build_with_policy(
        schema: &StarSchema,
        catalog: &IndexCatalog,
        table: &MaterialisedFactTable,
        dimension: usize,
        policy: RepresentationPolicy,
    ) -> Self {
        let keys: Vec<u64> = table.rows().iter().map(|row| row.keys[dimension]).collect();
        Self::build_from_column(schema, catalog, &keys, dimension, policy)
    }

    /// Builds the index of `dimension` over a column of leaf keys — bit `i`
    /// of every bitmap describes `keys[i]` — with an explicit per-bitmap
    /// representation policy and the index kind given by `catalog`.
    #[must_use]
    pub fn build_from_column(
        schema: &StarSchema,
        catalog: &IndexCatalog,
        keys: &[u64],
        dimension: usize,
        policy: RepresentationPolicy,
    ) -> Self {
        let spec = catalog.spec(dimension).clone();
        let n = keys.len();
        let hierarchy = schema.dimensions()[dimension].hierarchy();

        let mut encoded_bitmaps = Vec::new();
        let mut simple_bitmaps: BTreeMap<(usize, u64), BitmapRepr> = BTreeMap::new();
        let mut encoding = None;

        match spec.kind() {
            BitmapIndexKind::Encoded(enc) => {
                let total = enc.total_bits() as usize;
                let mut plain = vec![Bitmap::new(n); total];
                for (row_idx, &leaf) in keys.iter().enumerate() {
                    let pattern = enc.encode_leaf(leaf);
                    for (bit, bitmap) in plain.iter_mut().enumerate() {
                        let shift = total - 1 - bit;
                        if (pattern >> shift) & 1 == 1 {
                            bitmap.set(row_idx, true);
                        }
                    }
                }
                encoded_bitmaps = plain
                    .into_iter()
                    .map(|b| BitmapRepr::from_bitmap(b, policy))
                    .collect();
                encoding = Some(enc.clone());
            }
            BitmapIndexKind::Simple => {
                let mut plain: BTreeMap<(usize, u64), Bitmap> = BTreeMap::new();
                for level in 0..hierarchy.depth() {
                    for value in 0..hierarchy.cardinality(level) {
                        plain.insert((level, value), Bitmap::new(n));
                    }
                }
                for (row_idx, &leaf) in keys.iter().enumerate() {
                    for level in 0..hierarchy.depth() {
                        let value = hierarchy.ancestor_of_leaf(leaf, level);
                        plain
                            .get_mut(&(level, value))
                            .expect("bitmap pre-created")
                            .set(row_idx, true);
                    }
                }
                simple_bitmaps = plain
                    .into_iter()
                    .map(|(key, b)| (key, BitmapRepr::from_bitmap(b, policy)))
                    .collect();
            }
        }

        MaterialisedIndex {
            dimension,
            spec,
            policy,
            encoded_bitmaps,
            simple_bitmaps,
            encoding,
        }
    }

    /// The dimension this index covers.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The logical spec this index was built from.
    #[must_use]
    pub fn spec(&self) -> &BitmapIndexSpec {
        &self.spec
    }

    /// Number of physical bitmaps actually materialised.
    #[must_use]
    pub fn materialised_bitmap_count(&self) -> usize {
        if self.encoded_bitmaps.is_empty() {
            self.simple_bitmaps.len()
        } else {
            self.encoded_bitmaps.len()
        }
    }

    /// The stored bitmap of `value` at hierarchy `level` (0 = coarsest) when
    /// this is a simple index, borrowed in its stored (possibly compressed)
    /// representation; `None` for an encoded index, whose selections are
    /// computed ([`MaterialisedIndex::and_selection_into`]), or for a key
    /// outside the index.
    #[must_use]
    pub fn simple_bitmap(&self, level: usize, value: u64) -> Option<&BitmapRepr> {
        self.simple_bitmaps.get(&(level, value))
    }

    /// ANDs the selection of `value` at hierarchy `level` into `out` in
    /// place, allocating nothing: a simple index ANDs its stored bitmap,
    /// an encoded index folds the prefix bit slices of the value's pattern
    /// one by one — each slice where the pattern bit is 1, its complement
    /// where it is 0 — through [`BitmapRepr::and_into`].
    ///
    /// # Panics
    ///
    /// Panics if `out`'s length differs from the index's row count or the
    /// index holds no bitmap for `(level, value)`.
    pub fn and_selection_into(&self, level: usize, value: u64, out: &mut Bitmap) {
        match &self.encoding {
            Some(encoding) => {
                for (bit, must_be_one) in encoding.match_pattern(level, value) {
                    self.encoded_bitmaps[bit as usize].and_into(out, !must_be_one);
                }
            }
            None => match self.simple_bitmap(level, value) {
                Some(stored) => stored.and_into(out, false),
                None => panic!("no bitmap for level {level} value {value}"),
            },
        }
    }

    /// Returns the bitmap of fact rows matching `value` at hierarchy `level`
    /// (0 = coarsest) as an owned [`BitmapRepr`].
    ///
    /// For simple indices this is a copy of [`MaterialisedIndex::simple_bitmap`]
    /// in its stored (possibly compressed) representation.  For encoded
    /// indices it is [`MaterialisedIndex::and_selection_into`] over an
    /// all-one bitmap, returned plain — re-compressing a query-time
    /// temporary would cost more than it saves.  The engine reads the
    /// borrow or folds into a reused scratch bitmap instead; this owned
    /// form serves callers that keep the selection.
    ///
    /// # Panics
    ///
    /// Panics if the index holds no bitmap for `(level, value)`.
    #[must_use]
    pub fn select_repr(&self, level: usize, value: u64) -> BitmapRepr {
        if let Some(stored) = self.simple_bitmap(level, value) {
            return stored.clone();
        }
        let rows = self.encoded_bitmaps.first().map_or(0, BitmapRepr::len);
        let mut selection = Bitmap::ones(rows);
        self.and_selection_into(level, value, &mut selection);
        BitmapRepr::Plain(selection)
    }

    /// Returns the selection of [`MaterialisedIndex::select_repr`] as a
    /// plain bitmap (decompressing if necessary).
    #[must_use]
    pub fn select(&self, level: usize, value: u64) -> Bitmap {
        self.select_repr(level, value).into_plain()
    }

    /// Number of bitmaps that a selection on `level` has to read — must equal
    /// [`BitmapIndexSpec::bitmaps_for_selection`].
    #[must_use]
    pub fn bitmaps_read_for_selection(&self, level: usize) -> u64 {
        self.spec.bitmaps_for_selection(level)
    }

    /// The representation policy the index was built with.
    #[must_use]
    pub fn policy(&self) -> RepresentationPolicy {
        self.policy
    }

    /// Storage statistics over every materialised bitmap: representation
    /// counts, measured `size_bytes()` and the verbatim baseline.
    #[must_use]
    pub fn repr_stats(&self) -> ReprStats {
        let mut stats = ReprStats::default();
        for repr in &self.encoded_bitmaps {
            stats.absorb(repr);
        }
        for repr in self.simple_bitmaps.values() {
            stats.absorb(repr);
        }
        stats
    }

    /// Measured physical size of the index in bytes, summed over the chosen
    /// representation of every bitmap.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.repr_stats().size_bytes
    }

    /// Borrowed view of the physical bitmaps backing this index, in the
    /// shape matching its [`BitmapIndexKind`].  This is the serialisation
    /// surface: a storage engine writes exactly these bitmaps (e.g. through
    /// [`crate::encode_bitmap_repr`]) and later reconstructs the index with
    /// [`MaterialisedIndex::from_stored_encoded`] /
    /// [`MaterialisedIndex::from_stored_simple`].
    #[must_use]
    pub fn stored_bitmaps(&self) -> StoredBitmaps<'_> {
        match self.spec.kind() {
            BitmapIndexKind::Encoded(_) => StoredBitmaps::Encoded(&self.encoded_bitmaps),
            BitmapIndexKind::Simple => StoredBitmaps::Simple(&self.simple_bitmaps),
        }
    }

    /// Reconstructs an *encoded* index for `dimension` from its stored bit
    /// slices (most significant / coarsest first), as previously exposed by
    /// [`MaterialisedIndex::stored_bitmaps`].
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when `dimension` is outside
    /// `schema`, `catalog` does not declare an encoded index for it, the
    /// slice count differs from the encoding's total bits, or the slices
    /// disagree on row count.
    pub fn from_stored_encoded(
        schema: &StarSchema,
        catalog: &IndexCatalog,
        dimension: usize,
        policy: RepresentationPolicy,
        bitmaps: Vec<BitmapRepr>,
    ) -> Result<Self, String> {
        check_dimension(schema, dimension)?;
        let spec = catalog.spec(dimension).clone();
        let BitmapIndexKind::Encoded(enc) = spec.kind() else {
            return Err(format!(
                "catalog declares a simple index for dimension {dimension}, got encoded bitmaps"
            ));
        };
        let enc = enc.clone();
        if bitmaps.len() != enc.total_bits() as usize {
            return Err(format!(
                "encoded index for dimension {dimension} needs {} bit slices, got {}",
                enc.total_bits(),
                bitmaps.len()
            ));
        }
        let rows = bitmaps.first().map_or(0, BitmapRepr::len);
        if bitmaps.iter().any(|b| b.len() != rows) {
            return Err(format!(
                "bit slices of dimension {dimension} disagree on row count"
            ));
        }
        Ok(MaterialisedIndex {
            dimension,
            spec,
            policy,
            encoded_bitmaps: bitmaps,
            simple_bitmaps: BTreeMap::new(),
            encoding: Some(enc),
        })
    }

    /// Reconstructs a *simple* index for `dimension` from its stored
    /// per-`(level, value)` bitmaps, as previously exposed by
    /// [`MaterialisedIndex::stored_bitmaps`].
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch when `dimension` is outside
    /// `schema`, `catalog` does not declare a simple index for it, the
    /// bitmap count differs from the spec, a key is outside the dimension
    /// hierarchy, or the bitmaps disagree on row count.
    pub fn from_stored_simple(
        schema: &StarSchema,
        catalog: &IndexCatalog,
        dimension: usize,
        policy: RepresentationPolicy,
        bitmaps: BTreeMap<(usize, u64), BitmapRepr>,
    ) -> Result<Self, String> {
        check_dimension(schema, dimension)?;
        let spec = catalog.spec(dimension).clone();
        if !matches!(spec.kind(), BitmapIndexKind::Simple) {
            return Err(format!(
                "catalog declares an encoded index for dimension {dimension}, got simple bitmaps"
            ));
        }
        if bitmaps.len() as u64 != spec.bitmap_count() {
            return Err(format!(
                "simple index for dimension {dimension} needs {} bitmaps, got {}",
                spec.bitmap_count(),
                bitmaps.len()
            ));
        }
        let hierarchy = schema.dimensions()[dimension].hierarchy();
        let rows = bitmaps.values().next().map_or(0, BitmapRepr::len);
        for (&(level, value), bitmap) in &bitmaps {
            if level >= hierarchy.depth() || value >= hierarchy.cardinality(level) {
                return Err(format!(
                    "bitmap key (level {level}, value {value}) outside dimension {dimension}"
                ));
            }
            if bitmap.len() != rows {
                return Err(format!(
                    "bitmaps of dimension {dimension} disagree on row count"
                ));
            }
        }
        Ok(MaterialisedIndex {
            dimension,
            spec,
            policy,
            encoded_bitmaps: Vec::new(),
            simple_bitmaps: bitmaps,
            encoding: None,
        })
    }
}

/// Rejects a stored index whose dimension the schema does not have.
fn check_dimension(schema: &StarSchema, dimension: usize) -> Result<(), String> {
    if dimension < schema.dimension_count() {
        Ok(())
    } else {
        Err(format!(
            "dimension {dimension} outside the schema's {} dimensions",
            schema.dimension_count()
        ))
    }
}

/// Borrowed view of the physical bitmaps of a [`MaterialisedIndex`], shaped
/// by the index kind.
#[derive(Debug, Clone, Copy)]
pub enum StoredBitmaps<'a> {
    /// Encoded index: one bit slice per encoding bit, coarsest first.
    Encoded(&'a [BitmapRepr]),
    /// Simple index: one bitmap per `(level, value)` pair.
    Simple(&'a BTreeMap<(usize, u64), BitmapRepr>),
}

/// Evaluates a star query over a materialised table using bitmap indices:
/// intersects the selection bitmaps of all `(dimension, level, value)`
/// predicates and sums the requested measure over the matching rows.
///
/// This is the *reference implementation* of bitmap star-join evaluation
/// over the unfragmented table; the `exec` engine's fragmented, parallel
/// pipeline is cross-checked against it in the repository-level
/// integration tests.
///
/// Returns `(hit_count, measure_sum)`.
#[must_use]
pub fn evaluate_star_query(
    table: &MaterialisedFactTable,
    indices: &[MaterialisedIndex],
    predicates: &[(usize, usize, u64)],
    measure: usize,
) -> (usize, f64) {
    let n = table.len();
    let mut result = Bitmap::ones(n);
    for &(dim, level, value) in predicates {
        let index = indices
            .iter()
            .find(|i| i.dimension() == dim)
            .expect("index exists for predicate dimension");
        result.and_assign(&index.select(level, value));
    }
    let mut sum = 0.0;
    let mut hits = 0usize;
    for row_idx in result.iter_ones() {
        hits += 1;
        sum += table.rows()[row_idx].measures[measure];
    }
    (hits, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_scaled_down;

    fn setup() -> (
        StarSchema,
        MaterialisedFactTable,
        IndexCatalog,
        Vec<MaterialisedIndex>,
    ) {
        let schema = apb1_scaled_down();
        let table = MaterialisedFactTable::generate(&schema, 42);
        let catalog = IndexCatalog::default_for(&schema);
        let indices = (0..schema.dimension_count())
            .map(|d| MaterialisedIndex::build(&schema, &catalog, &table, d))
            .collect();
        (schema, table, catalog, indices)
    }

    #[test]
    fn generation_is_deterministic_and_respects_density() {
        let schema = apb1_scaled_down();
        let t1 = MaterialisedFactTable::generate(&schema, 7);
        let t2 = MaterialisedFactTable::generate(&schema, 7);
        assert_eq!(t1, t2);
        let t3 = MaterialisedFactTable::generate(&schema, 8);
        assert_ne!(t1, t3);

        let combos = schema.max_fact_combinations() as f64;
        let expected = combos * schema.fact().density();
        let actual = t1.len() as f64;
        // Within 15 % of the expected density (binomial fluctuation).
        assert!(
            (actual - expected).abs() / expected < 0.15,
            "expected ~{expected}, got {actual}"
        );
        assert!(!t1.is_empty());
        assert_eq!(t1.dimension_cardinalities().len(), 4);
    }

    #[test]
    fn keys_are_within_cardinalities() {
        let (schema, table, _, _) = setup();
        for row in table.rows() {
            assert_eq!(row.keys.len(), schema.dimension_count());
            for (d, &k) in row.keys.iter().enumerate() {
                assert!(k < schema.dimensions()[d].cardinality());
            }
            assert_eq!(row.measures.len(), 3);
            assert!(row.measures.iter().all(|&m| m >= 1.0));
        }
    }

    #[test]
    fn bitmap_selection_matches_scan_at_leaf_level() {
        let (schema, table, _, indices) = setup();
        let product = schema.dimension_index("product").unwrap();
        let hierarchy = schema.dimensions()[product].hierarchy();
        let leaf_level = hierarchy.finest_level();
        for value in [0u64, 7, 59, 119] {
            let bitmap_rows: Vec<usize> = indices[product]
                .select(leaf_level, value)
                .iter_ones()
                .collect();
            let mut preds = vec![None, None, None, None];
            preds[product] = Some(value..value + 1);
            let scan_rows = table.scan(&preds);
            assert_eq!(bitmap_rows, scan_rows, "value {value}");
        }
    }

    #[test]
    fn bitmap_selection_matches_scan_at_inner_levels() {
        let (schema, table, _, indices) = setup();
        for (dim_name, level_name) in [
            ("product", "group"),
            ("product", "division"),
            ("customer", "retailer"),
            ("time", "quarter"),
            ("time", "year"),
            ("channel", "channel"),
        ] {
            let dim = schema.dimension_index(dim_name).unwrap();
            let attr = schema.attr(dim_name, level_name).unwrap();
            let hierarchy = schema.dimensions()[dim].hierarchy();
            let card = hierarchy.cardinality(attr.level);
            for value in 0..card.min(4) {
                let bitmap_rows: Vec<usize> =
                    indices[dim].select(attr.level, value).iter_ones().collect();
                let range = hierarchy.leaf_range_of(attr.level, value);
                let mut preds = vec![None, None, None, None];
                preds[dim] = Some(range);
                let scan_rows = table.scan(&preds);
                assert_eq!(bitmap_rows, scan_rows, "{dim_name}::{level_name}={value}");
            }
        }
    }

    #[test]
    fn star_query_matches_brute_force() {
        let (schema, table, _, indices) = setup();
        let product = schema.dimension_index("product").unwrap();
        let time = schema.dimension_index("time").unwrap();
        let group = schema.attr("product", "group").unwrap();
        let month = schema.attr("time", "month").unwrap();

        // 1MONTH1GROUP-style query on the scaled schema.
        let (hits, sum) = evaluate_star_query(
            &table,
            &indices,
            &[(product, group.level, 1), (time, month.level, 3)],
            0,
        );
        let p_hier = schema.dimensions()[product].hierarchy();
        let mut preds = vec![None, None, None, None];
        preds[product] = Some(p_hier.leaf_range_of(group.level, 1));
        preds[time] = Some(3..4);
        let expected = table.scan(&preds);
        assert_eq!(hits, expected.len());
        let expected_sum: f64 = expected.iter().map(|&i| table.rows()[i].measures[0]).sum();
        assert!((sum - expected_sum).abs() < 1e-9);
    }

    #[test]
    fn materialised_counts_match_logical_spec() {
        let (schema, _, catalog, indices) = setup();
        for idx in &indices {
            assert_eq!(
                idx.materialised_bitmap_count() as u64,
                catalog.spec(idx.dimension()).bitmap_count()
            );
            let finest = schema.dimensions()[idx.dimension()]
                .hierarchy()
                .finest_level();
            assert_eq!(
                idx.bitmaps_read_for_selection(finest),
                catalog.spec(idx.dimension()).bitmaps_for_selection(finest)
            );
        }
    }

    #[test]
    fn representations_do_not_change_selections() {
        let (schema, table, catalog, _) = setup();
        let time = schema.dimension_index("time").unwrap();
        let product = schema.dimension_index("product").unwrap();
        let baseline = MaterialisedIndex::build_with_policy(
            &schema,
            &catalog,
            &table,
            time,
            RepresentationPolicy::Plain,
        );
        for policy in [RepresentationPolicy::Wah, RepresentationPolicy::default()] {
            for dimension in [time, product] {
                let reference_index =
                    MaterialisedIndex::build(&schema, &catalog, &table, dimension);
                let index = MaterialisedIndex::build_with_policy(
                    &schema, &catalog, &table, dimension, policy,
                );
                assert_eq!(index.policy(), policy);
                let hierarchy = schema.dimensions()[dimension].hierarchy();
                for level in 0..hierarchy.depth() {
                    for value in 0..hierarchy.cardinality(level).min(3) {
                        let reference = reference_index.select(level, value);
                        assert_eq!(index.select(level, value), reference, "{policy:?}");
                        assert_eq!(
                            index.select_repr(level, value).to_plain(),
                            reference,
                            "{policy:?}"
                        );
                    }
                }
            }
        }
        // The forced-WAH time index stores every bitmap compressed; its
        // stats reflect the chosen representation's measured bytes.
        let wah_time = MaterialisedIndex::build_with_policy(
            &schema,
            &catalog,
            &table,
            time,
            RepresentationPolicy::Wah,
        );
        let stats = wah_time.repr_stats();
        assert_eq!(stats.bitmaps, wah_time.materialised_bitmap_count());
        assert_eq!(stats.compressed, stats.bitmaps);
        assert_eq!(wah_time.size_bytes(), stats.size_bytes);
        assert_eq!(
            baseline.repr_stats().plain_size_bytes,
            stats.plain_size_bytes
        );
    }

    #[test]
    fn from_rows_roundtrips_and_scans() {
        let (schema, table, catalog, _) = setup();
        let rebuilt = MaterialisedFactTable::from_rows(
            table.rows().to_vec(),
            table.dimension_cardinalities().to_vec(),
        );
        assert_eq!(rebuilt, table);
        // Indices built over a from_rows table behave identically.
        let product = schema.dimension_index("product").unwrap();
        let index = MaterialisedIndex::build(&schema, &catalog, &rebuilt, product);
        let leaf = schema.dimensions()[product].hierarchy().finest_level();
        let mut preds = vec![None, None, None, None];
        preds[product] = Some(7..8);
        assert_eq!(
            index.select(leaf, 7).iter_ones().collect::<Vec<_>>(),
            rebuilt.scan(&preds)
        );
        // An empty sub-table is valid (empty fragments exist under sparse data).
        let empty =
            MaterialisedFactTable::from_rows(vec![], table.dimension_cardinalities().to_vec());
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_rows_rejects_out_of_range_keys() {
        let _ = MaterialisedFactTable::from_rows(
            vec![FactRow {
                keys: vec![5, 0],
                measures: vec![1.0],
            }],
            vec![3, 10],
        );
    }

    #[test]
    fn stored_bitmaps_roundtrip_reconstruction() {
        let (schema, _, catalog, indices) = setup();
        for idx in &indices {
            let rebuilt = match idx.stored_bitmaps() {
                StoredBitmaps::Encoded(slices) => MaterialisedIndex::from_stored_encoded(
                    &schema,
                    &catalog,
                    idx.dimension(),
                    idx.policy(),
                    slices.to_vec(),
                ),
                StoredBitmaps::Simple(map) => MaterialisedIndex::from_stored_simple(
                    &schema,
                    &catalog,
                    idx.dimension(),
                    idx.policy(),
                    map.clone(),
                ),
            }
            .expect("reconstruction succeeds");
            assert_eq!(&rebuilt, idx);
        }
    }

    #[test]
    fn from_stored_rejects_shape_mismatches() {
        let (schema, _, catalog, indices) = setup();
        // Dimension 0 (product) defaults to an encoded index; feeding it
        // simple bitmaps (and vice versa) must fail, as must a wrong count.
        let encoded_dim = indices
            .iter()
            .find(|i| matches!(i.stored_bitmaps(), StoredBitmaps::Encoded(_)))
            .expect("an encoded index exists");
        let simple_dim = indices
            .iter()
            .find(|i| matches!(i.stored_bitmaps(), StoredBitmaps::Simple(_)))
            .expect("a simple index exists");
        let policy = RepresentationPolicy::default();
        assert!(MaterialisedIndex::from_stored_simple(
            &schema,
            &catalog,
            encoded_dim.dimension(),
            policy,
            BTreeMap::new(),
        )
        .is_err());
        assert!(MaterialisedIndex::from_stored_encoded(
            &schema,
            &catalog,
            simple_dim.dimension(),
            policy,
            Vec::new(),
        )
        .is_err());
        assert!(MaterialisedIndex::from_stored_encoded(
            &schema,
            &catalog,
            encoded_dim.dimension(),
            policy,
            vec![BitmapRepr::Plain(Bitmap::new(4))],
        )
        .is_err());
        // A dimension the schema does not have is an error, not a panic.
        let outside = schema.dimension_count();
        assert!(MaterialisedIndex::from_stored_simple(
            &schema,
            &catalog,
            outside,
            policy,
            BTreeMap::new(),
        )
        .is_err());
        assert!(MaterialisedIndex::from_stored_encoded(
            &schema,
            &catalog,
            outside,
            policy,
            Vec::new(),
        )
        .is_err());
    }

    #[test]
    fn generate_each_visits_combinations_in_mixed_radix_order() {
        // Density 1 keeps every combination, so the k-th streamed row is
        // combination k: its keys read as a mixed-radix number, last
        // dimension varying fastest.
        let schema = schema::apb1::Apb1Config {
            channels: 2,
            months: 3,
            stores: 10,
            product_codes: 120,
            density: 1.0,
            fact_tuple_bytes: 20,
        }
        .build();
        let cards = leaf_cardinalities(&schema);
        let mut combo = 0u64;
        MaterialisedFactTable::generate_each(&schema, 5, |keys, measures| {
            let rank = keys.iter().zip(&cards).fold(0, |n, (&k, &c)| n * c + k);
            assert_eq!(rank, combo);
            assert_eq!(measures.len(), 3);
            combo += 1;
        });
        assert_eq!(combo, schema.max_fact_combinations());
        assert_eq!(
            MaterialisedFactTable::generate(&schema, 5).len() as u64,
            combo
        );
    }

    #[test]
    fn build_from_column_equals_build_with_policy() {
        let (schema, table, catalog, _) = setup();
        for policy in [
            RepresentationPolicy::Plain,
            RepresentationPolicy::Wah,
            RepresentationPolicy::Roaring,
            RepresentationPolicy::default(),
        ] {
            for dimension in 0..schema.dimension_count() {
                let keys: Vec<u64> = table.rows().iter().map(|r| r.keys[dimension]).collect();
                assert_eq!(
                    MaterialisedIndex::build_from_column(
                        &schema, &catalog, &keys, dimension, policy
                    ),
                    MaterialisedIndex::build_with_policy(
                        &schema, &catalog, &table, dimension, policy
                    ),
                    "dimension {dimension}, {policy:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "refusing to materialise")]
    fn full_size_schema_rejected() {
        let schema = schema::apb1::apb1_schema();
        let _ = MaterialisedFactTable::generate(&schema, 1);
    }
}
