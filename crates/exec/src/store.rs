//! In-memory columnar storage of an MDHF-fragmented fact table.
//!
//! The simulator (`simpad`) works on cardinalities; this store holds *real*
//! rows so that wall-clock execution can be measured.  Rows — streamed by
//! [`MaterialisedFactTable::generate_each`], drawn by the skewed generator,
//! or read from an existing table — are routed by
//! [`Fragmentation::fragment_of_row`] straight into per-fragment columns,
//! in one pass and in arrival order, into one [`ColumnarFragment`] per
//! fragment number.  Each fragment keeps
//!
//! * its fact rows in columnar layout (one key column per dimension, one
//!   value column per measure), and
//! * one [`MaterialisedIndex`] per dimension built from *only its own* key
//!   column — the materialised counterpart of the paper's fragment-aligned
//!   bitmap fragments (§4): bit `i` of a fragment's bitmap refers to the
//!   `i`-th row of that fragment, so fragments can be processed
//!   independently.

use std::sync::Arc;

use bitmap::{
    BitmapFragmentation, IndexCatalog, MaterialisedFactTable, MaterialisedIndex, ReprStats,
    RepresentationPolicy,
};
use mdhf::Fragmentation;
use schema::{PageSizing, StarSchema};
use workload::QueryPlan;

use crate::file::{StorageError, StoredParts};

/// Splitmix64-style mixing, shared by the deterministic skewed-row
/// generator here and the I/O layer's track scattering
/// ([`crate::io`]) — one copy of the finalizer constants.
pub(crate) fn mix64(seed: u64, value: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fact fragment in columnar layout plus its fragment-aligned bitmap
/// join indices.
///
/// Measure columns are always held decoded.  Key columns and indices are
/// either built in memory, or — for a fragment loaded from a file — kept as
/// their checked segments and decoded the first time they are asked for
/// (see [`crate::file`]), so a query decodes only the indices of its own
/// predicates and never a key column.
#[derive(Debug, Clone)]
pub struct ColumnarFragment {
    fragment_number: u64,
    rows: usize,
    /// One column per schema measure, each of `len()` values.
    measures: Vec<Vec<f64>>,
    parts: Parts,
}

/// A fragment's key columns and bitmap join indices.
#[derive(Debug, Clone)]
enum Parts {
    /// Built in memory: per dimension one column of `len()` leaf keys and
    /// one index covering only this fragment's rows.
    Built {
        keys: Vec<Vec<u64>>,
        indices: Vec<MaterialisedIndex>,
    },
    /// Loaded from a file, each decoded on first use (shared by clones).
    Stored(Arc<StoredParts>),
}

impl ColumnarFragment {
    /// A fragment of `rows` rows from columns and indices built in memory.
    fn built(
        fragment_number: u64,
        rows: usize,
        keys: Vec<Vec<u64>>,
        measures: Vec<Vec<f64>>,
        indices: Vec<MaterialisedIndex>,
    ) -> Self {
        ColumnarFragment {
            fragment_number,
            rows,
            measures,
            parts: Parts::Built { keys, indices },
        }
    }

    /// A fragment loaded from a file ([`crate::file`]): its decoded
    /// measure columns, and the stored segments of its key columns and
    /// indices.
    pub(crate) fn stored(
        fragment_number: u64,
        measures: Vec<Vec<f64>>,
        parts: StoredParts,
    ) -> Self {
        ColumnarFragment {
            fragment_number,
            rows: parts.rows(),
            measures,
            parts: Parts::Stored(Arc::new(parts)),
        }
    }

    /// This fragment with every key column and index built: a loaded
    /// fragment decoded in full, a built one cloned.
    ///
    /// # Errors
    ///
    /// As [`Self::try_bitmap_index`], for any dimension.
    pub(crate) fn to_built(&self) -> Result<Self, StorageError> {
        let dimensions = 0..self.dimension_count();
        let indices = dimensions
            .clone()
            .map(|d| self.try_bitmap_index(d).cloned())
            .collect::<Result<_, _>>()?;
        let keys = dimensions.map(|d| self.key_column(d).to_vec()).collect();
        Ok(Self::built(
            self.fragment_number,
            self.rows,
            keys,
            self.measures.clone(),
            indices,
        ))
    }

    /// The linear fragment number this fragment holds.
    #[must_use]
    pub fn fragment_number(&self) -> u64 {
        self.fragment_number
    }

    /// Number of fact rows in this fragment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no fact row falls into this fragment.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn dimension_count(&self) -> usize {
        match &self.parts {
            Parts::Built { indices, .. } => indices.len(),
            Parts::Stored(stored) => stored.dimension_count(),
        }
    }

    /// The leaf-key column of dimension `dimension`.  No query reads it; a
    /// loaded fragment unpacks it on the first call.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is out of range.
    #[must_use]
    pub fn key_column(&self, dimension: usize) -> &[u64] {
        match &self.parts {
            Parts::Built { keys, .. } => &keys[dimension],
            Parts::Stored(stored) => stored.key_column(dimension),
        }
    }

    /// The value column of measure `measure`.
    #[must_use]
    pub fn measure_column(&self, measure: usize) -> &[f64] {
        &self.measures[measure]
    }

    /// The fragment-aligned bitmap join index of dimension `dimension`:
    /// a borrow of a built index, or a loaded fragment's index, decoded on
    /// first use.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] when a loaded fragment's index segment,
    /// though it passed its checksum, does not decode, and
    /// [`StorageError::Config`] when `dimension` is out of range.
    pub fn try_bitmap_index(&self, dimension: usize) -> Result<&MaterialisedIndex, StorageError> {
        let index = match &self.parts {
            Parts::Built { indices, .. } => indices.get(dimension).map(Ok),
            Parts::Stored(stored) => stored.bitmap_index(dimension),
        };
        index.unwrap_or_else(|| {
            Err(StorageError::Config(format!(
                "dimension {dimension} out of range: the fragment has {}",
                self.dimension_count()
            )))
        })
    }

    /// [`Self::try_bitmap_index`] for callers that hold a verified
    /// fragment.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is out of range, or if a loaded fragment's
    /// checksum-verified index segment fails to decode.
    #[must_use]
    pub fn bitmap_index(&self, dimension: usize) -> &MaterialisedIndex {
        self.try_bitmap_index(dimension)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Aggregate representation statistics over this fragment's indices.
    ///
    /// # Panics
    ///
    /// As [`Self::bitmap_index`].
    #[must_use]
    pub fn index_stats(&self) -> ReprStats {
        let mut stats = ReprStats::default();
        for dimension in 0..self.dimension_count() {
            stats.merge(self.bitmap_index(dimension).repr_stats());
        }
        stats
    }

    /// The loaded fragment's stored parts, if it is one.
    #[cfg(test)]
    pub(crate) fn stored_parts(&self) -> Option<&StoredParts> {
        match &self.parts {
            Parts::Built { .. } => None,
            Parts::Stored(stored) => Some(stored),
        }
    }
}

/// Equal fragments hold the same rows, columns and indices, however each
/// is held; comparing decodes a loaded fragment's key columns and indices.
/// A fragment with an index that fails to decode equals no fragment.
impl PartialEq for ColumnarFragment {
    fn eq(&self, other: &Self) -> bool {
        let dimensions = self.dimension_count();
        self.fragment_number == other.fragment_number
            && self.rows == other.rows
            && self.measures == other.measures
            && dimensions == other.dimension_count()
            && (0..dimensions).all(|d| {
                self.key_column(d) == other.key_column(d)
                    && matches!(
                        (self.try_bitmap_index(d), other.try_bitmap_index(d)),
                        (Ok(a), Ok(b)) if a == b
                    )
            })
    }
}

/// A fully materialised, MDHF-fragmented fact table with fragment-aligned
/// bitmap join indices — the physical input of [`crate::StarJoinEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentStore {
    schema: StarSchema,
    fragmentation: Fragmentation,
    catalog: IndexCatalog,
    policy: RepresentationPolicy,
    /// Dense, indexed by fragment number (empty fragments included).
    fragments: Vec<ColumnarFragment>,
    total_rows: usize,
}

impl FragmentStore {
    /// Fragment-count ceiling for materialisation: a dense fragment directory
    /// with per-fragment indices is only sensible for scaled-down warehouses.
    pub const MAX_FRAGMENTS: u64 = 1_000_000;

    /// Generates a fact table for `schema` from `seed` (the rows of
    /// [`MaterialisedFactTable::generate`]) and partitions it under
    /// `fragmentation`, with the default adaptive representation policy.
    ///
    /// # Panics
    ///
    /// Panics if the fragmentation yields more than [`Self::MAX_FRAGMENTS`]
    /// fragments or the schema is too large to materialise.
    #[must_use]
    pub fn build(schema: &StarSchema, fragmentation: &Fragmentation, seed: u64) -> Self {
        Self::build_with_policy(schema, fragmentation, seed, RepresentationPolicy::default())
    }

    /// [`FragmentStore::build`] with an explicit per-bitmap representation
    /// policy for every fragment's indices.  Equal to
    /// [`FragmentStore::from_table_with_policy`] over the generated table,
    /// without ever materialising that table.
    ///
    /// # Panics
    ///
    /// As [`FragmentStore::build`].
    #[must_use]
    pub fn build_with_policy(
        schema: &StarSchema,
        fragmentation: &Fragmentation,
        seed: u64,
        policy: RepresentationPolicy,
    ) -> Self {
        let mut sink = ColumnSink::new(schema, fragmentation).unwrap_or_else(|e| panic!("{e}"));
        MaterialisedFactTable::generate_each(schema, seed, |keys, measures| {
            sink.push(keys, measures);
        });
        sink.finish(policy)
    }

    /// Generates a **selectivity-skewed** fact table of exactly `rows` rows
    /// and partitions it under `fragmentation`: every dimension key is
    /// drawn from a [`workload::ZipfSampler`] with skew factor `theta` over
    /// the dimension's leaf cardinality, so hot values (key 0 first) own
    /// far more rows and fragment sizes differ wildly — the workload the
    /// skew-resilience experiments feed the simulated disk layer with.
    /// `theta = 0` draws keys uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite, or the fragmentation
    /// yields more than [`Self::MAX_FRAGMENTS`] fragments.
    #[must_use]
    pub fn build_skewed(
        schema: &StarSchema,
        fragmentation: &Fragmentation,
        seed: u64,
        theta: f64,
        rows: usize,
    ) -> Self {
        let mut sink = ColumnSink::new(schema, fragmentation).unwrap_or_else(|e| panic!("{e}"));
        let samplers: Vec<workload::ZipfSampler> = schema
            .dimensions()
            .iter()
            .map(|d| workload::ZipfSampler::new(d.cardinality(), theta))
            .collect();
        let dims = samplers.len() as u64;
        let mut keys = vec![0u64; samplers.len()];
        let mut measures = vec![0.0f64; schema.fact().measures().len().max(1)];
        for r in 0..rows as u64 {
            for ((d, sampler), key) in samplers.iter().enumerate().zip(&mut keys) {
                *key = sampler.sample_u64(mix64(seed, r * (dims + 1) + d as u64));
            }
            for (m, value) in measures.iter_mut().enumerate() {
                *value =
                    f64::from((mix64(seed ^ r, r * (dims + 1) + dims + m as u64) % 1_000) as u32)
                        + 1.0;
            }
            sink.push(&keys, &measures);
        }
        sink.finish(RepresentationPolicy::default())
    }

    /// Partitions an existing materialised table under `fragmentation` with
    /// the default adaptive representation policy.
    ///
    /// # Panics
    ///
    /// Panics if the fragmentation yields more than [`Self::MAX_FRAGMENTS`]
    /// fragments.
    #[must_use]
    pub fn from_table(
        schema: &StarSchema,
        fragmentation: &Fragmentation,
        table: &MaterialisedFactTable,
    ) -> Self {
        Self::from_table_with_policy(
            schema,
            fragmentation,
            table,
            RepresentationPolicy::default(),
        )
    }

    /// [`FragmentStore::from_table`] with an explicit representation policy.
    ///
    /// # Panics
    ///
    /// Panics if the fragmentation yields more than [`Self::MAX_FRAGMENTS`]
    /// fragments.  [`FragmentStore::try_from_table_with_policy`] is the
    /// fallible equivalent.
    #[must_use]
    pub fn from_table_with_policy(
        schema: &StarSchema,
        fragmentation: &Fragmentation,
        table: &MaterialisedFactTable,
        policy: RepresentationPolicy,
    ) -> Self {
        match Self::try_from_table_with_policy(schema, fragmentation, table, policy) {
            Ok(store) => store,
            Err(error) => panic!("{error}"),
        }
    }

    /// Fallible [`FragmentStore::from_table_with_policy`]: instead of
    /// panicking, over-fine fragmentations surface as
    /// [`StorageError::Config`].
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Config`] when the fragmentation yields more
    /// than [`Self::MAX_FRAGMENTS`] fragments.
    pub fn try_from_table_with_policy(
        schema: &StarSchema,
        fragmentation: &Fragmentation,
        table: &MaterialisedFactTable,
        policy: RepresentationPolicy,
    ) -> Result<Self, StorageError> {
        let mut sink = ColumnSink::new(schema, fragmentation)?;
        for row in table.rows() {
            sink.push(&row.keys, &row.measures);
        }
        Ok(sink.finish(policy))
    }

    /// Reassembles a store from decoded parts — the final step of opening an
    /// on-disk fragment file through [`crate::file::FileStore::materialise`].
    pub(crate) fn from_parts(
        schema: StarSchema,
        fragmentation: Fragmentation,
        catalog: IndexCatalog,
        policy: RepresentationPolicy,
        fragments: Vec<ColumnarFragment>,
        total_rows: usize,
    ) -> Self {
        FragmentStore {
            schema,
            fragmentation,
            catalog,
            policy,
            fragments,
            total_rows,
        }
    }

    /// The schema the store was built for.
    #[must_use]
    pub fn schema(&self) -> &StarSchema {
        &self.schema
    }

    /// The fragmentation the store is partitioned under.
    #[must_use]
    pub fn fragmentation(&self) -> &Fragmentation {
        &self.fragmentation
    }

    /// The logical index catalog the per-fragment indices follow.
    #[must_use]
    pub fn catalog(&self) -> &IndexCatalog {
        &self.catalog
    }

    /// Number of fragments (including empty ones).
    #[must_use]
    pub fn fragment_count(&self) -> u64 {
        self.fragments.len() as u64
    }

    /// The fragment with the given linear fragment number.
    ///
    /// # Panics
    ///
    /// Panics if `fragment_number` is out of range.
    #[must_use]
    pub fn fragment(&self, fragment_number: u64) -> &ColumnarFragment {
        &self.fragments[usize::try_from(fragment_number).expect("fragment number fits usize")]
    }

    /// All fragments in fragment-number order.
    #[must_use]
    pub fn fragments(&self) -> &[ColumnarFragment] {
        &self.fragments
    }

    /// Total number of materialised fact rows across all fragments.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Total fact rows a plan's fragments hold — the rows a full execution
    /// of that plan scans, used to cross-check scheduler accounting against
    /// the sum of per-query plans.
    #[must_use]
    pub fn planned_rows(&self, plan: &QueryPlan) -> u64 {
        plan.fragments()
            .iter()
            .map(|&f| self.fragment(f).len() as u64)
            .sum()
    }

    /// Number of measures per fact row.
    #[must_use]
    pub fn measure_count(&self) -> usize {
        self.schema.fact().measures().len()
    }

    /// The representation policy every fragment's indices were built with.
    #[must_use]
    pub fn policy(&self) -> RepresentationPolicy {
        self.policy
    }

    /// Aggregate representation statistics over every fragment's indices:
    /// how many bitmaps compressed, measured bytes vs. the verbatim
    /// baseline.
    #[must_use]
    pub fn index_stats(&self) -> ReprStats {
        let mut stats = ReprStats::default();
        for fragment in &self.fragments {
            stats.merge(fragment.index_stats());
        }
        stats
    }

    /// Measured physical size of all fragment-aligned indices, in bytes.
    #[must_use]
    pub fn index_size_bytes(&self) -> usize {
        self.index_stats().size_bytes
    }

    /// Measured compression ratio of the store's indices (verbatim bytes
    /// over stored bytes; 1.0 when nothing compressed).
    #[must_use]
    pub fn measured_compression_ratio(&self) -> f64 {
        self.index_stats().compression_ratio()
    }

    /// The *logical* (full-scale) bitmap-fragment sizing this fragmentation
    /// would have under the schema's page sizing — the quantity the
    /// thresholds of §4.4 constrain.
    #[must_use]
    pub fn logical_bitmap_sizing(&self) -> BitmapFragmentation {
        BitmapFragmentation::new(&PageSizing::new(&self.schema), self.fragment_count())
    }

    /// The logical sizing with the store's *measured* compression ratio
    /// applied, so analytic page counts reflect what the chosen
    /// representations actually occupy.
    #[must_use]
    pub fn measured_bitmap_sizing(&self) -> BitmapFragmentation {
        self.logical_bitmap_sizing()
            .with_compression_ratio(self.measured_compression_ratio())
    }
}

/// The columns of one fragment while its rows arrive.
#[derive(Clone)]
struct FragmentColumns {
    rows: usize,
    keys: Vec<Vec<u64>>,
    measures: Vec<Vec<f64>>,
}

/// The one build path of a [`FragmentStore`]: rows are appended, in
/// arrival order, to the columns of the fragment they fall into; then each
/// fragment's indices are built from its key columns.  Nothing is kept per
/// row but the column values themselves.
struct ColumnSink<'a> {
    schema: &'a StarSchema,
    fragmentation: &'a Fragmentation,
    /// Dense, indexed by fragment number.
    fragments: Vec<FragmentColumns>,
    rows: usize,
}

impl<'a> ColumnSink<'a> {
    /// Empty columns for every fragment of `fragmentation`, after checking
    /// the fragment count against [`FragmentStore::MAX_FRAGMENTS`].
    fn new(schema: &'a StarSchema, fragmentation: &'a Fragmentation) -> Result<Self, StorageError> {
        let fragment_count = fragmentation.fragment_count();
        if fragment_count > FragmentStore::MAX_FRAGMENTS {
            return Err(StorageError::Config(format!(
                "refusing to materialise {fragment_count} fragments; use a coarser fragmentation"
            )));
        }
        let empty = FragmentColumns {
            rows: 0,
            keys: vec![Vec::new(); schema.dimension_count()],
            measures: vec![Vec::new(); schema.fact().measures().len()],
        };
        Ok(ColumnSink {
            schema,
            fragmentation,
            fragments: vec![empty; fragment_count as usize],
            rows: 0,
        })
    }

    /// Appends one row — a leaf key per dimension and its measure values —
    /// to its fragment.  Measure values beyond the schema's measures are
    /// ignored.
    fn push(&mut self, keys: &[u64], measures: &[f64]) {
        let number = self.fragmentation.fragment_of_row(self.schema, keys);
        let columns = &mut self.fragments[number as usize];
        for (column, &key) in columns.keys.iter_mut().zip(keys) {
            column.push(key);
        }
        for (column, &value) in columns.measures.iter_mut().zip(measures) {
            column.push(value);
        }
        columns.rows += 1;
        self.rows += 1;
    }

    /// Builds every fragment's indices from its key columns under `policy`
    /// and assembles the store.
    fn finish(self, policy: RepresentationPolicy) -> FragmentStore {
        let schema = self.schema;
        let catalog = IndexCatalog::default_for(schema);
        let fragments = self
            .fragments
            .into_iter()
            .enumerate()
            .map(|(number, mut columns)| {
                columns.keys.iter_mut().for_each(Vec::shrink_to_fit);
                columns.measures.iter_mut().for_each(Vec::shrink_to_fit);
                let indices = columns
                    .keys
                    .iter()
                    .enumerate()
                    .map(|(d, keys)| {
                        MaterialisedIndex::build_from_column(schema, &catalog, keys, d, policy)
                    })
                    .collect();
                ColumnarFragment::built(
                    number as u64,
                    columns.rows,
                    columns.keys,
                    columns.measures,
                    indices,
                )
            })
            .collect();
        FragmentStore {
            schema: schema.clone(),
            fragmentation: self.fragmentation.clone(),
            catalog,
            policy,
            fragments,
            total_rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_scaled_down;

    fn store() -> FragmentStore {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        FragmentStore::build(&schema, &fragmentation, 2024)
    }

    #[test]
    fn partitioning_conserves_rows_and_matches_fragment_of_row() {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let table = MaterialisedFactTable::generate(&schema, 2024);
        let store = FragmentStore::from_table(&schema, &fragmentation, &table);

        assert_eq!(store.fragment_count(), fragmentation.fragment_count());
        assert_eq!(store.total_rows(), table.len());
        let sum: usize = store.fragments().iter().map(ColumnarFragment::len).sum();
        assert_eq!(sum, table.len());

        // Every row of every fragment maps back to that fragment.
        for fragment in store.fragments() {
            for row in 0..fragment.len() {
                let keys: Vec<u64> = (0..schema.dimension_count())
                    .map(|d| fragment.key_column(d)[row])
                    .collect();
                assert_eq!(
                    fragmentation.fragment_of_row(&schema, &keys),
                    fragment.fragment_number()
                );
            }
        }
    }

    #[test]
    fn fragment_indices_agree_with_key_columns() {
        let store = store();
        let schema = store.schema().clone();
        let product = schema.dimension_index("product").unwrap();
        let group = schema.attr("product", "group").unwrap();
        let hierarchy = schema.dimensions()[product].hierarchy().clone();
        for fragment in store.fragments().iter().take(40) {
            for value in 0..hierarchy.cardinality(group.level).min(3) {
                let from_index: Vec<usize> = fragment
                    .bitmap_index(product)
                    .select(group.level, value)
                    .iter_ones()
                    .collect();
                let range = hierarchy.leaf_range_of(group.level, value);
                let from_column: Vec<usize> = fragment
                    .key_column(product)
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| range.contains(k))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(from_index, from_column);
            }
        }
    }

    #[test]
    fn columnar_layout_has_expected_shape() {
        let store = store();
        assert_eq!(store.measure_count(), 3);
        let fragment = store
            .fragments()
            .iter()
            .find(|f| !f.is_empty())
            .expect("some fragment holds rows");
        assert_eq!(fragment.key_column(0).len(), fragment.len());
        assert_eq!(fragment.measure_column(2).len(), fragment.len());
        assert!(fragment.measure_column(0).iter().all(|&m| m >= 1.0));
        assert_eq!(
            store.fragment(fragment.fragment_number()).len(),
            fragment.len()
        );
    }

    #[test]
    fn logical_sizing_reuses_bitmap_fragment_arithmetic() {
        let store = store();
        let sizing = store.logical_bitmap_sizing();
        assert_eq!(sizing.fragments(), store.fragment_count());
        assert!(sizing.bits_per_fragment() > 0.0);
    }

    #[test]
    fn representation_policies_yield_identical_selections_and_stats() {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let table = MaterialisedFactTable::generate(&schema, 2024);
        let plain = FragmentStore::from_table_with_policy(
            &schema,
            &fragmentation,
            &table,
            bitmap::RepresentationPolicy::Plain,
        );
        let adaptive = FragmentStore::from_table(&schema, &fragmentation, &table);
        assert_eq!(adaptive.policy(), bitmap::RepresentationPolicy::default());

        // The plain store measures exactly the verbatim baseline; the
        // adaptive store never exceeds it.
        let plain_stats = plain.index_stats();
        let adaptive_stats = adaptive.index_stats();
        assert_eq!(plain_stats.size_bytes, plain_stats.plain_size_bytes);
        assert_eq!(plain_stats.compressed, 0);
        assert_eq!(adaptive_stats.bitmaps, plain_stats.bitmaps);
        assert!(adaptive_stats.size_bytes <= plain_stats.size_bytes);
        assert!(adaptive.measured_compression_ratio() >= 1.0);

        // Selections agree bitmap-for-bitmap on a sample of fragments.
        let product = schema.dimension_index("product").unwrap();
        let group = schema.attr("product", "group").unwrap();
        for number in 0..plain.fragment_count().min(10) {
            let a = plain.fragment(number).bitmap_index(product);
            let b = adaptive.fragment(number).bitmap_index(product);
            assert_eq!(a.select(group.level, 1), b.select(group.level, 1));
        }

        // Measured sizing plumbs the ratio into the page arithmetic.
        let measured = adaptive.measured_bitmap_sizing();
        assert_eq!(
            measured.compression_ratio(),
            adaptive.measured_compression_ratio()
        );
        assert!(
            measured.bytes_per_fragment() <= adaptive.logical_bitmap_sizing().bytes_per_fragment()
        );
    }

    #[test]
    fn skewed_stores_concentrate_rows_on_hot_fragments() {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let rows = 60_000;
        let uniform = FragmentStore::build_skewed(&schema, &fragmentation, 7, 0.0, rows);
        let skewed = FragmentStore::build_skewed(&schema, &fragmentation, 7, 1.0, rows);
        assert_eq!(uniform.total_rows(), rows);
        assert_eq!(skewed.total_rows(), rows);

        let largest = |store: &FragmentStore| {
            store
                .fragments()
                .iter()
                .map(ColumnarFragment::len)
                .max()
                .unwrap()
        };
        let mean = rows / uniform.fragment_count() as usize;
        // Uniform keys stay near the mean; Zipf keys pile onto the hot
        // (month 0, group 0) fragment.
        assert!(largest(&uniform) < 3 * mean, "{}", largest(&uniform));
        assert!(largest(&skewed) > 10 * mean, "{}", largest(&skewed));
        // The hot fragment is the one holding the hottest values.
        let hot = skewed
            .fragments()
            .iter()
            .max_by_key(|f| f.len())
            .unwrap()
            .fragment_number();
        assert_eq!(skewed.fragmentation().coordinates(hot).0, vec![0, 0]);

        // Deterministic for a fixed seed.
        let again = FragmentStore::build_skewed(&schema, &fragmentation, 7, 1.0, rows);
        assert_eq!(largest(&again), largest(&skewed));
    }

    #[test]
    #[should_panic(expected = "refusing to materialise")]
    fn too_fine_fragmentations_rejected() {
        let schema = schema::apb1::apb1_schema();
        let fragmentation = Fragmentation::parse(
            &schema,
            &["time::month", "product::code", "customer::store"],
        )
        .unwrap();
        let table = MaterialisedFactTable::from_rows(vec![], vec![14_400, 1_440, 15, 24]);
        let _ = FragmentStore::from_table(&schema, &fragmentation, &table);
    }

    #[test]
    #[should_panic(expected = "refusing to materialise 497664000 fragments")]
    fn too_fine_fragmentations_rejected_before_generating() {
        // The full-size schema is also too large to generate; the fragment
        // count is checked first, before anything is allocated.
        let schema = schema::apb1::apb1_schema();
        let fragmentation = Fragmentation::parse(
            &schema,
            &["time::month", "product::code", "customer::store"],
        )
        .unwrap();
        let _ = FragmentStore::build(&schema, &fragmentation, 1);
    }

    #[test]
    fn build_equals_from_table_of_the_generated_table() {
        let schema = apb1_scaled_down();
        let seed = 2024;
        let table = MaterialisedFactTable::generate(&schema, seed);
        for (levels, has_empty_fragments) in [
            (&["time::month", "product::group"][..], false),
            // 4 800 fragments of 36 combinations each: many stay empty.
            (&["product::code", "customer::store"][..], true),
        ] {
            let fragmentation = Fragmentation::parse(&schema, levels).unwrap();
            for policy in [
                RepresentationPolicy::Plain,
                RepresentationPolicy::Wah,
                RepresentationPolicy::Roaring,
                RepresentationPolicy::default(),
            ] {
                let built = FragmentStore::build_with_policy(&schema, &fragmentation, seed, policy);
                let reference =
                    FragmentStore::from_table_with_policy(&schema, &fragmentation, &table, policy);
                assert!(built == reference, "{levels:?} under {policy:?}");
                assert_eq!(
                    built.fragments().iter().any(ColumnarFragment::is_empty),
                    has_empty_fragments
                );
            }
        }
    }

    #[test]
    fn fragments_differing_in_one_key_or_index_differ() {
        let store = store();
        let fragment = store.fragments().iter().find(|f| f.len() > 1).unwrap();
        assert_eq!(fragment.clone(), *fragment);
        let mut other_key = fragment.clone();
        let mut other_index = fragment.clone();
        let neighbour = store.fragment(fragment.fragment_number() + 1);
        match (
            &mut other_key.parts,
            &mut other_index.parts,
            &neighbour.parts,
        ) {
            (
                Parts::Built { keys, .. },
                Parts::Built { indices, .. },
                Parts::Built {
                    indices: theirs, ..
                },
            ) => {
                keys[0][0] += 1;
                indices[1] = theirs[1].clone();
            }
            _ => unreachable!("a built store holds built fragments"),
        }
        assert_ne!(other_key, *fragment);
        assert_ne!(other_index, *fragment);
        assert!(matches!(
            fragment.try_bitmap_index(store.schema().dimension_count()),
            Err(StorageError::Config(_))
        ));
    }

    #[test]
    fn build_skewed_equals_a_row_major_reference() {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let (seed, theta, rows) = (11, 0.8, 5_000u64);
        // The skewed generator written out row by row.
        let samplers: Vec<workload::ZipfSampler> = schema
            .dimensions()
            .iter()
            .map(|d| workload::ZipfSampler::new(d.cardinality(), theta))
            .collect();
        let dims = samplers.len() as u64;
        let fact_rows = (0..rows)
            .map(|r| bitmap::FactRow {
                keys: samplers
                    .iter()
                    .enumerate()
                    .map(|(d, s)| s.sample_u64(mix64(seed, r * (dims + 1) + d as u64)))
                    .collect(),
                measures: (0..3)
                    .map(|m| {
                        f64::from((mix64(seed ^ r, r * (dims + 1) + dims + m) % 1_000) as u32) + 1.0
                    })
                    .collect(),
            })
            .collect();
        let cards = schema
            .dimensions()
            .iter()
            .map(schema::Dimension::cardinality)
            .collect();
        let table = MaterialisedFactTable::from_rows(fact_rows, cards);
        let reference = FragmentStore::from_table(&schema, &fragmentation, &table);
        let skewed = FragmentStore::build_skewed(&schema, &fragmentation, seed, theta, 5_000);
        assert!(skewed == reference);
    }
}
