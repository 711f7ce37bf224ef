//! Multi-dimensional hierarchical (point) fragmentation of the fact table.
//!
//! A fragmentation `F = {dim₁::level₁, …, dimₘ::levelₘ}` picks at most one
//! hierarchy level per dimension.  With *point* fragmentation every value of
//! every fragmentation attribute forms its own value range, so the number of
//! fragments is simply the product of the fragmentation attributes'
//! cardinalities (§4.1).  Fragments are identified either by their
//! *coordinates* (one attribute value per fragmentation attribute) or by a
//! linear *fragment number* obtained by mixed-radix ranking of the
//! coordinates in the declaration order of the fragmentation attributes —
//! the same "allocation order" the paper uses when placing fragments on disks
//! (first all fragments of month 1, then month 2, …).

use std::fmt;

use schema::{AttrRef, LevelRef, StarSchema};

/// Errors raised when constructing a [`Fragmentation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentationError {
    /// Two fragmentation attributes refer to the same dimension.
    DuplicateDimension(usize),
    /// The fragmentation has no attributes.
    Empty,
    /// A textual attribute could not be resolved against the schema.
    Unresolved(String),
}

impl fmt::Display for FragmentationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FragmentationError::DuplicateDimension(d) => {
                write!(f, "dimension {d} appears twice in the fragmentation")
            }
            FragmentationError::Empty => write!(f, "a fragmentation needs at least one attribute"),
            FragmentationError::Unresolved(s) => write!(f, "cannot resolve attribute {s:?}"),
        }
    }
}

impl std::error::Error for FragmentationError {}

/// The coordinates of one fact fragment: one attribute value per
/// fragmentation attribute, in the fragmentation's declaration order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FragmentCoordinates(pub Vec<u64>);

/// An m-dimensional point fragmentation of the fact table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragmentation {
    attrs: Vec<AttrRef>,
    cardinalities: Vec<u64>,
}

impl Fragmentation {
    /// Builds a fragmentation from resolved attribute references.
    ///
    /// The order of `attrs` defines the allocation order: the *last* attribute
    /// varies fastest in the linear fragment numbering, matching Figure 2
    /// where `F_MonthGroup` places all `G` group-fragments of month 1 before
    /// those of month 2.
    pub fn new(schema: &StarSchema, attrs: Vec<AttrRef>) -> Result<Self, FragmentationError> {
        if attrs.is_empty() {
            return Err(FragmentationError::Empty);
        }
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.dimension == a.dimension) {
                return Err(FragmentationError::DuplicateDimension(a.dimension));
            }
        }
        let cardinalities = attrs.iter().map(|a| a.cardinality(schema)).collect();
        Ok(Fragmentation {
            attrs,
            cardinalities,
        })
    }

    /// Builds a fragmentation from `dimension::level` strings, e.g.
    /// `["time::month", "product::group"]`.
    pub fn parse(schema: &StarSchema, specs: &[&str]) -> Result<Self, FragmentationError> {
        let mut attrs = Vec::with_capacity(specs.len());
        for s in specs {
            let level_ref: LevelRef = s
                .parse()
                .map_err(|_| FragmentationError::Unresolved((*s).to_string()))?;
            let attr = level_ref
                .resolve(schema)
                .map_err(|_| FragmentationError::Unresolved((*s).to_string()))?;
            attrs.push(attr);
        }
        Self::new(schema, attrs)
    }

    /// The fragmentation attributes in declaration (allocation) order.
    #[must_use]
    pub fn attrs(&self) -> &[AttrRef] {
        &self.attrs
    }

    /// Number of fragmentation dimensions (the paper's `m`).
    #[must_use]
    pub fn dimensionality(&self) -> usize {
        self.attrs.len()
    }

    /// The cardinality of each fragmentation attribute, in declaration order.
    #[must_use]
    pub fn attr_cardinalities(&self) -> &[u64] {
        &self.cardinalities
    }

    /// Total number of fact fragments: the product of the fragmentation
    /// attributes' cardinalities.
    #[must_use]
    pub fn fragment_count(&self) -> u64 {
        self.cardinalities
            .iter()
            .try_fold(1u64, |acc, &c| acc.checked_mul(c))
            .expect("fragment count overflows u64")
    }

    /// Returns the fragmentation attribute covering `dimension`, if any.
    #[must_use]
    pub fn attr_for_dimension(&self, dimension: usize) -> Option<AttrRef> {
        self.attrs
            .iter()
            .copied()
            .find(|a| a.dimension == dimension)
    }

    /// True if `dimension` is a fragmentation dimension.
    #[must_use]
    pub fn covers_dimension(&self, dimension: usize) -> bool {
        self.attr_for_dimension(dimension).is_some()
    }

    /// Converts fragment coordinates into the linear fragment number
    /// (mixed-radix ranking, last attribute fastest).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates have the wrong arity or a value exceeds its
    /// attribute's cardinality.
    #[must_use]
    pub fn fragment_number(&self, coords: &FragmentCoordinates) -> u64 {
        assert_eq!(
            coords.0.len(),
            self.attrs.len(),
            "coordinate arity mismatch"
        );
        let mut number = 0u64;
        for (value, &card) in coords.0.iter().zip(&self.cardinalities) {
            assert!(*value < card, "coordinate {value} out of range (< {card})");
            number = number * card + value;
        }
        number
    }

    /// Converts a linear fragment number back into coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the number is out of range.
    #[must_use]
    pub fn coordinates(&self, fragment_number: u64) -> FragmentCoordinates {
        assert!(
            fragment_number < self.fragment_count(),
            "fragment number {fragment_number} out of range"
        );
        let mut values = vec![0u64; self.attrs.len()];
        let mut rest = fragment_number;
        for i in (0..self.attrs.len()).rev() {
            values[i] = rest % self.cardinalities[i];
            rest /= self.cardinalities[i];
        }
        FragmentCoordinates(values)
    }

    /// The fragment a fact row belongs to, given the row's leaf-level keys
    /// (one per schema dimension, in schema dimension order).
    #[must_use]
    pub fn fragment_of_row(&self, schema: &StarSchema, leaf_keys: &[u64]) -> u64 {
        assert_eq!(
            leaf_keys.len(),
            schema.dimension_count(),
            "one leaf key per dimension required"
        );
        // `fragment_number` of the ancestor coordinates, folded without
        // materialising them.
        self.attrs
            .iter()
            .zip(&self.cardinalities)
            .fold(0, |number, (a, &card)| {
                let hierarchy = schema.dimensions()[a.dimension].hierarchy();
                let value = hierarchy.ancestor_of_leaf(leaf_keys[a.dimension], a.level);
                assert!(value < card, "coordinate {value} out of range (< {card})");
                number * card + value
            })
    }

    /// Average number of fact rows per fragment (uniform-distribution
    /// assumption of the paper).
    #[must_use]
    pub fn rows_per_fragment(&self, schema: &StarSchema) -> f64 {
        schema.fact_row_count() as f64 / self.fragment_count() as f64
    }

    /// Human-readable rendering, e.g. `{time::month, product::group}`.
    #[must_use]
    pub fn describe(&self, schema: &StarSchema) -> String {
        let parts: Vec<String> = self.attrs.iter().map(|a| a.display(schema)).collect();
        format!("{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::{apb1_scaled_down, apb1_schema};

    fn month_group(schema: &StarSchema) -> Fragmentation {
        Fragmentation::parse(schema, &["time::month", "product::group"]).unwrap()
    }

    #[test]
    fn fragment_counts_match_paper() {
        let s = apb1_schema();
        // F_MonthGroup: 24 × 480 = 11 520 fragments (§4.1).
        assert_eq!(month_group(&s).fragment_count(), 11_520);
        // F_MonthClass and F_MonthCode from Table 6.
        let mc = Fragmentation::parse(&s, &["time::month", "product::class"]).unwrap();
        assert_eq!(mc.fragment_count(), 23_040);
        let mcode = Fragmentation::parse(&s, &["time::month", "product::code"]).unwrap();
        assert_eq!(mcode.fragment_count(), 345_600);
        // The finest possible fragmentation has more fragments than fact rows
        // (§4.4: ~7.5 billion).
        let finest = Fragmentation::parse(
            &s,
            &[
                "time::month",
                "product::code",
                "customer::store",
                "channel::channel",
            ],
        )
        .unwrap();
        assert_eq!(finest.fragment_count(), 7_464_960_000);
        assert!(finest.fragment_count() > s.fact_row_count());
        // The four-dimensional quarter/group/retailer/channel variant: ~9 M.
        let coarse4 = Fragmentation::parse(
            &s,
            &[
                "time::quarter",
                "product::group",
                "customer::retailer",
                "channel::channel",
            ],
        )
        .unwrap();
        assert_eq!(coarse4.fragment_count(), 8 * 480 * 144 * 15);
    }

    #[test]
    fn allocation_order_matches_figure_2() {
        // Figure 2: for F_MonthGroup the G fragments of month 1 come first,
        // then the G fragments of month 2, etc.
        let s = apb1_schema();
        let f = month_group(&s);
        assert_eq!(f.fragment_number(&FragmentCoordinates(vec![0, 0])), 0);
        assert_eq!(f.fragment_number(&FragmentCoordinates(vec![0, 479])), 479);
        assert_eq!(f.fragment_number(&FragmentCoordinates(vec![1, 0])), 480);
        assert_eq!(
            f.fragment_number(&FragmentCoordinates(vec![23, 479])),
            11_519
        );
    }

    #[test]
    fn coordinates_roundtrip() {
        let s = apb1_schema();
        let f = month_group(&s);
        for number in [0u64, 1, 479, 480, 5_000, 11_519] {
            let coords = f.coordinates(number);
            assert_eq!(f.fragment_number(&coords), number);
        }
    }

    #[test]
    fn fragment_of_row_uses_hierarchy_ancestors() {
        let s = apb1_schema();
        let f = month_group(&s);
        // Dimension order in the APB-1 schema: product, customer, channel, time.
        // A row with product code 35 (group 1) in month 2 maps to fragment
        // month*480 + group = 2*480 + 1.
        let keys = vec![35u64, 0, 0, 2];
        assert_eq!(f.fragment_of_row(&s, &keys), 2 * 480 + 1);
        // Product code 0 (group 0), month 0 → fragment 0.
        assert_eq!(f.fragment_of_row(&s, &[0, 10, 3, 0]), 0);
    }

    #[test]
    fn rows_per_fragment_for_month_group() {
        let s = apb1_schema();
        let f = month_group(&s);
        // 1 866 240 000 / 11 520 = 162 000 rows per fragment.
        assert!((f.rows_per_fragment(&s) - 162_000.0).abs() < 1e-6);
    }

    #[test]
    fn accessors_and_description() {
        let s = apb1_schema();
        let f = month_group(&s);
        assert_eq!(f.dimensionality(), 2);
        assert_eq!(f.attr_cardinalities(), &[24, 480]);
        assert_eq!(f.describe(&s), "{time::month, product::group}");
        let time = s.dimension_index("time").unwrap();
        let product = s.dimension_index("product").unwrap();
        let customer = s.dimension_index("customer").unwrap();
        assert!(f.covers_dimension(time));
        assert!(f.covers_dimension(product));
        assert!(!f.covers_dimension(customer));
        assert_eq!(
            f.attr_for_dimension(product),
            Some(s.attr("product", "group").unwrap())
        );
        assert_eq!(f.attr_for_dimension(customer), None);
    }

    #[test]
    fn construction_errors() {
        let s = apb1_schema();
        assert_eq!(
            Fragmentation::parse(&s, &[]).unwrap_err(),
            FragmentationError::Empty
        );
        let product = s.dimension_index("product").unwrap();
        assert_eq!(
            Fragmentation::parse(&s, &["product::group", "product::code"]).unwrap_err(),
            FragmentationError::DuplicateDimension(product)
        );
        assert!(matches!(
            Fragmentation::parse(&s, &["product::week"]).unwrap_err(),
            FragmentationError::Unresolved(_)
        ));
        assert!(matches!(
            Fragmentation::parse(&s, &["nonsense"]).unwrap_err(),
            FragmentationError::Unresolved(_)
        ));
        // Errors render usefully.
        assert!(!FragmentationError::Empty.to_string().is_empty());
    }

    #[test]
    fn works_on_scaled_schema() {
        let s = apb1_scaled_down();
        let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
        assert_eq!(
            f.fragment_count(),
            12 * s.attr("product", "group").unwrap().cardinality(&s)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_fragment_number_panics() {
        let s = apb1_schema();
        let f = month_group(&s);
        let _ = f.coordinates(f.fragment_count());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let s = apb1_schema();
        let f = month_group(&s);
        let _ = f.fragment_number(&FragmentCoordinates(vec![1]));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use schema::apb1::apb1_scaled_down;

    proptest! {
        /// Fragment numbering is a bijection between coordinates and
        /// 0..fragment_count.
        #[test]
        fn prop_numbering_roundtrip(seed in 0u64..1_000_000) {
            let s = apb1_scaled_down();
            let f = Fragmentation::parse(&s, &["time::quarter", "product::group", "channel::channel"]).unwrap();
            let number = seed % f.fragment_count();
            let coords = f.coordinates(number);
            prop_assert_eq!(f.fragment_number(&coords), number);
        }

        /// Every fact row maps into a valid fragment, and rows agreeing on all
        /// fragmentation-attribute ancestors map to the same fragment.
        #[test]
        fn prop_row_mapping_total(
            product in 0u64..120,
            store in 0u64..40,
            chan in 0u64..3,
            month in 0u64..12,
        ) {
            let s = apb1_scaled_down();
            let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
            let keys = vec![product, store, chan, month];
            let frag = f.fragment_of_row(&s, &keys);
            prop_assert!(frag < f.fragment_count());
            // It is the fragment number of the keys' ancestor coordinates.
            let three = Fragmentation::parse(
                &s,
                &["customer::retailer", "channel::channel", "time::quarter"],
            )
            .unwrap();
            for fragmentation in [&f, &three] {
                let coordinates = FragmentCoordinates(
                    fragmentation
                        .attrs()
                        .iter()
                        .map(|a| {
                            s.dimensions()[a.dimension]
                                .hierarchy()
                                .ancestor_of_leaf(keys[a.dimension], a.level)
                        })
                        .collect(),
                );
                prop_assert_eq!(
                    fragmentation.fragment_of_row(&s, &keys),
                    fragmentation.fragment_number(&coordinates)
                );
            }
            // Changing only non-fragmentation dimensions keeps the fragment.
            let other_keys = vec![product, (store + 1) % 40, (chan + 1) % 3, month];
            prop_assert_eq!(f.fragment_of_row(&s, &other_keys), frag);
        }
    }
}
