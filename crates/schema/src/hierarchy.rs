//! Dimension hierarchies.
//!
//! A hierarchy is an ordered list of levels from the *coarsest* (index 0,
//! "highest" in the paper's terminology, e.g. `Division` or `Year`) to the
//! *finest* (last index, "lowest", e.g. `Code` or `Month`).  Each level stores
//! its fan-out: the number of child elements per parent element.  The total
//! cardinality of a level is the product of the fan-outs from the top of the
//! hierarchy down to that level — exactly the structure of Table 1 in the
//! paper.

/// One level of a dimension hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyLevel {
    name: String,
    /// Number of elements of this level per element of the parent level.
    /// For the top level this is the total number of elements.
    fanout: u64,
}

impl HierarchyLevel {
    /// Creates a level with the given name and fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero — every parent must have at least one child.
    #[must_use]
    pub fn new(name: impl Into<String>, fanout: u64) -> Self {
        assert!(fanout > 0, "hierarchy level fan-out must be positive");
        HierarchyLevel {
            name: name.into(),
            fanout,
        }
    }

    /// The level's name (e.g. `"group"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Elements of this level per parent element.
    #[must_use]
    pub fn fanout(&self) -> u64 {
        self.fanout
    }
}

/// A dimension hierarchy, ordered from coarsest (index 0) to finest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    levels: Vec<HierarchyLevel>,
}

impl Hierarchy {
    /// Builds a hierarchy from levels ordered coarsest-first.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    #[must_use]
    pub fn new(levels: Vec<HierarchyLevel>) -> Self {
        assert!(!levels.is_empty(), "a hierarchy needs at least one level");
        Hierarchy { levels }
    }

    /// Convenience constructor from `(name, fanout)` pairs, coarsest-first.
    #[must_use]
    pub fn from_fanouts(levels: &[(&str, u64)]) -> Self {
        Hierarchy::new(
            levels
                .iter()
                .map(|(n, f)| HierarchyLevel::new(*n, *f))
                .collect(),
        )
    }

    /// Number of levels.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The levels, coarsest-first.
    #[must_use]
    pub fn levels(&self) -> &[HierarchyLevel] {
        &self.levels
    }

    /// The level at `index` (0 = coarsest).
    #[must_use]
    pub fn level(&self, index: usize) -> Option<&HierarchyLevel> {
        self.levels.get(index)
    }

    /// Index of the level with the given (case-insensitive) name.
    #[must_use]
    pub fn level_index(&self, name: &str) -> Option<usize> {
        self.levels
            .iter()
            .position(|l| l.name.eq_ignore_ascii_case(name))
    }

    /// Index of the finest (lowest) level.
    #[must_use]
    pub fn finest_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// Total number of elements at level `index`: the product of fan-outs of
    /// all levels from the top down to and including `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn cardinality(&self, index: usize) -> u64 {
        assert!(index < self.levels.len(), "level index out of range");
        self.levels[..=index]
            .iter()
            .map(HierarchyLevel::fanout)
            .product()
    }

    /// Cardinality of the finest level (e.g. 14 400 product codes).
    #[must_use]
    pub fn leaf_cardinality(&self) -> u64 {
        self.cardinality(self.finest_level())
    }

    /// Number of elements of level `fine` contained in one element of level
    /// `coarse` (the product of fan-outs strictly between them).
    ///
    /// Returns 1 when `fine == coarse`.
    ///
    /// # Panics
    ///
    /// Panics if `coarse` is not at or above `fine`, or either is out of range.
    #[must_use]
    pub fn elements_per_ancestor(&self, fine: usize, coarse: usize) -> u64 {
        assert!(fine < self.levels.len() && coarse < self.levels.len());
        assert!(
            coarse <= fine,
            "coarse level ({coarse}) must be at or above fine level ({fine})"
        );
        self.levels[coarse + 1..=fine]
            .iter()
            .map(HierarchyLevel::fanout)
            .product()
    }

    /// Maps a leaf element identifier to its ancestor identifier at `level`.
    ///
    /// Leaf elements are numbered `0..leaf_cardinality()`, grouped by their
    /// ancestors in hierarchy order; ancestors are numbered analogously.
    #[must_use]
    pub fn ancestor_of_leaf(&self, leaf: u64, level: usize) -> u64 {
        assert!(leaf < self.leaf_cardinality(), "leaf id out of range");
        let per = self.elements_per_ancestor(self.finest_level(), level);
        leaf / per
    }

    /// The (inclusive) range of leaf identifiers covered by element `value`
    /// at `level`.
    #[must_use]
    pub fn leaf_range_of(&self, level: usize, value: u64) -> std::ops::Range<u64> {
        assert!(value < self.cardinality(level), "value out of range");
        let per = self.elements_per_ancestor(self.finest_level(), level);
        (value * per)..((value + 1) * per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PRODUCT hierarchy of Table 1 in the paper.
    fn product_hierarchy() -> Hierarchy {
        Hierarchy::from_fanouts(&[
            ("division", 8),
            ("line", 3),
            ("family", 5),
            ("group", 4),
            ("class", 2),
            ("code", 15),
        ])
    }

    #[test]
    fn cardinalities_match_table_1() {
        let h = product_hierarchy();
        assert_eq!(h.depth(), 6);
        assert_eq!(h.cardinality(0), 8); // divisions
        assert_eq!(h.cardinality(1), 24); // lines
        assert_eq!(h.cardinality(2), 120); // families
        assert_eq!(h.cardinality(3), 480); // groups
        assert_eq!(h.cardinality(4), 960); // classes
        assert_eq!(h.cardinality(5), 14_400); // codes
        assert_eq!(h.leaf_cardinality(), 14_400);
    }

    #[test]
    fn level_lookup_by_name_is_case_insensitive() {
        let h = product_hierarchy();
        assert_eq!(h.level_index("group"), Some(3));
        assert_eq!(h.level_index("GROUP"), Some(3));
        assert_eq!(h.level_index("bogus"), None);
        assert_eq!(h.level(3).unwrap().name(), "group");
        assert_eq!(h.level(99), None);
    }

    #[test]
    fn elements_per_ancestor() {
        let h = product_hierarchy();
        // 30 codes per group (15 codes/class * 2 classes/group).
        assert_eq!(h.elements_per_ancestor(5, 3), 30);
        // 1800 codes per division.
        assert_eq!(h.elements_per_ancestor(5, 0), 1_800);
        // Same level => 1.
        assert_eq!(h.elements_per_ancestor(3, 3), 1);
    }

    #[test]
    fn ancestor_of_leaf_and_ranges_are_consistent() {
        let h = product_hierarchy();
        // Code 0..29 belong to group 0, code 30..59 to group 1, etc.
        assert_eq!(h.ancestor_of_leaf(0, 3), 0);
        assert_eq!(h.ancestor_of_leaf(29, 3), 0);
        assert_eq!(h.ancestor_of_leaf(30, 3), 1);
        assert_eq!(h.ancestor_of_leaf(14_399, 3), 479);
        assert_eq!(h.leaf_range_of(3, 1), 30..60);
        assert_eq!(h.leaf_range_of(0, 7), 12_600..14_400);
    }

    #[test]
    fn single_level_hierarchy() {
        let h = Hierarchy::from_fanouts(&[("channel", 15)]);
        assert_eq!(h.depth(), 1);
        assert_eq!(h.leaf_cardinality(), 15);
        assert_eq!(h.elements_per_ancestor(0, 0), 1);
        assert_eq!(h.ancestor_of_leaf(14, 0), 14);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_hierarchy_rejected() {
        let _ = Hierarchy::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "fan-out must be positive")]
    fn zero_fanout_rejected() {
        let _ = HierarchyLevel::new("x", 0);
    }

    #[test]
    #[should_panic(expected = "must be at or above")]
    fn inverted_ancestor_query_rejected() {
        let h = product_hierarchy();
        let _ = h.elements_per_ancestor(0, 5);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
        proptest::collection::vec(1u64..20, 1..6).prop_map(|fanouts| {
            Hierarchy::new(
                fanouts
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| HierarchyLevel::new(format!("l{i}"), f))
                    .collect(),
            )
        })
    }

    proptest! {
        /// Every leaf maps to exactly one ancestor, and that ancestor's leaf
        /// range contains the leaf.
        #[test]
        fn prop_ancestor_range_roundtrip(h in arb_hierarchy(), leaf_seed in 0u64..10_000) {
            let leaf = leaf_seed % h.leaf_cardinality();
            for level in 0..h.depth() {
                let anc = h.ancestor_of_leaf(leaf, level);
                let range = h.leaf_range_of(level, anc);
                prop_assert!(range.contains(&leaf));
            }
        }

        /// Cardinalities are monotonically non-decreasing towards finer levels
        /// and consistent with elements_per_ancestor.
        #[test]
        fn prop_cardinality_consistency(h in arb_hierarchy()) {
            for level in 0..h.depth() {
                prop_assert_eq!(
                    h.cardinality(level) * h.elements_per_ancestor(h.finest_level(), level),
                    h.leaf_cardinality()
                );
                if level > 0 {
                    prop_assert!(h.cardinality(level) >= h.cardinality(level - 1));
                }
            }
        }
    }
}
