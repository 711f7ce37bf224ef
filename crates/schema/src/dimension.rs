//! Dimension tables.

use crate::hierarchy::Hierarchy;

/// A (denormalised) dimension table of a star schema.
///
/// The paper treats dimension tables as metadata only: they are tiny compared
/// to the fact table ("our four dimension tables only occupy 1 MB"), so the
/// interesting content is the hierarchy and its cardinalities plus a rough
/// per-row size used for completeness in storage accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    name: String,
    hierarchy: Hierarchy,
    row_size_bytes: u64,
}

impl Dimension {
    /// Default denormalised dimension-row size used when none is specified.
    pub const DEFAULT_ROW_SIZE: u64 = 64;

    /// Creates a dimension with the default row size.
    #[must_use]
    pub fn new(name: impl Into<String>, hierarchy: Hierarchy) -> Self {
        Self::with_row_size(name, hierarchy, Self::DEFAULT_ROW_SIZE)
    }

    /// Creates a dimension with an explicit denormalised row size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `row_size_bytes` is zero.
    #[must_use]
    pub fn with_row_size(
        name: impl Into<String>,
        hierarchy: Hierarchy,
        row_size_bytes: u64,
    ) -> Self {
        assert!(row_size_bytes > 0, "dimension row size must be positive");
        Dimension {
            name: name.into(),
            hierarchy,
            row_size_bytes,
        }
    }

    /// The dimension's name (e.g. `"product"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dimension hierarchy, coarsest level first.
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Cardinality of the finest hierarchy level — the number of rows in the
    /// dimension table and the domain of the fact table's foreign key.
    #[must_use]
    pub fn cardinality(&self) -> u64 {
        self.hierarchy.leaf_cardinality()
    }

    /// Cardinality of the hierarchy level at `level_index`.
    #[must_use]
    pub fn level_cardinality(&self, level_index: usize) -> u64 {
        self.hierarchy.cardinality(level_index)
    }

    /// Approximate size of the denormalised dimension table in bytes.
    #[must_use]
    pub fn table_size_bytes(&self) -> u64 {
        self.cardinality() * self.row_size_bytes
    }

    /// Looks up a hierarchy level index by name.
    #[must_use]
    pub fn level_index(&self, level_name: &str) -> Option<usize> {
        self.hierarchy.level_index(level_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;

    fn time_dim() -> Dimension {
        Dimension::new(
            "time",
            Hierarchy::from_fanouts(&[("year", 2), ("quarter", 4), ("month", 3)]),
        )
    }

    #[test]
    fn basic_accessors() {
        let d = time_dim();
        assert_eq!(d.name(), "time");
        assert_eq!(d.cardinality(), 24);
        assert_eq!(d.level_cardinality(0), 2);
        assert_eq!(d.level_cardinality(1), 8);
        assert_eq!(d.level_cardinality(2), 24);
        assert_eq!(d.level_index("quarter"), Some(1));
        assert_eq!(d.level_index("week"), None);
    }

    #[test]
    fn table_size_uses_row_size() {
        let d = time_dim();
        assert_eq!(d.table_size_bytes(), 24 * Dimension::DEFAULT_ROW_SIZE);
        let d2 = Dimension::with_row_size(
            "time",
            Hierarchy::from_fanouts(&[("year", 2), ("quarter", 4), ("month", 3)]),
            100,
        );
        assert_eq!(d2.table_size_bytes(), 2_400);
    }

    #[test]
    #[should_panic(expected = "row size must be positive")]
    fn zero_row_size_rejected() {
        let _ = Dimension::with_row_size("x", Hierarchy::from_fanouts(&[("only", 3)]), 0);
    }
}
