//! The star schema: fact table plus dimensions.

use crate::attr::AttrRef;
use crate::dimension::Dimension;

/// A measure (aggregatable attribute) of the fact table, e.g. `UnitsSold`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measure {
    name: String,
    size_bytes: u64,
}

impl Measure {
    /// Creates a measure with the given storage size in bytes.
    #[must_use]
    pub fn new(name: impl Into<String>, size_bytes: u64) -> Self {
        assert!(size_bytes > 0, "measure size must be positive");
        Measure {
            name: name.into(),
            size_bytes,
        }
    }

    /// The measure's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The measure's storage size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }
}

/// The fact table of a star schema.
///
/// Its cardinality is not stored explicitly; following APB-1 it is derived
/// from a *density factor* applied to the cross product of the dimension
/// cardinalities (paper §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct FactTable {
    name: String,
    measures: Vec<Measure>,
    tuple_size_bytes: u64,
    density: f64,
}

impl FactTable {
    /// Creates a fact table description.
    ///
    /// `tuple_size_bytes` is the total row size including foreign keys (the
    /// paper uses 20 B); `density` is the fraction of possible dimension-value
    /// combinations that actually occur (APB-1: 0.25).
    ///
    /// # Panics
    ///
    /// Panics if the tuple size is zero or the density is not in `(0, 1]`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        measures: Vec<Measure>,
        tuple_size_bytes: u64,
        density: f64,
    ) -> Self {
        assert!(tuple_size_bytes > 0, "fact tuple size must be positive");
        assert!(
            density > 0.0 && density <= 1.0,
            "density factor must be in (0, 1], got {density}"
        );
        FactTable {
            name: name.into(),
            measures,
            tuple_size_bytes,
            density,
        }
    }

    /// The fact table's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The measures stored per fact row.
    #[must_use]
    pub fn measures(&self) -> &[Measure] {
        &self.measures
    }

    /// Size of one fact row in bytes.
    #[must_use]
    pub fn tuple_size_bytes(&self) -> u64 {
        self.tuple_size_bytes
    }

    /// The density factor.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.density
    }
}

/// Errors raised while assembling a [`StarSchema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Two dimensions share the same (case-insensitive) name.
    DuplicateDimension(String),
    /// The schema has no dimensions.
    NoDimensions,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::DuplicateDimension(d) => write!(f, "duplicate dimension name {d:?}"),
            SchemaError::NoDimensions => write!(f, "a star schema needs at least one dimension"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A complete star schema: one fact table and its dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct StarSchema {
    fact: FactTable,
    dimensions: Vec<Dimension>,
}

impl StarSchema {
    /// Assembles a schema, validating dimension-name uniqueness.
    pub fn new(fact: FactTable, dimensions: Vec<Dimension>) -> Result<Self, SchemaError> {
        if dimensions.is_empty() {
            return Err(SchemaError::NoDimensions);
        }
        for (i, d) in dimensions.iter().enumerate() {
            if dimensions[..i]
                .iter()
                .any(|e| e.name().eq_ignore_ascii_case(d.name()))
            {
                return Err(SchemaError::DuplicateDimension(d.name().to_string()));
            }
        }
        Ok(StarSchema { fact, dimensions })
    }

    /// The fact table description.
    #[must_use]
    pub fn fact(&self) -> &FactTable {
        &self.fact
    }

    /// The dimensions, in declaration order.
    #[must_use]
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dimensions
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dimension_count(&self) -> usize {
        self.dimensions.len()
    }

    /// Looks up a dimension index by (case-insensitive) name.
    #[must_use]
    pub fn dimension_index(&self, name: &str) -> Option<usize> {
        self.dimensions
            .iter()
            .position(|d| d.name().eq_ignore_ascii_case(name))
    }

    /// Resolves `dimension`/`level` names to an [`AttrRef`].
    #[must_use]
    pub fn attr(&self, dimension: &str, level: &str) -> Option<AttrRef> {
        let dim_idx = self.dimension_index(dimension)?;
        let level_idx = self.dimensions[dim_idx].level_index(level)?;
        Some(AttrRef::new(dim_idx, level_idx))
    }

    /// The maximal number of possible fact-row key combinations: the product
    /// of the leaf cardinalities of all dimensions.
    #[must_use]
    pub fn max_fact_combinations(&self) -> u64 {
        self.dimensions
            .iter()
            .map(Dimension::cardinality)
            .try_fold(1u64, u64::checked_mul)
            .expect("dimension cardinality product overflows u64")
    }

    /// The number of fact rows: density × product of dimension cardinalities.
    #[must_use]
    pub fn fact_row_count(&self) -> u64 {
        let max = self.max_fact_combinations() as f64;
        (max * self.fact.density()).round() as u64
    }

    /// Total fact-table size in bytes.
    #[must_use]
    pub fn fact_table_bytes(&self) -> u64 {
        self.fact_row_count()
            .checked_mul(self.fact.tuple_size_bytes())
            .expect("fact table size overflows u64")
    }

    /// Combined size of all (denormalised) dimension tables in bytes.
    #[must_use]
    pub fn dimension_tables_bytes(&self) -> u64 {
        self.dimensions
            .iter()
            .map(Dimension::table_size_bytes)
            .sum()
    }

    /// Iterates over all `(dimension index, level index)` attribute
    /// references of the schema, dimension by dimension, coarsest level first.
    pub fn all_attrs(&self) -> impl Iterator<Item = AttrRef> + '_ {
        self.dimensions
            .iter()
            .enumerate()
            .flat_map(|(d, dim)| (0..dim.hierarchy().depth()).map(move |l| AttrRef::new(d, l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;

    fn tiny_schema() -> StarSchema {
        let product = Dimension::new(
            "product",
            Hierarchy::from_fanouts(&[("group", 4), ("code", 5)]),
        );
        let time = Dimension::new("time", Hierarchy::from_fanouts(&[("month", 6)]));
        let fact = FactTable::new(
            "sales",
            vec![Measure::new("unitssold", 4), Measure::new("dollarsales", 8)],
            20,
            0.5,
        );
        StarSchema::new(fact, vec![product, time]).unwrap()
    }

    #[test]
    fn fact_cardinality_follows_density() {
        let s = tiny_schema();
        assert_eq!(s.max_fact_combinations(), 20 * 6);
        assert_eq!(s.fact_row_count(), 60);
        assert_eq!(s.fact_table_bytes(), 1_200);
        assert_eq!(s.dimension_count(), 2);
    }

    #[test]
    fn attr_resolution() {
        let s = tiny_schema();
        let code = s.attr("product", "code").unwrap();
        assert_eq!(code.cardinality(&s), 20);
        assert!(s.attr("product", "family").is_none());
        assert!(s.attr("store", "code").is_none());
        assert_eq!(s.dimension_index("TIME"), Some(1));
    }

    #[test]
    fn all_attrs_enumerates_every_level() {
        let s = tiny_schema();
        let attrs: Vec<_> = s.all_attrs().collect();
        assert_eq!(attrs.len(), 3);
        assert_eq!(attrs[0], AttrRef::new(0, 0));
        assert_eq!(attrs[1], AttrRef::new(0, 1));
        assert_eq!(attrs[2], AttrRef::new(1, 0));
    }

    #[test]
    fn duplicate_dimension_rejected() {
        let fact = FactTable::new("f", vec![], 20, 1.0);
        let d1 = Dimension::new("time", Hierarchy::from_fanouts(&[("month", 3)]));
        let d2 = Dimension::new("Time", Hierarchy::from_fanouts(&[("month", 3)]));
        assert_eq!(
            StarSchema::new(fact.clone(), vec![d1, d2]).unwrap_err(),
            SchemaError::DuplicateDimension("Time".to_string())
        );
        assert_eq!(
            StarSchema::new(fact, vec![]).unwrap_err(),
            SchemaError::NoDimensions
        );
    }

    #[test]
    #[should_panic(expected = "density factor")]
    fn invalid_density_rejected() {
        let _ = FactTable::new("f", vec![], 20, 0.0);
    }

    #[test]
    fn measure_accessors() {
        let m = Measure::new("cost", 8);
        assert_eq!(m.name(), "cost");
        assert_eq!(m.size_bytes(), 8);
    }
}
