//! Attribute references in `dimension::level` notation.
//!
//! The paper denotes fragmentation attributes as
//! `F = { Dimension::Hierarchy-level, ... }`, e.g.
//! `F_MonthGroup = {time::month, product::group}`.  [`LevelRef`] is the
//! textual form, [`AttrRef`] the resolved `(dimension index, level index)`
//! pair used everywhere else in the workspace.

use std::fmt;
use std::str::FromStr;

use crate::star::StarSchema;

/// A resolved reference to a hierarchy level of a dimension in a particular
/// [`StarSchema`]: `(dimension index, level index)` with level 0 being the
/// coarsest ("highest") level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrRef {
    /// Index of the dimension within the schema.
    pub dimension: usize,
    /// Index of the hierarchy level within the dimension (0 = coarsest).
    pub level: usize,
}

impl AttrRef {
    /// Creates an attribute reference.
    #[must_use]
    pub fn new(dimension: usize, level: usize) -> Self {
        AttrRef { dimension, level }
    }

    /// True if `self` refers to a level at or above (coarser than or equal to)
    /// `other` in the same dimension.  Panics if the dimensions differ, since
    /// levels of different dimensions are not comparable.
    #[must_use]
    pub fn is_coarser_or_equal(&self, other: &AttrRef) -> bool {
        assert_eq!(
            self.dimension, other.dimension,
            "cannot compare hierarchy levels across dimensions"
        );
        self.level <= other.level
    }

    /// True if `self` refers to a strictly finer (lower) level than `other`
    /// in the same dimension.
    #[must_use]
    pub fn is_finer_than(&self, other: &AttrRef) -> bool {
        assert_eq!(
            self.dimension, other.dimension,
            "cannot compare hierarchy levels across dimensions"
        );
        self.level > other.level
    }

    /// Renders the reference using the schema's names, e.g. `product::group`.
    #[must_use]
    pub fn display(&self, schema: &StarSchema) -> String {
        let dim = &schema.dimensions()[self.dimension];
        let level = dim
            .hierarchy()
            .level(self.level)
            .expect("level index valid for schema");
        format!("{}::{}", dim.name(), level.name())
    }

    /// Cardinality of the referenced attribute in the given schema.
    #[must_use]
    pub fn cardinality(&self, schema: &StarSchema) -> u64 {
        schema.dimensions()[self.dimension].level_cardinality(self.level)
    }
}

/// A textual, unresolved attribute reference (`"product::group"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LevelRef {
    /// Dimension name, lower-cased.
    pub dimension: String,
    /// Level name, lower-cased.
    pub level: String,
}

impl LevelRef {
    /// Creates a textual reference (names are normalised to lower case).
    #[must_use]
    pub fn new(dimension: impl Into<String>, level: impl Into<String>) -> Self {
        LevelRef {
            dimension: dimension.into().to_ascii_lowercase(),
            level: level.into().to_ascii_lowercase(),
        }
    }

    /// Resolves this reference against a schema.
    pub fn resolve(&self, schema: &StarSchema) -> Result<AttrRef, ParseAttrError> {
        let dim_idx = schema
            .dimension_index(&self.dimension)
            .ok_or_else(|| ParseAttrError::UnknownDimension(self.dimension.clone()))?;
        let level_idx = schema.dimensions()[dim_idx]
            .level_index(&self.level)
            .ok_or_else(|| ParseAttrError::UnknownLevel {
                dimension: self.dimension.clone(),
                level: self.level.clone(),
            })?;
        Ok(AttrRef::new(dim_idx, level_idx))
    }
}

impl fmt::Display for LevelRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.dimension, self.level)
    }
}

/// Errors that can occur when parsing or resolving attribute references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseAttrError {
    /// The string did not have the form `dimension::level`.
    Malformed(String),
    /// No dimension with this name exists in the schema.
    UnknownDimension(String),
    /// The dimension exists but has no level with this name.
    UnknownLevel {
        /// Dimension that was found.
        dimension: String,
        /// Level that was not found.
        level: String,
    },
}

impl fmt::Display for ParseAttrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseAttrError::Malformed(s) => {
                write!(
                    f,
                    "malformed attribute reference {s:?} (expected dimension::level)"
                )
            }
            ParseAttrError::UnknownDimension(d) => write!(f, "unknown dimension {d:?}"),
            ParseAttrError::UnknownLevel { dimension, level } => {
                write!(f, "dimension {dimension:?} has no level {level:?}")
            }
        }
    }
}

impl std::error::Error for ParseAttrError {}

impl FromStr for LevelRef {
    type Err = ParseAttrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (dim, level) = s
            .split_once("::")
            .ok_or_else(|| ParseAttrError::Malformed(s.to_string()))?;
        let dim = dim.trim();
        let level = level.trim();
        if dim.is_empty() || level.is_empty() {
            return Err(ParseAttrError::Malformed(s.to_string()));
        }
        Ok(LevelRef::new(dim, level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apb1;

    #[test]
    fn parse_level_ref() {
        let r: LevelRef = "product::group".parse().unwrap();
        assert_eq!(r.dimension, "product");
        assert_eq!(r.level, "group");
        assert_eq!(r.to_string(), "product::group");
        let r: LevelRef = " Time :: Month ".parse().unwrap();
        assert_eq!(r, LevelRef::new("time", "month"));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            "productgroup".parse::<LevelRef>(),
            Err(ParseAttrError::Malformed(_))
        ));
        assert!(matches!(
            "::group".parse::<LevelRef>(),
            Err(ParseAttrError::Malformed(_))
        ));
        assert!(matches!(
            "product::".parse::<LevelRef>(),
            Err(ParseAttrError::Malformed(_))
        ));
    }

    #[test]
    fn resolve_against_apb1() {
        let schema = apb1::apb1_schema();
        let r: LevelRef = "product::group".parse().unwrap();
        let a = r.resolve(&schema).unwrap();
        assert_eq!(a.cardinality(&schema), 480);
        assert_eq!(a.display(&schema), "product::group");

        let err = LevelRef::new("vendor", "code")
            .resolve(&schema)
            .unwrap_err();
        assert!(matches!(err, ParseAttrError::UnknownDimension(_)));
        let err = LevelRef::new("product", "week")
            .resolve(&schema)
            .unwrap_err();
        assert!(matches!(err, ParseAttrError::UnknownLevel { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn level_comparisons() {
        let schema = apb1::apb1_schema();
        let group = schema.attr("product", "group").unwrap();
        let code = schema.attr("product", "code").unwrap();
        let division = schema.attr("product", "division").unwrap();
        assert!(group.is_coarser_or_equal(&code));
        assert!(group.is_coarser_or_equal(&group));
        assert!(!code.is_coarser_or_equal(&group));
        assert!(code.is_finer_than(&group));
        assert!(!division.is_finer_than(&group));
    }

    #[test]
    #[should_panic(expected = "across dimensions")]
    fn cross_dimension_comparison_panics() {
        let schema = apb1::apb1_schema();
        let group = schema.attr("product", "group").unwrap();
        let month = schema.attr("time", "month").unwrap();
        let _ = group.is_coarser_or_equal(&month);
    }
}
