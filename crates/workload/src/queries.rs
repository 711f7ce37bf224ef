//! Named query types of the paper's evaluation.

use mdhf::StarQuery;
use schema::StarSchema;

/// The query types used in the paper's experiments, plus an escape hatch for
/// arbitrary attribute combinations.
///
/// Every variant is an exact-match star query aggregating the fact-table
/// measures under a selection on the listed attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryType {
    /// `1STORE` — one customer store, all other dimensions unrestricted
    /// (the disk-bound query of Figures 3, 5 and 6).
    OneStore,
    /// `1MONTH` — one month (the CPU-bound query of Figure 4).
    OneMonth,
    /// `1CODE` — one product code over all months.
    OneCode,
    /// `1MONTH1GROUP` — one month and one product group (§3.1 sample query).
    OneMonthOneGroup,
    /// `1CODE1QUARTER` — one product code within one quarter (Figure 6).
    OneCodeOneQuarter,
    /// `1GROUP` — one product group over all months.
    OneGroup,
    /// `1QUARTER` — one quarter.
    OneQuarter,
    /// `1GROUP1STORE` — one product group and one store (§4.2 example).
    OneGroupOneStore,
    /// A custom exact-match query over the given `dimension::level` strings.
    Custom {
        /// Display name of the custom query.
        name: String,
        /// Referenced attributes as `dimension::level` strings.
        attrs: Vec<String>,
    },
}

impl QueryType {
    /// The display name used in tables and plots.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            QueryType::OneStore => "1STORE".to_string(),
            QueryType::OneMonth => "1MONTH".to_string(),
            QueryType::OneCode => "1CODE".to_string(),
            QueryType::OneMonthOneGroup => "1MONTH1GROUP".to_string(),
            QueryType::OneCodeOneQuarter => "1CODE1QUARTER".to_string(),
            QueryType::OneGroup => "1GROUP".to_string(),
            QueryType::OneQuarter => "1QUARTER".to_string(),
            QueryType::OneGroupOneStore => "1GROUP1STORE".to_string(),
            QueryType::Custom { name, .. } => name.clone(),
        }
    }

    /// The referenced attributes as `dimension::level` strings.
    #[must_use]
    pub fn attrs(&self) -> Vec<String> {
        let fixed: &[&str] = match self {
            QueryType::OneStore => &["customer::store"],
            QueryType::OneMonth => &["time::month"],
            QueryType::OneCode => &["product::code"],
            QueryType::OneMonthOneGroup => &["time::month", "product::group"],
            QueryType::OneCodeOneQuarter => &["product::code", "time::quarter"],
            QueryType::OneGroup => &["product::group"],
            QueryType::OneQuarter => &["time::quarter"],
            QueryType::OneGroupOneStore => &["product::group", "customer::store"],
            QueryType::Custom { attrs, .. } => {
                return attrs.clone();
            }
        };
        fixed.iter().map(|s| (*s).to_string()).collect()
    }

    /// Resolves the query type into a [`StarQuery`] shape for `schema`.
    ///
    /// # Panics
    ///
    /// Panics if an attribute does not exist in the schema.
    #[must_use]
    pub fn to_star_query(&self, schema: &StarSchema) -> StarQuery {
        let attrs = self.attrs();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        StarQuery::exact_match(schema, &self.name(), &attr_refs)
    }

    /// The standard mix used by the paper's discussion sections: each of the
    /// named query types with equal weight.
    #[must_use]
    pub fn standard_mix() -> Vec<QueryType> {
        vec![
            QueryType::OneStore,
            QueryType::OneMonth,
            QueryType::OneCode,
            QueryType::OneMonthOneGroup,
            QueryType::OneCodeOneQuarter,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    #[test]
    fn names_and_attrs() {
        assert_eq!(QueryType::OneStore.name(), "1STORE");
        assert_eq!(QueryType::OneStore.attrs(), vec!["customer::store"]);
        assert_eq!(
            QueryType::OneCodeOneQuarter.attrs(),
            vec!["product::code", "time::quarter"]
        );
        let custom = QueryType::Custom {
            name: "1CHANNEL".to_string(),
            attrs: vec!["channel::channel".to_string()],
        };
        assert_eq!(custom.name(), "1CHANNEL");
        assert_eq!(custom.attrs(), vec!["channel::channel"]);
    }

    #[test]
    fn resolve_to_star_queries() {
        let s = apb1_schema();
        for qt in QueryType::standard_mix() {
            let q = qt.to_star_query(&s);
            assert_eq!(q.name(), qt.name());
            assert_eq!(q.predicates().len(), qt.attrs().len());
        }
        // Expected selectivity for the disk-bound query.
        let q = QueryType::OneStore.to_star_query(&s);
        assert!((q.expected_hits(&s) - 1_296_000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "bad attribute")]
    fn unknown_attribute_panics() {
        let s = apb1_schema();
        let custom = QueryType::Custom {
            name: "BAD".to_string(),
            attrs: vec!["product::week".to_string()],
        };
        let _ = custom.to_star_query(&s);
    }
}
