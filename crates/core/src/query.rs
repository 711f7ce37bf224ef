//! The star-query model.
//!
//! The paper considers star queries that aggregate fact-table measures under
//! exact-match selections on hierarchy attributes of one or more dimensions,
//! e.g. `1MONTH1GROUP`: sum of `UnitsSold`/`DollarSales` for one product group
//! within one month.  [`StarQuery`] captures the *shape* of such a query — the
//! referenced attributes and how many values of each are selected — which is
//! all the fragmentation analysis and the cost model need.  Concrete value
//! bindings (which month, which group) are added by the workload generator and
//! only matter to the simulator.

use schema::{AttrRef, StarSchema};

/// A selection predicate on one hierarchy attribute.
///
/// `values_selected` is the number of distinct attribute values selected
/// (1 for the paper's exact-match queries; larger values model IN-lists or
/// small ranges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// The referenced attribute.
    pub attr: AttrRef,
    /// Number of attribute values selected (≥ 1).
    pub values_selected: u64,
}

impl Predicate {
    /// An exact-match predicate selecting a single value.
    #[must_use]
    pub fn exact(attr: AttrRef) -> Self {
        Predicate {
            attr,
            values_selected: 1,
        }
    }

    /// A predicate selecting `values` distinct values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is zero.
    #[must_use]
    pub fn in_list(attr: AttrRef, values: u64) -> Self {
        assert!(values > 0, "a predicate must select at least one value");
        Predicate {
            attr,
            values_selected: values,
        }
    }

    /// The selectivity of this predicate: selected values / attribute
    /// cardinality, clamped to 1.
    #[must_use]
    pub fn selectivity(&self, schema: &StarSchema) -> f64 {
        let card = self.attr.cardinality(schema) as f64;
        (self.values_selected as f64 / card).min(1.0)
    }
}

/// A star query: a conjunction of predicates on distinct dimensions plus an
/// aggregation over the fact table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarQuery {
    name: String,
    predicates: Vec<Predicate>,
}

impl StarQuery {
    /// Creates a query from predicates.
    ///
    /// # Panics
    ///
    /// Panics if two predicates reference the same dimension (the paper's
    /// query model has at most one selection level per dimension).
    #[must_use]
    pub fn new(name: impl Into<String>, predicates: Vec<Predicate>) -> Self {
        for (i, p) in predicates.iter().enumerate() {
            assert!(
                !predicates[..i]
                    .iter()
                    .any(|q| q.attr.dimension == p.attr.dimension),
                "duplicate predicate on dimension {}",
                p.attr.dimension
            );
        }
        StarQuery {
            name: name.into(),
            predicates,
        }
    }

    /// Builds an exact-match query from `dimension::level` strings, e.g.
    /// `StarQuery::exact_match(&schema, "1MONTH1GROUP", &["time::month", "product::group"])`.
    ///
    /// # Panics
    ///
    /// Panics if an attribute cannot be resolved.
    #[must_use]
    pub fn exact_match(schema: &StarSchema, name: &str, attrs: &[&str]) -> Self {
        let predicates = attrs
            .iter()
            .map(|s| {
                let level_ref: schema::LevelRef = s
                    .parse()
                    .unwrap_or_else(|e| panic!("bad attribute {s:?}: {e}"));
                Predicate::exact(
                    level_ref
                        .resolve(schema)
                        .unwrap_or_else(|e| panic!("bad attribute {s:?}: {e}")),
                )
            })
            .collect();
        StarQuery::new(name, predicates)
    }

    /// The query's diagnostic name (e.g. `"1STORE"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The query's predicates.
    #[must_use]
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The predicate on `dimension`, if the query references it.
    #[must_use]
    pub fn predicate_on(&self, dimension: usize) -> Option<&Predicate> {
        self.predicates
            .iter()
            .find(|p| p.attr.dimension == dimension)
    }

    /// The dimensions referenced by the query.
    #[must_use]
    pub fn dimensions(&self) -> Vec<usize> {
        self.predicates.iter().map(|p| p.attr.dimension).collect()
    }

    /// Overall selectivity: product of the predicates' selectivities
    /// (independence / uniformity assumption of the paper's cost model).
    #[must_use]
    pub fn selectivity(&self, schema: &StarSchema) -> f64 {
        self.predicates
            .iter()
            .map(|p| p.selectivity(schema))
            .product()
    }

    /// Expected number of fact rows matching the query.
    #[must_use]
    pub fn expected_hits(&self, schema: &StarSchema) -> f64 {
        self.selectivity(schema) * schema.fact_row_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    #[test]
    fn paper_query_selectivities() {
        let s = apb1_schema();
        let one_store = StarQuery::exact_match(&s, "1STORE", &["customer::store"]);
        // §6.3: "Due to its query selectivity of 1/1440..."
        assert!((one_store.selectivity(&s) - 1.0 / 1_440.0).abs() < 1e-12);
        assert!((one_store.expected_hits(&s) - 1_296_000.0).abs() < 1.0);

        let one_month_one_group =
            StarQuery::exact_match(&s, "1MONTH1GROUP", &["time::month", "product::group"]);
        assert!((one_month_one_group.selectivity(&s) - 1.0 / (24.0 * 480.0)).abs() < 1e-15);

        let one_code_one_quarter =
            StarQuery::exact_match(&s, "1CODE1QUARTER", &["product::code", "time::quarter"]);
        // §6.3: 1CODE1QUARTER "has to process only 16,200 rows in total".
        assert!((one_code_one_quarter.expected_hits(&s) - 16_200.0).abs() < 1.0);
    }

    #[test]
    fn one_store_vs_one_code_one_quarter_hit_ratio() {
        // §6.3: "1STORE has about 80 times more hit tuples than 1CODE1QUARTER".
        let s = apb1_schema();
        let one_store = StarQuery::exact_match(&s, "1STORE", &["customer::store"]);
        let ocoq = StarQuery::exact_match(&s, "1CODE1QUARTER", &["product::code", "time::quarter"]);
        let ratio = one_store.expected_hits(&s) / ocoq.expected_hits(&s);
        assert!((ratio - 80.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn accessors() {
        let s = apb1_schema();
        let q = StarQuery::exact_match(&s, "1MONTH1GROUP", &["time::month", "product::group"]);
        assert_eq!(q.name(), "1MONTH1GROUP");
        assert_eq!(q.predicates().len(), 2);
        let time = s.dimension_index("time").unwrap();
        let customer = s.dimension_index("customer").unwrap();
        assert!(q.predicate_on(time).is_some());
        assert!(q.predicate_on(customer).is_none());
        assert_eq!(q.dimensions().len(), 2);
    }

    #[test]
    fn in_list_predicates_scale_selectivity() {
        let s = apb1_schema();
        let month = s.attr("time", "month").unwrap();
        let p = Predicate::in_list(month, 6);
        assert!((p.selectivity(&s) - 0.25).abs() < 1e-12);
        // Selecting more values than exist clamps to 1.
        let p = Predicate::in_list(month, 100);
        assert_eq!(p.selectivity(&s), 1.0);
    }

    #[test]
    fn query_with_no_predicates_is_a_full_scan() {
        let s = apb1_schema();
        let q = StarQuery::new("FULLSCAN", vec![]);
        assert_eq!(q.selectivity(&s), 1.0);
        assert_eq!(q.expected_hits(&s), s.fact_row_count() as f64);
        assert!(q.dimensions().is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate predicate")]
    fn duplicate_dimension_rejected() {
        let s = apb1_schema();
        let _ = StarQuery::exact_match(&s, "BAD", &["product::group", "product::code"]);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn zero_value_predicate_rejected() {
        let s = apb1_schema();
        let _ = Predicate::in_list(s.attr("time", "month").unwrap(), 0);
    }
}
