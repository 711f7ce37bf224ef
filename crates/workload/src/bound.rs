//! Bound query instances.
//!
//! A [`BoundQuery`] is a star query with concrete attribute values (e.g.
//! *store 815*, *month 7*).  The simulator needs the concrete values because
//! the physical placement of the touched fragments — and therefore disk
//! parallelism and contention — depends on *which* fragments are relevant,
//! not just on how many (§4.6's gcd discussion is exactly about this).

use mdhf::{Fragmentation, StarQuery};
use schema::{AttrRef, StarSchema};

/// A star query with one concrete value bound to each predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    query: StarQuery,
    /// Concrete value per predicate, in predicate order.
    values: Vec<u64>,
}

impl BoundQuery {
    /// Binds `values` (one per predicate, in predicate order) to `query`.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the number of predicates
    /// or a value is outside its attribute's cardinality.
    #[must_use]
    pub fn new(schema: &StarSchema, query: StarQuery, values: Vec<u64>) -> Self {
        assert_eq!(
            values.len(),
            query.predicates().len(),
            "one value per predicate required"
        );
        for (pred, &value) in query.predicates().iter().zip(&values) {
            let card = pred.attr.cardinality(schema);
            assert!(
                value < card,
                "value {value} out of range for {} (cardinality {card})",
                pred.attr.display(schema)
            );
        }
        BoundQuery { query, values }
    }

    /// The underlying query shape.
    #[must_use]
    pub fn query(&self) -> &StarQuery {
        &self.query
    }

    /// The bound values, in predicate order.
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The bound value for `attr`, if the query references it.
    #[must_use]
    pub fn value_of(&self, attr: AttrRef) -> Option<u64> {
        self.query
            .predicates()
            .iter()
            .position(|p| p.attr == attr)
            .map(|i| self.values[i])
    }

    /// The fact fragments this instance must process under `fragmentation`,
    /// in ascending fragment-number order (the allocation order used by the
    /// scheduler's task list).
    ///
    /// For every fragmentation attribute the relevant coordinate values are:
    ///
    /// * the single ancestor of the bound value if the query references the
    ///   dimension at the same or a finer level,
    /// * the range of descendants of the bound value if the query references
    ///   the dimension at a coarser level,
    /// * all values if the query does not reference the dimension.
    #[must_use]
    pub fn relevant_fragments(
        &self,
        schema: &StarSchema,
        fragmentation: &Fragmentation,
    ) -> Vec<u64> {
        // Per-fragmentation-attribute candidate coordinate values.
        let mut per_attr: Vec<Vec<u64>> = Vec::with_capacity(fragmentation.dimensionality());
        for frag_attr in fragmentation.attrs() {
            let hierarchy = schema.dimensions()[frag_attr.dimension].hierarchy();
            let card_f = frag_attr.cardinality(schema);
            let values = match self
                .query
                .predicates()
                .iter()
                .position(|p| p.attr.dimension == frag_attr.dimension)
            {
                None => (0..card_f).collect(),
                Some(idx) => {
                    let q_attr = self.query.predicates()[idx].attr;
                    let value = self.values[idx];
                    if q_attr.level >= frag_attr.level {
                        // Query level at or below the fragmentation level:
                        // the bound value belongs to exactly one ancestor.
                        let per = hierarchy.elements_per_ancestor(q_attr.level, frag_attr.level);
                        vec![value / per]
                    } else {
                        // Query level above the fragmentation level: the bound
                        // value covers a contiguous range of descendants.
                        let per = hierarchy.elements_per_ancestor(frag_attr.level, q_attr.level);
                        (value * per..(value + 1) * per).collect()
                    }
                }
            };
            per_attr.push(values);
        }

        // Cartesian product of the per-attribute candidate values, converted
        // to fragment numbers (odometer over the candidate lists, last
        // attribute varying fastest).
        let expected: usize = per_attr.iter().map(Vec::len).product();
        let mut fragments = Vec::with_capacity(expected);
        let mut indices = vec![0usize; per_attr.len()];
        'outer: loop {
            let coords = mdhf::FragmentCoordinates(
                indices
                    .iter()
                    .zip(&per_attr)
                    .map(|(&i, vals)| vals[i])
                    .collect(),
            );
            fragments.push(fragmentation.fragment_number(&coords));
            let mut pos = per_attr.len();
            loop {
                if pos == 0 {
                    break 'outer;
                }
                pos -= 1;
                indices[pos] += 1;
                if indices[pos] < per_attr[pos].len() {
                    break;
                }
                indices[pos] = 0;
                if pos == 0 {
                    break 'outer;
                }
            }
        }
        debug_assert_eq!(fragments.len(), expected);
        fragments.sort_unstable();
        fragments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::QueryType;
    use schema::apb1::apb1_schema;

    fn month_group(schema: &StarSchema) -> Fragmentation {
        Fragmentation::parse(schema, &["time::month", "product::group"]).unwrap()
    }

    #[test]
    fn one_month_one_group_touches_exactly_one_fragment() {
        let s = apb1_schema();
        let f = month_group(&s);
        let q = QueryType::OneMonthOneGroup.to_star_query(&s);
        // month 5, group 123
        let bound = BoundQuery::new(&s, q, vec![5, 123]);
        let fragments = bound.relevant_fragments(&s, &f);
        assert_eq!(fragments, vec![5 * 480 + 123]);
    }

    #[test]
    fn one_code_touches_one_fragment_per_month_with_stride_480() {
        // §4.6: 1CODE accesses 24 fragments, every 480th one.
        let s = apb1_schema();
        let f = month_group(&s);
        let q = QueryType::OneCode.to_star_query(&s);
        // Product code 65 belongs to group 65 / 30 = 2.
        let bound = BoundQuery::new(&s, q, vec![65]);
        let fragments = bound.relevant_fragments(&s, &f);
        assert_eq!(fragments.len(), 24);
        for (m, &frag) in fragments.iter().enumerate() {
            assert_eq!(frag, m as u64 * 480 + 2);
        }
    }

    #[test]
    fn one_month_touches_the_480_fragments_of_that_month() {
        let s = apb1_schema();
        let f = month_group(&s);
        let q = QueryType::OneMonth.to_star_query(&s);
        let bound = BoundQuery::new(&s, q, vec![7]);
        let fragments = bound.relevant_fragments(&s, &f);
        assert_eq!(fragments.len(), 480);
        assert_eq!(fragments[0], 7 * 480);
        assert_eq!(*fragments.last().unwrap(), 7 * 480 + 479);
    }

    #[test]
    fn one_code_one_quarter_touches_three_fragments() {
        // §4.2 Q4 example: 1 product CODE and 3 MONTHs → 3 fragments.
        let s = apb1_schema();
        let f = month_group(&s);
        let q = QueryType::OneCodeOneQuarter.to_star_query(&s);
        // code 65 (group 2), quarter 3 (months 9, 10, 11)
        let bound = BoundQuery::new(&s, q, vec![65, 3]);
        let fragments = bound.relevant_fragments(&s, &f);
        assert_eq!(fragments, vec![9 * 480 + 2, 10 * 480 + 2, 11 * 480 + 2]);
    }

    #[test]
    fn one_store_touches_every_fragment() {
        let s = apb1_schema();
        let f = month_group(&s);
        let q = QueryType::OneStore.to_star_query(&s);
        let bound = BoundQuery::new(&s, q, vec![815]);
        let fragments = bound.relevant_fragments(&s, &f);
        assert_eq!(fragments.len(), 11_520);
        assert_eq!(fragments[0], 0);
        assert_eq!(*fragments.last().unwrap(), 11_519);
    }

    #[test]
    fn fragment_counts_agree_with_classification() {
        // The bound instance's fragment list must have exactly the size the
        // analytic classification predicts.
        let s = apb1_schema();
        let f = month_group(&s);
        for (qt, values) in [
            (QueryType::OneStore, vec![0]),
            (QueryType::OneMonth, vec![0]),
            (QueryType::OneCode, vec![100]),
            (QueryType::OneMonthOneGroup, vec![3, 17]),
            (QueryType::OneCodeOneQuarter, vec![100, 2]),
            (QueryType::OneQuarter, vec![1]),
            (QueryType::OneGroup, vec![400]),
        ] {
            let q = qt.to_star_query(&s);
            let classification = mdhf::classify(&s, &f, &q);
            let bound = BoundQuery::new(&s, q, values);
            assert_eq!(
                bound.relevant_fragments(&s, &f).len() as u64,
                classification.fragments_to_process,
                "{}",
                qt.name()
            );
        }
    }

    #[test]
    fn value_lookup() {
        let s = apb1_schema();
        let q = QueryType::OneMonthOneGroup.to_star_query(&s);
        let bound = BoundQuery::new(&s, q, vec![5, 123]);
        assert_eq!(bound.value_of(s.attr("time", "month").unwrap()), Some(5));
        assert_eq!(
            bound.value_of(s.attr("product", "group").unwrap()),
            Some(123)
        );
        assert_eq!(bound.value_of(s.attr("customer", "store").unwrap()), None);
        assert_eq!(bound.values(), &[5, 123]);
        assert_eq!(bound.query().name(), "1MONTH1GROUP");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_value_rejected() {
        let s = apb1_schema();
        let q = QueryType::OneMonth.to_star_query(&s);
        let _ = BoundQuery::new(&s, q, vec![24]);
    }

    #[test]
    #[should_panic(expected = "one value per predicate")]
    fn wrong_value_count_rejected() {
        let s = apb1_schema();
        let q = QueryType::OneMonthOneGroup.to_star_query(&s);
        let _ = BoundQuery::new(&s, q, vec![1]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::queries::QueryType;
    use proptest::prelude::*;
    use schema::apb1::apb1_schema;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For every standard query type and random parameter values, the
        /// bound fragment list has exactly the analytically predicted length,
        /// contains no duplicates and is sorted.
        #[test]
        fn prop_fragment_lists_match_classification(
            type_idx in 0usize..5,
            raw_values in proptest::collection::vec(0u64..20_000, 2),
        ) {
            let s = apb1_schema();
            let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
            let qt = QueryType::standard_mix()[type_idx].clone();
            let q = qt.to_star_query(&s);
            let values: Vec<u64> = q
                .predicates()
                .iter()
                .zip(raw_values.iter().chain(std::iter::repeat(&0)))
                .map(|(p, &raw)| raw % p.attr.cardinality(&s))
                .collect();
            let classification = mdhf::classify(&s, &f, &q);
            let bound = BoundQuery::new(&s, q, values);
            let fragments = bound.relevant_fragments(&s, &f);
            prop_assert_eq!(fragments.len() as u64, classification.fragments_to_process);
            let mut sorted = fragments.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), fragments.len());
            prop_assert!(fragments.iter().all(|&x| x < f.fragment_count()));
        }
    }
}
