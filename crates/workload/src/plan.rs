//! Query planning: MDHF fragment pruning plus bitmap predicates.
//!
//! A [`QueryPlan`] is §4.3's processing algorithm for one bound query
//! instance — the task list of the engine's scheduler and of SIMPAD's
//! coordinator alike:
//!
//! 1. **Fragment pruning** — the relevant fragments are exactly
//!    [`BoundQuery::relevant_fragments`] under the store's fragmentation,
//! 2. **Bitmap predicates** — per query predicate, whether bitmap access is
//!    still required (step 2 of §4.3).  A predicate needs *no* bitmap when
//!    its dimension is a fragmentation dimension at the same or a finer
//!    level than the query attribute: every row of a relevant fragment then
//!    satisfies the predicate by construction, so the engine may aggregate
//!    whole fragments without touching an index (the IOC1 fast path).
//!
//! The per-predicate decision is taken straight from
//! [`mdhf::classify()`]'s `bitmap_requirements`, keeping the physical
//! engine, the simulator and the analytic cost model on one shared
//! rulebook.  What each per-fragment subquery reads is its
//! [`mdhf::SubqueryFootprint`].

use mdhf::{classify, Classification, Fragmentation};
use schema::StarSchema;

use crate::bound::BoundQuery;

/// One bound selection predicate, annotated with whether the engine must
/// evaluate it through a bitmap index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredicateBinding {
    /// The predicate's dimension (schema dimension index).
    pub dimension: usize,
    /// The hierarchy level of the selection (0 = coarsest).
    pub level: usize,
    /// The bound attribute value.
    pub value: u64,
    /// True if the predicate must be evaluated via the fragment's bitmap
    /// index; false if fragment pruning already guarantees it.
    pub needs_bitmap: bool,
}

/// An executable plan: pruned fragment list plus annotated predicates.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    query_name: String,
    fragments: Vec<u64>,
    predicates: Vec<PredicateBinding>,
    classification: Classification,
}

impl QueryPlan {
    /// Plans `bound` against `fragmentation` for `schema`.
    #[must_use]
    pub fn new(schema: &StarSchema, fragmentation: &Fragmentation, bound: &BoundQuery) -> Self {
        let classification = classify(schema, fragmentation, bound.query());
        let fragments = bound.relevant_fragments(schema, fragmentation);
        let predicates = bound
            .query()
            .predicates()
            .iter()
            .zip(bound.values())
            .map(|(pred, &value)| PredicateBinding {
                dimension: pred.attr.dimension,
                level: pred.attr.level,
                value,
                needs_bitmap: classification
                    .bitmap_requirements
                    .iter()
                    .any(|req| req.attr == pred.attr),
            })
            .collect();
        QueryPlan {
            query_name: bound.query().name().to_string(),
            fragments,
            predicates,
            classification,
        }
    }

    /// The planned query's diagnostic name.
    #[must_use]
    pub fn query_name(&self) -> &str {
        &self.query_name
    }

    /// The pruned, ascending list of fragment numbers to process.
    #[must_use]
    pub fn fragments(&self) -> &[u64] {
        &self.fragments
    }

    /// Number of per-fragment tasks this plan decomposes into — the unit of
    /// work the scheduler admits onto the shared pool.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.fragments.len()
    }

    /// All bound predicates, in query predicate order.
    #[must_use]
    pub fn predicates(&self) -> &[PredicateBinding] {
        &self.predicates
    }

    /// The predicates that require bitmap evaluation.
    #[must_use]
    pub fn bitmap_predicates(&self) -> Vec<PredicateBinding> {
        self.predicates
            .iter()
            .copied()
            .filter(|p| p.needs_bitmap)
            .collect()
    }

    /// The analytic classification the plan was derived from.
    #[must_use]
    pub fn classification(&self) -> &Classification {
        &self.classification
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryType;
    use schema::apb1::apb1_scaled_down;

    fn plan_for(query_type: QueryType, values: Vec<u64>) -> QueryPlan {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
        QueryPlan::new(&schema, &fragmentation, &bound)
    }

    #[test]
    fn q1_plan_prunes_to_one_fragment_and_needs_no_bitmaps() {
        let plan = plan_for(QueryType::OneMonthOneGroup, vec![3, 1]);
        assert_eq!(plan.fragments().len(), 1);
        assert!(plan.bitmap_predicates().is_empty());
        assert_eq!(plan.predicates().len(), 2);
        assert_eq!(plan.query_name(), "1MONTH1GROUP");
        assert_eq!(
            plan.classification().fragments_to_process,
            plan.fragments().len() as u64
        );
    }

    #[test]
    fn unsupported_plan_scans_all_fragments_with_bitmaps() {
        let plan = plan_for(QueryType::OneStore, vec![7]);
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        assert_eq!(
            plan.fragments().len() as u64,
            fragmentation.fragment_count()
        );
        let bitmap_preds = plan.bitmap_predicates();
        assert_eq!(bitmap_preds.len(), 1);
        assert!(bitmap_preds[0].needs_bitmap);
        assert_eq!(bitmap_preds[0].value, 7);
    }

    #[test]
    fn finer_level_predicates_keep_their_bitmaps() {
        // 1CODE under F_MonthGroup: pruned to the code's group column of
        // fragments, but the code itself still needs its bitmap.
        let plan = plan_for(QueryType::OneCode, vec![65]);
        assert_eq!(plan.bitmap_predicates().len(), 1);
        assert_eq!(plan.fragments().len(), 12);
    }
}
