//! Query classification under a fragmentation (§4.2, §4.5).
//!
//! Given a [`StarQuery`] and a [`Fragmentation`], this module determines:
//!
//! * the **query type** Q1–Q4 (or *unsupported*) of §4.2,
//! * the **I/O class** IOC1 / IOC1-opt / IOC2 / IOC2-nosupp of §4.5,
//! * the expected **number of fragments** the query must process,
//! * the **bitmap requirements**: for which query attributes bitmap access is
//!   still necessary (step 2 of the processing algorithm in §4.3).
//!
//! Terminology note: the paper's `hier(·)` calls coarser levels "higher".  In
//! this code base level indices grow towards *finer* levels (0 = coarsest), so
//! "q is at or above the fragmentation attribute" translates to
//! `q.level <= f.level`.

use schema::{AttrRef, StarSchema};

use crate::fragmentation::Fragmentation;
use crate::query::StarQuery;

/// The paper's query types with respect to a fragmentation (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Q1 — all referenced fragmentation-dimension attributes are exactly the
    /// fragmentation attributes.
    Q1,
    /// Q2 — attributes below (finer than) the fragmentation attributes.
    Q2,
    /// Q3 — attributes above (coarser than) the fragmentation attributes.
    Q3,
    /// Q4 — a mix of finer and coarser attributes.
    Q4,
    /// The query references no fragmentation dimension at all.
    Unsupported,
}

/// The paper's I/O overhead classes (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// IOC1-opt — exactly one fragment, no bitmap access.
    Ioc1Opt,
    /// IOC1 — clustered hits, no bitmap access.
    Ioc1,
    /// IOC2 — spread hits, bitmap I/O required.
    Ioc2,
    /// IOC2-nosupp — no fragmentation support; all fragments processed.
    Ioc2NoSupp,
}

impl IoClass {
    /// True for the two classes that avoid bitmap access entirely.
    #[must_use]
    pub fn avoids_bitmaps(self) -> bool {
        matches!(self, IoClass::Ioc1 | IoClass::Ioc1Opt)
    }
}

/// A query attribute that still needs bitmap access, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitmapRequirement {
    /// The query attribute.
    pub attr: AttrRef,
    /// True if the attribute's dimension is not a fragmentation dimension;
    /// false if it is, but at a coarser fragmentation level than the query
    /// attribute (so only a subset of each fragment's rows is relevant).
    pub dimension_unfragmented: bool,
}

/// The result of classifying a query under a fragmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Query type Q1–Q4 / unsupported.
    pub query_class: QueryClass,
    /// I/O overhead class.
    pub io_class: IoClass,
    /// Expected number of fact fragments that must be processed.
    pub fragments_to_process: u64,
    /// Query attributes that require bitmap access.
    pub bitmap_requirements: Vec<BitmapRequirement>,
}

impl Classification {
    /// True if no bitmap at all has to be read for this query.
    #[must_use]
    pub fn needs_no_bitmaps(&self) -> bool {
        self.bitmap_requirements.is_empty()
    }
}

/// Classifies `query` under `fragmentation` for `schema`.
#[must_use]
pub fn classify(
    schema: &StarSchema,
    fragmentation: &Fragmentation,
    query: &StarQuery,
) -> Classification {
    let mut any_equal = false;
    let mut any_finer = false;
    let mut any_coarser = false;
    let mut references_frag_dim = false;

    // Fragments to process: product over fragmentation attributes of the
    // per-dimension reduction factor (§4.2's counting argument).
    let mut fragments: f64 = 1.0;
    for frag_attr in fragmentation.attrs() {
        let card_f = frag_attr.cardinality(schema) as f64;
        match query.predicate_on(frag_attr.dimension) {
            None => {
                // Dimension not referenced: all its fragment values remain.
                fragments *= card_f;
            }
            Some(pred) => {
                references_frag_dim = true;
                let q = pred.attr;
                if q.level == frag_attr.level {
                    any_equal = true;
                    // Exactly the selected values' fragments remain.
                    fragments *= pred.values_selected as f64;
                } else if q.level > frag_attr.level {
                    // Query attribute is finer: each selected value lies in
                    // exactly one fragment value.
                    any_finer = true;
                    fragments *= pred.values_selected as f64;
                } else {
                    // Query attribute is coarser: each selected value covers
                    // card(f)/card(q) fragment values (e.g. one quarter →
                    // three month-fragments).
                    any_coarser = true;
                    let card_q = q.cardinality(schema) as f64;
                    fragments *= pred.values_selected as f64 * (card_f / card_q);
                }
            }
        }
    }
    let fragments_to_process = (fragments.round() as u64).clamp(1, fragmentation.fragment_count());

    let query_class = if !references_frag_dim {
        QueryClass::Unsupported
    } else if any_finer && any_coarser {
        QueryClass::Q4
    } else if any_finer {
        QueryClass::Q2
    } else if any_coarser {
        QueryClass::Q3
    } else {
        debug_assert!(any_equal);
        QueryClass::Q1
    };

    // Bitmap requirements (§4.3, step 2): bitmap access is needed for a query
    // attribute q iff its dimension is not in F, or it is in F but the
    // fragmentation attribute sits at a coarser level than q.
    let mut bitmap_requirements = Vec::new();
    for pred in query.predicates() {
        match fragmentation.attr_for_dimension(pred.attr.dimension) {
            None => bitmap_requirements.push(BitmapRequirement {
                attr: pred.attr,
                dimension_unfragmented: true,
            }),
            Some(frag_attr) => {
                if pred.attr.level > frag_attr.level {
                    bitmap_requirements.push(BitmapRequirement {
                        attr: pred.attr,
                        dimension_unfragmented: false,
                    });
                }
            }
        }
    }

    // I/O class (§4.5).
    let dims_subset_of_f = query
        .predicates()
        .iter()
        .all(|p| fragmentation.covers_dimension(p.attr.dimension));
    let all_at_or_above = query.predicates().iter().all(|p| {
        fragmentation
            .attr_for_dimension(p.attr.dimension)
            .is_some_and(|f| p.attr.level <= f.level)
    });
    let io_class = if !references_frag_dim {
        IoClass::Ioc2NoSupp
    } else if dims_subset_of_f && all_at_or_above {
        // IOC1: no bitmap access, hits clustered in complete fragments.
        let dims_equal_f = query.predicates().len() == fragmentation.dimensionality();
        let all_equal = query.predicates().iter().all(|p| {
            fragmentation
                .attr_for_dimension(p.attr.dimension)
                .is_some_and(|f| p.attr.level == f.level)
        });
        if dims_equal_f && all_equal {
            IoClass::Ioc1Opt
        } else {
            IoClass::Ioc1
        }
    } else {
        IoClass::Ioc2
    };

    Classification {
        query_class,
        io_class,
        fragments_to_process,
        bitmap_requirements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    fn month_group(schema: &StarSchema) -> Fragmentation {
        Fragmentation::parse(schema, &["time::month", "product::group"]).unwrap()
    }

    #[test]
    fn q1_exact_match_on_all_fragmentation_attributes() {
        // §4.2 Q1: 1MONTH1GROUP under F_MonthGroup → exactly 1 fragment,
        // no bitmaps.
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1MONTH1GROUP", &["time::month", "product::group"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q1);
        assert_eq!(c.io_class, IoClass::Ioc1Opt);
        assert_eq!(c.fragments_to_process, 1);
        assert!(c.needs_no_bitmaps());
    }

    #[test]
    fn q1_subset_of_fragmentation_attributes() {
        // §4.2 Q1 subset case: aggregate one GROUP over all 24 months →
        // 24 fragments, still no bitmap for the query attribute.
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1GROUP", &["product::group"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q1);
        assert_eq!(c.io_class, IoClass::Ioc1);
        assert_eq!(c.fragments_to_process, 24);
        assert!(c.needs_no_bitmaps());
    }

    #[test]
    fn q1_with_additional_unfragmented_dimension() {
        // §4.2: "to aggregate over 1 product GROUP and 1 STORE we have to
        // process 24 fact fragments but can use a bitmap index on CUSTOMER".
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1GROUP1STORE", &["product::group", "customer::store"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.fragments_to_process, 24);
        assert_eq!(c.io_class, IoClass::Ioc2);
        assert_eq!(c.bitmap_requirements.len(), 1);
        assert!(c.bitmap_requirements[0].dimension_unfragmented);
        assert_eq!(
            c.bitmap_requirements[0].attr,
            s.attr("customer", "store").unwrap()
        );
    }

    #[test]
    fn q2_lower_level_attributes() {
        // §4.2 Q2: 1CODE1MONTH under F_MonthGroup → 1 fragment, bitmap needed
        // for the product code.
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1CODE1MONTH", &["product::code", "time::month"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q2);
        assert_eq!(c.fragments_to_process, 1);
        assert_eq!(c.io_class, IoClass::Ioc2);
        assert_eq!(c.bitmap_requirements.len(), 1);
        assert!(!c.bitmap_requirements[0].dimension_unfragmented);

        // 1CODE alone → 24 fragments (one per month).
        let q = StarQuery::exact_match(&s, "1CODE", &["product::code"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q2);
        assert_eq!(c.fragments_to_process, 24);
    }

    #[test]
    fn q3_higher_level_attributes() {
        // §4.2 Q3: aggregate a GROUP over a QUARTER → 3 fragments; aggregate
        // one QUARTER over all groups → 1440 fragments (one eighth of all).
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1GROUP1QUARTER", &["product::group", "time::quarter"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q3);
        assert_eq!(c.fragments_to_process, 3);
        assert_eq!(c.io_class, IoClass::Ioc1);
        assert!(c.needs_no_bitmaps());

        let q = StarQuery::exact_match(&s, "1QUARTER", &["time::quarter"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q3);
        assert_eq!(c.fragments_to_process, 480 * 3);
        assert_eq!(c.fragments_to_process, 11_520 / 8);
        assert!(c.needs_no_bitmaps());
    }

    #[test]
    fn q4_mixed_levels() {
        // §4.2 Q4: 1CODE1QUARTER under F_MonthGroup → 3 fragments, bitmap
        // needed for the code but not the quarter.
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1CODE1QUARTER", &["product::code", "time::quarter"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q4);
        assert_eq!(c.fragments_to_process, 3);
        assert_eq!(c.io_class, IoClass::Ioc2);
        assert_eq!(c.bitmap_requirements.len(), 1);
        assert_eq!(
            c.bitmap_requirements[0].attr,
            s.attr("product", "code").unwrap()
        );
    }

    #[test]
    fn unsupported_query_touches_all_fragments() {
        // §4.5 IOC2-nosupp: 1STORE under F_MonthGroup.
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1STORE", &["customer::store"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Unsupported);
        assert_eq!(c.io_class, IoClass::Ioc2NoSupp);
        assert_eq!(c.fragments_to_process, 11_520);
        assert_eq!(c.bitmap_requirements.len(), 1);
        assert!(!c.io_class.avoids_bitmaps());
    }

    #[test]
    fn one_store_under_its_own_fragmentation_is_optimal() {
        // Table 3: F_opt = {customer::store} makes 1STORE an IOC1-opt query.
        let s = apb1_schema();
        let f = Fragmentation::parse(&s, &["customer::store"]).unwrap();
        let q = StarQuery::exact_match(&s, "1STORE", &["customer::store"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.io_class, IoClass::Ioc1Opt);
        assert_eq!(c.fragments_to_process, 1);
        assert!(c.needs_no_bitmaps());
        assert!(c.io_class.avoids_bitmaps());
    }

    #[test]
    fn one_month_under_month_group_is_cpu_bound_case() {
        // §6.1: 1MONTH under F_MonthGroup is confined to the 480 fragments of
        // the selected month and needs no bitmaps.
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1MONTH", &["time::month"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q1);
        assert_eq!(c.io_class, IoClass::Ioc1);
        assert_eq!(c.fragments_to_process, 480);
        assert!(c.needs_no_bitmaps());
    }

    #[test]
    fn year_query_covers_half_the_fragments() {
        let s = apb1_schema();
        let f = month_group(&s);
        let q = StarQuery::exact_match(&s, "1YEAR", &["time::year"]);
        let c = classify(&s, &f, &q);
        assert_eq!(c.query_class, QueryClass::Q3);
        // One year = 12 months × 480 groups = 5 760 fragments.
        assert_eq!(c.fragments_to_process, 5_760);
    }

    #[test]
    fn in_list_predicates_scale_fragment_counts() {
        let s = apb1_schema();
        let f = month_group(&s);
        let month = s.attr("time", "month").unwrap();
        let group = s.attr("product", "group").unwrap();
        let q = StarQuery::new(
            "3MONTH2GROUP",
            vec![Predicate::in_list(month, 3), Predicate::in_list(group, 2)],
        );
        let c = classify(&s, &f, &q);
        assert_eq!(c.fragments_to_process, 6);
        assert_eq!(c.query_class, QueryClass::Q1);
    }

    #[test]
    fn fragment_count_never_exceeds_total() {
        let s = apb1_schema();
        let f = month_group(&s);
        let month = s.attr("time", "month").unwrap();
        // Selecting more months than exist still caps at the total fragments.
        let q = StarQuery::new("ALLMONTHS", vec![Predicate::in_list(month, 100)]);
        let c = classify(&s, &f, &q);
        assert!(c.fragments_to_process <= f.fragment_count());
    }

    use crate::query::Predicate;
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use schema::apb1::apb1_schema;

    /// Builds a fragmentation / query from per-dimension optional level seeds
    /// (None = dimension not used; Some(seed) = level `seed % depth`).
    fn attrs_from_seeds(schema: &StarSchema, seeds: &[Option<usize>]) -> Vec<AttrRef> {
        seeds
            .iter()
            .enumerate()
            .filter_map(|(d, l)| {
                l.map(|level| {
                    let depth = schema.dimensions()[d].hierarchy().depth();
                    AttrRef::new(d, level % depth)
                })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The number of fragments to process is always between 1 and the
        /// total fragment count, equals the total for unsupported queries,
        /// and bitmap requirements are consistent with the fragmentation.
        #[test]
        fn prop_classification_invariants(
            frag_seeds in proptest::collection::vec(proptest::option::of(0usize..6), 4),
            query_seeds in proptest::collection::vec(proptest::option::of(0usize..6), 4),
        ) {
            let schema = apb1_schema();
            let frag_attrs = attrs_from_seeds(&schema, &frag_seeds);
            prop_assume!(!frag_attrs.is_empty());
            let f = Fragmentation::new(&schema, frag_attrs).unwrap();
            let q = StarQuery::new("prop", attrs_from_seeds(&schema, &query_seeds)
                .into_iter()
                .map(crate::query::Predicate::exact)
                .collect());

            let c = classify(&schema, &f, &q);
            prop_assert!(c.fragments_to_process >= 1);
            prop_assert!(c.fragments_to_process <= f.fragment_count());
            if c.query_class == QueryClass::Unsupported {
                prop_assert_eq!(c.fragments_to_process, f.fragment_count());
                prop_assert_eq!(c.io_class, IoClass::Ioc2NoSupp);
            }
            if c.io_class.avoids_bitmaps() {
                prop_assert!(c.needs_no_bitmaps());
            }
            for req in &c.bitmap_requirements {
                match f.attr_for_dimension(req.attr.dimension) {
                    None => prop_assert!(req.dimension_unfragmented),
                    Some(fa) => prop_assert!(req.attr.level > fa.level),
                }
            }
        }

        /// Monotonicity: a query referencing strictly more fragmentation
        /// dimensions never processes more fragments than one referencing a
        /// subset of them.
        #[test]
        fn prop_more_predicates_never_more_fragments(
            frag_seeds in proptest::collection::vec(0usize..6, 4),
            query_seeds in proptest::collection::vec(proptest::option::of(0usize..6), 4),
        ) {
            let schema = apb1_schema();
            let frag_attrs = attrs_from_seeds(
                &schema,
                &frag_seeds.iter().map(|&s| Some(s)).collect::<Vec<_>>(),
            );
            let f = Fragmentation::new(&schema, frag_attrs).unwrap();
            let preds = attrs_from_seeds(&schema, &query_seeds);
            let subset_query = StarQuery::new(
                "subset",
                preds.iter().skip(1).copied().map(crate::query::Predicate::exact).collect(),
            );
            let full_query = StarQuery::new(
                "full",
                preds.iter().copied().map(crate::query::Predicate::exact).collect(),
            );
            let c_subset = classify(&schema, &f, &subset_query);
            let c_full = classify(&schema, &f, &full_query);
            prop_assert!(c_full.fragments_to_process <= c_subset.fragments_to_process);
        }
    }
}
