//! The fragmentation advisor — the §4.7 guidelines as a tool.
//!
//! The paper closes Section 4 with a recipe a database administrator (or a
//! tool) can follow to pick a fragmentation:
//!
//! 1. exclude all fragmentations violating the thresholds of §4.4,
//! 2. limit the dimensionality to the dimensions the query profile actually
//!    references (and make sure there are enough fragments for all disks),
//! 3. evaluate the analytic I/O cost of the remaining candidates for the
//!    query mix and pick the one with the minimum total I/O work (possibly
//!    after first optimising a set of favoured queries).
//!
//! [`Advisor`] implements exactly that pipeline on top of
//! [`enumerate_fragmentations`], [`check_fragmentation`] and [`CostModel`].

use bitmap::IndexCatalog;
use schema::StarSchema;

use crate::cost::{CostModel, CostParameters};
use crate::enumerate::enumerate_fragmentations;
use crate::fragmentation::Fragmentation;
use crate::query::StarQuery;
use crate::thresholds::{check_fragmentation, FragmentationConstraints};

/// Configuration of an advisor run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorConfig {
    /// Threshold constraints (step 1 of the guidelines).
    pub constraints: FragmentationConstraints,
    /// Cost-model parameters.
    pub cost: CostParameters,
    /// Restrict candidates to dimensions referenced by the query mix
    /// (step 2 of the guidelines).  When false, all dimensions are eligible.
    pub restrict_to_query_dimensions: bool,
    /// Maximum number of ranked candidates to return.
    pub top_k: usize,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            constraints: FragmentationConstraints::default(),
            cost: CostParameters::default(),
            restrict_to_query_dimensions: true,
            top_k: 10,
        }
    }
}

/// One ranked candidate fragmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedFragmentation {
    /// The candidate.
    pub fragmentation: Fragmentation,
    /// Weighted total I/O pages over the query mix.
    pub total_pages: f64,
    /// Weighted total I/O pages over the favoured queries only (0 when no
    /// favoured queries are given).
    pub favoured_pages: f64,
    /// Number of fragments of the candidate.
    pub fragments: u64,
    /// Bitmaps that must still be materialised under the candidate.
    pub bitmaps_required: u64,
}

/// The fragmentation advisor.
#[derive(Debug, Clone)]
pub struct Advisor {
    model: CostModel,
    config: AdvisorConfig,
}

impl Advisor {
    /// Creates an advisor for a schema with the default bitmap-index catalog.
    #[must_use]
    pub fn new(schema: StarSchema, config: AdvisorConfig) -> Self {
        let catalog = IndexCatalog::default_for(&schema);
        let model = CostModel::with_parameters(schema, catalog, config.cost);
        Advisor { model, config }
    }

    /// Creates an advisor with an explicit catalog.
    #[must_use]
    pub fn with_catalog(schema: StarSchema, catalog: IndexCatalog, config: AdvisorConfig) -> Self {
        let model = CostModel::with_parameters(schema, catalog, config.cost);
        Advisor { model, config }
    }

    /// The underlying cost model.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Ranks admissible fragmentations for a weighted `query mix`.
    ///
    /// `favoured` queries are optimised first: candidates are ordered by
    /// their total I/O on the favoured queries, ties broken by total I/O on
    /// the whole mix (the "Otherwise, consider all fragmentations which
    /// optimize the favored queries and proceed as above for the rest"
    /// guideline).  With no favoured queries the mix total alone decides.
    #[must_use]
    pub fn recommend(
        &self,
        mix: &[(StarQuery, f64)],
        favoured: &[StarQuery],
    ) -> Vec<RankedFragmentation> {
        let schema = self.model.schema();
        let catalog = self.model.catalog().clone();

        // Step 2: dimensions referenced by the workload.
        let mut referenced: Vec<usize> = mix
            .iter()
            .flat_map(|(q, _)| q.dimensions())
            .chain(favoured.iter().flat_map(StarQuery::dimensions))
            .collect();
        referenced.sort_unstable();
        referenced.dedup();

        let mut ranked: Vec<RankedFragmentation> = enumerate_fragmentations(schema)
            .into_iter()
            .filter(|f| {
                !self.config.restrict_to_query_dimensions
                    || referenced.is_empty()
                    || f.attrs().iter().all(|a| referenced.contains(&a.dimension))
            })
            .filter_map(|f| {
                // Step 1: thresholds.
                let report = check_fragmentation(schema, &catalog, &self.config.constraints, &f);
                if !report.is_admissible() {
                    return None;
                }
                // Step 3: analytic I/O cost.
                let total_pages = self.model.mix_total_pages(&f, mix);
                let favoured_pages: f64 = favoured
                    .iter()
                    .map(|q| self.model.evaluate(&f, q).1.total_pages())
                    .sum();
                Some(RankedFragmentation {
                    fragments: f.fragment_count(),
                    bitmaps_required: report.bitmaps_required,
                    fragmentation: f,
                    total_pages,
                    favoured_pages,
                })
            })
            .collect();

        ranked.sort_by(|a, b| {
            let key_a = (a.favoured_pages, a.total_pages, a.fragments);
            let key_b = (b.favoured_pages, b.total_pages, b.fragments);
            key_a.partial_cmp(&key_b).expect("costs are finite")
        });
        ranked.truncate(self.config.top_k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    fn paper_mix(schema: &StarSchema) -> Vec<(StarQuery, f64)> {
        vec![
            (
                StarQuery::exact_match(schema, "1MONTH1GROUP", &["time::month", "product::group"]),
                1.0,
            ),
            (
                StarQuery::exact_match(schema, "1MONTH", &["time::month"]),
                1.0,
            ),
            (
                StarQuery::exact_match(schema, "1CODE", &["product::code"]),
                1.0,
            ),
            (
                StarQuery::exact_match(
                    schema,
                    "1CODE1QUARTER",
                    &["product::code", "time::quarter"],
                ),
                1.0,
            ),
        ]
    }

    #[test]
    fn recommends_time_product_fragmentations_for_time_product_mix() {
        let s = apb1_schema();
        let advisor = Advisor::new(s.clone(), AdvisorConfig::default());
        let ranked = advisor.recommend(&paper_mix(&s), &[]);
        assert!(!ranked.is_empty());
        // All candidates stay within the referenced dimensions (time/product)
        // and satisfy the thresholds.
        let time = s.dimension_index("time").unwrap();
        let product = s.dimension_index("product").unwrap();
        for r in &ranked {
            for a in r.fragmentation.attrs() {
                assert!(a.dimension == time || a.dimension == product);
            }
            assert!(r.fragments >= 100, "enough fragments for 100 disks");
            assert!(r.total_pages.is_finite() && r.total_pages > 0.0);
        }
        // Ranking is by total pages (no favoured queries).
        for pair in ranked.windows(2) {
            assert!(pair[0].total_pages <= pair[1].total_pages);
        }
    }

    #[test]
    fn favoured_queries_take_precedence() {
        let s = apb1_schema();
        let advisor = Advisor::new(
            s.clone(),
            AdvisorConfig {
                restrict_to_query_dimensions: false,
                top_k: 200,
                ..AdvisorConfig::default()
            },
        );
        let mix = paper_mix(&s);
        let favoured = vec![StarQuery::exact_match(&s, "1STORE", &["customer::store"])];
        let ranked = advisor.recommend(&mix, &favoured);
        assert!(!ranked.is_empty());
        // The best candidates for a favoured 1STORE query must fragment the
        // customer dimension (otherwise 1STORE touches every fragment).
        let customer = s.dimension_index("customer").unwrap();
        let best = &ranked[0];
        assert!(
            best.fragmentation.covers_dimension(customer),
            "best candidate {} does not cover customer",
            best.fragmentation.describe(&s)
        );
        // Ordered by favoured cost first.
        for pair in ranked.windows(2) {
            assert!(pair[0].favoured_pages <= pair[1].favoured_pages + 1e-9);
        }
    }

    #[test]
    fn inadmissible_candidates_are_filtered() {
        let s = apb1_schema();
        let advisor = Advisor::new(s.clone(), AdvisorConfig::default());
        let ranked = advisor.recommend(&paper_mix(&s), &[]);
        // F_MonthCode (345 600 fragments, 0.16-page bitmap fragments) must
        // never be recommended under the default thresholds.
        for r in &ranked {
            assert!(r.fragments <= 56_953, "{}", r.fragmentation.describe(&s));
            assert!(r.fragments != 345_600);
        }
    }

    #[test]
    fn top_k_limits_output() {
        let s = apb1_schema();
        let advisor = Advisor::new(
            s.clone(),
            AdvisorConfig {
                top_k: 3,
                ..AdvisorConfig::default()
            },
        );
        let ranked = advisor.recommend(&paper_mix(&s), &[]);
        assert!(ranked.len() <= 3);
    }

    #[test]
    fn empty_mix_still_returns_candidates() {
        let s = apb1_schema();
        let advisor = Advisor::new(
            s.clone(),
            AdvisorConfig {
                restrict_to_query_dimensions: true,
                ..AdvisorConfig::default()
            },
        );
        let ranked = advisor.recommend(&[], &[]);
        // With no queries every admissible fragmentation costs 0; the advisor
        // still returns (up to top_k) admissible candidates.
        assert!(!ranked.is_empty());
        for r in &ranked {
            assert_eq!(r.total_pages, 0.0);
        }
    }
}
