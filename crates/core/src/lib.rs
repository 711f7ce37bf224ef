//! `mdhf` — Multi-Dimensional Hierarchical Fragmentation for star schemas.
//!
//! This crate implements the primary contribution of *Stöhr, Märtens, Rahm:
//! "Multi-Dimensional Database Allocation for Parallel Data Warehouses"*
//! (VLDB 2000):
//!
//! * [`fragmentation::Fragmentation`] — an m-dimensional *point*
//!   fragmentation `F = {dim₁::level₁, …, dimₘ::levelₘ}` of the fact table,
//!   with the mapping between fragment numbers, fragment coordinates and fact
//!   rows (§4.1),
//! * [`query::StarQuery`] — the query model: exact-match selections on
//!   hierarchy attributes with aggregation over the fact table (§3),
//! * [`classify()`] — the query types **Q1–Q4** and I/O classes
//!   **IOC1 / IOC1-opt / IOC2 / IOC2-nosupp**, the set of fragments a query
//!   must process, and the bitmaps it still needs (§4.2, §4.5),
//! * [`thresholds`] — the fragmentation thresholds of §4.4, most importantly
//!   `n_max = N / (8 · PgSize · PrefetchGran)`,
//! * [`enumerate`] — enumeration of all candidate fragmentations of a schema
//!   and the Table 2 census under size constraints,
//! * [`footprint::SubqueryFootprint`] — what one subquery reads: fact
//!   pages, prefetch granules, bitmap fragments and relevant rows, the one
//!   count the cost model, SIMPAD and the engine's I/O charger share,
//! * [`cost`] — the analytic I/O cost model (re-derivation of the paper's
//!   companion report; validated against Table 3),
//! * [`advisor`] — the §4.7 guidelines packaged as a fragmentation advisor
//!   that ranks candidate fragmentations for a weighted query mix.
//!
//! # Quick start
//!
//! ```
//! use mdhf::{classify, Fragmentation, StarQuery};
//!
//! let schema = schema::apb1::apb1_schema();
//! let fragmentation =
//!     Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
//! assert_eq!(fragmentation.fragment_count(), 11_520);
//!
//! // The §3.1 sample query matches both fragmentation attributes exactly:
//! // a Q1 query processing a single fragment.
//! let query = StarQuery::exact_match(&schema, "1MONTH1GROUP",
//!                                    &["time::month", "product::group"]);
//! let classification = classify(&schema, &fragmentation, &query);
//! assert_eq!(classification.fragments_to_process, 1);
//! ```

#![forbid(unsafe_code)]

pub mod advisor;
pub mod classify;
pub mod cost;
pub mod enumerate;
pub mod footprint;
pub mod fragmentation;
pub mod query;
pub mod thresholds;

pub use advisor::{Advisor, AdvisorConfig, RankedFragmentation};
pub use classify::{classify, BitmapRequirement, Classification, IoClass, QueryClass};
pub use cost::{CostModel, CostParameters, MultiUserEstimate, QueryIoCost};
pub use enumerate::{enumerate_fragmentations, table2_census, Table2Row};
pub use footprint::SubqueryFootprint;
pub use fragmentation::{FragmentCoordinates, Fragmentation, FragmentationError};
pub use query::{Predicate, StarQuery};
pub use thresholds::{check_fragmentation, FragmentationConstraints, ThresholdReport};
