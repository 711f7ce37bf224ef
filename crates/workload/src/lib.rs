//! `workload` — APB-1-style star-query workload generation.
//!
//! The paper's query generator "creates a series of query structures that are
//! passed to the processing module … For a single simulation, all queries are
//! of the same type (e.g., 1STORE), but specific parameters are chosen at
//! random (e.g., the actual STORE selected)" (§5).
//!
//! * [`queries::QueryType`] — the named query types used in the evaluation
//!   (1STORE, 1MONTH, 1CODE, 1MONTH1GROUP, 1CODE1QUARTER, …) plus arbitrary
//!   custom shapes,
//! * [`bound::BoundQuery`] — a query *instance* with concrete attribute
//!   values, able to compute exactly which fact fragments it touches under a
//!   given fragmentation,
//! * [`plan::QueryPlan`] — an instance's pruned fragment list and the
//!   predicates that still need bitmap access: the one plan type the
//!   engine executes and SIMPAD simulates,
//! * [`generator::QueryGenerator`] — reproducible random instantiation and
//!   single-user / multi-user query streams,
//! * [`generator::InterleavedStream`] — a deterministic multi-type stream in
//!   admission (submission) order, the input of the concurrent scheduler,
//! * [`skew::ZipfSampler`] — deterministic Zipf(θ) value sampling behind
//!   both attribute-value-skewed query streams
//!   ([`QueryGenerator::with_value_skew`]) and selectivity-skewed fact
//!   tables (`exec::FragmentStore::build_skewed`).
//!
//! # Quick start
//!
//! ```
//! use workload::{QueryGenerator, QueryType};
//!
//! let schema = schema::apb1::apb1_scaled_down();
//! let mut generator = QueryGenerator::new(&schema, QueryType::OneMonthOneGroup, 7);
//! let query = generator.next_instance();
//! assert_eq!(query.values().len(), 2); // one month, one group — both bound
//!
//! // Generation is reproducible: the same seed yields the same instances.
//! let mut twin = QueryGenerator::new(&schema, QueryType::OneMonthOneGroup, 7);
//! assert_eq!(query.values(), twin.next_instance().values());
//! ```

#![forbid(unsafe_code)]

pub mod bound;
pub mod generator;
pub mod plan;
pub mod queries;
pub mod skew;

pub use bound::BoundQuery;
pub use generator::{InterleavedStream, QueryGenerator, QueryStream};
pub use plan::{PredicateBinding, QueryPlan};
pub use queries::QueryType;
pub use skew::ZipfSampler;
