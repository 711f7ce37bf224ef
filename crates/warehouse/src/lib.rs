//! `warehouse` — facade crate for the MDHF parallel data-warehouse
//! reproduction.
//!
//! This crate re-exports the public API of the whole workspace so that
//! examples, integration tests and downstream users need a single dependency:
//!
//! * [`schema`] — star-schema metadata and the APB-1 benchmark schema,
//! * [`bitmap`] — plain and hierarchically encoded bitmap join indices,
//! * [`mdhf`] — the multi-dimensional hierarchical fragmentation itself:
//!   query classification, thresholds, the analytic I/O cost model and the
//!   fragmentation advisor,
//! * [`allocation`] — round-robin / staggered physical disk allocation and
//!   declustering analysis,
//! * [`storage`] — disk service-time model and LRU buffer manager,
//! * [`workload`] — APB-1-style query types and generators,
//! * [`exec`] — the multi-threaded parallel star-join execution engine over
//!   materialised MDHF fragments (measured wall-clock speedup),
//! * [`obs`] — deterministic tracing and metrics exposition over the
//!   engine's simulated clock (Chrome `trace_event` + Prometheus text),
//! * [`simpad`] — the Shared Disk discrete-event simulator.
//!
//! # Quick start
//!
//! ```
//! use warehouse::prelude::*;
//!
//! // The paper's APB-1 configuration: 1.87 billion fact rows.
//! let schema = schema::apb1::apb1_schema();
//!
//! // The fragmentation used throughout the evaluation.
//! let fragmentation =
//!     Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
//! assert_eq!(fragmentation.fragment_count(), 11_520);
//!
//! // Classify a star query under it.
//! let query = StarQuery::exact_match(&schema, "1MONTH1GROUP",
//!                                    &["time::month", "product::group"]);
//! let classification = mdhf::classify(&schema, &fragmentation, &query);
//! assert_eq!(classification.fragments_to_process, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod session;

pub use allocation;
pub use bitmap;
pub use exec;
pub use mdhf;
pub use obs;
pub use schema;
pub use simpad;
pub use storage;
pub use workload;

pub use session::{AdmissionPolicy, Error, Session, SessionBuilder, Warehouse};

/// Convenient glob-import of the most frequently used types.
pub mod prelude {
    pub use crate::session::{
        AdmissionPolicy, Error as WarehouseError, Session, SessionBuilder, Warehouse,
    };
    pub use allocation::{
        node_load_shares, BitmapPlacement, NodePlacement, NodeStrategy, PhysicalAllocation,
    };
    pub use bitmap::{
        Bitmap, BitmapRepr, HierarchicalEncoding, IndexCatalog, ReprStats, RepresentationPolicy,
        RoaringBitmap, WahBitmap,
    };
    pub use exec::{
        DiskIoStats, ExecMetrics, FileIoMetrics, FileStore, FileStoreOptions, FragmentStore,
        IoConfig, IoMetrics, NodeIoStats, ObsConfig, QueryPlan, QueryResult, RunConfig, ScanSource,
        ScheduledQuery, SimulatedIo, StarJoinEngine, StreamOutcome, ThroughputMetrics,
    };
    pub use mdhf::{
        classify, Advisor, AdvisorConfig, CostModel, Fragmentation, IoClass, QueryClass, StarQuery,
        SubqueryFootprint,
    };
    pub use schema::{self, StarSchema};
    pub use simpad::{run_experiment, ExperimentSetup, SimConfig};
    pub use workload::{
        BoundQuery, InterleavedStream, QueryGenerator, QueryStream, QueryType, ZipfSampler,
    };
}

/// Compiles and runs the Rust snippets of the repository's README as
/// doctests, so the front-page examples cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let schema = schema::apb1::apb1_schema();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let catalog = IndexCatalog::default_for(&schema);
        let model = CostModel::new(schema.clone(), catalog);
        let query = QueryType::OneStore.to_star_query(&schema);
        let (classification, cost) = model.evaluate(&fragmentation, &query);
        assert_eq!(classification.io_class, IoClass::Ioc2NoSupp);
        assert!(cost.total_pages() > 1e6);
    }
}
