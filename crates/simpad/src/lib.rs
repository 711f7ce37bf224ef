//! `simpad` — a Rust re-implementation of the paper's SIMPAD simulator.
//!
//! SIMPAD ("Simulation of Parallel Databases") is the C++/CSIM simulation
//! system the paper uses to evaluate MDHF data allocations on a Shared Disk
//! parallel database system (§5).  This crate re-implements the described
//! model as an event-driven simulation: a deterministic event calendar,
//! seeded random streams, and disks and CPUs modelled as
//! [`storage::FcfsQueue`] servers:
//!
//! * **Hardware** — `d` disks with a track-based seek model and `p`
//!   processing nodes with 50-MIPS CPUs, an idealised contention-free network
//!   with size-proportional delays (Table 4),
//! * **Database** — the star schema, its MDHF fragmentation, the bitmap-index
//!   catalog and the physical disk allocation from the companion crates,
//! * **Query processing** — a coordinator node per query that builds a task
//!   list of per-fragment subqueries, assigns them round-robin to nodes with
//!   at most `t` concurrent tasks per node, and collects partial aggregates;
//!   each subquery reads its bitmap fragments (optionally in parallel on the
//!   staggered disks), then alternates prefetch-granule fact I/O with CPU
//!   processing (§4.3, §5),
//! * **Buffering** — LRU buffer pools for fact and bitmap pages with
//!   prefetching,
//! * **Workload** — single-user streams as in the paper, plus a closed
//!   multi-user extension.
//!
//! The top-level entry point is [`runner::run_experiment`], which executes a
//! number of query instances of one type and reports response-time and
//! utilisation statistics — the quantities plotted in Figures 3–6.
//!
//! # Quick start
//!
//! ```
//! use simpad::{run_experiment, ExperimentSetup, SimConfig};
//! use workload::QueryType;
//!
//! let schema = schema::apb1::apb1_scaled_down();
//! let fragmentation =
//!     mdhf::Fragmentation::parse(&schema, &["time::month"]).unwrap();
//! let config = SimConfig { disks: 8, nodes: 2, ..SimConfig::default() };
//! let setup =
//!     ExperimentSetup::new(schema, fragmentation, config, QueryType::OneMonth, 2);
//!
//! let summary = run_experiment(&setup);
//! assert_eq!(summary.queries.len(), 2);
//! assert!(summary.mean_response_ms > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
mod events;
pub mod metrics;
pub mod plan;
mod rng;
pub mod runner;
mod stats;
mod time;

pub use config::{InstructionCosts, SimConfig};
pub use engine::Engine;
pub use metrics::{QueryMetrics, RunSummary};
pub use plan::plan_query;
pub use runner::{run_experiment, ExperimentSetup};
