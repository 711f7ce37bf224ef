//! `exec` — a multi-threaded parallel star-join execution engine over MDHF
//! fragments.
//!
//! The repository validates the paper's claims through three pillars:
//!
//! 1. **analytically** — the [`mdhf`] cost model,
//! 2. **by simulation** — the `simpad` Shared Disk simulator,
//! 3. **physically** — *this crate*: real rows, real bitmaps, real threads,
//!    measured wall-clock speedup, and a deterministic simulated disk
//!    subsystem underneath the scan path ([`io`]).
//!
//! The pipeline mirrors §4.3 of the paper:
//!
//! * [`FragmentStore`] materialises a (scaled-down) fact table, partitions it
//!   under a [`mdhf::Fragmentation`] and builds *fragment-aligned* bitmap
//!   join indices per fragment, each bitmap stored in its
//!   [`bitmap::RepresentationPolicy`]-chosen representation (plain, WAH or
//!   Roaring; adaptive by default); [`FileStore`] serves the same fragments
//!   from a persistent `FGMT` file,
//! * [`QueryPlan`] prunes the fragment list via the MDHF classifier and
//!   annotates which predicates still need bitmap access,
//! * [`StarJoinEngine::run`] is the one execution path: a stream of plans
//!   is admitted under the [`RunConfig::mpl`] limit onto a *single shared*
//!   persistent worker pool — the calling thread plus long-lived helper
//!   threads over work-stealing deques (the paper's dynamic load balancing
//!   across processing elements), optionally seeded in
//!   [`allocation::PhysicalAllocation`] disk-affinity order.  Tasks from
//!   all in-flight queries interleave (tagged with query id and disk
//!   affinity); each worker runs bitmap-AND selection (a lone
//!   simple-index bitmap is iterated in its stored form, anything else is
//!   ANDed into a reused plain scratch bitmap in place, whatever the
//!   representation) and partial aggregation,
//!   and each query's partials are merged deterministically — results are
//!   bit-identical to the serial run for every worker count, MPL and
//!   representation policy.  The single-user mode is the same run at
//!   MPL 1, and [`StarJoinEngine::execute`] a stream of one query,
//! * [`ExecMetrics`] reports per-worker accounting and wall-clock speedup,
//!   [`ThroughputMetrics`] queries/sec, the latency distribution,
//!   utilisation, steals and the disk-affinity hit rate,
//! * [`SimulatedIo`] (optional, [`RunConfig::io`]) charges every
//!   fragment scan against per-disk FIFO service queues (track-based seek +
//!   transfer costs, each a [`storage::FcfsQueue`] under batch arrival)
//!   behind a shared LRU page cache — fragments finally *cost* something
//!   to read, steal victims are weighted by remaining simulated I/O (the
//!   skew-resilience path), and [`IoMetrics`] reports per-disk
//!   utilisation, queue depth and cache hit rates.
//!
//! # Quick start
//!
//! ```
//! use exec::{FragmentStore, RunConfig, StarJoinEngine};
//! use mdhf::Fragmentation;
//! use workload::{BoundQuery, QueryType};
//!
//! let schema = schema::apb1::apb1_scaled_down();
//! let fragmentation =
//!     Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
//! let engine = StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 2024));
//!
//! // One product group in every month: several fragments on two workers,
//! // the caller and a helper of the engine's persistent pool.
//! let query = QueryType::OneGroup.to_star_query(&schema);
//! let bound = BoundQuery::new(&schema, query, vec![1]);
//! let plan = engine.plan(&bound);
//! assert!(plan.fragments().len() > 1);
//!
//! let serial = engine.execute(&bound, &RunConfig::serial());
//! let config = RunConfig { workers: 2, ..RunConfig::default() };
//! let parallel = engine.execute(&bound, &config);
//! assert_eq!(serial.hits, parallel.hits);
//! assert_eq!(serial.measure_sums, parallel.measure_sums); // bit-identical
//!
//! // `execute` is `run` on a stream of one; MPL 4 admits up to four
//! // queries at a time onto the same two workers.
//! let stream = engine.run(&[plan.clone(), plan], &RunConfig { mpl: 4, ..config }, None);
//! assert_eq!(stream.queries[1].measure_sums, parallel.measure_sums);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod file;
pub mod io;
pub mod metrics;
mod pool;
mod queue;
pub mod scheduler;
pub mod source;
pub mod store;
mod sync;

pub use engine::{QueryResult, RunConfig, StarJoinEngine};
pub use file::{
    write_store, FileIoMetrics, FileStore, FileStoreOptions, StorageError, FORMAT_VERSION,
    PAGE_SIZE,
};
pub use io::{DiskIoStats, IoConfig, IoMetrics, NodeIoStats, ScanCtx, SimulatedIo, TaskIo};
pub use metrics::{ExecMetrics, ThroughputMetrics, WorkerMetrics};
pub use obs::ObsConfig;
pub use scheduler::{ScheduledQuery, StreamOutcome};
pub use source::{FragmentRef, ScanSource};
pub use store::{ColumnarFragment, FragmentStore};
pub use workload::{PredicateBinding, QueryPlan};
