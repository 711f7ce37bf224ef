//! The warehouse session API: one typed entry point over both storage
//! backings.
//!
//! [`Warehouse`] owns a star-join engine over either an in-memory
//! [`FragmentStore`] or a persistent `FGMT` file ([`Warehouse::open`]);
//! [`Warehouse::session`] returns a [`SessionBuilder`] that gathers every
//! execution knob — worker count, simulated I/O and its placement,
//! deterministic tracing, admission policy — and [`SessionBuilder::build`]
//! freezes them into a [`Session`] whose [`Session::execute`] and
//! [`Session::stream`] run queries with bit-identical results across
//! backings, worker counts and admission policies.
//!
//! ```
//! use warehouse::prelude::*;
//!
//! let schema = schema::apb1::apb1_scaled_down();
//! let fragmentation =
//!     Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
//! let warehouse = Warehouse::in_memory(FragmentStore::build(&schema, &fragmentation, 2024));
//! let session = warehouse.session().workers(2).build();
//!
//! let query = QueryType::OneMonthOneGroup.to_star_query(&schema);
//! let bound = BoundQuery::new(&schema, query, vec![3, 1]);
//! let parallel = session.execute(&bound);
//! let serial = warehouse.session().workers(1).build().execute(&bound);
//! assert_eq!(parallel.hits, serial.hits);
//! assert_eq!(parallel.measure_sums, serial.measure_sums); // bit-identical
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

use allocation::NodePlacement;
use bitmap::ReprDecodeError;
use exec::{
    write_store, FileStore, FileStoreOptions, FragmentStore, IoConfig, QueryPlan, QueryResult,
    RunConfig, ScanSource, StarJoinEngine, StorageError, StreamOutcome,
};
use obs::ObsConfig;
use workload::BoundQuery;

/// Everything that can go wrong opening, reading or configuring a
/// warehouse.
///
/// Structural damage surfaces as a typed [`Error::Corrupt`] before any
/// query runs:
///
/// ```
/// use warehouse::{Error, Warehouse};
///
/// let path = std::env::temp_dir().join(format!("doc_corrupt_{}.fgmt", std::process::id()));
/// std::fs::write(&path, b"not an FGMT fragment file").unwrap();
/// match Warehouse::open(&path) {
///     Err(Error::Corrupt(what)) => assert!(!what.is_empty()),
///     other => panic!("expected a corruption error, got {other:?}"),
/// }
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub enum Error {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A stored bitmap's `BMRP` encoding did not decode.
    Decode(ReprDecodeError),
    /// The file's structure is invalid: bad magic, unsupported version,
    /// checksum mismatch, truncation, or an out-of-bounds directory.
    Corrupt(String),
    /// The request itself is invalid (e.g. a zero-page cache).
    Config(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Decode(e) => write!(f, "bitmap decode error: {e}"),
            Error::Corrupt(what) => write!(f, "corrupt fragment file: {what}"),
            Error::Config(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Decode(e) => Some(e),
            Error::Corrupt(_) | Error::Config(_) => None,
        }
    }
}

impl From<StorageError> for Error {
    fn from(error: StorageError) -> Self {
        match error {
            StorageError::Io(e) => Error::Io(e),
            StorageError::Decode(e) => Error::Decode(e),
            StorageError::Corrupt(what) => Error::Corrupt(what),
            StorageError::Config(what) => Error::Config(what),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(error: std::io::Error) -> Self {
        Error::Io(error)
    }
}

/// How a [`Session`]'s multi-query stream admits work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// One query in flight at a time (single-user regime): the stream
    /// degenerates to back-to-back executions on the shared pool.
    Exclusive,
    /// Up to `max_in_flight` queries decomposed into tasks concurrently —
    /// the paper's multi-user MPL knob.
    Concurrent {
        /// The multi-programming level; a run treats `0` as 1
        /// ([`RunConfig::resolved_mpl`]).
        max_in_flight: usize,
    },
}

impl AdmissionPolicy {
    /// The multi-programming level this policy asks for: 1 under
    /// [`AdmissionPolicy::Exclusive`], `max_in_flight` as given otherwise.
    /// It is not clamped here; [`RunConfig::resolved_mpl`] is the one clamp
    /// and runs `0` at 1.
    #[must_use]
    pub fn mpl(&self) -> usize {
        match self {
            AdmissionPolicy::Exclusive => 1,
            AdmissionPolicy::Concurrent { max_in_flight } => *max_in_flight,
        }
    }
}

/// A queryable warehouse: a star-join engine over an in-memory or
/// persistent fragment store.
#[derive(Debug)]
pub struct Warehouse {
    engine: StarJoinEngine,
}

impl Warehouse {
    /// Opens a persistent warehouse from an `FGMT` fragment file written by
    /// [`Warehouse::save`] (or [`exec::write_store`]).  The whole file
    /// structure — magic, version, checksums, page directory — is verified
    /// before any query runs.
    ///
    /// ```
    /// use warehouse::prelude::*;
    ///
    /// let schema = schema::apb1::apb1_scaled_down();
    /// let fragmentation = Fragmentation::parse(&schema, &["time::month"]).unwrap();
    /// let path = std::env::temp_dir().join(format!("doc_open_{}.fgmt", std::process::id()));
    /// Warehouse::in_memory(FragmentStore::build(&schema, &fragmentation, 7))
    ///     .save(&path)
    ///     .unwrap();
    ///
    /// let warehouse = Warehouse::open(&path).unwrap();
    /// let query = QueryType::OneMonth.to_star_query(&schema);
    /// let bound = BoundQuery::new(&schema, query, vec![2]);
    /// let session = warehouse.session().workers(2).build();
    /// let result = session.execute(&bound);
    /// let serial = warehouse.session().build().execute(&bound);
    /// assert_eq!(result.hits, serial.hits);
    /// assert_eq!(result.measure_sums, serial.measure_sums); // bit-identical
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the file cannot be read, [`Error::Corrupt`] if its
    /// structure or checksums do not verify, [`Error::Decode`] if a stored
    /// bitmap does not decode.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, Error> {
        Ok(Warehouse {
            engine: StarJoinEngine::from_source(FileStore::open(path)?),
        })
    }

    /// [`Warehouse::open`] with explicit buffer-manager options (page-cache
    /// capacity, open-time verification).
    ///
    /// # Errors
    ///
    /// As [`Warehouse::open`], plus [`Error::Config`] for invalid options.
    pub fn open_with(path: impl AsRef<Path>, options: FileStoreOptions) -> Result<Self, Error> {
        Ok(Warehouse {
            engine: StarJoinEngine::from_source(FileStore::open_with(path, options)?),
        })
    }

    /// A warehouse over an in-memory fragment store.
    #[must_use]
    pub fn in_memory(store: FragmentStore) -> Self {
        Warehouse {
            engine: StarJoinEngine::new(store),
        }
    }

    /// Serialises the warehouse's fragments to an `FGMT` file at `path`.
    /// A file-backed warehouse is materialised (fully read back) first, so
    /// this also works as a verified copy.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if writing fails; for a file-backed warehouse also any
    /// error of the read-back.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), Error> {
        match self.engine.source() {
            ScanSource::Memory(store) => write_store(store, path)?,
            ScanSource::File(file) => write_store(&file.materialise()?, path)?,
        }
        Ok(())
    }

    /// The engine's scan source (backing storage plus metadata).
    #[must_use]
    pub fn source(&self) -> &ScanSource {
        self.engine.source()
    }

    /// The file path behind this warehouse, when file-backed.
    #[must_use]
    pub fn path(&self) -> Option<PathBuf> {
        self.source().as_file().map(|f| f.path().to_path_buf())
    }

    /// Plans `bound` against the warehouse's schema and fragmentation.
    #[must_use]
    pub fn plan(&self, bound: &BoundQuery) -> QueryPlan {
        self.engine.plan(bound)
    }

    /// Starts configuring a session: serial, no simulated I/O, no tracing,
    /// exclusive admission.
    #[must_use]
    pub fn session(&self) -> SessionBuilder<'_> {
        SessionBuilder {
            warehouse: self,
            config: RunConfig {
                mpl: AdmissionPolicy::Exclusive.mpl(),
                ..RunConfig::serial()
            },
        }
    }
}

/// Collects a [`Session`]'s execution knobs into its [`RunConfig`]; made
/// by [`Warehouse::session`].
#[derive(Debug)]
pub struct SessionBuilder<'a> {
    warehouse: &'a Warehouse,
    config: RunConfig,
}

impl<'a> SessionBuilder<'a> {
    /// Worker-pool size; `0` resolves to the machine's available
    /// parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Charges fragment scans against a simulated disk subsystem, and seeds
    /// worker queues in its placement's disk-affinity order.
    #[must_use]
    pub fn io(mut self, io: IoConfig) -> Self {
        self.config.io = Some(io);
        self
    }

    /// Spreads the session over `placement`'s simulated nodes: fragment
    /// scans are charged against the placement's node-owned disks (each
    /// node with its own page cache; shared-nothing cross-node reads pay
    /// the simulated interconnect), the stream scheduler deals tasks to
    /// their home node's workers, and worker queues are seeded in the
    /// placement's disk-affinity order.  Results stay bit-identical to the
    /// single-node session for every node count and strategy.
    ///
    /// Replaces the placement of any previously set [`SessionBuilder::io`]
    /// configuration, keeping its other knobs.
    #[must_use]
    pub fn nodes(mut self, placement: NodePlacement) -> Self {
        self.config.io = Some(IoConfig {
            placement,
            ..self.config.io.unwrap_or(IoConfig::with_nodes(placement))
        });
        self
    }

    /// Records a deterministic trace of every run.
    #[must_use]
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.config.obs = obs;
        self
    }

    /// Sets the multi-query admission policy used by [`Session::stream`].
    #[must_use]
    pub fn policy(mut self, policy: AdmissionPolicy) -> Self {
        self.config.mpl = policy.mpl();
        self
    }

    /// Freezes the configuration into an executable [`Session`].
    #[must_use]
    pub fn build(self) -> Session<'a> {
        Session {
            warehouse: self.warehouse,
            config: self.config,
        }
    }
}

/// An executable session: a frozen configuration over a [`Warehouse`].
#[derive(Debug)]
pub struct Session<'a> {
    warehouse: &'a Warehouse,
    config: RunConfig,
}

impl Session<'_> {
    /// The session's frozen run configuration; its MPL is the admission
    /// policy's.
    #[must_use]
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Plans and executes one query: a stream of one.  Results are
    /// bit-identical for every worker count, placement, I/O configuration,
    /// admission policy and storage backing.
    #[must_use]
    pub fn execute(&self, bound: &BoundQuery) -> QueryResult {
        self.warehouse.engine.execute(bound, &self.config)
    }

    /// Executes an existing plan (re-planning is the expensive part of
    /// repeated-query experiments).
    #[must_use]
    pub fn execute_plan(&self, plan: &QueryPlan) -> QueryResult {
        (self.warehouse.engine)
            .run(std::slice::from_ref(plan), &self.config, None)
            .into()
    }

    /// Plans, admits and executes a stream of queries concurrently on one
    /// shared worker pool under the session's [`AdmissionPolicy`].
    #[must_use]
    pub fn stream(&self, queries: &[BoundQuery]) -> StreamOutcome {
        let plans: Vec<QueryPlan> = queries.iter().map(|q| self.warehouse.plan(q)).collect();
        self.warehouse.engine.run(&plans, &self.config, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdhf::Fragmentation;
    use std::sync::atomic::{AtomicU64, Ordering};
    use workload::QueryType;

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("fgmt_wh_{}_{tag}_{n}.fgmt", std::process::id()))
    }

    struct TempFile(PathBuf);

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn store() -> (schema::StarSchema, FragmentStore) {
        let schema = schema::apb1::apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let store = FragmentStore::build(&schema, &fragmentation, 2024);
        (schema, store)
    }

    #[test]
    fn file_backed_session_matches_in_memory_bits() {
        let (schema, store) = store();
        let guard = TempFile(temp_path("roundtrip"));
        let memory = Warehouse::in_memory(store);
        memory.save(&guard.0).unwrap();
        let disk = Warehouse::open(&guard.0).unwrap();
        assert_eq!(disk.path().as_deref(), Some(guard.0.as_path()));
        assert_eq!(memory.path(), None);

        for (query_type, values) in [
            (QueryType::OneStore, vec![7u64]),
            (QueryType::OneMonthOneGroup, vec![3, 1]),
            (QueryType::OneCode, vec![65]),
        ] {
            let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
            let mem_result = memory.session().workers(2).build().execute(&bound);
            let disk_result = disk.session().workers(2).build().execute(&bound);
            assert_eq!(disk_result.hits, mem_result.hits);
            let mem_bits: Vec<u64> = mem_result
                .measure_sums
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let disk_bits: Vec<u64> = disk_result
                .measure_sums
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(disk_bits, mem_bits, "{}", mem_result.query_name);
            assert!(mem_result.metrics.file.is_none());
            let file = disk_result.metrics.file.expect("file metrics populated");
            assert!(file.pool.misses > 0 || file.decoded_cache_hits > 0);
        }
    }

    #[test]
    fn streams_run_under_the_admission_policy() {
        let (schema, store) = store();
        let warehouse = Warehouse::in_memory(store);
        let queries: Vec<BoundQuery> = [
            (QueryType::OneStore, vec![7u64]),
            (QueryType::OneGroup, vec![4]),
            (QueryType::OneMonthOneGroup, vec![3, 1]),
        ]
        .into_iter()
        .map(|(t, v)| BoundQuery::new(&schema, t.to_star_query(&schema), v))
        .collect();
        let session = warehouse
            .session()
            .workers(2)
            .policy(AdmissionPolicy::Concurrent { max_in_flight: 2 })
            .build();
        assert_eq!(session.config().mpl, 2);
        let outcome = session.stream(&queries);
        assert_eq!(outcome.queries.len(), queries.len());
        assert_eq!(outcome.metrics.mpl, 2);
        for (bound, scheduled) in queries.iter().zip(&outcome.queries) {
            let serial = warehouse.session().build().execute(bound);
            assert_eq!(scheduled.hits, serial.hits);
            assert_eq!(scheduled.measure_sums, serial.measure_sums);
        }
    }

    #[test]
    fn single_user_policies_give_one_run() {
        assert_eq!(RunConfig::default().resolved_mpl(), 1);
        let (schema, store) = store();
        let warehouse = Warehouse::in_memory(store);
        let reference = reference(&warehouse, &schema);
        let queries: Vec<BoundQuery> = reference.iter().map(|(b, _, _)| b.clone()).collect();
        let mut digests = Vec::new();
        for policy in [
            AdmissionPolicy::Exclusive,
            AdmissionPolicy::Concurrent { max_in_flight: 0 },
            AdmissionPolicy::Concurrent { max_in_flight: 1 },
        ] {
            let session = warehouse
                .session()
                .workers(2)
                .obs(ObsConfig::enabled())
                .policy(policy)
                .build();
            assert_eq!(session.config().resolved_mpl(), 1, "{policy:?}");
            let outcome = session.stream(&queries);
            assert_eq!(outcome.metrics.mpl, 1);
            for (scheduled, (_, hits, bits)) in outcome.queries.iter().zip(&reference) {
                assert_eq!(scheduled.hits, *hits);
                let got: Vec<u64> = scheduled.measure_sums.iter().map(|s| s.to_bits()).collect();
                assert_eq!(&got, bits, "{policy:?}: {}", scheduled.query_name);
            }
            digests.push(outcome.trace.map(|trace| trace.digest()));
        }
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
    }

    #[test]
    fn multi_node_sessions_stay_bit_identical_and_attribute_nodes() {
        let (schema, store) = store();
        let warehouse = Warehouse::in_memory(store);
        let bound = BoundQuery::new(
            &schema,
            QueryType::OneStore.to_star_query(&schema),
            vec![7u64],
        );
        let serial = warehouse.session().build().execute(&bound);
        for nodes in [2u64, 4] {
            let placement = NodePlacement::new(nodes, 2, allocation::NodeStrategy::SharedNothing);
            let session = warehouse.session().workers(4).nodes(placement).build();
            assert_eq!(
                session.config().io.map(|io| io.placement.nodes()),
                Some(nodes)
            );
            let result = session.execute(&bound);
            assert_eq!(result.hits, serial.hits);
            assert_eq!(result.measure_sums, serial.measure_sums);
            let io = result.metrics.io.expect("node I/O metrics");
            assert_eq!(io.node_count(), nodes as usize);
            assert!(io.total_net_pages() > 0, "{nodes}-node run crossed nodes");
        }
        // The nodes knob keeps a previously set I/O configuration's other
        // fields (cache size) while replacing its allocation and topology.
        let placement = NodePlacement::new(2, 3, allocation::NodeStrategy::SharedDisk);
        let session = warehouse
            .session()
            .io(IoConfig::with_disks(4).cache(9_999))
            .nodes(placement)
            .build();
        let io = session.config().io.expect("io configured");
        assert_eq!(io.cache_pages, 9_999);
        assert_eq!(io.placement, placement);
        assert_eq!(io.placement.nodes(), 2);
        assert_eq!(io.disks(), 6);
    }

    /// A mix of valid queries and their serial result bits.
    fn reference(
        warehouse: &Warehouse,
        schema: &schema::StarSchema,
    ) -> Vec<(BoundQuery, u64, Vec<u64>)> {
        [
            (QueryType::OneStore, vec![7u64]),
            (QueryType::OneGroup, vec![4]),
            (QueryType::OneMonthOneGroup, vec![3, 1]),
            (QueryType::OneCode, vec![65]),
            (QueryType::OneQuarter, vec![2]),
        ]
        .into_iter()
        .map(|(t, v)| {
            let bound = BoundQuery::new(schema, t.to_star_query(schema), v);
            let serial = warehouse.session().build().execute(&bound);
            let bits = serial.measure_sums.iter().map(|s| s.to_bits()).collect();
            (bound, serial.hits, bits)
        })
        .collect()
    }

    /// A query bound against the full APB-1 schema whose store is out of
    /// range for the scaled-down store, so each of its fragment tasks
    /// panics in bitmap selection.  Planning succeeds: the store is not a
    /// fragmentation attribute.  With `one_fragment` the query also pins a
    /// month and a product group, so it prunes to a single task — which
    /// panics on one worker while the others carry on.
    fn panicking_query(one_fragment: bool) -> BoundQuery {
        let big = schema::apb1::apb1_schema();
        let attrs: &[&str] = if one_fragment {
            &["time::month", "product::group", "customer::store"]
        } else {
            &["customer::store"]
        };
        let shape = mdhf::StarQuery::exact_match(&big, "BAD", attrs);
        let store = shape.predicates()[attrs.len() - 1].attr.cardinality(&big) - 1;
        let mut values = vec![0; attrs.len() - 1];
        values.push(store);
        BoundQuery::new(&big, shape, values)
    }

    /// Checks every reference query on `session`, `rounds` times, and once
    /// more as a stream.
    fn assert_session_answers(
        session: &Session<'_>,
        reference: &[(BoundQuery, u64, Vec<u64>)],
        rounds: usize,
    ) {
        for (bound, hits, bits) in reference.iter().cycle().take(rounds) {
            let result = session.execute(bound);
            assert_eq!(result.hits, *hits, "{}", result.query_name);
            let got: Vec<u64> = result.measure_sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(&got, bits, "{}", result.query_name);
        }
        let queries: Vec<BoundQuery> = reference.iter().map(|(b, _, _)| b.clone()).collect();
        let outcome = session.stream(&queries);
        for (scheduled, (_, hits, bits)) in outcome.queries.iter().zip(reference) {
            assert_eq!(scheduled.hits, *hits);
            let got: Vec<u64> = scheduled.measure_sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(&got, bits, "{}", scheduled.query_name);
        }
    }

    /// Runs `f` on its own thread and fails if it has not finished within
    /// a minute — a hung pool fails the test instead of the whole suite.
    fn within_a_minute(f: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => worker.join().expect("test body"),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // The body panicked: surface its payload.
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("hung for a minute"),
        }
    }

    #[test]
    fn a_panicking_execute_leaves_the_pool_usable() {
        within_a_minute(|| {
            let (schema, store) = store();
            let warehouse = Warehouse::in_memory(store);
            let reference = reference(&warehouse, &schema);
            let session = warehouse.session().workers(2).build();
            let bad = panicking_query(false);
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.execute(&bad)));
            assert!(caught.is_err(), "the caller re-raises the task panic");
            assert_session_answers(&session, &reference, 100);
        });
    }

    #[test]
    fn a_panicking_stream_query_neither_hangs_nor_kills_the_pool() {
        within_a_minute(|| {
            let (schema, store) = store();
            let warehouse = Warehouse::in_memory(store);
            let reference = reference(&warehouse, &schema);
            let session = warehouse
                .session()
                .workers(2)
                .policy(AdmissionPolicy::Concurrent { max_in_flight: 2 })
                .build();
            let mut queries: Vec<BoundQuery> =
                reference.iter().map(|(b, _, _)| b.clone()).collect();
            queries.insert(2, panicking_query(true));
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.stream(&queries)));
            assert!(caught.is_err(), "the caller re-raises the task panic");
            assert_session_answers(&session, &reference, 100);
        });
    }

    #[test]
    fn concurrent_callers_share_one_pool_bit_identically() {
        within_a_minute(|| {
            let (schema, store) = store();
            let warehouse = Warehouse::in_memory(store);
            let reference = reference(&warehouse, &schema);
            let session = warehouse.session().workers(2).build();
            std::thread::scope(|scope| {
                for caller in 0..4 {
                    let (session, reference) = (&session, &reference);
                    scope.spawn(move || {
                        for (bound, hits, bits) in reference.iter().cycle().skip(caller).take(50) {
                            let result = session.execute(bound);
                            assert_eq!(result.hits, *hits);
                            let got: Vec<u64> =
                                result.measure_sums.iter().map(|s| s.to_bits()).collect();
                            assert_eq!(&got, bits, "caller {caller}: {}", result.query_name);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn open_surfaces_typed_errors() {
        let missing = Warehouse::open("/nonexistent/definitely/absent.fgmt");
        assert!(matches!(missing, Err(Error::Io(_))));
        let (_, store) = store();
        let guard = TempFile(temp_path("badopts"));
        let memory = Warehouse::in_memory(store);
        memory.save(&guard.0).unwrap();
        let zero_cache = Warehouse::open_with(
            &guard.0,
            FileStoreOptions {
                cache_pages: 0,
                ..FileStoreOptions::default()
            },
        );
        match zero_cache {
            Err(Error::Config(what)) => assert!(what.contains("cache")),
            other => panic!("expected Config error, got {other:?}"),
        }
        let display = Error::Corrupt("truncated".into()).to_string();
        assert!(display.contains("corrupt") && display.contains("truncated"));
    }
}
