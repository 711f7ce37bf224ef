//! The parallel star-join executor.
//!
//! [`StarJoinEngine`] executes planned queries over a [`ScanSource`] on a
//! persistent pool: the calling thread works as worker 0 next to up to
//! `workers − 1` long-lived helper threads, spawned on first need and
//! joined on drop.  [`StarJoinEngine::run`] is the one execution path (see
//! [`crate::scheduler`]): a stream of plans admitted under the
//! [`RunConfig::mpl`] limit, the physical counterpart of the paper's
//! dynamic assignment of fragment subqueries to processing elements; a
//! single query is a stream of one ([`StarJoinEngine::execute`]).  Each
//! worker evaluates its fragments' bitmap predicates in place, with no
//! heap allocation per fragment: a lone simple-index predicate iterates
//! its stored bitmap by borrow
//! ([`bitmap::MaterialisedIndex::simple_bitmap`]) — in its *compressed
//! domain* when that bitmap is stored WAH or roaring — and anything else
//! (several predicates, or an encoded-index selection) is ANDed into the
//! worker's reused scratch bitmap
//! ([`bitmap::MaterialisedIndex::and_selection_into`]).
//! The worker aggregates partial sums into its query's per-task slot —
//! selected rows in ascending row order, the IOC1 path's whole columns
//! in one fixed eight-lane order (`sum_column`) — and the partials are
//! merged *in plan order*, so the floating-point result is
//! **bit-identical for every worker count, MPL and representation
//! policy**.
//!
//! When a [`RunConfig::io`] is set, every fragment scan is charged
//! against the simulated disk subsystem ([`crate::io::SimulatedIo`]) —
//! deterministically, in plan order — and each task's simulated I/O time
//! becomes its steal weight (and, with a throttle, a real wall-clock
//! delay).  Each worker's initial deque chunk then follows the
//! subsystem's disk-affinity order
//! ([`PhysicalAllocation::subquery_disks`]) instead of naive fragment
//! order, so the pool starts on placement-aligned partitions.  The
//! charges never touch row evaluation, so results stay bit-identical with
//! the I/O layer on or off.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::thread;

use allocation::PhysicalAllocation;
use bitmap::{Bitmap, BitmapRepr};
use obs::{ObsConfig, Trace};
use workload::{BoundQuery, PredicateBinding, QueryPlan};

use crate::file::StorageError;
use crate::io::IoConfig;
use crate::metrics::ExecMetrics;
use crate::pool::WorkerPool;
use crate::scheduler::StreamOutcome;
use crate::source::ScanSource;
use crate::store::{ColumnarFragment, FragmentStore};

/// The configuration of one run: pool size, admission limit, simulated
/// I/O and tracing.  The default runs on the machine's available
/// parallelism, one query at a time, with the I/O layer and tracing off.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunConfig {
    /// Number of workers — the calling thread plus helpers of the engine's
    /// persistent pool; `0` resolves to the machine's available parallelism.
    pub workers: usize,
    /// Admission-control limit: the maximum number of queries decomposed
    /// into tasks at any time (the multi-programming level).  `0` runs
    /// as 1, the single-user regime ([`RunConfig::resolved_mpl`]).
    pub mpl: usize,
    /// Optional simulated disk subsystem: when set, fragment scans charge
    /// simulated I/O, tasks are steal-weighted by it and seeded in its
    /// placement's disk-affinity order, and [`ExecMetrics::io`] reports
    /// per-disk and cache statistics.  One fresh subsystem serves each run
    /// unless [`StarJoinEngine::run`] is handed an existing one.  Never
    /// affects results, only cost accounting and task order (and wall time
    /// when a throttle is configured).
    pub io: Option<IoConfig>,
    /// Deterministic tracing: when enabled, the run records typed events
    /// (query lifecycle, scans, disk service, per-worker task runs) into a
    /// bounded ring and returns them as [`StreamOutcome::trace`].  Never
    /// affects results or metrics; disabled is zero-cost.
    pub obs: ObsConfig,
}

impl RunConfig {
    /// The serial (1-worker) configuration — the speedup baseline.
    #[must_use]
    pub fn serial() -> Self {
        RunConfig {
            workers: 1,
            ..RunConfig::default()
        }
    }

    /// The configured pool size: `workers`, or the machine's available
    /// parallelism when `workers` is `0`.  Always at least 1.
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            thread::available_parallelism().map_or(1, NonZeroUsize::get)
        }
        .max(1)
    }

    /// The number of workers a run of `tasks` runnable tasks uses: the
    /// resolved worker count, clamped to the task count and to at least 1.
    ///
    /// Every run passes its *whole* task count (a pruned Q1 query runs
    /// inline and wakes no helper) and shares those workers across all
    /// in-flight queries — admitting more queries (MPL > 1) interleaves
    /// tasks instead of adding threads, so the machine is never
    /// over-subscribed.
    #[must_use]
    pub fn pool_size(&self, tasks: usize) -> usize {
        self.resolved_workers().min(tasks).max(1)
    }

    /// The effective multi-programming level: `mpl`, at least 1.  This is
    /// the one place `0` becomes 1; callers pass `mpl` through unclamped.
    #[must_use]
    pub fn resolved_mpl(&self) -> usize {
        self.mpl.max(1)
    }
}

/// The result of one query execution.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The executed query's diagnostic name.
    pub query_name: String,
    /// Number of fact rows satisfying all predicates.
    pub hits: u64,
    /// Sum per measure over all hit rows, in schema measure order.
    /// Bit-identical across worker counts (deterministic merge order).
    pub measure_sums: Vec<f64>,
    /// Execution metrics (per-worker accounting, wall clock).
    pub metrics: ExecMetrics,
    /// The recorded trace when [`RunConfig::obs`] was enabled.
    pub trace: Option<Trace>,
}

impl From<StreamOutcome> for QueryResult {
    /// A stream of one as that query's result, with the run's pool metrics
    /// and trace.  Of a longer stream only the first query's answer is
    /// kept; an empty stream reads as no hits.
    fn from(outcome: StreamOutcome) -> Self {
        let query = outcome.queries.into_iter().next().unwrap_or_default();
        QueryResult {
            query_name: query.query_name,
            hits: query.hits,
            measure_sums: query.measure_sums,
            metrics: outcome.metrics.pool,
            trace: outcome.trace,
        }
    }
}

/// What one fragment task produced besides its measure sums, which it
/// writes into a caller-owned slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FragmentPartial {
    pub(crate) rows: u64,
    pub(crate) hits: u64,
    /// Whether the selection ran fully in the compressed domain.
    pub(crate) compressed: bool,
}

/// Folds per-task measure sums — `measure_count` values per task, laid out
/// by plan position — into the query's measure sums, in ascending plan
/// order.
///
/// This is **the** deterministic merge: every completed query's partials
/// are folded through it, so float addition order — and therefore the
/// result bits — depends only on the plan, never on worker count, MPL or
/// scheduling interleave.
pub(crate) fn merge_partials(task_sums: &[f64], measure_count: usize) -> Vec<f64> {
    let mut measure_sums = vec![0.0f64; measure_count];
    if measure_count > 0 {
        for partial in task_sums.chunks_exact(measure_count) {
            for (acc, value) in measure_sums.iter_mut().zip(partial) {
                *acc += value;
            }
        }
    }
    measure_sums
}

/// A parallel star-join execution engine over a [`ScanSource`] — an
/// in-memory [`FragmentStore`] or a persistent [`crate::FileStore`] — and
/// its persistent worker pool, whose helpers concurrent calls share.
#[derive(Debug)]
pub struct StarJoinEngine {
    /// Shared with the runs in flight: pool helpers outlive any borrow.
    pub(crate) source: Arc<ScanSource>,
    pub(crate) pool: WorkerPool,
}

impl StarJoinEngine {
    /// Creates an engine over an in-memory `store`.
    #[must_use]
    pub fn new(store: FragmentStore) -> Self {
        Self::from_source(ScanSource::Memory(store))
    }

    /// Creates an engine over any scan source — in-memory or file-backed.
    /// Results are bit-identical across backings.
    #[must_use]
    pub fn from_source(source: impl Into<ScanSource>) -> Self {
        StarJoinEngine {
            source: Arc::new(source.into()),
            pool: WorkerPool::default(),
        }
    }

    /// The engine's scan source.
    #[must_use]
    pub fn source(&self) -> &ScanSource {
        &self.source
    }

    /// The underlying in-memory fragment store.
    ///
    /// # Panics
    ///
    /// Panics for a file-backed engine — use [`Self::source`] there.
    #[must_use]
    pub fn store(&self) -> &FragmentStore {
        self.source
            .as_memory()
            .expect("engine is file-backed; use StarJoinEngine::source()")
    }

    /// Plans `bound` against the source's schema and fragmentation.
    #[must_use]
    pub fn plan(&self, bound: &BoundQuery) -> QueryPlan {
        QueryPlan::new(self.source.schema(), self.source.fragmentation(), bound)
    }

    /// Plans and runs `bound` alone: [`Self::run`] on a stream of one.
    #[must_use]
    pub fn execute(&self, bound: &BoundQuery, config: &RunConfig) -> QueryResult {
        self.run(std::slice::from_ref(&self.plan(bound)), config, None)
            .into()
    }
}

/// The disk-affinity task permutation: tasks sorted (stably) by the disk
/// set their fragment subquery touches under `placement`, so contiguous
/// queue chunks map to contiguous slices of the physical allocation.
pub(crate) fn placement_seed_order(
    plan: &QueryPlan,
    catalog: &bitmap::IndexCatalog,
    placement: &PhysicalAllocation,
) -> Vec<usize> {
    let bitmap_count = plan.classification().bitmaps_per_subquery(catalog);
    let mut tasks: Vec<usize> = (0..plan.fragments().len()).collect();
    tasks
        .sort_by_cached_key(|&task| placement.subquery_disks(plan.fragments()[task], bitmap_count));
    tasks
}

/// Evaluates one fragment: bitmap-AND selection (or the IOC1 whole-fragment
/// fast path) followed by partial aggregation of every measure into
/// `sums`, one value per measure.  `scratch` is the calling worker's
/// selection buffer, reused across its tasks: once it has grown to the
/// largest fragment, a task allocates nothing.  The partial's
/// `compressed` flag is set exactly when a lone simple-index predicate
/// iterated a compressed stored bitmap.
///
/// Only the predicates' indices are read, so a fragment loaded from a file
/// decodes those and no other.
///
/// # Errors
///
/// As [`ColumnarFragment::try_bitmap_index`], for a predicate's index.
pub(crate) fn process_fragment(
    fragment: &ColumnarFragment,
    bitmap_predicates: &[PredicateBinding],
    scratch: &mut Bitmap,
    sums: &mut [f64],
) -> Result<FragmentPartial, StorageError> {
    sums.fill(0.0);
    let rows = fragment.len() as u64;
    let partial = |hits, compressed| {
        Ok(FragmentPartial {
            rows,
            hits,
            compressed,
        })
    };
    if fragment.is_empty() {
        return partial(0, false);
    }
    if bitmap_predicates.is_empty() {
        // IOC1 fast path (§4.5): fragment pruning already guarantees every
        // row of this fragment matches — aggregate whole measure columns
        // without touching an index.
        for (measure, sum) in sums.iter_mut().enumerate() {
            *sum = sum_column(fragment.measure_column(measure));
        }
        return partial(rows, false);
    }
    if let [only] = bitmap_predicates {
        if let Some(selection) = fragment
            .try_bitmap_index(only.dimension)?
            .simple_bitmap(only.level, only.value)
        {
            // The stored bitmap is the selection: iterate it in place.
            return partial(
                aggregate_selection(fragment, selection, sums),
                selection.is_compressed(),
            );
        }
    }
    scratch.reset_ones(fragment.len());
    for p in bitmap_predicates {
        fragment
            .try_bitmap_index(p.dimension)?
            .and_selection_into(p.level, p.value, scratch);
    }
    partial(aggregate(fragment, scratch.iter_ones(), sums), false)
}

/// [`aggregate`] over a selection in any representation, monomorphised per
/// representation rather than through a boxed iterator.
fn aggregate_selection(
    fragment: &ColumnarFragment,
    selection: &BitmapRepr,
    sums: &mut [f64],
) -> u64 {
    match selection {
        BitmapRepr::Plain(b) => aggregate(fragment, b.iter_ones(), sums),
        BitmapRepr::Wah(w) => aggregate(fragment, w.iter_ones(), sums),
        BitmapRepr::Roaring(r) => aggregate(fragment, r.iter_ones(), sums),
    }
}

/// Sums a whole column in the engine's one order for that job: eight
/// striped lanes (lane `i` adds elements `8k + i` over `chunks_exact(8)`),
/// the fixed fold `((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))`, then
/// the tail added in order.  The order depends on the column's length
/// alone, so a fragment's sum has the same bits on every worker, MPL,
/// backing and representation.  The lanes are independent chains, so
/// they run side by side where one accumulator waits on every add, and
/// each value passes through at most `n / 8 + 10` roundings instead of
/// `n`, which shrinks the error bound by the same factor.
pub(crate) fn sum_column(column: &[f64]) -> f64 {
    let chunks = column.chunks_exact(8);
    let tail = chunks.remainder();
    let mut lanes = [0.0f64; 8];
    for chunk in chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane += x;
        }
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    let folded = ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7));
    tail.iter().fold(folded, |sum, &x| sum + x)
}

/// Adds every matching row's measures into `sums` and returns the hit
/// count.  Every selected-row path ends here (the IOC1 path sums whole
/// columns with [`sum_column`] instead), and each measure's additions run
/// in ascending row order, so the sums are bit-identical whichever path
/// and representation selected the rows.
fn aggregate(
    fragment: &ColumnarFragment,
    matching: impl Iterator<Item = usize>,
    sums: &mut [f64],
) -> u64 {
    let mut hits = 0u64;
    for row in matching {
        hits += 1;
        for (measure, sum) in sums.iter_mut().enumerate() {
            *sum += fragment.measure_column(measure)[row];
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdhf::Fragmentation;
    use schema::apb1::apb1_scaled_down;
    use schema::StarSchema;
    use workload::QueryType;

    fn engine() -> (StarSchema, StarJoinEngine) {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let store = FragmentStore::build(&schema, &fragmentation, 2024);
        (schema, StarJoinEngine::new(store))
    }

    /// Brute-force ground truth over the same generated table.
    fn brute_force(schema: &StarSchema, bound: &BoundQuery) -> (u64, Vec<f64>) {
        let table = bitmap::MaterialisedFactTable::generate(schema, 2024);
        let mut predicates: Vec<Option<std::ops::Range<u64>>> =
            vec![None; schema.dimension_count()];
        for (pred, &value) in bound.query().predicates().iter().zip(bound.values()) {
            let hierarchy = schema.dimensions()[pred.attr.dimension].hierarchy();
            predicates[pred.attr.dimension] = Some(hierarchy.leaf_range_of(pred.attr.level, value));
        }
        let matching = table.scan(&predicates);
        let mut sums = vec![0.0f64; schema.fact().measures().len()];
        for &row in &matching {
            for (measure, sum) in sums.iter_mut().enumerate() {
                *sum += table.rows()[row].measures[measure];
            }
        }
        (matching.len() as u64, sums)
    }

    #[test]
    fn serial_results_match_brute_force_for_all_query_types() {
        let (schema, engine) = engine();
        for (query_type, values) in [
            (QueryType::OneStore, vec![7]),
            (QueryType::OneMonth, vec![5]),
            (QueryType::OneCode, vec![65]),
            (QueryType::OneMonthOneGroup, vec![3, 1]),
            (QueryType::OneCodeOneQuarter, vec![100, 2]),
            (QueryType::OneGroup, vec![9]),
            (QueryType::OneQuarter, vec![1]),
            (QueryType::OneGroupOneStore, vec![4, 11]),
        ] {
            let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
            let result = engine.execute(&bound, &RunConfig::serial());
            let (expected_hits, expected_sums) = brute_force(&schema, &bound);
            assert_eq!(result.hits, expected_hits, "{}", result.query_name);
            // The generated measures are whole numbers, whose sums are
            // exact in any order: the bits must agree.
            for (got, want) in result.measure_sums.iter().zip(&expected_sums) {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}: measure sum {got} != {want}",
                    result.query_name
                );
            }
        }
    }

    /// [`sum_column`]'s order written out index by index: element `i` of
    /// the first `8 * (n / 8)` goes to lane `i % 8`, then the fold, then
    /// the tail.
    fn lane_order_reference(column: &[f64]) -> f64 {
        let body = column.len() - column.len() % 8;
        let mut lanes = [0.0f64; 8];
        for (i, &x) in column[..body].iter().enumerate() {
            lanes[i % 8] += x;
        }
        let mut sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
        for &x in &column[body..] {
            sum += x;
        }
        sum
    }

    /// Neumaier-compensated sum: a reference far more accurate than any
    /// plain summation order.
    fn compensated_sum(column: &[f64]) -> f64 {
        let (mut sum, mut compensation) = (0.0f64, 0.0f64);
        for &x in column {
            let t = sum + x;
            compensation += if sum.abs() >= x.abs() {
                (sum - t) + x
            } else {
                (x - t) + sum
            };
            sum = t;
        }
        sum + compensation
    }

    #[test]
    fn sum_column_follows_the_documented_lane_order() {
        let lengths =
            (0usize..=17).chain((1..=5).flat_map(|k| (0..8).map(move |r| 8 * 97 * k + r)));
        let mut order_sensitive = 0;
        for n in lengths {
            // Mixed signs and magnitudes of non-dyadic fractions, so that
            // another order would round differently.
            let column: Vec<f64> = (0..n)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0 * 10f64.powi((i % 5) as i32 - 2))
                .collect();
            let sum = sum_column(&column);
            assert_eq!(
                sum.to_bits(),
                lane_order_reference(&column).to_bits(),
                "length {n}"
            );
            let serial: f64 = column.iter().fold(0.0, |acc, &x| acc + x);
            order_sensitive += usize::from(serial.to_bits() != sum.to_bits());
        }
        assert!(order_sensitive > 0, "the data cannot tell the orders apart");
    }

    #[test]
    fn sum_column_is_exact_on_whole_numbers() {
        // The generated stores' measures: whole numbers in 1..=1000.
        for n in [0usize, 1, 7, 8, 9, 1_000, 54_321] {
            let column: Vec<f64> = (0..n).map(|i| (i * 7_919 % 1_000 + 1) as f64).collect();
            let exact: u64 = (0..n).map(|i| (i * 7_919 % 1_000 + 1) as u64).sum();
            assert_eq!(
                sum_column(&column).to_bits(),
                (exact as f64).to_bits(),
                "length {n}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On fractional columns the kernel repeats its bits, matches the
        /// written-out order, and stays within `n·ε·Σ|x|` of a compensated
        /// reference.
        #[test]
        fn prop_sum_column_is_deterministic_and_within_the_error_bound(
            column in proptest::collection::vec(-1_000.0f64..1_000.0, 0..10_000),
        ) {
            let sum = sum_column(&column);
            proptest::prop_assert_eq!(sum.to_bits(), sum_column(&column).to_bits());
            proptest::prop_assert_eq!(sum.to_bits(), lane_order_reference(&column).to_bits());
            let magnitude: f64 = column.iter().map(|x| x.abs()).sum();
            let bound = column.len() as f64 * f64::EPSILON * magnitude;
            let error = (sum - compensated_sum(&column)).abs();
            proptest::prop_assert!(error <= bound, "error {} above bound {}", error, bound);
        }
    }

    #[test]
    fn parallel_results_are_bit_identical_to_serial() {
        let (schema, engine) = engine();
        for (query_type, values) in [
            (QueryType::OneStore, vec![13]),
            (QueryType::OneMonth, vec![2]),
            (QueryType::OneCodeOneQuarter, vec![31, 3]),
        ] {
            let bound = BoundQuery::new(&schema, query_type.to_star_query(&schema), values);
            let serial = engine.execute(&bound, &RunConfig::serial());
            for workers in [2usize, 3, 4, 8] {
                let parallel = engine.execute(
                    &bound,
                    &RunConfig {
                        workers,
                        ..RunConfig::default()
                    },
                );
                assert_eq!(parallel.hits, serial.hits);
                let serial_bits: Vec<u64> =
                    serial.measure_sums.iter().map(|s| s.to_bits()).collect();
                let parallel_bits: Vec<u64> =
                    parallel.measure_sums.iter().map(|s| s.to_bits()).collect();
                assert_eq!(
                    parallel_bits, serial_bits,
                    "{} with {workers} workers",
                    serial.query_name
                );
            }
        }
    }

    #[test]
    fn metrics_account_for_every_planned_fragment() {
        let (schema, engine) = engine();
        let bound = BoundQuery::new(&schema, QueryType::OneStore.to_star_query(&schema), vec![0]);
        let result = engine.execute(
            &bound,
            &RunConfig {
                workers: 4,
                ..RunConfig::default()
            },
        );
        assert_eq!(result.metrics.worker_count(), 4);
        assert_eq!(
            result.metrics.total_fragments(),
            result.metrics.planned_fragments
        );
        assert_eq!(
            result.metrics.planned_fragments as u64,
            engine.store().fragmentation().fragment_count()
        );
        assert_eq!(
            result.metrics.total_rows_scanned(),
            engine.store().total_rows() as u64
        );
        assert!(result.metrics.wall.as_nanos() > 0);
        assert!(result.metrics.load_imbalance() >= 1.0);
    }

    #[test]
    fn ioc1_fast_path_needs_no_bitmaps_and_counts_whole_fragments() {
        let (schema, engine) = engine();
        let bound = BoundQuery::new(
            &schema,
            QueryType::OneMonthOneGroup.to_star_query(&schema),
            vec![3, 1],
        );
        let plan = engine.plan(&bound);
        assert!(plan.bitmap_predicates().is_empty());
        let result = engine.execute(&bound, &RunConfig::serial());
        let fragment = engine.store().fragment(plan.fragments()[0]);
        assert_eq!(result.hits, fragment.len() as u64);
    }

    #[test]
    fn config_resolution() {
        assert_eq!(RunConfig::serial().resolved_workers(), 1);
        assert_eq!(
            RunConfig {
                workers: 6,
                ..RunConfig::default()
            }
            .resolved_workers(),
            6
        );
        assert!(RunConfig::default().resolved_workers() >= 1);
        // The shared pool-sizing rule: clamped to the task count, never 0.
        assert_eq!(
            RunConfig {
                workers: 8,
                ..RunConfig::default()
            }
            .pool_size(3),
            3
        );
        assert_eq!(
            RunConfig {
                workers: 2,
                ..RunConfig::default()
            }
            .pool_size(100),
            2
        );
        assert_eq!(
            RunConfig {
                workers: 5,
                ..RunConfig::default()
            }
            .pool_size(0),
            1
        );
        assert!(RunConfig::default().pool_size(64) >= 1);
        // The one MPL clamp: 0 admits one query at a time.
        assert_eq!(RunConfig::default().resolved_mpl(), 1);
        assert_eq!(
            RunConfig {
                mpl: 3,
                ..RunConfig::default()
            }
            .resolved_mpl(),
            3
        );
        assert_eq!(RunConfig::default().io, None);
        let placed = RunConfig {
            workers: 2,
            io: Some(IoConfig::with_disks(8)),
            ..RunConfig::default()
        };
        assert_eq!(
            placed.io.map(|io| *io.placement.allocation()),
            Some(PhysicalAllocation::round_robin(8))
        );
    }

    #[test]
    fn placement_seeding_changes_order_not_results() {
        let (schema, engine) = engine();
        let bound = BoundQuery::new(&schema, QueryType::OneStore.to_star_query(&schema), vec![7]);
        let plan = engine.plan(&bound);
        let placement = PhysicalAllocation::round_robin(10);
        let order = placement_seed_order(&plan, engine.store().catalog(), &placement);
        // The order is a permutation of all tasks, grouped by leading disk.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..plan.fragments().len()).collect::<Vec<_>>());
        assert_ne!(order, sorted, "disk-affinity order should reorder tasks");
        let k = plan
            .classification()
            .bitmaps_per_subquery(engine.store().catalog());
        let first_disks: Vec<Vec<u64>> = order
            .iter()
            .map(|&t| placement.subquery_disks(plan.fragments()[t], k))
            .collect();
        assert!(first_disks.windows(2).all(|w| w[0] <= w[1]));

        // Seeding never changes the result bits.
        let baseline = engine.execute(
            &bound,
            &RunConfig {
                workers: 4,
                ..RunConfig::default()
            },
        );
        let placed = engine.execute(
            &bound,
            &RunConfig {
                workers: 4,
                io: Some(IoConfig::with_allocation(placement)),
                ..RunConfig::default()
            },
        );
        assert_eq!(placed.hits, baseline.hits);
        let baseline_bits: Vec<u64> = baseline.measure_sums.iter().map(|s| s.to_bits()).collect();
        let placed_bits: Vec<u64> = placed.measure_sums.iter().map(|s| s.to_bits()).collect();
        assert_eq!(placed_bits, baseline_bits);
    }

    #[test]
    fn forced_wah_store_runs_selections_in_the_compressed_domain() {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let store = FragmentStore::build_with_policy(
            &schema,
            &fragmentation,
            2024,
            bitmap::RepresentationPolicy::Wah,
        );
        let engine = StarJoinEngine::new(store);
        // 1STORE hits the simple customer index: all selections compressed.
        let bound = BoundQuery::new(&schema, QueryType::OneStore.to_star_query(&schema), vec![7]);
        let result = engine.execute(&bound, &RunConfig::serial());
        assert_eq!(
            result.metrics.total_compressed(),
            result.metrics.total_fragments()
        );

        // The adaptive default store returns identical bits either way.
        let adaptive = StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 2024));
        let adaptive_result = adaptive.execute(&bound, &RunConfig::serial());
        assert_eq!(adaptive_result.hits, result.hits);
        let a: Vec<u64> = adaptive_result
            .measure_sums
            .iter()
            .map(|s| s.to_bits())
            .collect();
        let b: Vec<u64> = result.measure_sums.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn forced_roaring_store_runs_selections_in_the_compressed_domain() {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        let store = FragmentStore::build_with_policy(
            &schema,
            &fragmentation,
            2024,
            bitmap::RepresentationPolicy::Roaring,
        );
        let engine = StarJoinEngine::new(store);
        // 1STORE hits the simple customer index: every selection iterates
        // its stored roaring bitmap in the compressed domain.
        let bound = BoundQuery::new(&schema, QueryType::OneStore.to_star_query(&schema), vec![7]);
        let result = engine.execute(&bound, &RunConfig::serial());
        assert_eq!(
            result.metrics.total_compressed(),
            result.metrics.total_fragments()
        );

        // Same bits as the forced-WAH store and the plain store.
        for policy in [
            bitmap::RepresentationPolicy::Plain,
            bitmap::RepresentationPolicy::Wah,
        ] {
            let other = StarJoinEngine::new(FragmentStore::build_with_policy(
                &schema,
                &fragmentation,
                2024,
                policy,
            ));
            let other_result = other.execute(&bound, &RunConfig::serial());
            assert_eq!(other_result.hits, result.hits);
            let a: Vec<u64> = other_result
                .measure_sums
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let b: Vec<u64> = result.measure_sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn io_layer_changes_metrics_but_never_results() {
        let (schema, engine) = engine();
        let bound = BoundQuery::new(&schema, QueryType::OneStore.to_star_query(&schema), vec![7]);
        let baseline = engine.execute(
            &bound,
            &RunConfig {
                workers: 4,
                ..RunConfig::default()
            },
        );
        assert!(baseline.metrics.io.is_none());

        let io = crate::io::IoConfig::with_disks(10).cache(256);
        let with_io = engine.execute(
            &bound,
            &RunConfig {
                workers: 4,
                io: Some(io),
                ..RunConfig::default()
            },
        );
        assert_eq!(with_io.hits, baseline.hits);
        let a: Vec<u64> = baseline.measure_sums.iter().map(|s| s.to_bits()).collect();
        let b: Vec<u64> = with_io.measure_sums.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b);

        let io_metrics = with_io.metrics.io.as_ref().expect("I/O metrics populated");
        assert_eq!(io_metrics.disk_count(), 10);
        assert!(io_metrics.total_pages_read() > 0);
        assert!(io_metrics.elapsed_ms > 0.0);
        assert!(with_io.metrics.disk_imbalance() >= 1.0);
        // Every worker's simulated I/O sums to the charged total; 1STORE
        // needs bitmaps, so bitmap pages were charged too.
        let charged: f64 = io_metrics.per_disk.iter().map(|d| d.busy_ms).sum();
        assert!((with_io.metrics.total_sim_io_ms() - charged).abs() < 1e-6);
        let scans: u64 = io_metrics.per_disk.iter().map(|d| d.scans).sum();
        assert!(scans as usize > with_io.metrics.planned_fragments);
    }

    #[test]
    fn io_charging_is_deterministic_for_identical_configs() {
        let (schema, engine) = engine();
        let bound = BoundQuery::new(&schema, QueryType::OneCode.to_star_query(&schema), vec![65]);
        let config = RunConfig {
            workers: 3,
            io: Some(crate::io::IoConfig::with_disks(7).cache(128)),
            ..RunConfig::default()
        };
        let a = engine.execute(&bound, &config);
        let b = engine.execute(&bound, &config);
        assert_eq!(a.metrics.io, b.metrics.io);
    }

    #[test]
    fn shared_io_subsystem_keeps_cache_state_across_queries() {
        let (schema, engine) = engine();
        let bound = BoundQuery::new(&schema, QueryType::OneMonth.to_star_query(&schema), vec![3]);
        let plan = engine.plan(&bound);
        let config = RunConfig {
            workers: 2,
            ..RunConfig::default()
        };
        let io = crate::io::SimulatedIo::new(
            crate::io::IoConfig::with_disks(4).cache(100_000),
            engine.store().schema(),
        );
        let plans = std::slice::from_ref(&plan);
        let cold = engine.run(plans, &config, Some(&io));
        let warm = engine.run(plans, &config, Some(&io));
        assert_eq!(warm.queries[0].hits, cold.queries[0].hits);
        let cold_io = cold.metrics.pool.io.unwrap();
        let warm_io = warm.metrics.pool.io.unwrap();
        // The second pass found every page in the shared cache: cumulative
        // pages read did not grow and the hit rate jumped.
        assert_eq!(warm_io.total_pages_read(), cold_io.total_pages_read());
        assert!(warm_io.cache_hit_rate() > cold_io.cache_hit_rate());
    }

    /// The rows of `fragment` whose key on `dimension` rolls up to `value`
    /// at `level`, read off the key column — independent of every index.
    fn rows_matching(
        schema: &StarSchema,
        fragment: &ColumnarFragment,
        dimension: usize,
        level: usize,
        value: u64,
    ) -> bitmap::Bitmap {
        let leaves = schema.dimensions()[dimension]
            .hierarchy()
            .leaf_range_of(level, value);
        let keys = fragment.key_column(dimension);
        bitmap::Bitmap::from_positions(
            keys.len(),
            (0..keys.len()).filter(|&row| leaves.contains(&keys[row])),
        )
    }

    /// Sums `rows`' measures in ascending row order — the reference the
    /// engine's in-place selection paths must reproduce bit for bit.
    fn reference_sums(fragment: &ColumnarFragment, rows: &bitmap::Bitmap) -> (u64, Vec<u64>) {
        let mut sums = [0.0f64; 3];
        for row in rows.iter_ones() {
            for (measure, sum) in sums.iter_mut().enumerate() {
                *sum += fragment.measure_column(measure)[row];
            }
        }
        (
            rows.count_ones() as u64,
            sums.iter().map(|s| s.to_bits()).collect(),
        )
    }

    #[test]
    fn in_place_selection_equals_key_scan_for_every_index_value() {
        let schema = apb1_scaled_down();
        let mut scratch = Bitmap::new(0);
        // The APB-1 fact table's three measures.
        let mut sums = vec![0.0f64; 3];
        assert_eq!(schema.fact().measures().len(), sums.len());
        let mut empty_fragments = 0;
        // Month x code x channel leaves ~2 rows a fragment, many of them
        // empty; channel alone leaves a few big fragments.  Every
        // representation policy puts the stored bitmaps in another form.
        for (attrs, policy) in [
            (
                &["time::month", "product::code", "channel::channel"][..],
                bitmap::RepresentationPolicy::default(),
            ),
            (
                &["channel::channel"],
                bitmap::RepresentationPolicy::default(),
            ),
            (&["channel::channel"], bitmap::RepresentationPolicy::Plain),
            (&["channel::channel"], bitmap::RepresentationPolicy::Wah),
            (&["channel::channel"], bitmap::RepresentationPolicy::Roaring),
        ] {
            let fragmentation = Fragmentation::parse(&schema, attrs).unwrap();
            let store = FragmentStore::build_with_policy(&schema, &fragmentation, 2024, policy);
            for fragment in store.fragments() {
                empty_fragments += usize::from(fragment.is_empty());
                let mut bindings = Vec::new();
                for dimension in 0..schema.dimension_count() {
                    let index = fragment.bitmap_index(dimension);
                    let hierarchy = schema.dimensions()[dimension].hierarchy();
                    for level in 0..hierarchy.depth() {
                        for value in 0..hierarchy.cardinality(level) {
                            let expected =
                                rows_matching(&schema, fragment, dimension, level, value);
                            assert_eq!(index.select(level, value), expected);
                            scratch.reset_ones(fragment.len());
                            index.and_selection_into(level, value, &mut scratch);
                            assert_eq!(scratch, expected, "{attrs:?} d{dimension} {level}={value}");
                            let binding = PredicateBinding {
                                dimension,
                                level,
                                value,
                                needs_bitmap: true,
                            };
                            let partial =
                                process_fragment(fragment, &[binding], &mut scratch, &mut sums)
                                    .unwrap();
                            let got = sums.iter().map(|s| s.to_bits()).collect();
                            assert_eq!(
                                (partial.hits, got),
                                reference_sums(fragment, &expected),
                                "{attrs:?} {policy:?} d{dimension} {level}={value}"
                            );
                            if value == 1 {
                                bindings.push(binding);
                            }
                        }
                    }
                }
                // Every pair of these predicates, simple and encoded alike,
                // goes through the scratch fold.
                let key_scan = |p: &PredicateBinding| {
                    rows_matching(&schema, fragment, p.dimension, p.level, p.value)
                };
                for (i, a) in bindings.iter().enumerate() {
                    for b in &bindings[i + 1..] {
                        let expected = key_scan(a).and(&key_scan(b));
                        let partial =
                            process_fragment(fragment, &[*a, *b], &mut scratch, &mut sums).unwrap();
                        let got = sums.iter().map(|s| s.to_bits()).collect();
                        assert_eq!(
                            (partial.hits, got),
                            reference_sums(fragment, &expected),
                            "{attrs:?} {policy:?} {a:?} x {b:?}"
                        );
                    }
                }
            }
        }
        assert!(empty_fragments > 0, "no empty fragment was exercised");
    }

    #[test]
    fn empty_plan_yields_zero_result() {
        let (schema, engine) = engine();
        // A store fragmented on month only, queried for a month with no rows?
        // Instead: a valid query whose fragment happens to be empty still
        // returns zeros rather than panicking; emulate by executing over a
        // fragmentation-pruned single empty fragment if one exists.
        if let Some(empty) = engine.store().fragments().iter().find(|f| f.is_empty()) {
            let coords = engine
                .store()
                .fragmentation()
                .coordinates(empty.fragment_number());
            let bound = BoundQuery::new(
                &schema,
                QueryType::OneMonthOneGroup.to_star_query(&schema),
                vec![coords.0[0], coords.0[1]],
            );
            let result = engine.execute(&bound, &RunConfig::serial());
            assert_eq!(result.hits, 0);
            assert!(result.measure_sums.iter().all(|&s| s == 0.0));
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use mdhf::Fragmentation;
    use proptest::prelude::*;
    use schema::apb1::Apb1Config;
    use workload::QueryType;

    /// A deliberately tiny schema so each proptest case (store build + four
    /// executions) stays fast in debug builds.
    fn tiny_schema() -> schema::StarSchema {
        Apb1Config {
            channels: 3,
            months: 6,
            stores: 16,
            product_codes: 24,
            density: 0.2,
            fact_tuple_bytes: 20,
        }
        .build()
    }

    const FRAGMENTATIONS: [&[&str]; 5] = [
        &["time::month"],
        &["time::month", "product::group"],
        &["product::group"],
        &["time::quarter", "product::division"],
        &["time::month", "product::code", "channel::channel"],
    ];

    const POLICIES: [bitmap::RepresentationPolicy; 4] = [
        bitmap::RepresentationPolicy::Plain,
        bitmap::RepresentationPolicy::Wah,
        bitmap::RepresentationPolicy::Roaring,
        bitmap::RepresentationPolicy::Adaptive {
            max_density: bitmap::RepresentationPolicy::DEFAULT_MAX_DENSITY,
        },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For random fragmentations, query types, bound values and all of
        /// the {Plain, Wah, Roaring, Adaptive} representation policies, the
        /// parallel
        /// engine returns exactly (bit-identically) the serial result for k
        /// workers in {1, 2, 8}.
        #[test]
        fn prop_parallel_equals_serial(
            frag_idx in 0usize..FRAGMENTATIONS.len(),
            type_idx in 0usize..5,
            raw_values in proptest::collection::vec(0u64..100_000, 2),
            seed in 1u64..1_000,
            policy_idx in 0usize..POLICIES.len(),
        ) {
            let schema = tiny_schema();
            let fragmentation =
                Fragmentation::parse(&schema, FRAGMENTATIONS[frag_idx]).unwrap();
            let store = FragmentStore::build_with_policy(
                &schema,
                &fragmentation,
                seed,
                POLICIES[policy_idx],
            );
            let engine = StarJoinEngine::new(store);

            let query_type = QueryType::standard_mix()[type_idx].clone();
            let shape = query_type.to_star_query(&schema);
            let values: Vec<u64> = shape
                .predicates()
                .iter()
                .zip(raw_values.iter().chain(std::iter::repeat(&0)))
                .map(|(p, &raw)| raw % p.attr.cardinality(&schema))
                .collect();
            let bound = BoundQuery::new(&schema, shape, values);

            let serial = engine.execute(&bound, &RunConfig { workers: 1, ..RunConfig::default() });
            for workers in [2usize, 8] {
                let parallel = engine.execute(&bound, &RunConfig { workers, ..RunConfig::default() });
                prop_assert_eq!(parallel.hits, serial.hits);
                let serial_bits: Vec<u64> =
                    serial.measure_sums.iter().map(|s| s.to_bits()).collect();
                let parallel_bits: Vec<u64> =
                    parallel.measure_sums.iter().map(|s| s.to_bits()).collect();
                prop_assert_eq!(parallel_bits, serial_bits);
                prop_assert_eq!(
                    parallel.metrics.total_fragments(),
                    serial.metrics.total_fragments()
                );
            }
        }

        /// With the simulated I/O layer enabled, serial and parallel
        /// results stay bit-identical on *selectivity-skewed* stores for
        /// every skew factor θ ∈ {0, 0.5, 1} and disk count ∈ {1, 4, 8} —
        /// the I/O charges and skew-aware steal weights must never leak
        /// into row evaluation.
        #[test]
        fn prop_io_layer_preserves_bits_under_skew(
            theta_idx in 0usize..3,
            disks_idx in 0usize..3,
            type_idx in 0usize..5,
            raw_values in proptest::collection::vec(0u64..100_000, 2),
            seed in 1u64..1_000,
            cache_pages in 0usize..512,
        ) {
            let theta = [0.0f64, 0.5, 1.0][theta_idx];
            let disks = [1u64, 4, 8][disks_idx];
            let schema = tiny_schema();
            let fragmentation =
                Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
            let store =
                FragmentStore::build_skewed(&schema, &fragmentation, seed, theta, 4_000);
            let engine = StarJoinEngine::new(store);

            let query_type = QueryType::standard_mix()[type_idx].clone();
            let shape = query_type.to_star_query(&schema);
            let values: Vec<u64> = shape
                .predicates()
                .iter()
                .zip(raw_values.iter().chain(std::iter::repeat(&0)))
                .map(|(p, &raw)| raw % p.attr.cardinality(&schema))
                .collect();
            let bound = BoundQuery::new(&schema, shape, values);

            let io = crate::io::IoConfig::with_disks(disks).cache(cache_pages);
            let serial = engine.execute(&bound, &RunConfig { workers: 1, io: Some(io), ..RunConfig::default() });
            for workers in [2usize, 8] {
                let parallel =
                    engine.execute(&bound, &RunConfig { workers, io: Some(io), ..RunConfig::default() });
                prop_assert_eq!(parallel.hits, serial.hits);
                let serial_bits: Vec<u64> =
                    serial.measure_sums.iter().map(|s| s.to_bits()).collect();
                let parallel_bits: Vec<u64> =
                    parallel.measure_sums.iter().map(|s| s.to_bits()).collect();
                prop_assert_eq!(parallel_bits, serial_bits);
                // The deterministic replay also makes the I/O metrics
                // identical across worker counts.
                prop_assert_eq!(
                    parallel.metrics.io.as_ref(),
                    serial.metrics.io.as_ref()
                );
            }
        }

    }
}
