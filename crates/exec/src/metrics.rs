//! Execution metrics: per-worker accounting, wall-clock speedup,
//! multi-user throughput statistics, and — when the simulated disk layer is
//! active — per-disk utilisation, queue-depth and cache statistics.

use std::sync::OnceLock;
use std::time::Duration;

use crate::io::IoMetrics;

/// What one worker did during a query execution.
#[derive(Debug, Clone, Default)]
pub struct WorkerMetrics {
    /// The worker's index within the pool.
    pub worker: usize,
    /// Fragments processed in total.
    pub fragments_processed: usize,
    /// Fragments obtained by stealing from another worker's deque.
    pub fragments_stolen: usize,
    /// Fragments whose bitmap selection ran entirely in the compressed
    /// (WAH) domain.
    pub fragments_compressed: usize,
    /// Fact rows inspected (whole-fragment aggregation and bitmap hits both
    /// count every aggregated row).
    pub rows_scanned: u64,
    /// Fact rows that satisfied all predicates.
    pub rows_matched: u64,
    /// Simulated I/O time of the tasks this worker executed, in ms (0 when
    /// the I/O layer is off).
    pub sim_io_ms: f64,
    /// Tasks this worker executed although their fragment's home node is a
    /// different simulated node — inter-node work migration under the
    /// shared-nothing multi-node scheduler (always 0 in single-node runs).
    pub tasks_migrated: usize,
    /// Migrated tasks whose fragment was not yet replicated on this
    /// worker's node: the first cross-node pull ships a replica (a
    /// wall-clock charge); later migrations of the same fragment hit it.
    pub fragments_replicated: usize,
    /// Summed wall time of the tasks this worker executed (idle waiting
    /// excluded), on every entry point.
    pub busy: Duration,
}

/// Metrics of one query execution on a worker pool.
#[derive(Debug, Clone)]
pub struct ExecMetrics {
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerMetrics>,
    /// Wall-clock time of the whole execution (planning excluded).
    pub wall: Duration,
    /// Number of fragments the plan selected.
    pub planned_fragments: usize,
    /// Simulated disk subsystem snapshot — per-disk utilisation, queue
    /// depth and cache hit/miss statistics — when an
    /// [`crate::io::IoConfig`] was active; `None` otherwise.  For runs
    /// sharing one [`crate::io::SimulatedIo`] across queries the snapshot
    /// is cumulative up to this query's completion.
    pub io: Option<IoMetrics>,
    /// Real file-I/O snapshot — page-pool hits, segment reads, bytes read —
    /// when the engine scans a persistent [`crate::FileStore`]; `None` for
    /// in-memory engines.  Cumulative over the file store's lifetime, like
    /// `io` over a shared subsystem.
    pub file: Option<crate::file::FileIoMetrics>,
}

impl ExecMetrics {
    /// Size of the worker pool.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Fragments processed across all workers — must equal
    /// `planned_fragments` after a completed run.
    #[must_use]
    pub fn total_fragments(&self) -> usize {
        self.workers.iter().map(|w| w.fragments_processed).sum()
    }

    /// Fragments that changed owner through stealing.
    #[must_use]
    pub fn total_stolen(&self) -> usize {
        self.workers.iter().map(|w| w.fragments_stolen).sum()
    }

    /// Fragments whose selection stayed in the compressed domain.
    #[must_use]
    pub fn total_compressed(&self) -> usize {
        self.workers.iter().map(|w| w.fragments_compressed).sum()
    }

    /// Tasks executed off their fragment's home node (shared-nothing
    /// inter-node migration); 0 in single-node runs.
    #[must_use]
    pub fn total_migrated(&self) -> usize {
        self.workers.iter().map(|w| w.tasks_migrated).sum()
    }

    /// First-time cross-node fragment pulls that shipped a replica; 0 in
    /// single-node runs.
    #[must_use]
    pub fn total_replicated(&self) -> usize {
        self.workers.iter().map(|w| w.fragments_replicated).sum()
    }

    /// Fact rows aggregated across all workers.
    #[must_use]
    pub fn total_rows_scanned(&self) -> u64 {
        self.workers.iter().map(|w| w.rows_scanned).sum()
    }

    /// Simulated I/O time charged across all workers, in ms (0 when the
    /// I/O layer is off).
    #[must_use]
    pub fn total_sim_io_ms(&self) -> f64 {
        self.workers.iter().map(|w| w.sim_io_ms).sum()
    }

    /// Measured per-disk load imbalance of the simulated subsystem
    /// ([`IoMetrics::disk_imbalance`]); 1.0 when the I/O layer is off.
    #[must_use]
    pub fn disk_imbalance(&self) -> f64 {
        self.io.as_ref().map_or(1.0, IoMetrics::disk_imbalance)
    }

    /// Hit rate of the simulated shared page cache; 0 when the I/O layer
    /// is off.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.io.as_ref().map_or(0.0, IoMetrics::cache_hit_rate)
    }

    /// Wall-clock speedup of this run relative to `baseline` (usually the
    /// 1-worker run of the same plan).
    #[must_use]
    pub fn speedup_vs(&self, baseline: &ExecMetrics) -> f64 {
        baseline.wall.as_secs_f64() / self.wall.as_secs_f64().max(f64::EPSILON)
    }

    /// Load imbalance: the busiest worker's busy time over the mean busy
    /// time.  1.0 is perfect balance; large values mean the pool idled.
    #[must_use]
    pub fn load_imbalance(&self) -> f64 {
        let busiest = self
            .workers
            .iter()
            .map(|w| w.busy.as_secs_f64())
            .fold(0.0f64, f64::max);
        let mean = self
            .workers
            .iter()
            .map(|w| w.busy.as_secs_f64())
            .sum::<f64>()
            / self.workers.len().max(1) as f64;
        if mean <= f64::EPSILON {
            1.0
        } else {
            busiest / mean
        }
    }
}

/// Metrics of one multi-user scheduler run: the shared pool's aggregate
/// accounting plus per-query latency statistics — the paper's multi-user
/// throughput quantities (queries/sec, response-time distribution, worker
/// utilisation, steal and disk-affinity rates).
#[derive(Debug, Clone)]
pub struct ThroughputMetrics {
    /// Aggregate pool accounting over the whole run.  `planned_fragments`
    /// is the total task count across all executed queries, and each
    /// worker's `busy` is the sum of its per-task processing times.  Its
    /// `wall` clock starts after the planning pass, which also charges
    /// simulated I/O when that layer is on, so queries/sec and utilisation
    /// cover execution only.
    pub pool: ExecMetrics,
    /// Number of queries that ran to completion.
    pub queries_completed: usize,
    /// Per-query latency (admission → completion), in submission order.
    pub latencies: Vec<Duration>,
    /// The admission-control limit (MPL) the run was admitted under.
    pub mpl: usize,
    /// `latencies` sorted ascending, built once on the first percentile
    /// query instead of on every call.
    sorted: OnceLock<Vec<Duration>>,
}

impl ThroughputMetrics {
    /// Assembles the run's metrics from the pool accounting and the
    /// per-query latencies (in submission order).
    #[must_use]
    pub fn new(
        pool: ExecMetrics,
        queries_completed: usize,
        latencies: Vec<Duration>,
        mpl: usize,
    ) -> Self {
        ThroughputMetrics {
            pool,
            queries_completed,
            latencies,
            mpl,
            sorted: OnceLock::new(),
        }
    }

    /// Completed queries per second of wall-clock time — the multi-user
    /// throughput metric of the paper's SIMPAD experiments.
    #[must_use]
    pub fn queries_per_sec(&self) -> f64 {
        self.queries_completed as f64 / self.pool.wall.as_secs_f64().max(f64::EPSILON)
    }

    /// Mean per-query latency.
    #[must_use]
    pub fn latency_mean(&self) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        self.latencies.iter().sum::<Duration>() / self.latencies.len() as u32
    }

    /// The `p`-th latency percentile (nearest rank over the sorted
    /// latencies); `p` is clamped to `[0, 100]`.
    ///
    /// The sorted order is computed once and cached — sweeping many
    /// percentiles (p50/p95/p99/p999 per run) no longer clones and re-sorts
    /// the latency vector per call.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let sorted = self.sorted.get_or_init(|| {
            let mut sorted = self.latencies.clone();
            sorted.sort_unstable();
            sorted
        });
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        sorted[rank.round() as usize]
    }

    /// The median latency.
    #[must_use]
    pub fn latency_p50(&self) -> Duration {
        self.latency_percentile(50.0)
    }

    /// The 95th-percentile latency.
    #[must_use]
    pub fn latency_p95(&self) -> Duration {
        self.latency_percentile(95.0)
    }

    /// The 99th-percentile latency.
    #[must_use]
    pub fn latency_p99(&self) -> Duration {
        self.latency_percentile(99.0)
    }

    /// The 99.9th-percentile tail latency.
    #[must_use]
    pub fn latency_p999(&self) -> Duration {
        self.latency_percentile(99.9)
    }

    /// The slowest query's latency.
    #[must_use]
    pub fn latency_max(&self) -> Duration {
        self.latencies
            .iter()
            .max()
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Fraction of wall × workers the pool spent processing tasks (0–1).
    /// Low utilisation at MPL 1 with single-fragment queries is exactly the
    /// idle capacity multi-user admission recovers.
    #[must_use]
    pub fn worker_utilisation(&self) -> f64 {
        let capacity = self.pool.wall.as_secs_f64() * self.pool.worker_count() as f64;
        if capacity <= f64::EPSILON {
            return 0.0;
        }
        let busy: f64 = self.pool.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        (busy / capacity).min(1.0)
    }

    /// Fraction of tasks that changed owner through stealing.
    #[must_use]
    pub fn steal_rate(&self) -> f64 {
        let total = self.pool.total_fragments();
        if total == 0 {
            return 0.0;
        }
        self.pool.total_stolen() as f64 / total as f64
    }

    /// Fraction of tasks that crossed a node boundary to execute
    /// (shared-nothing inter-node migration); 0 in single-node runs.
    #[must_use]
    pub fn migration_rate(&self) -> f64 {
        let total = self.pool.total_fragments();
        if total == 0 {
            return 0.0;
        }
        self.pool.total_migrated() as f64 / total as f64
    }

    /// Fraction of tasks executed by the worker they were seeded to — with
    /// a placement-aware seed order, the disk-affinity hit rate (a stolen
    /// task runs off its affine disk stripe).
    #[must_use]
    pub fn affinity_hit_rate(&self) -> f64 {
        let total = self.pool.total_fragments();
        if total == 0 {
            return 1.0;
        }
        (total - self.pool.total_stolen()) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(busy_ms: &[u64]) -> ExecMetrics {
        ExecMetrics {
            workers: busy_ms
                .iter()
                .enumerate()
                .map(|(worker, &ms)| WorkerMetrics {
                    worker,
                    fragments_processed: 2,
                    fragments_stolen: usize::from(worker > 0),
                    fragments_compressed: 1,
                    rows_scanned: 100,
                    rows_matched: 10,
                    sim_io_ms: 1.5,
                    tasks_migrated: usize::from(worker > 1),
                    fragments_replicated: usize::from(worker > 2),
                    busy: Duration::from_millis(ms),
                })
                .collect(),
            wall: Duration::from_millis(*busy_ms.iter().max().unwrap_or(&1)),
            planned_fragments: 2 * busy_ms.len(),
            io: None,
            file: None,
        }
    }

    #[test]
    fn totals_sum_over_workers() {
        let m = metrics(&[10, 10, 10, 10]);
        assert_eq!(m.worker_count(), 4);
        assert_eq!(m.total_fragments(), 8);
        assert_eq!(m.total_stolen(), 3);
        assert_eq!(m.total_compressed(), 4);
        assert_eq!(m.total_migrated(), 2);
        assert_eq!(m.total_replicated(), 1);
        assert_eq!(m.total_rows_scanned(), 400);
        assert_eq!(m.planned_fragments, m.total_fragments());
        assert!((m.total_sim_io_ms() - 6.0).abs() < 1e-12);
        // Without a simulated I/O layer the disk metrics are neutral.
        assert_eq!(m.disk_imbalance(), 1.0);
        assert_eq!(m.cache_hit_rate(), 0.0);
    }

    #[test]
    fn speedup_is_wall_clock_ratio() {
        let serial = metrics(&[100]);
        let parallel = metrics(&[25, 25, 25, 25]);
        assert!((serial.speedup_vs(&serial) - 1.0).abs() < 1e-12);
        assert!((parallel.speedup_vs(&serial) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_detects_skew() {
        assert!((metrics(&[10, 10, 10, 10]).load_imbalance() - 1.0).abs() < 1e-12);
        let skewed = metrics(&[40, 0, 0, 0]);
        assert!((skewed.load_imbalance() - 4.0).abs() < 1e-12);
        // A degenerate all-idle pool reports perfect balance, not NaN.
        assert!((metrics(&[0]).load_imbalance() - 1.0).abs() < 1e-12);
    }

    fn throughput(busy_ms: &[u64], latencies_ms: &[u64]) -> ThroughputMetrics {
        ThroughputMetrics::new(
            metrics(busy_ms),
            latencies_ms.len(),
            latencies_ms
                .iter()
                .map(|&ms| Duration::from_millis(ms))
                .collect(),
            4,
        )
    }

    #[test]
    fn throughput_is_queries_over_wall() {
        // Wall is max(busy) = 100 ms, 5 queries → 50 queries/sec.
        let t = throughput(&[100, 100], &[10, 20, 30, 40, 50]);
        assert!((t.queries_per_sec() - 50.0).abs() < 1e-9);
        assert_eq!(t.queries_completed, 5);
        assert_eq!(t.mpl, 4);
    }

    #[test]
    fn latency_distribution() {
        let t = throughput(&[100], &[30, 10, 50, 20, 40]);
        assert_eq!(t.latency_mean(), Duration::from_millis(30));
        assert_eq!(t.latency_percentile(0.0), Duration::from_millis(10));
        assert_eq!(t.latency_percentile(50.0), Duration::from_millis(30));
        assert_eq!(t.latency_percentile(100.0), Duration::from_millis(50));
        assert_eq!(t.latency_max(), Duration::from_millis(50));
        // The tail shorthands agree with explicit percentile calls (served
        // from the one cached sort).
        assert_eq!(t.latency_p50(), t.latency_percentile(50.0));
        assert_eq!(t.latency_p95(), Duration::from_millis(50));
        assert_eq!(t.latency_p99(), Duration::from_millis(50));
        assert_eq!(t.latency_p999(), Duration::from_millis(50));
        // An empty run degrades to zeros instead of panicking.
        let empty = throughput(&[100], &[]);
        assert_eq!(empty.latency_mean(), Duration::ZERO);
        assert_eq!(empty.latency_percentile(95.0), Duration::ZERO);
        assert_eq!(empty.latency_max(), Duration::ZERO);
        assert_eq!(empty.queries_per_sec(), 0.0);
    }

    #[test]
    fn utilisation_steals_and_affinity() {
        // Wall 40 ms, 4 workers, busy sums to 40+30+20+10 = 100 of 160.
        let t = throughput(&[40, 30, 20, 10], &[10, 10]);
        assert!((t.worker_utilisation() - 100.0 / 160.0).abs() < 1e-9);
        // metrics() marks one steal per worker past the first: 3 of 8 tasks.
        assert!((t.steal_rate() - 3.0 / 8.0).abs() < 1e-12);
        assert!((t.affinity_hit_rate() - 5.0 / 8.0).abs() < 1e-12);
        assert!((t.steal_rate() + t.affinity_hit_rate() - 1.0).abs() < 1e-12);
        // metrics() marks workers 2 and 3 as having migrated one task each.
        assert!((t.migration_rate() - 2.0 / 8.0).abs() < 1e-12);
    }
}
