//! Simulation metrics: per-query response times and resource utilisation.

use crate::stats::Tally;

/// Metrics of one executed query instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryMetrics {
    /// Response time in milliseconds.
    pub response_ms: f64,
    /// Number of subqueries executed.
    pub subqueries: usize,
    /// Fact + bitmap disk I/O operations issued.
    pub disk_io_ops: u64,
    /// Fact + bitmap pages transferred from disk.
    pub pages_read: u64,
    /// Pages satisfied from the buffer pools without disk I/O.
    pub buffer_hits: u64,
}

/// Aggregated results of one experiment run (a sequence of query instances of
/// one type under one configuration).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Query type name.
    pub query_name: String,
    /// Number of disks in the configuration.
    pub disks: u64,
    /// Number of processing nodes.
    pub nodes: usize,
    /// Subqueries per node (`t`).
    pub subqueries_per_node: usize,
    /// Per-query metrics in execution order.
    pub queries: Vec<QueryMetrics>,
    /// Mean response time in milliseconds.
    pub mean_response_ms: f64,
    /// Standard deviation of the response time in milliseconds.
    pub std_response_ms: f64,
    /// Mean disk utilisation over the run (0–1, averaged over disks).
    pub disk_utilisation: f64,
    /// Per-disk utilisation over the run (0–1, indexed by disk) — the
    /// simulated per-disk load profile skew experiments compare against.
    pub disk_utilisations: Vec<f64>,
    /// Mean CPU utilisation over the run (0–1, averaged over nodes).
    pub cpu_utilisation: f64,
    /// Total simulated time of the run in milliseconds.
    pub simulated_ms: f64,
}

impl RunSummary {
    /// Builds a summary from per-query metrics and utilisation figures.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_queries(
        query_name: String,
        disks: u64,
        nodes: usize,
        subqueries_per_node: usize,
        queries: Vec<QueryMetrics>,
        disk_utilisations: Vec<f64>,
        cpu_utilisation: f64,
        simulated_ms: f64,
    ) -> Self {
        let mut tally = Tally::default();
        for q in &queries {
            tally.record(q.response_ms);
        }
        let disk_utilisation = if disk_utilisations.is_empty() {
            0.0
        } else {
            disk_utilisations.iter().sum::<f64>() / disk_utilisations.len() as f64
        };
        RunSummary {
            query_name,
            disks,
            nodes,
            subqueries_per_node,
            queries,
            mean_response_ms: tally.mean(),
            std_response_ms: tally.std_dev(),
            disk_utilisation,
            disk_utilisations,
            cpu_utilisation,
            simulated_ms,
        }
    }

    /// Mean response time in seconds (the unit of the paper's figures).
    #[must_use]
    pub fn mean_response_secs(&self) -> f64 {
        self.mean_response_ms / 1_000.0
    }

    /// Simulated multi-user throughput: completed queries per second of
    /// simulated time.  In single-user runs this is just the reciprocal of
    /// the mean response time; in closed multi-user runs it is the quantity
    /// the paper's SIMPAD experiments rank allocations by, and what the
    /// measured `exec::scheduler` sweep is cross-checked against.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        if self.simulated_ms <= 0.0 {
            return 0.0;
        }
        self.queries.len() as f64 / (self.simulated_ms / 1_000.0)
    }

    /// Simulated per-disk load imbalance: the busiest disk's utilisation
    /// over the mean disk utilisation (1.0 = perfectly declustered, as the
    /// paper's round-robin allocation achieves for uniform workloads; an
    /// all-idle run reports 1.0), via the shared
    /// [`allocation::load_imbalance`] formula.
    #[must_use]
    pub fn disk_imbalance(&self) -> f64 {
        allocation::load_imbalance(&self.disk_utilisations)
    }

    /// Speed-up of this run relative to a baseline run (baseline mean
    /// response time divided by this run's).
    #[must_use]
    pub fn speedup_vs(&self, baseline: &RunSummary) -> f64 {
        if self.mean_response_ms == 0.0 {
            return 0.0;
        }
        baseline.mean_response_ms / self.mean_response_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(ms: f64) -> QueryMetrics {
        QueryMetrics {
            response_ms: ms,
            subqueries: 10,
            disk_io_ops: 100,
            pages_read: 800,
            buffer_hits: 0,
        }
    }

    #[test]
    fn summary_statistics() {
        let summary = RunSummary::from_queries(
            "1MONTH".to_string(),
            100,
            20,
            4,
            vec![metric(1_000.0), metric(2_000.0), metric(3_000.0)],
            vec![0.6, 0.4],
            0.3,
            6_000.0,
        );
        assert_eq!(summary.mean_response_ms, 2_000.0);
        assert!((summary.std_response_ms - 1_000.0).abs() < 1e-9);
        assert_eq!(summary.mean_response_secs(), 2.0);
        assert_eq!(summary.queries.len(), 3);
        assert_eq!(summary.query_name, "1MONTH");
        // The mean utilisation derives from the per-disk profile, whose
        // imbalance is busiest over mean.
        assert!((summary.disk_utilisation - 0.5).abs() < 1e-12);
        assert!((summary.disk_imbalance() - 1.2).abs() < 1e-12);
        // 3 queries over 6 simulated seconds → 0.5 queries/sec.
        assert!((summary.throughput_qps() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn speedup_computation() {
        let slow = RunSummary::from_queries(
            "q".into(),
            20,
            1,
            4,
            vec![metric(10_000.0)],
            vec![0.9],
            0.1,
            10_000.0,
        );
        let fast = RunSummary::from_queries(
            "q".into(),
            100,
            5,
            4,
            vec![metric(2_000.0)],
            vec![0.9],
            0.1,
            2_000.0,
        );
        assert!((fast.speedup_vs(&slow) - 5.0).abs() < 1e-12);
        assert!((slow.speedup_vs(&slow) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_safe() {
        let summary = RunSummary::from_queries("q".into(), 10, 2, 4, vec![], vec![], 0.0, 0.0);
        assert_eq!(summary.mean_response_ms, 0.0);
        assert_eq!(summary.std_response_ms, 0.0);
        assert_eq!(summary.disk_utilisation, 0.0);
        assert_eq!(summary.disk_imbalance(), 1.0);
    }
}
