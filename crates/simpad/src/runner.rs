//! High-level experiment runner.
//!
//! [`run_experiment`] wires the whole stack together: it builds the bitmap
//! catalog, the fragmentation and the physical allocation, generates a number
//! of query instances of one type, plans them, executes them on the engine
//! and returns a [`RunSummary`] — one data point of the paper's figures.

use allocation::PhysicalAllocation;
use bitmap::IndexCatalog;
use mdhf::{Fragmentation, SubqueryFootprint};
use schema::{PageSizing, StarSchema};
use workload::{QueryGenerator, QueryStream, QueryType};

use crate::config::SimConfig;
use crate::engine::{DiskLayout, Engine};
use crate::metrics::RunSummary;
use crate::plan::{plan_query, sim_cost_parameters};

/// Everything needed to run one experiment point.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// The star schema (usually the full APB-1 schema).
    pub schema: StarSchema,
    /// The fact-table fragmentation under test.
    pub fragmentation: Fragmentation,
    /// The physical allocation of fragments to disks.
    pub allocation: PhysicalAllocation,
    /// The simulator configuration.
    pub config: SimConfig,
    /// The query type executed (all queries of a run share one type, §5).
    pub query_type: QueryType,
    /// Number of query instances to execute.
    pub queries: usize,
    /// Workload arrival model.
    pub stream: QueryStream,
}

impl ExperimentSetup {
    /// Convenience constructor: round-robin allocation over the configured
    /// number of disks, single-user stream.
    #[must_use]
    pub fn new(
        schema: StarSchema,
        fragmentation: Fragmentation,
        config: SimConfig,
        query_type: QueryType,
        queries: usize,
    ) -> Self {
        let allocation = PhysicalAllocation::round_robin(config.disks);
        ExperimentSetup {
            schema,
            fragmentation,
            allocation,
            config,
            query_type,
            queries,
            stream: QueryStream::SingleUser,
        }
    }

    /// Switches the workload arrival model — e.g.
    /// [`QueryStream::MultiUser`] for the closed multi-user runs whose
    /// throughput the measured scheduler sweep is compared against.
    #[must_use]
    pub fn with_stream(mut self, stream: QueryStream) -> Self {
        self.stream = stream;
        self
    }
}

/// Runs one experiment point and returns its summary.
#[must_use]
pub fn run_experiment(setup: &ExperimentSetup) -> RunSummary {
    let catalog = IndexCatalog::default_for(&setup.schema);
    let mut generator =
        QueryGenerator::new(&setup.schema, setup.query_type.clone(), setup.config.seed);

    let plans: Vec<_> = (0..setup.queries)
        .map(|_| {
            let bound = generator.next_instance();
            plan_query(
                &setup.schema,
                &catalog,
                &setup.fragmentation,
                &setup.config,
                &bound,
            )
        })
        .collect();

    // The disk regions hold whole fragments: the footprint of a subquery
    // that reads every row.
    let n = setup.fragmentation.fragment_count();
    let whole = SubqueryFootprint::uniform(
        &PageSizing::with_page_size(&setup.schema, setup.config.page_size),
        n,
        None,
        0,
        &sim_cost_parameters(&setup.config),
    );
    let frag_attrs: Vec<(usize, usize)> = setup
        .fragmentation
        .attrs()
        .iter()
        .map(|a| (a.dimension, a.level))
        .collect();
    let layout = DiskLayout {
        total_fragments: n,
        fragment_pages: whole.fact_pages,
        bitmap_fragment_pages: whole.bitmap_pages,
        bitmaps_per_fragment: catalog.total_bitmaps_under_fragmentation(&frag_attrs),
    };

    let engine = Engine::new(
        setup.config,
        setup.allocation,
        layout,
        plans,
        setup.stream.concurrency(),
    );
    let (metrics, disk_utils, cpu_util, simulated_ms) = engine.run();

    RunSummary::from_queries(
        setup.query_type.name(),
        setup.config.disks,
        setup.config.nodes,
        setup.config.subqueries_per_node,
        metrics,
        disk_utils,
        cpu_util,
        simulated_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    fn setup(
        disks: u64,
        nodes: usize,
        t: usize,
        query_type: QueryType,
        frag: &[&str],
        queries: usize,
    ) -> ExperimentSetup {
        let schema = apb1_schema();
        let fragmentation = Fragmentation::parse(&schema, frag).unwrap();
        let config = SimConfig {
            disks,
            nodes,
            subqueries_per_node: t,
            ..SimConfig::default()
        };
        ExperimentSetup::new(schema, fragmentation, config, query_type, queries)
    }

    #[test]
    fn one_month_one_group_run_produces_sane_summary() {
        let s = setup(
            20,
            4,
            4,
            QueryType::OneMonthOneGroup,
            &["time::month", "product::group"],
            3,
        );
        let summary = run_experiment(&s);
        assert_eq!(summary.queries.len(), 3);
        assert_eq!(summary.query_name, "1MONTH1GROUP");
        assert!(summary.mean_response_ms > 0.0);
        assert!(summary.mean_response_secs() < 20.0);
        assert!(summary.disk_utilisation >= 0.0 && summary.disk_utilisation <= 1.0);
        assert!(summary.simulated_ms >= summary.mean_response_ms);
    }

    #[test]
    fn multi_user_streams_raise_simulated_throughput() {
        // The multi-user cross-check hook: 1MONTH1GROUP is a single-fragment
        // query, so a lone stream leaves most of the 4 nodes idle and a
        // closed 4-user workload must complete the same queries in less
        // simulated time — higher queries/sec.
        let base = setup(
            20,
            4,
            4,
            QueryType::OneMonthOneGroup,
            &["time::month", "product::group"],
            8,
        );
        let single = run_experiment(&base);
        let multi = run_experiment(
            &base
                .clone()
                .with_stream(QueryStream::MultiUser { streams: 4 }),
        );
        assert_eq!(single.queries.len(), multi.queries.len());
        assert!(
            multi.throughput_qps() > single.throughput_qps(),
            "multi-user {} qps vs single-user {} qps",
            multi.throughput_qps(),
            single.throughput_qps()
        );
    }

    #[test]
    fn one_code_one_quarter_is_fast_under_supporting_fragmentation() {
        // Figure 6: 1CODE1QUARTER completes within a few seconds.
        let s = setup(
            100,
            20,
            5,
            QueryType::OneCodeOneQuarter,
            &["time::month", "product::group"],
            3,
        );
        let summary = run_experiment(&s);
        assert!(
            summary.mean_response_secs() < 10.0,
            "{} s",
            summary.mean_response_secs()
        );
    }

    #[test]
    fn more_disks_improve_the_disk_bound_query() {
        // A reduced-size sanity check of the Figure 3 trend: with two disks
        // the 1MONTH query is disk-bound, so quadrupling the disks (nodes
        // unchanged) must clearly shorten the response time.
        let few = run_experiment(&setup(
            2,
            4,
            4,
            QueryType::OneMonth,
            &["time::month", "product::group"],
            1,
        ));
        let many = run_experiment(&setup(
            16,
            4,
            4,
            QueryType::OneMonth,
            &["time::month", "product::group"],
            1,
        ));
        assert!(
            few.mean_response_ms > 1.5 * many.mean_response_ms,
            "few-disk {} ms vs many-disk {} ms",
            few.mean_response_ms,
            many.mean_response_ms
        );
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let s = setup(
            20,
            4,
            4,
            QueryType::OneMonthOneGroup,
            &["time::month", "product::group"],
            2,
        );
        let a = run_experiment(&s);
        let b = run_experiment(&s);
        assert_eq!(a.mean_response_ms, b.mean_response_ms);
        assert_eq!(a.queries.len(), b.queries.len());
    }
}
