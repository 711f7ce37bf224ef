//! The event-driven Shared Disk execution engine.
//!
//! The engine executes one or more planned queries — each a [`QueryPlan`]
//! and the [`SubqueryFootprint`] of its subqueries — on a simulated Shared
//! Disk PDBS: `p` processing nodes (one 50-MIPS CPU each, modelled as a
//! FCFS server), `d` disks (FCFS servers with a track-based service-time
//! model), an idealised network and LRU buffer pools.  Query processing
//! follows §4.3 and §5 of the paper:
//!
//! 1. a randomly selected **coordinator** node plans the query and builds the
//!    task list of subqueries (one per relevant fact fragment, in allocation
//!    order),
//! 2. subqueries are assigned round-robin to nodes, at most `t` per node
//!    (the coordinator counts its coordination work as one task and accepts
//!    only `t − 1`),
//! 3. each subquery reads the bitmap fragments it needs (in parallel from the
//!    staggered disks, or serially), processes them, then alternates
//!    prefetch-granule fact I/O with row extraction and aggregation,
//! 4. partial aggregates travel back to the coordinator, which terminates the
//!    query once every subquery has reported.

use allocation::PhysicalAllocation;
use mdhf::SubqueryFootprint;
use storage::{BufferManager, DiskModel, FcfsQueue};
use workload::QueryPlan;

use crate::config::SimConfig;
use crate::events::EventQueue;
use crate::metrics::QueryMetrics;
use crate::rng::RngStream;
use crate::time::SimTime;

/// Physical layout information needed to map fragments and bitmap fragments
/// onto disk tracks.
#[derive(Debug, Clone, Copy)]
pub struct DiskLayout {
    /// Total number of fact fragments of the fragmentation.
    pub total_fragments: u64,
    /// Pages per fact fragment.
    pub fragment_pages: u64,
    /// Pages per bitmap fragment.
    pub bitmap_fragment_pages: u64,
    /// Bitmaps stored per fragment (for the bitmap region size).
    pub bitmaps_per_fragment: u64,
}

impl DiskLayout {
    fn rounds(&self, disks: u64) -> u64 {
        self.total_fragments.div_ceil(disks).max(1)
    }

    fn fact_region_pages(&self, disks: u64) -> u64 {
        self.rounds(disks) * self.fragment_pages
    }

    fn total_pages_per_disk(&self, disks: u64) -> u64 {
        self.fact_region_pages(disks)
            + self.rounds(disks) * self.bitmaps_per_fragment * self.bitmap_fragment_pages
    }

    /// Page offset of granule `granule` of fact fragment `fragment` on its disk.
    fn fact_page_offset(&self, disks: u64, fragment: u64, granule: u64, prefetch: u64) -> u64 {
        (fragment / disks) * self.fragment_pages + granule * prefetch
    }

    /// Page offset of bitmap fragment `bitmap_index` of `fragment` on its disk.
    fn bitmap_page_offset(&self, disks: u64, fragment: u64, bitmap_index: u64) -> u64 {
        self.fact_region_pages(disks)
            + ((fragment / disks) * self.bitmaps_per_fragment + bitmap_index)
                * self.bitmap_fragment_pages
    }
}

/// Events exchanged inside the engine.
#[derive(Debug, Clone, Copy)]
enum Event {
    QueryArrive { query: usize },
    QueryPlanned { query: usize },
    SubqueryMessage { sq: usize },
    SubqueryReady { sq: usize },
    BitmapIoDone { sq: usize },
    BitmapCpuDone { sq: usize },
    FactIoDone { sq: usize },
    FactCpuDone { sq: usize },
    SubqueryTerminated { sq: usize },
    ResultReceived { sq: usize },
    QueryDone { query: usize },
}

#[derive(Debug)]
struct DiskState {
    queue: FcfsQueue,
    model: DiskModel,
}

#[derive(Debug)]
struct NodeState {
    cpu: FcfsQueue,
    running: usize,
}

#[derive(Debug)]
struct QueryState {
    coordinator: usize,
    next_task: usize,
    results_outstanding: usize,
    started_at: SimTime,
    io_ops: u64,
    pages: u64,
    buffer_hits: u64,
    next_node_hint: usize,
    done: bool,
}

#[derive(Debug)]
struct SubqueryState {
    query: usize,
    index: usize,
    node: usize,
    bitmap_outstanding: usize,
    serial_bitmap_next: u64,
    fact_granules_done: u64,
}

/// Submits a request of `service_ms` arriving at `at` to `queue` and returns
/// its completion time.  Both crossings into `SimTime` keep its NaN and
/// negative-time checks.
fn serve(queue: &mut FcfsQueue, at: SimTime, service_ms: f64) -> SimTime {
    let service = SimTime::from_millis(service_ms);
    let (_, done) = queue.submit(at.as_millis(), service.as_millis());
    SimTime::from_millis(done)
}

/// The simulation engine for one experiment run.
pub struct Engine {
    config: SimConfig,
    allocation: PhysicalAllocation,
    layout: DiskLayout,
    disks: Vec<DiskState>,
    nodes: Vec<NodeState>,
    buffer: BufferManager,
    events: EventQueue<Event>,
    /// Each query's plan and the footprint of its subqueries, in whole
    /// I/Os and whole rows.
    plans: Vec<(QueryPlan, SubqueryFootprint)>,
    queries: Vec<QueryState>,
    subqueries: Vec<SubqueryState>,
    rng: RngStream,
    metrics: Vec<QueryMetrics>,
    /// Chained single-user execution: index of the next plan to start after
    /// the current one finishes.
    next_query_to_start: usize,
    concurrency: usize,
    /// Subqueries currently assigned to a node and not yet terminated, across
    /// all active queries.  Used to guarantee scheduling progress when the
    /// coordination tasks alone exhaust the per-node task limit.
    inflight_subqueries: usize,
}

impl Engine {
    /// Creates an engine executing `plans` (in order, each with the
    /// footprint of its subqueries) under `config`, with fragments on the
    /// disks of `allocation`.
    ///
    /// `concurrency` is the number of query streams: 1 reproduces the paper's
    /// single-user mode; larger values run a closed multi-user workload.
    #[must_use]
    pub fn new(
        config: SimConfig,
        allocation: PhysicalAllocation,
        layout: DiskLayout,
        plans: Vec<(QueryPlan, SubqueryFootprint)>,
        concurrency: usize,
    ) -> Self {
        assert!(config.nodes > 0, "need at least one processing node");
        assert!(config.disks > 0, "need at least one disk");
        let disks = (0..config.disks)
            .map(|_| DiskState {
                queue: FcfsQueue::default(),
                model: DiskModel::new(config.disk),
            })
            .collect();
        let nodes = (0..config.nodes)
            .map(|_| NodeState {
                cpu: FcfsQueue::default(),
                running: 0,
            })
            .collect();
        Engine {
            buffer: BufferManager::new(config.fact_buffer_pages, config.bitmap_buffer_pages),
            rng: RngStream::new(config.seed, 1),
            disks,
            nodes,
            events: EventQueue::new(),
            queries: Vec::with_capacity(plans.len()),
            subqueries: Vec::new(),
            metrics: Vec::with_capacity(plans.len()),
            next_query_to_start: 0,
            concurrency: concurrency.max(1),
            inflight_subqueries: 0,
            config,
            allocation,
            layout,
            plans,
        }
    }

    /// Runs all queries to completion and returns per-query metrics together
    /// with the per-disk utilisations, the mean CPU utilisation and the
    /// total simulated time `(metrics, disk_utils, cpu_util, simulated_ms)`.
    pub fn run(mut self) -> (Vec<QueryMetrics>, Vec<f64>, f64, f64) {
        // Start the first `concurrency` queries at time zero.
        let initial = self.concurrency.min(self.plans.len());
        for q in 0..initial {
            let state = self.new_query_state();
            self.queries.push(state);
            self.events
                .schedule(SimTime::ZERO, Event::QueryArrive { query: q });
        }
        self.next_query_to_start = initial;
        // Remaining queries get their state created lazily when they start.
        while let Some((time, event)) = self.events.pop() {
            self.handle(time, event);
        }
        let horizon = self.events.now().as_millis();
        let disk_utils: Vec<f64> = self
            .disks
            .iter()
            .map(|d| d.queue.utilisation(horizon))
            .collect();
        let cpu_util = if self.nodes.is_empty() {
            0.0
        } else {
            self.nodes
                .iter()
                .map(|n| n.cpu.utilisation(horizon))
                .sum::<f64>()
                / self.nodes.len() as f64
        };
        (self.metrics, disk_utils, cpu_util, horizon)
    }

    fn new_query_state(&mut self) -> QueryState {
        QueryState {
            coordinator: self.rng.uniform_index(self.config.nodes as u64) as usize,
            next_task: 0,
            results_outstanding: 0,
            started_at: SimTime::ZERO,
            io_ops: 0,
            pages: 0,
            buffer_hits: 0,
            next_node_hint: 0,
            done: false,
        }
    }

    fn cpu_burst(&mut self, node: usize, at: SimTime, instructions: u64) -> SimTime {
        serve(
            &mut self.nodes[node].cpu,
            at,
            self.config.cpu_ms(instructions),
        )
    }

    /// Issues a disk request of `pages` pages at page offset `offset` on
    /// `disk`, returning the completion time.
    fn disk_request(&mut self, disk: u64, at: SimTime, offset: u64, pages: u64) -> SimTime {
        let d = &mut self.disks[disk as usize];
        let total = self.layout.total_pages_per_disk(self.config.disks).max(1);
        let track = d.model.track_of_page(offset, total);
        serve(&mut d.queue, at, d.model.service(track, pages.max(1)))
    }

    /// Assigns pending subqueries of every active query as long as node
    /// capacity allows.
    ///
    /// Each node runs at most `t` concurrent tasks; a query's coordination
    /// work counts as one task on its coordinator node, which therefore
    /// accepts only `t − 1` subqueries (§5).  If coordination tasks alone
    /// exhaust every node's limit (e.g. `t = 1` on a single node), one
    /// subquery is force-assigned to the least loaded node so the simulation
    /// always makes progress.
    fn dispatch_all(&mut self, now: SimTime) {
        for query in 0..self.queries.len() {
            self.dispatch_tasks(now, query);
        }
    }

    fn dispatch_tasks(&mut self, now: SimTime, query: usize) {
        if self.queries[query].done {
            return;
        }
        let plan_len = self.plans[query].0.task_count();
        loop {
            if self.queries[query].next_task >= plan_len {
                return;
            }
            // Find a node with free capacity, scanning round-robin from the
            // last assignment position.
            let limit = self.config.subqueries_per_node;
            let start = self.queries[query].next_node_hint;
            let mut chosen = None;
            for i in 0..self.config.nodes {
                let node = (start + i) % self.config.nodes;
                if self.nodes[node].running < limit {
                    chosen = Some(node);
                    break;
                }
            }
            if chosen.is_none() && self.inflight_subqueries == 0 {
                // Only coordination tasks occupy the nodes: force progress.
                chosen = (0..self.config.nodes).min_by_key(|&n| self.nodes[n].running);
            }
            let Some(node) = chosen else { return };
            self.queries[query].next_node_hint = (node + 1) % self.config.nodes;

            let task_index = self.queries[query].next_task;
            self.queries[query].next_task += 1;
            self.nodes[node].running += 1;
            self.inflight_subqueries += 1;

            let sq_id = self.subqueries.len();
            self.subqueries.push(SubqueryState {
                query,
                index: task_index,
                node,
                bitmap_outstanding: 0,
                serial_bitmap_next: 0,
                fact_granules_done: 0,
            });

            // Coordinator sends the assignment message.
            let coordinator = self.queries[query].coordinator;
            let send = self
                .config
                .send_instructions(self.config.small_message_bytes);
            let sent_at = self.cpu_burst(coordinator, now, send);
            let arrive = sent_at
                + SimTime::from_millis(self.config.network_ms(self.config.small_message_bytes));
            self.events
                .schedule(arrive, Event::SubqueryMessage { sq: sq_id });
        }
    }

    /// The fact fragment a subquery processes, and what it reads.
    fn work(&self, sq: usize) -> (u64, SubqueryFootprint) {
        let state = &self.subqueries[sq];
        let (plan, footprint) = &self.plans[state.query];
        (plan.fragments()[state.index], *footprint)
    }

    /// Starts the bitmap phase of a subquery (or skips straight to the fact
    /// phase if no bitmaps are needed).
    fn start_bitmap_phase(&mut self, now: SimTime, sq: usize) {
        let bitmaps = self.work(sq).1.bitmaps;
        if bitmaps == 0 {
            self.start_fact_granule(now, sq);
            return;
        }
        if self.config.parallel_bitmap_io {
            let mut outstanding = 0;
            for bitmap_index in 0..bitmaps {
                match self.bitmap_io(now, sq, bitmap_index) {
                    Some(t) => {
                        outstanding += 1;
                        self.events.schedule(t, Event::BitmapIoDone { sq });
                    }
                    None => {
                        // Fully buffered: no disk I/O needed for this bitmap.
                    }
                }
            }
            if outstanding == 0 {
                self.events.schedule(now, Event::BitmapIoDone { sq });
                outstanding = 1;
            }
            self.subqueries[sq].bitmap_outstanding = outstanding;
        } else {
            self.subqueries[sq].serial_bitmap_next = 0;
            self.issue_next_serial_bitmap(now, sq);
        }
    }

    /// Issues the next bitmap read of a serial (non-parallel) bitmap phase.
    fn issue_next_serial_bitmap(&mut self, now: SimTime, sq: usize) {
        loop {
            let next = self.subqueries[sq].serial_bitmap_next;
            if next >= self.work(sq).1.bitmaps {
                // All bitmap fragments read: process them on the CPU.
                self.finish_bitmap_io(now, sq);
                return;
            }
            self.subqueries[sq].serial_bitmap_next += 1;
            if let Some(done) = self.bitmap_io(now, sq, next) {
                self.events.schedule(done, Event::BitmapIoDone { sq });
                return;
            }
            // Buffered: immediately try the next one.
        }
    }

    /// Performs buffer lookup + disk I/O for the subquery's fragment of
    /// bitmap `bitmap_index`, on its staggered disk; returns the completion
    /// time, or `None` if every page was a buffer hit.
    fn bitmap_io(&mut self, now: SimTime, sq: usize, bitmap_index: u64) -> Option<SimTime> {
        let query = self.subqueries[sq].query;
        let (fragment, footprint) = self.work(sq);
        let pages = footprint.bitmap_pages;
        let misses = if self.config.use_buffer {
            let object = bitmap_object_id(fragment, bitmap_index);
            let misses = self.buffer.bitmap().request_range(object, 0, pages);
            self.queries[query].buffer_hits += pages - misses;
            misses
        } else {
            pages
        };
        if misses == 0 {
            return None;
        }
        self.queries[query].io_ops += 1;
        self.queries[query].pages += pages;
        let offset = self
            .layout
            .bitmap_page_offset(self.config.disks, fragment, bitmap_index);
        let disk = self.allocation.bitmap_disk(fragment, bitmap_index);
        Some(self.disk_request(disk, now, offset, pages))
    }

    /// Called when the last outstanding bitmap I/O of a subquery finished.
    fn finish_bitmap_io(&mut self, now: SimTime, sq: usize) {
        let (_, footprint) = self.work(sq);
        let pages = footprint.bitmaps * footprint.bitmap_pages;
        let node = self.subqueries[sq].node;
        let instr = pages
            * (self.config.instructions.read_page + self.config.instructions.process_bitmap_page);
        let done = self.cpu_burst(node, now, instr);
        self.events.schedule(done, Event::BitmapCpuDone { sq });
    }

    /// Issues the I/O for the next fact granule of a subquery.
    fn start_fact_granule(&mut self, now: SimTime, sq: usize) {
        let granule = self.subqueries[sq].fact_granules_done;
        let (fragment, footprint) = self.work(sq);
        if granule as f64 >= footprint.hit_granules {
            self.terminate_subquery(now, sq);
            return;
        }
        let query = self.subqueries[sq].query;
        let pages = self.config.fact_prefetch_pages;
        let misses = if self.config.use_buffer {
            let misses = self
                .buffer
                .fact()
                .request_range(fragment, granule * pages, pages);
            self.queries[query].buffer_hits += pages - misses;
            misses
        } else {
            pages
        };
        if misses == 0 {
            self.events.schedule(now, Event::FactIoDone { sq });
            return;
        }
        self.queries[query].io_ops += 1;
        self.queries[query].pages += pages;
        let offset = self
            .layout
            .fact_page_offset(self.config.disks, fragment, granule, pages);
        let done = self.disk_request(self.allocation.fact_disk(fragment), now, offset, pages);
        self.events.schedule(done, Event::FactIoDone { sq });
    }

    /// CPU processing of the granule that just arrived from disk.
    fn process_fact_granule(&mut self, now: SimTime, sq: usize) {
        let (_, footprint) = self.work(sq);
        let rows_per_granule = (footprint.relevant_rows / footprint.hit_granules).ceil() as u64;
        let node = self.subqueries[sq].node;
        let instr = self.config.fact_prefetch_pages * self.config.instructions.read_page
            + rows_per_granule
                * (self.config.instructions.extract_row + self.config.instructions.aggregate_row);
        let done = self.cpu_burst(node, now, instr);
        self.events.schedule(done, Event::FactCpuDone { sq });
    }

    fn terminate_subquery(&mut self, now: SimTime, sq: usize) {
        let node = self.subqueries[sq].node;
        let instr = self.config.instructions.terminate_subquery
            + self
                .config
                .send_instructions(self.config.small_message_bytes);
        let done = self.cpu_burst(node, now, instr);
        self.events.schedule(done, Event::SubqueryTerminated { sq });
    }

    fn handle(&mut self, now: SimTime, event: Event) {
        match event {
            Event::QueryArrive { query } => {
                self.queries[query].started_at = now;
                self.queries[query].results_outstanding = self.plans[query].0.task_count();
                let coordinator = self.queries[query].coordinator;
                self.nodes[coordinator].running += 1;
                let done =
                    self.cpu_burst(coordinator, now, self.config.instructions.initiate_query);
                self.events.schedule(done, Event::QueryPlanned { query });
            }
            Event::QueryPlanned { query } => {
                if self.plans[query].0.task_count() == 0 {
                    // Degenerate query touching nothing: finish immediately.
                    let coordinator = self.queries[query].coordinator;
                    let done =
                        self.cpu_burst(coordinator, now, self.config.instructions.terminate_query);
                    self.events.schedule(done, Event::QueryDone { query });
                } else {
                    self.dispatch_tasks(now, query);
                }
            }
            Event::SubqueryMessage { sq } => {
                let node = self.subqueries[sq].node;
                let instr = self
                    .config
                    .receive_instructions(self.config.small_message_bytes)
                    + self.config.instructions.initiate_subquery;
                let done = self.cpu_burst(node, now, instr);
                self.events.schedule(done, Event::SubqueryReady { sq });
            }
            Event::SubqueryReady { sq } => {
                self.start_bitmap_phase(now, sq);
            }
            Event::BitmapIoDone { sq } => {
                if self.config.parallel_bitmap_io {
                    self.subqueries[sq].bitmap_outstanding -= 1;
                    if self.subqueries[sq].bitmap_outstanding == 0 {
                        self.finish_bitmap_io(now, sq);
                    }
                } else {
                    self.issue_next_serial_bitmap(now, sq);
                }
            }
            Event::BitmapCpuDone { sq } => {
                self.start_fact_granule(now, sq);
            }
            Event::FactIoDone { sq } => {
                self.process_fact_granule(now, sq);
            }
            Event::FactCpuDone { sq } => {
                self.subqueries[sq].fact_granules_done += 1;
                self.start_fact_granule(now, sq);
            }
            Event::SubqueryTerminated { sq } => {
                let node = self.subqueries[sq].node;
                let query = self.subqueries[sq].query;
                self.nodes[node].running -= 1;
                self.inflight_subqueries -= 1;
                // Free slot: assign further tasks of any active query.
                self.dispatch_all(now);
                // The partial aggregate travels to the coordinator.
                let coordinator = self.queries[query].coordinator;
                let arrive = now
                    + SimTime::from_millis(self.config.network_ms(self.config.small_message_bytes));
                let instr = self
                    .config
                    .receive_instructions(self.config.small_message_bytes);
                let done = serve(
                    &mut self.nodes[coordinator].cpu,
                    arrive,
                    self.config.cpu_ms(instr),
                );
                self.events.schedule(done, Event::ResultReceived { sq });
            }
            Event::ResultReceived { sq } => {
                let query = self.subqueries[sq].query;
                self.queries[query].results_outstanding -= 1;
                if self.queries[query].results_outstanding == 0
                    && self.queries[query].next_task == self.plans[query].0.task_count()
                {
                    let coordinator = self.queries[query].coordinator;
                    let done =
                        self.cpu_burst(coordinator, now, self.config.instructions.terminate_query);
                    self.events.schedule(done, Event::QueryDone { query });
                }
            }
            Event::QueryDone { query } => {
                if self.queries[query].done {
                    return;
                }
                self.queries[query].done = true;
                let coordinator = self.queries[query].coordinator;
                self.nodes[coordinator].running -= 1;
                let state = &self.queries[query];
                self.metrics.push(QueryMetrics {
                    response_ms: (now - state.started_at).as_millis(),
                    subqueries: self.plans[query].0.task_count(),
                    disk_io_ops: state.io_ops,
                    pages_read: state.pages,
                    buffer_hits: state.buffer_hits,
                });
                // Closed stream: launch the next pending query, if any.
                if self.next_query_to_start < self.plans.len() {
                    let next = self.next_query_to_start;
                    self.next_query_to_start += 1;
                    let st = self.new_query_state();
                    self.queries.push(st);
                    self.events
                        .schedule(now, Event::QueryArrive { query: next });
                }
            }
        }
    }
}

/// Buffer object identifier for a bitmap fragment (kept disjoint from fact
/// fragment numbers, which identify fact objects).
fn bitmap_object_id(fragment: u64, bitmap_index: u64) -> u64 {
    (1u64 << 40) + fragment * 128 + bitmap_index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_query;
    use bitmap::IndexCatalog;
    use mdhf::Fragmentation;
    use schema::apb1::apb1_schema;
    use workload::{BoundQuery, QueryType};

    type Planned = (QueryPlan, SubqueryFootprint);

    /// An engine over round-robin placement on the configured disks.
    fn engine(
        config: SimConfig,
        layout: DiskLayout,
        plans: Vec<Planned>,
        streams: usize,
    ) -> Engine {
        let allocation = PhysicalAllocation::round_robin(config.disks);
        Engine::new(config, allocation, layout, plans, streams)
    }

    fn small_config() -> SimConfig {
        SimConfig {
            disks: 10,
            nodes: 4,
            subqueries_per_node: 3,
            ..SimConfig::default()
        }
    }

    fn build_plan(
        config: &SimConfig,
        fragmentation_spec: &[&str],
        qt: QueryType,
        values: Vec<u64>,
    ) -> (Planned, DiskLayout) {
        let s = apb1_schema();
        let catalog = IndexCatalog::default_for(&s);
        let f = Fragmentation::parse(&s, fragmentation_spec).unwrap();
        let bound = BoundQuery::new(&s, qt.to_star_query(&s), values);
        let (plan, footprint) = plan_query(&s, &catalog, &f, config, &bound);
        let layout = DiskLayout {
            total_fragments: f.fragment_count(),
            fragment_pages: footprint.fact_pages,
            bitmap_fragment_pages: footprint.bitmap_pages,
            bitmaps_per_fragment: 32,
        };
        ((plan, footprint), layout)
    }

    #[test]
    fn single_fragment_query_completes_quickly() {
        // 1MONTH1GROUP reads one 795-page fragment sequentially: ~100 I/Os of
        // 11 ms plus CPU; the response time must land in the right ballpark
        // (roughly one to three seconds) and all accounting must add up.
        let config = small_config();
        let (plan, layout) = build_plan(
            &config,
            &["time::month", "product::group"],
            QueryType::OneMonthOneGroup,
            vec![3, 17],
        );
        let disks = config.disks;
        let engine = engine(config, layout, vec![plan], 1);
        let (metrics, disk_utils, cpu_util, simulated) = engine.run();
        assert_eq!(metrics.len(), 1);
        let m = &metrics[0];
        assert_eq!(m.subqueries, 1);
        assert!(
            m.response_ms > 100.0 && m.response_ms < 10_000.0,
            "{}",
            m.response_ms
        );
        assert!(m.disk_io_ops >= 100);
        assert!(m.pages_read >= 795);
        assert!(simulated >= m.response_ms);
        assert_eq!(disk_utils.len() as u64, disks);
        assert!(disk_utils.iter().all(|u| (0.0..=1.0).contains(u)));
        assert!((0.0..=1.0).contains(&cpu_util));
    }

    #[test]
    fn one_code_query_uses_multiple_disks() {
        let config = small_config();
        let (plan, layout) = build_plan(
            &config,
            &["time::month", "product::group"],
            QueryType::OneCode,
            vec![65],
        );
        assert_eq!(plan.0.task_count(), 24);
        let engine = engine(config, layout, vec![plan], 1);
        let (metrics, _, _, _) = engine.run();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].subqueries, 24);
        assert!(metrics[0].disk_io_ops > 24);
    }

    #[test]
    fn more_processors_speed_up_cpu_bound_queries() {
        // The 1MONTH query is CPU-bound: doubling the nodes should cut the
        // response time roughly in half (Figure 4's message).
        let mut slow_cfg = SimConfig::for_speedup_point(20, 2);
        slow_cfg.disks = 20;
        let mut fast_cfg = SimConfig::for_speedup_point(20, 10);
        fast_cfg.disks = 20;
        let run = |cfg: SimConfig| {
            let (plan, layout) = build_plan(
                &cfg,
                &["time::month", "product::group"],
                QueryType::OneMonth,
                vec![5],
            );
            let engine = engine(cfg, layout, vec![plan], 1);
            engine.run().0[0].response_ms
        };
        let slow = run(slow_cfg);
        let fast = run(fast_cfg);
        let speedup = slow / fast;
        assert!(
            speedup > 3.0,
            "speed-up {speedup} (slow {slow} ms, fast {fast} ms)"
        );
    }

    #[test]
    fn more_disks_speed_up_io_bound_queries() {
        // With only two disks the 1MONTH query (480 whole-fragment reads) is
        // disk-bound; adding disks must shorten it substantially until the
        // four CPUs become the bottleneck.
        let run = |disks: u64| {
            let cfg = SimConfig {
                disks,
                nodes: 4,
                subqueries_per_node: 4,
                ..SimConfig::default()
            };
            let (plan, layout) = build_plan(
                &cfg,
                &["time::month", "product::group"],
                QueryType::OneMonth,
                vec![5],
            );
            let engine = engine(cfg, layout, vec![plan], 1);
            engine.run().0[0].response_ms
        };
        let few = run(2);
        let many = run(16);
        assert!(few / many > 1.5, "few {few} ms vs many {many} ms");
    }

    #[test]
    fn parallel_bitmap_io_is_not_slower_than_serial() {
        let run = |parallel: bool| {
            let cfg = SimConfig {
                disks: 20,
                nodes: 4,
                subqueries_per_node: 2,
                parallel_bitmap_io: parallel,
                ..SimConfig::default()
            };
            let (plan, layout) = build_plan(
                &cfg,
                &["time::month", "product::group"],
                QueryType::OneCodeOneQuarter,
                vec![100, 2],
            );
            let engine = engine(cfg, layout, vec![plan], 1);
            engine.run().0[0].response_ms
        };
        let parallel = run(true);
        let serial = run(false);
        assert!(
            parallel <= serial + 1e-6,
            "parallel {parallel} vs serial {serial}"
        );
    }

    #[test]
    fn single_user_stream_runs_queries_back_to_back() {
        let config = small_config();
        let (plan1, layout) = build_plan(
            &config,
            &["time::month", "product::group"],
            QueryType::OneMonthOneGroup,
            vec![1, 1],
        );
        let (plan2, _) = build_plan(
            &config,
            &["time::month", "product::group"],
            QueryType::OneMonthOneGroup,
            vec![2, 2],
        );
        let engine = engine(config, layout, vec![plan1, plan2], 1);
        let (metrics, _, _, simulated) = engine.run();
        assert_eq!(metrics.len(), 2);
        // Total simulated time covers both queries executed sequentially.
        assert!(simulated >= metrics[0].response_ms + metrics[1].response_ms - 1.0);
    }

    #[test]
    fn multi_user_stream_overlaps_queries() {
        let config = small_config();
        let build = |month: u64| {
            build_plan(
                &config,
                &["time::month", "product::group"],
                QueryType::OneMonthOneGroup,
                vec![month, 1],
            )
        };
        let (plan1, layout) = build(1);
        let (plan2, _) = build(2);
        let serial = engine(config, layout, vec![plan1.clone(), plan2.clone()], 1);
        let (_, _, _, serial_time) = serial.run();
        let overlapped = engine(config, layout, vec![plan1, plan2], 2);
        let (metrics, _, _, overlapped_time) = overlapped.run();
        assert_eq!(metrics.len(), 2);
        assert!(
            overlapped_time < serial_time,
            "{overlapped_time} vs {serial_time}"
        );
    }
}
