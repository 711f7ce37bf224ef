//! Deterministic simulated disk I/O underneath the measured engine.
//!
//! The measured engine runs entirely in memory, so fragments cost nothing to
//! "read" and the paper's central claim — MDHF plus round-robin allocation
//! keeps a parallel star join balanced *even under skew* — was exercised
//! only on the CPU side.  This module closes that gap with a simulated
//! multi-disk subsystem the engine charges every fragment scan against:
//!
//! * **Per-disk service queues.**  Each disk owns a
//!   [`storage::DiskModel`] (track-based seek + settle + per-page transfer,
//!   Table 4 parameters) and serves its requests FIFO.  A scan's fact pages
//!   go to the disk chosen by
//!   [`allocation::PhysicalAllocation::fact_disk`], its bitmap fragments to
//!   the staggered [`allocation::PhysicalAllocation::bitmap_disk`] disks —
//!   the same placement the seed order of the work-stealing pool follows.
//! * **Per-node LRU page caches.**  One [`storage::PagePool`] per simulated
//!   node (a single pool in front of all disks on the default one-node
//!   subsystem), with hits and misses attributed to the disk that would
//!   have served the page.  Repeated scans of hot fragments are absorbed
//!   here, which is exactly what flattens the per-disk load profile of a
//!   Zipf-skewed workload.
//! * **Simulated nodes and an interconnect.**  [`IoConfig::with_nodes`]
//!   splits the disks into equal contiguous ranges owned by simulated
//!   nodes ([`allocation::NodePlacement`]).  A scan executes on its fact
//!   fragment's home node; under
//!   [`allocation::NodeStrategy::SharedNothing`] every cache miss on
//!   another node's disk additionally ships its pages over the executing
//!   node's FIFO interconnect lane ([`IoConfig::network_ms_per_page`]),
//!   traced as `NetTransfer` spans on the node track.
//! * **A deterministic clock.**  Every disk and interconnect lane is a
//!   [`storage::FcfsQueue`] whose requests all arrive at t = 0: the run is
//!   one batch, and the latest lane's drain time is its makespan.  Scans
//!   are charged in *plan order*, one query's plan after the other in
//!   query-id order — in the scheduler's planning pass, before any worker
//!   starts (query-id order is its FIFO admission order; a single
//!   `execute` is a stream of one) — never in thread-arrival order.  So
//!   every per-disk busy time, queue wait, cache hit count and the
//!   simulated makespan are bit-identical across runs, worker counts and
//!   MPLs, and no charge runs under a scheduler lock.
//!
//! Each charged scan returns a [`TaskIo`] whose simulated service time
//! becomes the task's *weight* in the work-stealing pool (steal victims are
//! picked by remaining simulated I/O, not deque length) and, optionally
//! ([`IoConfig::throttle`]), a wall-clock delay the worker spins for — so
//! skewed fragments are expensive in real time too and the stealing path is
//! exercised exactly as the paper's dynamic load balancing intends.
//!
//! What a scan reads is its [`SubqueryFootprint`], the count the analytic
//! cost model and SIMPAD share: the fragment's fact pages in prefetch
//! granules plus one fragment of every bitmap the plan still needs, over
//! the schema's [`schema::PageSizing`] (4 KB pages, `page / tuple-size`
//! fact rows per page, one bit per row for bitmap fragments).  The charger
//! reads each stored fragment whole, at its actual row count.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use allocation::{NodePlacement, PhysicalAllocation};
use mdhf::SubqueryFootprint;
use obs::{us_from_ms, EventKind, FieldKey, TraceRecorder, Track};
use schema::{PageSizing, StarSchema};
use storage::{BufferPoolStats, DiskModel, DiskParameters, FcfsQueue, PagePool};
use workload::QueryPlan;

use crate::source::ScanSource;
use crate::sync::PoisonLock;

/// Distinct page-cache objects per fragment: the fact object plus up to
/// `OBJECT_STRIDE - 1` bitmap fragments.
const OBJECT_STRIDE: u64 = 128;

/// Configuration of the simulated disk subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoConfig {
    /// Placement of fact and bitmap fragments onto the simulated disks, and
    /// of the disks onto simulated nodes in equal contiguous ranges (one
    /// node by default).  Under
    /// [`allocation::NodeStrategy::SharedNothing`] a scan executing on one
    /// node whose pages miss the cache on another node's disk ships them
    /// over the interconnect; [`allocation::NodeStrategy::SharedDisk`]
    /// reaches every disk directly.
    pub placement: NodePlacement,
    /// Per-disk service-time parameters (Table 4 defaults).
    pub disk: DiskParameters,
    /// Capacity of the shared LRU page cache, in pages; `0` disables the
    /// cache (every page is read from disk).
    pub cache_pages: usize,
    /// Prefetch granule on fact fragments, in pages (Table 4: 8).
    pub fact_prefetch_pages: u64,
    /// Prefetch granule on bitmap fragments, in pages (Table 4: 5).
    pub bitmap_prefetch_pages: u64,
    /// Wall-clock nanoseconds a worker spins per simulated millisecond of
    /// I/O, so simulated cost shows up in measured wall time.  `0` (the
    /// default) charges accounting only.
    pub wall_ns_per_sim_ms: u64,
    /// When `true` (default), steal victims are picked by remaining
    /// simulated I/O; `false` falls back to plain deque-length weighting
    /// (the skew-oblivious baseline of the resilience experiments).
    pub steal_by_io: bool,
    /// Simulated interconnect cost per cross-node page, in ms (only charged
    /// under [`allocation::NodeStrategy::SharedNothing`]).
    pub network_ms_per_page: f64,
}

impl IoConfig {
    /// Plain round-robin placement over `disks` disks with Table 4 disk
    /// parameters, a 1 000-page cache, Table 4 prefetch granules, no wall
    /// throttling and skew-aware stealing.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero.
    #[must_use]
    pub fn with_disks(disks: u64) -> Self {
        Self::with_allocation(PhysicalAllocation::round_robin(disks))
    }

    /// The default configuration over an explicit placement on one node.
    #[must_use]
    pub fn with_allocation(allocation: PhysicalAllocation) -> Self {
        Self::with_nodes(NodePlacement::single(allocation))
    }

    /// The default configuration over a two-level node → disk placement:
    /// the wrapped allocation's disks, owned by the placement's nodes under
    /// its strategy, each node with its own page cache.
    #[must_use]
    pub fn with_nodes(placement: NodePlacement) -> Self {
        IoConfig {
            placement,
            disk: DiskParameters::default(),
            cache_pages: 1_000,
            fact_prefetch_pages: 8,
            bitmap_prefetch_pages: 5,
            wall_ns_per_sim_ms: 0,
            steal_by_io: true,
            network_ms_per_page: 0.1,
        }
    }

    /// Sets the simulated interconnect cost per cross-node page, in ms.
    #[must_use]
    pub fn network(mut self, network_ms_per_page: f64) -> Self {
        self.network_ms_per_page = network_ms_per_page;
        self
    }

    /// Sets the shared page-cache capacity (`0` disables the cache).
    #[must_use]
    pub fn cache(mut self, cache_pages: usize) -> Self {
        self.cache_pages = cache_pages;
        self
    }

    /// Makes workers spin `wall_ns_per_sim_ms` wall nanoseconds per
    /// simulated millisecond of I/O.
    #[must_use]
    pub fn throttle(mut self, wall_ns_per_sim_ms: u64) -> Self {
        self.wall_ns_per_sim_ms = wall_ns_per_sim_ms;
        self
    }

    /// Disables the skew-aware stealing weights (deque-length baseline).
    #[must_use]
    pub fn steal_by_queue_len(mut self) -> Self {
        self.steal_by_io = false;
        self
    }

    /// Number of simulated disks.
    #[must_use]
    pub fn disks(&self) -> u64 {
        self.placement.total_disks()
    }
}

/// The simulated I/O charged to one fragment scan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskIo {
    /// Simulated service time of the scan's disk requests, in ms (the sum
    /// over its requests; requests on distinct disks would overlap in a
    /// real system, so this is the scan's serial I/O demand).
    pub sim_ms: f64,
    /// Pages transferred from disk (equals `cache_misses`).
    pub pages_read: u64,
    /// Pages satisfied by the shared cache.
    pub cache_hits: u64,
    /// Pages that had to be fetched.
    pub cache_misses: u64,
    /// The disk holding the scan's fact fragment.
    pub fact_disk: u64,
    /// The node the scan executed on — the owner of its fact disk, a
    /// deterministic function of the fragment number (0 on a single node).
    pub node: u64,
    /// Pages that missed the cache on another node's disk and travelled
    /// over the interconnect (0 under shared disk).
    pub remote_pages: u64,
    /// Simulated interconnect time within `sim_ms`, in ms.
    pub net_ms: f64,
    /// Simulated time at which the scan's earliest disk request started, in
    /// ms on the simulated clock (0 for fully cached or empty scans).
    pub sim_start_ms: f64,
    /// Simulated time at which the scan's last disk request completed, in
    /// ms on the simulated clock (0 for fully cached or empty scans).
    pub sim_end_ms: f64,
}

impl TaskIo {
    /// The scan's weight for skew-aware stealing, in simulated microseconds
    /// (at least 1 so a fully cached scan still counts as a queued task).
    #[must_use]
    pub fn cost_units(&self) -> u64 {
        let us = (self.sim_ms * 1_000.0).ceil();
        if us >= 1.0 {
            us as u64
        } else {
            1
        }
    }
}

/// Who a traced scan belongs to: the query and task ids stamped onto the
/// `Scan` and `DiskService` trace events a charge emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanCtx {
    /// Query id (0 for a single `execute`, a stream of one).
    pub query: u32,
    /// Task index within the query's plan.
    pub task: u32,
}

/// Per-disk accounting of one simulated subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiskIoStats {
    /// Disk number under the configured allocation.
    pub disk: u64,
    /// Objects (fact fragments / bitmap fragments) accessed on this disk.
    pub scans: u64,
    /// Disk requests served (one per prefetch granule with at least one
    /// cache miss).
    pub io_ops: u64,
    /// Pages transferred.
    pub pages_read: u64,
    /// Simulated busy time, in ms.
    pub busy_ms: f64,
    /// Simulated seek time within `busy_ms`.
    pub seek_ms: f64,
    /// Time-averaged number of requests waiting in this disk's FIFO queue
    /// over the simulated makespan.
    pub mean_queue_depth: f64,
    /// Page requests for this disk satisfied by the shared cache.
    pub cache_hits: u64,
    /// Page requests for this disk that went to the platter.
    pub cache_misses: u64,
}

impl DiskIoStats {
    /// This disk's cache hit ratio in `[0, 1]` (0 when never accessed).
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Per-node accounting of one simulated subsystem: the node's disks folded
/// together plus its interconnect lane and private cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeIoStats {
    /// Node number under the configured node placement.
    pub node: u64,
    /// Simulated busy time summed over the node's owned disks, in ms.
    pub disk_busy_ms: f64,
    /// Simulated busy time of the node's interconnect lane, in ms.
    pub net_ms: f64,
    /// Pages shipped to this node over the interconnect.
    pub net_pages: u64,
    /// Page requests satisfied by this node's private cache.
    pub cache_hits: u64,
    /// Page requests on this node that went to a platter.
    pub cache_misses: u64,
}

impl NodeIoStats {
    /// The node's total simulated load: disk busy time plus interconnect
    /// time — the per-node counterpart of a disk's `busy_ms`.
    #[must_use]
    pub fn load_ms(&self) -> f64 {
        self.disk_busy_ms + self.net_ms
    }
}

/// A snapshot of the simulated subsystem: per-disk utilisation and queue
/// statistics plus the shared cache's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct IoMetrics {
    /// Per-disk accounting, indexed by disk number.
    pub per_disk: Vec<DiskIoStats>,
    /// Per-node accounting, indexed by node number (one entry on a flat
    /// single-machine subsystem).
    pub per_node: Vec<NodeIoStats>,
    /// LRU page-cache counters summed over the per-node pools (all zero
    /// when the cache is disabled).
    pub cache: BufferPoolStats,
    /// Elapsed simulated time (the parallel-disk makespan, including
    /// interconnect lanes), in ms.
    pub elapsed_ms: f64,
}

impl IoMetrics {
    /// Number of simulated disks.
    #[must_use]
    pub fn disk_count(&self) -> usize {
        self.per_disk.len()
    }

    /// Total simulated busy time over all disks, in ms.
    #[must_use]
    pub fn total_busy_ms(&self) -> f64 {
        self.per_disk.iter().map(|d| d.busy_ms).sum()
    }

    /// Total pages transferred from the simulated disks.
    #[must_use]
    pub fn total_pages_read(&self) -> u64 {
        self.per_disk.iter().map(|d| d.pages_read).sum()
    }

    /// Total disk requests served.
    #[must_use]
    pub fn total_io_ops(&self) -> u64 {
        self.per_disk.iter().map(|d| d.io_ops).sum()
    }

    /// Measured per-disk load imbalance: the busiest disk's simulated busy
    /// time over the mean busy time (1.0 = perfectly declustered; an idle
    /// subsystem reports 1.0), via the shared
    /// [`allocation::load_imbalance`] formula.  This is the quantity the
    /// skew-resilience experiments gate on.
    #[must_use]
    pub fn disk_imbalance(&self) -> f64 {
        allocation::load_imbalance(&self.busy_profile())
    }

    /// One disk's utilisation over the simulated makespan, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `disk` is out of range.
    #[must_use]
    pub fn disk_utilisation(&self, disk: u64) -> f64 {
        if self.elapsed_ms <= f64::EPSILON {
            return 0.0;
        }
        (self.per_disk[disk as usize].busy_ms / self.elapsed_ms).min(1.0)
    }

    /// Hit ratio of the shared page cache in `[0, 1]`.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// The per-disk busy times, for analytic cross-validation against
    /// [`allocation::analysis::disk_load_shares`].
    #[must_use]
    pub fn busy_profile(&self) -> Vec<f64> {
        self.per_disk.iter().map(|d| d.busy_ms).collect()
    }

    /// Number of simulated nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// Measured per-node load imbalance: the busiest node's simulated load
    /// (disks + interconnect) over the mean, via the shared
    /// [`allocation::load_imbalance`] formula — the measured counterpart of
    /// [`allocation::node_load_shares`] predictions.
    #[must_use]
    pub fn node_imbalance(&self) -> f64 {
        allocation::load_imbalance(&self.node_load_profile())
    }

    /// The per-node simulated loads (disk busy + interconnect), for
    /// analytic cross-validation.
    #[must_use]
    pub fn node_load_profile(&self) -> Vec<f64> {
        self.per_node.iter().map(NodeIoStats::load_ms).collect()
    }

    /// Total simulated interconnect time over all nodes, in ms.
    #[must_use]
    pub fn total_net_ms(&self) -> f64 {
        self.per_node.iter().map(|n| n.net_ms).sum()
    }

    /// Total pages shipped across nodes over the interconnect.
    #[must_use]
    pub fn total_net_pages(&self) -> u64 {
        self.per_node.iter().map(|n| n.net_pages).sum()
    }
}

/// One simulated disk: the service-time model, its FIFO queue under batch
/// arrival, and its counters.
#[derive(Debug)]
struct DiskSim {
    model: DiskModel,
    queue: FcfsQueue,
    scans: u64,
    io_ops: u64,
    pages_read: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Everything the charging path mutates, under one lock.
#[derive(Debug)]
struct IoState {
    disks: Vec<DiskSim>,
    /// One private LRU page pool per node (empty when the cache is
    /// disabled); a single-node subsystem has exactly the old shared pool.
    caches: Vec<PagePool>,
    /// One interconnect FIFO lane per node, under batch arrival like the
    /// disks.
    net: Vec<FcfsQueue>,
    /// Pages shipped to each node over the interconnect.
    net_pages: Vec<u64>,
}

impl IoState {
    /// Elapsed simulated time: the makespan of the parallel disks and
    /// interconnect lanes, in ms.
    fn elapsed_ms(&self) -> f64 {
        self.disks
            .iter()
            .map(|d| &d.queue)
            .chain(&self.net)
            .map(FcfsQueue::free_at)
            .fold(0.0, f64::max)
    }
}

/// The simulated multi-disk subsystem the engine charges fragment scans
/// against.  See the [module docs](crate::io) for the model.
#[derive(Debug)]
pub struct SimulatedIo {
    config: IoConfig,
    sizing: PageSizing,
    state: Mutex<IoState>,
}

impl SimulatedIo {
    /// Creates an idle subsystem; page arithmetic derives from `schema`'s
    /// [`PageSizing`] (4 KB pages, tuple-size rows per page).
    #[must_use]
    pub fn new(config: IoConfig, schema: &StarSchema) -> Self {
        let disks = (0..config.disks())
            .map(|_| DiskSim {
                model: DiskModel::new(config.disk),
                queue: FcfsQueue::default(),
                scans: 0,
                io_ops: 0,
                pages_read: 0,
                cache_hits: 0,
                cache_misses: 0,
            })
            .collect();
        let nodes = usize::try_from(config.placement.nodes()).expect("node count fits usize");
        SimulatedIo {
            sizing: PageSizing::new(schema),
            state: Mutex::new(IoState {
                disks,
                caches: if config.cache_pages > 0 {
                    (0..nodes)
                        .map(|_| PagePool::new(config.cache_pages))
                        .collect()
                } else {
                    Vec::new()
                },
                net: vec![FcfsQueue::default(); nodes],
                net_pages: vec![0; nodes],
            }),
            config,
        }
    }

    /// The subsystem's configuration.
    #[must_use]
    pub fn config(&self) -> &IoConfig {
        &self.config
    }

    /// Charges one fragment scan reading `footprint`: the fragment's fact
    /// pages on its allocation disk plus one fragment of each of
    /// `footprint.bitmaps` bitmaps on their staggered disks, each in
    /// prefetch granules through the executing node's cache.  Returns the
    /// scan's simulated cost.  When `recorder` is present, emits one
    /// `DiskService` event per charged object on its disk's track and one
    /// `Scan` event on the query's track, all stamped from the simulated
    /// clock, so the trace inherits the charge order's determinism.
    ///
    /// Charges must arrive in a deterministic order (plan order, query
    /// after query in query-id order) — that order, not thread
    /// scheduling, defines the cache and arm state each scan sees.
    ///
    /// # Panics
    ///
    /// Panics if the scan needs more than `OBJECT_STRIDE - 1` bitmap
    /// fragments (the per-fragment cache-object budget) or the state lock
    /// is poisoned.
    pub fn charge_scan(
        &self,
        fragment_no: u64,
        footprint: &SubqueryFootprint,
        ctx: ScanCtx,
        recorder: Option<&TraceRecorder>,
    ) -> TaskIo {
        assert!(
            footprint.bitmaps < OBJECT_STRIDE,
            "at most {} bitmap fragments per scan",
            OBJECT_STRIDE - 1
        );
        let placement = &self.config.placement;
        let fact_disk = placement.allocation().fact_disk(fragment_no);
        let mut out = TaskIo {
            fact_disk,
            node: placement.node_of_disk(fact_disk),
            ..TaskIo::default()
        };
        if footprint.fact_pages == 0 {
            return out;
        }
        let mut state = self.state.plock("simulated I/O state");
        let (mut start_ms, mut end_ms) = self.charge_object(
            &mut state,
            out.fact_disk,
            fragment_no * OBJECT_STRIDE,
            footprint.fact_pages,
            self.config.fact_prefetch_pages,
            &mut out,
            ctx,
            recorder,
        );
        for b in 0..footprint.bitmaps {
            let disk = placement.allocation().bitmap_disk(fragment_no, b);
            let (object_start, object_end) = self.charge_object(
                &mut state,
                disk,
                fragment_no * OBJECT_STRIDE + 1 + b,
                footprint.bitmap_pages,
                self.config.bitmap_prefetch_pages,
                &mut out,
                ctx,
                recorder,
            );
            start_ms = start_ms.min(object_start);
            end_ms = end_ms.max(object_end);
        }
        // Shared nothing: pages fetched from another node's disks travel
        // over the executing node's interconnect lane, FIFO like a disk.
        if out.remote_pages > 0 {
            let service = out.remote_pages as f64 * self.config.network_ms_per_page;
            let node = usize::try_from(out.node).expect("node fits usize");
            let (net_start, net_end) = state.net[node].submit(0.0, service);
            state.net_pages[node] += out.remote_pages;
            out.net_ms = service;
            out.sim_ms += service;
            start_ms = start_ms.min(net_start);
            end_ms = end_ms.max(net_end);
            if let Some(rec) = recorder {
                rec.record(
                    Track::Node(out.node as u32),
                    EventKind::NetTransfer,
                    us_from_ms(net_start),
                    us_from_ms(net_end).saturating_sub(us_from_ms(net_start)),
                    vec![
                        (FieldKey::Query, u64::from(ctx.query)),
                        (FieldKey::Task, u64::from(ctx.task)),
                        (FieldKey::Fragment, fragment_no),
                        (FieldKey::Pages, out.remote_pages),
                        (FieldKey::SimMsBits, service.to_bits()),
                    ],
                );
            }
        }
        out.sim_start_ms = start_ms;
        out.sim_end_ms = end_ms;
        if let Some(rec) = recorder {
            rec.record(
                Track::Query(ctx.query),
                EventKind::Scan,
                us_from_ms(start_ms),
                us_from_ms(end_ms).saturating_sub(us_from_ms(start_ms)),
                vec![
                    (FieldKey::Task, u64::from(ctx.task)),
                    (FieldKey::Fragment, fragment_no),
                    (FieldKey::Rows, footprint.relevant_rows as u64),
                    (FieldKey::Pages, out.pages_read),
                    (FieldKey::CacheHits, out.cache_hits),
                    (FieldKey::CacheMisses, out.cache_misses),
                    (FieldKey::Disk, out.fact_disk),
                    (FieldKey::SimMsBits, out.sim_ms.to_bits()),
                ],
            );
        }
        out
    }

    /// Charges one contiguous object (a fact fragment or one bitmap
    /// fragment) on `disk`, granule by granule through the cache; returns
    /// the simulated `(start, end)` window of the object's disk activity
    /// (`start == end` when fully cached).
    #[allow(clippy::too_many_arguments)]
    fn charge_object(
        &self,
        state: &mut IoState,
        disk: u64,
        object: u64,
        pages: u64,
        prefetch_pages: u64,
        out: &mut TaskIo,
        ctx: ScanCtx,
        recorder: Option<&TraceRecorder>,
    ) -> (f64, f64) {
        let track = object_track(object, self.config.disk.tracks);
        let prefetch = prefetch_pages.max(1);
        // Cache lookups go through the *executing* node's private pool;
        // shared-nothing misses on a remote disk additionally ship their
        // pages over the interconnect (charged once per scan by the caller).
        let exec_node = usize::try_from(out.node).expect("node fits usize");
        let remote = !self.config.placement.is_local(out.node, disk);
        let d = &mut state.disks[disk as usize];
        d.scans += 1;
        let start_ms = d.queue.free_at();
        let mut object_hits = 0u64;
        let mut object_misses = 0u64;
        let mut page = 0;
        while page < pages {
            let granule = prefetch.min(pages - page);
            let misses = match state.caches.get_mut(exec_node) {
                Some(cache) => cache.request_range(object, page, granule),
                None => granule,
            };
            let hits = granule - misses;
            d.cache_hits += hits;
            out.cache_hits += hits;
            object_hits += hits;
            if misses > 0 {
                // The first granule of an object pays the seek to its
                // track; later granules are sequential on the same track.
                let service = d.model.service(track, misses);
                d.queue.submit(0.0, service);
                d.io_ops += 1;
                d.pages_read += misses;
                d.cache_misses += misses;
                out.sim_ms += service;
                out.pages_read += misses;
                out.cache_misses += misses;
                object_misses += misses;
                if remote {
                    out.remote_pages += misses;
                }
            }
            page += granule;
        }
        let end_ms = d.queue.free_at();
        if let Some(rec) = recorder {
            rec.record(
                Track::Disk(disk as u32),
                EventKind::DiskService,
                us_from_ms(start_ms),
                us_from_ms(end_ms).saturating_sub(us_from_ms(start_ms)),
                vec![
                    (FieldKey::Query, u64::from(ctx.query)),
                    (FieldKey::Task, u64::from(ctx.task)),
                    (FieldKey::Pages, pages),
                    (FieldKey::CacheHits, object_hits),
                    (FieldKey::CacheMisses, object_misses),
                ],
            );
        }
        (start_ms, end_ms)
    }

    /// Charges every fragment scan of `plan` in plan order — the engine's
    /// deterministic replay — returning one [`TaskIo`] per task.  Only the
    /// source's *metadata* (catalog, per-fragment row counts) is touched:
    /// charging a file-backed source performs no real I/O.
    #[must_use]
    pub fn charge_plan(&self, plan: &QueryPlan, source: &ScanSource) -> Vec<TaskIo> {
        self.charge_plan_traced(plan, source, 0, None)
    }

    /// [`Self::charge_plan`] with trace attribution for `query`.
    #[must_use]
    pub fn charge_plan_traced(
        &self,
        plan: &QueryPlan,
        source: &ScanSource,
        query: u32,
        recorder: Option<&TraceRecorder>,
    ) -> Vec<TaskIo> {
        let bitmaps = plan.classification().bitmaps_per_subquery(source.catalog());
        plan.fragments()
            .iter()
            .enumerate()
            .map(|(task, &f)| {
                // The charger reads each stored fragment whole.
                let footprint = SubqueryFootprint::stored(
                    &self.sizing,
                    source.fragment_rows(f),
                    bitmaps,
                    self.config.fact_prefetch_pages,
                );
                self.charge_scan(
                    f,
                    &footprint,
                    ScanCtx {
                        query,
                        task: task as u32,
                    },
                    recorder,
                )
            })
            .collect()
    }

    /// Elapsed simulated time so far (the parallel-disk makespan), in ms —
    /// the admission timestamp source for deterministic trace events.
    ///
    /// # Panics
    ///
    /// Panics if the state lock is poisoned.
    #[must_use]
    pub fn sim_elapsed_ms(&self) -> f64 {
        self.state.plock("simulated I/O state").elapsed_ms()
    }

    /// A snapshot of the subsystem's accounting.
    ///
    /// # Panics
    ///
    /// Panics if the state lock is poisoned.
    #[must_use]
    pub fn metrics(&self) -> IoMetrics {
        let state = self.state.plock("simulated I/O state");
        let elapsed_ms = state.elapsed_ms();
        let per_disk: Vec<DiskIoStats> = state
            .disks
            .iter()
            .enumerate()
            .map(|(i, d)| DiskIoStats {
                disk: i as u64,
                scans: d.scans,
                io_ops: d.io_ops,
                pages_read: d.pages_read,
                busy_ms: d.queue.busy_ms(),
                seek_ms: d.model.total_seek_ms(),
                mean_queue_depth: if elapsed_ms <= f64::EPSILON {
                    0.0
                } else {
                    d.queue.wait_ms() / elapsed_ms
                },
                cache_hits: d.cache_hits,
                cache_misses: d.cache_misses,
            })
            .collect();
        let per_node = (0..self.config.placement.nodes())
            .map(|n| {
                let i = usize::try_from(n).expect("node fits usize");
                let (pool_hits, pool_misses) = state
                    .caches
                    .get(i)
                    .map(PagePool::stats)
                    .map_or((0, 0), |s| (s.hits, s.misses));
                NodeIoStats {
                    node: n,
                    disk_busy_ms: per_disk
                        .iter()
                        .filter(|d| self.config.placement.node_of_disk(d.disk) == n)
                        .map(|d| d.busy_ms)
                        .sum(),
                    net_ms: state.net[i].busy_ms(),
                    net_pages: state.net_pages[i],
                    cache_hits: pool_hits,
                    cache_misses: pool_misses,
                }
            })
            .collect();
        let mut cache = BufferPoolStats::default();
        for pool in &state.caches {
            let s = pool.stats();
            cache.hits += s.hits;
            cache.misses += s.misses;
            cache.evictions += s.evictions;
        }
        IoMetrics {
            per_disk,
            per_node,
            cache,
            elapsed_ms,
        }
    }
}

/// Deterministically scatters cache objects over the disk's tracks, so
/// consecutive fragments do not trivially share arm positions.
fn object_track(object: u64, tracks: u64) -> u64 {
    crate::store::mix64(object, 0) % tracks.max(1)
}

/// Spins the calling worker for `sim_ms` of simulated I/O at the configured
/// throttle rate — how simulated disk time becomes measured wall time.
pub(crate) fn throttle_for(sim_ms: f64, wall_ns_per_sim_ms: u64) {
    if wall_ns_per_sim_ms == 0 || sim_ms <= 0.0 {
        return;
    }
    let wall = Duration::from_nanos((sim_ms * wall_ns_per_sim_ms as f64) as u64);
    // detlint: allow(wall-clock, reason = "this IS the wall throttle: it converts simulated ms into spun wall time")
    let start = Instant::now();
    while start.elapsed() < wall {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allocation::NodeStrategy;
    use schema::apb1::apb1_scaled_down;

    /// Charges a whole stored fragment of `rows` rows reading `bitmaps`
    /// bitmap fragments, untraced.
    fn scan(io: &SimulatedIo, fragment: u64, rows: u64, bitmaps: u64) -> TaskIo {
        let footprint =
            SubqueryFootprint::stored(&io.sizing, rows, bitmaps, io.config.fact_prefetch_pages);
        io.charge_scan(fragment, &footprint, ScanCtx::default(), None)
    }

    fn subsystem(disks: u64, cache_pages: usize) -> SimulatedIo {
        SimulatedIo::new(
            IoConfig::with_disks(disks).cache(cache_pages),
            &apb1_scaled_down(),
        )
    }

    #[test]
    fn charging_is_deterministic_across_runs() {
        let charge = |io: &SimulatedIo| -> Vec<TaskIo> {
            (0..20).map(|f| scan(io, f, 5_000 + f * 131, 3)).collect()
        };
        let a = subsystem(4, 256);
        let b = subsystem(4, 256);
        assert_eq!(charge(&a), charge(&b));
        assert_eq!(a.metrics(), b.metrics());
        assert!(a.metrics().elapsed_ms > 0.0);
    }

    #[test]
    fn scans_land_on_their_allocation_disks() {
        let io = subsystem(4, 0);
        let t = scan(&io, 6, 1_000, 2);
        assert_eq!(t.fact_disk, 2);
        let m = io.metrics();
        // Fact pages on disk 2; two staggered bitmap fragments on disks 3, 0.
        assert!(m.per_disk[2].pages_read > 0);
        assert!(m.per_disk[3].pages_read > 0);
        assert!(m.per_disk[0].pages_read > 0);
        assert_eq!(m.per_disk[1].pages_read, 0);
        assert_eq!(m.total_pages_read(), t.pages_read);
    }

    #[test]
    fn cache_absorbs_repeated_scans() {
        let io = subsystem(2, 512);
        let first = scan(&io, 0, 10_000, 0);
        let second = scan(&io, 0, 10_000, 0);
        assert!(first.cache_misses > 0);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(second.cache_misses, 0);
        assert_eq!(second.sim_ms, 0.0);
        assert_eq!(second.cache_hits, first.cache_misses);
        let m = io.metrics();
        assert!((m.cache_hit_rate() - 0.5).abs() < 1e-12);
        // Pages read from disk always equal total cache misses.
        assert_eq!(m.total_pages_read(), m.cache.misses);
    }

    #[test]
    fn disabled_cache_reads_every_page_every_time() {
        let io = subsystem(2, 0);
        let first = scan(&io, 0, 2_000, 1);
        let second = scan(&io, 0, 2_000, 1);
        assert_eq!(first.pages_read, second.pages_read);
        assert!(second.sim_ms > 0.0);
        assert_eq!(io.metrics().cache, BufferPoolStats::default());
        assert_eq!(io.metrics().cache_hit_rate(), 0.0);
    }

    #[test]
    fn sequential_granules_pay_one_seek() {
        // A large scan's first granule pays the seek; the rest are
        // sequential transfers, so mean service per op approaches
        // settle + prefetch × per-page.
        let io = subsystem(1, 0);
        let t = scan(&io, 0, 200 * 204, 0); // 200 pages → 25 granules
        let m = io.metrics();
        assert_eq!(m.per_disk[0].io_ops, 25);
        let sequential_floor = 25.0 * (3.0 + 8.0);
        assert!(t.sim_ms >= sequential_floor);
        assert!(t.sim_ms <= sequential_floor + 30.0 + 1e-9, "{}", t.sim_ms);
        assert!(m.per_disk[0].seek_ms <= 30.0);
    }

    #[test]
    fn empty_fragments_cost_nothing() {
        let io = subsystem(3, 16);
        let t = scan(&io, 5, 0, 4);
        assert_eq!(
            t,
            TaskIo {
                fact_disk: 2,
                ..TaskIo::default()
            }
        );
        assert_eq!(io.metrics().total_io_ops(), 0);
        assert_eq!(io.metrics().elapsed_ms, 0.0);
        assert_eq!(io.metrics().disk_imbalance(), 1.0);
    }

    #[test]
    fn cost_units_floor_at_one() {
        assert_eq!(TaskIo::default().cost_units(), 1);
        let t = TaskIo {
            sim_ms: 2.5,
            ..TaskIo::default()
        };
        assert_eq!(t.cost_units(), 2_500);
    }

    #[test]
    fn clock_models_fifo_queues() {
        // Fragments 0 and 2 land on disk 0, fragment 1 on disk 1.
        let io = subsystem(2, 0);
        let first = scan(&io, 0, 2_000, 0);
        let second = scan(&io, 2, 2_000, 0);
        let other = scan(&io, 1, 2_000, 0);
        assert_eq!((first.sim_start_ms, first.sim_end_ms), (0.0, first.sim_ms));
        // The second request on disk 0 queues behind the first.
        assert_eq!(second.sim_start_ms, first.sim_end_ms);
        assert!((second.sim_end_ms - (first.sim_ms + second.sim_ms)).abs() < 1e-9);
        assert_eq!((other.sim_start_ms, other.sim_end_ms), (0.0, other.sim_ms));
        let m = io.metrics();
        assert_eq!(m.per_disk[0].busy_ms, second.sim_end_ms);
        assert_eq!(m.per_disk[1].busy_ms, other.sim_ms);
        assert_eq!(m.elapsed_ms, second.sim_end_ms);
        assert_eq!(io.sim_elapsed_ms(), m.elapsed_ms);
    }

    #[test]
    fn queue_depth_and_utilisation_derive_from_the_clock() {
        let io = subsystem(2, 0);
        for f in 0..8 {
            // All on disk 0 (even fragments of a 2-disk round robin).
            scan(&io, f * 2, 4_000, 0);
        }
        let m = io.metrics();
        assert!(m.per_disk[0].mean_queue_depth > 0.0);
        assert_eq!(m.per_disk[1].mean_queue_depth, 0.0);
        assert!((m.disk_utilisation(0) - 1.0).abs() < 1e-12);
        assert_eq!(m.disk_utilisation(1), 0.0);
        assert!((m.disk_imbalance() - 2.0).abs() < 1e-12);
        assert_eq!(m.disk_count(), 2);
        assert_eq!(m.busy_profile().len(), 2);
    }

    #[test]
    fn skewed_loads_show_up_in_the_imbalance() {
        let io = subsystem(4, 0);
        // Fragment 0 is 20x the size of the others.
        scan(&io, 0, 80_000, 0);
        for f in 1..16 {
            scan(&io, f, 4_000, 0);
        }
        let m = io.metrics();
        assert!(m.disk_imbalance() > 2.0, "{}", m.disk_imbalance());
    }

    fn node_subsystem(
        nodes: u64,
        disks_per_node: u64,
        strategy: NodeStrategy,
        cache_pages: usize,
    ) -> SimulatedIo {
        let placement = NodePlacement::new(nodes, disks_per_node, strategy);
        SimulatedIo::new(
            IoConfig::with_nodes(placement).cache(cache_pages),
            &apb1_scaled_down(),
        )
    }

    #[test]
    fn single_node_is_the_flat_subsystem() {
        // nodes = 1 + shared disk must reproduce the flat arithmetic bit
        // for bit: same charges, same metrics.
        let flat = subsystem(4, 256);
        let noded = node_subsystem(1, 4, NodeStrategy::SharedDisk, 256);
        for f in 0..20 {
            let a = scan(&flat, f, 5_000 + f * 131, 3);
            let b = scan(&noded, f, 5_000 + f * 131, 3);
            assert_eq!(a.sim_ms.to_bits(), b.sim_ms.to_bits());
            assert_eq!(a.pages_read, b.pages_read);
            assert_eq!(a.cache_hits, b.cache_hits);
            assert_eq!(b.node, 0);
            assert_eq!(b.remote_pages, 0);
            assert_eq!(b.net_ms, 0.0);
        }
        let (fm, nm) = (flat.metrics(), noded.metrics());
        assert_eq!(fm.per_disk, nm.per_disk);
        assert_eq!(fm.cache, nm.cache);
        assert_eq!(nm.node_count(), 1);
        assert_eq!(nm.node_imbalance(), 1.0);
        assert_eq!(nm.total_net_pages(), 0);
    }

    #[test]
    fn shared_nothing_charges_the_interconnect() {
        // 2 nodes × 2 disks, no cache.  Fragment 0's fact pages are local
        // to node 0 (disk 0) but its staggered bitmaps land on disks 1 and
        // 2 — disk 2 is node 1's, so those pages ship over the wire.
        let io = node_subsystem(2, 2, NodeStrategy::SharedNothing, 0);
        let t = scan(&io, 0, 4_000, 2);
        assert_eq!(t.node, 0);
        assert!(t.remote_pages > 0);
        assert!(t.net_ms > 0.0);
        assert!((t.net_ms - t.remote_pages as f64 * 0.1).abs() < 1e-12);
        assert!(t.sim_end_ms >= t.net_ms);
        let m = io.metrics();
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.per_node[0].net_pages, t.remote_pages);
        assert_eq!(m.per_node[1].net_pages, 0);
        assert!((m.total_net_ms() - t.net_ms).abs() < 1e-12);
        assert_eq!(m.total_net_pages(), t.remote_pages);
        // The makespan includes the interconnect lane.
        assert!(m.elapsed_ms >= m.per_node[0].net_ms);
    }

    #[test]
    fn shared_disk_never_pays_the_interconnect() {
        let io = node_subsystem(2, 2, NodeStrategy::SharedDisk, 0);
        let t = scan(&io, 0, 4_000, 2);
        assert_eq!(t.remote_pages, 0);
        assert_eq!(t.net_ms, 0.0);
        assert_eq!(io.metrics().total_net_ms(), 0.0);
        assert_eq!(io.metrics().total_net_pages(), 0);
    }

    #[test]
    fn node_charging_is_deterministic_across_runs() {
        let charge = |io: &SimulatedIo| -> Vec<TaskIo> {
            (0..24).map(|f| scan(io, f, 3_000 + f * 97, 3)).collect()
        };
        let a = node_subsystem(4, 2, NodeStrategy::SharedNothing, 128);
        let b = node_subsystem(4, 2, NodeStrategy::SharedNothing, 128);
        assert_eq!(charge(&a), charge(&b));
        assert_eq!(a.metrics(), b.metrics());
        assert!(a.metrics().total_net_pages() > 0);
    }

    #[test]
    fn per_node_cache_counters_attribute_to_the_executing_node() {
        let io = node_subsystem(2, 2, NodeStrategy::SharedNothing, 512);
        // Fragment 0 executes on node 0, fragment 2 on node 1.
        scan(&io, 0, 4_000, 0);
        scan(&io, 0, 4_000, 0);
        scan(&io, 2, 4_000, 0);
        let m = io.metrics();
        assert!(m.per_node[0].cache_hits > 0);
        assert!(m.per_node[0].cache_misses > 0);
        assert_eq!(m.per_node[1].cache_hits, 0);
        assert!(m.per_node[1].cache_misses > 0);
        assert_eq!(
            m.cache.hits,
            m.per_node.iter().map(|n| n.cache_hits).sum::<u64>()
        );
        assert_eq!(
            m.cache.misses,
            m.per_node.iter().map(|n| n.cache_misses).sum::<u64>()
        );
    }

    #[test]
    fn node_imbalance_reflects_a_hot_node() {
        let io = node_subsystem(2, 2, NodeStrategy::SharedNothing, 0);
        // All load on node 0's disks (fragments 0, 1 → disks 0, 1).
        scan(&io, 0, 40_000, 0);
        scan(&io, 1, 40_000, 0);
        let m = io.metrics();
        assert!(
            (m.node_imbalance() - 2.0).abs() < 1e-9,
            "{}",
            m.node_imbalance()
        );
        assert!((m.per_node[0].load_ms() - m.per_node[0].disk_busy_ms).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn uneven_node_split_rejected() {
        let placement = NodePlacement::over(
            PhysicalAllocation::round_robin(4),
            3,
            NodeStrategy::SharedDisk,
        );
        let _ = SimulatedIo::new(IoConfig::with_nodes(placement), &apb1_scaled_down());
    }

    #[test]
    #[should_panic(expected = "bitmap fragments per scan")]
    fn oversized_bitmap_count_rejected() {
        scan(&subsystem(2, 0), 0, 100, OBJECT_STRIDE);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disk_clock_rejected() {
        let _ = subsystem(0, 0);
    }
}
