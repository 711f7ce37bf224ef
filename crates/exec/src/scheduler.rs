//! The one execution path: inter-query parallelism over one shared worker
//! pool.
//!
//! The paper's multi-user experiments stress the regime one query at a
//! time cannot reach: many concurrent star queries competing for the same
//! disks and CPUs, where throughput — not single-query speedup — decides
//! the fragmentation and allocation choice.  Its single-user mode is the
//! same mechanism at MPL 1: the next query starts when the previous one
//! ends.  [`StarJoinEngine::run`] serves both:
//!
//! * a stream of [`QueryPlan`]s is **admitted** under an MPL
//!   (multi-programming level) limit — at most [`RunConfig::mpl`] queries
//!   are decomposed into per-fragment tasks at any time, the rest wait in
//!   FIFO order,
//! * every task is tagged with its query's in-flight slot and its plan
//!   position, and carries its disk affinity: when the simulated I/O
//!   layer is on, each admitted query's tasks are dealt to the workers in
//!   [`allocation::PhysicalAllocation::subquery_disks`] order (the
//!   engine's placement seed order), so a worker's chunk maps to a
//!   contiguous disk stripe,
//! * **one** work-stealing pool of [`RunConfig::pool_size`] workers serves
//!   *all* in-flight queries — tasks from different queries interleave in
//!   the shared deques instead of each query spawning its own pool, so
//!   MPL > 1 never over-subscribes the machine.  The workers are the
//!   calling thread plus helpers borrowed from the engine's persistent
//!   worker pool; no run spawns a thread.  A single query's
//!   [`StarJoinEngine::execute`] is this same run: a stream of one,
//! * with [`RunConfig::io`] set, **one** simulated disk subsystem
//!   ([`crate::io::SimulatedIo`]) serves the whole stream: each query's
//!   plan is charged in the planning pass, in query-id order — which is
//!   the FIFO admission order, so the replay is the one an
//!   admission-time charge would make, and no thread interleave can
//!   change it.  The shared page cache persists across queries (repeated
//!   scans of hot fragments hit it); admission only deals the precomputed
//!   charges, and tasks are steal-weighted by their simulated I/O,
//! * each completed query is merged **deterministically** in plan order
//!   through one fold (the engine's `merge_partials`), so every query's
//!   hits and measure sums are bit-identical to its isolated serial run,
//!   for every MPL, worker count and scheduling interleave,
//! * when the I/O layer simulates a **shared-nothing multi-node** system
//!   (a [`crate::io::IoConfig::placement`] of more than one node under
//!   [`allocation::NodeStrategy::SharedNothing`]), the pool splits into
//!   per-node worker ranges: each admitted task is dealt to a worker on its
//!   fragment's *home node* ([`allocation::NodePlacement::home_node`]), a
//!   dry worker first steals within its own node, and only then migrates
//!   work across the interconnect — the first cross-node pull of a fragment
//!   ships a replica to the thief's node (a wall-clock charge and a
//!   [`WorkerMetrics::fragments_replicated`] count; later migrations of the
//!   same fragment hit the replica).  Migration is a scheduling outcome:
//!   the simulated clocks, traces and results are untouched by it, so
//!   multi-node runs stay bit-identical to single-node runs,
//! * the run reports [`ThroughputMetrics`]: queries/sec, the per-query
//!   latency distribution, worker utilisation, steal counts, the
//!   disk-affinity hit rate and — with the I/O layer on — per-disk
//!   utilisation, queue depth and cache statistics.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use allocation::{NodePlacement, NodeStrategy};
use bitmap::Bitmap;
use obs::{us_from_ms, EventKind, FieldKey, Trace, TraceRecorder, Track};
use workload::{PredicateBinding, QueryPlan};

use crate::engine::{
    merge_partials, placement_seed_order, process_fragment, FragmentPartial, RunConfig,
    StarJoinEngine,
};
use crate::io::{throttle_for, SimulatedIo};
use crate::metrics::{ExecMetrics, ThroughputMetrics, WorkerMetrics};
use crate::pool::Job;
use crate::queue::StealDeques;
use crate::source::ScanSource;
use crate::sync::PoisonLock;

/// The result of one scheduled query, in submission order.
///
/// `hits` and `measure_sums` are bit-identical to the query's isolated
/// serial execution (a stream of one on [`RunConfig::serial`]).
#[derive(Debug, Clone, Default)]
pub struct ScheduledQuery {
    /// Position of the query in the submitted stream.
    pub query_id: usize,
    /// The query's diagnostic name.
    pub query_name: String,
    /// Number of fact rows satisfying all predicates.
    pub hits: u64,
    /// Sum per measure over all hit rows, in schema measure order.
    pub measure_sums: Vec<f64>,
    /// Number of per-fragment tasks the query's plan decomposed into.
    pub planned_fragments: usize,
    /// Fact rows scanned across the query's tasks.
    pub rows_scanned: u64,
    /// Time from run start until the query was admitted (admission-control
    /// queueing delay).
    pub admission_wait: Duration,
    /// Time from admission until the last task's partial was merged — the
    /// per-query response time of the multi-user workload.
    pub latency: Duration,
}

/// The outcome of one run: per-query results in submission order plus the
/// shared pool's throughput metrics.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// One result per submitted query, in submission order.
    pub queries: Vec<ScheduledQuery>,
    /// Aggregate throughput metrics of the run.
    pub metrics: ThroughputMetrics,
    /// The recorded trace when [`RunConfig::obs`] was enabled.
    pub trace: Option<Trace>,
}

/// One claimable unit of work: a fragment of an in-flight query.
struct Task {
    /// In-flight slot of the owning query.
    slot: usize,
    /// Submission index of the owning query (trace attribution).
    query: usize,
    /// Position within the owning plan's fragment list (merge order).
    task: usize,
    /// The store fragment number to process.
    fragment: u64,
    /// Simulated I/O charged to this task in the planning pass (0 with
    /// the I/O layer off).
    sim_ms: f64,
}

/// What admission deals for one task: its simulated I/O and steal weight.
#[derive(Debug, Clone, Copy)]
struct TaskCharge {
    /// Simulated I/O charged to the task's scan, in ms.
    sim_ms: f64,
    /// Steal weight: the scan's simulated µs under skew-aware stealing,
    /// otherwise 1.
    cost: u64,
}

/// The charge of every task with the I/O layer off.
const NO_IO: TaskCharge = TaskCharge {
    sim_ms: 0.0,
    cost: 1,
};

/// A planned and charged query waiting for, or in, admission (immutable
/// during the run).
struct Prepared {
    query_name: String,
    /// Plan fragment numbers, in plan (merge) order.
    fragments: Vec<u64>,
    /// Task indices in seeding order: the disk-affinity permutation of the
    /// I/O layer's placement when it is on, plan order otherwise.
    seed_order: Vec<usize>,
    bindings: Vec<PredicateBinding>,
    /// Per plan position: the task's precomputed simulated I/O (empty with
    /// the I/O layer off, when every task deals as [`NO_IO`]).
    charges: Vec<TaskCharge>,
    /// The query's admission and completion stamps on the deterministic
    /// trace clock, in µs: simulated elapsed time before and after its
    /// charges, or its query id (the logical admission counter) when the
    /// I/O layer is off.
    admit_us: u64,
    complete_us: u64,
}

/// Mutable bookkeeping of one admitted query.
struct InFlight {
    query_id: usize,
    /// Rows scanned and hits over the deposited tasks.
    rows: u64,
    hits: u64,
    /// Per-task measure sums, `measure_count` per task by plan position:
    /// allocated once at admission, filled by the deposits.
    task_sums: Vec<f64>,
    remaining: usize,
    admitted_at: Instant,
    admission_wait: Duration,
}

/// All state the admission/completion logic mutates, under one lock.
struct Control {
    /// Query ids not yet admitted, in FIFO order.
    pending: VecDeque<usize>,
    /// In-flight queries by slot; `None` slots are free.
    slots: Vec<Option<InFlight>>,
    free_slots: Vec<usize>,
    /// Number of admitted-but-unfinished queries.
    active: usize,
    /// Results by query id.
    results: Vec<Option<ScheduledQuery>>,
    /// Rotating worker cursor so consecutive small queries start on
    /// different workers instead of all piling onto worker 0.
    seed_cursor: usize,
    /// One rotating cursor per simulated node (empty in single-node runs):
    /// node-homed tasks are dealt round-robin over their home node's worker
    /// range, so a node's workers share its load evenly.
    node_cursors: Vec<usize>,
    /// Per-worker accounting, filed by each worker as it leaves the run (a
    /// helper that arrived after the run finished ran nothing).
    finished: Vec<WorkerMetrics>,
}

/// Everything the workers share, owned by the run: pool helpers outlive
/// any borrow.
struct Shared {
    source: Arc<ScanSource>,
    deques: StealDeques<Task>,
    control: Mutex<Control>,
    /// Signalled when queries are admitted or the run aborts.
    work: Condvar,
    prepared: Vec<Prepared>,
    mpl: usize,
    measure_count: usize,
    /// Wall nanoseconds a worker spins per simulated I/O millisecond (the
    /// I/O layer's throttle; 0 when it is off).  Simulated I/O itself was
    /// charged in the planning pass, so nothing here reaches the
    /// simulated disk subsystem.
    wall_ns_per_sim_ms: u64,
    /// The run's event sink when tracing is enabled.
    obs: Option<TraceRecorder>,
    /// The shared-nothing node topology when the I/O layer simulates more
    /// than one node; `None` runs the classic single-node pool.
    nodes: Option<NodeTopology>,
    started: Instant,
    /// Set when a task panicked: the run will never finish, so every
    /// worker leaves at its next claim.
    aborted: AtomicBool,
}

/// The pool's node layout under a shared-nothing multi-node I/O subsystem:
/// which workers belong to which simulated node, which node is a
/// fragment's home, and which fragments each node has pulled a replica of.
struct NodeTopology {
    placement: NodePlacement,
    /// Pool size the worker ranges partition.
    workers: usize,
    /// Per-node replicated-fragment sets: a migrated task's first execution
    /// on a foreign node ships the fragment there (a wall-clock charge);
    /// later migrations of the same fragment hit the replica for free.
    replicas: Vec<Mutex<BTreeSet<u64>>>,
}

impl NodeTopology {
    fn new(placement: NodePlacement, workers: usize) -> Self {
        NodeTopology {
            placement,
            workers,
            replicas: (0..placement.nodes()).map(|_| Mutex::default()).collect(),
        }
    }

    fn node_count(&self) -> usize {
        self.placement.nodes() as usize
    }

    /// The node owning `worker`: contiguous ranges, consistent with
    /// [`NodeTopology::worker_range`].
    fn node_of_worker(&self, worker: usize) -> usize {
        worker * self.node_count() / self.workers
    }

    /// The half-open worker range `lo..hi` owned by `node` (empty when the
    /// pool has fewer workers than nodes).
    fn worker_range(&self, node: usize) -> (usize, usize) {
        let nodes = self.node_count();
        (
            (node * self.workers).div_ceil(nodes),
            ((node + 1) * self.workers).div_ceil(nodes),
        )
    }

    fn home_node(&self, fragment: u64) -> usize {
        self.placement.home_node(fragment) as usize
    }
}

impl Shared {
    /// Admits pending queries until the MPL limit is reached, dealing each
    /// admitted query's tasks — with their precomputed simulated I/O —
    /// across the worker deques in seed order.  Zero-task queries complete
    /// at admission.  Call with the control lock held; returns whether any
    /// query was admitted, so the caller can notify the condvar.
    fn admit(&self, control: &mut Control) -> bool {
        let mut admitted = false;
        while control.active < self.mpl {
            let Some(query_id) = control.pending.pop_front() else {
                break;
            };
            admitted = true;
            let prepared = &self.prepared[query_id];
            // detlint: allow(wall-clock, reason = "admission-wait latency observability; results are merged deterministically")
            let admitted_at = Instant::now();
            let admission_wait = admitted_at.duration_since(self.started);
            // Stamped in the planning pass from the query-id (= admission)
            // order alone, so identical across runs, worker counts and MPLs.
            let admit_us = prepared.admit_us;
            if let Some(rec) = &self.obs {
                // The query's simulated completion time is already decided:
                // all of its disk work was charged in the planning pass, so
                // its span on the deterministic clock is independent of
                // which workers later execute the tasks (logical time when
                // the I/O layer is off: admission and completion coincide).
                let track = Track::Query(query_id as u32);
                rec.record(track, EventKind::QueryAdmit, admit_us, 0, vec![]);
                rec.record(
                    track,
                    EventKind::Query,
                    admit_us,
                    prepared.complete_us - admit_us,
                    vec![(FieldKey::Fragments, prepared.fragments.len() as u64)],
                );
                let complete_us = prepared.complete_us;
                rec.record(track, EventKind::QueryComplete, complete_us, 0, vec![]);
            }
            let in_flight = InFlight {
                query_id,
                rows: 0,
                hits: 0,
                task_sums: vec![0.0; prepared.fragments.len() * self.measure_count],
                remaining: prepared.fragments.len(),
                admitted_at,
                admission_wait,
            };
            if prepared.fragments.is_empty() {
                // Defensive: plans currently always hold ≥1 fragment, but an
                // empty one must complete rather than hang the stream.
                control.results[query_id] = Some(finalize(
                    prepared,
                    &in_flight,
                    self.measure_count,
                    Duration::ZERO,
                ));
                continue;
            }
            let slot = control.free_slots.pop().unwrap_or_else(|| {
                control.slots.push(None);
                control.slots.len() - 1
            });
            control.slots[slot] = Some(in_flight);
            control.active += 1;
            // Deal the tasks in balanced contiguous chunks of the seed
            // order, rotated by the cursor (`StealDeques::chunk_owner`):
            // big queries spread over the whole pool with no worker left
            // empty by rounding, and consecutive single-task queries land
            // on distinct workers.
            let first = control.seed_cursor;
            control.seed_cursor = (control.seed_cursor + 1) % self.deques.workers();
            let tasks = prepared.seed_order.len();
            for (position, &task) in prepared.seed_order.iter().enumerate() {
                // Shared-nothing multi-node pools deal each task to a worker
                // on its fragment's home node (round-robin within the node's
                // range); otherwise — and when a node owns no workers — the
                // balanced contiguous chunking above applies.
                let home = match &self.nodes {
                    Some(topology) => {
                        let node = topology.home_node(prepared.fragments[task]);
                        let (lo, hi) = topology.worker_range(node);
                        if hi > lo {
                            let cursor = &mut control.node_cursors[node];
                            let worker = lo + *cursor % (hi - lo);
                            *cursor += 1;
                            worker
                        } else {
                            self.deques.chunk_owner(first, position, tasks)
                        }
                    }
                    None => self.deques.chunk_owner(first, position, tasks),
                };
                let charge = prepared.charges.get(task).copied().unwrap_or(NO_IO);
                self.deques.push(
                    home,
                    Task {
                        slot,
                        query: query_id,
                        task,
                        fragment: prepared.fragments[task],
                        sim_ms: charge.sim_ms,
                    },
                    charge.cost,
                );
            }
        }
        admitted
    }

    /// Deposits one finished task's partial and its measure sums into the
    /// query's slot for plan position `task`; on a query's last task, frees
    /// the slot, admits the next pending queries, and merges the result.
    /// Returns the merged query's id when this deposit completed one.
    ///
    /// The deterministic merge (a float fold over all of the query's
    /// per-task sums in plan order) runs *outside* the control lock so a
    /// fat query's finalisation never stalls the other workers' deposits
    /// or the admission path; only the result store re-takes the lock.
    fn deposit(
        &self,
        task_slot: usize,
        task: usize,
        partial: FragmentPartial,
        sums: &[f64],
    ) -> Option<usize> {
        let done = {
            let mut control = self.lock_control();
            let in_flight = control.slots[task_slot]
                .as_mut()
                .expect("deposit into an empty slot");
            in_flight.rows += partial.rows;
            in_flight.hits += partial.hits;
            // The buffer was sized tasks × measures at admission; a task or
            // measure count out of step with it must not drop sums silently.
            assert!(
                (task + 1) * sums.len() <= in_flight.task_sums.len(),
                "task {task}'s sums overrun the query's per-task buffer"
            );
            let task_sums = in_flight.task_sums.iter_mut().skip(task * sums.len());
            for (dst, &src) in task_sums.zip(sums) {
                *dst = src;
            }
            in_flight.remaining -= 1;
            if in_flight.remaining > 0 {
                return None;
            }
            let done = control.slots[task_slot].take().expect("slot just used");
            control.free_slots.push(task_slot);
            control.active -= 1;
            // Workers only wait while queries are pending, and only
            // admission changes that: wake them for the newly dealt tasks
            // (or to find nothing pending and leave).
            if self.admit(&mut control) {
                self.work.notify_all();
            }
            done
        };
        let latency = done.admitted_at.elapsed();
        let result = finalize(
            &self.prepared[done.query_id],
            &done,
            self.measure_count,
            latency,
        );
        self.lock_control().results[done.query_id] = Some(result);
        Some(done.query_id)
    }

    fn lock_control(&self) -> MutexGuard<'_, Control> {
        self.control.plock("scheduler control")
    }
}

/// Merges a completed query's partials into its deterministic result.
fn finalize(
    prepared: &Prepared,
    done: &InFlight,
    measure_count: usize,
    latency: Duration,
) -> ScheduledQuery {
    ScheduledQuery {
        query_id: done.query_id,
        query_name: prepared.query_name.clone(),
        hits: done.hits,
        measure_sums: merge_partials(&done.task_sums, measure_count),
        planned_fragments: prepared.fragments.len(),
        rows_scanned: done.rows,
        admission_wait: done.admission_wait,
        latency,
    }
}

impl Job for Shared {
    fn work(&self, worker: usize) {
        worker_loop(self, worker);
    }

    fn abort(&self) {
        // The flag publishes no data (hence `Relaxed`); taking the lock
        // orders it before any idle worker's next check, so the wake-up
        // below cannot be lost.
        self.aborted.store(true, Ordering::Relaxed);
        drop(self.control.plock_after_panic());
        self.work.notify_all();
    }
}

/// One worker's loop: claim tasks from any in-flight query until every
/// query is admitted and every task claimed (or the run aborted), then file
/// this worker's accounting.  Tasks still running finish on the workers
/// that claimed them; the pool returns only once all workers have left.
fn worker_loop(shared: &Shared, worker: usize) {
    let source = &*shared.source;
    let wall_ns_per_sim_ms = shared.wall_ns_per_sim_ms;
    let mut metrics = WorkerMetrics {
        worker,
        ..WorkerMetrics::default()
    };
    // This worker's selection scratch and measure sums, reused by every
    // task it runs: a task allocates nothing on the heap.
    let mut selection = Bitmap::new(0);
    let mut sums = vec![0.0f64; shared.measure_count];
    // This worker's position on its own simulated timeline (the simulated
    // I/O it has executed): thread-attributed trace events are stamped
    // from it.
    let mut sim_cursor_ms = 0.0f64;
    // This worker's node and its node's worker range under a shared-nothing
    // multi-node topology: steal node-locally before migrating across.
    let my_node = shared.nodes.as_ref().map(|t| t.node_of_worker(worker));
    loop {
        if shared.aborted.load(Ordering::Relaxed) {
            return;
        }
        let claimed = shared
            .deques
            .pop_own(worker)
            .map(|task| (task, None))
            .or_else(|| {
                shared
                    .nodes
                    .as_ref()
                    .zip(my_node)
                    .and_then(|(topology, node)| {
                        let (lo, hi) = topology.worker_range(node);
                        shared.deques.steal_within(worker, lo, hi)
                    })
                    .or_else(|| shared.deques.steal(worker))
                    .map(|(task, victim)| (task, Some(victim)))
            });
        let Some((task, stolen_from)) = claimed else {
            // Tasks are only pushed by admission, under the control lock,
            // so an empty deque set observed *while holding it* cannot race
            // a push: with nothing pending it stays empty for good, else
            // wait for the next admission (or an abort).
            let mut control = shared.lock_control();
            if shared.deques.total_len() == 0 {
                if control.pending.is_empty() {
                    control.finished[worker] = metrics;
                    return;
                }
                if !shared.aborted.load(Ordering::Relaxed) {
                    control = shared
                        .work
                        .wait(control)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
            drop(control);
            continue;
        };
        // detlint: allow(wall-clock, reason = "per-task busy-time metrics; never part of query results")
        let task_started = Instant::now();
        let stolen = stolen_from.is_some();
        throttle_for(task.sim_ms, wall_ns_per_sim_ms);
        metrics.sim_io_ms += task.sim_ms;
        if let (Some(topology), Some(node)) = (&shared.nodes, my_node) {
            if topology.home_node(task.fragment) != node {
                // Executing off the fragment's home node: inter-node
                // migration.  The first pull ships a replica to this node —
                // a wall-clock charge only; the simulated clocks, traces
                // and results never see migration (it is a scheduling
                // outcome, and charging it would break the deterministic
                // query-id-order replay).
                metrics.tasks_migrated += 1;
                let replicated = topology.replicas[node]
                    .plock("node replica set")
                    .insert(task.fragment);
                if replicated {
                    metrics.fragments_replicated += 1;
                    throttle_for(task.sim_ms, wall_ns_per_sim_ms);
                }
            }
        }
        let bindings = &shared.prepared[task.query].bindings;
        // A fetch fails only when the file changed under the open store,
        // and a first-use decode only when checksum-verified bytes are
        // malformed: no result can be produced from either.
        let partial = source
            .try_fetch(task.fragment)
            .and_then(|fragment| process_fragment(&fragment, bindings, &mut selection, &mut sums))
            .unwrap_or_else(|error| {
                panic!("fragment {} unreadable mid-scan: {error}", task.fragment)
            });
        metrics.busy += task_started.elapsed();
        metrics.fragments_processed += 1;
        metrics.fragments_stolen += usize::from(stolen);
        metrics.fragments_compressed += usize::from(partial.compressed);
        metrics.rows_scanned += partial.rows;
        metrics.rows_matched += partial.hits;
        if let Some(rec) = &shared.obs {
            let ts_us = us_from_ms(sim_cursor_ms);
            if let Some(victim) = stolen_from {
                rec.record(
                    Track::Worker(worker as u32),
                    EventKind::Steal,
                    ts_us,
                    0,
                    vec![
                        (FieldKey::Query, task.query as u64),
                        (FieldKey::Task, task.task as u64),
                        (FieldKey::Victim, victim as u64),
                    ],
                );
            }
            rec.record(
                Track::Worker(worker as u32),
                EventKind::TaskRun,
                ts_us,
                us_from_ms(task.sim_ms),
                vec![
                    (FieldKey::Query, task.query as u64),
                    (FieldKey::Task, task.task as u64),
                    (FieldKey::Fragment, task.fragment),
                    (FieldKey::Rows, partial.rows),
                    (FieldKey::Stolen, u64::from(stolen)),
                    (FieldKey::SimMsBits, task.sim_ms.to_bits()),
                ],
            );
        }
        sim_cursor_ms += task.sim_ms;
        let completed = shared.deposit(task.slot, task.task, partial, &sums);
        if let (Some(rec), Some(query)) = (&shared.obs, completed) {
            rec.record(
                Track::Worker(worker as u32),
                EventKind::Merge,
                us_from_ms(sim_cursor_ms),
                0,
                vec![(FieldKey::Query, query as u64)],
            );
        }
    }
}

impl StarJoinEngine {
    /// Admits and executes `plans` on the engine's shared pool under
    /// `config`, returning per-query results in submission order plus
    /// throughput metrics — the one execution path.
    ///
    /// Plans are charged against `io` when given (so cache and arm state
    /// persist across calls, and [`ExecMetrics::io`] is cumulative over
    /// `io`'s lifetime), else against a fresh subsystem built from
    /// [`RunConfig::io`] when that is set.  Either way every plan is
    /// charged in the planning pass, in query-id order (the FIFO admission
    /// order).
    ///
    /// # Panics
    ///
    /// Re-raises a panic of any query's task on the calling thread, once
    /// every worker has left the run; the engine's pool stays usable.
    #[must_use]
    pub fn run(
        &self,
        plans: &[QueryPlan],
        config: &RunConfig,
        io: Option<&SimulatedIo>,
    ) -> StreamOutcome {
        let source = self.source();
        let recorder = config
            .obs
            .enabled
            .then(|| TraceRecorder::new(config.obs.capacity));
        let fresh_io = config
            .io
            .filter(|_| io.is_none())
            .map(|io_config| SimulatedIo::new(io_config, source.schema()));
        let io = io.or(fresh_io.as_ref());
        let prepared: Vec<Prepared> = plans
            .iter()
            .enumerate()
            .map(|(query_id, plan)| {
                if let Some(rec) = &recorder {
                    // Submission and planning happen before the run clock
                    // starts: both land at logical time 0.
                    let track = Track::Query(query_id as u32);
                    rec.record(track, EventKind::QuerySubmit, 0, 0, vec![]);
                    rec.record(
                        track,
                        EventKind::QueryPlan,
                        0,
                        0,
                        vec![(FieldKey::Fragments, plan.task_count() as u64)],
                    );
                }
                let (charges, admit_us, complete_us) = match io {
                    Some(io) => charge(io, plan, source, query_id, recorder.as_ref()),
                    None => (Vec::new(), query_id as u64, query_id as u64),
                };
                let seed_order = match io {
                    Some(io) => placement_seed_order(
                        plan,
                        source.catalog(),
                        io.config().placement.allocation(),
                    ),
                    None => (0..plan.task_count()).collect(),
                };
                Prepared {
                    query_name: plan.query_name().to_string(),
                    seed_order,
                    bindings: plan.bitmap_predicates(),
                    fragments: plan.fragments().to_vec(),
                    charges,
                    admit_us,
                    complete_us,
                }
            })
            .collect();
        let total_tasks: usize = prepared.iter().map(|p| p.fragments.len()).sum();
        // One shared pool for the whole stream — sized once, never per
        // admitted query.
        let workers = config.pool_size(total_tasks);
        let query_count = prepared.len();

        // The run clock starts *after* planning and charging (like
        // `ExecMetrics::wall`), so admission waits measure queueing delay
        // and queries/sec measures execution throughput, not upfront plan
        // and simulated-I/O time.
        // detlint: allow(wall-clock, reason = "stream run clock for qps/latency observability; results never depend on it")
        let started = Instant::now();
        // The shared-nothing node topology, when the I/O layer simulates
        // more than one node.  Shared-disk multi-node subsystems keep the
        // single-node pool: every node reads every disk at equal cost, so
        // there is no home-node locality to preserve.
        let nodes = io.map(|io| io.config().placement).and_then(|placement| {
            (placement.nodes() > 1 && placement.strategy() == NodeStrategy::SharedNothing)
                .then(|| NodeTopology::new(placement, workers))
        });
        let shared = Shared {
            source: Arc::clone(&self.source),
            deques: StealDeques::new(workers),
            control: Mutex::new(Control {
                pending: (0..query_count).collect(),
                slots: Vec::new(),
                free_slots: Vec::new(),
                active: 0,
                results: (0..query_count).map(|_| None).collect(),
                seed_cursor: 0,
                node_cursors: vec![0; nodes.as_ref().map_or(0, NodeTopology::node_count)],
                finished: (0..workers)
                    .map(|worker| WorkerMetrics {
                        worker,
                        ..WorkerMetrics::default()
                    })
                    .collect(),
            }),
            work: Condvar::new(),
            prepared,
            mpl: config.resolved_mpl(),
            measure_count: source.measure_count(),
            wall_ns_per_sim_ms: io.map_or(0, |io| io.config().wall_ns_per_sim_ms),
            obs: recorder,
            nodes,
            started,
            aborted: AtomicBool::new(false),
        };

        shared.admit(&mut shared.lock_control());
        let shared = self.pool.run(workers, shared);
        let wall = started.elapsed();

        let trace = shared.obs.map(TraceRecorder::into_trace);
        let control = shared
            .control
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let results: Vec<ScheduledQuery> = control
            .results
            .into_iter()
            .map(|r| r.expect("every submitted query completed"))
            .collect();
        let latencies = results.iter().map(|r| r.latency).collect();
        let queries_completed = results.len();
        StreamOutcome {
            metrics: ThroughputMetrics::new(
                ExecMetrics {
                    workers: control.finished,
                    wall,
                    planned_fragments: total_tasks,
                    io: io.map(SimulatedIo::metrics),
                    file: source.file_metrics(),
                },
                queries_completed,
                latencies,
                config.resolved_mpl(),
            ),
            queries: results,
            trace,
        }
    }
}

/// Charges `plan` (query `query_id`) against the stream's simulated disk
/// subsystem, returning each task's charge plus the query's admission and
/// completion stamps on the deterministic trace clock.
fn charge(
    io: &SimulatedIo,
    plan: &QueryPlan,
    source: &ScanSource,
    query_id: usize,
    recorder: Option<&TraceRecorder>,
) -> (Vec<TaskCharge>, u64, u64) {
    let admit_us = us_from_ms(io.sim_elapsed_ms());
    let steal_by_io = io.config().steal_by_io;
    let scans = io.charge_plan_traced(plan, source, query_id as u32, recorder);
    let complete_us = scans
        .iter()
        .map(|scan| us_from_ms(scan.sim_end_ms))
        .fold(admit_us, u64::max);
    let charges = scans
        .iter()
        .map(|scan| TaskCharge {
            sim_ms: scan.sim_ms,
            cost: if steal_by_io { scan.cost_units() } else { 1 },
        })
        .collect();
    (charges, admit_us, complete_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FragmentStore;
    use mdhf::Fragmentation;
    use schema::apb1::apb1_scaled_down;
    use workload::{BoundQuery, InterleavedStream, QueryType};

    fn engine() -> StarJoinEngine {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        StarJoinEngine::new(FragmentStore::build(&schema, &fragmentation, 2024))
    }

    /// A pool of `workers` admitting at most `mpl` queries at a time.
    pub(super) fn config(workers: usize, mpl: usize) -> RunConfig {
        RunConfig {
            workers,
            mpl,
            ..RunConfig::default()
        }
    }

    /// Plans `queries` and runs them as one stream.
    pub(super) fn run_queries(
        engine: &StarJoinEngine,
        queries: &[BoundQuery],
        config: &RunConfig,
    ) -> StreamOutcome {
        let plans: Vec<QueryPlan> = queries.iter().map(|q| engine.plan(q)).collect();
        engine.run(&plans, config, None)
    }

    fn stream(engine: &StarJoinEngine, count: usize) -> Vec<BoundQuery> {
        let mut source = InterleavedStream::new(
            engine.store().schema(),
            &[
                QueryType::OneMonthOneGroup,
                QueryType::OneCode,
                QueryType::OneGroup,
                QueryType::OneStore,
            ],
            99,
        );
        source.take_queries(count)
    }

    fn assert_bits_match_serial(engine: &StarJoinEngine, queries: &[BoundQuery], mpl: usize) {
        let outcome = run_queries(engine, queries, &config(4, mpl));
        assert_eq!(outcome.queries.len(), queries.len());
        assert_eq!(outcome.metrics.queries_completed, queries.len());
        assert_eq!(outcome.metrics.mpl, mpl.max(1));
        for (query_id, (bound, scheduled)) in queries.iter().zip(&outcome.queries).enumerate() {
            let serial = engine.execute(bound, &RunConfig::serial());
            assert_eq!(scheduled.query_id, query_id);
            assert_eq!(scheduled.query_name, serial.query_name);
            assert_eq!(scheduled.hits, serial.hits, "MPL {mpl} query {query_id}");
            let serial_bits: Vec<u64> = serial.measure_sums.iter().map(|s| s.to_bits()).collect();
            let scheduled_bits: Vec<u64> =
                scheduled.measure_sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(
                scheduled_bits, serial_bits,
                "MPL {mpl} query {query_id} ({}) not bit-identical",
                scheduled.query_name
            );
        }
    }

    #[test]
    fn scheduler_is_bit_identical_to_serial_for_every_mpl() {
        let engine = engine();
        let queries = stream(&engine, 10);
        for mpl in [1usize, 2, 4, 8] {
            assert_bits_match_serial(&engine, &queries, mpl);
        }
    }

    #[test]
    fn rows_and_tasks_account_for_every_plan() {
        let engine = engine();
        let queries = stream(&engine, 8);
        let expected_rows: u64 = queries
            .iter()
            .map(|q| engine.store().planned_rows(&engine.plan(q)))
            .sum();
        let expected_tasks: usize = queries.iter().map(|q| engine.plan(q).task_count()).sum();
        let outcome = run_queries(&engine, &queries, &config(3, 4));
        assert_eq!(outcome.metrics.pool.total_rows_scanned(), expected_rows);
        assert_eq!(outcome.metrics.pool.total_fragments(), expected_tasks);
        assert_eq!(outcome.metrics.pool.planned_fragments, expected_tasks);
        let per_query_rows: u64 = outcome.queries.iter().map(|q| q.rows_scanned).sum();
        assert_eq!(per_query_rows, expected_rows);
        let per_query_tasks: usize = outcome.queries.iter().map(|q| q.planned_fragments).sum();
        assert_eq!(per_query_tasks, expected_tasks);
    }

    #[test]
    fn shared_pool_never_oversubscribes() {
        let engine = engine();
        let queries = stream(&engine, 12);
        // MPL 8 on a 4-worker pool: still exactly 4 workers.
        let outcome = run_queries(&engine, &queries, &config(4, 8));
        assert_eq!(outcome.metrics.pool.worker_count(), 4);
        // A stream with fewer tasks than workers clamps the pool.
        let one = &queries[0..1];
        let single_task: Vec<BoundQuery> = one
            .iter()
            .filter(|q| engine.plan(q).task_count() == 1)
            .cloned()
            .collect();
        if !single_task.is_empty() {
            let outcome = run_queries(&engine, &single_task, &config(16, 4));
            assert_eq!(outcome.metrics.pool.worker_count(), 1);
        }
    }

    #[test]
    fn empty_stream_completes_immediately() {
        let engine = engine();
        let outcome = run_queries(&engine, &[], &config(4, 2));
        assert!(outcome.queries.is_empty());
        assert_eq!(outcome.metrics.queries_completed, 0);
        assert_eq!(outcome.metrics.pool.total_fragments(), 0);
        assert_eq!(outcome.metrics.latency_mean(), Duration::ZERO);
    }

    #[test]
    fn latencies_and_waits_are_recorded_in_submission_order() {
        let engine = engine();
        let queries = stream(&engine, 6);
        let outcome = run_queries(&engine, &queries, &config(2, 2));
        assert_eq!(outcome.metrics.latencies.len(), 6);
        for (query_id, scheduled) in outcome.queries.iter().enumerate() {
            assert_eq!(scheduled.query_id, query_id);
            assert!(scheduled.latency > Duration::ZERO);
            assert_eq!(outcome.metrics.latencies[query_id], scheduled.latency);
        }
        // With MPL 2, the 3rd query cannot be admitted before the run start.
        assert!(outcome.queries[2].admission_wait >= outcome.queries[0].admission_wait);
        let mean = outcome.metrics.latency_mean();
        assert!(mean >= outcome.metrics.latency_percentile(0.0));
        assert!(outcome.metrics.latency_max() >= mean);
    }

    #[test]
    fn placement_seeding_changes_nothing_but_order() {
        let engine = engine();
        let queries = stream(&engine, 6);
        let baseline = run_queries(&engine, &queries, &config(4, 4));
        let placed = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(crate::io::IoConfig::with_disks(10)),
                ..config(4, 4)
            },
        );
        for (a, b) in baseline.queries.iter().zip(&placed.queries) {
            assert_eq!(a.hits, b.hits);
            let a_bits: Vec<u64> = a.measure_sums.iter().map(|s| s.to_bits()).collect();
            let b_bits: Vec<u64> = b.measure_sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn stream_shares_one_io_subsystem_and_stays_bit_identical() {
        let engine = engine();
        let queries = stream(&engine, 10);
        let io = crate::io::IoConfig::with_disks(6).cache(50_000);
        let outcome = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(io),
                ..config(4, 4)
            },
        );
        // Results still bit-identical to isolated serial runs.
        for (bound, scheduled) in queries.iter().zip(&outcome.queries) {
            let serial = engine.execute(bound, &RunConfig::serial());
            assert_eq!(scheduled.hits, serial.hits);
            let a: Vec<u64> = serial.measure_sums.iter().map(|s| s.to_bits()).collect();
            let b: Vec<u64> = scheduled.measure_sums.iter().map(|s| s.to_bits()).collect();
            assert_eq!(a, b);
        }
        let io_metrics = outcome.metrics.pool.io.as_ref().expect("I/O metrics");
        assert_eq!(io_metrics.disk_count(), 6);
        assert!(io_metrics.total_pages_read() > 0);
        // Worker-side accounting matches the subsystem's charges.
        let charged: f64 = io_metrics.per_disk.iter().map(|d| d.busy_ms).sum();
        assert!((outcome.metrics.pool.total_sim_io_ms() - charged).abs() < 1e-6);
        // The stream repeats query types over a big cache: later queries
        // re-scan fragments the cache already holds.
        assert!(io_metrics.cache_hit_rate() > 0.0);

        // The query-id-order replay is deterministic: same stream, same
        // configuration → identical simulated metrics, at any MPL/workers.
        let again = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(io),
                ..config(2, 8)
            },
        );
        assert_eq!(again.metrics.pool.io, outcome.metrics.pool.io);
    }

    #[test]
    fn stream_charges_plans_in_query_id_order() {
        let engine = engine();
        let schema = engine.store().schema();
        // One all-fragment scan, then 1-fragment lookups: at MPL > 1 the
        // lookups complete before the scan, so completion order is not
        // query-id order.
        let mut queries = InterleavedStream::new(schema, &[QueryType::OneStore], 5).take_queries(1);
        queries.extend(
            InterleavedStream::new(schema, &[QueryType::OneMonthOneGroup], 6).take_queries(11),
        );
        let flat = crate::io::IoConfig::with_disks(8).cache(2_000);
        let shared_nothing = crate::io::IoConfig {
            placement: NodePlacement::new(4, 2, NodeStrategy::SharedNothing),
            ..flat
        };
        for io in [flat, shared_nothing] {
            let charged_in = |order: &[usize]| {
                let sim = SimulatedIo::new(io, schema);
                for &query in order {
                    let _ = sim.charge_plan(&engine.plan(&queries[query]), engine.source());
                }
                sim.metrics()
            };
            let id_order: Vec<usize> = (0..queries.len()).collect();
            let expected = charged_in(&id_order);
            // The pin is sensitive: charging the scan after the lookups, as
            // completion order would, gives different metrics.
            let mut scan_last: Vec<usize> = (1..queries.len()).collect();
            scan_last.push(0);
            assert_ne!(
                charged_in(&scan_last),
                expected,
                "{} nodes",
                io.placement.nodes()
            );
            for (workers, mpl) in [(1usize, 1usize), (2, 4), (4, 8)] {
                let outcome = run_queries(
                    &engine,
                    &queries,
                    &RunConfig {
                        io: Some(io),
                        ..config(workers, mpl)
                    },
                );
                assert_eq!(
                    outcome.metrics.pool.io.as_ref(),
                    Some(&expected),
                    "{} nodes, {workers} workers, MPL {mpl}",
                    io.placement.nodes()
                );
            }
        }
    }

    #[test]
    fn multi_node_results_are_bit_identical_across_node_counts() {
        let engine = engine();
        let queries = stream(&engine, 10);
        let reference = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(crate::io::IoConfig::with_disks(8).cache(20_000)),
                ..config(4, 4)
            },
        );
        for nodes in [1u64, 2, 4, 8] {
            for strategy in [NodeStrategy::SharedNothing, NodeStrategy::SharedDisk] {
                let io = crate::io::IoConfig {
                    placement: NodePlacement::new(nodes, 8 / nodes, strategy),
                    ..crate::io::IoConfig::with_disks(8).cache(20_000)
                };
                let outcome = run_queries(
                    &engine,
                    &queries,
                    &RunConfig {
                        io: Some(io),
                        ..config(4, 4)
                    },
                );
                for (a, b) in reference.queries.iter().zip(&outcome.queries) {
                    assert_eq!(a.hits, b.hits, "{nodes} nodes, {strategy:?}");
                    let a_bits: Vec<u64> = a.measure_sums.iter().map(|s| s.to_bits()).collect();
                    let b_bits: Vec<u64> = b.measure_sums.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(a_bits, b_bits, "{nodes} nodes, {strategy:?}");
                }
            }
        }
    }

    #[test]
    fn shared_nothing_stream_attributes_nodes_deterministically() {
        let engine = engine();
        let queries = stream(&engine, 10);
        let io = crate::io::IoConfig {
            placement: NodePlacement::new(4, 2, NodeStrategy::SharedNothing),
            ..crate::io::IoConfig::with_disks(8).cache(50_000)
        };
        let outcome = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(io),
                ..config(4, 4)
            },
        );
        let io_metrics = outcome.metrics.pool.io.as_ref().expect("I/O metrics");
        assert_eq!(io_metrics.node_count(), 4);
        // Staggered bitmap placement crosses node boundaries, so a
        // shared-nothing run must have paid the interconnect.
        assert!(io_metrics.total_net_pages() > 0);
        assert!(io_metrics.total_net_ms() > 0.0);
        assert!(io_metrics.node_imbalance() >= 1.0);
        // I/O is charged in query-id order at plan time: per-node
        // attribution is identical for any worker count and MPL.
        let again = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(io),
                ..config(2, 8)
            },
        );
        assert_eq!(again.metrics.pool.io, outcome.metrics.pool.io);
        // The shared-disk twin never touches the interconnect.
        let shared_disk = crate::io::IoConfig {
            placement: NodePlacement::new(4, 2, NodeStrategy::SharedDisk),
            ..io
        };
        let disk_outcome = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(shared_disk),
                ..config(4, 4)
            },
        );
        let disk_metrics = disk_outcome.metrics.pool.io.as_ref().expect("I/O metrics");
        assert_eq!(disk_metrics.total_net_pages(), 0);
    }

    #[test]
    fn migration_counters_track_off_home_execution() {
        let engine = engine();
        let queries = stream(&engine, 8);
        // One worker on a two-node subsystem: node 1 owns no workers, so
        // every task homed there executes on node 0 — each counted as a
        // migration, each distinct fragment replicated exactly once.
        let io =
            crate::io::IoConfig::with_nodes(NodePlacement::new(2, 2, NodeStrategy::SharedNothing));
        let outcome = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(io),
                ..config(1, 2)
            },
        );
        let pool = &outcome.metrics.pool;
        assert_eq!(pool.worker_count(), 1);
        assert!(pool.total_migrated() > 0, "node-1 tasks must have migrated");
        assert!(pool.total_replicated() > 0);
        assert!(pool.total_replicated() <= pool.total_migrated());
        assert!(outcome.metrics.migration_rate() > 0.0);
        // A single-node run of the same stream migrates nothing.
        let single = run_queries(
            &engine,
            &queries,
            &RunConfig {
                io: Some(crate::io::IoConfig::with_disks(4)),
                ..config(1, 2)
            },
        );
        assert_eq!(single.metrics.pool.total_migrated(), 0);
        assert_eq!(single.metrics.pool.total_replicated(), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::store::FragmentStore;
    use mdhf::Fragmentation;
    use proptest::prelude::*;
    use schema::apb1::Apb1Config;
    use workload::{BoundQuery, QueryType};

    use super::tests::{config, run_queries};

    /// The same deliberately tiny schema as the engine proptests, so each
    /// case (store build + stream + per-query serial baselines) stays fast
    /// in debug builds.
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

    /// One standard-mix query per type seed, its values drawn in turn
    /// from `raw_values` and reduced into each attribute's range.
    fn random_stream(
        schema: &schema::StarSchema,
        type_seeds: &[usize],
        raw_values: &[u64],
    ) -> Vec<BoundQuery> {
        let mut raw = raw_values.iter().cycle();
        type_seeds
            .iter()
            .map(|&type_idx| {
                let shape = QueryType::standard_mix()[type_idx].to_star_query(schema);
                let values: Vec<u64> = shape
                    .predicates()
                    .iter()
                    .map(|p| raw.next().unwrap() % p.attr.cardinality(schema))
                    .collect();
                BoundQuery::new(schema, shape, values)
            })
            .collect()
    }

    const FRAGMENTATIONS: [&[&str]; 3] = [
        &["time::month"],
        &["time::month", "product::group"],
        &["time::quarter", "product::division"],
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// For random multi-user streams (random query types and values)
        /// and MPL ∈ {1, 2, 8}, every query's scheduler result is
        /// bit-identical to its isolated serial execution, and the total
        /// rows processed match the sum of the per-query plans.
        #[test]
        fn prop_scheduler_matches_isolated_serial_runs(
            frag_idx in 0usize..FRAGMENTATIONS.len(),
            type_seeds in proptest::collection::vec(0usize..5, 1..8),
            raw_values in proptest::collection::vec(0u64..100_000, 16),
            seed in 1u64..1_000,
            workers in 1usize..5,
        ) {
            let schema = tiny_schema();
            let fragmentation =
                Fragmentation::parse(&schema, FRAGMENTATIONS[frag_idx]).unwrap();
            let store = FragmentStore::build(&schema, &fragmentation, seed);
            let engine = StarJoinEngine::new(store);

            let queries = random_stream(&schema, &type_seeds, &raw_values);

            let serial: Vec<_> =
                queries.iter().map(|q| engine.execute(q, &RunConfig::serial())).collect();
            let expected_rows: u64 = queries
                .iter()
                .map(|q| engine.store().planned_rows(&engine.plan(q)))
                .sum();

            for mpl in [1usize, 2, 8] {
                let outcome = run_queries(&engine, &queries, &config(workers, mpl));
                prop_assert_eq!(outcome.queries.len(), queries.len());
                prop_assert_eq!(outcome.metrics.pool.total_rows_scanned(), expected_rows);
                for (scheduled, baseline) in outcome.queries.iter().zip(&serial) {
                    prop_assert_eq!(scheduled.hits, baseline.hits);
                    let scheduled_bits: Vec<u64> =
                        scheduled.measure_sums.iter().map(|s| s.to_bits()).collect();
                    let baseline_bits: Vec<u64> =
                        baseline.measure_sums.iter().map(|s| s.to_bits()).collect();
                    prop_assert_eq!(scheduled_bits, baseline_bits);
                }
            }
        }

        /// For random streams, node counts {2, 8} and both node strategies,
        /// the multi-node scheduler's per-query results are bit-identical
        /// to the single-node run of the same stream — node topology moves
        /// work and I/O attribution, never result bits.
        #[test]
        fn prop_multi_node_results_match_single_node(
            type_seeds in proptest::collection::vec(0usize..5, 1..6),
            raw_values in proptest::collection::vec(0u64..100_000, 16),
            seed in 1u64..1_000,
            shared_nothing in proptest::bool::ANY,
            workers in 1usize..5,
        ) {
            let schema = tiny_schema();
            let fragmentation =
                Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
            let store = FragmentStore::build(&schema, &fragmentation, seed);
            let engine = StarJoinEngine::new(store);

            let queries = random_stream(&schema, &type_seeds, &raw_values);

            let strategy = if shared_nothing {
                NodeStrategy::SharedNothing
            } else {
                NodeStrategy::SharedDisk
            };
            let flat = crate::io::IoConfig::with_disks(8).cache(4_096);
            let with_io = |io| RunConfig { io: Some(io), ..config(workers, 2) };
            let baseline = run_queries(&engine, &queries, &with_io(flat));
            for nodes in [2u64, 8] {
                let io = crate::io::IoConfig {
                    placement: NodePlacement::new(nodes, 8 / nodes, strategy),
                    ..flat
                };
                let outcome = run_queries(&engine, &queries, &with_io(io));
                for (a, b) in baseline.queries.iter().zip(&outcome.queries) {
                    prop_assert_eq!(a.hits, b.hits);
                    let a_bits: Vec<u64> = a.measure_sums.iter().map(|s| s.to_bits()).collect();
                    let b_bits: Vec<u64> = b.measure_sums.iter().map(|s| s.to_bits()).collect();
                    prop_assert_eq!(a_bits, b_bits);
                }
            }
        }

        /// For random streams with tracing enabled, the deterministic trace
        /// section (query lifecycle, scans, disk service on the simulated
        /// clock) is bit-identical across runs, worker counts and MPLs —
        /// same canonical events, same digest — with and without the I/O
        /// layer.
        #[test]
        fn prop_trace_deterministic_section_is_bit_identical(
            type_seeds in proptest::collection::vec(0usize..5, 1..6),
            raw_values in proptest::collection::vec(0u64..100_000, 16),
            seed in 1u64..1_000,
            with_io in proptest::bool::ANY,
        ) {
            let schema = tiny_schema();
            let fragmentation =
                Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
            let store = FragmentStore::build(&schema, &fragmentation, seed);
            let engine = StarJoinEngine::new(store);

            let queries = random_stream(&schema, &type_seeds, &raw_values);

            let traced = |workers: usize, mpl: usize| RunConfig {
                io: with_io.then(|| crate::io::IoConfig::with_disks(4).cache(10_000)),
                obs: obs::ObsConfig::enabled(),
                ..config(workers, mpl)
            };

            let reference = run_queries(&engine, &queries, &traced(1, 1))
                .trace
                .expect("tracing enabled");
            prop_assert_eq!(reference.dropped, 0);
            let reference_events = reference.deterministic_events();
            for (workers, mpl) in [(1usize, 1usize), (2, 2), (4, 8), (3, 1)] {
                let trace = run_queries(&engine, &queries, &traced(workers, mpl))
                    .trace
                    .expect("tracing enabled");
                prop_assert_eq!(trace.dropped, 0);
                prop_assert_eq!(trace.digest(), reference.digest());
                prop_assert_eq!(&trace.deterministic_events(), &reference_events);
            }
        }
    }
}
