//! The traced run: per-layer numbers, taken from outside the program.
//!
//! Three sources feed the per-layer metrics:
//!
//! * **rounds** — one untraced and one traced round of the workload (the
//!   program's `ObsConfig` tracing on), plus pool comparisons on the first
//!   [`Scale::probe_queries`] queries: `execute` with 2 and with 1 worker,
//!   and `stream` at MPL 1;
//! * **the serial probe** — per query, one serial `Session::execute_plan`
//!   is timed and then the same fragments are replayed through the public
//!   layer calls `try_fetch` → `select_repr` → `and_many_owned` →
//!   `iter_ones`; the replayed times become *attributed* child spans of
//!   that query's `execute_plan` span, and what remains is aggregation,
//!   merge and pool overhead (`exec.engine.residual_share`);
//! * **layer probes** — calls that no workload isolates: the simulated
//!   I/O charger on every plan of the batch (which also yields the exactly
//!   repeating `exec.io.*` counters) and, for file workloads, cache-hit,
//!   two-thread and cache-miss fetches on dedicated opens of the file.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use warehouse::allocation::{node_load_shares, NodePlacement};
use warehouse::bitmap::BitmapRepr;
use warehouse::exec::{FileStore, FileStoreOptions, IoConfig, ObsConfig, ScanSource, SimulatedIo};
use warehouse::schema::PageSizing;
use warehouse::Warehouse;

use crate::run::{file_delta, run_round, session, Checks, EngineTotals, Round};
use crate::setup::Env;
use crate::span::Spans;
use crate::spec::{
    Api, Backing, Scale, Workload, PER_LAYER, QUERY_TYPE_NAMES, SIM_DISKS_PER_NODE, SIM_NODES,
    WORKERS,
};
use crate::stats::{percentile, ratio};
use crate::sys;

/// Per-layer metric values by name.
pub type LayerValues = BTreeMap<String, f64>;

fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Layer times summed over the serial probe.
#[derive(Debug, Default)]
struct ProbeTotals {
    queries: usize,
    plan: Duration,
    execute: Duration,
    fetch: Duration,
    select: Duration,
    and: Duration,
    iterate: Duration,
    /// Fragments fetched.
    fragments: u64,
    /// Fragments that went through bitmap selection.
    selected: u64,
    /// Rows the drained selections yielded.
    iterated_hits: u64,
    engine: EngineTotals,
    failed: usize,
}

/// The two warehouses of the serial probe.  `execute_plan` runs on one and
/// the replay on the other: over a file each has its own freshly opened
/// store, and since both see the same fetch sequence their caches make the
/// same hit-or-miss decision for every fetch.  In memory they are one.
struct ProbePair<'a> {
    exec: &'a Warehouse,
    replay: &'a Warehouse,
}

fn open_probe_store(env: &Env, backing: Backing) -> Result<Warehouse, String> {
    let warehouse = Warehouse::open_with(env.store_file.path(), env.file_options(backing, false))
        .map_err(|e| format!("opening a probe store: {e}"))?;
    // Same starting state as the measured store after its warm-up: every
    // fragment has been fetched once.
    for fragment in 0..warehouse.source().fragment_count() {
        warehouse
            .source()
            .try_fetch(fragment)
            .map_err(|e| format!("warming a probe store: {e}"))?;
    }
    Ok(warehouse)
}

fn serial_probe(
    env: &Env,
    pair: &ProbePair<'_>,
    count: usize,
    spans: &mut Spans,
) -> Result<ProbeTotals, String> {
    let root = spans.enter("probe.serial", None, None);
    let serial = pair.exec.session().build();
    let source = pair.replay.source();
    let mut totals = ProbeTotals {
        queries: count,
        ..ProbeTotals::default()
    };
    for (i, (query, want)) in env
        .queries
        .iter()
        .zip(&env.expected)
        .take(count)
        .enumerate()
    {
        let tag = Some(i as u32);
        let (plan, plan_span) = spans.time("plan", Some(root), tag, || pair.exec.plan(query));
        totals.plan += Duration::from_nanos(spans.get(plan_span).duration_ns());

        let (result, execute_span) = spans.time("execute_plan", Some(root), tag, || {
            catch_unwind(AssertUnwindSafe(|| serial.execute_plan(&plan)))
        });
        totals.execute += Duration::from_nanos(spans.get(execute_span).duration_ns());
        let Ok(result) = result else {
            totals.failed += 1;
            continue;
        };
        totals.engine.add(&result.metrics);

        let predicates = plan.bitmap_predicates();
        let [mut fetch, mut select, mut and, mut iterate] = [Duration::ZERO; 4];
        let mut selected = 0u64;
        let mut hits = 0u64;
        for &fragment_no in plan.fragments() {
            let began = Instant::now();
            let fragment = source
                .try_fetch(fragment_no)
                .map_err(|e| format!("replaying fragment {fragment_no}: {e}"))?;
            fetch += began.elapsed();
            // The engine aggregates whole columns when no predicate needs
            // a bitmap and skips empty fragments: nothing to replay.
            if predicates.is_empty() || fragment.is_empty() {
                continue;
            }
            let began = Instant::now();
            let selections: Vec<BitmapRepr> = predicates
                .iter()
                .map(|p| {
                    fragment
                        .bitmap_index(p.dimension)
                        .select_repr(p.level, p.value)
                })
                .collect();
            select += began.elapsed();
            let began = Instant::now();
            let selection = BitmapRepr::and_many_owned(selections);
            and += began.elapsed();
            let began = Instant::now();
            hits += black_box(selection.iter_ones().count()) as u64;
            iterate += began.elapsed();
            selected += 1;
        }
        let fragments = plan.fragments().len() as u64;
        spans.attribute("exec.source.try_fetch", execute_span, fetch, fragments);
        spans.attribute("bitmap.index.select_repr", execute_span, select, selected);
        spans.attribute("bitmap.repr.and_many_owned", execute_span, and, selected);
        spans.attribute("bitmap.repr.iter_ones", execute_span, iterate, selected);
        totals.fetch += fetch;
        totals.select += select;
        totals.and += and;
        totals.iterate += iterate;
        totals.fragments += fragments;
        totals.selected += selected;
        totals.iterated_hits += hits;

        // The replay must have walked the rows the engine aggregated.
        let replay_agrees = predicates.is_empty() || hits == result.hits;
        if !want.matches(result.hits, &result.measure_sums) || !replay_agrees {
            totals.failed += 1;
        }
    }
    spans.exit(root);
    Ok(totals)
}

/// The simulated-I/O charger on every plan of the batch, single-threaded on
/// one subsystem (as a stream shares one), and the plan-derived counters.
fn io_probe(env: &Env, values: &mut LayerValues) {
    let placement = NodePlacement::shared_nothing(SIM_NODES, SIM_DISKS_PER_NODE);
    let config = IoConfig::with_nodes(placement);
    let io = SimulatedIo::new(config, &env.schema);
    let source = env.memory.source();
    let rows_per_page = PageSizing::new(&env.schema).fact_tuples_per_page();

    let mut tasks = 0u64;
    let mut charging = Duration::ZERO;
    // Analytic per-fragment service time of every distinct scanned
    // fragment (repeat scans hit the node's cache), as in `fig_scaleout`.
    let mut weights = vec![0.0f64; source.fragment_count() as usize];
    for query in &env.queries {
        let plan = env.memory.plan(query);
        tasks += plan.task_count() as u64;
        let began = Instant::now();
        black_box(io.charge_plan(&plan, source));
        charging += began.elapsed();
        for &fragment in plan.fragments() {
            let rows = source.fragment_rows(fragment);
            if rows > 0 {
                let pages = rows.div_ceil(rows_per_page);
                let granules = pages.div_ceil(config.fact_prefetch_pages.max(1));
                weights[fragment as usize] = config.disk.avg_seek_ms
                    + granules as f64 * config.disk.settle_controller_ms
                    + pages as f64 * config.disk.per_page_ms;
            }
        }
    }
    let queries = env.queries.len() as f64;
    let metrics = io.metrics();
    let mut put = |name: &str, value: f64| values.insert(name.to_string(), value);
    put("workload.tasks_per_query", tasks as f64 / queries);
    put(
        "exec.plan.fragments_kept_share",
        tasks as f64 / (queries * source.fragment_count() as f64),
    );
    put(
        "exec.io.charge_us_per_task",
        ratio(micros(charging), tasks as f64),
    );
    put("exec.io.sim_qps", ratio(queries, metrics.elapsed_ms / 1e3));
    put("exec.io.sim_elapsed_ms", metrics.elapsed_ms);
    put("exec.io.pages_read", metrics.total_pages_read() as f64);
    put("exec.io.cache_hit_rate", metrics.cache_hit_rate());
    put("exec.io.disk_imbalance", metrics.disk_imbalance());
    put("exec.io.node_imbalance", metrics.node_imbalance());
    put("exec.io.net_pages", metrics.total_net_pages() as f64);

    let predicted = node_load_shares(&placement, &weights);
    let profile = metrics.node_load_profile();
    let load: f64 = profile.iter().sum();
    let residual = predicted
        .iter()
        .zip(&profile)
        .map(|(share, &ms)| (share - ratio(ms, load)).abs())
        .fold(0.0f64, f64::max);
    put("allocation.node_share_residual", residual);
}

/// Fetches of the file layer that no workload isolates, on dedicated opens
/// of the store file.
fn file_probe(env: &Env, values: &mut LayerValues) -> Result<(), String> {
    const HIT_PASSES: u64 = 20;
    let open = |options: FileStoreOptions| {
        FileStore::open_with(env.store_file.path(), options)
            .map(ScanSource::from)
            .map_err(|e| format!("opening a file probe store: {e}"))
    };
    let fetch_all = |source: &ScanSource, fragments: &[u64], passes: u64| -> Result<(), String> {
        for _ in 0..passes {
            for &fragment in fragments {
                black_box(source.try_fetch(fragment).map_err(|e| e.to_string())?);
            }
        }
        Ok(())
    };

    // Hits: a pool that holds the whole file, every fragment resident.
    let fit = open(env.file_options(Backing::FileFit, false))?;
    let all: Vec<u64> = (0..fit.fragment_count()).collect();
    let (even, odd): (Vec<u64>, Vec<u64>) = all.iter().copied().partition(|f| f % 2 == 0);
    fetch_all(&fit, &all, 1)?;
    let began = Instant::now();
    fetch_all(&fit, &even, HIT_PASSES)?;
    let one_thread = began.elapsed();
    // Two threads on disjoint fragments, each doing what the one did: any
    // slowdown is waiting for the store's lock.
    let began = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let handles = [&even, &odd].map(|set| scope.spawn(|| fetch_all(&fit, set, HIT_PASSES)));
        handles.map(|h| h.join().expect("file probe thread panicked"))
    });
    let two_threads = began.elapsed();
    for outcome in outcomes {
        outcome?;
    }
    let hit_fetches = (even.len() as u64 * HIT_PASSES) as f64;
    let mut put = |name: &str, value: f64| values.insert(name.to_string(), value);
    put(
        "exec.file.fetch_hit_us",
        ratio(micros(one_thread), hit_fetches),
    );
    put(
        "exec.file.fetch_2t_slowdown",
        ratio(two_threads.as_secs_f64(), one_thread.as_secs_f64()),
    );

    // Misses: a cyclic sweep through a pool of an eighth of the file evicts
    // every fragment before it is asked for again.
    let small = open(env.file_options(Backing::FileThrash, false))?;
    fetch_all(&small, &all, 1)?;
    let before = small.file_metrics().expect("file-backed source");
    let began = Instant::now();
    fetch_all(&small, &all, 1)?;
    let sweep = began.elapsed();
    let read = file_delta(&before, &small.file_metrics().expect("file-backed source"));
    put(
        "exec.file.fetch_miss_us",
        ratio(micros(sweep), all.len() as f64),
    );
    put(
        "exec.file.read_mb_per_s",
        ratio(read.bytes_read as f64 / 1e6, sweep.as_secs_f64()),
    );
    Ok(())
}

/// Latency metrics of the session layer from one round's samples.
fn session_latencies(env: &Env, round: &Round, values: &mut LayerValues) {
    let mut put = |name: String, value: f64| values.insert(name, value);
    put(
        "warehouse.session.latency_p99_ms".into(),
        percentile(&round.latencies_ms, 99.0),
    );
    put(
        "warehouse.session.latency_max_ms".into(),
        percentile(&round.latencies_ms, 100.0),
    );
    for type_name in QUERY_TYPE_NAMES {
        let samples: Vec<f64> = env
            .queries
            .iter()
            .zip(&round.latencies_ms)
            .filter(|(query, _)| query.query().name() == type_name)
            .map(|(_, &ms)| ms)
            .collect();
        put(
            format!("warehouse.session.p50_ms.{type_name}"),
            percentile(&samples, 50.0),
        );
    }
}

/// Runs the traced measurement of `workload` and returns every per-layer
/// metric, tallying every checked result in `checks`.  Layers the workload
/// never enters report 0.
pub fn trace_run(
    workload: &Workload,
    scale: &Scale,
    env: &Env,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<LayerValues, String> {
    let mut values = LayerValues::new();

    let target = env.target();
    let mpl = workload.api.mpl();
    let make = |workers, mpl, obs| session(workload, target, workers, mpl, obs);
    let off = ObsConfig::default();

    // Rounds of the whole batch: warm-up, untraced, traced.
    let plain = make(WORKERS, mpl, off);
    let batch = (&env.queries[..], &env.expected[..]);
    checks.add_round(&run_round(&plain, workload.api, batch.0, batch.1, None)?);
    let file_before = target.source().file_metrics();
    let untraced = run_round(&plain, workload.api, batch.0, batch.1, None)?;
    let file_after = target.source().file_metrics();
    checks.add_round(&untraced);
    let traced_session = make(WORKERS, mpl, ObsConfig::enabled());
    let parent = spans.enter("round.traced", None, None);
    let traced = run_round(
        &traced_session,
        workload.api,
        batch.0,
        batch.1,
        Some((spans, parent)),
    )?;
    spans.exit(parent);
    checks.add_round(&traced);

    // Pool comparisons on the probe subset.
    let count = scale.probe_queries.min(env.queries.len());
    let subset = (&env.queries[..count], &env.expected[..count]);
    let execute_2w = run_round(
        &make(WORKERS, 1, off),
        Api::Single,
        subset.0,
        subset.1,
        None,
    )?;
    let execute_1w = run_round(&make(1, 1, off), Api::Single, subset.0, subset.1, None)?;
    let stream_mpl1 = run_round(
        &make(WORKERS, 1, off),
        Api::Stream { mpl: 1 },
        subset.0,
        subset.1,
        None,
    )?;
    for round in [&execute_2w, &execute_1w, &stream_mpl1] {
        checks.add_round(round);
    }

    // The serial probe.
    let probe_stores = match workload.backing {
        Backing::Memory => None,
        backing => Some((
            open_probe_store(env, backing)?,
            open_probe_store(env, backing)?,
        )),
    };
    let pair = match &probe_stores {
        None => ProbePair {
            exec: &env.memory,
            replay: &env.memory,
        },
        Some((exec, replay)) => ProbePair { exec, replay },
    };
    let probe = serial_probe(env, &pair, count, spans)?;
    checks.add(probe.queries, probe.failed);

    {
        let mut put = |name: &str, value: f64| values.insert(name.to_string(), value);
        let timings = &env.timings;
        put("workload.gen_ms", timings.generate.as_secs_f64() * 1e3);
        put("exec.file.write_s", timings.write.as_secs_f64());
        put("exec.file.open_s", timings.open.as_secs_f64());

        let queries = probe.queries as f64;
        put("exec.plan.us_per_query", micros(probe.plan) / queries);
        put(
            "exec.engine.execute_plan_us_per_query",
            micros(probe.execute) / queries,
        );
        let (self_ns, total_ns) = spans.self_and_total_ns("execute_plan");
        put(
            "exec.engine.residual_share",
            ratio(self_ns as f64, total_ns as f64),
        );
        put(
            "exec.source.fetch_us_per_fragment",
            ratio(micros(probe.fetch), probe.fragments as f64),
        );
        put(
            "bitmap.index.select_us_per_fragment",
            ratio(micros(probe.select), probe.selected as f64),
        );
        put(
            "bitmap.repr.and_us_per_fragment",
            ratio(micros(probe.and), probe.selected as f64),
        );
        put(
            "bitmap.repr.iter_ns_per_hit",
            ratio(
                probe.iterate.as_secs_f64() * 1e9,
                probe.iterated_hits as f64,
            ),
        );
        put(
            "bitmap.repr.compressed_domain_share",
            ratio(
                probe.engine.compressed as f64,
                probe.engine.fragments as f64,
            ),
        );
        put(
            "exec.engine.agg_ns_per_row",
            ratio(
                probe.execute.as_secs_f64() * 1e9,
                probe.engine.rows_scanned as f64,
            ),
        );
        put(
            "exec.engine.rows_scanned_per_query",
            probe.engine.rows_scanned as f64 / queries,
        );
        put(
            "exec.engine.rows_matched_per_query",
            probe.engine.rows_matched as f64 / queries,
        );

        put(
            "exec.engine.speedup_2w",
            ratio(execute_1w.wall.as_secs_f64(), execute_2w.wall.as_secs_f64()),
        );
        put(
            "exec.engine.worker_busy_share",
            ratio(
                execute_2w.engine.busy.as_secs_f64(),
                execute_2w.engine.capacity.as_secs_f64(),
            ),
        );
        put(
            "exec.engine.steal_share",
            ratio(
                execute_2w.engine.stolen as f64,
                execute_2w.engine.fragments as f64,
            ),
        );
        put(
            "exec.scheduler.mpl1_vs_execute_ratio",
            ratio(stream_mpl1.qps(), execute_2w.qps()),
        );
        // The scheduler as the workload drives it; a `*_single` workload
        // never enters it, so there its MPL-1 pass stands in.
        let scheduler = untraced
            .throughput
            .as_ref()
            .or(stream_mpl1.throughput.as_ref());
        if let Some(t) = scheduler {
            put("exec.scheduler.utilisation", t.worker_utilisation());
            put("exec.scheduler.steal_rate", t.steal_rate());
            put("exec.scheduler.affinity_hit_rate", t.affinity_hit_rate());
            put("exec.scheduler.migration_rate", t.migration_rate());
            put(
                "exec.scheduler.tasks_per_s",
                ratio(t.pool.total_fragments() as f64, t.pool.wall.as_secs_f64()),
            );
        }

        put(
            "obs.trace_overhead_share",
            ratio(traced.wall.as_secs_f64(), untraced.wall.as_secs_f64()) - 1.0,
        );
        put("obs.events_recorded", traced.trace.recorded as f64);
        put("obs.events_dropped", traced.trace.dropped as f64);

        let store = env
            .memory
            .source()
            .as_memory()
            .expect("the reference warehouse is in memory");
        let stats = store.index_stats();
        let bitmaps = stats.bitmaps as f64;
        put(
            "bitmap.repr.plain_share",
            ratio((stats.bitmaps - stats.compressed) as f64, bitmaps),
        );
        put("bitmap.repr.wah_share", ratio(stats.wah as f64, bitmaps));
        put(
            "bitmap.repr.roaring_share",
            ratio(stats.roaring as f64, bitmaps),
        );
        put("bitmap.repr.compression_ratio", stats.compression_ratio());
        let rows = env.rows as f64;
        put(
            "bitmap.index.bytes_per_row",
            store.index_size_bytes() as f64 / rows,
        );
        put("exec.file.bytes_per_row", env.file_bytes as f64 / rows);

        // The file layer as the workload's untraced round used it.
        let file = match (file_before, file_after) {
            (Some(before), Some(after)) => file_delta(&before, &after),
            _ => Default::default(),
        };
        let round_queries = untraced.queries as f64;
        put(
            "exec.file.segment_reads_per_query",
            file.segment_reads as f64 / round_queries,
        );
        put(
            "exec.file.bytes_read_per_query",
            file.bytes_read as f64 / round_queries,
        );
        put(
            "exec.file.decoded_hit_share",
            ratio(
                file.decoded_cache_hits as f64,
                untraced.engine.fragments as f64,
            ),
        );
        put("storage.buffer.page_hit_rate", file.pool.hit_ratio());
        put(
            "storage.buffer.evictions_per_query",
            file.pool.evictions as f64 / round_queries,
        );
    }

    session_latencies(env, &untraced, &mut values);
    io_probe(env, &mut values);
    if workload.backing != Backing::Memory {
        file_probe(env, &mut values)?;
    }

    let (user, system) = sys::cpu_seconds()?;
    values.insert("process.cpu_user_s".to_string(), user);
    values.insert("process.cpu_sys_s".to_string(), system);

    // Layers this workload never entered report 0; a name outside the
    // normative list is a bug here.
    for metric in &PER_LAYER {
        values.entry(metric.name.to_string()).or_insert(0.0);
    }
    if let Some(stray) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == *k))
    {
        return Err(format!(
            "per-layer metric {stray} is not in the normative list"
        ));
    }

    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::set_up;
    use crate::spec::WORKLOADS;
    use crate::sys::test_out_dir;

    fn traced(workload: &Workload, seed: u64) -> (LayerValues, Checks, Spans) {
        let scale = Scale::quick();
        let mut spans = Spans::new();
        let mut env = set_up(workload, &scale, seed, &test_out_dir(), &mut spans).unwrap();
        env.compute_reference();
        let mut checks = Checks::default();
        let values = trace_run(workload, &scale, &env, &mut spans, &mut checks).unwrap();
        (values, checks, spans)
    }

    #[test]
    fn every_workload_yields_every_per_layer_metric() {
        for workload in &WORKLOADS {
            let (values, checks, spans) = traced(workload, 9);
            assert!(checks.correct(), "{}: {checks:?}", workload.name);
            // 3 batch rounds, 3 pool comparisons and the serial probe.
            assert_eq!(checks.attempted, 40 * 7);
            let names: Vec<&str> = values.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            expected.sort_unstable();
            assert_eq!(names, expected, "{}", workload.name);
            assert!(values.values().all(|v| v.is_finite()));

            let value = |name: &str| values[name];
            assert!(value("exec.engine.execute_plan_us_per_query") > 0.0);
            assert!(value("exec.io.pages_read") > 0.0);
            assert!(value("obs.events_recorded") > 0.0);
            // The bypass predictions the workloads were chosen for.
            let bitmaps = value("bitmap.index.select_us_per_fragment") > 0.0;
            assert_eq!(bitmaps, workload.name != "scan_single", "{}", workload.name);
            let file = value("exec.file.fetch_hit_us") > 0.0;
            assert_eq!(
                file,
                workload.backing != Backing::Memory,
                "{}",
                workload.name
            );
            let misses = value("exec.file.segment_reads_per_query") > 0.0;
            assert_eq!(
                misses,
                workload.backing == Backing::FileThrash,
                "{}",
                workload.name
            );

            // One attributed child per layer under every execute_plan span.
            let executes = spans
                .all()
                .iter()
                .filter(|s| s.name == "execute_plan")
                .count();
            let fetches = spans
                .all()
                .iter()
                .filter(|s| s.name == "exec.source.try_fetch" && s.attributed)
                .count();
            assert_eq!((executes, fetches), (40, 40));
        }
    }

    #[test]
    fn exact_counters_repeat_for_a_seed_and_move_with_it() {
        let workload = &WORKLOADS[2];
        let exact = |seed| -> Vec<(&str, u64)> {
            let values = traced(workload, seed).0;
            PER_LAYER
                .iter()
                .filter(|m| m.exact)
                .map(|m| (m.name, values[m.name].to_bits()))
                .collect()
        };
        let first = exact(21);
        assert_eq!(first, exact(21));
        assert_ne!(first, exact(22));
    }
}
