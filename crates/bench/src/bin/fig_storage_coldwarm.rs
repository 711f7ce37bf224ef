//! Cold vs. warm persistent-storage throughput — the measured counterpart
//! of the simulated cache experiments, on the real `FGMT` file format.
//!
//! The simulated-I/O benchmarks charge fragment scans against an analytic
//! disk model behind a simulated LRU page cache.  This binary runs the same
//! deterministic query workload against an *actual* fragment file through
//! [`Warehouse::open`]:
//!
//! 1. the measured store is serialised to a temporary `FGMT` file,
//! 2. a **cold** pass runs the workload on a freshly opened warehouse
//!    (every page faults into the buffer pool),
//! 3. a **warm** pass repeats the workload on the same warehouse (pages and
//!    decoded fragments are resident),
//! 4. the same two passes run under the simulated disk subsystem on the
//!    in-memory backing, cross-validating two pillars:
//!    * the file-backed results are **bit-identical** to the in-memory ones,
//!    * the warm-pass page-pool hit rate is at least the simulated cache's
//!      hit rate on the identical workload (the real cache can only do
//!      better: it also holds decoded fragments),
//!
//!    and reporting the [`DiskModel`]-predicted cold makespan next to the
//!    measured cold wall time.
//!
//! [`DiskModel`]: warehouse::storage::DiskModel
//!
//! Results are written as JSON (default `BENCH_storage_coldwarm.json`,
//! override with `--json <path>`).  The page-pool counters are deterministic
//! for a given workload and cache size and are gated exactly by CI's
//! `bench-regression` job; the wall-clock fields sit under `"wall"`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bench_support::{cores, measured_store_fragmented, quick_mode, Record};
use warehouse::prelude::*;

/// One measured pass (cold or warm), kept for the JSON report.
struct Pass {
    phase: &'static str,
    queries: usize,
    wall_ms: f64,
    qps: f64,
    page_hit_rate: f64,
    decoded_hits: u64,
    segment_reads: u64,
    bytes_read: u64,
}

impl Pass {
    fn record(&self) -> Record {
        Record::new()
            .set("phase", self.phase)
            .set("queries", self.queries)
            .set("page_hit_rate", self.page_hit_rate)
            .set("decoded_hits", self.decoded_hits)
            .set("segment_reads", self.segment_reads)
            .set("bytes_read", self.bytes_read)
            .wall("elapsed_ms", self.wall_ms)
            .wall("qps", self.qps)
    }
}

/// A uniquely named file in the system temp directory, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        TempFile(std::env::temp_dir().join(format!(
            "fgmt_coldwarm_{}_{tag}_{n}.fgmt",
            std::process::id()
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs the workload once on a file-backed session and snapshots the pass:
/// wall time plus the *delta* of the cumulative file-I/O counters.
fn run_file_pass(
    phase: &'static str,
    warehouse: &Warehouse,
    queries: &[BoundQuery],
    workers: usize,
    expected: &[QueryResult],
) -> Pass {
    let before = warehouse
        .source()
        .file_metrics()
        .expect("file-backed warehouse");
    let session = warehouse.session().workers(workers).build();
    let start = Instant::now();
    for (query, expect) in queries.iter().zip(expected) {
        let result = session.execute(query);
        assert_eq!(
            (result.hits, &result.measure_sums),
            (expect.hits, &expect.measure_sums),
            "file-backed {phase} pass diverged from the in-memory result"
        );
    }
    let wall = start.elapsed();
    let after = warehouse
        .source()
        .file_metrics()
        .expect("file-backed warehouse");

    let hits = after.pool.hits - before.pool.hits;
    let misses = after.pool.misses - before.pool.misses;
    let decoded_hits = after.decoded_cache_hits - before.decoded_cache_hits;
    // Fetches served from the decoded-fragment cache never touch the page
    // pool: a pass with no page requests at all is a perfect cache pass.
    let page_hit_rate = if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let wall_ms = wall.as_secs_f64() * 1e3;
    Pass {
        phase,
        queries: queries.len(),
        wall_ms,
        qps: queries.len() as f64 / wall.as_secs_f64().max(f64::EPSILON),
        page_hit_rate,
        decoded_hits,
        segment_reads: after.segment_reads - before.segment_reads,
        bytes_read: after.bytes_read - before.bytes_read,
    }
}

fn main() {
    let quick = quick_mode();
    let workers = cores().clamp(1, 4);
    let stream_len = if quick { 64 } else { 256 };

    println!("Persistent storage: cold vs. warm query throughput on an FGMT fragment file");
    println!("machine: {} core(s); pool: {workers} worker(s)", cores());
    println!();

    // The measured warehouse under the paper's standard F_MonthGroup-style
    // fragmentation, serialised once to a temporary fragment file.
    let store = measured_store_fragmented(quick, &["time::month", "product::group"]);
    let schema = store.schema().clone();
    let guard = TempFile::new(if quick { "quick" } else { "full" });
    warehouse::exec::write_store(&store, &guard.0).expect("serialise the fragment store");
    let file_bytes = std::fs::metadata(&guard.0)
        .expect("stat the fragment file")
        .len();
    println!(
        "store: {} rows in {} fragments -> {} ({file_bytes} bytes)",
        store.total_rows(),
        store.fragment_count(),
        guard.0.display()
    );

    // A deterministic workload of single-fragment queries: each pass touches
    // the same fragments in the same order, so the page-pool counters are
    // exactly reproducible.
    let mut generator = QueryGenerator::new(&schema, QueryType::OneMonthOneGroup, 2024);
    let queries = generator.batch(stream_len);

    // In-memory reference results — the file-backed passes must reproduce
    // these bit for bit.
    let memory_engine = StarJoinEngine::new(store);
    let serial = RunConfig::serial();
    let expected: Vec<QueryResult> = queries
        .iter()
        .map(|q| memory_engine.execute(q, &serial))
        .collect();

    // Simulated pillar: the identical two-pass workload charged against the
    // DiskModel-based simulated subsystem with a page cache sized like the
    // file store's pool, sharing one SimulatedIo so cache state carries from
    // the cold pass into the warm one.
    let io_config = IoConfig::with_disks(4).cache(FileStoreOptions::default().cache_pages);
    let sim_io = SimulatedIo::new(io_config, &schema);
    let sim_config = RunConfig {
        workers,
        ..RunConfig::default()
    };
    let plans: Vec<QueryPlan> = queries.iter().map(|q| memory_engine.plan(q)).collect();
    let sim_pass = || {
        for plan in &plans {
            let _ = memory_engine.run(std::slice::from_ref(plan), &sim_config, Some(&sim_io));
        }
    };
    sim_pass();
    let sim_cold = sim_io.metrics();
    let predicted_cold_io_ms = sim_cold.elapsed_ms;
    sim_pass();
    let sim_total = sim_io.metrics();
    let sim_cold_hit_rate = sim_cold.cache_hit_rate();
    let warm_hits: u64 = sim_total.cache.hits - sim_cold.cache.hits;
    let warm_misses: u64 = sim_total.cache.misses - sim_cold.cache.misses;
    let sim_warm_hit_rate = if warm_hits + warm_misses == 0 {
        1.0
    } else {
        warm_hits as f64 / (warm_hits + warm_misses) as f64
    };

    // Measured pillar: the same workload through the session API over the
    // real file, cold then warm on the same open warehouse.
    let warehouse = Warehouse::open(&guard.0).expect("reopen the fragment file");
    let cold = run_file_pass("cold", &warehouse, &queries, workers, &expected);
    let warm = run_file_pass("warm", &warehouse, &queries, workers, &expected);

    let widths = [6usize, 8, 11, 10, 10, 9, 9, 12];
    bench_support::print_header(
        &[
            "phase",
            "queries",
            "wall [ms]",
            "qps",
            "page hit",
            "decoded",
            "seg rd",
            "bytes",
        ],
        &widths,
    );
    for pass in [&cold, &warm] {
        bench_support::print_row(
            &[
                pass.phase.to_string(),
                pass.queries.to_string(),
                format!("{:.3}", pass.wall_ms),
                format!("{:.0}", pass.qps),
                format!("{:.3}", pass.page_hit_rate),
                pass.decoded_hits.to_string(),
                pass.segment_reads.to_string(),
                pass.bytes_read.to_string(),
            ],
            &widths,
        );
    }
    println!();
    println!(
        "simulated cache on the same workload: cold hit rate {sim_cold_hit_rate:.3}, \
         warm hit rate {sim_warm_hit_rate:.3}"
    );
    println!(
        "DiskModel-predicted cold makespan {predicted_cold_io_ms:.3} ms \
         (simulated 4-disk subsystem) vs. measured cold wall {:.3} ms",
        cold.wall_ms
    );
    println!();

    bench_support::write_report(
        "storage_coldwarm",
        quick,
        Record::new()
            .set("file_bytes", file_bytes)
            .list("points", &[cold.record(), warm.record()])
            .set("sim_cold_hit_rate", sim_cold_hit_rate)
            .set("sim_warm_hit_rate", sim_warm_hit_rate)
            .set("predicted_cold_io_ms", predicted_cold_io_ms)
            .wall("measured_cold_ms", cold.wall_ms),
    );
    let (warm_page_hit_rate, warm_segment_reads) = (warm.page_hit_rate, warm.segment_reads);

    // The acceptance gate: after a cold pass the real buffer pool must be at
    // least as warm as the simulated cache on the identical workload — it
    // additionally keeps whole decoded fragments, so it can only do better.
    assert!(
        warm_page_hit_rate >= sim_warm_hit_rate,
        "warm file-backed page-pool hit rate {warm_page_hit_rate:.3} fell below the simulated \
         cache's warm hit rate {sim_warm_hit_rate:.3} on the same workload"
    );
    assert!(
        warm_segment_reads == 0,
        "warm pass re-read {warm_segment_reads} segments from the file; the pool should hold \
         the whole working set ({file_bytes} bytes)"
    );
    println!(
        "gate: warm page-pool hit rate {warm_page_hit_rate:.3} >= \
         simulated warm hit rate {sim_warm_hit_rate:.3} ✓"
    );
}
