//! Multi-user throughput — the measured counterpart of the paper's SIMPAD
//! multi-user experiments.
//!
//! The single-query binaries measure *speedup*: how fast one star query gets
//! when the pool grows.  This binary measures *throughput*: how many queries
//! per second a fixed shared pool completes when the scheduler admits
//! several queries concurrently.  It sweeps
//!
//! * **MPL** (admission limit, the multi-programming level),
//! * **worker count** (the shared pool size),
//! * **fragmentation** (`F_Month` with 24 fat fragments vs. `F_MonthGroup`
//!   with many small ones),
//!
//! over a deterministic stream of single-fragment `1MONTH1GROUP` queries —
//! the workload whose intra-query parallelism is 1, so every bit of
//! speedup must come from *inter*-query parallelism.  Each measured point
//! reports queries/sec, the per-query latency distribution, worker
//! utilisation, steal and disk-affinity rates, and the sweep cross-checks
//! the throughput *trend* against two independent pillars:
//!
//! * the analytic multi-user bound `X(m) ∝ min(m · p₁, w)`
//!   ([`CostModel::multi_user_throughput`]),
//! * SIMPAD closed multi-user runs on the full-size APB-1 system
//!   ([`simpad::RunSummary::throughput_qps`]).
//!
//! On machines with ≥ 4 cores the binary *asserts* that throughput at
//! MPL 4 strictly exceeds MPL 1 on the 4-worker pool (one re-measurement
//! allowed, like the single-query speedup gate).  Results are also written
//! as JSON (default `BENCH_multiuser_throughput.json`, override with
//! `--json <path>`): the measured numbers under `"wall"`, the analytic and
//! SIMPAD series as deterministic fields.

use bench_support::{cores, measured_store_fragmented, paper_schema, quick_mode, Record};
use warehouse::prelude::*;
use warehouse::simpad;
use warehouse::workload::QueryStream;

/// Runs one scheduler sweep point and returns its throughput metrics.
fn measure(
    engine: &StarJoinEngine,
    queries: &[BoundQuery],
    workers: usize,
    mpl: usize,
) -> ThroughputMetrics {
    let plans: Vec<QueryPlan> = queries.iter().map(|q| engine.plan(q)).collect();
    let config = RunConfig {
        workers,
        mpl,
        ..RunConfig::default()
    };
    engine.run(&plans, &config, None).metrics
}

fn main() {
    let quick = quick_mode();
    let worker_axis: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let mpl_axis: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let stream_len = if quick { 96 } else { 256 };
    let fragmentations: [(&'static str, &[&str]); 2] = [
        ("F_Month", &["time::month"]),
        ("F_MonthGroup", &["time::month", "product::group"]),
    ];

    println!("Multi-user throughput: concurrent 1MONTH1GROUP streams on the shared pool");
    println!(
        "machine: {} core(s); stream: {stream_len} single-fragment queries per point",
        cores()
    );
    println!();

    // Analytic pillar: the multi-user bound on the full-size system — the
    // query is single-fragment under both fragmentations, so one model per
    // worker count serves every row of the sweep.
    let full_schema = paper_schema();
    let full_frag = Fragmentation::parse(&full_schema, &["time::month", "product::group"])
        .expect("valid fragmentation attributes");
    let full_query = QueryType::OneMonthOneGroup.to_star_query(&full_schema);
    let cost_model = CostModel::new(full_schema.clone(), IndexCatalog::default_for(&full_schema));

    let widths = [12usize, 7, 4, 10, 9, 12, 11, 11, 6, 7, 9, 9];
    let mut points: Vec<Record> = Vec::new();
    for (frag_name, attrs) in fragmentations {
        let engine = StarJoinEngine::new(measured_store_fragmented(quick, attrs));
        let schema = engine.store().schema().clone();
        let mut generator = QueryGenerator::new(&schema, QueryType::OneMonthOneGroup, 2024);
        let queries = generator.batch(stream_len);
        let tasks: usize = queries.iter().map(|q| engine.plan(q).task_count()).sum();
        println!(
            "{frag_name}: {} rows in {} fragments; stream decomposes into {tasks} tasks",
            engine.store().total_rows(),
            engine.store().fragment_count(),
        );
        bench_support::print_header(
            &[
                "frag",
                "workers",
                "mpl",
                "qps",
                "rel",
                "mean [ms]",
                "p95 [ms]",
                "p99 [ms]",
                "util",
                "steal",
                "affinity",
                "cost rel",
            ],
            &widths,
        );
        for &workers in worker_axis {
            let mut baseline_qps: Option<f64> = None;
            for &mpl in mpl_axis {
                let metrics = measure(&engine, &queries, workers, mpl);
                let qps = metrics.queries_per_sec();
                let relative = baseline_qps.map_or(1.0, |b| qps / b);
                baseline_qps.get_or_insert(qps);
                let cost = cost_model.multi_user_throughput(&full_frag, &full_query, mpl, workers);
                bench_support::print_row(
                    &[
                        frag_name.to_string(),
                        workers.to_string(),
                        mpl.to_string(),
                        format!("{qps:.0}"),
                        format!("{relative:.2}x"),
                        format!("{:.3}", metrics.latency_mean().as_secs_f64() * 1e3),
                        format!("{:.3}", metrics.latency_p95().as_secs_f64() * 1e3),
                        format!("{:.3}", metrics.latency_p99().as_secs_f64() * 1e3),
                        format!("{:.2}", metrics.worker_utilisation()),
                        format!("{:.2}", metrics.steal_rate()),
                        format!("{:.2}", metrics.affinity_hit_rate()),
                        format!("{:.2}x", cost.relative_throughput),
                    ],
                    &widths,
                );
                let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                points.push(
                    Record::new()
                        .set("fragmentation", frag_name)
                        .set("workers", workers)
                        .set("mpl", mpl)
                        .set("queries", stream_len)
                        .set("cost_relative", cost.relative_throughput)
                        .wall("elapsed_ms", ms(metrics.pool.wall))
                        .wall("qps", qps)
                        .wall("latency_mean_ms", ms(metrics.latency_mean()))
                        .wall("latency_p95_ms", ms(metrics.latency_p95()))
                        .wall("latency_p99_ms", ms(metrics.latency_p99()))
                        .wall("latency_p999_ms", ms(metrics.latency_p999()))
                        .wall("utilisation", metrics.worker_utilisation())
                        .wall("steal_rate", metrics.steal_rate())
                        .wall("affinity_hit_rate", metrics.affinity_hit_rate()),
                );
            }
        }
        println!();
    }

    // Simulated pillar: SIMPAD closed multi-user runs on the full-size
    // APB-1 system with a 4-node / 20-disk configuration.
    println!("SIMPAD cross-check (full-size APB-1, F_MonthGroup, 4 nodes, 20 disks):");
    let sim_widths = [4usize, 12, 9];
    bench_support::print_header(&["mpl", "sim qps", "sim rel"], &sim_widths);
    let mut sim_series: Vec<Record> = Vec::new();
    let mut sim_baseline: Option<f64> = None;
    for &mpl in mpl_axis {
        let config = SimConfig {
            disks: 20,
            nodes: 4,
            subqueries_per_node: 4,
            ..SimConfig::default()
        };
        let setup = simpad::ExperimentSetup::new(
            full_schema.clone(),
            full_frag.clone(),
            config,
            QueryType::OneMonthOneGroup,
            (6 * mpl).min(24),
        )
        .with_stream(QueryStream::MultiUser { streams: mpl });
        let summary = simpad::run_experiment(&setup);
        let qps = summary.throughput_qps();
        let relative = sim_baseline.map_or(1.0, |b| qps / b);
        sim_baseline.get_or_insert(qps);
        bench_support::print_row(
            &[
                mpl.to_string(),
                format!("{qps:.2}"),
                format!("{relative:.2}x"),
            ],
            &sim_widths,
        );
        sim_series.push(
            Record::new()
                .set("mpl", mpl)
                .set("qps", qps)
                .set("relative", relative),
        );
    }
    println!();

    bench_support::write_report(
        "multiuser_throughput",
        quick,
        Record::new()
            .list("points", &points)
            .list("simpad_multiuser", &sim_series),
    );

    // All three pillars agree on the trend: relative throughput climbs with
    // the MPL while single-fragment queries leave workers idle, and
    // saturates at the pool size.
    println!();
    println!(
        "Expected shape: measured rel ≈ analytic min(mpl, workers) while the pool has idle \
         workers; SIMPAD's multi-user series climbs the same way on the full-size system."
    );

    // The throughput gate, mirrored from the single-query speedup gate.
    if cores() < 4 {
        println!(
            "skipping the MPL-4 > MPL-1 throughput assertion: only {} core(s)",
            cores()
        );
        return;
    }
    let engine = StarJoinEngine::new(measured_store_fragmented(quick, &["time::month"]));
    let schema = engine.store().schema().clone();
    let mut generator = QueryGenerator::new(&schema, QueryType::OneMonthOneGroup, 77);
    let queries = generator.batch(stream_len);
    let mut last = (0.0, 0.0);
    let ok = (0..2).any(|attempt| {
        let single = measure(&engine, &queries, 4, 1).queries_per_sec();
        let multi = measure(&engine, &queries, 4, 4).queries_per_sec();
        last = (single, multi);
        if multi <= single && attempt == 0 {
            eprintln!("first measurement was {multi:.0} vs {single:.0} qps; re-measuring once");
        }
        multi > single
    });
    let (single, multi) = last;
    assert!(
        ok,
        "throughput at MPL 4 ({multi:.0} qps) did not exceed MPL 1 ({single:.0} qps) on 4 workers"
    );
    println!(
        "gate: MPL 4 throughput {multi:.0} qps > MPL 1 throughput {single:.0} qps on 4 workers ✓"
    );
}
