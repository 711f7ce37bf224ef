//! Figure 3 (measured) — wall-clock speedup of the 1STORE query on the
//! *physical* execution engine, printed next to the analytic bound and the
//! SIMPAD-simulated speedup.
//!
//! The repository validates the paper's intra-query parallelism claim three
//! ways; this binary puts them side by side for a 1STORE-class query (not
//! supported by `F_MonthGroup`, so it scans every fragment — the paper's
//! disk-bound worst case):
//!
//! * **measured** — the `exec` engine on a materialised store, best-of-3
//!   wall clock per worker count, speedup vs. 1 worker,
//! * **analytic** — the load-balance bound `F / ceil(F/w)` for `F` equal-size
//!   fragments on `w` workers (the paper's uniform-distribution assumption),
//! * **simulated** — SIMPAD on the full-size APB-1 configuration, scaling
//!   nodes and disks together (`d = 4p`, the Figure 3 `p = d/4` series).
//!
//! `--quick` shrinks the store and the worker sweep for CI smoke runs.

use bench_support::{f_month_group, measured_store, paper_schema, quick_mode, run_point};
use warehouse::prelude::*;
use warehouse::workload::QueryType;

/// Runs `f` `runs` times and returns the metrics of the fastest run, so the
/// reported wall time and the per-worker breakdown describe the same run.
fn best_of(runs: usize, mut f: impl FnMut() -> ExecMetrics) -> ExecMetrics {
    (0..runs)
        .map(|_| f())
        .min_by_key(|metrics| metrics.wall)
        .expect("at least one run")
}

fn main() {
    let quick = quick_mode();
    let worker_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8, 16] };
    let repeats = if quick { 2 } else { 3 };

    let engine = StarJoinEngine::new(measured_store(quick));
    let schema = engine.store().schema().clone();
    let fragments = engine.store().fragmentation().fragment_count();
    let cores = bench_support::cores();
    println!("Figure 3 (measured): 1STORE on the physical execution engine");
    println!(
        "store: {} rows in {} fragments under {}; machine: {} core(s)",
        engine.store().total_rows(),
        fragments,
        engine.store().fragmentation().describe(&schema),
        cores
    );
    println!();

    let bound = BoundQuery::new(
        &schema,
        QueryType::OneStore.to_star_query(&schema),
        vec![17],
    );
    let plan = engine.plan(&bound);
    assert_eq!(plan.fragments().len() as u64, fragments);

    // Simulated pillar: the full-size APB-1 warehouse, nodes and disks scaled
    // together (d = 4p) as in the Figure 3 "p = d/4" series.
    let full_schema = paper_schema();
    let full_fragmentation = f_month_group(&full_schema);
    let simulate = |workers: usize| {
        let config = SimConfig::for_speedup_point(4 * workers as u64, workers);
        run_point(
            &full_schema,
            &full_fragmentation,
            config,
            QueryType::OneStore,
            1,
        )
        .mean_response_secs()
    };

    let widths = [7usize, 10, 9, 15, 19];
    bench_support::print_header(
        &[
            "workers",
            "wall [ms]",
            "measured",
            "analytic bound",
            "simulated (SIMPAD)",
        ],
        &widths,
    );

    let mut measured_baseline: Option<f64> = None;
    let mut simulated_baseline: Option<f64> = None;
    let mut four_worker_metrics: Option<ExecMetrics> = None;
    for &workers in worker_counts {
        let metrics = best_of(repeats, || {
            let config = RunConfig {
                workers,
                ..RunConfig::default()
            };
            engine
                .run(std::slice::from_ref(&plan), &config, None)
                .metrics
                .pool
        });
        if workers == 4 {
            four_worker_metrics = Some(metrics.clone());
        }
        let wall_ms = metrics.wall.as_secs_f64() * 1e3;
        let measured = measured_baseline.map_or(1.0, |b| b / wall_ms);
        measured_baseline.get_or_insert(wall_ms);

        let analytic = fragments as f64 / fragments.div_ceil(workers as u64) as f64;

        let sim_secs = simulate(workers);
        let simulated = simulated_baseline.map_or(1.0, |b| b / sim_secs);
        simulated_baseline.get_or_insert(sim_secs);

        bench_support::print_row(
            &[
                workers.to_string(),
                format!("{wall_ms:.1}"),
                format!("{measured:.2}x"),
                format!("{analytic:.2}x"),
                format!("{simulated:.2}x"),
            ],
            &widths,
        );
    }

    if let Some(metrics) = four_worker_metrics {
        println!();
        println!(
            "4-worker pool: {} fragments processed ({} stolen), load imbalance {:.2}",
            metrics.total_fragments(),
            metrics.total_stolen(),
            metrics.load_imbalance()
        );
        for w in &metrics.workers {
            println!(
                "  worker {}: {:>5} fragments ({:>3} stolen), {:>9} rows, busy {:>8.1} ms",
                w.worker,
                w.fragments_processed,
                w.fragments_stolen,
                w.rows_scanned,
                w.busy.as_secs_f64() * 1e3
            );
        }
    }

    println!();
    println!(
        "Expected shape: measured speedup tracks the analytic bound up to the \
         machine's core count (flat on a single-core box); the simulated column \
         reproduces the paper's near-linear Figure 3 scaling of the full-size system."
    );
}
