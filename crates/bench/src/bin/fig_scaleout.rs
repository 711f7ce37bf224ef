//! Multi-node scale-out — shared-nothing vs shared-disk on the simulated
//! node → disk subsystem.
//!
//! The paper's architecture is a Shared Disk parallel machine; this study
//! asks the question it leaves open: how does the same MDHF warehouse
//! behave when the disks are *owned* by nodes (shared-nothing) instead of
//! reachable by every processing element (shared-disk)?  The sweep crosses
//!
//! * **nodes** ∈ {1, 2, 4, 8}, each owning a fixed number of disks (so
//!   adding nodes adds I/O bandwidth — the scale-out axis),
//! * **skew factor** θ ∈ {0, 1} on both the fact rows and the query
//!   values (uniform → classic Zipf),
//! * **MPL** (the multi-user admission level),
//! * **node strategy**: [`NodeStrategy::SharedNothing`] (cross-node cache
//!   misses ship pages over the simulated interconnect) vs
//!   [`NodeStrategy::SharedDisk`] (every node reads every disk directly),
//!
//! running a mixed `1MONTH1GROUP` + `1CODE` stream against the node-aware
//! scheduler: tasks are dealt to their fragment's home node, dry workers
//! steal node-locally before migrating across the interconnect, and each
//! node runs its own LRU page cache.
//!
//! Each point reports **simulated** queries/sec (queries over the
//! deterministic simulated makespan — bit-reproducible on any machine;
//! wall-clock qps is reported alongside but never gated), per-node load
//! imbalance (measured vs the analytic `allocation::node_load_shares`
//! prediction), interconnect traffic and the migration rate.
//!
//! **Gates** (deterministic):
//!
//! 1. **scale-out** — on the Zipf stream, shared-nothing simulated qps at
//!    8 nodes must be at least 2× the 1-node configuration's,
//! 2. **balance** — per-node imbalance under θ = 1 must stay within 1.5×
//!    the uniform workload's (8 nodes, shared-nothing),
//! 3. **bit-identity** — every query's hits and measure sums are identical
//!    across all node counts and both strategies.
//!
//! Results are written as JSON (default `BENCH_scaleout.json`, override
//! with `--json <path>`); CI's `bench-regression` job requires every
//! deterministic field to equal `bench/baseline/` exactly.

use bench_support::{quick_mode, scan_service_ms, skewed_engine_and_stream, study_schema, Record};
use warehouse::allocation::{load_imbalance, node_load_shares};
use warehouse::prelude::*;

/// Analytic per-node imbalance prediction for the stream: fact-scan
/// service time per distinct scanned fragment (repeat scans hit the node's
/// cache), folded into per-node load shares by the two-level placement.
fn predicted_node_imbalance(
    engine: &StarJoinEngine,
    queries: &[BoundQuery],
    placement: &NodePlacement,
    io: &IoConfig,
    sizing: &schema::PageSizing,
) -> (f64, Vec<f64>) {
    let n = engine.store().fragment_count() as usize;
    let mut weights = vec![0.0f64; n];
    for query in queries {
        for &fragment in engine.plan(query).fragments() {
            let rows = engine.store().fragment(fragment).len() as u64;
            weights[fragment as usize] = scan_service_ms(io, sizing, rows);
        }
    }
    let shares = node_load_shares(placement, &weights);
    (load_imbalance(&shares), shares)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = quick_mode();
    let node_axis: [u64; 4] = [1, 2, 4, 8];
    let thetas = [0.0f64, 1.0];
    let mpl_axis: &[usize] = if quick { &[4] } else { &[2, 8] };
    let disks_per_node = 4u64;
    let workers = if quick { 4 } else { 8 };
    let rows = if quick { 60_000 } else { 150_000 };
    let stream_len = if quick { 48 } else { 96 };

    let schema = study_schema();
    let sizing = schema::PageSizing::new(&schema);
    println!("Multi-node scale-out: shared-nothing vs shared-disk on the node-aware scheduler");
    println!(
        "warehouse: {rows} rows, F_MonthCode fragmentation; stream: {stream_len} \
         1MONTH1GROUP/1CODE/1GROUP1STORE queries; {disks_per_node} disks/node, {workers} workers"
    );
    println!();

    let widths = [6usize, 6, 4, 9, 9, 9, 9, 9, 10, 7, 7];
    bench_support::print_header(
        &[
            "nodes", "theta", "mpl", "strategy", "sim qps", "wall qps", "node imb", "pred imb",
            "net [ms]", "migr", "cache",
        ],
        &widths,
    );

    let mut points: Vec<Record> = Vec::new();
    let mut node_shares: Vec<Record> = Vec::new();
    // Interconnect sanity: (some multi-node shared-nothing point shipped
    // pages, some shared-disk point paid interconnect charges).
    let (mut shipped, mut shared_disk_paid) = (false, false);
    // Gate accumulators: shared-nothing simulated qps at 1 and 8 nodes on
    // the Zipf stream (first MPL of the axis), and the 8-node per-node
    // imbalances under θ = 0 and θ = 1.
    let (mut qps_1node, mut qps_8nodes) = (0.0f64, 0.0f64);
    let mut gate_imbalances: [f64; 2] = [0.0, 0.0];
    // Bit-identity reference per θ: the 1-node shared-disk outcome.
    for &theta in &thetas {
        // 1MONTH1GROUP and 1CODE prune on the fragmentation attributes
        // alone; 1GROUP1STORE additionally restricts the store dimension,
        // which is *not* a fragmentation attribute, so it drives bitmap
        // joins — and with staggered bitmap allocation some of those
        // bitmaps live on *remote* nodes, exercising the shared-nothing
        // interconnect.
        let (engine, queries) = skewed_engine_and_stream(
            &schema,
            theta,
            rows,
            stream_len,
            &[
                QueryType::OneMonthOneGroup,
                QueryType::OneCode,
                QueryType::OneGroupOneStore,
            ],
        );
        let plans: Vec<QueryPlan> = queries.iter().map(|q| engine.plan(q)).collect();
        let mut reference: Option<Vec<(u64, Vec<u64>)>> = None;
        for &nodes in &node_axis {
            for (strategy, shared_nothing) in [
                (NodeStrategy::SharedDisk, false),
                (NodeStrategy::SharedNothing, true),
            ] {
                let placement = NodePlacement::new(nodes, disks_per_node, strategy);
                for &mpl in mpl_axis {
                    let io = IoConfig::with_nodes(placement).cache(4_096);
                    let config = RunConfig {
                        workers,
                        mpl,
                        io: Some(io),
                        ..RunConfig::default()
                    };
                    let metrics = engine.run(&plans, &config, None).metrics;
                    let io_metrics = metrics.pool.io.as_ref().expect("I/O metrics");
                    let (predicted, predicted_shares) =
                        predicted_node_imbalance(&engine, &queries, &placement, &io, &sizing);
                    // Simulated queries/sec — deterministic, the gated metric
                    // (the wall-clock one is machine-dependent, report-only).
                    let qps = stream_len as f64 / (io_metrics.elapsed_ms / 1e3).max(1e-12);
                    let wall_qps = metrics.queries_per_sec();
                    let node_imbalance = io_metrics.node_imbalance();
                    let (net_ms, net_pages) =
                        (io_metrics.total_net_ms(), io_metrics.total_net_pages());
                    let migration_rate = metrics.migration_rate();
                    let cache_hit_rate = io_metrics.cache_hit_rate();
                    bench_support::print_row(
                        &[
                            nodes.to_string(),
                            format!("{theta:.1}"),
                            mpl.to_string(),
                            if shared_nothing { "nothing" } else { "disk" }.to_string(),
                            format!("{qps:.0}"),
                            format!("{wall_qps:.0}"),
                            format!("{node_imbalance:.2}x"),
                            format!("{predicted:.2}x"),
                            format!("{net_ms:.1}"),
                            format!("{migration_rate:.2}"),
                            format!("{cache_hit_rate:.2}"),
                        ],
                        &widths,
                    );
                    points.push(
                        Record::new()
                            .set("nodes", nodes)
                            .set("theta", theta)
                            .set("mpl", mpl)
                            .set("shared_nothing", shared_nothing)
                            .set("disks", placement.total_disks())
                            .set("workers", workers)
                            .set("queries", stream_len)
                            .set("qps", qps)
                            .set("node_imbalance", node_imbalance)
                            .set("predicted_node_imbalance", predicted)
                            .set("net_ms", net_ms)
                            .set("net_pages", net_pages)
                            .set("cache_hit_rate", cache_hit_rate)
                            .set("sim_elapsed_ms", io_metrics.elapsed_ms)
                            .wall("qps", wall_qps)
                            .wall("migration_rate", migration_rate),
                    );
                    shipped |= shared_nothing && nodes > 1 && net_pages > 0;
                    shared_disk_paid |= !shared_nothing && net_pages > 0;
                    if shared_nothing && mpl == mpl_axis[0] {
                        if theta == 1.0 && nodes == 1 {
                            qps_1node = qps;
                        }
                        if theta == 1.0 && nodes == 8 {
                            qps_8nodes = qps;
                        }
                        if nodes == 8 {
                            gate_imbalances[usize::from(theta == 1.0)] = node_imbalance;
                        }
                        // The predicted-vs-measured per-node share table at
                        // the flagship 4-node Zipf point.
                        if theta == 1.0 && nodes == 4 {
                            let profile = io_metrics.node_load_profile();
                            let total: f64 = profile.iter().sum();
                            for (node, (&measured, &predicted)) in
                                profile.iter().zip(&predicted_shares).enumerate()
                            {
                                node_shares.push(
                                    Record::new()
                                        .set("node", node)
                                        .set("predicted_share", predicted)
                                        .set("measured_share", measured / total.max(1e-12)),
                                );
                            }
                        }
                    }
                }

                // GATE 3 (bit-identity): every query's result is identical
                // across node counts and strategies — compare against the
                // 1-node shared-disk reference of this θ.
                let config = RunConfig {
                    workers,
                    mpl: mpl_axis[0],
                    io: Some(IoConfig::with_nodes(placement).cache(4_096)),
                    ..RunConfig::default()
                };
                let outcome = engine.run(&plans, &config, None);
                let bits: Vec<(u64, Vec<u64>)> = outcome
                    .queries
                    .iter()
                    .map(|q| (q.hits, q.measure_sums.iter().map(|s| s.to_bits()).collect()))
                    .collect();
                match &reference {
                    Some(reference) => assert_eq!(
                        reference, &bits,
                        "bit-identity gate FAILED: {nodes} nodes ({strategy:?}, θ={theta}) \
                         diverged from the 1-node reference"
                    ),
                    None => reference = Some(bits),
                }
            }
        }
        println!();
    }
    println!("gate: results bit-identical across node counts {node_axis:?} and both strategies ✓");

    // Sanity: the shared-nothing interconnect is actually exercised (remote
    // staggered bitmaps ship pages), and shared-disk never pays for it.
    assert!(
        shipped,
        "no shared-nothing point shipped pages over the interconnect"
    );
    assert!(
        !shared_disk_paid,
        "a shared-disk point paid interconnect charges"
    );

    // GATE 1 (scale-out): 8 nodes own 8x the disks — the Zipf stream's
    // simulated throughput must rise at least 2x over the 1-node system.
    assert!(
        qps_1node > 0.0 && qps_8nodes > 0.0,
        "gate points missing from the sweep"
    );
    assert!(
        qps_8nodes >= 2.0 * qps_1node,
        "scale-out gate FAILED: 8-node simulated qps {qps_8nodes:.0} is below 2x the 1-node \
         {qps_1node:.0}"
    );
    println!(
        "gate: 8-node simulated qps {qps_8nodes:.0} ≥ 2× 1-node {qps_1node:.0} \
         (scaling {:.2}x) ✓",
        qps_8nodes / qps_1node
    );

    // GATE 2 (balance): Zipf skew must not wreck the per-node balance.
    let (uniform, skewed) = (gate_imbalances[0], gate_imbalances[1]);
    let limit = 1.5;
    assert!(
        uniform > 0.0 && skewed > 0.0,
        "balance gate points missing from the sweep"
    );
    assert!(
        skewed <= limit * uniform,
        "balance gate FAILED: θ=1 per-node imbalance {skewed:.3}x exceeds {limit}× the \
         uniform workload's {uniform:.3}x"
    );
    println!(
        "gate: θ=1 per-node imbalance {skewed:.2}x ≤ {limit}× uniform {uniform:.2}x \
         (ratio {:.2}) ✓",
        skewed / uniform
    );

    let gate = Record::new()
        .set("qps_1node", qps_1node)
        .set("qps_8nodes", qps_8nodes)
        .set("scaling", qps_8nodes / qps_1node)
        .set("uniform_node_imbalance", uniform)
        .set("zipf1_node_imbalance", skewed)
        .set("balance_ratio", skewed / uniform);
    bench_support::write_report(
        "scaleout",
        quick,
        Record::new()
            .list("points", &points)
            .list("node_shares", &node_shares)
            .nested("gate", &gate),
    );
}
