//! The benchmark's normative tables: workloads, metric names, units and
//! bounds.  `BENCHMARK.json` at the repository root is generated from them
//! (`benchmark spec`); a unit test keeps the two in step.

use warehouse::schema::apb1::Apb1Config;
use warehouse::workload::QueryType;

use crate::json::Json;

/// Worker threads of every measured session: the sandbox has 2 cores and
/// the calling thread blocks while workers run, so there are never more
/// runnable threads than cores.
pub const WORKERS: usize = 2;

/// Seed of the fact-table generator — fixed, so `--seed` drives only the
/// query stream and the store-dependent counters repeat across seeds.
pub const STORE_SEED: u64 = 7;

/// The fragmentation every workload runs under (the paper's F_MonthGroup).
pub const FRAGMENTATION: [&str; 2] = ["time::month", "product::group"];

/// Simulated topology of `simio_stream` and of the exact `exec.io.*`
/// counters: 4 shared-nothing nodes with 4 disks each.
pub const SIM_NODES: u64 = 4;
pub const SIM_DISKS_PER_NODE: u64 = 4;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Queries checked against the naive row-scan oracle per run.
pub const ORACLE_SAMPLE: usize = 32;

/// Which call runs the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// One client calling `Session::execute` back to back.
    Single,
    /// `Session::stream` over the whole batch: `mpl` closed-loop clients
    /// with zero think time.
    Stream { mpl: usize },
}

impl Api {
    /// Queries in flight at once.
    pub fn mpl(self) -> usize {
        match self {
            Api::Single => 1,
            Api::Stream { mpl } => mpl,
        }
    }
}

/// Where the measured warehouse keeps its fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    Memory,
    /// FGMT file under default `FileStoreOptions`: the pool holds the file.
    FileFit,
    /// FGMT file with a pool of an eighth of the file's pages.
    FileThrash,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub types: &'static [QueryType],
    /// Zipf(θ = 1) attribute values instead of uniform ones.
    pub zipf: bool,
    pub api: Api,
    pub backing: Backing,
    /// Charge scans against the simulated node/disk subsystem.
    pub simio: bool,
    /// Queries per round at full scale, calibrated so a round lasts about
    /// 1–2 s on 2 cores and holds ≥ 500 latency samples.
    pub batch: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scan_single",
        why: "IOC1 queries in memory via execute: column aggregation, merge and pool spawn only; \
              bypasses bitmaps, files and the scheduler",
        types: &[
            QueryType::OneMonthOneGroup,
            QueryType::OneMonth,
            QueryType::OneQuarter,
            QueryType::OneGroup,
        ],
        zipf: false,
        api: Api::Single,
        backing: Backing::Memory,
        simio: false,
        batch: 4000,
    },
    Workload {
        name: "bitmap_stream",
        why: "IOC2 queries in memory via stream at MPL 4: bitmap selection dominates and runs on \
              the scheduler pool",
        types: &[
            QueryType::OneStore,
            QueryType::OneCode,
            QueryType::OneCodeOneQuarter,
            QueryType::OneGroupOneStore,
        ],
        zipf: false,
        api: Api::Stream { mpl: 4 },
        backing: Backing::Memory,
        simio: false,
        batch: 4000,
    },
    Workload {
        name: "simio_stream",
        why:
            "standard mix, Zipf values, MPL 4 with the simulated 4x4 shared-nothing disk subsystem \
              on: charge_plan under the scheduler lock",
        types: STANDARD_MIX,
        zipf: true,
        api: Api::Stream { mpl: 4 },
        backing: Backing::Memory,
        simio: true,
        batch: 1000,
    },
    Workload {
        name: "file_fit_stream",
        why: "standard mix on the FGMT file with a pool larger than the file, MPL 2: every fetch \
              is a decoded-cache hit under the FileBacking mutex",
        types: STANDARD_MIX,
        zipf: true,
        api: Api::Stream { mpl: 2 },
        backing: Backing::FileFit,
        simio: false,
        batch: 500,
    },
    Workload {
        name: "file_thrash_single",
        why: "pruned queries on the FGMT file with a pool of 1/8 of it via execute: segment read, \
              checksum, decode and eviction",
        types: &[
            QueryType::OneMonthOneGroup,
            QueryType::OneMonth,
            QueryType::OneCode,
            QueryType::OneCodeOneQuarter,
            QueryType::OneGroupOneStore,
        ],
        zipf: false,
        api: Api::Single,
        backing: Backing::FileThrash,
        simio: false,
        batch: 500,
    },
];

/// `QueryType::standard_mix()` as a constant.
const STANDARD_MIX: &[QueryType] = &[
    QueryType::OneStore,
    QueryType::OneMonth,
    QueryType::OneCode,
    QueryType::OneMonthOneGroup,
    QueryType::OneCodeOneQuarter,
];

/// Every named query type, in the order of the
/// `warehouse.session.p50_ms.<TYPE>` metrics.
pub const QUERY_TYPE_NAMES: [&str; 8] = [
    "1STORE",
    "1MONTH",
    "1CODE",
    "1MONTH1GROUP",
    "1CODE1QUARTER",
    "1GROUP",
    "1QUARTER",
    "1GROUP1STORE",
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Store size and batch sizes of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub quick: bool,
    pub config: Apb1Config,
    /// Queries of the batch the serial probe and the pool comparisons of a
    /// traced run cover.
    pub probe_queries: usize,
}

impl Scale {
    /// The measured store: 24 months x 24 product groups = 576 fragments.
    pub fn full() -> Self {
        Scale {
            quick: false,
            config: Apb1Config {
                channels: 3,
                months: 24,
                stores: 60,
                product_codes: 480,
                density: 0.5,
                ..Apb1Config::default()
            },
            probe_queries: 200,
        }
    }

    /// The `--quick` smoke store: same shape, a sliver of the rows, so all
    /// five workloads run in seconds (also in debug builds).  Its numbers
    /// are never comparable with full runs.
    pub fn quick() -> Self {
        Scale {
            quick: true,
            config: Apb1Config {
                channels: 2,
                months: 24,
                stores: 10,
                product_codes: 240,
                density: 0.25,
                ..Apb1Config::default()
            },
            probe_queries: 40,
        }
    }

    pub fn batch(&self, workload: &Workload) -> usize {
        if self.quick {
            40
        } else {
            workload.batch
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the warehouse sees.
///
/// Bounds are at least three times the widest inter-quartile spread seen
/// over ten runs with distinct seeds on any workload of a calm machine, and
/// twice the widest seen with whole runs disturbed (`file_fit_stream`
/// sets it for the four timings: its runs differ by about 4–6 % whatever
/// the estimator, the other workloads by 1–2 %).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "queries/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_ms_per_query",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "store_bytes_per_row",
        unit: "B/row",
        better: Better::Lower,
        bound: 0.001,
    },
];

/// A per-layer metric.  `exact` marks a count made by the program that
/// repeats exactly for a given seed; `compare` checks those by equality.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 64] = [
    layer("workload.gen_ms", "ms", Lower),
    exact("workload.tasks_per_query", "count", Lower),
    layer("exec.plan.us_per_query", "us", Lower),
    exact("exec.plan.fragments_kept_share", "ratio", Lower),
    layer("bitmap.index.select_us_per_fragment", "us", Lower),
    layer("bitmap.repr.and_us_per_fragment", "us", Lower),
    layer("bitmap.repr.iter_ns_per_hit", "ns", Lower),
    exact("bitmap.repr.plain_share", "ratio", Higher),
    exact("bitmap.repr.wah_share", "ratio", Lower),
    exact("bitmap.repr.roaring_share", "ratio", Higher),
    exact("bitmap.repr.compression_ratio", "x", Higher),
    exact("bitmap.repr.compressed_domain_share", "ratio", Higher),
    exact("bitmap.index.bytes_per_row", "B/row", Lower),
    exact("exec.file.bytes_per_row", "B/row", Lower),
    layer("exec.source.fetch_us_per_fragment", "us", Lower),
    layer("exec.file.write_s", "s", Lower),
    layer("exec.file.open_s", "s", Lower),
    layer("exec.file.fetch_hit_us", "us", Lower),
    layer("exec.file.fetch_2t_slowdown", "x", Lower),
    layer("exec.file.fetch_miss_us", "us", Lower),
    layer("exec.file.read_mb_per_s", "MB/s", Higher),
    layer("exec.file.segment_reads_per_query", "count", Lower),
    layer("exec.file.bytes_read_per_query", "B", Lower),
    layer("exec.file.decoded_hit_share", "ratio", Higher),
    layer("storage.buffer.page_hit_rate", "ratio", Higher),
    layer("storage.buffer.evictions_per_query", "count", Lower),
    layer("exec.engine.execute_plan_us_per_query", "us", Lower),
    layer("exec.engine.residual_share", "ratio", Lower),
    layer("exec.engine.agg_ns_per_row", "ns", Lower),
    layer("exec.engine.speedup_2w", "x", Higher),
    layer("exec.engine.worker_busy_share", "ratio", Higher),
    layer("exec.engine.steal_share", "ratio", Lower),
    exact("exec.engine.rows_scanned_per_query", "count", Lower),
    exact("exec.engine.rows_matched_per_query", "count", Lower),
    layer("exec.scheduler.utilisation", "ratio", Higher),
    layer("exec.scheduler.steal_rate", "ratio", Lower),
    layer("exec.scheduler.affinity_hit_rate", "ratio", Higher),
    layer("exec.scheduler.migration_rate", "ratio", Lower),
    layer("exec.scheduler.tasks_per_s", "1/s", Higher),
    layer("exec.scheduler.mpl1_vs_execute_ratio", "x", Higher),
    layer("exec.io.charge_us_per_task", "us", Lower),
    exact("exec.io.sim_qps", "queries/s", Higher),
    exact("exec.io.sim_elapsed_ms", "ms", Lower),
    exact("exec.io.pages_read", "count", Lower),
    exact("exec.io.cache_hit_rate", "ratio", Higher),
    exact("exec.io.disk_imbalance", "x", Lower),
    exact("exec.io.node_imbalance", "x", Lower),
    exact("exec.io.net_pages", "count", Lower),
    exact("allocation.node_share_residual", "ratio", Lower),
    layer("warehouse.session.latency_p99_ms", "ms", Lower),
    layer("warehouse.session.latency_max_ms", "ms", Lower),
    layer("warehouse.session.p50_ms.1STORE", "ms", Lower),
    layer("warehouse.session.p50_ms.1MONTH", "ms", Lower),
    layer("warehouse.session.p50_ms.1CODE", "ms", Lower),
    layer("warehouse.session.p50_ms.1MONTH1GROUP", "ms", Lower),
    layer("warehouse.session.p50_ms.1CODE1QUARTER", "ms", Lower),
    layer("warehouse.session.p50_ms.1GROUP", "ms", Lower),
    layer("warehouse.session.p50_ms.1QUARTER", "ms", Lower),
    layer("warehouse.session.p50_ms.1GROUP1STORE", "ms", Lower),
    layer("obs.trace_overhead_share", "ratio", Lower),
    layer("obs.events_recorded", "count", Lower),
    layer("obs.events_dropped", "count", Lower),
    layer("process.cpu_user_s", "s", Lower),
    layer("process.cpu_sys_s", "s", Lower),
];

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 15;

/// The `BENCHMARK.json` document these tables define; `benchmark spec`
/// prints it.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Unit of the metric called `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| (w.name, "count"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.batch >= 500, "{}: >= 25 samples beyond p95", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn standard_mix_constant_matches_the_program() {
        assert_eq!(STANDARD_MIX, QueryType::standard_mix().as_slice());
        let in_mixes: BTreeSet<String> = WORKLOADS
            .iter()
            .flat_map(|w| w.types.iter().map(QueryType::name))
            .collect();
        let named: BTreeSet<String> = QUERY_TYPE_NAMES.iter().map(|n| (*n).to_string()).collect();
        assert_eq!(in_mixes, named, "one p50 metric per query type in a mix");
        for name in QUERY_TYPE_NAMES {
            assert!(unit_of(&format!("warehouse.session.p50_ms.{name}")).is_some());
        }
    }

    /// `BENCHMARK.json` is `benchmark spec`'s output, nothing more or less.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
        assert!(text.len() <= 64 * 1024);
    }
}
