//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary in `src/bin/` prints the same rows/series the paper reports,
//! using these helpers to build the APB-1 schema, the fragmentations under
//! test and the simulator setups.
//!
//! # Quick start
//!
//! ```
//! // The schema and fragmentation every figure binary starts from.
//! let schema = bench_support::paper_schema();
//! let fragmentation = bench_support::f_month_group(&schema);
//! assert_eq!(fragmentation.fragment_count(), 11_520);
//! ```

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::time::Instant;

use warehouse::prelude::*;
use warehouse::simpad;

pub mod report;
pub use report::{write_report, Record};

/// The three fragmentations compared in §6.3 / Table 6 / Figure 6.
pub const EXPERIMENT3_FRAGMENTATIONS: [(&str, &str); 3] = [
    ("F_MonthGroup", "product::group"),
    ("F_MonthClass", "product::class"),
    ("F_MonthCode", "product::code"),
];

/// Builds the full-size APB-1 schema used by all experiments.
#[must_use]
pub fn paper_schema() -> StarSchema {
    schema::apb1::apb1_schema()
}

/// Builds a two-dimensional fragmentation on `time::month` and the given
/// product hierarchy level (`"product::group"` etc.).
#[must_use]
pub fn month_product_fragmentation(schema: &StarSchema, product_level: &str) -> Fragmentation {
    fragmentation(schema, &["time::month", product_level])
}

/// Parses a fragmentation the binaries spell out themselves.
fn fragmentation(schema: &StarSchema, attrs: &[&str]) -> Fragmentation {
    Fragmentation::parse(schema, attrs).expect("valid fragmentation attributes")
}

/// The paper's standard fragmentation `F_MonthGroup`.
#[must_use]
pub fn f_month_group(schema: &StarSchema) -> Fragmentation {
    month_product_fragmentation(schema, "product::group")
}

/// Runs one simulator point and returns its summary.
#[must_use]
pub fn run_point(
    schema: &StarSchema,
    fragmentation: &Fragmentation,
    config: SimConfig,
    query_type: QueryType,
    queries: usize,
) -> simpad::RunSummary {
    let setup = ExperimentSetup::new(
        schema.clone(),
        fragmentation.clone(),
        config,
        query_type,
        queries,
    );
    run_experiment(&setup)
}

/// Builds a materialised [`FragmentStore`] for measured (wall-clock)
/// experiments: an APB-1-shaped warehouse under a `F_MonthGroup`-style
/// fragmentation, sized so that parallel execution pays off.  `quick`
/// shrinks the fact volume to roughly a quarter for CI smoke runs.
#[must_use]
pub fn measured_store(quick: bool) -> FragmentStore {
    measured_store_fragmented(quick, &["time::month", "product::group"])
}

/// The measured-experiment APB-1 configuration behind [`measured_store`],
/// exposed so multi-user experiments can refragment the same warehouse.
#[must_use]
pub fn measured_config(quick: bool) -> schema::apb1::Apb1Config {
    if quick {
        schema::apb1::Apb1Config {
            channels: 3,
            months: 24,
            stores: 120,
            product_codes: 240,
            density: 0.55,
            fact_tuple_bytes: 20,
        }
    } else {
        schema::apb1::Apb1Config {
            channels: 3,
            months: 24,
            stores: 240,
            product_codes: 480,
            density: 0.5,
            fact_tuple_bytes: 20,
        }
    }
}

/// Builds the measured warehouse under an arbitrary fragmentation — the
/// fragmentation axis of the multi-user throughput sweep.
#[must_use]
pub fn measured_store_fragmented(quick: bool, attrs: &[&str]) -> FragmentStore {
    let schema = measured_config(quick).build();
    FragmentStore::build(&schema, &fragmentation(&schema, attrs), 7)
}

/// The scaled-down warehouse of the skew, scale-out and trace studies.
#[must_use]
pub fn study_schema() -> StarSchema {
    schema::apb1::Apb1Config {
        channels: 3,
        months: 12,
        stores: 60,
        product_codes: 120,
        density: 0.3,
        fact_tuple_bytes: 20,
    }
    .build()
}

/// Builds the θ-skewed `F_MonthCode` engine over [`study_schema`]-shaped
/// data and its matching θ-skewed stream of `stream_len` queries
/// interleaving `query_types`.
#[must_use]
pub fn skewed_engine_and_stream(
    schema: &StarSchema,
    theta: f64,
    rows: usize,
    stream_len: usize,
    query_types: &[QueryType],
) -> (StarJoinEngine, Vec<BoundQuery>) {
    let fragmentation = fragmentation(schema, &["time::month", "product::code"]);
    let store = FragmentStore::build_skewed(schema, &fragmentation, 2026, theta, rows);
    let mut stream = InterleavedStream::new(schema, query_types, 99).with_value_skew(theta);
    let queries = stream.take_queries(stream_len);
    (StarJoinEngine::new(store), queries)
}

/// Analytic service time of one uncached read of a stored `rows`-row fact
/// fragment, in ms: one average seek, then settle + transfer per prefetch
/// granule — the footprint, disk parameters and granule size the
/// simulated subsystem charges, read straight from its configuration so
/// they cannot drift apart.  An empty fragment is never scanned and costs
/// nothing.
#[must_use]
pub fn scan_service_ms(io: &IoConfig, sizing: &schema::PageSizing, rows: u64) -> f64 {
    let fact = SubqueryFootprint::stored(sizing, rows, 0, io.fact_prefetch_pages);
    if fact.fact_pages == 0 {
        return 0.0;
    }
    io.disk.avg_seek_ms
        + fact.fact_granules as f64 * io.disk.settle_controller_ms
        + fact.fact_pages as f64 * io.disk.per_page_ms
}

/// The number of cores this process may run on.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Best-of-`repeats` wall time of `f`, in microseconds.
pub fn time_us<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// True when the binary was invoked with `--quick` (reduced parameter
/// sweeps for smoke-testing) — the full sweeps are the default.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value following `flag` on the command line, if any.
#[must_use]
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next();
        }
    }
    None
}

/// Splitmix64-style mixing, for deterministic pseudo-random bit positions
/// in the representation-study workloads.
#[must_use]
pub fn splitmix(seed: u64, value: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(value)
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An `n`-bit bitmap of ~1 % density in 512-bit runs — the clustered shape
/// of selections on range-contiguous hierarchy values.  Shared by the
/// `fig_bitmap_compression` and `fig_bitmap_kernels` binaries.
#[must_use]
pub fn sparse_clustered_bitmap(n: usize, seed: u64) -> Bitmap {
    let run = 512usize;
    let stride = run * 100;
    let mut bitmap = Bitmap::new(n);
    let mut start = (splitmix(seed, 0) as usize) % stride;
    while start < n {
        for p in start..(start + run).min(n) {
            bitmap.set(p, true);
        }
        start += stride;
    }
    bitmap
}

/// An `n`-bit bitmap whose bits are set uniformly at random with
/// probability `1 / one_in` — incompressible for WAH beyond ~1.5 %.
#[must_use]
pub fn random_bitmap(n: usize, seed: u64, one_in: u64) -> Bitmap {
    Bitmap::from_positions(
        n,
        (0..n).filter(|&i| splitmix(seed, i as u64).is_multiple_of(one_in)),
    )
}

/// The multi-way AND a fragment task runs: every operand, whatever its
/// representation, ANDed in place into one all-one plain bitmap of `n`
/// bits with [`BitmapRepr::and_into`].
#[must_use]
pub fn and_into_fold(n: usize, operands: &[BitmapRepr]) -> Bitmap {
    let mut acc = Bitmap::ones(n);
    for repr in operands {
        repr.and_into(&mut acc, false);
    }
    acc
}

/// Prints a Markdown-ish table row with fixed column widths.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let rendered: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("| {} |", rendered.join(" | "));
}

/// Prints a table header followed by a separator line.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|c| (*c).to_string()).collect::<Vec<_>>(),
        widths,
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_the_expected_objects() {
        let s = paper_schema();
        assert_eq!(f_month_group(&s).fragment_count(), 11_520);
        assert_eq!(
            month_product_fragmentation(&s, "product::code").fragment_count(),
            345_600
        );
        assert_eq!(EXPERIMENT3_FRAGMENTATIONS.len(), 3);
    }

    #[test]
    fn run_point_produces_a_summary() {
        let s = paper_schema();
        let f = f_month_group(&s);
        let config = SimConfig {
            disks: 10,
            nodes: 2,
            subqueries_per_node: 2,
            ..SimConfig::default()
        };
        let summary = run_point(&s, &f, config, QueryType::OneMonthOneGroup, 1);
        assert_eq!(summary.queries.len(), 1);
        assert!(summary.mean_response_ms > 0.0);
    }
}
