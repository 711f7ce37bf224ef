//! Set-up shared by all five workloads: generate the query batch, build the
//! store, save it as an FGMT file, and drop the file (memory workloads) or
//! open it with verification on (file workloads).  The same steps run
//! everywhere so that the system's only write path is timed in every
//! workload's `setup_s`.
//!
//! Also owns the correctness gate's two references: the serial in-memory
//! result of every query of the batch (compared bit for bit with every
//! measured result) and a naive row-scan oracle that shares no pruning or
//! bitmap code with the program.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use warehouse::exec::{FileStoreOptions, FragmentStore, PAGE_SIZE};
use warehouse::mdhf::Fragmentation;
use warehouse::schema::StarSchema;
use warehouse::workload::{BoundQuery, InterleavedStream};
use warehouse::Warehouse;

use crate::span::Spans;
use crate::spec::{Backing, Scale, Workload, FRAGMENTATION, STORE_SEED};
use crate::sys::TempFile;

/// The serial in-memory result of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub hits: u64,
    /// `f64::to_bits` of every measure sum: results must match bit for bit.
    pub sum_bits: Vec<u64>,
}

impl Expected {
    pub fn of(hits: u64, measure_sums: &[f64]) -> Self {
        Expected {
            hits,
            sum_bits: measure_sums.iter().map(|s| s.to_bits()).collect(),
        }
    }

    pub fn matches(&self, hits: u64, measure_sums: &[f64]) -> bool {
        self.hits == hits
            && self
                .sum_bits
                .iter()
                .copied()
                .eq(measure_sums.iter().map(|s| s.to_bits()))
    }
}

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    pub generate: Duration,
    pub build: Duration,
    pub write: Duration,
    pub open: Duration,
}

impl SetupTimings {
    pub fn total(&self) -> Duration {
        self.generate + self.build + self.write + self.open
    }
}

/// Everything a workload runs against.
#[derive(Debug)]
pub struct Env {
    pub schema: StarSchema,
    pub queries: Vec<BoundQuery>,
    /// The in-memory warehouse: the measured one for memory workloads, the
    /// reference for all.
    pub memory: Warehouse,
    /// The file-backed warehouse of a file workload.
    pub file: Option<Warehouse>,
    /// The FGMT file; present while a file workload runs, removed on drop.
    pub store_file: TempFile,
    pub file_bytes: u64,
    pub rows: u64,
    pub timings: SetupTimings,
    /// Serial in-memory result per query of the batch; filled by
    /// [`Env::compute_reference`].
    pub expected: Vec<Expected>,
}

impl Env {
    /// The warehouse the workload measures.
    pub fn target(&self) -> &Warehouse {
        self.file.as_ref().unwrap_or(&self.memory)
    }

    /// Pages of the FGMT file.
    pub fn file_pages(&self) -> u64 {
        self.file_bytes.div_ceil(PAGE_SIZE)
    }

    /// Options the workload opens its file with.
    pub fn file_options(&self, backing: Backing, verify: bool) -> FileStoreOptions {
        let defaults = FileStoreOptions::default();
        FileStoreOptions {
            cache_pages: match backing {
                Backing::FileThrash => self.file_pages().div_ceil(8) as usize,
                Backing::Memory | Backing::FileFit => defaults.cache_pages,
            },
            verify,
        }
    }

    /// Runs every query of the batch serially on the in-memory warehouse.
    /// Not part of `setup_s`: it is the benchmark's check, not the
    /// program's set-up.
    pub fn compute_reference(&mut self) {
        let serial = self.memory.session().build();
        self.expected = self
            .queries
            .iter()
            .map(|query| {
                let result = serial.execute(query);
                Expected::of(result.hits, &result.measure_sums)
            })
            .collect();
    }
}

/// The query batch of `workload` for `seed` — the only thing `--seed`
/// influences.
pub fn generate_queries(
    schema: &StarSchema,
    workload: &Workload,
    seed: u64,
    count: usize,
) -> Vec<BoundQuery> {
    let mut stream = InterleavedStream::new(schema, workload.types, seed);
    if workload.zipf {
        stream = stream.with_value_skew(1.0);
    }
    stream.take_queries(count)
}

/// Path of a set-up's FGMT file: unique per process and set-up, so
/// concurrent runs (and parallel unit tests) never share a file.
fn store_path(out_dir: &Path, workload: &Workload) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    out_dir.join(format!(
        "store_{}_{}_{}.fgmt",
        workload.name,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One full set-up, with a span per stage.
pub fn set_up(
    workload: &Workload,
    scale: &Scale,
    seed: u64,
    out_dir: &Path,
    spans: &mut Spans,
) -> Result<Env, String> {
    let root = spans.enter("setup", None, None);
    let schema = scale.config.build();
    let fragmentation = Fragmentation::parse(&schema, &FRAGMENTATION)
        .map_err(|e| format!("fragmentation: {e:?}"))?;

    let batch = scale.batch(workload);
    let (queries, generate) = spans.time("workload.generate", Some(root), None, || {
        generate_queries(&schema, workload, seed, batch)
    });
    let (store, build) = spans.time("store.build", Some(root), None, || {
        FragmentStore::build(&schema, &fragmentation, STORE_SEED)
    });
    let rows = store.total_rows() as u64;
    let memory = Warehouse::in_memory(store);

    let store_file = TempFile::new(store_path(out_dir, workload));
    let (saved, write) = spans.time("file.write", Some(root), None, || {
        memory.save(store_file.path())
    });
    saved.map_err(|e| format!("saving {}: {e}", store_file.path().display()))?;
    let file_bytes = std::fs::metadata(store_file.path())
        .map_err(|e| format!("stat {}: {e}", store_file.path().display()))?
        .len();

    let mut env = Env {
        schema,
        queries,
        memory,
        file: None,
        store_file,
        file_bytes,
        rows,
        timings: SetupTimings::default(),
        expected: Vec::new(),
    };
    let mut open = None;
    if workload.backing == Backing::Memory {
        // The file was written only to time the write path.
        let _ = std::fs::remove_file(env.store_file.path());
    } else {
        let options = env.file_options(workload.backing, true);
        let (opened, id) = spans.time("file.open", Some(root), None, || {
            Warehouse::open_with(env.store_file.path(), options)
        });
        env.file = Some(opened.map_err(|e| format!("opening the store file: {e}"))?);
        open = Some(id);
    }
    spans.exit(root);
    let duration = |id| Duration::from_nanos(spans.get(id).duration_ns());
    env.timings = SetupTimings {
        generate: duration(generate),
        build: duration(build),
        write: duration(write),
        open: open.map_or(Duration::ZERO, duration),
    };
    Ok(env)
}

/// The naive oracle: scans every row of every fragment, testing each
/// predicate as a leaf-range check on the row's key — no pruning, no
/// bitmaps, no shared aggregation code.
pub fn oracle(env: &Env, query: &BoundQuery) -> (u64, Vec<f64>) {
    let store = env
        .memory
        .source()
        .as_memory()
        .expect("the reference warehouse is in memory");
    let ranges: Vec<(usize, std::ops::Range<u64>)> = query
        .query()
        .predicates()
        .iter()
        .zip(query.values())
        .map(|(predicate, &value)| {
            let dimension = predicate.attr.dimension;
            let hierarchy = env.schema.dimensions()[dimension].hierarchy();
            (
                dimension,
                hierarchy.leaf_range_of(predicate.attr.level, value),
            )
        })
        .collect();
    let mut hits = 0u64;
    let mut sums = vec![0.0f64; store.measure_count()];
    for fragment in store.fragments() {
        for row in 0..fragment.len() {
            if ranges
                .iter()
                .all(|(dimension, range)| range.contains(&fragment.key_column(*dimension)[row]))
            {
                hits += 1;
                for (measure, sum) in sums.iter_mut().enumerate() {
                    *sum += fragment.measure_column(measure)[row];
                }
            }
        }
    }
    (hits, sums)
}

/// True when `expected` agrees with the oracle: hits equal, every sum
/// within 1e-9 relative (the oracle adds in a different order).
pub fn agrees_with_oracle(expected: &Expected, oracle: &(u64, Vec<f64>)) -> bool {
    expected.hits == oracle.0
        && expected.sum_bits.len() == oracle.1.len()
        && expected
            .sum_bits
            .iter()
            .zip(&oracle.1)
            .all(|(&bits, &want)| {
                let got = f64::from_bits(bits);
                (got - want).abs() <= 1e-9 * want.abs().max(1.0)
            })
}

/// Indices of the seeded oracle sample: `count` distinct positions of a
/// batch of `batch` queries (all of them when the batch is smaller).
pub fn oracle_sample(seed: u64, batch: usize, count: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..batch).collect();
    let mut state = seed ^ 0x6F72_6163_6C65; // "oracle"
    let take = count.min(batch);
    for slot in 0..take {
        // SplitMix64, partial Fisher-Yates.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let pick = slot + (z % (batch - slot) as u64) as usize;
        indices.swap(slot, pick);
    }
    indices.truncate(take);
    indices
}

/// Checks the oracle sample against the reference; returns
/// `(checked, mismatches)`.
pub fn check_oracle_sample(env: &Env, seed: u64, count: usize) -> (usize, usize) {
    let sample = oracle_sample(seed, env.queries.len(), count);
    let mismatches = sample
        .iter()
        .filter(|&&i| !agrees_with_oracle(&env.expected[i], &oracle(env, &env.queries[i])))
        .count();
    (sample.len(), mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use crate::sys::test_out_dir;

    #[test]
    fn oracle_sample_is_seeded_distinct_and_in_range() {
        let a = oracle_sample(1, 500, 32);
        assert_eq!(a, oracle_sample(1, 500, 32));
        assert_ne!(a, oracle_sample(2, 500, 32));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
        assert!(a.iter().all(|&i| i < 500));
        assert_eq!(oracle_sample(1, 5, 32).len(), 5);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let schema = Scale::quick().config.build();
        for workload in &WORKLOADS {
            let a = generate_queries(&schema, workload, 11, 40);
            assert_eq!(a, generate_queries(&schema, workload, 11, 40));
            assert_ne!(
                a,
                generate_queries(&schema, workload, 12, 40),
                "{}",
                workload.name
            );
            for (i, query) in a.iter().enumerate() {
                let expected = workload.types[i % workload.types.len()].name();
                assert_eq!(query.query().name(), expected);
            }
        }
    }

    #[test]
    fn reference_agrees_with_the_oracle_and_set_up_cleans_up() {
        let out = test_out_dir();
        let mut spans = Spans::new();
        for workload in [&WORKLOADS[1], &WORKLOADS[4]] {
            let mut env = set_up(workload, &Scale::quick(), 3, &out, &mut spans).unwrap();
            env.compute_reference();
            assert_eq!(env.expected.len(), 40);
            let (checked, mismatches) = check_oracle_sample(&env, 3, 40);
            assert_eq!((checked, mismatches), (40, 0), "{}", workload.name);
            assert!(env.expected.iter().any(|e| e.hits > 0));

            // A perturbed reference no longer agrees with the oracle.
            env.expected[0].hits += 1;
            assert_eq!(check_oracle_sample(&env, 3, 40), (40, 1));

            let path = env.store_file.path().to_path_buf();
            assert_eq!(path.exists(), workload.backing != Backing::Memory);
            assert!(env.file_bytes > 0 && env.rows > 0);
            assert!(env.timings.total() > Duration::ZERO);
            drop(env);
            assert!(!path.exists(), "the FGMT file is removed on drop");
        }
        let names: Vec<&str> = spans.all().iter().map(|s| s.name).collect();
        assert!(names.contains(&"file.write") && names.contains(&"file.open"));
    }
}
