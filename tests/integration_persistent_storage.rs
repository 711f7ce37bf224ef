//! Persistent-storage integration: the `FGMT` fragment file round-trips a
//! [`FragmentStore`] bit for bit under every bitmap representation policy,
//! corruption surfaces as typed [`WarehouseError`]s instead of panics, and
//! the real buffer pool warms at least as well as the simulated cache on
//! the identical workload.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use warehouse::exec::{write_store, FileStoreOptions, StarJoinEngine};
use warehouse::prelude::*;

/// A uniquely named file in the system temp directory, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        TempFile(
            std::env::temp_dir().join(format!("fgmt_it_{}_{tag}_{n}.fgmt", std::process::id())),
        )
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn build_store(attrs: &[&str], seed: u64, policy: RepresentationPolicy) -> FragmentStore {
    let schema = schema::apb1::apb1_scaled_down();
    let fragmentation = Fragmentation::parse(&schema, attrs).expect("valid fragmentation");
    FragmentStore::build_with_policy(&schema, &fragmentation, seed, policy)
}

/// The query mix every round-trip case replays on both backings.
fn workload(schema: &StarSchema, seed: u64) -> Vec<BoundQuery> {
    let mut queries = Vec::new();
    for query_type in [
        QueryType::OneMonthOneGroup,
        QueryType::OneQuarter,
        QueryType::OneStore,
    ] {
        let mut generator = QueryGenerator::new(schema, query_type, seed);
        queries.extend(generator.batch(2));
    }
    queries
}

/// Writes `store` to a fresh file and asserts the reopened warehouse is
/// bit-identical to the in-memory one: metadata, every fragment, and every
/// query result, serial and parallel.
fn assert_roundtrip(store: FragmentStore, seed: u64, tag: &str) {
    let guard = TempFile::new(tag);
    write_store(&store, &guard.0).expect("serialise the fragment store");

    let schema = store.schema().clone();
    let memory = StarJoinEngine::new(store);
    let disk = Warehouse::open(&guard.0).expect("reopen the fragment file");

    let memory_src = memory.source();
    let disk_src = disk.source();
    assert_eq!(memory_src.schema(), disk_src.schema());
    assert_eq!(memory_src.fragmentation(), disk_src.fragmentation());
    assert_eq!(memory_src.catalog(), disk_src.catalog());
    assert_eq!(memory_src.policy(), disk_src.policy());
    assert_eq!(memory_src.fragment_count(), disk_src.fragment_count());
    assert_eq!(memory_src.total_rows(), disk_src.total_rows());
    for fragment in 0..memory_src.fragment_count() {
        assert_eq!(
            *memory_src.try_fetch(fragment).unwrap(),
            *disk_src.try_fetch(fragment).unwrap(),
            "fragment {fragment} did not round-trip bit-identically"
        );
    }

    let serial_session = disk.session().build();
    let parallel_session = disk.session().workers(3).build();
    for (i, query) in workload(&schema, seed).iter().enumerate() {
        let expected = memory.execute(query, &RunConfig::serial());
        let serial = serial_session.execute(query);
        let parallel = parallel_session.execute(query);
        for (label, result) in [("serial", &serial), ("parallel", &parallel)] {
            assert_eq!(
                (result.hits, &result.measure_sums),
                (expected.hits, &expected.measure_sums),
                "file-backed {label} result diverged on query {i}"
            );
        }
        assert!(serial.metrics.file.is_some(), "file metrics missing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Store → file → store round-trips bit-identically for every policy,
    /// fragmentation shape and build seed.
    #[test]
    fn fgmt_file_roundtrips_bit_identically(
        seed in 0u64..1024,
        policy_index in 0usize..4,
        attrs_index in 0usize..2,
    ) {
        let policy = [
            RepresentationPolicy::Plain,
            RepresentationPolicy::Wah,
            RepresentationPolicy::Roaring,
            RepresentationPolicy::default(),
        ][policy_index];
        let attrs: &[&str] = [
            &["time::month"][..],
            &["time::month", "product::group"][..],
        ][attrs_index];
        assert_roundtrip(build_store(attrs, seed, policy), seed, "prop");
    }
}

/// Builds, writes and returns a guard over a small valid fragment file.
fn written_file(tag: &str) -> TempFile {
    let store = build_store(
        &["time::month", "product::group"],
        2024,
        RepresentationPolicy::Wah,
    );
    let guard = TempFile::new(tag);
    write_store(&store, &guard.0).expect("serialise the fragment store");
    guard
}

#[test]
fn truncated_file_is_a_typed_error_not_a_panic() {
    let guard = written_file("trunc");
    let len = std::fs::metadata(&guard.0).expect("stat").len();
    for keep in [0, 7, len / 2, len - 1] {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&guard.0)
            .expect("open for truncation");
        file.set_len(keep).expect("truncate");
        drop(file);
        let error = Warehouse::open(&guard.0).expect_err("truncated file must not open");
        assert!(
            matches!(error, WarehouseError::Corrupt(_) | WarehouseError::Io(_)),
            "truncation to {keep} bytes surfaced as {error}"
        );
    }
}

#[test]
fn bit_flip_in_the_metadata_blob_fails_its_checksum_at_open() {
    let guard = written_file("flip");
    let mut bytes = std::fs::read(&guard.0).expect("read file");
    // The metadata blob starts on the page after the header and is far
    // longer than 64 bytes (it serialises the schema by name).
    let victim = warehouse::exec::PAGE_SIZE as usize + 64;
    bytes[victim] ^= 0x40;
    std::fs::write(&guard.0, &bytes).expect("write corrupted file");
    let error = Warehouse::open(&guard.0).expect_err("bit flip must not open");
    assert!(
        matches!(&error, WarehouseError::Corrupt(msg) if msg.contains("checksum")),
        "bit flip surfaced as {error}"
    );
}

#[test]
fn bit_flip_in_a_column_segment_fails_its_checksum_at_open() {
    let guard = written_file("flipseg");
    let mut bytes = std::fs::read(&guard.0).expect("read file");
    // Flip the first byte of the middle page, which lies in the fragment
    // data area.  Every fragment extent starts on a page boundary, holds its
    // segments back to back and is padded only at its end, by less than a
    // page, so the first byte of every data page belongs to a checksummed
    // column or bitmap segment.
    let page = warehouse::exec::PAGE_SIZE as usize;
    let victim = (bytes.len() / 2 / page) * page;
    bytes[victim] ^= 0x40;
    std::fs::write(&guard.0, &bytes).expect("write corrupted file");
    let error = Warehouse::open(&guard.0).expect_err("corrupt segment must not open");
    assert!(
        matches!(&error, WarehouseError::Corrupt(msg) if msg.contains("checksum")),
        "corrupt segment surfaced as {error}"
    );
}

#[test]
fn wrong_format_version_is_rejected() {
    let guard = written_file("version");
    let mut bytes = std::fs::read(&guard.0).expect("read file");
    // The u32 version field sits right after the 4-byte header magic.
    bytes[4] = 0xFF;
    std::fs::write(&guard.0, &bytes).expect("write corrupted file");
    let error = Warehouse::open(&guard.0).expect_err("future version must not open");
    assert!(
        matches!(&error, WarehouseError::Corrupt(msg) if msg.contains("version")),
        "wrong version surfaced as {error}"
    );
}

#[test]
fn foreign_file_is_rejected_by_magic() {
    let guard = TempFile::new("magic");
    let junk = vec![0x58u8; (warehouse::exec::PAGE_SIZE * 4) as usize];
    std::fs::write(&guard.0, junk).expect("write junk file");
    let error = Warehouse::open(&guard.0).expect_err("junk file must not open");
    assert!(
        matches!(error, WarehouseError::Corrupt(_)),
        "junk file surfaced as {error}"
    );
}

#[test]
fn missing_file_and_bad_options_are_typed_errors() {
    let missing = TempFile::new("missing");
    let error = Warehouse::open(&missing.0).expect_err("missing file must not open");
    assert!(
        matches!(error, WarehouseError::Io(_)),
        "missing file surfaced as {error}"
    );

    let guard = written_file("options");
    let options = FileStoreOptions {
        cache_pages: 0,
        ..FileStoreOptions::default()
    };
    let error = Warehouse::open_with(&guard.0, options).expect_err("zero cache must not open");
    assert!(
        matches!(error, WarehouseError::Config(_)),
        "zero cache surfaced as {error}"
    );
}

/// The acceptance criterion: after a cold pass, the file store's page pool
/// is at least as warm as the simulated LRU cache on the same workload.
#[test]
fn warm_file_cache_matches_or_beats_the_simulated_cache() {
    let store = build_store(
        &["time::month", "product::group"],
        7,
        RepresentationPolicy::default(),
    );
    let schema = store.schema().clone();
    let mut generator = QueryGenerator::new(&schema, QueryType::OneMonthOneGroup, 42);
    let queries = generator.batch(16);

    // Simulated pillar: two passes over one shared subsystem, cache sized
    // like the file store's pool.
    let engine = StarJoinEngine::new(store);
    let io = SimulatedIo::new(
        IoConfig::with_disks(4).cache(FileStoreOptions::default().cache_pages),
        &schema,
    );
    let config = RunConfig::serial();
    let plans: Vec<QueryPlan> = queries.iter().map(|q| engine.plan(q)).collect();
    let pass = |io: &SimulatedIo| {
        for plan in &plans {
            let _ = engine.run(std::slice::from_ref(plan), &config, Some(io));
        }
    };
    pass(&io);
    pass(&io);
    let cold = {
        // Re-run the cold pass on a fresh subsystem to isolate its counters.
        let fresh = SimulatedIo::new(
            IoConfig::with_disks(4).cache(FileStoreOptions::default().cache_pages),
            &schema,
        );
        pass(&fresh);
        fresh.metrics()
    };
    let total = io.metrics();
    let warm_hits = total.cache.hits - cold.cache.hits;
    let warm_misses = total.cache.misses - cold.cache.misses;
    let sim_warm_hit_rate = if warm_hits + warm_misses == 0 {
        1.0
    } else {
        warm_hits as f64 / (warm_hits + warm_misses) as f64
    };

    // Measured pillar: the same two passes on the real file.
    let guard = TempFile::new("warm");
    write_store(engine.store(), &guard.0).expect("serialise the fragment store");
    let warehouse = Warehouse::open(&guard.0).expect("reopen the fragment file");
    let session = warehouse.session().build();
    for query in &queries {
        let _ = session.execute(query);
    }
    let after_cold = warehouse.source().file_metrics().expect("file metrics");
    for query in &queries {
        let _ = session.execute(query);
    }
    let after_warm = warehouse.source().file_metrics().expect("file metrics");

    let hits = after_warm.pool.hits - after_cold.pool.hits;
    let misses = after_warm.pool.misses - after_cold.pool.misses;
    let decoded = after_warm.decoded_cache_hits - after_cold.decoded_cache_hits;
    let file_warm_hit_rate = if hits + misses == 0 {
        assert!(decoded > 0, "warm pass served no fetches at all");
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    assert!(
        file_warm_hit_rate >= sim_warm_hit_rate,
        "warm page-pool hit rate {file_warm_hit_rate:.3} fell below the simulated \
         cache's warm hit rate {sim_warm_hit_rate:.3}"
    );
    assert_eq!(
        after_warm.segment_reads, after_cold.segment_reads,
        "warm pass re-read segments from the file"
    );
}
