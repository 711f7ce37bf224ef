//! Persistent warehouse: serialise a fragment store to an `FGMT` file and
//! query it back through the [`Warehouse`] session API.
//!
//! The other examples hold the materialised warehouse in memory.  This one
//! walks the persistent path end to end:
//!
//! 1. build a scaled-down APB-1 warehouse and save it with
//!    [`Warehouse::save`] — a columnar file with one page-aligned extent
//!    per fragment: measure columns, BMRP-encoded bitmap indices and
//!    bit-packed key columns back to back, every segment checksummed,
//! 2. reopen it with [`Warehouse::open`] (corruption and I/O failures
//!    surface as typed [`WarehouseError`]s, never panics),
//! 3. run the same queries over both backings and check the results are
//!    bit-identical,
//! 4. show the file-backed buffer pool warming up: the second pass is
//!    served from cache without touching the file,
//! 5. stream a small multi-query batch under an admission policy.
//!
//! Run with `cargo run --release --example persistent_warehouse`.

use warehouse::prelude::*;

fn main() -> Result<(), WarehouseError> {
    // 1. Build and save.  The scaled-down schema keeps the file small.
    let schema = schema::apb1::apb1_scaled_down();
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid attrs");
    let store = FragmentStore::build(&schema, &fragmentation, 2024);
    let in_memory = Warehouse::in_memory(store);

    let path = std::env::temp_dir().join(format!("warehouse_example_{}.fgmt", std::process::id()));
    in_memory.save(&path)?;
    let file_bytes = std::fs::metadata(&path)?.len();
    println!(
        "saved {} rows in {} fragments to {} ({:.1} MiB)",
        in_memory.source().total_rows(),
        in_memory.source().fragment_count(),
        path.display(),
        file_bytes as f64 / (1024.0 * 1024.0),
    );

    // 2. Reopen.  `open` eagerly verifies the header, the page directory
    //    and every segment checksum before returning.
    let persistent = Warehouse::open(&path)?;

    // 3. Same queries, both backings, bit-identical results.
    let memory_session = in_memory.session().build();
    let file_session = persistent.session().workers(2).build();
    let query = BoundQuery::new(
        &schema,
        QueryType::OneMonthOneGroup.to_star_query(&schema),
        vec![3, 1],
    );
    let expected = memory_session.execute(&query);
    let result = file_session.execute(&query);
    assert_eq!(expected.hits, result.hits);
    assert_eq!(expected.measure_sums, result.measure_sums);
    println!(
        "1MONTH1GROUP: {} hit rows, SUM(UnitsSold) = {} — identical on both backings",
        result.hits, result.measure_sums[0]
    );

    // 4. The buffer pool warms up: re-running the query touches no pages.
    let cold = result.metrics.file.expect("file-backed metrics");
    let rerun = file_session.execute(&query);
    let warm = rerun.metrics.file.expect("file-backed metrics");
    println!(
        "cold pass: {} pages missed, {} bytes read; warm pass: {} further reads, \
         {} fetches straight from the decoded cache",
        cold.pool.misses,
        cold.bytes_read,
        warm.bytes_read - cold.bytes_read,
        warm.decoded_cache_hits - cold.decoded_cache_hits,
    );

    // 5. A concurrent stream over the file-backed warehouse.
    let mut generator = QueryGenerator::new(&schema, QueryType::OneMonthOneGroup, 7);
    let batch = generator.batch(8);
    let outcome = persistent
        .session()
        .workers(2)
        .policy(AdmissionPolicy::Concurrent { max_in_flight: 2 })
        .build()
        .stream(&batch);
    println!(
        "streamed {} queries at MPL 2: {:.0} queries/sec",
        batch.len(),
        outcome.metrics.queries_per_sec()
    );

    std::fs::remove_file(&path)?;
    Ok(())
}
