//! Exact heap-allocation counts of cold queries on a small `FGMT` file
//! store: a count that host noise cannot move, next to the wall-clock
//! benchmark.
//!
//! The binary installs its own counting global allocator.  It counts the
//! calls to `alloc`, `alloc_zeroed` and `realloc` made by the calling
//! thread only.  A serial run executes every task inline on the calling
//! thread, so the count covers the whole query: plan, fetches, selection,
//! aggregation and merge.
//!
//! Each query runs *cold*, on a freshly opened store, so every fragment
//! fetch is a miss that reads, verifies and loads its extent.  The pinned
//! counts are exact.  A change that adds or removes a heap allocation on
//! that path changes them, and then the new counts are restated here with
//! the reason.  They hold for debug and release builds alike.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use warehouse::exec::{write_store, FileStore, RunConfig, StarJoinEngine};
use warehouse::prelude::*;

/// Heap allocations of the cold 1CODE query: 12 fragment misses, each
/// loading its extent and decoding the product index on first use.
const COLD_1CODE: u64 = 361;

/// Heap allocations of the cold 1MONTH query: 24 fragment misses, none of
/// which decodes an index or a key column.
const COLD_1MONTH: u64 = 326;

/// Forwards to the system allocator and counts the calling thread's
/// allocations.
struct Counting;

thread_local! {
    /// Allocations of this thread so far.  Const-initialised and without a
    /// destructor, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the calling thread makes while running `f`.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// A uniquely named file in the system temp directory, removed on drop.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One cold serial run of the first `query_type` query of seed 7: its
/// hits, fragments fetched and allocations.
fn cold_query(
    path: &std::path::Path,
    schema: &StarSchema,
    query_type: QueryType,
) -> (u64, usize, u64) {
    let engine = StarJoinEngine::from_source(FileStore::open(path).expect("open the store"));
    let query = QueryGenerator::new(schema, query_type, 7)
        .batch(1)
        .remove(0);
    let fragments = engine.plan(&query).fragments().len();
    let config = RunConfig::serial();
    let (result, allocations) = allocations_of(|| engine.execute(&query, &config));
    (result.hits, fragments, allocations)
}

#[test]
fn cold_queries_on_a_file_store_make_exactly_the_pinned_allocations() {
    let schema = schema::apb1::apb1_scaled_down();
    let fragmentation =
        Fragmentation::parse(&schema, &["time::month", "product::group"]).expect("valid");
    let store = FragmentStore::build(&schema, &fragmentation, 2024);
    let file = TempFile(
        std::env::temp_dir().join(format!("fgmt_allocations_{}.fgmt", std::process::id())),
    );
    write_store(&store, &file.0).expect("write the store");

    // 1CODE: one product code, its group's fragments, a bitmap on product.
    let (hits, fragments, code) = cold_query(&file.0, &schema, QueryType::OneCode);
    assert!(hits > 0);
    assert_eq!(fragments, 12);
    // 1MONTH: one month's fragments aggregated whole, no bitmap at all.
    let (hits, fragments, month) = cold_query(&file.0, &schema, QueryType::OneMonth);
    assert!(hits > 0);
    assert_eq!(fragments, 24);

    assert_eq!(
        (code, month),
        (COLD_1CODE, COLD_1MONTH),
        "heap allocations of a cold 1CODE and a cold 1MONTH query"
    );
}
