//! Smoke test for the workspace surface: every crate re-exported by the
//! `warehouse` facade is touched through its prelude/re-export path, and the
//! flagship example runs end to end under `cargo run --example`.
//!
//! This is deliberately shallow — it pins the *dependency architecture*
//! (crate names, re-export paths, prelude contents) that all other PRs build
//! on, so a broken manifest or renamed re-export fails here first with a
//! clear message rather than deep inside an integration suite.

use std::process::Command;

use warehouse::bitmap::{MaterialisedFactTable, WahBitmap};
use warehouse::prelude::*;
use warehouse::storage::{BufferManager, DiskModel, DiskParameters, FcfsQueue};
use warehouse::{allocation, bitmap, mdhf, schema, simpad};

#[test]
fn every_layer_is_reachable_through_the_facade() {
    // schema — APB-1 builder and sizing.
    let full = schema::apb1::apb1_schema();
    assert_eq!(full.fact_row_count(), 1_866_240_000);
    let sizing = schema::PageSizing::new(&full);
    assert_eq!(sizing.page_size_bytes(), schema::DEFAULT_PAGE_SIZE);

    // bitmap — plain bitmaps, WAH compression, the index catalog.
    let mut b = Bitmap::new(64);
    b.set(3, true);
    assert_eq!(WahBitmap::compress(&b).decompress(), b);
    let catalog = IndexCatalog::default_for(&full);
    let product = full.dimension_index("product").expect("product dimension");
    let enc: &HierarchicalEncoding = match catalog.spec(product).kind() {
        bitmap::BitmapIndexKind::Encoded(enc) => enc,
        bitmap::BitmapIndexKind::Simple => panic!("PRODUCT should be encoded"),
    };
    assert_eq!(enc.total_bits(), 15);

    // mdhf — fragmentation, classification, thresholds, cost model, advisor.
    let fragmentation =
        Fragmentation::parse(&full, &["time::month", "product::group"]).expect("F_MonthGroup");
    assert_eq!(fragmentation.fragment_count(), 11_520);
    let query = StarQuery::exact_match(&full, "1STORE", &["customer::store"]);
    let classification = classify(&full, &fragmentation, &query);
    assert!(classification.fragments_to_process >= 1);
    let report = mdhf::check_fragmentation(
        &full,
        &catalog,
        &mdhf::FragmentationConstraints::default(),
        &fragmentation,
    );
    assert!(report.is_admissible());
    let model = CostModel::new(full.clone(), catalog.clone());
    let (_, cost) = model.evaluate(&fragmentation, &query);
    assert!(cost.total_pages() > 0.0);
    assert!(!mdhf::enumerate_fragmentations(&schema::apb1::apb1_scaled_down()).is_empty());
    let advisor = Advisor::new(full.clone(), AdvisorConfig::default());
    let _ = advisor.model();

    // allocation — placement and declustering analysis.
    let alloc = PhysicalAllocation::round_robin(100);
    assert_eq!(alloc.bitmap_placement(), BitmapPlacement::Staggered);
    assert_eq!(allocation::stride_parallelism(100, 480, 480), 5);
    let usage = allocation::CapacityReport::compute(&full, &fragmentation, &alloc, 12);
    assert_eq!(usage.per_disk().len(), 100);

    // storage — disk service-time model, FIFO server and buffer manager.
    let mut disk = DiskModel::new(DiskParameters::default());
    let service = disk.service(100, 8);
    assert!(service > 0.0);
    let mut queue = FcfsQueue::default();
    assert_eq!(queue.submit(0.0, service), (0.0, service));
    let mut buffers = BufferManager::new(16, 16);
    let _ = &mut buffers;

    // workload — query types bound to concrete parameter values.
    let mut generator = QueryGenerator::new(&full, QueryType::OneMonthOneGroup, 42);
    let bound: BoundQuery = generator.next_instance();
    assert!(!bound.relevant_fragments(&full, &fragmentation).is_empty());

    // simpad — planning and a minimal end-to-end simulation run.
    let config = SimConfig {
        disks: 10,
        nodes: 2,
        subqueries_per_node: 2,
        ..SimConfig::default()
    };
    let (plan, footprint) = simpad::plan_query(&full, &catalog, &fragmentation, &config, &bound);
    assert!(plan.task_count() > 0);
    assert!(footprint.total_pages() > 0);
    let setup = ExperimentSetup::new(
        full.clone(),
        fragmentation.clone(),
        config,
        QueryType::OneMonthOneGroup,
        1,
    );
    let summary: simpad::RunSummary = run_experiment(&setup);
    assert_eq!(summary.queries.len(), 1);
    assert!(summary.mean_response_ms > 0.0);

    // bitmap builder — materialised data path used by examples.
    let small = schema::apb1::apb1_scaled_down();
    assert!(!MaterialisedFactTable::generate(&small, 7).is_empty());
}

#[test]
fn bitmap_star_join_example_runs() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(cargo)
        .args(["run", "--quiet", "--example", "bitmap_star_join"])
        .current_dir(manifest_dir)
        .output()
        .expect("failed to spawn cargo run --example bitmap_star_join");
    assert!(
        output.status.success(),
        "example failed with {}\nstdout:\n{}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("bitmap"),
        "unexpected example output:\n{stdout}"
    );
}
