//! Bitmap representation study: plain vs. WAH vs. roaring vs. adaptive,
//! across predicate densities.
//!
//! The paper stores every bitmap verbatim and only notes that the overhead
//! "may be reduced by compressing the bitmaps"; the representation layer
//! makes that concrete.  This binary measures, for predicate-bitmap mixes
//! of different shapes (sparse clustered, sparse random, mid-density
//! random, near-full):
//!
//! * **storage** — total `size_bytes()` of the k predicate bitmaps under
//!   each representation policy, and the adaptive compression ratio,
//! * **intersection throughput** — wall time of the k-way AND under each
//!   policy: plain `Bitmap::and_many`, and for the WAH, roaring and
//!   policy-chosen forms the fold a fragment task runs, each operand
//!   ANDed into an all-one plain bitmap in place (`BitmapRepr::and_into`).
//!
//! A second section measures a real [`FragmentStore`] build and shows the
//! measured ratio flowing into the compressed bitmap-fragment page sizing
//! and the analytic cost model.
//!
//! `--quick` shrinks the bitmap length and repeat count for CI smoke runs.

use bench_support::{
    and_into_fold, measured_store, paper_schema, print_header, print_row, quick_mode,
    random_bitmap, sparse_clustered_bitmap, splitmix, time_us,
};
use warehouse::mdhf::StarQuery;
use warehouse::prelude::*;

/// One predicate-mix workload: `k` bitmaps of length `n` with a given shape.
struct Workload {
    name: &'static str,
    bitmaps: Vec<Bitmap>,
}

fn workloads(n: usize, k: usize) -> Vec<Workload> {
    let near_full = |seed: u64| {
        // ~99 % density: long one runs with scattered holes.
        let mut b = Bitmap::ones(n);
        for i in 0..n {
            if splitmix(seed, i as u64).is_multiple_of(100) {
                b.set(i, false);
            }
        }
        b
    };
    vec![
        Workload {
            name: "sparse clustered (~1%)",
            bitmaps: (0..k as u64)
                .map(|s| sparse_clustered_bitmap(n, s))
                .collect(),
        },
        Workload {
            name: "sparse random (~1%)",
            bitmaps: (0..k as u64)
                .map(|s| random_bitmap(n, s + 100, 100))
                .collect(),
        },
        Workload {
            name: "mid random (~50%)",
            bitmaps: (0..k as u64)
                .map(|s| random_bitmap(n, s + 200, 2))
                .collect(),
        },
        Workload {
            name: "near-full (~99%)",
            bitmaps: (0..k as u64).map(near_full).collect(),
        },
    ]
}

fn main() {
    let quick = quick_mode();
    let n: usize = if quick { 200_000 } else { 2_000_000 };
    let k = 4usize;
    let repeats = if quick { 3 } else { 7 };

    println!("Bitmap representation study: {k}-way intersection over {n}-bit bitmaps");
    println!("(sizes are the sum over the {k} predicate bitmaps; times are best-of-{repeats})");
    println!();
    let widths = [22usize, 10, 10, 10, 10, 8, 9, 9, 9, 9];
    print_header(
        &[
            "workload",
            "plain KiB",
            "wah KiB",
            "roar KiB",
            "adapt KiB",
            "ratio",
            "plain us",
            "wah us",
            "roar us",
            "adapt us",
        ],
        &widths,
    );

    for workload in workloads(n, k) {
        let plain = &workload.bitmaps;
        let wah: Vec<BitmapRepr> = plain
            .iter()
            .map(|b| BitmapRepr::Wah(WahBitmap::compress(b)))
            .collect();
        let roaring: Vec<BitmapRepr> = plain
            .iter()
            .map(|b| BitmapRepr::Roaring(RoaringBitmap::compress(b)))
            .collect();
        let adaptive: Vec<BitmapRepr> = plain
            .iter()
            .map(|b| BitmapRepr::from_bitmap(b.clone(), RepresentationPolicy::default()))
            .collect();

        let plain_bytes: usize = plain.iter().map(Bitmap::size_bytes).sum();
        let wah_bytes: usize = wah.iter().map(BitmapRepr::size_bytes).sum();
        let roaring_bytes: usize = roaring.iter().map(BitmapRepr::size_bytes).sum();
        let adaptive_bytes: usize = adaptive.iter().map(BitmapRepr::size_bytes).sum();

        let plain_refs: Vec<&Bitmap> = plain.iter().collect();
        let plain_us = time_us(repeats, || Bitmap::and_many(&plain_refs));
        let wah_us = time_us(repeats, || and_into_fold(n, &wah));
        let roaring_us = time_us(repeats, || and_into_fold(n, &roaring));
        let adaptive_us = time_us(repeats, || and_into_fold(n, &adaptive));

        // Every path agrees bit-for-bit.
        let expected = Bitmap::and_many(&plain_refs);
        assert_eq!(and_into_fold(n, &wah), expected);
        assert_eq!(and_into_fold(n, &roaring), expected);
        assert_eq!(and_into_fold(n, &adaptive), expected);

        print_row(
            &[
                workload.name.to_string(),
                format!("{:.1}", plain_bytes as f64 / 1024.0),
                format!("{:.1}", wah_bytes as f64 / 1024.0),
                format!("{:.1}", roaring_bytes as f64 / 1024.0),
                format!("{:.1}", adaptive_bytes as f64 / 1024.0),
                format!("{:.2}x", plain_bytes as f64 / adaptive_bytes as f64),
                format!("{plain_us:.0}"),
                format!("{wah_us:.0}"),
                format!("{roaring_us:.0}"),
                format!("{adaptive_us:.0}"),
            ],
            &widths,
        );
    }

    // --- End-to-end: a materialised store's measured compression ratio
    // flowing into page sizing and the analytic cost model. ---
    println!();
    let store = measured_store(true);
    let stats = store.index_stats();
    println!(
        "FragmentStore (adaptive policy): {} bitmaps, {} compressed; {:.1} KiB stored vs {:.1} KiB verbatim ({:.2}x)",
        stats.bitmaps,
        stats.compressed,
        stats.size_bytes as f64 / 1024.0,
        stats.plain_size_bytes as f64 / 1024.0,
        stats.compression_ratio(),
    );
    let logical = store.logical_bitmap_sizing();
    let measured = store.measured_bitmap_sizing();
    println!(
        "Bitmap fragment sizing: {:.3} pages/fragment verbatim -> {:.3} with measured ratio",
        logical.pages_per_fragment(),
        measured.pages_per_fragment(),
    );

    let schema = paper_schema();
    let catalog = IndexCatalog::default_for(&schema);
    let fragmentation = bench_support::f_month_group(&schema);
    let query = StarQuery::exact_match(&schema, "1STORE", &["customer::store"]);
    let verbatim_model = CostModel::new(schema.clone(), catalog.clone());
    let compressed_model = CostModel::new(schema, catalog)
        .with_measured_compression(stats.compression_ratio().max(1.0));
    let (_, verbatim_cost) = verbatim_model.evaluate(&fragmentation, &query);
    let (_, compressed_cost) = compressed_model.evaluate(&fragmentation, &query);
    println!(
        "Analytic 1STORE under F_MonthGroup: {:.0} bitmap pages verbatim -> {:.0} with measured ratio",
        verbatim_cost.bitmap_pages_read, compressed_cost.bitmap_pages_read,
    );
}
