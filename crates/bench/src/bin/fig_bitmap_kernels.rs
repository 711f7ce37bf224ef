//! Bitmap kernel sweep: unrolled plain kernels and the engine's in-place
//! fold across representations and operand counts.
//!
//! The hot operation of star-join selection is the k-way AND of predicate
//! bitmaps.  This binary measures it for three predicate shapes (dense
//! random, sparse random, sparse clustered), three representations
//! (plain/unrolled, WAH, roaring) and k ∈ {2, 4, 8} operands, and compares
//! the unrolled plain kernel against a *scalar reference* — a verbatim copy
//! of the pre-unrolling per-word gather fold — to quantify the kernel
//! rewrite itself.  The WAH, roaring and adaptive columns time what a
//! fragment task does with compressed operands: fold each one into an
//! all-one plain bitmap in place ([`BitmapRepr::and_into`]).
//!
//! Every timed path is asserted bit-identical to the scalar reference, and
//! the adaptive chooser is asserted to never pick a representation that is
//! both larger and slower than one of the fixed alternatives.
//!
//! `--quick` shrinks the bitmap length and repeat count for CI smoke runs;
//! `--json <path>` writes the sweep (default `BENCH_bitmap_kernels.json`):
//! representation sizes are deterministic and gated exactly by CI, the
//! best-of-N timings sit under `"wall"`.

use bench_support::{
    and_into_fold, print_header, print_row, quick_mode, random_bitmap, sparse_clustered_bitmap,
    time_us, Record,
};
use warehouse::prelude::*;

const KS: [usize; 3] = [2, 4, 8];

/// One predicate shape: a family of deterministic bitmaps indexed by seed.
struct Shape {
    name: &'static str,
    build: fn(usize, u64) -> Bitmap,
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "dense",
            // ~50 % uniform random: roaring picks bitset containers and the
            // word kernels dominate.
            build: |n, seed| random_bitmap(n, seed, 2),
        },
        Shape {
            name: "sparse",
            // ~0.2 % uniform random: roaring picks sorted-array containers.
            build: |n, seed| random_bitmap(n, seed + 1_000, 500),
        },
        Shape {
            name: "clustered",
            // ~1 % in 512-bit runs: WAH fills and roaring run containers.
            build: |n, seed| sparse_clustered_bitmap(n, seed),
        },
    ]
}

/// Rebuilds the raw u64 word vector of a bitmap from its public iterator,
/// so the scalar reference kernel operates on exactly the same bit data
/// without reaching into `Bitmap` internals.
fn to_words(bitmap: &Bitmap) -> Vec<u64> {
    let mut words = vec![0u64; bitmap.len().div_ceil(64)];
    for position in bitmap.iter_ones() {
        words[position / 64] |= 1u64 << (position % 64);
    }
    words
}

/// The pre-unrolling multi-way AND, verbatim: one bounds-checked gather
/// fold per word across all operands.  This is the baseline the unrolled
/// kernels are measured against.
fn scalar_and_many(operands: &[&[u64]]) -> Vec<u64> {
    let first = operands.first().expect("at least one operand");
    (0..first.len())
        .map(|i| operands.iter().fold(!0u64, |acc, w| acc & w[i]))
        .collect()
}

/// One sweep point: a (shape, representation, k) cell of the table.
fn point(shape: &'static str, repr: &'static str, k: usize, micros: f64, bytes: usize) -> Record {
    Record::new()
        .set("shape", shape)
        .set("repr", repr)
        .set("k", k)
        .set("size_bytes", bytes)
        .wall("micros", micros)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = quick_mode();
    let n: usize = if quick { 262_144 } else { 2_097_152 };
    // Best-of-N timing: generous N, so the minimum converges despite CI
    // scheduling noise — the whole sweep is still well under a second.
    let repeats = if quick { 31 } else { 15 };

    println!("Bitmap kernel sweep over {n}-bit bitmaps (times are best-of-{repeats})");
    println!();
    let widths = [10usize, 3, 11, 11, 11, 11, 9];
    print_header(
        &[
            "shape",
            "k",
            "scalar us",
            "plain us",
            "wah us",
            "roaring us",
            "speedup",
        ],
        &widths,
    );

    let mut points: Vec<Record> = Vec::new();
    let mut dense_speedups: Vec<(usize, f64)> = Vec::new();

    for shape in shapes() {
        for k in KS {
            let bitmaps: Vec<Bitmap> = (0..k as u64).map(|s| (shape.build)(n, s)).collect();
            let plain_refs: Vec<&Bitmap> = bitmaps.iter().collect();
            let words: Vec<Vec<u64>> = bitmaps.iter().map(to_words).collect();
            let word_refs: Vec<&[u64]> = words.iter().map(Vec::as_slice).collect();
            let wah: Vec<BitmapRepr> = bitmaps
                .iter()
                .map(|b| BitmapRepr::Wah(WahBitmap::compress(b)))
                .collect();
            let roaring: Vec<BitmapRepr> = bitmaps
                .iter()
                .map(|b| BitmapRepr::Roaring(RoaringBitmap::compress(b)))
                .collect();

            let scalar_us = time_us(repeats, || scalar_and_many(&word_refs));
            let plain_us = time_us(repeats, || Bitmap::and_many(&plain_refs));
            let wah_us = time_us(repeats, || and_into_fold(n, &wah));
            let roaring_us = time_us(repeats, || and_into_fold(n, &roaring));

            // Every path is bit-identical to the scalar reference.
            let reference = scalar_and_many(&word_refs);
            let plain_result = Bitmap::and_many(&plain_refs);
            assert_eq!(to_words(&plain_result), reference, "plain kernel bits");
            assert_eq!(and_into_fold(n, &wah), plain_result, "wah in-place bits");
            assert_eq!(
                and_into_fold(n, &roaring),
                plain_result,
                "roaring in-place bits"
            );

            let speedup = scalar_us / plain_us;
            if shape.name == "dense" {
                dense_speedups.push((k, speedup));
            }

            print_row(
                &[
                    shape.name.to_string(),
                    k.to_string(),
                    format!("{scalar_us:.0}"),
                    format!("{plain_us:.0}"),
                    format!("{wah_us:.0}"),
                    format!("{roaring_us:.0}"),
                    format!("{speedup:.2}x"),
                ],
                &widths,
            );

            let plain_bytes: usize = bitmaps.iter().map(Bitmap::size_bytes).sum();
            let wah_bytes: usize = wah.iter().map(BitmapRepr::size_bytes).sum();
            let roaring_bytes: usize = roaring.iter().map(BitmapRepr::size_bytes).sum();
            for (repr, micros, bytes) in [
                ("scalar_reference", scalar_us, plain_bytes),
                ("plain", plain_us, plain_bytes),
                ("wah", wah_us, wah_bytes),
                ("roaring", roaring_us, roaring_bytes),
            ] {
                points.push(point(shape.name, repr, k, micros, bytes));
            }

            // The adaptive chooser must never pick a representation that is
            // both larger and slower than a fixed alternative (generous 2x
            // timing slack keeps the wall-clock side of the check robust).
            let adaptive: Vec<BitmapRepr> = bitmaps
                .iter()
                .map(|b| BitmapRepr::from_bitmap(b.clone(), RepresentationPolicy::default()))
                .collect();
            let adaptive_us = time_us(repeats, || and_into_fold(n, &adaptive));
            let adaptive_bytes: usize = adaptive.iter().map(BitmapRepr::size_bytes).sum();
            assert_eq!(and_into_fold(n, &adaptive), plain_result, "adaptive bits");
            for (alt, alt_bytes, alt_us) in [
                ("plain", plain_bytes, plain_us),
                ("wah", wah_bytes, wah_us),
                ("roaring", roaring_bytes, roaring_us),
            ] {
                assert!(
                    adaptive_bytes <= alt_bytes || adaptive_us <= alt_us * 2.0,
                    "{} k={k}: adaptive ({adaptive_bytes} B, {adaptive_us:.0} us) is larger \
                     and slower than {alt} ({alt_bytes} B, {alt_us:.0} us)",
                    shape.name,
                );
            }
        }
    }

    println!();
    for (k, speedup) in &dense_speedups {
        println!("dense {k}-way AND: unrolled kernel {speedup:.2}x over the scalar reference");
    }
    let best = dense_speedups
        .iter()
        .map(|(_, s)| *s)
        .fold(0.0f64, f64::max);
    // The ≥3x acceptance gate is a statement about the optimized kernels —
    // debug builds run the unrolled loops without vectorization, so only
    // the bit-identity asserts apply there.
    assert!(
        cfg!(debug_assertions) || best >= 3.0,
        "dense multi-way AND must reach 3x over the scalar reference (best {best:.2}x)"
    );

    let speedups: Vec<Record> = dense_speedups
        .iter()
        .map(|&(k, speedup)| Record::new().set("k", k).wall("speedup", speedup))
        .collect();
    bench_support::write_report(
        "bitmap_kernels",
        quick,
        Record::new()
            .set("bits", n)
            .list("points", &points)
            .list("dense_unrolled_speedup", &speedups),
    );
}
