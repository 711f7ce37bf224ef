//! `bitmap` — bitmap join index substrate for star-query processing.
//!
//! Star queries are processed in the paper by reading and intersecting
//! bitmaps: one bit per fact row indicates whether that row matches a given
//! dimension value (a *bitmap join index*, [O'Neil/Graefe 1995]).  For
//! high-cardinality dimensions the paper uses *encoded* bitmap indices
//! [Wu/Buchmann 1998] with a **hierarchical encoding**: each hierarchy level
//! contributes a sub-pattern of bits, so the PRODUCT dimension needs only 15
//! bitmaps instead of 14 400 and any ancestor level can be matched by reading
//! only its prefix bitmaps (Table 1 of the paper).
//!
//! This crate provides:
//!
//! * [`bitvec::Bitmap`] — an uncompressed bitmap with the Boolean operations
//!   used by star-join processing,
//! * [`wah::WahBitmap`] — a word-aligned-hybrid compressed representation
//!   whose counting and iteration walk the runs (no decompress round-trip),
//! * [`roaring::RoaringBitmap`] — roaring-style hybrid containers (sorted
//!   array / bitset / run list per 64 Ki-bit chunk, canonically chosen per
//!   chunk) counted and iterated container by container,
//! * [`repr::BitmapRepr`] / [`repr::RepresentationPolicy`] — the adaptive
//!   measured-size per-bitmap choice among the three, used by every
//!   materialised index; each form ANDs into a plain bitmap in place
//!   ([`repr::BitmapRepr::and_into`]), the one way selections intersect,
//! * [`encoding::HierarchicalEncoding`] — the per-level bit layout of an
//!   encoded bitmap index derived from a dimension hierarchy — plus the
//!   `BMRP` byte codec ([`encoding::encode_bitmap_repr`]) that serializes
//!   any representation,
//! * [`index::BitmapIndexSpec`] / [`index::IndexCatalog`] — the logical
//!   description (how many bitmaps, which bitmaps a selection must read) used
//!   by the cost model and the simulator,
//! * [`builder::MaterialisedIndex`] — a real, in-memory bitmap join index
//!   over a materialised (scaled-down) fact table, used by the examples and
//!   integration tests to validate the logical model against actual data,
//! * [`fragment`] — bitmap fragmentation aligned with fact-table fragments.
//!
//! # Quick start
//!
//! ```
//! use bitmap::{Bitmap, BitmapRepr, WahBitmap};
//!
//! // Two selection bitmaps over ten fact rows…
//! let month = Bitmap::from_positions(10, [1, 3, 5, 7, 9]);
//! let group = Bitmap::from_positions(10, [3, 4, 5]);
//!
//! // …ANDed to the qualifying rows: plain, or a compressed operand folded
//! // into a plain accumulator in place.
//! let hits = month.and(&group);
//! assert_eq!(hits, Bitmap::from_positions(10, [3, 5]));
//! let mut acc = month.clone();
//! BitmapRepr::Wah(WahBitmap::compress(&group)).and_into(&mut acc, false);
//! assert_eq!(acc, hits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod builder;
pub mod encoding;
pub mod fragment;
pub mod index;
pub mod repr;
pub mod roaring;
pub mod wah;

pub use bitvec::Bitmap;
pub use builder::{
    evaluate_star_query, FactRow, MaterialisedFactTable, MaterialisedIndex, StoredBitmaps,
};
pub use encoding::{decode_bitmap_repr, encode_bitmap_repr, HierarchicalEncoding, ReprDecodeError};
pub use fragment::BitmapFragmentation;
pub use index::{BitmapIndexKind, BitmapIndexSpec, IndexCatalog};
pub use repr::{BitmapRepr, ReprStats, RepresentationPolicy};
pub use roaring::RoaringBitmap;
pub use wah::WahBitmap;

#[cfg(test)]
pub(crate) mod test_shapes {
    use crate::bitvec::Bitmap;

    /// A bitmap drawn from one of four shapes, together exercising every
    /// WAH run kind: all-zero, all-one, seeded pseudo-random scatter, and a
    /// clustered run of ones over a zero background.  Shared by the
    /// property tests of [`crate::wah`] and [`crate::repr`].
    pub(crate) fn shaped_bitmap(
        len: usize,
        shape: u8,
        run_start: usize,
        run_len: usize,
        seed: u64,
    ) -> Bitmap {
        match shape % 4 {
            0 => Bitmap::new(len),
            1 => Bitmap::ones(len),
            2 => Bitmap::from_positions(
                len,
                (0..len).filter(|&i| {
                    (i as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(seed)
                        .is_multiple_of(7)
                }),
            ),
            _ => {
                let mut b = Bitmap::new(len);
                for p in run_start..(run_start + run_len).min(len) {
                    b.set(p, true);
                }
                b
            }
        }
    }
}
