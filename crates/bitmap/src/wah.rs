//! Word-aligned hybrid (WAH-style) bitmap compression.
//!
//! The paper notes that the storage overhead of simple bitmap indices "may be
//! reduced by compressing the bitmaps".  This module provides a 64-bit
//! word-aligned hybrid scheme: runs of all-zero or all-one 63-bit groups are
//! collapsed into fill words, everything else is stored as literal words.
//! The compressed form supports loss-free round-tripping, counting and
//! set-bit iteration ([`WahBitmap::iter_ones`]) that walk the runs
//! directly, and one Boolean operation: the in-place AND into a plain
//! bitmap that star-join selection folds every predicate through
//! ([`crate::BitmapRepr::and_into`]), where a zero fill clears its whole
//! bit range at once.
//!
//! [`WahBitmap::compress`] emits *canonical* form (adjacent fills merged,
//! full all-zero/all-one groups stored as fills, a partial tail group
//! always stored as a literal), so structural equality of compressed
//! bitmaps coincides with logical equality.

use crate::bitvec::{self, Bitmap};

const GROUP_BITS: usize = 63;
const LITERAL_FLAG: u64 = 1 << 63;
const FILL_VALUE_FLAG: u64 = 1 << 62;
const MAX_FILL_LEN: u64 = (1 << 62) - 1;
const FULL_GROUP: u64 = (1u64 << GROUP_BITS) - 1;

/// A WAH-compressed bitmap.
///
/// Words are either *literals* (top bit set; low 63 bits are payload) or
/// *fills* (top bit clear; bit 62 is the fill value, low 62 bits the number of
/// consecutive 63-bit groups with that value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WahBitmap {
    len: usize,
    words: Vec<u64>,
}

impl WahBitmap {
    /// Compresses an uncompressed bitmap.
    #[must_use]
    pub fn compress(bitmap: &Bitmap) -> Self {
        let len = bitmap.len();
        let mut words = Vec::new();
        let mut pending_fill: Option<(bool, u64)> = None;

        let flush_fill = |words: &mut Vec<u64>, fill: &mut Option<(bool, u64)>| {
            if let Some((value, count)) = fill.take() {
                let mut remaining = count;
                while remaining > 0 {
                    let chunk = remaining.min(MAX_FILL_LEN);
                    let mut w = chunk;
                    if value {
                        w |= FILL_VALUE_FLAG;
                    }
                    words.push(w);
                    remaining -= chunk;
                }
            }
        };

        for group_idx in 0..len.div_ceil(GROUP_BITS) {
            let group = read_group(bitmap, group_idx);
            let group_len = (len - group_idx * GROUP_BITS).min(GROUP_BITS);
            let full_mask = if group_len == GROUP_BITS {
                (1u64 << GROUP_BITS) - 1
            } else {
                (1u64 << group_len) - 1
            };
            let is_last_partial = group_len < GROUP_BITS;

            if !is_last_partial && group == 0 {
                match &mut pending_fill {
                    Some((false, c)) => *c += 1,
                    _ => {
                        flush_fill(&mut words, &mut pending_fill);
                        pending_fill = Some((false, 1));
                    }
                }
            } else if !is_last_partial && group == full_mask {
                match &mut pending_fill {
                    Some((true, c)) => *c += 1,
                    _ => {
                        flush_fill(&mut words, &mut pending_fill);
                        pending_fill = Some((true, 1));
                    }
                }
            } else {
                flush_fill(&mut words, &mut pending_fill);
                words.push(LITERAL_FLAG | group);
            }
        }
        flush_fill(&mut words, &mut pending_fill);
        WahBitmap { len, words }
    }

    /// Decompresses back into an uncompressed bitmap.
    #[must_use]
    pub fn decompress(&self) -> Bitmap {
        let mut out = Bitmap::ones(self.len);
        self.and_into(&mut out, false);
        out
    }

    /// ANDs this bitmap — or, with `negate`, its complement — into `out`
    /// in place, run by run: a zero fill clears its bit range, a one fill
    /// leaves `out` as it is, and a 63-bit literal masks the one or two
    /// words it straddles.  Nothing is decompressed or allocated.  Like
    /// every operation here it tolerates non-canonical (deserialized)
    /// streams: tail-literal bits past `len` and fills overrunning it are
    /// ignored, and bits past a truncated stream's last run read as zeros.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub(crate) fn and_into(&self, out: &mut Bitmap, negate: bool) {
        assert_eq!(self.len, out.len(), "bitmap length mismatch");
        let words = out.words_mut();
        let mut bit_pos = 0usize;
        for &w in &self.words {
            if bit_pos >= self.len {
                break;
            }
            if w & LITERAL_FLAG != 0 {
                let valid = (self.len - bit_pos).min(GROUP_BITS);
                let ones = if negate { !w } else { w };
                let clear = !ones & (FULL_GROUP >> (GROUP_BITS - valid));
                let (wi, offset) = (bit_pos / 64, bit_pos % 64);
                if let Some(word) = words.get_mut(wi) {
                    *word &= !(clear << offset);
                }
                // A group starting past bit 1 of a word spills into the next.
                if offset > 1 {
                    if let Some(word) = words.get_mut(wi + 1) {
                        *word &= !(clear >> (64 - offset));
                    }
                }
                bit_pos += GROUP_BITS;
            } else {
                let groups = (w & MAX_FILL_LEN) as usize;
                let end = bit_pos
                    .saturating_add(groups.saturating_mul(GROUP_BITS))
                    .min(self.len);
                if (w & FILL_VALUE_FLAG != 0) == negate {
                    bitvec::clear_bit_range(words, bit_pos, end);
                }
                bit_pos = end;
            }
        }
        if !negate {
            bitvec::clear_bit_range(words, bit_pos, self.len);
        }
    }

    /// Number of rows covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when covering zero rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (computed without full decompression).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        let mut count = 0usize;
        let mut bit_pos = 0usize;
        for &w in &self.words {
            if w & LITERAL_FLAG != 0 {
                // Mask bits beyond `len`, which non-canonical (deserialized)
                // tail literals may carry.
                let valid = self.len.saturating_sub(bit_pos).min(GROUP_BITS);
                count += (w & (FULL_GROUP >> (GROUP_BITS - valid))).count_ones() as usize;
                bit_pos += valid;
            } else {
                let groups = (w & MAX_FILL_LEN) as usize;
                let bits = (groups * GROUP_BITS).min(self.len.saturating_sub(bit_pos));
                if w & FILL_VALUE_FLAG != 0 {
                    count += bits;
                }
                bit_pos += bits;
            }
        }
        count
    }

    /// Compressed size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Raw compressed words (the serialization encode path).
    #[must_use]
    pub(crate) fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds from raw compressed words (the serialization decode path).
    /// Non-canonical input is tolerated by every operation — see
    /// [`WahBitmap::and_into`] — so no validation is needed here.
    #[must_use]
    pub(crate) fn from_raw_words(len: usize, words: Vec<u64>) -> WahBitmap {
        WahBitmap { len, words }
    }

    /// Compression ratio relative to the uncompressed representation
    /// (values > 1 mean the compressed form is smaller).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let uncompressed = self.len.div_ceil(8).max(1);
        uncompressed as f64 / self.size_bytes().max(1) as f64
    }

    /// Fraction of set bits, in `[0, 1]` (0 for an empty bitmap).
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Iterates over the positions of set bits in ascending order, walking
    /// the compressed runs directly: zero fills are skipped in O(1), one
    /// fills are emitted as consecutive ranges.
    #[must_use]
    pub fn iter_ones(&self) -> WahOnes<'_> {
        WahOnes {
            words: &self.words,
            word_idx: 0,
            len: self.len,
            group_start: 0,
            literal: 0,
            literal_base: 0,
            run_pos: 0,
            run_end: 0,
        }
    }
}

/// One decoded run of a compressed bitmap.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// `groups` consecutive 63-bit groups of all-`value` bits.
    Fill { value: bool, groups: u64 },
    /// One 63-bit group with the given payload.
    Literal(u64),
}

fn decode_word(w: u64) -> Run {
    if w & LITERAL_FLAG != 0 {
        Run::Literal(w & !LITERAL_FLAG)
    } else {
        Run::Fill {
            value: w & FILL_VALUE_FLAG != 0,
            groups: w & MAX_FILL_LEN,
        }
    }
}

/// Iterator over the set-bit positions of a [`WahBitmap`], run by run.
#[derive(Debug)]
pub struct WahOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    len: usize,
    /// Bit position of the next undecoded group.
    group_start: usize,
    /// Remaining payload bits of the current literal group.
    literal: u64,
    literal_base: usize,
    /// Current one-fill run, as a half-open position range.
    run_pos: usize,
    run_end: usize,
}

impl Iterator for WahOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.run_pos < self.run_end {
                let position = self.run_pos;
                self.run_pos += 1;
                return Some(position);
            }
            if self.literal != 0 {
                let bit = self.literal.trailing_zeros() as usize;
                self.literal &= self.literal - 1;
                return Some(self.literal_base + bit);
            }
            let &word = self.words.get(self.word_idx)?;
            self.word_idx += 1;
            match decode_word(word) {
                Run::Literal(payload) => {
                    // Mask bits beyond `len`, which non-canonical
                    // (deserialized) tail literals may carry.
                    let valid = self.len.saturating_sub(self.group_start).min(GROUP_BITS);
                    self.literal = payload & (FULL_GROUP >> (GROUP_BITS - valid));
                    self.literal_base = self.group_start;
                    self.group_start += GROUP_BITS;
                }
                Run::Fill { value, groups } => {
                    let start = self.group_start;
                    self.group_start += groups as usize * GROUP_BITS;
                    if value {
                        self.run_pos = start;
                        self.run_end = self.group_start.min(self.len);
                    }
                }
            }
        }
    }
}

fn read_group(bitmap: &Bitmap, group_idx: usize) -> u64 {
    let start = group_idx * GROUP_BITS;
    let end = (start + GROUP_BITS).min(bitmap.len());
    let mut g = 0u64;
    // Fast path over whole words would be possible; clarity wins here because
    // compression happens only at index-build time in examples/tests.
    let words = bitmap.words();
    for (offset, idx) in (start..end).enumerate() {
        if (words[idx / 64] >> (idx % 64)) & 1 == 1 {
            g |= 1 << offset;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sparse() {
        let b = Bitmap::from_positions(10_000, [0, 5_000, 9_999]);
        let w = WahBitmap::compress(&b);
        assert_eq!(w.decompress(), b);
        assert_eq!(w.count_ones(), 3);
        assert_eq!(w.len(), 10_000);
        assert!(!w.is_empty());
        // A sparse bitmap compresses well.
        assert!(w.compression_ratio() > 10.0, "{}", w.compression_ratio());
    }

    #[test]
    fn roundtrip_dense() {
        let b = Bitmap::ones(5_000);
        let w = WahBitmap::compress(&b);
        assert_eq!(w.decompress(), b);
        assert_eq!(w.count_ones(), 5_000);
        assert!(w.size_bytes() < 64);
    }

    #[test]
    fn roundtrip_alternating_is_incompressible() {
        let b = Bitmap::from_positions(1_000, (0..1_000).filter(|i| i % 2 == 0));
        let w = WahBitmap::compress(&b);
        assert_eq!(w.decompress(), b);
        // Alternating bits are all literals; ratio close to the 63/64 overhead.
        assert!(w.compression_ratio() < 1.1);
    }

    #[test]
    fn empty_and_tiny_bitmaps() {
        for len in [0usize, 1, 62, 63, 64, 65, 126, 127] {
            let b = Bitmap::from_positions(len, (0..len).filter(|i| i % 7 == 0));
            let w = WahBitmap::compress(&b);
            assert_eq!(w.decompress(), b, "len={len}");
            assert_eq!(w.count_ones(), b.count_ones(), "len={len}");
        }
    }

    /// ANDs every operand into one all-one plain bitmap in place — the
    /// multi-way intersection a fragment task runs.
    fn and_fold(len: usize, operands: &[&WahBitmap]) -> Bitmap {
        let mut out = Bitmap::ones(len);
        for w in operands {
            w.and_into(&mut out, false);
        }
        out
    }

    #[test]
    fn compressed_and() {
        let a = Bitmap::from_positions(500, (0..500).filter(|i| i % 3 == 0));
        let b = Bitmap::from_positions(500, (0..500).filter(|i| i % 5 == 0));
        let wa = WahBitmap::compress(&a);
        let wb = WahBitmap::compress(&b);
        assert_eq!(and_fold(500, &[&wa, &wb]), a.and(&b));
    }

    #[test]
    fn compressed_and_many_skips_zero_fills() {
        let n = 100_000;
        let sparse = Bitmap::from_positions(n, [10, 50_000, 99_999]);
        let runs = Bitmap::from_positions(n, (40_000..60_000).chain(99_000..n));
        let all = Bitmap::ones(n);
        let expected = Bitmap::and_many(&[&sparse, &runs, &all]);
        let compressed: Vec<WahBitmap> = [&sparse, &runs, &all]
            .iter()
            .map(|b| WahBitmap::compress(b))
            .collect();
        let refs: Vec<&WahBitmap> = compressed.iter().collect();
        assert_eq!(and_fold(n, &refs), expected);
    }

    #[test]
    fn iter_ones_walks_runs_in_order() {
        let n = 5_000;
        let positions: Vec<usize> = (0..n)
            .filter(|i| *i < 3 || (1_000..1_200).contains(i) || *i == n - 1)
            .collect();
        let w = WahBitmap::compress(&Bitmap::from_positions(n, positions.iter().copied()));
        assert_eq!(w.iter_ones().collect::<Vec<_>>(), positions);
        assert_eq!(WahBitmap::compress(&Bitmap::new(0)).iter_ones().count(), 0);
        assert_eq!(
            WahBitmap::compress(&Bitmap::ones(130))
                .iter_ones()
                .collect::<Vec<_>>(),
            (0..130).collect::<Vec<_>>()
        );
    }

    #[test]
    fn density_and_boundaries() {
        assert_eq!(WahBitmap::compress(&Bitmap::new(0)).density(), 0.0);
        assert_eq!(WahBitmap::compress(&Bitmap::ones(77)).density(), 1.0);
        let half = Bitmap::from_positions(100, 0..50);
        assert!((WahBitmap::compress(&half).density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_canonical_zero_length_fills_are_tolerated() {
        // Canonical compression never produces a fill of zero groups, but a
        // deserialized bitmap can carry one; the in-place AND, either way,
        // and iteration must skip it.
        let b = Bitmap::from_positions(70, [1usize, 64]);
        let mut w = WahBitmap::compress(&b);
        w.words.insert(0, 0); // zero-length zero fill
        w.words.insert(1, FILL_VALUE_FLAG); // zero-length one fill
        assert_eq!(w.decompress(), b);
        let mut complement = Bitmap::ones(70);
        w.and_into(&mut complement, true);
        assert_eq!(complement, b.not());
        assert_eq!(w.iter_ones().collect::<Vec<_>>(), vec![1, 64]);
    }

    #[test]
    fn tail_literal_bits_beyond_len_are_masked() {
        // A deserialized tail literal may carry set bits beyond `len`;
        // queries and the in-place AND must ignore them like `decompress`
        // does.
        let b = Bitmap::ones(70);
        let mut w = WahBitmap::compress(&b);
        let last = w.words.len() - 1;
        assert_ne!(w.words[last] & LITERAL_FLAG, 0, "tail group is a literal");
        w.words[last] = LITERAL_FLAG | FULL_GROUP; // junk bits 70..126
        assert_eq!(w.decompress(), b);
        assert_eq!(w.count_ones(), 70);
        assert_eq!(
            w.iter_ones().collect::<Vec<_>>(),
            (0..70).collect::<Vec<_>>()
        );
        let mut complement = Bitmap::ones(70);
        w.and_into(&mut complement, true);
        assert!(complement.is_all_zero());
    }

    #[test]
    fn overlong_fills_stop_at_len() {
        // A deserialized fill may claim more groups than `len` holds; the
        // in-place AND must stop at `len` instead of running off the end.
        let w = WahBitmap::from_raw_words(100, vec![5, LITERAL_FLAG | 1]);
        assert_eq!(w.decompress(), Bitmap::new(100));
        let mut out = Bitmap::ones(100);
        w.and_into(&mut out, true);
        assert_eq!(out, Bitmap::ones(100));
        let one_fill = WahBitmap::from_raw_words(100, vec![FILL_VALUE_FLAG | 5]);
        assert_eq!(one_fill.decompress(), Bitmap::ones(100));
    }

    #[test]
    fn truncated_word_streams_read_as_zeros() {
        // A deserialized WahBitmap whose words cover fewer groups than `len`
        // reads as zeros past the last run — the same behaviour as
        // `decompress` — instead of panicking.
        let b = Bitmap::from_positions(126, [1usize, 5]);
        let mut w = WahBitmap::compress(&b);
        w.words.truncate(1); // drop the trailing zero fill
        assert_eq!(w.decompress(), b);
        let mut complement = Bitmap::ones(126);
        w.and_into(&mut complement, true);
        assert_eq!(complement, b.not());
        let mut out = Bitmap::from_positions(126, [1usize, 5, 100, 125]);
        w.and_into(&mut out, false);
        assert_eq!(out, b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_many_rejects_length_mismatch() {
        let a = WahBitmap::compress(&Bitmap::new(10));
        let b = WahBitmap::compress(&Bitmap::new(11));
        let _ = and_fold(10, &[&a, &b]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// A bitmap drawn from a mix of shapes that exercises every WAH run
    /// kind: all-zero, all-one, random at a given density, and clustered
    /// runs of ones over a zero background.
    fn arb_shaped_bitmap(max_len: usize) -> impl Strategy<Value = Bitmap> {
        (
            (0usize..max_len, 0u8..4),
            (0usize..max_len, 0usize..max_len, 0u64..1_000),
        )
            .prop_map(|((len, shape), (run_start, run_len, seed))| {
                crate::test_shapes::shaped_bitmap(len, shape, run_start, run_len, seed)
            })
    }

    proptest! {
        /// Compression is lossless for arbitrary bit patterns and lengths.
        #[test]
        fn prop_roundtrip(
            len in 0usize..2_000,
            seed_positions in proptest::collection::vec(0usize..2_000, 0..200),
            run_start in 0usize..2_000,
            run_len in 0usize..500,
        ) {
            let mut b = Bitmap::new(len);
            for &p in &seed_positions {
                if p < len {
                    b.set(p, true);
                }
            }
            // Add a dense run to exercise one-fills.
            for p in run_start..(run_start + run_len).min(len) {
                b.set(p, true);
            }
            let w = WahBitmap::compress(&b);
            prop_assert_eq!(w.decompress(), b.clone());
            prop_assert_eq!(w.count_ones(), b.count_ones());
        }

        /// Round-trip over the shaped generator, covering all-zero and
        /// all-one runs explicitly.
        #[test]
        fn prop_shaped_roundtrip(b in arb_shaped_bitmap(1_500)) {
            let w = WahBitmap::compress(&b);
            prop_assert_eq!(w.decompress(), b.clone());
            prop_assert_eq!(w.count_ones(), b.count_ones());
            prop_assert_eq!(w.iter_ones().collect::<Vec<_>>(),
                            b.iter_ones().collect::<Vec<_>>());
        }

        /// Folding every compressed operand into one plain bitmap in place
        /// agrees with the plain multi-way AND, for random densities
        /// including all-zero/all-one runs.
        #[test]
        fn prop_and_many_matches_plain(
            len in 1usize..800,
            shapes in proptest::collection::vec((0u8..4, 0usize..800, 0usize..800, 0u64..1_000), 1..5),
        ) {
            let plain: Vec<Bitmap> = shapes
                .into_iter()
                .map(|(shape, run_start, run_len, seed)| {
                    crate::test_shapes::shaped_bitmap(len, shape, run_start, run_len, seed)
                })
                .collect();
            let plain_refs: Vec<&Bitmap> = plain.iter().collect();
            let mut and = Bitmap::ones(len);
            for b in &plain {
                WahBitmap::compress(b).and_into(&mut and, false);
            }
            prop_assert_eq!(and, Bitmap::and_many(&plain_refs));
        }
    }
}
