//! Adaptive bitmap representations: plain, WAH or roaring, per bitmap.
//!
//! The paper sizes its bitmap join indices as if every bitmap were stored
//! verbatim, noting only that the overhead "may be reduced by compressing
//! the bitmaps".  This module makes the whole stack representation-aware:
//! a [`BitmapRepr`] is an uncompressed [`Bitmap`], a run-compressed
//! [`WahBitmap`] or a hybrid-container [`RoaringBitmap`], and a
//! [`RepresentationPolicy`] decides — per bitmap, at index-build time —
//! which form to keep.
//!
//! The adaptive policy chooses among all three by **measured size**: the
//! roaring form is always a candidate (its per-chunk chooser degrades
//! gracefully at any density), the WAH form is attempted when the density
//! `d` satisfies `min(d, 1 - d) <= max_density` (sparse bitmaps compress
//! through zero fills, near-full ones through one fills), and a compressed
//! form is kept only when it wins by at least
//! [`RepresentationPolicy::MIN_COMPRESSION_GAIN`] over verbatim storage —
//! the smallest winner is stored, ties preferring roaring.  Mid-density
//! bitmaps — e.g. the ~50 %-density bit slices of a hierarchically encoded
//! index — fail the gain bar and stay on the plain fast path.
//!
//! Every representation intersects one way: [`BitmapRepr::and_into`] ANDs
//! it — or its complement — into a plain bitmap in place, so a multi-way
//! AND is a fold of its operands into one plain accumulator, whatever mix
//! of forms they are stored in.

use crate::bitvec::Bitmap;
use crate::roaring::RoaringBitmap;
use crate::wah::WahBitmap;

/// How bitmaps of an index are physically represented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepresentationPolicy {
    /// Every bitmap is stored verbatim.
    Plain,
    /// Every bitmap is stored WAH-compressed, even when that is larger.
    Wah,
    /// Every bitmap is stored in roaring hybrid containers, even when the
    /// plain form would be smaller.
    Roaring,
    /// Measured-size choice per bitmap among all three representations:
    /// roaring is always a candidate, WAH when
    /// `min(density, 1 - density) <= max_density`, and a compressed form is
    /// kept only when it wins by at least
    /// [`RepresentationPolicy::MIN_COMPRESSION_GAIN`] — the smallest wins,
    /// ties preferring roaring; keep plain otherwise.
    Adaptive {
        /// The density threshold gating the WAH compression attempt.
        max_density: f64,
    },
}

impl RepresentationPolicy {
    /// Default density threshold of the adaptive policy.
    ///
    /// With 63-bit WAH groups, uniformly random bitmaps denser than ~1.5 %
    /// rarely produce fills, so compression only pays off below that or for
    /// *clustered* bit patterns; 0.1 admits the clustered shapes (hierarchy
    /// ranges, fragment-aligned selections) while the size check rejects
    /// incompressible random ones.
    pub const DEFAULT_MAX_DENSITY: f64 = 0.1;

    /// Minimum size win required before the adaptive policy keeps the
    /// compressed form.
    ///
    /// ANDing a compressed bitmap into the selection accumulator costs more
    /// per *word* than the plain word-parallel AND, so a marginal size win
    /// (say 1.3x) would trade a little memory for a much slower hot path.
    /// Requiring at least a 2x reduction keeps weakly compressible bitmaps
    /// (scattered sparse or near-full patterns) on the plain fast path
    /// while still capturing the order-of-magnitude wins of clustered runs.
    pub const MIN_COMPRESSION_GAIN: f64 = 2.0;

    /// The adaptive policy with the default density threshold.
    #[must_use]
    pub fn adaptive() -> Self {
        RepresentationPolicy::Adaptive {
            max_density: Self::DEFAULT_MAX_DENSITY,
        }
    }
}

impl Default for RepresentationPolicy {
    fn default() -> Self {
        Self::adaptive()
    }
}

/// One bitmap in its chosen physical representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitmapRepr {
    /// Uncompressed, one bit per fact row.
    Plain(Bitmap),
    /// WAH-compressed runs.
    Wah(WahBitmap),
    /// Roaring hybrid containers (array / bitset / runs per 64 Ki chunk).
    Roaring(RoaringBitmap),
}

impl BitmapRepr {
    /// Chooses the representation of `bitmap` under `policy`.
    #[must_use]
    pub fn from_bitmap(bitmap: Bitmap, policy: RepresentationPolicy) -> Self {
        match policy {
            RepresentationPolicy::Plain => BitmapRepr::Plain(bitmap),
            RepresentationPolicy::Wah => BitmapRepr::Wah(WahBitmap::compress(&bitmap)),
            RepresentationPolicy::Roaring => BitmapRepr::Roaring(RoaringBitmap::compress(&bitmap)),
            RepresentationPolicy::Adaptive { max_density } => {
                let plain_bytes = bitmap.size_bytes() as f64;
                let gain_ok = |bytes: usize| {
                    bytes as f64 * RepresentationPolicy::MIN_COMPRESSION_GAIN <= plain_bytes
                };

                // Roaring is always a candidate: its per-chunk chooser never
                // explodes, so only the gain bar can reject it.
                let roaring = RoaringBitmap::compress(&bitmap);
                let mut best: Option<BitmapRepr> = None;
                let mut best_bytes = usize::MAX;
                if gain_ok(roaring.size_bytes()) {
                    best_bytes = roaring.size_bytes();
                    best = Some(BitmapRepr::Roaring(roaring));
                }
                // WAH only under the density gate; it must beat roaring
                // *strictly*, so on ties roaring wins.
                let d = bitmap.density();
                if d.min(1.0 - d) <= max_density {
                    let wah = WahBitmap::compress(&bitmap);
                    if gain_ok(wah.size_bytes()) && wah.size_bytes() < best_bytes {
                        best = Some(BitmapRepr::Wah(wah));
                    }
                }
                best.unwrap_or(BitmapRepr::Plain(bitmap))
            }
        }
    }

    /// Number of rows covered.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            BitmapRepr::Plain(b) => b.len(),
            BitmapRepr::Wah(w) => w.len(),
            BitmapRepr::Roaring(r) => r.len(),
        }
    }

    /// True when covering zero rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when stored in a compressed form (WAH or roaring).
    #[must_use]
    pub fn is_compressed(&self) -> bool {
        matches!(self, BitmapRepr::Wah(_) | BitmapRepr::Roaring(_))
    }

    /// Number of set bits (computed without decompression).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        match self {
            BitmapRepr::Plain(b) => b.count_ones(),
            BitmapRepr::Wah(w) => w.count_ones(),
            BitmapRepr::Roaring(r) => r.count_ones(),
        }
    }

    /// Fraction of set bits, in `[0, 1]` (0 for an empty bitmap).
    #[must_use]
    pub fn density(&self) -> f64 {
        match self {
            BitmapRepr::Plain(b) => b.density(),
            BitmapRepr::Wah(w) => w.density(),
            BitmapRepr::Roaring(r) => r.density(),
        }
    }

    /// Physical size of the chosen representation in bytes — the quantity
    /// the cost model and page sizing consume.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        match self {
            BitmapRepr::Plain(b) => b.size_bytes(),
            BitmapRepr::Wah(w) => w.size_bytes(),
            BitmapRepr::Roaring(r) => r.size_bytes(),
        }
    }

    /// Size the bitmap would occupy if stored verbatim.
    #[must_use]
    pub fn plain_size_bytes(&self) -> usize {
        self.len().div_ceil(64) * 8
    }

    /// The plain form: a move for [`BitmapRepr::Plain`], a decompression
    /// otherwise.
    #[must_use]
    pub fn into_plain(self) -> Bitmap {
        match self {
            BitmapRepr::Plain(b) => b,
            BitmapRepr::Wah(w) => w.decompress(),
            BitmapRepr::Roaring(r) => r.decompress(),
        }
    }

    /// A plain copy (decompressing if needed).
    #[must_use]
    pub fn to_plain(&self) -> Bitmap {
        self.clone().into_plain()
    }

    /// Borrows the WAH form, if this is the WAH representation.
    #[must_use]
    pub fn as_wah(&self) -> Option<&WahBitmap> {
        match self {
            BitmapRepr::Wah(w) => Some(w),
            _ => None,
        }
    }

    /// Borrows the roaring form, if this is the roaring representation.
    #[must_use]
    pub fn as_roaring(&self) -> Option<&RoaringBitmap> {
        match self {
            BitmapRepr::Roaring(r) => Some(r),
            _ => None,
        }
    }

    /// Consuming multi-way intersection: folds every further operand into
    /// the first operand's plain form **in place** ([`BitmapRepr::and_into`]),
    /// with no per-operand result allocation, so the result is always
    /// [`BitmapRepr::Plain`].
    ///
    /// # Panics
    ///
    /// Panics if `reprs` is empty or the lengths differ; use
    /// [`BitmapRepr::try_and_many_owned`] when the operand list may be
    /// empty.
    #[must_use]
    pub fn and_many_owned(reprs: Vec<BitmapRepr>) -> BitmapRepr {
        let Some(result) = Self::try_and_many_owned(reprs) else {
            panic!(
                "BitmapRepr::and_many_owned of zero operands has no defined length; \
                 pass at least one bitmap"
            )
        };
        result
    }

    /// Fallible consuming multi-way intersection: `None` for an empty
    /// operand list, otherwise exactly [`BitmapRepr::and_many_owned`].
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    #[must_use]
    pub fn try_and_many_owned(reprs: Vec<BitmapRepr>) -> Option<BitmapRepr> {
        let mut reprs = reprs.into_iter();
        let mut acc = reprs.next()?.into_plain();
        for repr in reprs {
            repr.and_into(&mut acc, false);
        }
        Some(BitmapRepr::Plain(acc))
    }

    /// ANDs this bitmap — or, with `negate`, its complement — into `out`
    /// in place, whatever its representation: plain words AND word by
    /// word, WAH runs clear or keep whole ranges, roaring containers AND
    /// into their 64 Ki-bit chunk.  Nothing is decompressed and nothing is
    /// allocated, so folding several selections into one reused scratch
    /// bitmap costs no heap traffic.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_into(&self, out: &mut Bitmap, negate: bool) {
        match self {
            BitmapRepr::Plain(b) => b.and_into(out, negate),
            BitmapRepr::Wah(w) => w.and_into(out, negate),
            BitmapRepr::Roaring(r) => r.and_into(out, negate),
        }
    }

    /// Iterates over set-bit positions in ascending order, without
    /// decompressing compressed representations.
    pub fn iter_ones(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match self {
            BitmapRepr::Plain(b) => Box::new(b.iter_ones()),
            BitmapRepr::Wah(w) => Box::new(w.iter_ones()),
            BitmapRepr::Roaring(r) => Box::new(r.iter_ones()),
        }
    }

    /// Serializes into the self-describing `BMRP` byte format
    /// ([`crate::encoding::encode_bitmap_repr`]).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::encoding::encode_bitmap_repr(self)
    }

    /// Deserializes a stream produced by [`BitmapRepr::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`crate::encoding::ReprDecodeError`] on truncated, foreign
    /// or structurally invalid input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::encoding::ReprDecodeError> {
        crate::encoding::decode_bitmap_repr(bytes)
    }
}

/// Aggregate storage statistics over a set of [`BitmapRepr`]s — how many
/// bitmaps chose which representation and how many bytes that saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReprStats {
    /// Total bitmaps counted.
    pub bitmaps: usize,
    /// Bitmaps stored in any compressed form (`wah + roaring`).
    pub compressed: usize,
    /// Bitmaps stored WAH-compressed.
    pub wah: usize,
    /// Bitmaps stored in roaring hybrid containers.
    pub roaring: usize,
    /// Total physical bytes of the chosen representations.
    pub size_bytes: usize,
    /// Total bytes a verbatim (plain) representation would occupy.
    pub plain_size_bytes: usize,
}

impl ReprStats {
    /// Accounts for one more bitmap.
    pub fn absorb(&mut self, repr: &BitmapRepr) {
        self.bitmaps += 1;
        match repr {
            BitmapRepr::Plain(_) => {}
            BitmapRepr::Wah(_) => {
                self.compressed += 1;
                self.wah += 1;
            }
            BitmapRepr::Roaring(_) => {
                self.compressed += 1;
                self.roaring += 1;
            }
        }
        self.size_bytes += repr.size_bytes();
        self.plain_size_bytes += repr.plain_size_bytes();
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: ReprStats) {
        self.bitmaps += other.bitmaps;
        self.compressed += other.compressed;
        self.wah += other.wah;
        self.roaring += other.roaring;
        self.size_bytes += other.size_bytes;
        self.plain_size_bytes += other.plain_size_bytes;
    }

    /// Measured compression ratio: verbatim bytes over chosen-representation
    /// bytes (1.0 for an empty set; values > 1 mean compression won).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.size_bytes == 0 {
            1.0
        } else {
            self.plain_size_bytes as f64 / self.size_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(n: usize) -> Bitmap {
        Bitmap::from_positions(n, (0..n).filter(|i| i % 1_000 == 0))
    }

    fn mid_random(n: usize) -> Bitmap {
        Bitmap::from_positions(n, (0..n).filter(|i| i % 2 == 0))
    }

    #[test]
    fn adaptive_compresses_sparse_keeps_mid_density_plain() {
        let n = 100_000;
        let policy = RepresentationPolicy::default();
        let s = BitmapRepr::from_bitmap(sparse(n), policy);
        assert!(s.is_compressed());
        assert!(s.size_bytes() < s.plain_size_bytes() / 3);

        let m = BitmapRepr::from_bitmap(mid_random(n), policy);
        assert!(!m.is_compressed());
        assert_eq!(m.size_bytes(), m.plain_size_bytes());

        // Near-full bitmaps compress through one fills.
        let dense = BitmapRepr::from_bitmap(Bitmap::ones(n), policy);
        assert!(dense.is_compressed());
        assert!(dense.size_bytes() < 64);
    }

    #[test]
    fn adaptive_rejects_incompressible_sparse_random() {
        // ~6 % density with no clustering: under the density gate, but WAH
        // literals would not shrink it — the size check keeps it plain.
        let n = 100_000;
        let b = Bitmap::from_positions(n, (0..n).filter(|i| i % 17 == 0));
        let repr = BitmapRepr::from_bitmap(b, RepresentationPolicy::default());
        assert!(!repr.is_compressed());
    }

    #[test]
    fn forced_policies_override_the_chooser() {
        let n = 10_000;
        let w = BitmapRepr::from_bitmap(mid_random(n), RepresentationPolicy::Wah);
        assert!(w.is_compressed());
        let p = BitmapRepr::from_bitmap(sparse(n), RepresentationPolicy::Plain);
        assert!(!p.is_compressed());
        let r = BitmapRepr::from_bitmap(mid_random(n), RepresentationPolicy::Roaring);
        assert!(r.is_compressed());
        assert!(r.as_roaring().is_some());
        assert_eq!(r.to_plain(), mid_random(n));
    }

    #[test]
    fn adaptive_prefers_the_smaller_compressed_form() {
        let n = 100_000;
        // Scattered-sparse: WAH literals can't merge (one set bit per
        // 63-bit group) but a roaring array stores 2 bytes per bit.
        let scattered = BitmapRepr::from_bitmap(sparse(n), RepresentationPolicy::default());
        assert!(scattered.as_roaring().is_some(), "{scattered:?}");
        let wah_size = WahBitmap::compress(&sparse(n)).size_bytes();
        assert!(scattered.size_bytes() < wah_size);

        // All-one: a couple of WAH one-fill words beat roaring's per-chunk
        // headers.
        let full = BitmapRepr::from_bitmap(Bitmap::ones(n), RepresentationPolicy::default());
        assert!(full.as_wah().is_some(), "{full:?}");
    }

    #[test]
    fn operations_agree_across_representations() {
        let n = 20_000;
        let a = sparse(n);
        let b = Bitmap::from_positions(n, 5_000..9_000);
        for policy in [
            RepresentationPolicy::Plain,
            RepresentationPolicy::Wah,
            RepresentationPolicy::Roaring,
            RepresentationPolicy::default(),
        ] {
            let ra = BitmapRepr::from_bitmap(a.clone(), policy);
            let rb = BitmapRepr::from_bitmap(b.clone(), policy);
            let and = BitmapRepr::and_many_owned(vec![ra.clone(), rb]);
            assert_eq!(and.to_plain(), a.and(&b), "{policy:?}");
            assert_eq!(
                and.iter_ones().collect::<Vec<_>>(),
                a.and(&b).iter_ones().collect::<Vec<_>>(),
                "{policy:?}"
            );
            assert_eq!(ra.count_ones(), a.count_ones());
            assert_eq!(ra.len(), n);
            assert!(!ra.is_empty());
        }
    }

    #[test]
    fn mixed_operands_fall_back_to_plain() {
        // Every operand mix — plain × WAH, WAH × roaring, and all-WAH or
        // all-roaring alike — folds into one plain bitmap.
        let n = 8_000;
        let (a, b) = (sparse(n), mid_random(n));
        let expected = Bitmap::and_many(&[&a, &b]);
        let wah = |x: &Bitmap| BitmapRepr::from_bitmap(x.clone(), RepresentationPolicy::Wah);
        let roaring =
            |x: &Bitmap| BitmapRepr::from_bitmap(x.clone(), RepresentationPolicy::Roaring);
        let plain = |x: &Bitmap| BitmapRepr::Plain(x.clone());
        for (mix, operands) in [
            vec![wah(&a), plain(&b)],
            vec![wah(&a), roaring(&b)],
            vec![wah(&a), wah(&b)],
            vec![roaring(&a), roaring(&b)],
        ]
        .into_iter()
        .enumerate()
        {
            let and = BitmapRepr::and_many_owned(operands);
            assert_eq!(and, BitmapRepr::Plain(expected.clone()), "mix {mix}");
        }
    }

    #[test]
    fn stats_accumulate_and_measure_compression() {
        let n = 100_000;
        let mut stats = ReprStats::default();
        assert_eq!(stats.compression_ratio(), 1.0);
        let policy = RepresentationPolicy::default();
        stats.absorb(&BitmapRepr::from_bitmap(sparse(n), policy));
        stats.absorb(&BitmapRepr::from_bitmap(mid_random(n), policy));
        stats.absorb(&BitmapRepr::from_bitmap(Bitmap::ones(n), policy));
        assert_eq!(stats.bitmaps, 3);
        assert_eq!(stats.compressed, 2);
        assert_eq!(stats.compressed, stats.wah + stats.roaring);
        assert_eq!(stats.roaring, 1); // scattered-sparse → array containers
        assert_eq!(stats.wah, 1); // all-one → one-fill words
        assert!(stats.size_bytes < stats.plain_size_bytes);
        assert!(stats.compression_ratio() > 1.0);

        let mut merged = ReprStats::default();
        merged.merge(stats);
        merged.merge(stats);
        assert_eq!(merged.bitmaps, 6);
        assert_eq!(merged.wah, 2 * stats.wah);
        assert_eq!(merged.roaring, 2 * stats.roaring);
        assert_eq!(merged.plain_size_bytes, 2 * stats.plain_size_bytes);
    }

    #[test]
    fn and_into_covers_every_roaring_container() {
        // Chunk 0 scattered (bitset), chunk 1 sparse (array), chunk 2 one
        // clustered run (runs), chunk 3 partial and empty.
        let n = 3 * 65_536 + 1_000;
        let b = Bitmap::from_positions(
            n,
            (0..65_536)
                .filter(|i| i % 7 == 0)
                .chain((65_536..131_072).step_by(1_001))
                .chain(140_000..150_001),
        );
        let roaring = RoaringBitmap::compress(&b);
        assert_eq!(roaring.container_kinds(), vec!['b', 'a', 'r', 'a']);
        let base = Bitmap::from_positions(n, (0..n).filter(|i| i % 3 != 0));
        for negate in [false, true] {
            let operand = if negate { b.not() } else { b.clone() };
            for repr in [
                BitmapRepr::Plain(b.clone()),
                BitmapRepr::Wah(WahBitmap::compress(&b)),
                BitmapRepr::Roaring(roaring.clone()),
            ] {
                let mut out = base.clone();
                repr.and_into(&mut out, negate);
                assert_eq!(out, base.and(&operand), "negate={negate} {repr:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_into_rejects_length_mismatch() {
        let repr = BitmapRepr::Plain(Bitmap::new(10));
        repr.and_into(&mut Bitmap::ones(11), false);
    }

    #[test]
    #[should_panic(expected = "at least one bitmap")]
    fn and_many_rejects_empty_input() {
        let _ = BitmapRepr::and_many_owned(vec![]);
    }

    #[test]
    fn try_and_many_reports_empty_input_instead_of_panicking() {
        assert_eq!(BitmapRepr::try_and_many_owned(vec![]), None);
        let a = BitmapRepr::Plain(Bitmap::from_positions(16, [1, 5, 9]));
        let b = BitmapRepr::Plain(Bitmap::from_positions(16, [5, 9, 12]));
        let expected = BitmapRepr::and_many_owned(vec![a.clone(), b.clone()]);
        assert_eq!(BitmapRepr::try_and_many_owned(vec![a, b]), Some(expected));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Lengths around every boundary an in-place AND kernel can get wrong:
    /// empty, one bit, a WAH group (63) and a word (64) either side, two
    /// groups, a fragment-sized 1 800, one roaring chunk and several.
    const AND_INTO_LENS: [usize; 12] = [
        0, 1, 63, 64, 65, 126, 127, 1_800, 65_536, 65_537, 70_001, 140_000,
    ];

    proptest! {
        /// The chooser never loses information and the adaptive form is
        /// never larger than the plain one.
        #[test]
        fn prop_chooser_is_lossless_and_never_larger(
            len in 0usize..2_000,
            run_start in 0usize..2_000,
            run_len in 0usize..2_000,
            shape in 0u8..4,
            seed in 0u64..1_000,
        ) {
            let bitmap = crate::test_shapes::shaped_bitmap(len, shape, run_start, run_len, seed);
            let adaptive = BitmapRepr::from_bitmap(bitmap.clone(), RepresentationPolicy::default());
            prop_assert_eq!(adaptive.to_plain(), bitmap.clone());
            prop_assert!(adaptive.size_bytes() <= bitmap.size_bytes());
            prop_assert_eq!(adaptive.count_ones(), bitmap.count_ones());
            let forced = BitmapRepr::from_bitmap(bitmap.clone(), RepresentationPolicy::Wah);
            prop_assert_eq!(forced.to_plain(), bitmap.clone());
            let forced = BitmapRepr::from_bitmap(bitmap.clone(), RepresentationPolicy::Roaring);
            prop_assert_eq!(forced.to_plain(), bitmap);
        }

        /// `and_into`, with and without `negate`, equals the plain `and`
        /// of the operand or of its complement for all three forms: at
        /// word (64) and WAH group (63) boundaries, on a page-sized bitmap
        /// and across several roaring chunks (array, bitset and run
        /// containers), into every shape of accumulator.
        #[test]
        fn prop_and_into_matches_plain_and(
            len_idx in 0usize..AND_INTO_LENS.len(),
            shape_out in 0u8..4,
            shape in 0u8..4,
            run_start in 0usize..140_000,
            run_len in 0usize..140_000,
            seed in 0u64..1_000,
        ) {
            let len = AND_INTO_LENS[len_idx];
            let (start, run) = (run_start % (len + 1), run_len % (len + 1));
            let out = crate::test_shapes::shaped_bitmap(len, shape_out, run, start, seed ^ 0x33);
            let b = crate::test_shapes::shaped_bitmap(len, shape, start, run, seed);
            let reprs = [
                BitmapRepr::Plain(b.clone()),
                BitmapRepr::Wah(WahBitmap::compress(&b)),
                BitmapRepr::Roaring(RoaringBitmap::compress(&b)),
            ];
            for negate in [false, true] {
                let expected = out.and(&if negate { b.not() } else { b.clone() });
                for repr in &reprs {
                    let mut got = out.clone();
                    repr.and_into(&mut got, negate);
                    prop_assert_eq!(&got, &expected, "negate={} {:?}", negate, repr);
                }
            }
        }

        /// `and_many_owned` agrees bit-for-bit across all three forced
        /// representations and the adaptive chooser, and always lands in
        /// the plain form.
        #[test]
        fn prop_and_agrees_across_representations(
            len in 0usize..1_500,
            run_start in 0usize..1_500,
            run_len in 0usize..1_500,
            shape_a in 0u8..4,
            shape_b in 0u8..4,
            seed in 0u64..1_000,
        ) {
            let a = crate::test_shapes::shaped_bitmap(len, shape_a, run_start, run_len, seed);
            let b = crate::test_shapes::shaped_bitmap(len, shape_b, run_len, run_start, seed ^ 0x5a);
            let expected = BitmapRepr::Plain(Bitmap::and_many(&[&a, &b]));
            for policy in [
                RepresentationPolicy::Plain,
                RepresentationPolicy::Wah,
                RepresentationPolicy::Roaring,
                RepresentationPolicy::default(),
            ] {
                let ra = BitmapRepr::from_bitmap(a.clone(), policy);
                let rb = BitmapRepr::from_bitmap(b.clone(), policy);
                let and = BitmapRepr::and_many_owned(vec![ra, rb]);
                prop_assert_eq!(&and, &expected, "{:?}", policy);
            }
        }
    }
}
