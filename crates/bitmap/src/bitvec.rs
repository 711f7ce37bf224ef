//! Uncompressed bitmaps.
//!
//! One bit per fact row.  The operations mirror what star-join processing
//! needs: AND (intersect selections), NOT, population count and iteration
//! over matching row numbers.

/// Unroll width of the word kernels below.
///
/// The MSRV (1.87) predates `std::simd`, so the hot loops are written as
/// explicitly 4×-unrolled scalar loops over [`slice::chunks_exact`]: four
/// independent 64-bit lanes per iteration give LLVM a straight-line body it
/// autovectorizes to 256-bit vector ops in release builds, while the
/// `chunks_exact` shape eliminates bounds checks.  Verified to vectorize on
/// x86-64 (`vpand` over `ymm`) at the default release opt-level.
const UNROLL: usize = 4;

/// In-place bitwise AND over raw word slices: `dst[i] &= src[i]`.
///
/// 4×-unrolled with a scalar tail; shared by [`Bitmap`] and the roaring
/// bitset containers ([`crate::roaring`]).
pub(crate) fn and_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "kernel word-count mismatch");
    let mut d = dst.chunks_exact_mut(UNROLL);
    let mut s = src.chunks_exact(UNROLL);
    for (dw, sw) in d.by_ref().zip(s.by_ref()) {
        let ([d0, d1, d2, d3], [s0, s1, s2, s3]) = (dw, sw) else {
            unreachable!("chunks_exact yields exact chunks")
        };
        *d0 &= *s0;
        *d1 &= *s1;
        *d2 &= *s2;
        *d3 &= *s3;
    }
    for (dw, sw) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dw &= *sw;
    }
}

/// In-place two-operand AND over raw word slices: `dst[i] &= a[i] & b[i]`.
///
/// Folding two operands per pass halves the number of times `dst` streams
/// through the cache hierarchy in a multi-way intersection — the difference
/// between k-1 and ⌈(k-1)/2⌉ full passes for a k-way AND.
pub(crate) fn and2_words(dst: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(dst.len(), a.len(), "kernel word-count mismatch");
    debug_assert_eq!(dst.len(), b.len(), "kernel word-count mismatch");
    let mut d = dst.chunks_exact_mut(UNROLL);
    let mut x = a.chunks_exact(UNROLL);
    let mut y = b.chunks_exact(UNROLL);
    for ((dw, xw), yw) in d.by_ref().zip(x.by_ref()).zip(y.by_ref()) {
        let (([d0, d1, d2, d3], [x0, x1, x2, x3]), [y0, y1, y2, y3]) = ((dw, xw), yw) else {
            unreachable!("chunks_exact yields exact chunks")
        };
        *d0 &= *x0 & *y0;
        *d1 &= *x1 & *y1;
        *d2 &= *x2 & *y2;
        *d3 &= *x3 & *y3;
    }
    for ((dw, xw), yw) in d
        .into_remainder()
        .iter_mut()
        .zip(x.remainder())
        .zip(y.remainder())
    {
        *dw &= *xw & *yw;
    }
}

/// Fused construct-and-AND over raw word slices: returns `a[i] & b[i]` as a
/// fresh vector, writing each word exactly once (no clone-then-AND pass).
/// The exact-size zip lowers to the same autovectorized straight-line body
/// as the unrolled kernels.
pub(crate) fn and2_new(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert_eq!(a.len(), b.len(), "kernel word-count mismatch");
    a.iter().zip(b).map(|(x, y)| x & y).collect()
}

/// In-place AND of raw words or of their complement: `dst[i] &= src[i]`,
/// or `dst[i] &= !src[i]` with `negate`.  The zip stops at the shorter
/// slice, so a bitset container may feed a final chunk shorter than itself.
/// The bitmap kinds' `and_into` kernels share it.
pub(crate) fn and_into_words(dst: &mut [u64], src: &[u64], negate: bool) {
    if negate {
        for (d, s) in dst.iter_mut().zip(src) {
            *d &= !s;
        }
    } else {
        for (d, s) in dst.iter_mut().zip(src) {
            *d &= s;
        }
    }
}

/// Clears bits `start..end` of a raw word slice (an empty range clears
/// nothing; bits past the slice are ignored): whole words are zeroed, the
/// partial first and last words masked.
pub(crate) fn clear_bit_range(words: &mut [u64], start: usize, end: usize) {
    let end = end.min(words.len() * 64);
    if start >= end {
        return;
    }
    let (first, last) = (start / 64, (end - 1) / 64);
    let head = !0u64 << (start % 64);
    let tail = !0u64 >> (63 - (end - 1) % 64);
    match words.get_mut(first..=last) {
        Some([only]) => *only &= !(head & tail),
        Some([first, middle @ .., last]) => {
            *first &= !head;
            middle.fill(0);
            *last &= !tail;
        }
        _ => {}
    }
}

/// Population count over raw words, 4×-unrolled into four independent
/// accumulators (breaks the loop-carried dependency of a single running sum).
pub(crate) fn popcount_words(words: &[u64]) -> usize {
    let mut chunks = words.chunks_exact(UNROLL);
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for w in chunks.by_ref() {
        let [w0, w1, w2, w3] = w else {
            unreachable!("chunks_exact yields exact chunks")
        };
        c0 += w0.count_ones() as usize;
        c1 += w1.count_ones() as usize;
        c2 += w2.count_ones() as usize;
        c3 += w3.count_ones() as usize;
    }
    let tail: usize = chunks
        .remainder()
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum();
    c0 + c1 + c2 + c3 + tail
}

/// A fixed-length, uncompressed bitmap (one bit per fact row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    len: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-zero bitmap covering `len` rows.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Bitmap {
            len,
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Creates an all-one bitmap covering `len` rows.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap::new(0);
        b.reset_ones(len);
        b
    }

    /// Makes this an all-one bitmap covering `len` rows, reusing the word
    /// buffer: no allocation once the buffer has held `len` rows.  The
    /// engine's per-worker selection scratch is reset this way per task.
    pub fn reset_ones(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), !0u64);
        self.clear_tail();
    }

    /// ANDs this bitmap — or, with `negate`, its complement — into `out`
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub(crate) fn and_into(&self, out: &mut Bitmap, negate: bool) {
        assert_eq!(self.len, out.len, "bitmap length mismatch");
        // `out`'s tail bits are clear, so the complement's set tail bits
        // cannot leak past `len`.
        and_into_words(&mut out.words, &self.words, negate);
    }

    /// Builds a bitmap from an iterator of set-bit positions.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    #[must_use]
    pub fn from_positions(len: usize, positions: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Bitmap::new(len);
        for p in positions {
            b.set(p, true);
        }
        b
    }

    fn clear_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Number of rows covered by the bitmap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "bit index {idx} out of range ({})",
            self.len
        );
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets bit `idx` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(
            idx < self.len,
            "bit index {idx} out of range ({})",
            self.len
        );
        let mask = 1u64 << (idx % 64);
        if value {
            self.words[idx / 64] |= mask;
        } else {
            self.words[idx / 64] &= !mask;
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        popcount_words(&self.words)
    }

    /// True if no bit is set.
    #[must_use]
    pub fn is_all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Bitwise AND with another bitmap of the same length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            len: self.len,
            words: and2_new(&self.words, &other.words),
        }
    }

    /// Multi-way intersection: ANDs all `bitmaps` together with the unrolled
    /// kernels — a fused construct-and-AND pass builds the accumulator from
    /// the first two operands, then the remaining operands fold in two per
    /// memory pass.  This is the hot operation of star-join selection, where
    /// one bitmap per predicate is intersected.
    ///
    /// An intersection of *zero* operands has no defined result length (its
    /// neutral element would be an all-one bitmap of unknown length) — use
    /// [`Bitmap::try_and_many`] when the operand list may be empty.
    ///
    /// # Panics
    ///
    /// Panics if `bitmaps` is empty or the lengths differ.
    #[must_use]
    pub fn and_many(bitmaps: &[&Bitmap]) -> Bitmap {
        let Some(result) = Self::try_and_many(bitmaps) else {
            panic!(
                "Bitmap::and_many of zero operands has no defined length \
                 (the neutral element would be Bitmap::ones of unknown size); \
                 pass at least one bitmap or use try_and_many"
            )
        };
        result
    }

    /// Multi-way intersection that reports the empty-operand case instead of
    /// panicking: returns `None` for an empty slice (the intersection of
    /// nothing is all-ones of *unknown* length and cannot be represented).
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    #[must_use]
    pub fn try_and_many(bitmaps: &[&Bitmap]) -> Option<Bitmap> {
        let (&first, rest) = bitmaps.split_first()?;
        let Some((&second, more)) = rest.split_first() else {
            return Some(first.clone());
        };
        assert_eq!(first.len, second.len, "bitmap length mismatch");
        let mut acc = Bitmap {
            len: first.len,
            words: and2_new(&first.words, &second.words),
        };
        acc.and_assign_many(more);
        Some(acc)
    }

    /// In-place bitwise AND (4×-unrolled kernel).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        and_words(&mut self.words, &other.words);
    }

    /// In-place multi-way AND: folds all `others` into `self` with the
    /// unrolled kernels, two operands per pass plus one single-operand pass
    /// for an odd trailing operand.  Unlike
    /// [`Bitmap::and_many`] this allocates nothing; it builds
    /// [`Bitmap::and_many`]'s result past the first two operands.
    ///
    /// # Panics
    ///
    /// Panics if any length differs.
    pub fn and_assign_many(&mut self, others: &[&Bitmap]) {
        assert!(
            others.iter().all(|b| b.len == self.len),
            "bitmap length mismatch"
        );
        let mut pairs = others.chunks_exact(2);
        for pair in pairs.by_ref() {
            let [a, b] = pair else {
                unreachable!("chunks_exact yields exact chunks")
            };
            and2_words(&mut self.words, &a.words, &b.words);
        }
        if let [last] = pairs.remainder() {
            and_words(&mut self.words, &last.words);
        }
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

    /// Bitwise complement (within the bitmap's length).
    #[must_use]
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            len: self.len,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.clear_tail();
        out
    }

    /// Iterates over the positions of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Size of the uncompressed representation in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Access to the underlying words (for compression).
    #[must_use]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the underlying words (for decompression).  Callers
    /// must preserve the tail invariant (bits beyond `len` stay zero).
    #[must_use]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Rebuilds a bitmap from its raw words (the serialization decode path).
    /// Tail bits beyond `len` are cleared to restore the invariant.
    ///
    /// # Panics
    ///
    /// Panics if the word count does not match `len`.
    #[must_use]
    pub(crate) fn from_words(len: usize, words: Vec<u64>) -> Bitmap {
        assert_eq!(words.len(), len.div_ceil(64), "bitmap word-count mismatch");
        let mut b = Bitmap { len, words };
        b.clear_tail();
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        assert!(b.is_all_zero());
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn ones_and_not_respect_length() {
        let b = Bitmap::ones(70);
        assert_eq!(b.count_ones(), 70);
        let z = b.not();
        assert!(z.is_all_zero());
        assert_eq!(z.not().count_ones(), 70);
    }

    #[test]
    fn reset_ones_reuses_the_buffer_at_any_length() {
        let mut b = Bitmap::from_positions(200, [3, 150]);
        for len in [70usize, 0, 1, 64, 200, 65] {
            b.reset_ones(len);
            assert_eq!(b, Bitmap::new(len).not(), "len={len}");
            assert_eq!(b.count_ones(), len);
        }
    }

    #[test]
    fn boolean_operations() {
        let a = Bitmap::from_positions(10, [1, 3, 5, 7]);
        let b = Bitmap::from_positions(10, [3, 4, 5, 6]);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![3, 5]);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c, a.and(&b));
        assert_eq!(
            a.not().iter_ones().collect::<Vec<_>>(),
            vec![0, 2, 4, 6, 8, 9]
        );
    }

    #[test]
    fn and_many_matches_chained_and() {
        let a = Bitmap::from_positions(200, (0..200).filter(|i| i % 2 == 0));
        let b = Bitmap::from_positions(200, (0..200).filter(|i| i % 3 == 0));
        let c = Bitmap::from_positions(200, (0..200).filter(|i| i % 5 == 0));
        assert_eq!(Bitmap::and_many(&[&a, &b, &c]), a.and(&b).and(&c));
        assert_eq!(Bitmap::and_many(&[&a]), a);
        assert_eq!(
            Bitmap::and_many(&[&a, &b, &c])
                .iter_ones()
                .collect::<Vec<_>>(),
            (0..200usize).filter(|i| i % 30 == 0).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "at least one bitmap")]
    fn and_many_rejects_empty_input() {
        let _ = Bitmap::and_many(&[]);
    }

    #[test]
    fn try_and_many_reports_empty_input_instead_of_panicking() {
        assert_eq!(Bitmap::try_and_many(&[]), None);
        let a = Bitmap::from_positions(100, [1, 50, 99]);
        let b = Bitmap::from_positions(100, [1, 99]);
        assert_eq!(Bitmap::try_and_many(&[&a, &b]), Some(a.and(&b)));
        assert_eq!(Bitmap::try_and_many(&[&a]), Some(a));
    }

    #[test]
    fn unrolled_kernels_handle_non_multiple_of_four_word_counts() {
        // 7 words = one full 4-word chunk + a 3-word scalar tail, and the
        // last word is also partial whenever len % 64 != 0.
        for len in [0usize, 1, 63, 64, 65, 256, 257, 448, 449] {
            let a = Bitmap::from_positions(len, (0..len).filter(|i| i % 3 == 0));
            let b = Bitmap::from_positions(len, (0..len).filter(|i| i % 4 == 0));
            let and_expected: Vec<usize> = (0..len).filter(|i| i % 12 == 0).collect();
            assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), and_expected);
            assert_eq!(a.count_ones(), len.div_ceil(3));
        }
    }

    #[test]
    fn and_assign_many_matches_and_many() {
        let a = Bitmap::from_positions(200, (0..200).filter(|i| i % 2 == 0));
        let b = Bitmap::from_positions(200, (0..200).filter(|i| i % 3 == 0));
        let c = Bitmap::from_positions(200, (0..200).filter(|i| i % 5 == 0));
        let mut acc = a.clone();
        acc.and_assign_many(&[&b, &c]);
        assert_eq!(acc, Bitmap::and_many(&[&a, &b, &c]));
        let mut unchanged = a.clone();
        unchanged.and_assign_many(&[]);
        assert_eq!(unchanged, a);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_assign_many_rejects_length_mismatch() {
        let mut a = Bitmap::new(10);
        let b = Bitmap::new(11);
        a.and_assign_many(&[&b]);
    }

    #[test]
    fn density_is_fraction_of_ones() {
        assert_eq!(Bitmap::new(0).density(), 0.0);
        assert_eq!(Bitmap::ones(64).density(), 1.0);
        assert!((Bitmap::from_positions(100, 0..25).density() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_many_rejects_length_mismatch() {
        let a = Bitmap::new(10);
        let b = Bitmap::new(11);
        let _ = Bitmap::and_many(&[&a, &b]);
    }

    #[test]
    fn iter_ones_in_order() {
        let positions = vec![0, 63, 64, 65, 127, 128, 199];
        let b = Bitmap::from_positions(200, positions.clone());
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), positions);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert!(b.is_all_zero());
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn size_bytes() {
        assert_eq!(Bitmap::new(64).size_bytes(), 8);
        assert_eq!(Bitmap::new(65).size_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let _ = Bitmap::new(10).get(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let _ = Bitmap::new(10).and(&Bitmap::new(11));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bitmap(len: usize) -> impl Strategy<Value = Bitmap> {
        proptest::collection::vec(proptest::bool::ANY, len).prop_map(move |bits| {
            let mut b = Bitmap::new(len);
            for (i, bit) in bits.into_iter().enumerate() {
                b.set(i, bit);
            }
            b
        })
    }

    proptest! {
        /// AND is an intersection of set-bit positions.
        #[test]
        fn prop_and_set_semantics(a in arb_bitmap(150), b in arb_bitmap(150)) {
            use std::collections::BTreeSet;
            let sa: BTreeSet<_> = a.iter_ones().collect();
            let sb: BTreeSet<_> = b.iter_ones().collect();
            let and: BTreeSet<_> = a.and(&b).iter_ones().collect();
            prop_assert_eq!(and, sa.intersection(&sb).copied().collect::<BTreeSet<_>>());
        }

        /// and_many over any stack of bitmaps equals the left fold of binary
        /// ANDs, including the tail-word invariant.
        #[test]
        fn prop_and_many_is_fold_of_and(
            a in arb_bitmap(170), b in arb_bitmap(170), c in arb_bitmap(170)
        ) {
            let folded = a.and(&b).and(&c);
            prop_assert_eq!(Bitmap::and_many(&[&a, &b, &c]), folded.clone());
            prop_assert_eq!(folded.count_ones(), Bitmap::and_many(&[&c, &b, &a]).count_ones());
        }

        /// count_ones matches iter_ones length; complement counts are exact.
        #[test]
        fn prop_counts(a in arb_bitmap(173)) {
            prop_assert_eq!(a.count_ones(), a.iter_ones().count());
            prop_assert_eq!(a.count_ones() + a.not().count_ones(), 173);
        }
    }
}
