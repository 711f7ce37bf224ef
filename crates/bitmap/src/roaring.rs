//! Roaring-style hybrid bitmap containers.
//!
//! The bitmap is split into 64 Ki-bit *chunks* and every chunk is stored in
//! whichever of three container forms encodes it smallest — the classic
//! RoaringBitmap design adapted to this crate's fixed-length bitmaps:
//!
//! * **Array** — a sorted `u16` array of set positions (2 bytes per set
//!   bit): wins for sparse chunks (fewer than 4 096 set bits),
//! * **Bitset** — a verbatim 1 024-word (8 KiB) bitset: wins for dense
//!   mid-entropy chunks where neither positions nor runs compress,
//! * **Runs** — a list of inclusive `(start, end)` runs (4 bytes per run):
//!   wins for clustered chunks (hierarchy ranges, fragment-aligned
//!   selections, all-zero / all-one chunks).
//!
//! Container selection is *canonical*: `select_kind` picks the minimal
//! encoding (ties prefer Array, then Runs) from the chunk's exact
//! cardinality and run count, and deserialization re-canonicalises every
//! container, so structural equality coincides with logical equality — the
//! same guarantee [`crate::wah`] gives for WAH.
//!
//! Counting and iteration work *directly on the containers*, and the one
//! Boolean operation is the in-place AND into a plain bitmap that
//! star-join selection folds every predicate through
//! ([`crate::BitmapRepr::and_into`]): each container ANDs into its own
//! 1 024-word chunk of the accumulator — an array keeps only its listed
//! bits, a run list clears the gaps between its runs, a bitset ANDs word
//! by word.  Nothing round-trips through a plain decompress.

use crate::bitvec::{self, Bitmap};
use crate::encoding::{Cursor, ReprDecodeError};

/// Bits covered by one container.
pub(crate) const CHUNK_BITS: usize = 1 << 16;
/// Words of a bitset container.
const CHUNK_WORDS: usize = CHUNK_BITS / 64;
/// Encoded payload size of a bitset container.
const BITSET_BYTES: usize = CHUNK_WORDS * 8;
/// Per-container header in [`RoaringBitmap::size_bytes`] accounting and in
/// the serialized form: a 1-byte kind tag plus a 4-byte element count.
const CONTAINER_HEADER_BYTES: usize = 5;
/// Fixed header of the bitmap itself (length + container count bookkeeping).
const BITMAP_HEADER_BYTES: usize = 16;

/// One 64 Ki-bit chunk in its canonical container form.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Sorted, duplicate-free positions within the chunk.
    Array(Vec<u16>),
    /// Verbatim 1 024-word bitset.
    Bitset(Box<[u64; CHUNK_WORDS]>),
    /// Sorted, disjoint, non-adjacent inclusive runs.
    Runs(Vec<(u16, u16)>),
}

/// Which container form [`select_kind`] chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Array,
    Bitset,
    Runs,
}

/// Canonical container choice: minimal encoded payload, ties preferring
/// Array (cheapest to intersect), then Runs, then Bitset.
fn select_kind(card: u32, runs: u32) -> Kind {
    let array_bytes = 2 * card as usize;
    let run_bytes = 4 * runs as usize;
    let mut best = (array_bytes, Kind::Array);
    if run_bytes < best.0 {
        best = (run_bytes, Kind::Runs);
    }
    if BITSET_BYTES < best.0 {
        best = (BITSET_BYTES, Kind::Bitset);
    }
    best.1
}

/// Cardinality and run count of raw chunk words, in one pass.  A run starts
/// at every set bit whose predecessor (across word boundaries) is clear.
fn word_stats(words: &[u64]) -> (u32, u32) {
    let mut card = 0u32;
    let mut runs = 0u32;
    let mut prev_msb = 0u64;
    for &w in words {
        card += w.count_ones();
        runs += (w & !((w << 1) | prev_msb)).count_ones();
        prev_msb = w >> 63;
    }
    (card, runs)
}

/// Applies `f(word_index, mask)` for every word the inclusive run
/// `start..=end` overlaps, with `mask` covering exactly the run's bits in
/// that word.
fn for_run_words(start: u16, end: u16, mut f: impl FnMut(usize, u64)) {
    let (s, e) = (start as usize, end as usize);
    let (ws, we) = (s / 64, e / 64);
    for wi in ws..=we {
        let lo = if wi == ws { s % 64 } else { 0 };
        let hi = if wi == we { e % 64 } else { 63 };
        let width = hi - lo + 1;
        let mask = if width == 64 {
            !0u64
        } else {
            ((1u64 << width) - 1) << lo
        };
        f(wi, mask);
    }
}

/// Extracts the sorted set positions of raw chunk words.
fn array_from_words(words: &[u64]) -> Vec<u16> {
    let mut out = Vec::new();
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            out.push((wi * 64 + bit) as u16);
        }
    }
    out
}

/// Extracts the maximal runs of raw chunk words, word-at-a-time (no
/// per-bit loop for long runs).
fn runs_from_words(words: &[u64]) -> Vec<(u16, u16)> {
    let mut out: Vec<(u16, u16)> = Vec::new();
    for (wi, &word) in words.iter().enumerate() {
        let base = (wi * 64) as u32;
        let mut w = word;
        while w != 0 {
            let tz = w.trailing_zeros();
            let ones = (w >> tz).trailing_ones();
            let start = base + tz;
            let end = start + ones - 1;
            match out.last_mut() {
                Some(last) if u32::from(last.1) + 1 == start => last.1 = end as u16,
                _ => out.push((start as u16, end as u16)),
            }
            if tz + ones >= 64 {
                w = 0;
            } else {
                w &= !(((1u64 << ones) - 1) << tz);
            }
        }
    }
    out
}

/// A fresh all-zero bitset container payload.
fn zero_words() -> Box<[u64; CHUNK_WORDS]> {
    // Box the zeroed vec rather than a stack array so debug builds (and
    // Miri) never move 8 KiB through the stack.
    let words: Box<[u64]> = vec![0u64; CHUNK_WORDS].into_boxed_slice();
    match words.try_into() {
        Ok(array) => array,
        Err(_) => unreachable!("vec of CHUNK_WORDS words converts exactly"),
    }
}

/// Run count of a sorted duplicate-free position array.
fn runs_in_sorted(values: &[u16]) -> u32 {
    let mut runs = 0u32;
    // The value that would extend the current run; None before the first
    // value and after a run ending at 65535.
    let mut continuation: Option<u16> = None;
    for &v in values {
        if continuation != Some(v) {
            runs += 1;
        }
        continuation = v.checked_add(1);
    }
    runs
}

impl Container {
    /// Canonical container for raw chunk words (zero-padded conceptually:
    /// `words` may be shorter than [`CHUNK_WORDS`] for the last chunk).
    fn from_words(words: &[u64]) -> Container {
        let (card, runs) = word_stats(words);
        match select_kind(card, runs) {
            Kind::Array => Container::Array(array_from_words(words)),
            Kind::Runs => Container::Runs(runs_from_words(words)),
            Kind::Bitset => {
                let mut out = zero_words();
                out[..words.len()].copy_from_slice(words);
                Container::Bitset(out)
            }
        }
    }

    /// Canonical container for a sorted duplicate-free position array.
    fn from_sorted(values: Vec<u16>) -> Container {
        let card = values.len() as u32;
        match select_kind(card, runs_in_sorted(&values)) {
            Kind::Array => Container::Array(values),
            Kind::Runs => {
                let mut runs: Vec<(u16, u16)> = Vec::new();
                for v in values {
                    match runs.last_mut() {
                        Some(last) if u32::from(last.1) + 1 == u32::from(v) => last.1 = v,
                        _ => runs.push((v, v)),
                    }
                }
                Container::Runs(runs)
            }
            Kind::Bitset => {
                let mut out = zero_words();
                for v in values {
                    out[v as usize / 64] |= 1u64 << (v % 64);
                }
                Container::Bitset(out)
            }
        }
    }

    /// Canonical container for sorted, disjoint, non-adjacent runs.
    fn from_runs(runs: Vec<(u16, u16)>) -> Container {
        let card: u32 = runs
            .iter()
            .map(|&(s, e)| u32::from(e) - u32::from(s) + 1)
            .sum();
        match select_kind(card, runs.len() as u32) {
            Kind::Runs => Container::Runs(runs),
            Kind::Array => {
                let mut out = Vec::with_capacity(card as usize);
                for (s, e) in runs {
                    out.extend((u32::from(s)..=u32::from(e)).map(|v| v as u16));
                }
                Container::Array(out)
            }
            Kind::Bitset => {
                let mut out = zero_words();
                for (s, e) in runs {
                    for_run_words(s, e, |wi, mask| out[wi] |= mask);
                }
                Container::Bitset(out)
            }
        }
    }

    /// Set bits in this container.
    fn count_ones(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitset(w) => bitvec::popcount_words(&w[..]),
            Container::Runs(r) => r
                .iter()
                .map(|&(s, e)| (u32::from(e) - u32::from(s) + 1) as usize)
                .sum(),
        }
    }

    /// Encoded payload bytes (excluding the per-container header).
    fn payload_bytes(&self) -> usize {
        match self {
            Container::Array(v) => 2 * v.len(),
            Container::Bitset(_) => BITSET_BYTES,
            Container::Runs(r) => 4 * r.len(),
        }
    }

    /// ANDs this container — or, with `negate`, its complement — into the
    /// words of its chunk.  The chunk may be shorter than [`CHUNK_WORDS`]
    /// (the final one); a canonical container sets no bit past it.
    fn and_into(&self, words: &mut [u64], negate: bool) {
        match self {
            Container::Bitset(w) => bitvec::and_into_words(words, w.as_slice(), negate),
            Container::Array(values) if negate => {
                for &p in values {
                    if let Some(word) = words.get_mut(usize::from(p / 64)) {
                        *word &= !(1u64 << (p % 64));
                    }
                }
            }
            Container::Array(values) => {
                // Keep only the listed bits: every word between two
                // populated words is zeroed, each populated word masked.
                let mut next = 0usize;
                for same_word in values.chunk_by(|a, b| a / 64 == b / 64) {
                    let Some(&first) = same_word.first() else {
                        continue;
                    };
                    let wi = usize::from(first / 64);
                    let keep = same_word.iter().fold(0u64, |m, &p| m | 1u64 << (p % 64));
                    bitvec::clear_bit_range(words, next * 64, wi * 64);
                    if let Some(word) = words.get_mut(wi) {
                        *word &= keep;
                    }
                    next = wi + 1;
                }
                bitvec::clear_bit_range(words, next * 64, CHUNK_BITS);
            }
            Container::Runs(runs) if negate => {
                for &(s, e) in runs {
                    bitvec::clear_bit_range(words, usize::from(s), usize::from(e) + 1);
                }
            }
            Container::Runs(runs) => {
                let mut next = 0usize;
                for &(s, e) in runs {
                    bitvec::clear_bit_range(words, next, usize::from(s));
                    next = usize::from(e) + 1;
                }
                bitvec::clear_bit_range(words, next, CHUNK_BITS);
            }
        }
    }
}

/// A roaring-style compressed bitmap: one canonical container per
/// 64 Ki-bit chunk of a fixed-length bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoaringBitmap {
    len: usize,
    containers: Vec<Container>,
}

impl RoaringBitmap {
    /// Compresses an uncompressed bitmap.
    #[must_use]
    pub fn compress(bitmap: &Bitmap) -> Self {
        let len = bitmap.len();
        let words = bitmap.words();
        let chunks = len.div_ceil(CHUNK_BITS);
        let mut containers = Vec::with_capacity(chunks);
        for c in 0..chunks {
            let start = c * CHUNK_WORDS;
            let end = (start + CHUNK_WORDS).min(words.len());
            containers.push(Container::from_words(&words[start..end]));
        }
        RoaringBitmap { len, containers }
    }

    /// Decompresses back into an uncompressed bitmap.
    #[must_use]
    pub fn decompress(&self) -> Bitmap {
        let mut out = Bitmap::ones(self.len);
        self.and_into(&mut out, false);
        out
    }

    /// ANDs this bitmap — or, with `negate`, its complement — into `out`
    /// in place, container by container over `out`'s 1 024-word chunks;
    /// nothing is decompressed or allocated.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub(crate) fn and_into(&self, out: &mut Bitmap, negate: bool) {
        assert_eq!(self.len, out.len(), "bitmap length mismatch");
        for (chunk, container) in out
            .words_mut()
            .chunks_mut(CHUNK_WORDS)
            .zip(&self.containers)
        {
            container.and_into(chunk, negate);
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

    /// Number of set bits (computed without decompression).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.containers.iter().map(Container::count_ones).sum()
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

    /// Size of the compressed representation in bytes: a fixed header plus
    /// a tag-and-count header and the payload per container.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        BITMAP_HEADER_BYTES
            + self
                .containers
                .iter()
                .map(|c| CONTAINER_HEADER_BYTES + c.payload_bytes())
                .sum::<usize>()
    }

    /// Iterates over set-bit positions in ascending order, directly over the
    /// containers.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.containers
            .iter()
            .enumerate()
            .flat_map(|(ci, container)| {
                let base = ci * CHUNK_BITS;
                container_ones(container).map(move |p| base + p as usize)
            })
    }

    /// Serializes into a self-describing byte stream (consumed by
    /// [`crate::encoding::encode_bitmap_repr`]).
    pub(crate) fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for container in &self.containers {
            match container {
                Container::Array(v) => {
                    out.push(0);
                    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    for &p in v {
                        out.extend_from_slice(&p.to_le_bytes());
                    }
                }
                Container::Bitset(w) => {
                    out.push(1);
                    out.extend_from_slice(&(CHUNK_WORDS as u32).to_le_bytes());
                    for word in w.iter() {
                        out.extend_from_slice(&word.to_le_bytes());
                    }
                }
                Container::Runs(r) => {
                    out.push(2);
                    out.extend_from_slice(&(r.len() as u32).to_le_bytes());
                    for &(s, e) in r {
                        out.extend_from_slice(&s.to_le_bytes());
                        out.extend_from_slice(&e.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Deserializes a stream produced by [`RoaringBitmap::write_bytes`],
    /// validating structure (sortedness, chunk ranges, the final-chunk
    /// length bound) and re-canonicalising each container so deserialized
    /// bitmaps compare equal to freshly built ones.
    pub(crate) fn read_bytes(bytes: &[u8]) -> Result<RoaringBitmap, ReprDecodeError> {
        let mut cursor = Cursor::new(bytes);
        let len = cursor.u64()? as usize;
        let chunks = len.div_ceil(CHUNK_BITS);
        let mut containers = Vec::with_capacity(chunks);
        for ci in 0..chunks {
            // Bits of the final chunk beyond `len` must stay clear.
            let chunk_limit = (len - ci * CHUNK_BITS).min(CHUNK_BITS) as u32;
            let tag = cursor.u8()?;
            let count = cursor.u32()? as usize;
            let container = match tag {
                0 => {
                    let mut values = Vec::with_capacity(count.min(CHUNK_BITS));
                    let mut prev: Option<u16> = None;
                    for _ in 0..count {
                        let v = cursor.u16()?;
                        if prev.is_some_and(|p| p >= v) || u32::from(v) >= chunk_limit {
                            return Err(ReprDecodeError::Malformed(
                                "unsorted or out-of-range array container",
                            ));
                        }
                        prev = Some(v);
                        values.push(v);
                    }
                    Container::from_sorted(values)
                }
                1 => {
                    if count != CHUNK_WORDS {
                        return Err(ReprDecodeError::Malformed("bitset container word count"));
                    }
                    let mut words = zero_words();
                    for word in words.iter_mut() {
                        *word = cursor.u64()?;
                    }
                    if any_bit_at_or_above(&words, chunk_limit) {
                        return Err(ReprDecodeError::Malformed(
                            "bitset container sets bits beyond len",
                        ));
                    }
                    Container::from_words(&words[..])
                }
                2 => {
                    let mut runs = Vec::with_capacity(count.min(CHUNK_BITS));
                    let mut prev_end: Option<u16> = None;
                    for _ in 0..count {
                        let s = cursor.u16()?;
                        let e = cursor.u16()?;
                        let disjoint = match prev_end {
                            // Adjacent runs must have been coalesced.
                            Some(p) => u32::from(s) > u32::from(p) + 1,
                            None => true,
                        };
                        if s > e || !disjoint || u32::from(e) >= chunk_limit {
                            return Err(ReprDecodeError::Malformed(
                                "unsorted or out-of-range run container",
                            ));
                        }
                        prev_end = Some(e);
                        runs.push((s, e));
                    }
                    Container::from_runs(runs)
                }
                other => return Err(ReprDecodeError::UnknownContainerTag(other)),
            };
            containers.push(container);
        }
        if !cursor.is_exhausted() {
            return Err(ReprDecodeError::Malformed(
                "trailing bytes after last container",
            ));
        }
        Ok(RoaringBitmap { len, containers })
    }

    /// The container kinds chosen per chunk, for tests and studies:
    /// `'a'` array, `'b'` bitset, `'r'` runs.
    #[must_use]
    pub fn container_kinds(&self) -> Vec<char> {
        self.containers
            .iter()
            .map(|c| match c {
                Container::Array(_) => 'a',
                Container::Bitset(_) => 'b',
                Container::Runs(_) => 'r',
            })
            .collect()
    }
}

/// True when any bit at position `limit` or above is set in the chunk.
fn any_bit_at_or_above(words: &[u64; CHUNK_WORDS], limit: u32) -> bool {
    let limit = limit as usize;
    let full = limit / 64;
    let rem = limit % 64;
    if full >= CHUNK_WORDS {
        return false;
    }
    if rem != 0 && (words[full] >> rem) != 0 {
        return true;
    }
    let rest_from = if rem == 0 { full } else { full + 1 };
    words[rest_from..].iter().any(|&w| w != 0)
}

/// Iterator over one container's set positions.
fn container_ones(container: &Container) -> ContainerOnes<'_> {
    match container {
        Container::Array(v) => ContainerOnes::Array(v.iter()),
        Container::Bitset(w) => ContainerOnes::Bitset {
            words: &w[..],
            word_idx: 0,
            current: w[0],
        },
        Container::Runs(r) => ContainerOnes::Runs {
            runs: r.iter(),
            pos: 1,
            end: 0,
        },
    }
}

/// See [`container_ones`].
enum ContainerOnes<'a> {
    Array(std::slice::Iter<'a, u16>),
    Bitset {
        words: &'a [u64],
        word_idx: usize,
        current: u64,
    },
    Runs {
        runs: std::slice::Iter<'a, (u16, u16)>,
        pos: u32,
        end: u32,
    },
}

impl Iterator for ContainerOnes<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerOnes::Array(iter) => iter.next().copied(),
            ContainerOnes::Bitset {
                words,
                word_idx,
                current,
            } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros() as usize;
                    *current &= *current - 1;
                    return Some((*word_idx * 64 + bit) as u16);
                }
                *word_idx += 1;
                let &w = words.get(*word_idx)?;
                *current = w;
            },
            ContainerOnes::Runs { runs, pos, end } => {
                if *pos <= *end {
                    let v = *pos as u16;
                    *pos += 1;
                    Some(v)
                } else {
                    let &(s, e) = runs.next()?;
                    *pos = u32::from(s) + 1;
                    *end = u32::from(e);
                    Some(s)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(bitmap: &Bitmap) -> RoaringBitmap {
        let r = RoaringBitmap::compress(bitmap);
        assert_eq!(&r.decompress(), bitmap, "round trip");
        assert_eq!(r.count_ones(), bitmap.count_ones());
        assert_eq!(
            r.iter_ones().collect::<Vec<_>>(),
            bitmap.iter_ones().collect::<Vec<_>>()
        );
        r
    }

    #[test]
    fn container_kinds_follow_chunk_shape() {
        let n = 3 * CHUNK_BITS;
        // Chunk 0 sparse scatter, chunk 1 all-one, chunk 2 dense random.
        let b = Bitmap::from_positions(
            n,
            (0..CHUNK_BITS)
                .step_by(1_000)
                .chain(CHUNK_BITS..2 * CHUNK_BITS)
                .chain((2 * CHUNK_BITS..3 * CHUNK_BITS).filter(|i| i % 2 == 0)),
        );
        let r = rt(&b);
        assert_eq!(r.container_kinds(), vec!['a', 'r', 'b']);
    }

    #[test]
    fn chunk_edge_positions_round_trip() {
        // The canonical boundary cases: last bit of chunk 0 (65535), first
        // bit of chunk 1 (65536), and a run crossing the edge.
        for positions in [
            vec![CHUNK_BITS - 1],
            vec![CHUNK_BITS],
            vec![CHUNK_BITS - 1, CHUNK_BITS],
            (CHUNK_BITS - 10..CHUNK_BITS + 10).collect::<Vec<_>>(),
        ] {
            let b = Bitmap::from_positions(2 * CHUNK_BITS, positions.iter().copied());
            let r = rt(&b);
            assert_eq!(r.iter_ones().collect::<Vec<_>>(), positions);
        }
    }

    #[test]
    fn all_zero_and_all_one_chunks() {
        let n = 2 * CHUNK_BITS + 500;
        let zero = rt(&Bitmap::new(n));
        assert_eq!(zero.count_ones(), 0);
        assert!(zero.size_bytes() < 64);
        let one = rt(&Bitmap::ones(n));
        assert_eq!(one.count_ones(), n);
        // One run per chunk: 4 bytes payload each.
        assert_eq!(one.container_kinds(), vec!['r', 'r', 'r']);
        assert!(one.size_bytes() < 64);
    }

    #[test]
    fn partial_final_chunk_holds_the_length_bound() {
        let n = CHUNK_BITS + 7;
        let b = Bitmap::from_positions(n, [0, CHUNK_BITS - 1, CHUNK_BITS, n - 1]);
        let r = rt(&b);
        assert_eq!(r.len(), n);
        let ones = Bitmap::ones(n);
        let r = rt(&ones);
        assert_eq!(r.count_ones(), n);
    }

    #[test]
    fn empty_and_single_operand() {
        let b = Bitmap::from_positions(100, [1, 2, 3]);
        let r = RoaringBitmap::compress(&b);
        let mut out = Bitmap::ones(100);
        r.and_into(&mut out, false);
        assert_eq!(out, b);
        let empty = RoaringBitmap::compress(&Bitmap::new(0));
        assert!(empty.is_empty());
        assert_eq!(empty.decompress(), Bitmap::new(0));
        assert_eq!(empty.iter_ones().count(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_many_rejects_length_mismatch() {
        let a = RoaringBitmap::compress(&Bitmap::new(10));
        let b = RoaringBitmap::compress(&Bitmap::new(11));
        let mut out = a.decompress();
        b.and_into(&mut out, false);
    }

    #[test]
    fn size_bytes_tracks_container_payloads() {
        let n = CHUNK_BITS;
        // 100 scattered bits -> array container: 16 + 5 + 200 bytes.
        let sparse = RoaringBitmap::compress(&Bitmap::from_positions(
            n,
            (0..n).step_by(n / 100).take(100),
        ));
        assert_eq!(sparse.size_bytes(), 16 + 5 + 200);
        // Dense random -> bitset container.
        let dense =
            RoaringBitmap::compress(&Bitmap::from_positions(n, (0..n).filter(|i| i % 2 == 0)));
        assert_eq!(dense.size_bytes(), 16 + 5 + 8192);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Compress → decompress is the identity, count/iteration agree with
        /// the plain form, and the serialized stream round-trips — across
        /// lengths straddling the 64 Ki chunk boundary.
        #[test]
        fn prop_roaring_round_trip(
            len in 0usize..140_000,
            run_start in 0usize..140_000,
            run_len in 0usize..140_000,
            shape in 0u8..4,
            seed in 0u64..1_000,
        ) {
            let bitmap = crate::test_shapes::shaped_bitmap(len, shape, run_start, run_len, seed);
            let roaring = RoaringBitmap::compress(&bitmap);
            prop_assert_eq!(roaring.decompress(), bitmap.clone());
            prop_assert_eq!(roaring.count_ones(), bitmap.count_ones());
            prop_assert_eq!(
                roaring.iter_ones().collect::<Vec<_>>(),
                bitmap.iter_ones().collect::<Vec<_>>()
            );
            // build → serialize → deserialize → iter_ones
            let mut bytes = Vec::new();
            roaring.write_bytes(&mut bytes);
            let decoded = RoaringBitmap::read_bytes(&bytes);
            prop_assert_eq!(decoded.as_ref().ok(), Some(&roaring));
            if let Ok(decoded) = decoded {
                prop_assert_eq!(
                    decoded.iter_ones().collect::<Vec<_>>(),
                    bitmap.iter_ones().collect::<Vec<_>>()
                );
            }
        }
    }
}
