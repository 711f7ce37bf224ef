//! Hierarchical encoding of encoded bitmap join indices (Table 1).
//!
//! An encoded bitmap index represents attribute values from a domain of size
//! `|Dom|` in roughly `log2 |Dom|` bitmaps.  The paper uses a *hierarchical*
//! encoding: the bit pattern of a leaf value (e.g. a product code) is the
//! concatenation of sub-patterns, one per hierarchy level, where each
//! sub-pattern encodes the element's ordinal *within its parent*:
//!
//! ```text
//! PRODUCT:  ddd ll fff gg c oooo   (3+2+3+2+1+4 = 15 bits)
//! ```
//!
//! All codes of the same GROUP share the 10-bit prefix `dddllfffgg`, so a
//! selection on GROUP needs to match only the first 10 bitmaps instead of all
//! 15 — the prefix property exploited by MDHF.
//!
//! The module also hosts the *physical* byte codec of stored bitmaps:
//! [`encode_bitmap_repr`] / [`decode_bitmap_repr`] serialize any
//! [`BitmapRepr`] (plain, WAH or roaring) into a self-describing stream —
//! the page-image format the on-disk storage engine will persist.

use schema::Hierarchy;

use crate::bitvec::Bitmap;
use crate::repr::BitmapRepr;
use crate::roaring::RoaringBitmap;
use crate::wah::WahBitmap;

/// The bit layout of a hierarchically encoded bitmap index for one dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchicalEncoding {
    /// Bits allocated to each level, coarsest level first.
    bits_per_level: Vec<u32>,
    /// Fan-out of each level (elements within parent), coarsest first.
    fanouts: Vec<u64>,
}

impl HierarchicalEncoding {
    /// Derives the encoding from a dimension hierarchy: each level gets
    /// `ceil(log2(fanout))` bits (minimum 0 bits for fan-out 1).
    #[must_use]
    pub fn for_hierarchy(hierarchy: &Hierarchy) -> Self {
        let fanouts: Vec<u64> = hierarchy
            .levels()
            .iter()
            .map(schema::HierarchyLevel::fanout)
            .collect();
        let bits_per_level = fanouts.iter().map(|&f| bits_for(f)).collect();
        HierarchicalEncoding {
            bits_per_level,
            fanouts,
        }
    }

    /// Bits allocated to each level, coarsest first.
    #[must_use]
    pub fn bits_per_level(&self) -> &[u32] {
        &self.bits_per_level
    }

    /// Total number of bits — the number of bitmaps in the encoded index.
    #[must_use]
    pub fn total_bits(&self) -> u32 {
        self.bits_per_level.iter().sum()
    }

    /// Number of hierarchy levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.bits_per_level.len()
    }

    /// Number of *prefix* bits required to identify an element at `level`
    /// (level 0 = coarsest): the sum of the bits of levels `0..=level`.
    ///
    /// A selection on that level must evaluate exactly this many bitmaps.
    #[must_use]
    pub fn prefix_bits(&self, level: usize) -> u32 {
        assert!(level < self.levels(), "level out of range");
        self.bits_per_level[..=level].iter().sum()
    }

    /// Encodes a leaf element (numbered `0..leaf_cardinality`, grouped by the
    /// hierarchy as in [`Hierarchy::ancestor_of_leaf`]) into its bit pattern.
    ///
    /// The pattern is returned with the coarsest level's sub-pattern in the
    /// most significant bits, matching the `dddllfffggcoooo` layout.
    #[must_use]
    pub fn encode_leaf(&self, leaf: u64) -> u64 {
        let Some(pattern) = self.pack(self.levels(), leaf) else {
            panic!("leaf id out of range for this hierarchy")
        };
        pattern
    }

    /// The pattern of an element of level `levels - 1`: its ordinal within
    /// its parent in the least significant bits, then its ancestors'
    /// ordinals, coarsest in the most significant bits.  `None` when
    /// `value` is out of range for that level.  Allocation-free.
    fn pack(&self, levels: usize, value: u64) -> Option<u64> {
        let mut remaining = value;
        let mut pattern = 0u64;
        let mut shift = 0u32;
        for (&fanout, &bits) in self
            .fanouts
            .iter()
            .zip(&self.bits_per_level)
            .take(levels)
            .rev()
        {
            pattern |= (remaining % fanout) << shift;
            remaining /= fanout;
            shift += bits;
        }
        (remaining == 0).then_some(pattern)
    }

    /// Decodes a bit pattern produced by [`Self::encode_leaf`] back into the
    /// leaf element number.  Patterns containing unused code points (possible
    /// because `ceil(log2)` rounds up) return `None`.
    #[must_use]
    pub fn decode_leaf(&self, pattern: u64) -> Option<u64> {
        let mut ordinals = vec![0u64; self.levels()];
        let mut p = pattern;
        for i in (0..self.levels()).rev() {
            let bits = self.bits_per_level[i];
            let mask = if bits == 0 { 0 } else { (1u64 << bits) - 1 };
            let ord = p & mask;
            if ord >= self.fanouts[i] {
                return None;
            }
            ordinals[i] = ord;
            p >>= bits;
        }
        if p != 0 {
            return None;
        }
        let mut leaf = 0u64;
        for (i, &ord) in ordinals.iter().enumerate() {
            leaf = leaf * self.fanouts[i] + ord;
        }
        Some(leaf)
    }

    /// The `(prefix pattern, prefix bit count)` identifying element `value` of
    /// `level`: all leaves below that element share this prefix in their most
    /// significant `prefix_bits(level)` bits.
    #[must_use]
    pub fn encode_prefix(&self, level: usize, value: u64) -> (u64, u32) {
        assert!(level < self.levels(), "level out of range");
        let Some(pattern) = self.pack(level + 1, value) else {
            panic!("value out of range for level {level}")
        };
        (pattern, self.prefix_bits(level))
    }

    /// For a selection of `value` at `level`, yields which bitmaps (by bit
    /// index, 0 = most significant / coarsest) must be read and whether each
    /// must be 1 (`true`) or 0 (`false`), coarsest first.  Allocation-free.
    pub fn match_pattern(&self, level: usize, value: u64) -> impl Iterator<Item = (u32, bool)> {
        let (pattern, bits) = self.encode_prefix(level, value);
        (0..bits).map(move |i| (i, (pattern >> (bits - 1 - i)) & 1 == 1))
    }
}

/// Bits needed to encode `fanout` distinct values (`ceil(log2(fanout))`),
/// with fan-out 1 needing zero bits.
fn bits_for(fanout: u64) -> u32 {
    if fanout <= 1 {
        0
    } else {
        64 - (fanout - 1).leading_zeros()
    }
}

// ---------------------------------------------------------------------------
// Physical bitmap serialization
// ---------------------------------------------------------------------------
//
// The byte form of a stored bitmap is a hand-rolled, self-describing
// little-endian codec: a 4-byte magic, a format version, a representation
// tag, then the representation's own payload (raw words for plain and WAH,
// the per-chunk container stream for roaring).  The `FGMT` fragment file
// (`exec::file`) embeds these streams as its bitmap segments.

/// Magic prefix of a serialized [`BitmapRepr`].
const MAGIC: [u8; 4] = *b"BMRP";
/// Current format version.
const VERSION: u8 = 1;
const TAG_PLAIN: u8 = 0;
const TAG_WAH: u8 = 1;
const TAG_ROARING: u8 = 2;

/// Why a [`decode_bitmap_repr`] call rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprDecodeError {
    /// The stream ended before the structure it promised.
    Truncated,
    /// The stream does not start with the `BMRP` magic.
    BadMagic,
    /// The stream's format version is newer than this build understands.
    UnsupportedVersion(u8),
    /// The representation tag byte is unknown.
    UnknownReprTag(u8),
    /// A roaring container tag byte is unknown.
    UnknownContainerTag(u8),
    /// A structural invariant failed (sortedness, ranges, counts).
    Malformed(&'static str),
}

impl std::fmt::Display for ReprDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReprDecodeError::Truncated => write!(f, "bitmap byte stream is truncated"),
            ReprDecodeError::BadMagic => write!(f, "bitmap byte stream lacks the BMRP magic"),
            ReprDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported bitmap format version {v}")
            }
            ReprDecodeError::UnknownReprTag(t) => {
                write!(f, "unknown bitmap representation tag {t}")
            }
            ReprDecodeError::UnknownContainerTag(t) => {
                write!(f, "unknown roaring container tag {t}")
            }
            ReprDecodeError::Malformed(what) => write!(f, "malformed bitmap stream: {what}"),
        }
    }
}

impl std::error::Error for ReprDecodeError {}

/// Little-endian byte-stream reader shared by the decode paths (here and in
/// [`crate::roaring`]).  All accessors fail with
/// [`ReprDecodeError::Truncated`] instead of panicking.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ReprDecodeError> {
        let end = self.at.checked_add(n).ok_or(ReprDecodeError::Truncated)?;
        let slice = self
            .bytes
            .get(self.at..end)
            .ok_or(ReprDecodeError::Truncated)?;
        self.at = end;
        Ok(slice)
    }

    /// The not-yet-consumed remainder of the stream.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }

    /// True when every byte has been consumed.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.at == self.bytes.len()
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ReprDecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ReprDecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ReprDecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ReprDecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Serializes a [`BitmapRepr`] — any of the three physical representations —
/// into the self-describing `BMRP` byte format.
#[must_use]
pub fn encode_bitmap_repr(repr: &BitmapRepr) -> Vec<u8> {
    let mut out = Vec::with_capacity(repr.size_bytes() + 16);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    match repr {
        BitmapRepr::Plain(b) => {
            out.push(TAG_PLAIN);
            out.extend_from_slice(&(b.len() as u64).to_le_bytes());
            for &w in b.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        BitmapRepr::Wah(w) => {
            out.push(TAG_WAH);
            out.extend_from_slice(&(w.len() as u64).to_le_bytes());
            out.extend_from_slice(&(w.raw_words().len() as u64).to_le_bytes());
            for &word in w.raw_words() {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        BitmapRepr::Roaring(r) => {
            out.push(TAG_ROARING);
            r.write_bytes(&mut out);
        }
    }
    out
}

/// Deserializes a stream produced by [`encode_bitmap_repr`].
///
/// Decoded bitmaps are restored to the crate's internal invariants: plain
/// tail bits beyond `len` are cleared, roaring containers are validated and
/// re-canonicalised, and WAH words are accepted verbatim (every WAH
/// operation tolerates non-canonical input by design).
///
/// # Errors
///
/// Returns a [`ReprDecodeError`] on truncated, foreign or structurally
/// invalid input.
pub fn decode_bitmap_repr(bytes: &[u8]) -> Result<BitmapRepr, ReprDecodeError> {
    let mut cursor = Cursor::new(bytes);
    if cursor.take(4)? != MAGIC {
        return Err(ReprDecodeError::BadMagic);
    }
    let version = cursor.u8()?;
    if version != VERSION {
        return Err(ReprDecodeError::UnsupportedVersion(version));
    }
    let tag = cursor.u8()?;
    match tag {
        TAG_PLAIN => {
            let len = cursor.u64()? as usize;
            let word_count = len.div_ceil(64);
            let mut words = Vec::with_capacity(word_count);
            for _ in 0..word_count {
                words.push(cursor.u64()?);
            }
            if !cursor.is_exhausted() {
                return Err(ReprDecodeError::Malformed(
                    "trailing bytes after plain words",
                ));
            }
            Ok(BitmapRepr::Plain(Bitmap::from_words(len, words)))
        }
        TAG_WAH => {
            let len = cursor.u64()? as usize;
            let word_count = cursor.u64()? as usize;
            if word_count > cursor.rest().len() / 8 {
                return Err(ReprDecodeError::Truncated);
            }
            let mut words = Vec::with_capacity(word_count);
            for _ in 0..word_count {
                words.push(cursor.u64()?);
            }
            if !cursor.is_exhausted() {
                return Err(ReprDecodeError::Malformed("trailing bytes after WAH words"));
            }
            Ok(BitmapRepr::Wah(WahBitmap::from_raw_words(len, words)))
        }
        TAG_ROARING => Ok(BitmapRepr::Roaring(RoaringBitmap::read_bytes(
            cursor.rest(),
        )?)),
        other => Err(ReprDecodeError::UnknownReprTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    fn product_encoding() -> HierarchicalEncoding {
        let s = apb1_schema();
        let product = &s.dimensions()[s.dimension_index("product").unwrap()];
        HierarchicalEncoding::for_hierarchy(product.hierarchy())
    }

    fn customer_encoding() -> HierarchicalEncoding {
        let s = apb1_schema();
        let customer = &s.dimensions()[s.dimension_index("customer").unwrap()];
        HierarchicalEncoding::for_hierarchy(customer.hierarchy())
    }

    #[test]
    fn table_1_product_layout() {
        // Table 1: ddd ll fff gg c oooo = 3+2+3+2+1+4 = 15 bits.
        let e = product_encoding();
        assert_eq!(e.bits_per_level(), &[3, 2, 3, 2, 1, 4]);
        assert_eq!(e.total_bits(), 15);
        assert_eq!(e.levels(), 6);
        // Locating a GROUP needs only the 10-bit prefix dddllfffgg.
        assert_eq!(e.prefix_bits(3), 10);
        // Locating a CODE needs all 15.
        assert_eq!(e.prefix_bits(5), 15);
        assert_eq!(e.prefix_bits(0), 3);
    }

    #[test]
    fn customer_needs_12_bitmaps() {
        // Paper §3.2: encoded index on CUSTOMER needs 12 bitmaps
        // (144 retailers → 8 bits, 10 stores per retailer → 4 bits).
        let e = customer_encoding();
        assert_eq!(e.total_bits(), 12);
        assert_eq!(e.bits_per_level(), &[8, 4]);
    }

    #[test]
    fn encode_decode_roundtrip_for_all_codes() {
        let e = product_encoding();
        for leaf in (0..14_400).step_by(97) {
            let pattern = e.encode_leaf(leaf);
            assert_eq!(e.decode_leaf(pattern), Some(leaf));
        }
        // First and last codes.
        assert_eq!(e.decode_leaf(e.encode_leaf(0)), Some(0));
        assert_eq!(e.decode_leaf(e.encode_leaf(14_399)), Some(14_399));
    }

    #[test]
    fn codes_of_same_group_share_prefix() {
        let e = product_encoding();
        // Codes 0..29 belong to group 0; they must share the 10-bit prefix.
        let (prefix, bits) = e.encode_prefix(3, 0);
        assert_eq!(bits, 10);
        for code in 0..30 {
            let pattern = e.encode_leaf(code);
            assert_eq!(pattern >> (15 - 10), prefix, "code {code}");
        }
        // A code of another group differs in the prefix.
        let other = e.encode_leaf(30);
        assert_ne!(other >> 5, prefix);
    }

    #[test]
    fn match_pattern_structure() {
        let e = product_encoding();
        let m: Vec<(u32, bool)> = e.match_pattern(3, 1).collect(); // group 1
        assert_eq!(m.len(), 10);
        // Group 1 is (division 0, line 0, family 0, group 1):
        // pattern 000 00 000 01 → only the last prefix bit is 1.
        let ones: Vec<u32> = m.iter().filter(|(_, v)| *v).map(|(i, _)| *i).collect();
        assert_eq!(ones, vec![9]);
    }

    #[test]
    fn decode_rejects_invalid_code_points() {
        let e = product_encoding();
        // Line ordinal 3 is invalid (fan-out 3 → ordinals 0..2).
        // Pattern: division 0, line bits = 0b11, rest zero. The digit groups
        // mirror the per-level bit widths (3|2|3|2|1|4), not uniform nibbles.
        #[allow(clippy::unusual_byte_groupings)]
        let invalid = 0b000_11_000_00_0_0000u64;
        assert_eq!(e.decode_leaf(invalid), None);
        // Extra high bits beyond 15 are invalid.
        assert_eq!(e.decode_leaf(1 << 20), None);
    }

    #[test]
    fn bits_for_edge_cases() {
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(1_024), 10);
        assert_eq!(bits_for(1_025), 11);
    }

    #[test]
    fn single_level_hierarchy_encoding() {
        let h = Hierarchy::from_fanouts(&[("channel", 15)]);
        let e = HierarchicalEncoding::for_hierarchy(&h);
        assert_eq!(e.total_bits(), 4);
        assert_eq!(e.prefix_bits(0), 4);
        for v in 0..15 {
            assert_eq!(e.decode_leaf(e.encode_leaf(v)), Some(v));
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use schema::Hierarchy;

    fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
        proptest::collection::vec(1u64..12, 1..5).prop_map(|fanouts| {
            Hierarchy::new(
                fanouts
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| schema::HierarchyLevel::new(format!("l{i}"), f))
                    .collect(),
            )
        })
    }

    proptest! {
        /// Encoding round-trips for every leaf of arbitrary hierarchies.
        #[test]
        fn prop_roundtrip(h in arb_hierarchy()) {
            let e = HierarchicalEncoding::for_hierarchy(&h);
            for leaf in 0..h.leaf_cardinality() {
                prop_assert_eq!(e.decode_leaf(e.encode_leaf(leaf)), Some(leaf));
            }
        }

        /// All leaves below an ancestor share exactly that ancestor's prefix,
        /// and leaves below different ancestors have different prefixes.
        #[test]
        fn prop_prefix_property(h in arb_hierarchy(), level_seed in 0usize..8) {
            let e = HierarchicalEncoding::for_hierarchy(&h);
            let level = level_seed % h.depth();
            let prefix_bits = e.prefix_bits(level);
            let total = e.total_bits();
            for leaf in 0..h.leaf_cardinality() {
                let anc = h.ancestor_of_leaf(leaf, level);
                let (prefix, bits) = e.encode_prefix(level, anc);
                prop_assert_eq!(bits, prefix_bits);
                let leaf_pattern = e.encode_leaf(leaf);
                prop_assert_eq!(leaf_pattern >> (total - prefix_bits), prefix);
            }
        }
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::repr::RepresentationPolicy;

    fn shaped(kind: u8) -> Bitmap {
        let n = 70_000;
        match kind {
            0 => Bitmap::from_positions(n, (0..n).step_by(997)),
            1 => Bitmap::from_positions(n, 30_000..67_000),
            _ => Bitmap::from_positions(n, (0..n).filter(|i| i % 3 != 0)),
        }
    }

    #[test]
    fn all_three_representations_round_trip() {
        for kind in 0..3u8 {
            let bitmap = shaped(kind);
            for policy in [
                RepresentationPolicy::Plain,
                RepresentationPolicy::Wah,
                RepresentationPolicy::Roaring,
                RepresentationPolicy::default(),
            ] {
                let repr = BitmapRepr::from_bitmap(bitmap.clone(), policy);
                let bytes = encode_bitmap_repr(&repr);
                let decoded = decode_bitmap_repr(&bytes);
                assert_eq!(decoded.as_ref(), Ok(&repr), "{policy:?} kind {kind}");
                assert_eq!(
                    decoded.map(|d| d.to_plain()),
                    Ok(bitmap.clone()),
                    "{policy:?} kind {kind}"
                );
            }
        }
    }

    #[test]
    fn zero_length_bitmap_round_trips() {
        for policy in [
            RepresentationPolicy::Plain,
            RepresentationPolicy::Wah,
            RepresentationPolicy::Roaring,
        ] {
            let repr = BitmapRepr::from_bitmap(Bitmap::new(0), policy);
            assert_eq!(decode_bitmap_repr(&encode_bitmap_repr(&repr)), Ok(repr));
        }
    }

    #[test]
    fn decode_rejects_malformed_streams() {
        let repr = BitmapRepr::from_bitmap(shaped(0), RepresentationPolicy::Roaring);
        let bytes = encode_bitmap_repr(&repr);

        assert_eq!(decode_bitmap_repr(&[]), Err(ReprDecodeError::Truncated));
        assert_eq!(
            decode_bitmap_repr(&bytes[..bytes.len() - 1]),
            Err(ReprDecodeError::Truncated)
        );

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            decode_bitmap_repr(&bad_magic),
            Err(ReprDecodeError::BadMagic)
        );

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            decode_bitmap_repr(&bad_version),
            Err(ReprDecodeError::UnsupportedVersion(99))
        );

        let mut bad_tag = bytes.clone();
        bad_tag[5] = 7;
        assert_eq!(
            decode_bitmap_repr(&bad_tag),
            Err(ReprDecodeError::UnknownReprTag(7))
        );

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_bitmap_repr(&trailing).is_err());

        // Container tag 3 does not exist: corrupt the first container tag,
        // which sits right after magic(4) + version(1) + repr tag(1) + len(8).
        let mut bad_container = bytes;
        bad_container[14] = 3;
        assert_eq!(
            decode_bitmap_repr(&bad_container),
            Err(ReprDecodeError::UnknownContainerTag(3))
        );
    }

    #[test]
    fn decode_rejects_out_of_range_roaring_positions() {
        // A run container reaching past `len` in the final chunk.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"BMRP");
        bytes.push(1); // version
        bytes.push(2); // roaring tag
        bytes.extend_from_slice(&100u64.to_le_bytes()); // len = 100
        bytes.push(2); // runs container
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes()); // start 0
        bytes.extend_from_slice(&100u16.to_le_bytes()); // end 100 >= len
        assert!(matches!(
            decode_bitmap_repr(&bytes),
            Err(ReprDecodeError::Malformed(_))
        ));
    }

    #[test]
    fn deserialized_non_canonical_containers_are_recanonicalised() {
        // An array container holding one long run: the encoder would have
        // chosen a run container, but the decoder must accept the array
        // form and restore canonical equality with a freshly built bitmap.
        let len = 1_000u64;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"BMRP");
        bytes.push(1);
        bytes.push(2);
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.push(0); // array container
        bytes.extend_from_slice(&500u32.to_le_bytes());
        for v in 0..500u16 {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let decoded = decode_bitmap_repr(&bytes).map(|r| r.to_plain());
        assert_eq!(decoded, Ok(Bitmap::from_positions(1_000, 0..500)));
        let rebuilt = BitmapRepr::from_bitmap(
            Bitmap::from_positions(1_000, 0..500),
            RepresentationPolicy::Roaring,
        );
        assert_eq!(decode_bitmap_repr(&bytes), Ok(rebuilt));
    }
}
