//! Persistent on-disk fragment storage: the `FGMT` file format and a
//! file-backed, buffer-managed fragment reader.
//!
//! The paper's APB-1 fact table (1.87 billion rows) cannot live in RAM; the
//! simulated `DiskModel` makespans are only honest if the same fragments can
//! also be read from a real file.  This module serialises a
//! [`FragmentStore`] into a versioned columnar file, one page-aligned extent
//! per fragment, and reads it back fragment by fragment through the LRU
//! [`PagePool`] of `storage::buffer`, so cache hit/miss accounting stays
//! comparable between simulated and measured runs.
//!
//! # File layout (version 2, 4096-byte pages)
//!
//! ```text
//! page 0        header: "FGMT" magic, version, page size, dimension /
//!               measure / fragment counts, total rows, metadata length
//!               and checksum
//! pages 1..     metadata blob: star schema (fact table, dimensions,
//!               hierarchies), fragmentation attributes, index-catalog
//!               kinds, representation policy
//! then          per fragment one extent: it starts on a page boundary,
//!               holds its segments back to back in fixed order
//!                 measure column per measure (f64 bits little-endian)
//!                 bitmap index per dimension (BMRP-encoded bitmaps)
//!                 key column per dimension   (frame-of-reference
//!                                             bit-packed, see below)
//!               and is padded to the next page boundary once, at its end
//! then          page directory: per fragment its row count and per
//!               segment (offset, length, checksum)
//! last 40 B     trailer: "FGMTEND\0" magic, version, page size,
//!               directory offset / length / checksum
//! ```
//!
//! A key column is `min: u64`, `width: u8` (at most 64), then
//! ⌈rows · width / 64⌉ little-endian `u64` words holding `key - min` of every
//! row in `width` bits, row 0 in the lowest bits of the first word.  MDHF
//! pins a fragment's fragmentation attributes, so its keys span a narrow
//! range and pack to a few bits a row.
//!
//! One hand-rolled word-wise checksum (four independent 8-byte lanes,
//! folded with the length at the end) covers every segment, the metadata
//! blob and the directory.
//!
//! Every structural assumption is checked at [`FileStore::open`] — magic,
//! version, checksums, directory bounds and extent contiguity — so
//! corruption surfaces as a typed [`StorageError`] instead of a panic deep
//! inside a query.
//!
//! # What a miss decodes
//!
//! The paper prices a subquery as its fact pages plus the bitmap fragments
//! of its own predicates (§4.3); an IOC1 query reads no bitmap at all.  So
//! a miss reads and checksums the whole extent but decodes only the
//! measure columns.  Each index segment has its framing checked (tag,
//! bitmap count, every length prefix) and each key segment its header,
//! width and length; both are kept as bytes in the loaded fragment.  An
//! index is decoded the first time a query asks for it — once per loaded
//! fragment, by one thread — and a key column is unpacked only when
//! [`ColumnarFragment::key_column`] is called, which no query does.
//! Checksum, truncation and framing errors still surface at fetch; an index
//! whose verified bytes fail to decode is an error of that index alone, at
//! its first use ([`ColumnarFragment::try_bitmap_index`]).
//!
//! # Many readers at once
//!
//! The file stands in for the paper's disks, which many processors read at
//! the same time, so no fetch holds a store-wide lock for long: a fragment
//! whose loaded form is resident is handed out from its own slot, and a
//! fragment that has to be loaded is read (one positional read of its
//! extent, through one shared handle), verified and loaded with only its
//! own load lock held.  The page pool sees the hits later, in the order
//! they happened, before it next has to choose a victim or report its
//! counters — see [`FileStore`].

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bitmap::{
    BitmapIndexKind, BitmapIndexSpec, BitmapRepr, IndexCatalog, MaterialisedIndex, ReprDecodeError,
    RepresentationPolicy, StoredBitmaps,
};
use mdhf::Fragmentation;
use schema::{AttrRef, Dimension, FactTable, Hierarchy, HierarchyLevel, Measure, StarSchema};
use storage::buffer::{BufferPoolStats, PageKey, PagePool};

use crate::store::{ColumnarFragment, FragmentStore};
use crate::sync::PoisonLock;

/// Page size of the on-disk format in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Current format version.  Only this version is read: a file of any other
/// version fails [`FileStore::open`] with [`StorageError::Corrupt`].
pub const FORMAT_VERSION: u32 = 2;

/// [`checksum`] of the file [`write_store`] writes for the unit tests'
/// `small_store()`.  Pins the byte layout of this [`FORMAT_VERSION`]: a
/// change to it that does not bump the version fails the test
/// `format_pin_matches_the_committed_checksum`.
#[cfg(test)]
const SMALL_STORE_FILE_CHECKSUM: u64 = 0x176A7DCA5397B15F;

/// Header magic, first bytes of the file.
const HEADER_MAGIC: [u8; 4] = *b"FGMT";

/// Trailer magic, start of the fixed-size trailer at the end of the file.
const TRAILER_MAGIC: [u8; 8] = *b"FGMTEND\0";

/// Fixed trailer size in bytes: magic, version, page size, directory
/// offset / length / checksum.
const TRAILER_LEN: u64 = 8 + 4 + 4 + 8 + 8 + 8;

/// Errors of the persistent storage engine and the session API above it.
///
/// The variants mirror what can actually go wrong: the operating system
/// ([`StorageError::Io`]), the bitmap codec ([`StorageError::Decode`]), the
/// file itself ([`StorageError::Corrupt`]) and the caller
/// ([`StorageError::Config`]).
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error.
    Io(std::io::Error),
    /// A BMRP bitmap blob failed to decode.
    Decode(ReprDecodeError),
    /// The file violates the format: bad magic, unsupported version, failed
    /// checksum, truncated or inconsistent structure.
    Corrupt(String),
    /// The caller asked for something unsatisfiable (over-fine
    /// fragmentation, invalid session configuration, …).
    Config(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Decode(e) => write!(f, "bitmap decode error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt fragment file: {msg}"),
            StorageError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Decode(e) => Some(e),
            StorageError::Corrupt(_) | StorageError::Config(_) => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<ReprDecodeError> for StorageError {
    fn from(e: ReprDecodeError) -> Self {
        StorageError::Decode(e)
    }
}

/// Odd multipliers of [`checksum`] (the splitmix64 constants).
const MUL_A: u64 = 0x9E37_79B9_7F4A_7C15;
const MUL_B: u64 = 0xBF58_476D_1CE4_E5B9;
const MUL_C: u64 = 0x94D0_49BB_1331_11EB;

/// One step of a [`checksum`] lane.  For a fixed `word` it is a bijection
/// of `lane` (add, rotate and multiply by an odd constant all are), and for
/// a fixed `lane` a bijection of `word`.
fn lane_step(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(MUL_B))
        .rotate_left(31)
        .wrapping_mul(MUL_A)
}

/// The little-endian `u64` of an 8-byte chunk.
fn le_word(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

/// The checksum of every FGMT segment, the metadata blob and the directory:
/// eight bytes per step on four independent lanes, so the steps of
/// different lanes overlap.  Word `i` of the input (little-endian, the last
/// one zero-padded) goes to lane `i % 4`; the lanes are folded in order at
/// the end, starting from the length.
///
/// Changing any single word is always detected: it changes its lane's state
/// at that step, every later step of the lane is a bijection of the state,
/// and so are each step of the fold (in the lane it takes in) and the final
/// mix.  Hand-rolled; no hashing dependency.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [MUL_A, MUL_B, MUL_C, MUL_A ^ MUL_B];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, le_word(chunk));
        }
    }
    // At most three whole words and one partial word are left: one more
    // (incomplete) round over the lanes.
    let words = blocks.remainder().chunks_exact(8);
    let partial = words.remainder();
    let last = (!partial.is_empty()).then(|| {
        let mut word = [0u8; 8];
        for (byte, &b) in word.iter_mut().zip(partial) {
            *byte = b;
        }
        u64::from_le_bytes(word)
    });
    for (lane, word) in lanes.iter_mut().zip(words.map(le_word).chain(last)) {
        *lane = lane_step(*lane, word);
    }
    let mut hash = (bytes.len() as u64).wrapping_mul(MUL_C);
    for lane in lanes {
        hash = (hash ^ lane_step(0, lane))
            .rotate_left(27)
            .wrapping_mul(MUL_A);
    }
    hash ^= hash >> 31;
    hash = hash.wrapping_mul(MUL_B);
    hash ^ (hash >> 29)
}

/// Number of pages a byte length occupies.
fn pages_of(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE)
}

/// Fills `buf` from `file` at the absolute `offset`.  A positional read
/// moves no file cursor, so any number of threads can read through the one
/// shared handle at once.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::io::ErrorKind;
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = std::mem::take(&mut buf).split_at_mut(n).1;
                offset += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Little-endian byte codec helpers.
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over a borrowed byte slice; every read is bounds-checked and a
/// short buffer surfaces as [`StorageError::Corrupt`].
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8], what: &'static str) -> Self {
        ByteReader {
            bytes,
            pos: 0,
            what,
        }
    }

    fn truncated(&self) -> StorageError {
        StorageError::Corrupt(format!("{} truncated", self.what))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        if end > self.bytes.len() {
            return Err(self.truncated());
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, StorageError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::Corrupt(format!("{} holds invalid UTF-8", self.what)))
    }

    fn done(&self) -> Result<(), StorageError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(StorageError::Corrupt(format!(
                "{} has {} trailing bytes",
                self.what,
                self.bytes.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Metadata blob: schema, fragmentation, catalog kinds, policy.
// ---------------------------------------------------------------------------

fn encode_policy(out: &mut Vec<u8>, policy: RepresentationPolicy) {
    match policy {
        RepresentationPolicy::Plain => out.push(0),
        RepresentationPolicy::Wah => out.push(1),
        RepresentationPolicy::Roaring => out.push(2),
        RepresentationPolicy::Adaptive { max_density } => {
            out.push(3);
            put_f64(out, max_density);
        }
    }
}

fn decode_policy(r: &mut ByteReader<'_>) -> Result<RepresentationPolicy, StorageError> {
    match r.u8()? {
        0 => Ok(RepresentationPolicy::Plain),
        1 => Ok(RepresentationPolicy::Wah),
        2 => Ok(RepresentationPolicy::Roaring),
        3 => Ok(RepresentationPolicy::Adaptive {
            max_density: r.f64()?,
        }),
        tag => Err(StorageError::Corrupt(format!(
            "unknown representation-policy tag {tag}"
        ))),
    }
}

fn encode_metadata(store: &FragmentStore) -> Vec<u8> {
    let schema = store.schema();
    let mut out = Vec::new();
    // Fact table.
    let fact = schema.fact();
    put_str(&mut out, fact.name());
    put_u32(&mut out, fact.measures().len() as u32);
    for measure in fact.measures() {
        put_str(&mut out, measure.name());
        put_u64(&mut out, measure.size_bytes());
    }
    put_u64(&mut out, fact.tuple_size_bytes());
    put_f64(&mut out, fact.density());
    // Dimensions with their hierarchies.
    put_u32(&mut out, schema.dimensions().len() as u32);
    for dim in schema.dimensions() {
        put_str(&mut out, dim.name());
        put_u64(&mut out, dim.table_size_bytes() / dim.cardinality().max(1));
        let hierarchy = dim.hierarchy();
        put_u32(&mut out, hierarchy.depth() as u32);
        for level in hierarchy.levels() {
            put_str(&mut out, level.name());
            put_u64(&mut out, level.fanout());
        }
    }
    // Fragmentation attributes.
    let attrs = store.fragmentation().attrs();
    put_u32(&mut out, attrs.len() as u32);
    for attr in attrs {
        put_u32(&mut out, attr.dimension as u32);
        put_u32(&mut out, attr.level as u32);
    }
    // Index-catalog kind per dimension.
    for spec in store.catalog().specs() {
        out.push(match spec.kind() {
            BitmapIndexKind::Simple => 0,
            BitmapIndexKind::Encoded(_) => 1,
        });
    }
    // Representation policy.
    encode_policy(&mut out, store.policy());
    out
}

/// Everything [`FileStore`] knows about the stored warehouse without
/// touching a single fragment segment.
struct StoreMeta {
    schema: StarSchema,
    fragmentation: Fragmentation,
    catalog: IndexCatalog,
    policy: RepresentationPolicy,
}

fn decode_metadata(bytes: &[u8], dimension_count: usize) -> Result<StoreMeta, StorageError> {
    let mut r = ByteReader::new(bytes, "metadata blob");
    // Fact table.
    let fact_name = r.str()?;
    let measure_count = r.u32()? as usize;
    let mut measures = Vec::with_capacity(measure_count);
    for _ in 0..measure_count {
        let name = r.str()?;
        let size = r.u64()?;
        measures.push(Measure::new(name, size));
    }
    let tuple_size = r.u64()?;
    let density = r.f64()?;
    if tuple_size == 0 || !(density > 0.0 && density <= 1.0) {
        return Err(StorageError::Corrupt(format!(
            "fact table metadata out of range (tuple size {tuple_size}, density {density})"
        )));
    }
    let fact = FactTable::new(fact_name, measures, tuple_size, density);
    // Dimensions.
    let dims = r.u32()? as usize;
    if dims != dimension_count {
        return Err(StorageError::Corrupt(format!(
            "header declares {dimension_count} dimensions, metadata {dims}"
        )));
    }
    let mut dimensions = Vec::with_capacity(dims);
    for _ in 0..dims {
        let name = r.str()?;
        let row_size = r.u64()?;
        let depth = r.u32()? as usize;
        let mut levels = Vec::with_capacity(depth);
        for _ in 0..depth {
            let level_name = r.str()?;
            let fanout = r.u64()?;
            if fanout == 0 {
                return Err(StorageError::Corrupt(format!(
                    "hierarchy level {level_name:?} has zero fanout"
                )));
            }
            levels.push(HierarchyLevel::new(level_name, fanout));
        }
        if levels.is_empty() || row_size == 0 {
            return Err(StorageError::Corrupt(format!(
                "dimension {name:?} metadata out of range"
            )));
        }
        dimensions.push(Dimension::with_row_size(
            name,
            Hierarchy::new(levels),
            row_size,
        ));
    }
    let schema = StarSchema::new(fact, dimensions)
        .map_err(|e| StorageError::Corrupt(format!("stored schema rejected: {e:?}")))?;
    // Fragmentation.
    let attr_count = r.u32()? as usize;
    let mut attrs = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let dimension = r.u32()? as usize;
        let level = r.u32()? as usize;
        if dimension >= schema.dimension_count()
            || level >= schema.dimensions()[dimension].hierarchy().depth()
        {
            return Err(StorageError::Corrupt(format!(
                "fragmentation attribute ({dimension}, {level}) outside the stored schema"
            )));
        }
        attrs.push(AttrRef::new(dimension, level));
    }
    let fragmentation = Fragmentation::new(&schema, attrs)
        .map_err(|e| StorageError::Corrupt(format!("stored fragmentation rejected: {e:?}")))?;
    // Catalog kinds.
    let mut specs = Vec::with_capacity(dims);
    for dimension in 0..dims {
        specs.push(match r.u8()? {
            0 => BitmapIndexSpec::simple(&schema, dimension),
            1 => BitmapIndexSpec::encoded(&schema, dimension),
            tag => {
                return Err(StorageError::Corrupt(format!(
                    "unknown index-kind tag {tag} for dimension {dimension}"
                )))
            }
        });
    }
    let catalog = IndexCatalog::from_specs(specs);
    let policy = decode_policy(&mut r)?;
    r.done()?;
    Ok(StoreMeta {
        schema,
        fragmentation,
        catalog,
        policy,
    })
}

// ---------------------------------------------------------------------------
// Fragment segments.
// ---------------------------------------------------------------------------

/// Words a bit-packed column of `rows` values `width` bits wide occupies,
/// or `None` when that overflows.
fn packed_words(rows: u64, width: u8) -> Option<u64> {
    Some(rows.checked_mul(u64::from(width))?.div_ceil(64))
}

/// Frame-of-reference bit-packs a key column: `min`, `width`, then every
/// `key - min` in `width` bits (see the module docs).
fn encode_key_column(column: &[u64]) -> Vec<u8> {
    let min = column.iter().copied().min().unwrap_or(0);
    let max = column.iter().copied().max().unwrap_or(0);
    let width = (u64::BITS - (max - min).leading_zeros()) as u8;
    let words = packed_words(column.len() as u64, width).unwrap_or(0);
    let mut out = Vec::with_capacity(9 + 8 * words as usize);
    put_u64(&mut out, min);
    out.push(width);
    // `pending` holds the `bits` low bits not written yet; fewer than 64
    // between keys.
    let (mut pending, mut bits) = (0u128, 0u32);
    for &key in column {
        pending |= u128::from(key - min) << bits;
        bits += u32::from(width);
        if bits >= 64 {
            put_u64(&mut out, pending as u64);
            pending >>= 64;
            bits -= 64;
        }
    }
    if bits > 0 {
        put_u64(&mut out, pending as u64);
    }
    out
}

fn encode_measure_column(column: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(column.len() * 8);
    for &value in column {
        put_f64(&mut out, value);
    }
    out
}

fn encode_index_segment(index: &MaterialisedIndex) -> Vec<u8> {
    let mut out = Vec::new();
    match index.stored_bitmaps() {
        StoredBitmaps::Encoded(slices) => {
            out.push(1);
            put_u32(&mut out, slices.len() as u32);
            for slice in slices {
                let bytes = slice.to_bytes();
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(&bytes);
            }
        }
        StoredBitmaps::Simple(map) => {
            out.push(0);
            put_u32(&mut out, map.len() as u32);
            for (&(level, value), bitmap) in map {
                put_u32(&mut out, level as u32);
                put_u64(&mut out, value);
                let bytes = bitmap.to_bytes();
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(&bytes);
            }
        }
    }
    out
}

/// The kind tag an index segment starts with.
#[derive(Debug, Clone, Copy)]
enum IndexSegmentKind {
    /// Tag 0: per bitmap its `(level: u32, value: u64)` key, then the blob.
    Simple,
    /// Tag 1: one blob per bit slice, coarsest first.
    Encoded,
}

/// Walks the framing of an index segment — its tag, its bitmap count and
/// every bitmap's key and length prefix — handing each bitmap's key (simple
/// indices only) and BMRP blob to `each`, and returns the segment's kind.
/// No blob is decoded here.
fn walk_index_segment<'a>(
    bytes: &'a [u8],
    mut each: impl FnMut(Option<(usize, u64)>, &'a [u8]) -> Result<(), StorageError>,
) -> Result<IndexSegmentKind, StorageError> {
    let mut r = ByteReader::new(bytes, "bitmap index segment");
    let kind = match r.u8()? {
        0 => IndexSegmentKind::Simple,
        1 => IndexSegmentKind::Encoded,
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown index segment tag {other}"
            )))
        }
    };
    for _ in 0..r.u32()? {
        let key = match kind {
            IndexSegmentKind::Simple => Some((r.u32()? as usize, r.u64()?)),
            IndexSegmentKind::Encoded => None,
        };
        let len = r.u32()? as usize;
        each(key, r.take(len)?)?;
    }
    r.done()?;
    Ok(kind)
}

/// Decodes the index segment of `dimension` in a fragment of `rows` rows.
fn decode_index_segment(
    bytes: &[u8],
    meta: &StoreMeta,
    dimension: usize,
    rows: u64,
) -> Result<MaterialisedIndex, StorageError> {
    let mut slices = Vec::new();
    let mut map = BTreeMap::new();
    let kind = walk_index_segment(bytes, |key, blob| {
        let repr = BitmapRepr::from_bytes(blob)?;
        if repr.len() as u64 != rows {
            return Err(StorageError::Corrupt(format!(
                "bitmap of dimension {dimension} covers {} rows, fragment holds {rows}",
                repr.len()
            )));
        }
        match key {
            None => slices.push(repr),
            Some((level, value)) => {
                if map.insert((level, value), repr).is_some() {
                    return Err(StorageError::Corrupt(format!(
                        "duplicate bitmap key (level {level}, value {value})"
                    )));
                }
            }
        }
        Ok(())
    })?;
    let (schema, catalog, policy) = (&meta.schema, &meta.catalog, meta.policy);
    match kind {
        IndexSegmentKind::Encoded => {
            MaterialisedIndex::from_stored_encoded(schema, catalog, dimension, policy, slices)
        }
        IndexSegmentKind::Simple => {
            MaterialisedIndex::from_stored_simple(schema, catalog, dimension, policy, map)
        }
    }
    .map_err(StorageError::Corrupt)
}

/// Bytes of a key column segment before its packed words: `min`, `width`.
const KEY_HEADER_LEN: usize = 9;

/// The header of a key column segment that [`check_key_column`] accepted:
/// unpacking its words can no longer fail.
#[derive(Debug, Clone, Copy)]
struct PackedKeys {
    min: u64,
    /// Bits a key, at most 64.
    width: u8,
    rows: usize,
}

impl PackedKeys {
    /// The largest `width`-bit value: `key - min` of any key.
    fn span(self) -> u64 {
        u64::MAX
            .checked_shr(64 - u32::from(self.width))
            .unwrap_or(0)
    }

    /// The keys packed in `segment` (the whole segment, header included),
    /// in row order.  Words past the end read as zero, which a checked
    /// segment never needs.
    fn keys<'a>(self, segment: &'a [u8]) -> impl Iterator<Item = u64> + 'a {
        let words = segment.get(KEY_HEADER_LEN..).unwrap_or_default();
        let word = move |at: u64| {
            words
                .get(at as usize * 8..)
                .and_then(<[u8]>::first_chunk::<8>)
                .map_or(0, |bytes| u64::from_le_bytes(*bytes))
        };
        let (width, mask) = (u64::from(self.width), self.span());
        (0..self.rows as u64).map(move |row| {
            let bit = row * width;
            let shift = bit % 64;
            let mut bits = word(bit / 64) >> shift;
            // A key that straddles two words takes its high bits from the
            // next one.
            if shift + width > 64 {
                bits |= word(bit / 64 + 1) << (64 - shift);
            }
            self.min.wrapping_add(bits & mask)
        })
    }

    /// The key column packed in `segment`.
    fn unpack(self, segment: &[u8]) -> Vec<u64> {
        self.keys(segment).collect()
    }
}

/// Checks a key column segment of a fragment of `rows` rows — header,
/// width, payload length, and that no key overflows past its minimum —
/// without unpacking it.  The overflow scan runs only when `min` plus the
/// largest `width`-bit value can overflow at all.
fn check_key_column(bytes: &[u8], rows: u64) -> Result<PackedKeys, StorageError> {
    let mut r = ByteReader::new(bytes, "key column segment");
    let min = r.u64()?;
    let width = r.u8()?;
    if width > 64 {
        return Err(StorageError::Corrupt(format!(
            "key column packs {width} bits a key"
        )));
    }
    let payload = packed_words(rows, width)
        .and_then(|words| usize::try_from(words.checked_mul(8)?).ok())
        .ok_or_else(|| StorageError::Corrupt(format!("key column of {rows} rows overflows")))?;
    r.take(payload)?;
    r.done()?;
    // The unpacked column must be allocatable: `rows` keys of 8 bytes.
    let keys = rows
        .checked_mul(8)
        .and_then(|bytes| isize::try_from(bytes).ok())
        .map(|_| PackedKeys {
            min,
            width,
            rows: rows as usize,
        })
        .ok_or_else(|| StorageError::Corrupt(format!("key column of {rows} rows")))?;
    if min.checked_add(keys.span()).is_none() && keys.keys(bytes).any(|key| key < min) {
        return Err(StorageError::Corrupt(format!(
            "key column overflows past its minimum {min}"
        )));
    }
    Ok(keys)
}

/// Inverse of [`encode_key_column`] for a fragment of `rows` rows:
/// [`check_key_column`], then [`PackedKeys::unpack`].
#[cfg(test)]
fn decode_key_column(bytes: &[u8], rows: u64) -> Result<Vec<u64>, StorageError> {
    Ok(check_key_column(bytes, rows)?.unpack(bytes))
}

/// Decodes a measure column of `rows` rows: `f64` bits, little-endian.
fn decode_measure_column(bytes: &[u8], rows: u64) -> Result<Vec<f64>, StorageError> {
    if !bytes.len().is_multiple_of(8) || bytes.len() as u64 / 8 != rows {
        return Err(StorageError::Corrupt(format!(
            "measure column holds {} bytes for {rows} rows",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|chunk| f64::from_bits(le_word(chunk)))
        .collect())
}

// ---------------------------------------------------------------------------
// Directory.
// ---------------------------------------------------------------------------

/// Location and checksum of one segment of a fragment's extent.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SegmentEntry {
    /// Absolute byte offset of the segment start.
    offset: u64,
    /// Payload length in bytes.
    len: u64,
    /// [`checksum`] of the payload.
    checksum: u64,
}

/// Directory entry of one fragment.
#[derive(Debug, Clone, PartialEq)]
struct FragmentEntry {
    rows: u64,
    /// Measure columns, then bitmap indices, then key columns, back to back.
    segments: Vec<SegmentEntry>,
    /// Absolute byte offset of the extent: its first segment's (page-aligned).
    offset: u64,
    /// Bytes of the extent: its segments' lengths summed, end padding not
    /// included.  A miss reads exactly these.
    len: u64,
    /// Number of pages the extent spans (pool pages are keyed
    /// `(fragment, page-within-fragment)`).
    page_count: u64,
}

impl FragmentEntry {
    /// The entry of a fragment whose `segments` lie back to back.
    fn new(rows: u64, segments: Vec<SegmentEntry>) -> Self {
        let offset = segments.first().map_or(0, |s| s.offset);
        let len = segments.iter().map(|s| s.len).sum();
        FragmentEntry {
            rows,
            segments,
            offset,
            len,
            page_count: pages_of(offset + len) - offset / PAGE_SIZE,
        }
    }
}

fn encode_directory(entries: &[FragmentEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, entries.len() as u64);
    for entry in entries {
        put_u64(&mut out, entry.rows);
        put_u32(&mut out, entry.segments.len() as u32);
        for seg in &entry.segments {
            put_u64(&mut out, seg.offset);
            put_u64(&mut out, seg.len);
            put_u64(&mut out, seg.checksum);
        }
    }
    out
}

/// Decodes the page directory and checks every extent: its first segment
/// starts on a page boundary at or after `data_start`, each later segment
/// starts where the previous one ended, and the extent ends at or before
/// `data_end`.
fn decode_directory(
    bytes: &[u8],
    fragment_count: u64,
    segments_per_fragment: usize,
    data_start: u64,
    data_end: u64,
) -> Result<Vec<FragmentEntry>, StorageError> {
    let mut r = ByteReader::new(bytes, "page directory");
    let count = r.u64()?;
    if count != fragment_count {
        return Err(StorageError::Corrupt(format!(
            "header declares {fragment_count} fragments, directory {count}"
        )));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for fragment in 0..count {
        let rows = r.u64()?;
        let seg_count = r.u32()? as usize;
        if seg_count != segments_per_fragment {
            return Err(StorageError::Corrupt(format!(
                "fragment {fragment} lists {seg_count} segments, schema needs {segments_per_fragment}"
            )));
        }
        let mut segments = Vec::with_capacity(seg_count);
        let mut end = None;
        for index in 0..seg_count {
            let offset = r.u64()?;
            let len = r.u64()?;
            let checksum = r.u64()?;
            match end {
                None if offset % PAGE_SIZE != 0 || offset < data_start => {
                    return Err(StorageError::Corrupt(format!(
                        "fragment {fragment} extent starts at {offset}, not on a page boundary \
                         of the data area"
                    )));
                }
                Some(previous) if offset != previous => {
                    return Err(StorageError::Corrupt(format!(
                        "fragment {fragment} segment {index} starts at {offset}, \
                         its predecessor ends at {previous}"
                    )));
                }
                _ => {}
            }
            let segment_end = offset
                .checked_add(len)
                .filter(|&segment_end| segment_end <= data_end)
                .ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "fragment {fragment} segment {index} reaches past the data area"
                    ))
                })?;
            end = Some(segment_end);
            segments.push(SegmentEntry {
                offset,
                len,
                checksum,
            });
        }
        entries.push(FragmentEntry::new(rows, segments));
    }
    r.done()?;
    Ok(entries)
}

/// The segments of `fragment`'s `extent` (the bytes its directory `entry`
/// spans), each checked against its checksum before it is handed out.
fn verified_segments<'a>(
    fragment: u64,
    entry: &'a FragmentEntry,
    extent: &'a [u8],
) -> impl Iterator<Item = Result<&'a [u8], StorageError>> + 'a {
    let mut r = ByteReader::new(extent, "fragment extent");
    (0usize..)
        .zip(&entry.segments)
        .map(move |(index, segment)| {
            let bytes = r.take(segment.len as usize)?;
            if checksum(bytes) == segment.checksum {
                Ok(bytes)
            } else {
                Err(StorageError::Corrupt(format!(
                    "checksum mismatch in fragment {fragment}, segment {index}"
                )))
            }
        })
}

/// Loads one fragment from its `extent`, segment by segment in file order:
/// every segment's checksum is verified and the measure columns are
/// decoded, while each index segment gets only its framing checked and
/// each key segment [`check_key_column`]'s checks.  Those segments are kept
/// as bytes in the fragment's [`StoredParts`], to be decoded on first use.
fn decode_extent(
    meta: &Arc<StoreMeta>,
    fragment: u64,
    entry: &FragmentEntry,
    extent: &[u8],
) -> Result<ColumnarFragment, StorageError> {
    let rows = entry.rows;
    let mut segments = verified_segments(fragment, entry, extent);
    let mut next = || {
        segments.next().unwrap_or_else(|| {
            Err(StorageError::Corrupt(format!(
                "fragment {fragment} lists too few segments"
            )))
        })
    };
    let measures: Vec<Vec<f64>> = (0..meta.schema.fact().measures().len())
        .map(|_| decode_measure_column(next()?, rows))
        .collect::<Result<_, _>>()?;
    let dimensions = meta.schema.dimension_count();
    let kept: u64 = entry
        .segments
        .iter()
        .skip(measures.len())
        .map(|s| s.len)
        .sum();
    let mut bytes = Vec::with_capacity(extent.len().min(kept as usize));
    let mut keep = |segment: &[u8]| {
        let start = bytes.len();
        bytes.extend_from_slice(segment);
        start..bytes.len()
    };
    let mut indices = Vec::with_capacity(dimensions);
    for _ in 0..dimensions {
        let segment = next()?;
        walk_index_segment(segment, |_, _| Ok(()))?;
        indices.push(StoredIndex {
            segment: keep(segment),
            decoded: OnceLock::new(),
        });
    }
    let mut keys = Vec::with_capacity(dimensions);
    for _ in 0..dimensions {
        let segment = next()?;
        keys.push(StoredKeys {
            packed: check_key_column(segment, rows)?,
            segment: keep(segment),
            unpacked: OnceLock::new(),
        });
    }
    let parts = StoredParts {
        meta: Arc::clone(meta),
        fragment,
        rows,
        bytes,
        indices,
        keys,
        #[cfg(test)]
        index_decodes: AtomicU64::new(0),
    };
    Ok(ColumnarFragment::stored(fragment, measures, parts))
}

/// The bitmap indices and key columns of a fragment loaded from a file:
/// their checked segments, each decoded the first time it is asked for and
/// kept for as long as the loaded fragment lives.
///
/// A decoded index or key column is built by exactly one thread, with no
/// lock of the store held; threads asking for it meanwhile wait for that
/// one.  An index whose checked bytes still fail to decode fails every
/// later use the same way.
pub(crate) struct StoredParts {
    meta: Arc<StoreMeta>,
    fragment: u64,
    rows: u64,
    /// Every index segment, then every key segment, back to back.
    bytes: Vec<u8>,
    indices: Vec<StoredIndex>,
    keys: Vec<StoredKeys>,
    /// Index decodes run so far.
    #[cfg(test)]
    index_decodes: AtomicU64,
}

/// One index segment of [`StoredParts`].
struct StoredIndex {
    /// Where the segment lies in [`StoredParts::bytes`].
    segment: Range<usize>,
    /// The decoded index, or why the segment failed to decode.
    decoded: OnceLock<Result<MaterialisedIndex, String>>,
}

/// One key segment of [`StoredParts`].
struct StoredKeys {
    /// Where the segment lies in [`StoredParts::bytes`].
    segment: Range<usize>,
    packed: PackedKeys,
    unpacked: OnceLock<Vec<u64>>,
}

impl StoredParts {
    /// Rows of the fragment.  A checked key column fits in memory, so
    /// this count fits `usize`.
    pub(crate) fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Number of dimensions, one index and one key column each.
    pub(crate) fn dimension_count(&self) -> usize {
        self.indices.len()
    }

    fn segment(&self, range: &Range<usize>) -> &[u8] {
        self.bytes.get(range.clone()).unwrap_or_default()
    }

    /// The bitmap index of `dimension`, decoded on first use, or `None`
    /// if `dimension` is out of range.  The index is a
    /// [`StorageError::Corrupt`] when the segment, though its checksum and
    /// framing verified, does not decode to an index of this fragment.
    pub(crate) fn bitmap_index(
        &self,
        dimension: usize,
    ) -> Option<Result<&MaterialisedIndex, StorageError>> {
        let stored = self.indices.get(dimension)?;
        let decoded = stored.decoded.get_or_init(|| {
            #[cfg(test)]
            self.index_decodes.fetch_add(1, Ordering::Relaxed);
            decode_index_segment(
                self.segment(&stored.segment),
                &self.meta,
                dimension,
                self.rows,
            )
            .map_err(|error| {
                format!(
                    "fragment {}, index of dimension {dimension}: {error}",
                    self.fragment
                )
            })
        });
        Some(
            decoded
                .as_ref()
                .map_err(|message| StorageError::Corrupt(message.clone())),
        )
    }

    /// The key column of `dimension`, unpacked on first use.
    ///
    /// # Panics
    ///
    /// Panics if `dimension` is out of range.
    pub(crate) fn key_column(&self, dimension: usize) -> &[u64] {
        let stored = &self.keys[dimension];
        stored
            .unpacked
            .get_or_init(|| stored.packed.unpack(self.segment(&stored.segment)))
    }

    /// Per dimension, whether its index has been decoded and whether its
    /// key column has been unpacked so far.
    #[cfg(test)]
    fn decoded(&self) -> Vec<(bool, bool)> {
        self.indices
            .iter()
            .zip(&self.keys)
            .map(|(index, keys)| (index.decoded.get().is_some(), keys.unpacked.get().is_some()))
            .collect()
    }
}

impl std::fmt::Debug for StoredParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let decoded = self.indices.iter().filter(|i| i.decoded.get().is_some());
        let unpacked = self.keys.iter().filter(|k| k.unpacked.get().is_some());
        f.debug_struct("StoredParts")
            .field("fragment", &self.fragment)
            .field("rows", &self.rows)
            .field("bytes", &self.bytes.len())
            .field("decoded_indices", &decoded.count())
            .field("unpacked_keys", &unpacked.count())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Serialises `store` into the `FGMT` format of [`FORMAT_VERSION`] at
/// `path`, overwriting any existing file.
///
/// # Errors
///
/// Returns [`StorageError::Io`] when the file cannot be created or written.
pub fn write_store(store: &FragmentStore, path: impl AsRef<Path>) -> Result<(), StorageError> {
    let path = path.as_ref();
    let mut file = std::io::BufWriter::new(File::create(path)?);
    let metadata = encode_metadata(store);
    let meta_checksum = checksum(&metadata);
    let dimension_count = store.schema().dimension_count();
    let measure_count = store.measure_count();

    // Header page.
    let mut header = Vec::with_capacity(PAGE_SIZE as usize);
    header.extend_from_slice(&HEADER_MAGIC);
    put_u32(&mut header, FORMAT_VERSION);
    put_u32(&mut header, PAGE_SIZE as u32);
    put_u32(&mut header, dimension_count as u32);
    put_u32(&mut header, measure_count as u32);
    put_u64(&mut header, store.fragment_count());
    put_u64(&mut header, store.total_rows() as u64);
    put_u64(&mut header, metadata.len() as u64);
    put_u64(&mut header, meta_checksum);
    header.resize(PAGE_SIZE as usize, 0);
    file.write_all(&header)?;

    // Metadata pages.
    let mut offset = PAGE_SIZE;
    file.write_all(&metadata)?;
    offset += metadata.len() as u64;
    offset = write_page_padding(&mut file, offset)?;

    // Fragment extents: segments back to back, padded once at the end.
    let mut entries = Vec::with_capacity(store.fragment_count() as usize);
    for fragment in store.fragments() {
        let payloads = (0..measure_count)
            .map(|m| encode_measure_column(fragment.measure_column(m)))
            .chain((0..dimension_count).map(|d| encode_index_segment(fragment.bitmap_index(d))))
            .chain((0..dimension_count).map(|d| encode_key_column(fragment.key_column(d))));
        let mut segments = Vec::with_capacity(measure_count + 2 * dimension_count);
        for payload in payloads {
            segments.push(SegmentEntry {
                offset,
                len: payload.len() as u64,
                checksum: checksum(&payload),
            });
            file.write_all(&payload)?;
            offset += payload.len() as u64;
        }
        offset = write_page_padding(&mut file, offset)?;
        entries.push(FragmentEntry::new(fragment.len() as u64, segments));
    }

    // Directory + trailer.
    let directory = encode_directory(&entries);
    let dir_offset = offset;
    file.write_all(&directory)?;
    let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
    trailer.extend_from_slice(&TRAILER_MAGIC);
    put_u32(&mut trailer, FORMAT_VERSION);
    put_u32(&mut trailer, PAGE_SIZE as u32);
    put_u64(&mut trailer, dir_offset);
    put_u64(&mut trailer, directory.len() as u64);
    put_u64(&mut trailer, checksum(&directory));
    file.write_all(&trailer)?;
    file.flush()?;
    Ok(())
}

/// Pads the writer with zeroes up to the next page boundary; returns the new
/// offset.
fn write_page_padding<W: Write>(file: &mut W, offset: u64) -> Result<u64, StorageError> {
    let aligned = pages_of(offset) * PAGE_SIZE;
    if aligned > offset {
        let pad = vec![0u8; (aligned - offset) as usize];
        file.write_all(&pad)?;
    }
    Ok(aligned)
}

// ---------------------------------------------------------------------------
// File-backed store.
// ---------------------------------------------------------------------------

/// Tuning knobs of [`FileStore::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct FileStoreOptions {
    /// Capacity of the LRU page pool in [`PAGE_SIZE`] pages.
    pub cache_pages: usize,
    /// Verify every segment checksum eagerly at open (one read per fragment
    /// extent, the whole file swept).  With verification off, corruption
    /// still surfaces as a typed error at first read of the affected
    /// fragment, whose segments are always verified before they are used.
    pub verify: bool,
}

impl Default for FileStoreOptions {
    fn default() -> Self {
        FileStoreOptions {
            cache_pages: 65_536,
            verify: true,
        }
    }
}

/// Cumulative I/O statistics of a [`FileStore`].
///
/// [`FileStore::metrics`] folds in every hit recorded so far before it
/// reads the counters, so the difference between two snapshots is exact for
/// the fetches that completed between them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FileIoMetrics {
    /// LRU page-pool accounting, directly comparable with the simulated
    /// subsystem's cache metrics: every fetch counts each page of its
    /// fragment as one hit or one miss.
    pub pool: BufferPoolStats,
    /// Segments actually read from the file.  A miss reads its fragment's
    /// whole extent, so it adds every segment of the fragment.
    pub segment_reads: u64,
    /// Bytes actually read from the file: the extents of the fragments
    /// loaded, their end-of-extent page padding excluded.
    pub bytes_read: u64,
    /// Fragment fetches served from the decoded-fragment cache (every page
    /// resident, no file access by this fetch), including fetches that
    /// waited for another thread's load of the same fragment.
    pub decoded_cache_hits: u64,
}

/// The replacement state of the file store: the page pool and what follows
/// from its decisions, under one mutex.  Only misses and
/// [`FileStore::metrics`] take it, and neither holds it across file I/O,
/// checksum verification or decoding.
struct FileBacking {
    pool: PagePool,
    /// Resident page count per fragment.
    resident: Vec<u64>,
    /// Page hits of fetches that were counted without being replayed into
    /// `pool` (see [`FileStore::replay_touches`]); reported as pool hits.
    folded_hits: u64,
    segment_reads: u64,
    bytes_read: u64,
    decoded_cache_hits: u64,
    /// [`FileStore::replay_touches`]'s buffer of fragments with hits to
    /// replay — latest hit's clock reading, number, page count, hits — kept
    /// so that a replay allocates nothing once it has grown.
    touched: Vec<(u64, u64, u64, u64)>,
}

/// One fragment of an open store: where it lies in the file, and the state
/// of the read path for it.
struct StoredFragment {
    entry: FragmentEntry,
    slot: FragmentSlot,
}

/// Per-fragment state of the read path.  A cache line of its own, so workers
/// fetching neighbouring fragments never write to the same line.
#[derive(Default)]
#[repr(align(64))]
struct FragmentSlot {
    /// Held for the whole of a load (charge, read, verify, decode the
    /// measures, publish): a second fetch of the same fragment waits here
    /// instead of loading it again, and then finds it published.
    load: Mutex<()>,
    /// The loaded fragment while every one of its pages is resident.  Set
    /// and cleared only under the backing mutex, so it always agrees with
    /// the pool; cleared the moment one of the pages is evicted.
    decoded: Mutex<Option<Arc<ColumnarFragment>>>,
    /// Hits served from `decoded` that the pool has not seen yet.  Written
    /// only under `decoded`; atomic so that a replay can skip untouched slots
    /// without locking them.
    touches: AtomicU64,
    /// [`FileStore::touch_clock`] reading of the latest of those hits.
    /// Written and read only under `decoded`.
    last_touch: AtomicU64,
}

/// A read-only fragment store backed by an `FGMT` file.
///
/// Fragment reads go through the LRU [`PagePool`]: every page of the
/// requested fragment is charged to the pool (hits and misses exactly as the
/// simulated I/O subsystem counts them), a fragment that is not fully
/// resident is read from the file in one positional read of its extent, with
/// every segment's checksum verified before it is used, and fully resident
/// fragments are served from a cache of loaded fragments without touching
/// the file.
///
/// A load decodes the measure columns only.  A loaded fragment decodes each
/// bitmap index on its first use and unpacks each key column on its first
/// [`ColumnarFragment::key_column`] call (see the module docs); what it has
/// decoded lives as long as it stays loaded, and goes with it when one of
/// its pages is evicted.
///
/// The store is cheap to share behind [`std::sync::Arc`] and built for many
/// threads fetching at once (lock order `load` → `backing` → `decoded`):
///
/// * A **hit** — the fragment's loaded form is published in its slot — is
///   an `Arc` clone under the slot's own `decoded` lock plus a note that the
///   fragment was touched.  It takes no store-wide lock and does not walk
///   the page pool.
/// * A **miss** takes the store-wide `backing` mutex twice, briefly: before
///   the load, to replay the noted hits into the pool and charge the
///   fragment's pages (evictions unpublish their victims), and after it, to
///   count the I/O and publish the result if every page is still resident.
///   The positional read, checksum verification and measure decoding in
///   between run with only the fragment's `load` lock held, so loads of
///   different fragments overlap and no fragment is ever loaded twice at
///   once.  A first-use decode of an index runs later, under no lock of
///   the store.
///
/// Replaying the noted hits before every replacement decision and every
/// [`FileStore::metrics`] read leaves the pool and the counters exactly
/// where charging each hit page by page would have, for any sequence of
/// fetches issued one after the other; fetches that overlap in time are
/// accounted in *some* order, with nothing lost.
pub struct FileStore {
    path: PathBuf,
    /// Shared with every loaded fragment, whose indices decode against it.
    meta: Arc<StoreMeta>,
    total_rows: u64,
    file: File,
    /// In page-directory order: a fragment's number is its position.
    fragments: Vec<StoredFragment>,
    /// Orders the hits of different fragments: each hit takes the next value.
    touch_clock: AtomicU64,
    backing: Mutex<FileBacking>,
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("path", &self.path)
            .field("fragments", &self.fragments.len())
            .field("total_rows", &self.total_rows)
            .finish_non_exhaustive()
    }
}

impl FileStore {
    /// Opens an `FGMT` file with default options (64 Ki-page cache, eager
    /// verification).
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] when the file cannot be read and
    /// [`StorageError::Corrupt`] when any structural check fails: magic,
    /// version, header/trailer agreement, metadata and directory checksums,
    /// segment bounds, and (with verification on) every segment checksum.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_with(path, FileStoreOptions::default())
    }

    /// [`FileStore::open`] with explicit [`FileStoreOptions`].
    ///
    /// # Errors
    ///
    /// See [`FileStore::open`]; additionally returns
    /// [`StorageError::Config`] when `cache_pages` is zero.
    pub fn open_with(
        path: impl AsRef<Path>,
        options: FileStoreOptions,
    ) -> Result<Self, StorageError> {
        if options.cache_pages == 0 {
            return Err(StorageError::Config(
                "file store needs a positive page-cache capacity".into(),
            ));
        }
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < PAGE_SIZE + TRAILER_LEN {
            return Err(StorageError::Corrupt(format!(
                "file holds {file_len} bytes, smaller than one page plus the trailer"
            )));
        }

        // Trailer.
        let mut trailer = vec![0u8; TRAILER_LEN as usize];
        read_exact_at(&file, &mut trailer, file_len - TRAILER_LEN)?;
        let mut tr = ByteReader::new(&trailer, "trailer");
        if tr.array()? != TRAILER_MAGIC {
            return Err(StorageError::Corrupt(
                "trailer magic mismatch (file truncated or not an FGMT file)".into(),
            ));
        }
        let trailer_version = tr.u32()?;
        let trailer_page = tr.u32()?;
        let dir_offset = tr.u64()?;
        let dir_len = tr.u64()?;
        let dir_checksum = tr.u64()?;

        // Header page.
        let mut header = vec![0u8; PAGE_SIZE as usize];
        read_exact_at(&file, &mut header, 0)?;
        let mut hr = ByteReader::new(&header, "header");
        if hr.array()? != HEADER_MAGIC {
            return Err(StorageError::Corrupt(
                "header magic mismatch (not an FGMT file)".into(),
            ));
        }
        let version = hr.u32()?;
        if version != FORMAT_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
            )));
        }
        let page_size = hr.u32()?;
        if page_size as u64 != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "unsupported page size {page_size} (this build reads {PAGE_SIZE}-byte pages)"
            )));
        }
        if trailer_version != version || u64::from(trailer_page) != PAGE_SIZE {
            return Err(StorageError::Corrupt(
                "header and trailer disagree on version or page size".into(),
            ));
        }
        let dimension_count = hr.u32()? as usize;
        let measure_count = hr.u32()? as usize;
        let fragment_count = hr.u64()?;
        let total_rows = hr.u64()?;
        let meta_len = hr.u64()?;
        let meta_checksum = hr.u64()?;

        // Metadata blob.
        let data_end = file_len - TRAILER_LEN;
        if PAGE_SIZE
            .checked_add(meta_len)
            .is_none_or(|end| end > data_end)
        {
            return Err(StorageError::Corrupt(
                "metadata blob reaches past the data area".into(),
            ));
        }
        let mut metadata = vec![0u8; meta_len as usize];
        read_exact_at(&file, &mut metadata, PAGE_SIZE)?;
        if checksum(&metadata) != meta_checksum {
            return Err(StorageError::Corrupt("metadata checksum mismatch".into()));
        }
        let meta = decode_metadata(&metadata, dimension_count)?;
        if meta.schema.fact().measures().len() != measure_count {
            return Err(StorageError::Corrupt(format!(
                "header declares {measure_count} measures, metadata {}",
                meta.schema.fact().measures().len()
            )));
        }
        if meta.fragmentation.fragment_count() != fragment_count {
            return Err(StorageError::Corrupt(format!(
                "header declares {fragment_count} fragments, fragmentation yields {}",
                meta.fragmentation.fragment_count()
            )));
        }

        // Directory.
        if dir_offset
            .checked_add(dir_len)
            .is_none_or(|end| end > data_end)
        {
            return Err(StorageError::Corrupt(
                "page directory reaches past the data area".into(),
            ));
        }
        let mut directory_bytes = vec![0u8; dir_len as usize];
        read_exact_at(&file, &mut directory_bytes, dir_offset)?;
        if checksum(&directory_bytes) != dir_checksum {
            return Err(StorageError::Corrupt(
                "page directory checksum mismatch".into(),
            ));
        }
        let directory = decode_directory(
            &directory_bytes,
            fragment_count,
            measure_count + 2 * dimension_count,
            pages_of(PAGE_SIZE + meta_len) * PAGE_SIZE,
            dir_offset,
        )?;
        let dir_rows = directory
            .iter()
            .try_fold(0u64, |sum, e| sum.checked_add(e.rows));
        if dir_rows != Some(total_rows) {
            return Err(StorageError::Corrupt(format!(
                "header declares {total_rows} rows, directory sums to {dir_rows:?}"
            )));
        }

        if options.verify {
            let mut extent = Vec::new();
            for (fragment, entry) in (0u64..).zip(&directory) {
                extent.resize(entry.len as usize, 0);
                read_exact_at(&file, &mut extent, entry.offset)?;
                for segment in verified_segments(fragment, entry, &extent) {
                    segment?;
                }
            }
        }

        Ok(FileStore {
            path,
            meta: Arc::new(meta),
            total_rows,
            file,
            touch_clock: AtomicU64::new(0),
            backing: Mutex::new(FileBacking {
                pool: PagePool::new(options.cache_pages),
                resident: vec![0; directory.len()],
                folded_hits: 0,
                segment_reads: 0,
                bytes_read: 0,
                decoded_cache_hits: 0,
                touched: Vec::new(),
            }),
            fragments: directory
                .into_iter()
                .map(|entry| StoredFragment {
                    entry,
                    slot: FragmentSlot::default(),
                })
                .collect(),
        })
    }

    /// The path the store was opened from.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The stored star schema.
    #[must_use]
    pub fn schema(&self) -> &StarSchema {
        &self.meta.schema
    }

    /// The stored fragmentation.
    #[must_use]
    pub fn fragmentation(&self) -> &Fragmentation {
        &self.meta.fragmentation
    }

    /// The stored index catalog.
    #[must_use]
    pub fn catalog(&self) -> &IndexCatalog {
        &self.meta.catalog
    }

    /// The representation policy the stored indices were built with.
    #[must_use]
    pub fn policy(&self) -> RepresentationPolicy {
        self.meta.policy
    }

    /// Number of fragments in the file.
    #[must_use]
    pub fn fragment_count(&self) -> u64 {
        self.fragments.len() as u64
    }

    /// Total fact rows across all fragments.
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Rows of one fragment, straight from the page directory (no I/O).
    ///
    /// # Panics
    ///
    /// Panics if `fragment_number` is out of range.
    #[must_use]
    pub fn fragment_rows(&self, fragment_number: u64) -> u64 {
        self.fragments[fragment_number as usize].entry.rows
    }

    /// Cumulative I/O statistics: page-pool accounting, segments and bytes
    /// actually read, decoded-cache hits — with every hit served so far
    /// folded in first.
    #[must_use]
    pub fn metrics(&self) -> FileIoMetrics {
        let mut backing = self.backing.plock("file backing");
        self.replay_touches(&mut backing);
        let mut pool = backing.pool.stats();
        pool.hits += backing.folded_hits;
        FileIoMetrics {
            pool,
            segment_reads: backing.segment_reads,
            bytes_read: backing.bytes_read,
            decoded_cache_hits: backing.decoded_cache_hits,
        }
    }

    /// Reads one fragment, charging its pages to the LRU pool and serving
    /// from the decoded cache when every page is already resident.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] on read failures,
    /// [`StorageError::Decode`] / [`StorageError::Corrupt`] when the stored
    /// bytes fail to decode or fail their checksum, and
    /// [`StorageError::Config`] when `fragment_number` is out of range.  A
    /// failed load caches nothing: the next fetch of the fragment reads it
    /// again.
    pub fn read_fragment(
        &self,
        fragment_number: u64,
    ) -> Result<Arc<ColumnarFragment>, StorageError> {
        let number = fragment_number as usize;
        let StoredFragment { entry, slot } = self.fragments.get(number).ok_or_else(|| {
            StorageError::Config(format!(
                "fragment {fragment_number} out of range (store holds {})",
                self.fragments.len()
            ))
        })?;
        if let Some(fragment) = self.published(slot) {
            return Ok(fragment);
        }
        let _loading = slot.load.plock("fragment load");
        if let Some(fragment) = self.published(slot) {
            // Another thread loaded it while this one waited.
            return Ok(fragment);
        }
        {
            let mut backing = self.backing.plock("file backing");
            self.replay_touches(&mut backing);
            self.charge(&mut backing, fragment_number, entry.page_count);
        }
        let mut read = FileIoMetrics::default();
        let loaded = self.load_fragment(fragment_number, entry, &mut read);
        let mut backing = self.backing.plock("file backing");
        backing.segment_reads += read.segment_reads;
        backing.bytes_read += read.bytes_read;
        let fragment = Arc::new(loaded?);
        // Another load may have evicted some of the pages charged above
        // while this one was reading; then the fragment is handed out but
        // not kept.
        if backing.resident.get(number) == Some(&entry.page_count) {
            *slot.decoded.plock("decoded fragment") = Some(Arc::clone(&fragment));
        }
        Ok(fragment)
    }

    /// The hit path: the published decoded form of `slot`'s fragment, if
    /// any, noting the touch for [`FileStore::replay_touches`].
    fn published(&self, slot: &FragmentSlot) -> Option<Arc<ColumnarFragment>> {
        let decoded = slot.decoded.plock("decoded fragment");
        let fragment = Arc::clone(decoded.as_ref()?);
        // Noted before `decoded` is released, so an eviction (which clears
        // `decoded` under the same lock) never leaves a touch behind on an
        // unpublished slot.  Relaxed: that lock orders every access to the
        // two slot fields, and the clock only has to hand out distinct,
        // increasing values.
        let now = self.touch_clock.fetch_add(1, Ordering::Relaxed);
        slot.last_touch.store(now, Ordering::Relaxed);
        slot.touches.fetch_add(1, Ordering::Relaxed);
        Some(fragment)
    }

    /// Folds the hits noted since the last replay into the page pool, as if
    /// each had charged its pages when it happened.  Runs before every
    /// replacement decision and every metrics read.
    ///
    /// A hit never evicts, so only the *latest* hit of a fragment decides
    /// where its pages stand in the LRU order: that one is charged page by
    /// page, fragments in the order of their latest hits, and each earlier
    /// hit is counted as `page_count` pool hits.
    fn replay_touches(&self, backing: &mut FileBacking) {
        let mut touched = std::mem::take(&mut backing.touched);
        touched.clear();
        for (number, StoredFragment { entry, slot }) in (0u64..).zip(&self.fragments) {
            // A touch this load does not see yet is replayed next time.
            if slot.touches.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let _decoded = slot.decoded.plock("decoded fragment");
            touched.push((
                slot.last_touch.load(Ordering::Relaxed),
                number,
                entry.page_count,
                slot.touches.swap(0, Ordering::Relaxed),
            ));
        }
        touched.sort_unstable();
        for &(_, number, pages, touches) in &touched {
            // All hits: a published fragment has every page resident.
            self.charge(backing, number, pages);
            backing.folded_hits += pages * (touches - 1);
            backing.decoded_cache_hits += touches;
        }
        backing.touched = touched;
    }

    /// Charges every page of fragment `number` to the pool.
    fn charge(&self, backing: &mut FileBacking, number: u64, pages: u64) {
        for page in 0..pages {
            let outcome = backing.pool.request_reporting(PageKey::new(number, page));
            if !outcome.hit {
                backing.resident[number as usize] += 1;
            }
            if let Some(victim) = outcome.evicted {
                self.evict_page_of(backing, victim.object as usize);
            }
        }
    }

    /// Accounts for the eviction of one page of fragment `victim`: a fully
    /// resident fragment stops being one, so its decoded form goes too.
    fn evict_page_of(&self, backing: &mut FileBacking, victim: usize) {
        let StoredFragment { entry, slot } = &self.fragments[victim];
        let resident = &mut backing.resident[victim];
        if *resident == entry.page_count {
            let mut decoded = slot.decoded.plock("decoded fragment");
            *decoded = None;
            // Hits of other threads that slipped in after the replay: their
            // pages were resident when they were served, so they count, but
            // they come too late to save the fragment.
            let late = slot.touches.swap(0, Ordering::Relaxed);
            drop(decoded);
            backing.folded_hits += entry.page_count * late;
            backing.decoded_cache_hits += late;
        }
        *resident -= 1;
    }

    /// Reads one fragment's extent with a single positional read, then
    /// verifies and loads it ([`decode_extent`]).  Touches only immutable
    /// state and the shared file handle; `read` receives the segments and
    /// bytes actually read, whether or not the load succeeds.
    fn load_fragment(
        &self,
        fragment_number: u64,
        entry: &FragmentEntry,
        read: &mut FileIoMetrics,
    ) -> Result<ColumnarFragment, StorageError> {
        let mut extent = vec![0u8; entry.len as usize];
        read_exact_at(&self.file, &mut extent, entry.offset)?;
        read.segment_reads += entry.segments.len() as u64;
        read.bytes_read += entry.len;
        decode_extent(&self.meta, fragment_number, entry, &extent)
    }

    /// Reads the whole file back into an in-memory [`FragmentStore`] —
    /// the inverse of [`write_store`], used by round-trip tests and by
    /// callers that want file persistence but in-memory execution.
    ///
    /// # Errors
    ///
    /// Propagates any [`StorageError`] from reading the fragments.
    pub fn materialise(&self) -> Result<FragmentStore, StorageError> {
        let mut fragments = Vec::with_capacity(self.fragments.len());
        for number in 0..self.fragment_count() {
            fragments.push(self.read_fragment(number)?.to_built()?);
        }
        Ok(FragmentStore::from_parts(
            self.meta.schema.clone(),
            self.meta.fragmentation.clone(),
            self.meta.catalog.clone(),
            self.meta.policy,
            fragments,
            self.total_rows as usize,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use schema::apb1::{apb1_scaled_down, Apb1Config};

    fn small_store() -> FragmentStore {
        let schema = apb1_scaled_down();
        let fragmentation = Fragmentation::parse(&schema, &["time::quarter"]).unwrap();
        FragmentStore::build(&schema, &fragmentation, 99)
    }

    /// 36 fragments of 5 pages each, 180 pages in all: enough fragments for
    /// replacement to matter, and enough pages per fragment that a pool can
    /// evict one page of a resident fragment and keep the others.
    fn month_channel_store() -> FragmentStore {
        let schema = Apb1Config {
            density: 0.1,
            ..Apb1Config::scaled_down()
        }
        .build();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "channel::channel"]).unwrap();
        FragmentStore::build(&schema, &fragmentation, 2024)
    }

    /// Pages of every fragment of `month_channel_store()`.
    const MONTH_CHANNEL_FRAGMENT_PAGES: u64 = 5;
    const MONTH_CHANNEL_TOTAL_PAGES: usize = 180;

    fn open_unverified(path: &Path, cache_pages: usize) -> FileStore {
        let options = FileStoreOptions {
            cache_pages,
            verify: false,
        };
        FileStore::open_with(path, options).unwrap()
    }

    /// `count` fragment numbers from a fixed generator, every other one out
    /// of the first eighth of the store.
    fn skewed_fetches(fragments: u64, count: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        (0..count)
            .map(|i| next() % if i % 2 == 0 { fragments / 8 } else { fragments })
            .collect()
    }

    /// The read path as it stood before hits were deferred: every fetch, hit
    /// or miss, charges its pages to the pool one by one.
    struct PageByPageModel {
        pool: PagePool,
        resident: BTreeMap<u64, u64>,
        decoded: std::collections::BTreeSet<u64>,
        segment_reads: u64,
        bytes_read: u64,
        decoded_cache_hits: u64,
    }

    impl PageByPageModel {
        fn new(cache_pages: usize) -> Self {
            PageByPageModel {
                pool: PagePool::new(cache_pages),
                resident: BTreeMap::new(),
                decoded: std::collections::BTreeSet::new(),
                segment_reads: 0,
                bytes_read: 0,
                decoded_cache_hits: 0,
            }
        }

        fn fetch(&mut self, fragment: u64, entry: &FragmentEntry) {
            let mut misses = 0u64;
            for page in 0..entry.page_count {
                let outcome = self.pool.request_reporting(PageKey::new(fragment, page));
                if !outcome.hit {
                    misses += 1;
                    *self.resident.entry(fragment).or_insert(0) += 1;
                }
                if let Some(victim) = outcome.evicted {
                    *self.resident.get_mut(&victim.object).unwrap() -= 1;
                    self.decoded.remove(&victim.object);
                }
            }
            if misses == 0 && self.decoded.contains(&fragment) {
                self.decoded_cache_hits += 1;
                return;
            }
            self.segment_reads += entry.segments.len() as u64;
            self.bytes_read += entry.segments.iter().map(|seg| seg.len).sum::<u64>();
            if self.resident.get(&fragment) == Some(&entry.page_count) {
                self.decoded.insert(fragment);
            }
        }

        fn metrics(&self) -> FileIoMetrics {
            FileIoMetrics {
                pool: self.pool.stats(),
                segment_reads: self.segment_reads,
                bytes_read: self.bytes_read,
                decoded_cache_hits: self.decoded_cache_hits,
            }
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("fgmt_test_{}_{tag}_{n}.fgmt", std::process::id()))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let store = small_store();
        let file = TempFile(temp_path("roundtrip"));
        write_store(&store, &file.0).unwrap();
        let opened = FileStore::open(&file.0).unwrap();
        assert_eq!(opened.fragment_count(), store.fragment_count());
        assert_eq!(opened.total_rows(), store.total_rows() as u64);
        assert_eq!(opened.schema(), store.schema());
        assert_eq!(opened.fragmentation(), store.fragmentation());
        assert_eq!(opened.catalog(), store.catalog());
        assert_eq!(opened.policy(), store.policy());
        let materialised = opened.materialise().unwrap();
        assert_eq!(materialised, store);
    }

    #[test]
    fn fragment_reads_charge_the_page_pool() {
        let store = small_store();
        let file = TempFile(temp_path("pool"));
        write_store(&store, &file.0).unwrap();
        let opened = FileStore::open(&file.0).unwrap();

        let cold = opened.metrics();
        assert_eq!(cold.pool.hits + cold.pool.misses, 0, "open charges nothing");

        let first = opened.read_fragment(0).unwrap();
        let after_cold = opened.metrics();
        assert!(after_cold.pool.misses > 0);
        assert_eq!(after_cold.pool.hits, 0);
        assert!(after_cold.segment_reads > 0);

        let second = opened.read_fragment(0).unwrap();
        let after_warm = opened.metrics();
        assert_eq!(after_warm.pool.misses, after_cold.pool.misses);
        assert!(after_warm.pool.hits > 0);
        assert_eq!(after_warm.decoded_cache_hits, 1);
        assert_eq!(
            after_warm.segment_reads, after_cold.segment_reads,
            "warm fetch reads nothing from the file"
        );
        assert_eq!(*first, *second);
        assert_eq!(*first, *store.fragment(0));
    }

    #[test]
    fn tiny_pool_evicts_and_rereads() {
        let store = small_store();
        let file = TempFile(temp_path("evict"));
        write_store(&store, &file.0).unwrap();
        // A pool smaller than one fragment can never keep it resident.
        let opened = FileStore::open_with(
            &file.0,
            FileStoreOptions {
                cache_pages: 1,
                verify: false,
            },
        )
        .unwrap();
        let a = opened.read_fragment(0).unwrap();
        let first_reads = opened.metrics().segment_reads;
        let b = opened.read_fragment(0).unwrap();
        let metrics = opened.metrics();
        assert!(
            metrics.segment_reads > first_reads,
            "no decoded-cache serve"
        );
        assert_eq!(metrics.decoded_cache_hits, 0);
        assert!(metrics.pool.evictions > 0);
        assert_eq!(*a, *b);
    }

    #[test]
    fn serial_fetches_account_exactly_like_page_by_page_charging() {
        let store = month_channel_store();
        let file = TempFile(temp_path("exact"));
        write_store(&store, &file.0).unwrap();
        let (total_pages, largest) = {
            let opened = open_unverified(&file.0, 1);
            let pages = opened.fragments.iter().map(|f| f.entry.page_count as usize);
            (pages.clone().sum::<usize>(), pages.max().unwrap())
        };
        assert_eq!(total_pages, MONTH_CHANNEL_TOTAL_PAGES);
        assert_eq!(largest as u64, MONTH_CHANNEL_FRAGMENT_PAGES);
        let fetches = skewed_fetches(store.fragment_count(), 6_000, 18);
        for cache_pages in [
            1,
            largest,
            total_pages / 8,
            total_pages / 2,
            2 * total_pages,
        ] {
            let opened = open_unverified(&file.0, cache_pages);
            let mut model = PageByPageModel::new(cache_pages);
            for (done, &fragment) in fetches.iter().enumerate() {
                opened.read_fragment(fragment).unwrap();
                model.fetch(fragment, &opened.fragments[fragment as usize].entry);
                // Long and short stretches of deferred hits between replays.
                if [1, 2, 700, 701, 2_900, 6_000].contains(&(done + 1)) {
                    assert_eq!(
                        opened.metrics(),
                        model.metrics(),
                        "{cache_pages} cache pages, after {} fetches",
                        done + 1
                    );
                }
            }
            let metrics = opened.metrics();
            assert!(metrics.segment_reads > 0);
            if cache_pages > largest {
                assert!(metrics.decoded_cache_hits > 0);
            }
        }
    }

    #[test]
    fn concurrent_fetches_are_correct_and_fully_accounted() {
        const THREADS: u64 = 4;
        const RANDOM_FETCHES: usize = 2_000;
        let store = month_channel_store();
        let file = TempFile(temp_path("stress"));
        write_store(&store, &file.0).unwrap();
        let fragments = store.fragment_count();
        let total_pages = MONTH_CHANNEL_TOTAL_PAGES;
        for cache_pages in [1, total_pages / 8, 2 * total_pages] {
            let opened = open_unverified(&file.0, cache_pages);
            let start = std::sync::Barrier::new(THREADS as usize);
            let pages_fetched: u64 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|thread| {
                        let (opened, store, start) = (&opened, &store, &start);
                        scope.spawn(move || {
                            // Every thread begins with the same sweep, so all
                            // of them race for each fragment's first load.
                            let sweep = 0..fragments;
                            let random = skewed_fetches(fragments, RANDOM_FETCHES, thread);
                            start.wait();
                            sweep
                                .chain(random)
                                .map(|fragment| {
                                    let fetched = opened.read_fragment(fragment).unwrap();
                                    assert_eq!(*fetched, *store.fragment(fragment));
                                    opened.fragments[fragment as usize].entry.page_count
                                })
                                .sum::<u64>()
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            let metrics = opened.metrics();
            let fetches = THREADS * (fragments + RANDOM_FETCHES as u64);
            let segments = opened.fragments[0].entry.segments.len() as u64;
            assert_eq!(metrics.pool.hits + metrics.pool.misses, pages_fetched);
            assert_eq!(metrics.segment_reads % segments, 0);
            assert_eq!(
                metrics.decoded_cache_hits + metrics.segment_reads / segments,
                fetches,
                "{cache_pages} cache pages"
            );
            if cache_pages > total_pages {
                // Nothing is ever evicted, so each fragment is read once —
                // by whichever thread got to it first.
                assert_eq!(metrics.segment_reads, fragments * segments);
                assert_eq!(metrics.pool.misses, total_pages as u64);
                assert_eq!(metrics.pool.evictions, 0);
            }
        }
    }

    /// Fetches `fragment` from two threads at once and returns both outcomes.
    fn fetch_from_two_threads(
        opened: &FileStore,
        fragment: u64,
    ) -> [Result<Arc<ColumnarFragment>, StorageError>; 2] {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            [(), ()]
                .map(|()| {
                    scope.spawn(|| {
                        start.wait();
                        opened.read_fragment(fragment)
                    })
                })
                .map(|fetch| fetch.join().unwrap())
        })
    }

    #[test]
    fn a_corrupt_segment_fails_every_fetch_of_its_fragment_and_nothing_else() {
        let store = small_store();
        let file = TempFile(temp_path("badsegment"));
        write_store(&store, &file.0).unwrap();
        let bad = store.fragment_count() - 1;
        let extent = open_unverified(&file.0, 64).fragments[bad as usize]
            .entry
            .clone();
        let mut bytes = std::fs::read(&file.0).unwrap();
        bytes[extent.offset as usize] ^= 0xFF;
        std::fs::write(&file.0, &bytes).unwrap();

        let opened = open_unverified(&file.0, 65_536);
        for outcome in fetch_from_two_threads(&opened, bad) {
            assert!(
                matches!(outcome, Err(StorageError::Corrupt(_))),
                "{outcome:?}"
            );
        }
        // Each of the two read the bad fragment's extent itself, and only
        // that one.
        let metrics = opened.metrics();
        assert_eq!(metrics.segment_reads, 2 * extent.segments.len() as u64);
        assert_eq!(metrics.bytes_read, 2 * extent.len);
        assert_eq!(metrics.decoded_cache_hits, 0);
        // Nothing was published and no lock is left held or poisoned.
        assert!(matches!(
            opened.read_fragment(bad),
            Err(StorageError::Corrupt(_))
        ));
        assert_eq!(*opened.read_fragment(0).unwrap(), *store.fragment(0));
        assert_eq!(*opened.read_fragment(0).unwrap(), *store.fragment(0));
        assert_eq!(opened.metrics().decoded_cache_hits, 1);
    }

    #[test]
    fn a_file_truncated_under_the_open_store_fails_only_the_lost_fragments() {
        let store = small_store();
        let file = TempFile(temp_path("cut"));
        write_store(&store, &file.0).unwrap();
        let opened = FileStore::open(&file.0).unwrap();
        let lost = store.fragment_count() - 1;
        let keep = opened.fragments[lost as usize].entry.offset;
        File::options()
            .write(true)
            .open(&file.0)
            .unwrap()
            .set_len(keep)
            .unwrap();

        for outcome in fetch_from_two_threads(&opened, lost) {
            assert!(matches!(outcome, Err(StorageError::Io(_))), "{outcome:?}");
        }
        assert_eq!(opened.metrics().segment_reads, 0, "nothing could be read");
        assert_eq!(*opened.read_fragment(0).unwrap(), *store.fragment(0));
    }

    #[test]
    fn open_rejects_missing_and_tiny_files() {
        let missing = temp_path("missing");
        assert!(matches!(
            FileStore::open(&missing),
            Err(StorageError::Io(_))
        ));
        let file = TempFile(temp_path("tiny"));
        std::fs::write(&file.0, b"FGMT").unwrap();
        assert!(matches!(
            FileStore::open(&file.0),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn open_rejects_truncation() {
        let store = small_store();
        let file = TempFile(temp_path("truncated"));
        write_store(&store, &file.0).unwrap();
        let bytes = std::fs::read(&file.0).unwrap();
        std::fs::write(&file.0, &bytes[..bytes.len() - PAGE_SIZE as usize]).unwrap();
        assert!(matches!(
            FileStore::open(&file.0),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn open_rejects_wrong_version() {
        let store = small_store();
        let file = TempFile(temp_path("version"));
        write_store(&store, &file.0).unwrap();
        let mut bytes = std::fs::read(&file.0).unwrap();
        // Bump the header version field (bytes 4..8).
        bytes[4] = 99;
        std::fs::write(&file.0, &bytes).unwrap();
        match FileStore::open(&file.0) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_flipped_data_byte() {
        let store = small_store();
        let file = TempFile(temp_path("bitflip"));
        write_store(&store, &file.0).unwrap();
        let middle = open_unverified(&file.0, 64).fragments[store.fragment_count() as usize / 2]
            .entry
            .clone();
        let mut bytes = std::fs::read(&file.0).unwrap();
        // Flip one byte in the middle of the middle fragment's extent.
        bytes[(middle.offset + middle.len / 2) as usize] ^= 0xFF;
        std::fs::write(&file.0, &bytes).unwrap();
        // Eager verification reports the checksum mismatch at open …
        assert!(matches!(
            FileStore::open(&file.0),
            Err(StorageError::Corrupt(_) | StorageError::Decode(_))
        ));
        // … and with verification off the same corruption surfaces as a
        // typed error at read time, never a panic.
        let lazy = FileStore::open_with(
            &file.0,
            FileStoreOptions {
                verify: false,
                ..FileStoreOptions::default()
            },
        );
        if let Ok(lazy) = lazy {
            let mut saw_error = false;
            for number in 0..lazy.fragment_count() {
                if lazy.read_fragment(number).is_err() {
                    saw_error = true;
                }
            }
            assert!(saw_error, "corruption must surface on some fragment");
        }
    }

    #[test]
    fn zero_cache_capacity_is_a_config_error() {
        let store = small_store();
        let file = TempFile(temp_path("zerocache"));
        write_store(&store, &file.0).unwrap();
        assert!(matches!(
            FileStore::open_with(
                &file.0,
                FileStoreOptions {
                    cache_pages: 0,
                    verify: true
                }
            ),
            Err(StorageError::Config(_))
        ));
    }

    #[test]
    fn error_display_and_source_are_wired() {
        let io = StorageError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
        let corrupt = StorageError::Corrupt("bad".into());
        assert!(corrupt.to_string().contains("corrupt"));
        assert!(std::error::Error::source(&corrupt).is_none());
        let decode = StorageError::from(ReprDecodeError::BadMagic);
        assert!(decode.to_string().contains("decode"));
    }

    #[test]
    fn format_pin_matches_the_committed_checksum() {
        let file = TempFile(temp_path("pin"));
        write_store(&small_store(), &file.0).unwrap();
        let bytes = std::fs::read(&file.0).unwrap();
        assert_eq!(
            checksum(&bytes),
            SMALL_STORE_FILE_CHECKSUM,
            "the FGMT v{FORMAT_VERSION} byte layout changed: bump FORMAT_VERSION, or \
             restate SMALL_STORE_FILE_CHECKSUM if the change is intended"
        );
    }

    #[test]
    fn open_rejects_a_version_1_file() {
        let file = TempFile(temp_path("v1"));
        write_store(&small_store(), &file.0).unwrap();
        let mut bytes = std::fs::read(&file.0).unwrap();
        // The version follows the magic in the header and in the trailer.
        let trailer = bytes.len() - TRAILER_LEN as usize + TRAILER_MAGIC.len();
        for at in [HEADER_MAGIC.len(), trailer] {
            bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
        }
        std::fs::write(&file.0, &bytes).unwrap();
        match FileStore::open(&file.0) {
            Err(StorageError::Corrupt(msg)) => {
                assert!(msg.starts_with("unsupported format version 1 "), "{msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// A fixed pseudo-random byte string.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| crate::store::mix64(seed, i) as u8)
            .collect()
    }

    #[test]
    fn checksum_detects_every_single_byte_change_and_every_length() {
        for len in 0..=100 {
            let mut bytes = noise(len, 7);
            let base = checksum(&bytes);
            for at in 0..len {
                for flip in [0x01, 0x80, 0xFF] {
                    bytes[at] ^= flip;
                    assert_ne!(
                        checksum(&bytes),
                        base,
                        "len {len}, byte {at}, flip {flip:#x}"
                    );
                    bytes[at] ^= flip;
                }
            }
        }
        // Zero padding of the last word never hides a length: all-zero
        // inputs and the prefixes of one input all differ.
        let zeros: std::collections::BTreeSet<u64> =
            (0..=100).map(|len| checksum(&vec![0u8; len])).collect();
        assert_eq!(zeros.len(), 101);
        let bytes = noise(100, 8);
        let prefixes: std::collections::BTreeSet<u64> =
            (0..=100).map(|len| checksum(&bytes[..len])).collect();
        assert_eq!(prefixes.len(), 101);
    }

    #[test]
    fn bit_packed_keys_cover_the_edge_widths_and_row_counts() {
        let cases: [&[u64]; 7] = [
            &[],
            &[42],
            &[u64::MAX],
            &[0, u64::MAX],
            &[u64::MAX, 0, 17],
            &[5, 5, 5, 5, 5],
            &[1 << 63, (1 << 63) + 1, 1 << 63],
        ];
        for keys in cases {
            let packed = encode_key_column(keys);
            let width = u64::from(packed[8]);
            assert_eq!(
                packed.len() as u64,
                9 + 8 * (keys.len() as u64 * width).div_ceil(64)
            );
            assert_eq!(decode_key_column(&packed, keys.len() as u64).unwrap(), keys);
            // An absurd row count is a typed error, whatever the width.
            assert!(matches!(
                decode_key_column(&packed, u64::MAX),
                Err(StorageError::Corrupt(_))
            ));
        }
        assert_eq!(encode_key_column(&[0, u64::MAX])[8], 64);
        assert_eq!(encode_key_column(&[9, 9])[8], 0);
        // A width above 64 is rejected, not shifted out of range.
        let mut bad = encode_key_column(&[1, 2, 3]);
        bad[8] = 65;
        assert!(matches!(
            decode_key_column(&bad, 3),
            Err(StorageError::Corrupt(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Key columns of every width 0–64, any frame of reference and any
        /// row count (odd ones included) round-trip exactly, in exactly
        /// ⌈rows · width / 64⌉ words.
        #[test]
        fn bit_packed_keys_round_trip(
            width in 0u32..65,
            rows in 0usize..200,
            base in 0u64..u64::MAX,
            seed in 0u64..u64::MAX,
        ) {
            let span = if width == 0 { 0 } else { u64::MAX >> (64 - width) };
            let min = base.min(u64::MAX - span);
            let mut keys: Vec<u64> = (0..rows as u64)
                .map(|row| min + (crate::store::mix64(seed, row) & span))
                .collect();
            // Pin both ends of the frame so the column needs all `width` bits.
            if rows >= 2 {
                keys[0] = min;
                keys[rows / 2] = min + span;
            }
            let packed = encode_key_column(&keys);
            let packed_width = u64::from(packed[8]);
            if rows >= 2 {
                prop_assert_eq!(packed_width, u64::from(width));
            }
            prop_assert_eq!(
                packed.len() as u64,
                9 + 8 * (rows as u64 * packed_width).div_ceil(64)
            );
            prop_assert_eq!(decode_key_column(&packed, rows as u64).unwrap(), keys);
        }
    }

    /// 6 fragments of about 60 rows: small enough to corrupt byte by byte.
    fn tiny_store() -> FragmentStore {
        let schema = Apb1Config {
            channels: 3,
            months: 6,
            stores: 16,
            product_codes: 24,
            density: 0.05,
            fact_tuple_bytes: 20,
        }
        .build();
        let fragmentation = Fragmentation::parse(&schema, &["time::month"]).unwrap();
        FragmentStore::build(&schema, &fragmentation, 5)
    }

    #[test]
    fn every_flipped_byte_and_every_truncated_segment_is_corrupt() {
        let store = tiny_store();
        let file = TempFile(temp_path("exhaustive"));
        write_store(&store, &file.0).unwrap();
        let opened = open_unverified(&file.0, 64);
        let bytes = std::fs::read(&file.0).unwrap();
        let mut flips = 0;
        for (number, fragment) in (0u64..).zip(&opened.fragments) {
            let entry = &fragment.entry;
            let start = entry.offset as usize;
            let mut extent = bytes[start..start + entry.len as usize].to_vec();
            let decoded = decode_extent(&opened.meta, number, entry, &extent).unwrap();
            assert_eq!(decoded, *store.fragment(number));
            for at in 0..extent.len() {
                extent[at] ^= 0x20;
                let outcome = decode_extent(&opened.meta, number, entry, &extent);
                assert!(
                    matches!(outcome, Err(StorageError::Corrupt(_))),
                    "fragment {number}, extent byte {at}: {outcome:?}"
                );
                extent[at] ^= 0x20;
                flips += 1;
            }
            // Drop the last byte of one segment, as if it had been written
            // one byte short: caught by its checksum, and with the checksum
            // restated, by the segment's decoder.
            for (index, segment) in entry.segments.iter().enumerate() {
                if segment.len == 0 {
                    continue;
                }
                let cut = (segment.offset + segment.len - 1 - entry.offset) as usize;
                let mut short = extent.clone();
                short.remove(cut);
                let mut segments = entry.segments.clone();
                segments[index].len -= 1;
                for later in &mut segments[index + 1..] {
                    later.offset -= 1;
                }
                let mut stale = FragmentEntry::new(entry.rows, segments);
                let outcome = decode_extent(&opened.meta, number, &stale, &short);
                assert!(
                    matches!(&outcome, Err(StorageError::Corrupt(msg)) if msg.contains("checksum")),
                    "fragment {number}, segment {index} truncated: {outcome:?}"
                );
                let start = (stale.segments[index].offset - entry.offset) as usize;
                stale.segments[index].checksum =
                    checksum(&short[start..start + segment.len as usize - 1]);
                let outcome = decode_extent(&opened.meta, number, &stale, &short);
                assert!(
                    matches!(outcome, Err(StorageError::Corrupt(_))),
                    "fragment {number}, segment {index} truncated, checksum restated: {outcome:?}"
                );
            }
        }
        assert!(flips > 1_000, "only {flips} bytes flipped");
    }

    /// `path`'s file with `change` applied to segment `index` of fragment
    /// `fragment`, and that segment's and the directory's checksums
    /// restated, so that the file still opens and verifies.
    fn rewrite_segment(path: &Path, fragment: u64, index: usize, change: impl FnOnce(&mut [u8])) {
        let mut entries: Vec<FragmentEntry> = open_unverified(path, 64)
            .fragments
            .iter()
            .map(|f| f.entry.clone())
            .collect();
        let mut bytes = std::fs::read(path).unwrap();
        let segment = &mut entries[fragment as usize].segments[index];
        let range = segment.offset as usize..(segment.offset + segment.len) as usize;
        change(&mut bytes[range.clone()]);
        segment.checksum = checksum(&bytes[range]);
        // The trailer: magic, version, page size, then the directory's
        // offset, length and checksum.
        let trailer = bytes.len() - TRAILER_LEN as usize;
        let directory_at = le_word(&bytes[trailer + 16..trailer + 24]) as usize;
        let directory = encode_directory(&entries);
        bytes[directory_at..directory_at + directory.len()].copy_from_slice(&directory);
        bytes[trailer + 32..].copy_from_slice(&checksum(&directory).to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    /// No index decoded and no key column unpacked, for `dimensions`
    /// dimensions.
    fn nothing_decoded(dimensions: usize) -> Vec<(bool, bool)> {
        vec![(false, false); dimensions]
    }

    #[test]
    fn a_load_decodes_no_index_and_first_use_decodes_only_that_one() {
        let store = small_store();
        let file = TempFile(temp_path("lazy"));
        write_store(&store, &file.0).unwrap();
        let opened = FileStore::open(&file.0).unwrap();
        let dimensions = store.schema().dimension_count();
        let number = 1;
        let fragment = opened.read_fragment(number).unwrap();
        let parts = fragment
            .stored_parts()
            .expect("a loaded fragment is stored");
        assert_eq!(parts.decoded(), nothing_decoded(dimensions));
        for dimension in 0..dimensions {
            let index = fragment.try_bitmap_index(dimension).unwrap();
            assert_eq!(index, store.fragment(number).bitmap_index(dimension));
            let expected: Vec<(bool, bool)> =
                (0..dimensions).map(|d| (d <= dimension, false)).collect();
            assert_eq!(parts.decoded(), expected, "after dimension {dimension}");
            // A second use, and a hit's, find the same decoded index.
            let hit = opened.read_fragment(number).unwrap();
            assert!(Arc::ptr_eq(&hit, &fragment));
            assert!(std::ptr::eq(
                hit.try_bitmap_index(dimension).unwrap(),
                index
            ));
        }
        assert_eq!(
            parts.index_decodes.load(Ordering::Relaxed),
            dimensions as u64
        );
        assert!(matches!(
            fragment.try_bitmap_index(dimensions),
            Err(StorageError::Config(_))
        ));
        // Key columns unpack only when asked for, and then one at a time.
        assert_eq!(fragment.key_column(2), store.fragment(number).key_column(2));
        let unpacked: Vec<bool> = parts.decoded().iter().map(|&(_, keys)| keys).collect();
        assert_eq!(unpacked, [false, false, true, false]);
    }

    #[test]
    fn a_query_decodes_its_predicates_indices_and_no_key_column() {
        let store = small_store();
        let file = TempFile(temp_path("query"));
        write_store(&store, &file.0).unwrap();
        let schema = store.schema().clone();
        let engine = crate::StarJoinEngine::from_source(FileStore::open(&file.0).unwrap());
        let product = schema.dimension_index("product").unwrap();
        let query = workload::QueryGenerator::new(&schema, workload::QueryType::OneCode, 3)
            .batch(1)
            .remove(0);
        let plan = engine.plan(&query);
        let result = engine.execute(&query, &crate::RunConfig::serial());
        let expected =
            crate::StarJoinEngine::new(store).execute(&query, &crate::RunConfig::serial());
        assert!(result.hits > 0);
        assert_eq!(result.hits, expected.hits);
        let bits = |sums: &[f64]| sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&result.measure_sums), bits(&expected.measure_sums));
        let file = engine.source().as_file().unwrap();
        for &number in plan.fragments() {
            let fragment = file.read_fragment(number).unwrap();
            let decoded: Vec<(bool, bool)> = (0..schema.dimension_count())
                .map(|d| (d == product && !fragment.is_empty(), false))
                .collect();
            assert_eq!(fragment.stored_parts().unwrap().decoded(), decoded);
        }
    }

    #[test]
    fn two_threads_first_use_of_one_index_decodes_it_once() {
        let store = small_store();
        let file = TempFile(temp_path("race"));
        write_store(&store, &file.0).unwrap();
        let opened = FileStore::open(&file.0).unwrap();
        let customer = store.schema().dimension_index("customer").unwrap();
        for number in 0..store.fragment_count() {
            let fragment = opened.read_fragment(number).unwrap();
            let start = std::sync::Barrier::new(2);
            let [a, b] = std::thread::scope(|scope| {
                [(), ()]
                    .map(|()| {
                        scope.spawn(|| {
                            start.wait();
                            fragment.try_bitmap_index(customer).unwrap()
                        })
                    })
                    .map(|thread| thread.join().unwrap())
            });
            assert!(std::ptr::eq(a, b));
            assert_eq!(a, store.fragment(number).bitmap_index(customer));
            let parts = fragment.stored_parts().unwrap();
            assert_eq!(parts.index_decodes.load(Ordering::Relaxed), 1);
            let decoded: Vec<bool> = parts.decoded().iter().map(|&(index, _)| index).collect();
            let only_customer: Vec<bool> = (0..decoded.len()).map(|d| d == customer).collect();
            assert_eq!(decoded, only_customer);
        }
    }

    #[test]
    fn an_evicted_fragments_decoded_indices_go_with_it() {
        let store = month_channel_store();
        let file = TempFile(temp_path("evicted"));
        write_store(&store, &file.0).unwrap();
        // A pool of one fragment: every load of another evicts it.
        let opened = open_unverified(&file.0, MONTH_CHANNEL_FRAGMENT_PAGES as usize);
        let dimensions = store.schema().dimension_count();
        let fragment = opened.read_fragment(0).unwrap();
        let index = fragment.try_bitmap_index(0).unwrap().clone();
        let decoded = Arc::downgrade(&fragment);
        drop(fragment);
        // Still published: a hit finds the index decoded.
        let hit = opened.read_fragment(0).unwrap();
        assert!(hit.stored_parts().unwrap().decoded()[0].0);
        drop(hit);
        opened.read_fragment(1).unwrap();
        assert!(
            decoded.upgrade().is_none(),
            "the evicted fragment was freed"
        );
        let reads = opened.metrics().segment_reads;
        let reloaded = opened.read_fragment(0).unwrap();
        assert!(opened.metrics().segment_reads > reads, "read again");
        assert_eq!(
            reloaded.stored_parts().unwrap().decoded(),
            nothing_decoded(dimensions)
        );
        assert_eq!(*reloaded.try_bitmap_index(0).unwrap(), index);
    }

    #[test]
    fn loaded_fragments_equal_the_store_keys_included() {
        let store = month_channel_store();
        let file = TempFile(temp_path("equal"));
        write_store(&store, &file.0).unwrap();
        let opened = FileStore::open(&file.0).unwrap();
        for number in 0..store.fragment_count() {
            let fragment = opened.read_fragment(number).unwrap();
            let built = store.fragment(number);
            assert_eq!(*fragment, *built);
            assert_eq!(fragment.len(), built.len());
            for dimension in 0..store.schema().dimension_count() {
                assert_eq!(fragment.key_column(dimension), built.key_column(dimension));
            }
            assert!(fragment
                .stored_parts()
                .unwrap()
                .decoded()
                .iter()
                .all(|&(i, k)| i && k));
            assert_eq!(fragment.to_built().unwrap(), *built);
        }
    }

    #[test]
    fn an_index_that_passes_its_checksum_but_fails_to_decode_fails_only_its_uses() {
        let store = small_store();
        let file = TempFile(temp_path("baddecode"));
        write_store(&store, &file.0).unwrap();
        let schema = store.schema();
        let product = schema.dimension_index("product").unwrap();
        let bad = 2;
        rewrite_segment(&file.0, bad, store.measure_count() + product, |segment| {
            // An encoded index segment: tag, slice count, then the first
            // slice's length and its BMRP magic.
            assert_eq!(segment[0], 1, "product has an encoded index");
            segment[9] ^= 0xFF;
        });
        // Every checksum still verifies, so open and the load succeed.
        let opened = FileStore::open(&file.0).unwrap();
        let fragment = opened.read_fragment(bad).unwrap();
        for _ in 0..2 {
            match fragment.try_bitmap_index(product) {
                Err(StorageError::Corrupt(msg)) => {
                    let which = format!("fragment {bad}, index of dimension {product}");
                    assert!(msg.contains(&which), "{msg}");
                    assert!(msg.contains("BMRP magic"), "{msg}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        assert_eq!(
            fragment
                .stored_parts()
                .unwrap()
                .index_decodes
                .load(Ordering::Relaxed),
            1
        );
        // The fragment's other indices and its keys serve ...
        for dimension in (0..schema.dimension_count()).filter(|&d| d != product) {
            assert_eq!(
                fragment.try_bitmap_index(dimension).unwrap(),
                store.fragment(bad).bitmap_index(dimension)
            );
            assert_eq!(
                fragment.key_column(dimension),
                store.fragment(bad).key_column(dimension)
            );
        }
        // ... and so does every other fragment.
        for number in (0..store.fragment_count()).filter(|&n| n != bad) {
            assert_eq!(
                *opened.read_fragment(number).unwrap(),
                *store.fragment(number)
            );
        }
        assert!(*fragment != *store.fragment(bad));
        assert!(matches!(
            opened.materialise(),
            Err(StorageError::Corrupt(_))
        ));
        // A query that needs the index ends in the worker's one panic,
        // re-raised on the caller with the error.
        let engine = crate::StarJoinEngine::from_source(opened);
        let query = workload::QueryGenerator::new(schema, workload::QueryType::OneCode, 3)
            .batch(1)
            .remove(0);
        assert!(engine.plan(&query).fragments().contains(&bad));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute(&query, &crate::RunConfig::serial())
        }))
        .expect_err("the query reads the corrupt index");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.contains(&format!("fragment {bad} unreadable mid-scan"))
                && message.contains("BMRP magic"),
            "{message}"
        );
    }

    /// The directory of `store` as written, with the bounds of its data area.
    fn written_directory(store: &FragmentStore) -> (Vec<FragmentEntry>, u64, u64) {
        let file = TempFile(temp_path("directory"));
        write_store(store, &file.0).unwrap();
        let opened = open_unverified(&file.0, 64);
        let entries: Vec<FragmentEntry> =
            opened.fragments.iter().map(|f| f.entry.clone()).collect();
        let last = entries.last().unwrap();
        let data_end = last.offset + last.page_count * PAGE_SIZE;
        let data_start = entries[0].offset;
        (entries, data_start, data_end)
    }

    #[test]
    fn directory_rejects_misaligned_gapped_overlapping_and_outlying_extents() {
        let store = small_store();
        let (entries, data_start, data_end) = written_directory(&store);
        let segments = entries[0].segments.len();
        let decode = |entries: &[FragmentEntry]| {
            decode_directory(
                &encode_directory(entries),
                entries.len() as u64,
                segments,
                data_start,
                data_end,
            )
        };
        assert_eq!(decode(&entries).unwrap(), entries);

        let rejected = |change: &dyn Fn(&mut Vec<FragmentEntry>), expect: &str| {
            let mut changed = entries.clone();
            change(&mut changed);
            match decode(&changed) {
                Err(StorageError::Corrupt(msg)) => assert!(msg.contains(expect), "{msg}"),
                other => panic!("expected Corrupt({expect:?}), got {other:?}"),
            }
        };
        let shift = |entry: &mut FragmentEntry, by: i64| {
            for segment in &mut entry.segments {
                segment.offset = segment.offset.wrapping_add_signed(by);
            }
        };
        // The whole extent moved off its page boundary.
        rejected(&|e| shift(&mut e[1], 8), "page boundary");
        // The first extent moved into the metadata pages.
        rejected(&|e| shift(&mut e[0], -(PAGE_SIZE as i64)), "page boundary");
        // A gap, then an overlap, between two segments of one extent.
        rejected(&|e| e[0].segments[2].offset += 1, "predecessor ends");
        rejected(&|e| e[0].segments[2].offset -= 1, "predecessor ends");
        // The last segment of the last extent reaches past the data area.
        rejected(
            &|e| {
                let last = e.last_mut().unwrap().segments.last_mut().unwrap();
                last.len = data_end - last.offset + 1;
            },
            "past the data area",
        );
        rejected(
            &|e| e.last_mut().unwrap().segments.last_mut().unwrap().len = u64::MAX,
            "past the data area",
        );
    }
}
