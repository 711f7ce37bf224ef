//! Persistent on-disk fragment storage: the `FGMT` file format and a
//! file-backed, buffer-managed fragment reader.
//!
//! The paper's APB-1 fact table (1.87 billion rows) cannot live in RAM; the
//! simulated `DiskModel` makespans are only honest if the same fragments can
//! also be read from a real file.  This module serialises a
//! [`FragmentStore`] into a versioned, page-aligned columnar file and reads
//! it back fragment by fragment through the LRU [`PagePool`] of
//! `storage::buffer`, so cache hit/miss accounting stays comparable between
//! simulated and measured runs.
//!
//! # File layout (version 1, 4096-byte pages)
//!
//! ```text
//! page 0        header: "FGMT" magic, version, page size, dimension /
//!               measure / fragment counts, total rows, metadata length
//!               and FNV-1a checksum
//! pages 1..     metadata blob: star schema (fact table, dimensions,
//!               hierarchies), fragmentation attributes, index-catalog
//!               kinds, representation policy
//! then          per fragment, page-aligned segments in fixed order:
//!                 key column per dimension   (u64 little-endian)
//!                 measure column per measure (f64 bits little-endian)
//!                 bitmap index per dimension (BMRP-encoded bitmaps)
//! then          page directory: per fragment its row count and per
//!               segment (offset, length, FNV-1a checksum)
//! last 40 B     trailer: "FGMTEND\0" magic, version, page size,
//!               directory offset / length / checksum
//! ```
//!
//! Every structural assumption is checked at [`FileStore::open`] — magic,
//! version, checksums, directory bounds — so corruption surfaces as a typed
//! [`StorageError`] instead of a panic deep inside a query.
//!
//! # Many readers at once
//!
//! The file stands in for the paper's disks, which many processors read at
//! the same time, so no fetch holds a store-wide lock for long: a fragment
//! whose decoded form is resident is handed out from its own slot, and a
//! fragment that has to be loaded is read (positionally, through one shared
//! handle), verified and decoded with only its own load lock held.  The
//! page pool sees the hits later, in the order they happened, before it
//! next has to choose a victim or report its counters — see [`FileStore`].

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

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

/// FNV-1a over a byte slice — the same hand-rolled checksum family the
/// deterministic trace digest uses; no external hashing dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
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

fn encode_key_column(column: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(column.len() * 8);
    for &key in column {
        put_u64(&mut out, key);
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

fn decode_index_segment(
    bytes: &[u8],
    meta: &StoreMeta,
    dimension: usize,
    rows: u64,
) -> Result<MaterialisedIndex, StorageError> {
    let mut r = ByteReader::new(bytes, "bitmap index segment");
    let tag = r.u8()?;
    let count = r.u32()? as usize;
    let decode_bitmap = |r: &mut ByteReader<'_>| -> Result<BitmapRepr, StorageError> {
        let len = r.u32()? as usize;
        let repr = BitmapRepr::from_bytes(r.take(len)?)?;
        if repr.len() as u64 != rows {
            return Err(StorageError::Corrupt(format!(
                "bitmap of dimension {dimension} covers {} rows, fragment holds {rows}",
                repr.len()
            )));
        }
        Ok(repr)
    };
    let index = match tag {
        1 => {
            let mut slices = Vec::with_capacity(count);
            for _ in 0..count {
                slices.push(decode_bitmap(&mut r)?);
            }
            r.done()?;
            MaterialisedIndex::from_stored_encoded(
                &meta.schema,
                &meta.catalog,
                dimension,
                meta.policy,
                slices,
            )
        }
        0 => {
            let mut map = BTreeMap::new();
            for _ in 0..count {
                let level = r.u32()? as usize;
                let value = r.u64()?;
                let bitmap = decode_bitmap(&mut r)?;
                if map.insert((level, value), bitmap).is_some() {
                    return Err(StorageError::Corrupt(format!(
                        "duplicate bitmap key (level {level}, value {value})"
                    )));
                }
            }
            r.done()?;
            MaterialisedIndex::from_stored_simple(
                &meta.schema,
                &meta.catalog,
                dimension,
                meta.policy,
                map,
            )
        }
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown index segment tag {other}"
            )))
        }
    };
    index.map_err(StorageError::Corrupt)
}

fn decode_key_column(bytes: &[u8], rows: u64) -> Result<Vec<u64>, StorageError> {
    if bytes.len() as u64 != rows * 8 {
        return Err(StorageError::Corrupt(format!(
            "key column holds {} bytes for {rows} rows",
            bytes.len()
        )));
    }
    let mut r = ByteReader::new(bytes, "key column segment");
    let mut column = Vec::with_capacity(rows as usize);
    for _ in 0..rows {
        column.push(r.u64()?);
    }
    Ok(column)
}

fn decode_measure_column(bytes: &[u8], rows: u64) -> Result<Vec<f64>, StorageError> {
    if bytes.len() as u64 != rows * 8 {
        return Err(StorageError::Corrupt(format!(
            "measure column holds {} bytes for {rows} rows",
            bytes.len()
        )));
    }
    let mut r = ByteReader::new(bytes, "measure column segment");
    let mut column = Vec::with_capacity(rows as usize);
    for _ in 0..rows {
        column.push(r.f64()?);
    }
    Ok(column)
}

// ---------------------------------------------------------------------------
// Directory.
// ---------------------------------------------------------------------------

/// Location and checksum of one page-aligned segment.
#[derive(Debug, Clone, Copy)]
struct SegmentEntry {
    /// Absolute byte offset of the segment start (page-aligned).
    offset: u64,
    /// Payload length in bytes.
    len: u64,
    /// FNV-1a checksum of the payload.
    checksum: u64,
}

/// Directory entry of one fragment.
#[derive(Debug, Clone)]
struct FragmentEntry {
    rows: u64,
    /// Key columns, then measure columns, then bitmap indices.
    segments: Vec<SegmentEntry>,
    /// Number of pages the fragment's segments occupy (pool pages are keyed
    /// `(fragment, page-within-fragment)`).
    page_count: u64,
}

impl FragmentEntry {
    /// Page span of a contiguous segment run starting at the run's first
    /// segment offset.
    fn page_span(segments: &[SegmentEntry]) -> u64 {
        let Some(first) = segments.first() else {
            return 0;
        };
        let first_page = first.offset / PAGE_SIZE;
        let end_page = segments
            .last()
            .map_or(first_page, |s| pages_of(s.offset + s.len));
        end_page.saturating_sub(first_page)
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

fn decode_directory(
    bytes: &[u8],
    fragment_count: u64,
    segments_per_fragment: usize,
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
        for _ in 0..seg_count {
            let offset = r.u64()?;
            let len = r.u64()?;
            let checksum = r.u64()?;
            if offset % PAGE_SIZE != 0 {
                return Err(StorageError::Corrupt(format!(
                    "fragment {fragment} segment offset {offset} is not page-aligned"
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| StorageError::Corrupt("segment range overflows".into()))?;
            if end > data_end {
                return Err(StorageError::Corrupt(format!(
                    "fragment {fragment} segment [{offset}, {end}) reaches past the data area"
                )));
            }
            segments.push(SegmentEntry {
                offset,
                len,
                checksum,
            });
        }
        let page_count = FragmentEntry::page_span(&segments);
        entries.push(FragmentEntry {
            rows,
            segments,
            page_count,
        });
    }
    r.done()?;
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Serialises `store` into the `FGMT` v1 format at `path`, overwriting any
/// existing file.
///
/// # Errors
///
/// Returns [`StorageError::Io`] when the file cannot be created or written.
pub fn write_store(store: &FragmentStore, path: impl AsRef<Path>) -> Result<(), StorageError> {
    let path = path.as_ref();
    let mut file = std::io::BufWriter::new(File::create(path)?);
    let metadata = encode_metadata(store);
    let meta_checksum = fnv1a(&metadata);
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

    // Fragment segments.
    let mut entries = Vec::with_capacity(store.fragment_count() as usize);
    for fragment in store.fragments() {
        let mut segments = Vec::with_capacity(dimension_count + measure_count + dimension_count);
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(segments.capacity());
        for d in 0..dimension_count {
            payloads.push(encode_key_column(fragment.key_column(d)));
        }
        for m in 0..measure_count {
            payloads.push(encode_measure_column(fragment.measure_column(m)));
        }
        for d in 0..dimension_count {
            payloads.push(encode_index_segment(fragment.bitmap_index(d)));
        }
        for payload in payloads {
            segments.push(SegmentEntry {
                offset,
                len: payload.len() as u64,
                checksum: fnv1a(&payload),
            });
            file.write_all(&payload)?;
            offset += payload.len() as u64;
            offset = write_page_padding(&mut file, offset)?;
        }
        let page_count = FragmentEntry::page_span(&segments);
        entries.push(FragmentEntry {
            rows: fragment.len() as u64,
            segments,
            page_count,
        });
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
    put_u64(&mut trailer, fnv1a(&directory));
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
    /// Verify every segment checksum eagerly at open (full file sweep).
    /// With verification off, corruption still surfaces as a typed error at
    /// first read of the affected fragment.
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
    /// Segments actually read from the file (cache misses at segment
    /// granularity).
    pub segment_reads: u64,
    /// Bytes actually read from the file.
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
    /// Held for the whole of a load (charge, read, verify, decode, publish):
    /// a second fetch of the same fragment waits here instead of decoding it
    /// again, and then finds it published.
    load: Mutex<()>,
    /// The decoded fragment while every one of its pages is resident.  Set
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
/// simulated I/O subsystem counts them), missing segments are read from the
/// file with their checksums re-verified, and fully resident fragments are
/// served from a decoded cache without touching the file.
///
/// The store is cheap to share behind [`std::sync::Arc`] and built for many
/// threads fetching at once (lock order `load` → `backing` → `decoded`):
///
/// * A **hit** — the fragment's decoded form is published in its slot — is
///   an `Arc` clone under the slot's own `decoded` lock plus a note that the
///   fragment was touched.  It takes no store-wide lock and does not walk
///   the page pool.
/// * A **miss** takes the store-wide `backing` mutex twice, briefly: before
///   the load, to replay the noted hits into the pool and charge the
///   fragment's pages (evictions unpublish their victims), and after it, to
///   count the I/O and publish the result if every page is still resident.
///   The positional reads, FNV-1a verification and decoding in between run
///   with only the fragment's `load` lock held, so loads of different
///   fragments overlap and no fragment is ever decoded twice at once.
///
/// Replaying the noted hits before every replacement decision and every
/// [`FileStore::metrics`] read leaves the pool and the counters exactly
/// where charging each hit page by page would have, for any sequence of
/// fetches issued one after the other; fetches that overlap in time are
/// accounted in *some* order, with nothing lost.
pub struct FileStore {
    path: PathBuf,
    meta: StoreMeta,
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
        if trailer[..8] != TRAILER_MAGIC {
            return Err(StorageError::Corrupt(
                "trailer magic mismatch (file truncated or not an FGMT file)".into(),
            ));
        }
        let mut tr = ByteReader::new(&trailer[8..], "trailer");
        let trailer_version = tr.u32()?;
        let trailer_page = tr.u32()?;
        let dir_offset = tr.u64()?;
        let dir_len = tr.u64()?;
        let dir_checksum = tr.u64()?;

        // Header page.
        let mut header = vec![0u8; PAGE_SIZE as usize];
        read_exact_at(&file, &mut header, 0)?;
        if header[..4] != HEADER_MAGIC {
            return Err(StorageError::Corrupt(
                "header magic mismatch (not an FGMT file)".into(),
            ));
        }
        let mut hr = ByteReader::new(&header[4..], "header");
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
        if fnv1a(&metadata) != meta_checksum {
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
        if fnv1a(&directory_bytes) != dir_checksum {
            return Err(StorageError::Corrupt(
                "page directory checksum mismatch".into(),
            ));
        }
        let segments_per_fragment = dimension_count + measure_count + dimension_count;
        let directory = decode_directory(
            &directory_bytes,
            fragment_count,
            segments_per_fragment,
            dir_offset,
        )?;
        let dir_rows: u64 = directory.iter().map(|e| e.rows).sum();
        if dir_rows != total_rows {
            return Err(StorageError::Corrupt(format!(
                "header declares {total_rows} rows, directory sums to {dir_rows}"
            )));
        }

        if options.verify {
            let mut buf = Vec::new();
            for (fragment, entry) in directory.iter().enumerate() {
                for (index, seg) in entry.segments.iter().enumerate() {
                    buf.resize(seg.len as usize, 0);
                    read_exact_at(&file, &mut buf, seg.offset)?;
                    if fnv1a(&buf) != seg.checksum {
                        return Err(StorageError::Corrupt(format!(
                            "checksum mismatch in fragment {fragment}, segment {index}"
                        )));
                    }
                }
            }
        }

        Ok(FileStore {
            path,
            meta,
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
        let mut touched = Vec::new();
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
        for (_, number, pages, touches) in touched {
            // All hits: a published fragment has every page resident.
            self.charge(backing, number, pages);
            backing.folded_hits += pages * (touches - 1);
            backing.decoded_cache_hits += touches;
        }
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

    /// Reads, verifies and decodes the segments of one fragment.  Touches
    /// only immutable state and the shared file handle; `read` receives the
    /// segments and bytes actually read, whether or not the load succeeds.
    fn load_fragment(
        &self,
        fragment_number: u64,
        entry: &FragmentEntry,
        read: &mut FileIoMetrics,
    ) -> Result<ColumnarFragment, StorageError> {
        let dimension_count = self.meta.schema.dimension_count();
        let measure_count = self.meta.schema.fact().measures().len();
        let mut buf = Vec::new();
        let mut keys = Vec::with_capacity(dimension_count);
        let mut measures = Vec::with_capacity(measure_count);
        let mut indices = Vec::with_capacity(dimension_count);
        for (index, seg) in entry.segments.iter().enumerate() {
            buf.resize(seg.len as usize, 0);
            read_exact_at(&self.file, &mut buf, seg.offset)?;
            read.segment_reads += 1;
            read.bytes_read += seg.len;
            if fnv1a(&buf) != seg.checksum {
                return Err(StorageError::Corrupt(format!(
                    "checksum mismatch in fragment {fragment_number}, segment {index}"
                )));
            }
            if index < dimension_count {
                keys.push(decode_key_column(&buf, entry.rows)?);
            } else if index < dimension_count + measure_count {
                measures.push(decode_measure_column(&buf, entry.rows)?);
            } else {
                let dimension = index - dimension_count - measure_count;
                indices.push(decode_index_segment(
                    &buf, &self.meta, dimension, entry.rows,
                )?);
            }
        }
        Ok(ColumnarFragment::from_parts(
            fragment_number,
            keys,
            measures,
            indices,
        ))
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
            fragments.push((*self.read_fragment(number)?).clone());
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
    use schema::apb1::apb1_scaled_down;

    fn small_store() -> FragmentStore {
        let schema = apb1_scaled_down();
        let fragmentation = Fragmentation::parse(&schema, &["time::quarter"]).unwrap();
        FragmentStore::build(&schema, &fragmentation, 99)
    }

    /// 288 fragments in 3 168 pages: enough of both for replacement to matter.
    fn month_group_store() -> FragmentStore {
        let schema = apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        FragmentStore::build(&schema, &fragmentation, 2024)
    }

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
        let store = month_group_store();
        let file = TempFile(temp_path("exact"));
        write_store(&store, &file.0).unwrap();
        let (total_pages, largest) = {
            let opened = open_unverified(&file.0, 1);
            let pages = opened.fragments.iter().map(|f| f.entry.page_count as usize);
            (pages.clone().sum::<usize>(), pages.max().unwrap())
        };
        assert_eq!(total_pages, 3_168);
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
        let store = month_group_store();
        let file = TempFile(temp_path("stress"));
        write_store(&store, &file.0).unwrap();
        let fragments = store.fragment_count();
        let total_pages = 3_168;
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
        let segment = open_unverified(&file.0, 64).fragments[bad as usize]
            .entry
            .segments[0];
        let mut bytes = std::fs::read(&file.0).unwrap();
        bytes[segment.offset as usize] ^= 0xFF;
        std::fs::write(&file.0, &bytes).unwrap();

        let opened = open_unverified(&file.0, 65_536);
        for outcome in fetch_from_two_threads(&opened, bad) {
            assert!(
                matches!(outcome, Err(StorageError::Corrupt(_))),
                "{outcome:?}"
            );
        }
        // Each of the two read the bad segment itself, and only that one.
        let metrics = opened.metrics();
        assert_eq!(metrics.segment_reads, 2);
        assert_eq!(metrics.bytes_read, 2 * segment.len);
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
        let keep = opened.fragments[lost as usize].entry.segments[0].offset;
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
        let mut bytes = std::fs::read(&file.0).unwrap();
        // Flip one byte in the middle of the fragment data area.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
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
}
