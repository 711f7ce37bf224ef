//! The engine's scan source: in-memory fragments or a persistent file.
//!
//! [`ScanSource`] abstracts *where fragments come from* so the executor,
//! the simulated-I/O charger and the multi-query scheduler run the same
//! code over a materialised [`FragmentStore`] and over an on-disk
//! [`FileStore`].  Results are bit-identical between the two backings: the
//! file format round-trips every row and bitmap exactly, and the merge
//! order depends only on the plan — never on which backing served a
//! fragment or what its page cache did.
//!
//! Fetching borrows from the memory backing ([`FragmentRef::Borrowed`])
//! and hands out a loaded [`std::sync::Arc`] from the file backing
//! ([`FragmentRef::Shared`]), which decodes each index on its first use;
//! workers treat both as a [`ColumnarFragment`] through
//! [`std::ops::Deref`].

use std::ops::Deref;
use std::sync::Arc;

use bitmap::{IndexCatalog, RepresentationPolicy};
use mdhf::Fragmentation;
use schema::StarSchema;
use workload::QueryPlan;

use crate::file::{FileIoMetrics, FileStore, StorageError};
use crate::store::{ColumnarFragment, FragmentStore};

/// Where a [`crate::StarJoinEngine`] reads its fragments from.
// One value per engine, never collected or moved on a hot path: boxing
// the file variant would only add a pointer hop to every fetch.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ScanSource {
    /// Fragments materialised in memory — the original engine backing.
    Memory(FragmentStore),
    /// Fragments read on demand from a persistent `FGMT` file through an
    /// LRU page pool (see [`crate::file`]).
    File(FileStore),
}

impl ScanSource {
    /// The star schema the fragments were built from.
    #[must_use]
    pub fn schema(&self) -> &StarSchema {
        match self {
            ScanSource::Memory(store) => store.schema(),
            ScanSource::File(store) => store.schema(),
        }
    }

    /// The fragmentation the fragments follow.
    #[must_use]
    pub fn fragmentation(&self) -> &Fragmentation {
        match self {
            ScanSource::Memory(store) => store.fragmentation(),
            ScanSource::File(store) => store.fragmentation(),
        }
    }

    /// The logical bitmap index catalog.
    #[must_use]
    pub fn catalog(&self) -> &IndexCatalog {
        match self {
            ScanSource::Memory(store) => store.catalog(),
            ScanSource::File(store) => store.catalog(),
        }
    }

    /// The representation policy the bitmap indices were built with.
    #[must_use]
    pub fn policy(&self) -> RepresentationPolicy {
        match self {
            ScanSource::Memory(store) => store.policy(),
            ScanSource::File(store) => store.policy(),
        }
    }

    /// Number of fragments (empty ones included).
    #[must_use]
    pub fn fragment_count(&self) -> u64 {
        match self {
            ScanSource::Memory(store) => store.fragment_count(),
            ScanSource::File(store) => store.fragment_count(),
        }
    }

    /// Total fact rows across all fragments.
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        match self {
            ScanSource::Memory(store) => store.total_rows() as u64,
            ScanSource::File(store) => store.total_rows(),
        }
    }

    /// Number of measures per fact row.
    #[must_use]
    pub fn measure_count(&self) -> usize {
        self.schema().fact().measures().len()
    }

    /// Rows held by fragment `fragment_number` — metadata only, never a
    /// fragment fetch (the simulated-I/O charger and the scheduler's
    /// planner call this per planned fragment before any scan runs).
    ///
    /// # Panics
    ///
    /// Panics if `fragment_number` is out of range.
    #[must_use]
    pub fn fragment_rows(&self, fragment_number: u64) -> u64 {
        match self {
            ScanSource::Memory(store) => store.fragment(fragment_number).len() as u64,
            ScanSource::File(store) => store.fragment_rows(fragment_number),
        }
    }

    /// Total fact rows a plan's fragments hold — the rows a full execution
    /// of that plan scans.
    #[must_use]
    pub fn planned_rows(&self, plan: &QueryPlan) -> u64 {
        plan.fragments()
            .iter()
            .map(|&f| self.fragment_rows(f))
            .sum()
    }

    /// Fetches fragment `fragment_number` for scanning.
    ///
    /// # Errors
    ///
    /// Fails only on the file backing, when a page read fails or a segment
    /// checksum no longer verifies (the file changed underneath an open
    /// store).
    pub fn try_fetch(&self, fragment_number: u64) -> Result<FragmentRef<'_>, StorageError> {
        match self {
            ScanSource::Memory(store) => Ok(FragmentRef::Borrowed(store.fragment(fragment_number))),
            ScanSource::File(store) => store
                .read_fragment(fragment_number)
                .map(FragmentRef::Shared),
        }
    }

    /// The memory backing, when this source is one.
    #[must_use]
    pub fn as_memory(&self) -> Option<&FragmentStore> {
        match self {
            ScanSource::Memory(store) => Some(store),
            ScanSource::File(_) => None,
        }
    }

    /// The file backing, when this source is one.
    #[must_use]
    pub fn as_file(&self) -> Option<&FileStore> {
        match self {
            ScanSource::Memory(_) => None,
            ScanSource::File(store) => Some(store),
        }
    }

    /// Cumulative real-I/O statistics of the file backing (`None` for the
    /// memory backing, which performs no I/O at all).
    #[must_use]
    pub fn file_metrics(&self) -> Option<FileIoMetrics> {
        match self {
            ScanSource::Memory(_) => None,
            ScanSource::File(store) => Some(store.metrics()),
        }
    }
}

impl From<FragmentStore> for ScanSource {
    fn from(store: FragmentStore) -> Self {
        ScanSource::Memory(store)
    }
}

impl From<FileStore> for ScanSource {
    fn from(store: FileStore) -> Self {
        ScanSource::File(store)
    }
}

/// A fetched fragment: borrowed from the memory backing, or a shared
/// loaded copy from the file backing's cache.  Both deref to
/// [`ColumnarFragment`].
#[derive(Debug)]
pub enum FragmentRef<'a> {
    /// A direct borrow of an in-memory fragment.
    Borrowed(&'a ColumnarFragment),
    /// A loaded fragment shared with the file store's cache.
    Shared(Arc<ColumnarFragment>),
}

impl Deref for FragmentRef<'_> {
    type Target = ColumnarFragment;

    fn deref(&self) -> &ColumnarFragment {
        match self {
            FragmentRef::Borrowed(fragment) => fragment,
            FragmentRef::Shared(fragment) => fragment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::write_store;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("fgmt_src_{}_{tag}_{n}.fgmt", std::process::id()))
    }

    struct TempFile(PathBuf);

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn store() -> FragmentStore {
        let schema = schema::apb1::apb1_scaled_down();
        let fragmentation =
            Fragmentation::parse(&schema, &["time::month", "product::group"]).unwrap();
        FragmentStore::build(&schema, &fragmentation, 2024)
    }

    #[test]
    fn memory_and_file_sources_agree_on_metadata_and_fragments() {
        let store = store();
        let guard = TempFile(temp_path("meta"));
        write_store(&store, &guard.0).unwrap();
        let file = FileStore::open(&guard.0).unwrap();

        let memory_src = ScanSource::from(store);
        let file_src = ScanSource::from(file);
        assert_eq!(memory_src.schema(), file_src.schema());
        assert_eq!(memory_src.fragmentation(), file_src.fragmentation());
        assert_eq!(memory_src.catalog(), file_src.catalog());
        assert_eq!(memory_src.policy(), file_src.policy());
        assert_eq!(memory_src.fragment_count(), file_src.fragment_count());
        assert_eq!(memory_src.total_rows(), file_src.total_rows());
        assert_eq!(memory_src.measure_count(), file_src.measure_count());
        assert!(memory_src.as_memory().is_some() && memory_src.as_file().is_none());
        assert!(file_src.as_file().is_some() && file_src.as_memory().is_none());
        assert!(memory_src.file_metrics().is_none());

        for no in 0..memory_src.fragment_count() {
            assert_eq!(memory_src.fragment_rows(no), file_src.fragment_rows(no));
            let borrowed = memory_src.try_fetch(no).unwrap();
            let shared = file_src.try_fetch(no).unwrap();
            assert_eq!(*borrowed, *shared);
        }
        assert!(file_src.file_metrics().expect("file metrics").segment_reads > 0);
    }
}
