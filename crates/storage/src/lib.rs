//! `storage` — storage substrate for the SIMPAD simulator.
//!
//! Three components of the paper's simulation model live here:
//!
//! * [`disk::DiskModel`] — the per-request service-time model of one disk.
//!   The paper's disk model "calculates varying seek times based on track
//!   positions rather than giving constant or stochastically distributed
//!   response times" (§5); the parameters follow Table 4 (average seek time
//!   10 ms, settle + controller delay 3 ms per access, 1 ms per page).
//! * [`disk::FcfsQueue`] — the one FIFO server: SIMPAD's disks and CPUs and
//!   the measured engine's simulated disk and interconnect lanes.
//! * [`buffer::BufferManager`] — a simple LRU page buffer with prefetching
//!   and separate pools for fact-table and bitmap pages (Table 4: 1 000 fact
//!   pages, 5 000 bitmap pages; prefetch 8 / 5 pages).
//!
//! # Quick start
//!
//! ```
//! use storage::{DiskModel, DiskParameters, PageKey, PagePool};
//!
//! // Table 4 disk: seek cost grows with track distance, plus a settle +
//! // controller delay per access and a per-page transfer time.
//! let mut disk = DiskModel::new(DiskParameters::default());
//! let service_ms = disk.service(120, 8); // seek to track 120, read 8 pages
//! assert!(service_ms > 8.0);
//!
//! // An LRU page pool: the first access misses, the repeat access hits.
//! let mut pool = PagePool::new(16);
//! assert!(!pool.request(PageKey::new(0, 1)));
//! assert!(pool.request(PageKey::new(0, 1)));
//! ```

#![forbid(unsafe_code)]

pub mod buffer;
pub mod disk;

pub use buffer::{BufferManager, BufferPoolStats, PageKey, PagePool, PageRequest};
pub use disk::{DiskModel, DiskParameters, FcfsQueue};
