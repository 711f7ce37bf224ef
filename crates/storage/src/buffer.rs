//! LRU buffer manager with prefetching.
//!
//! SIMPAD uses "a simple buffer manager … supporting LRU page replacement and
//! prefetching.  We maintain separate buffers for tables and indices" (§5).
//! [`BufferManager`] holds one [`PagePool`] for fact pages and one for bitmap
//! pages; a request for a range of pages reports how many pages were buffer
//! hits and which had to be fetched from disk, and installs the fetched pages
//! with LRU replacement.

use std::collections::BTreeMap;

/// Identifies one page: an object (fragment, bitmap fragment, …) and a page
/// number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageKey {
    /// Identifier of the containing object (assigned by the caller).
    pub object: u64,
    /// Page number within the object.
    pub page: u64,
}

impl PageKey {
    /// Creates a page key.
    #[must_use]
    pub fn new(object: u64, page: u64) -> Self {
        PageKey { object, page }
    }
}

/// Hit/miss statistics of one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferPoolStats {
    /// Page requests satisfied from the buffer.
    pub hits: u64,
    /// Page requests that required a disk fetch.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl BufferPoolStats {
    /// Hit ratio in `[0, 1]` (0 when no requests were made).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a single page request made through
/// [`PagePool::request_reporting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRequest {
    /// `true` when the page was already resident (a buffer hit).
    pub hit: bool,
    /// The page evicted to make room, when the pool was full on a miss.
    pub evicted: Option<PageKey>,
}

/// A fixed-capacity LRU pool of pages.
///
/// Residency is tracked with an ordered map from page to its last-use tick
/// plus a B-tree keyed by tick, so both lookups and evictions are
/// logarithmic — the simulator issues hundreds of thousands of page requests
/// per query — and every traversal order is deterministic.
#[derive(Debug, Clone)]
pub struct PagePool {
    capacity: usize,
    /// Maps resident pages to their last-use tick.
    resident: BTreeMap<PageKey, u64>,
    /// Maps last-use ticks back to pages (ticks are unique).
    lru_order: BTreeMap<u64, PageKey>,
    tick: u64,
    stats: BufferPoolStats,
}

impl PagePool {
    /// Creates a pool holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        PagePool {
            capacity,
            resident: BTreeMap::new(),
            lru_order: BTreeMap::new(),
            tick: 0,
            stats: BufferPoolStats::default(),
        }
    }

    /// The pool capacity in pages.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// True if `key` is currently buffered (does not touch LRU state).
    #[must_use]
    pub fn contains(&self, key: PageKey) -> bool {
        self.resident.contains_key(&key)
    }

    /// Requests a single page.  Returns `true` on a buffer hit; on a miss the
    /// page is installed (evicting the least recently used page if full).
    pub fn request(&mut self, key: PageKey) -> bool {
        self.request_reporting(key).hit
    }

    /// Requests a single page like [`PagePool::request`], additionally
    /// reporting which page (if any) was evicted to make room.
    ///
    /// File-backed callers that cache decoded objects alongside the pool use
    /// the victim to invalidate those caches, keeping decoded state consistent
    /// with page residency.
    pub fn request_reporting(&mut self, key: PageKey) -> PageRequest {
        self.tick += 1;
        if let Some(last_use) = self.resident.get_mut(&key) {
            self.lru_order.remove(last_use);
            *last_use = self.tick;
            self.lru_order.insert(self.tick, key);
            self.stats.hits += 1;
            return PageRequest {
                hit: true,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        let mut evicted = None;
        if self.resident.len() >= self.capacity {
            // Evict the least recently used page (smallest tick).
            let (&victim_tick, &victim) = self
                .lru_order
                .iter()
                .next()
                .expect("pool is non-empty when full");
            self.lru_order.remove(&victim_tick);
            self.resident.remove(&victim);
            self.stats.evictions += 1;
            evicted = Some(victim);
        }
        self.resident.insert(key, self.tick);
        self.lru_order.insert(self.tick, key);
        PageRequest {
            hit: false,
            evicted,
        }
    }

    /// Requests `count` consecutive pages of `object` starting at
    /// `first_page` (a prefetch granule).  Returns the number of pages that
    /// missed and had to be fetched.
    pub fn request_range(&mut self, object: u64, first_page: u64, count: u64) -> u64 {
        let mut misses = 0;
        for p in first_page..first_page + count {
            if !self.request(PageKey::new(object, p)) {
                misses += 1;
            }
        }
        misses
    }
}

/// The two-pool buffer manager of the simulator.
#[derive(Debug, Clone)]
pub struct BufferManager {
    fact: PagePool,
    bitmap: PagePool,
}

impl BufferManager {
    /// Creates a buffer manager with the given pool capacities (Table 4
    /// defaults: 1 000 fact pages, 5 000 bitmap pages).
    #[must_use]
    pub fn new(fact_pages: usize, bitmap_pages: usize) -> Self {
        BufferManager {
            fact: PagePool::new(fact_pages),
            bitmap: PagePool::new(bitmap_pages),
        }
    }

    /// The fact-table pool.
    #[must_use]
    pub fn fact(&mut self) -> &mut PagePool {
        &mut self.fact
    }

    /// The bitmap pool.
    #[must_use]
    pub fn bitmap(&mut self) -> &mut PagePool {
        &mut self.bitmap
    }

    /// Read-only statistics of both pools `(fact, bitmap)`.
    #[must_use]
    pub fn stats(&self) -> (BufferPoolStats, BufferPoolStats) {
        (self.fact.stats(), self.bitmap.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses() {
        let mut pool = PagePool::new(10);
        assert!(!pool.request(PageKey::new(1, 0)));
        assert!(pool.request(PageKey::new(1, 0)));
        assert!(!pool.request(PageKey::new(1, 1)));
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(pool.resident_pages(), 2);
        assert_eq!(pool.capacity(), 10);
    }

    #[test]
    fn lru_eviction_order() {
        let mut pool = PagePool::new(3);
        pool.request(PageKey::new(0, 0));
        pool.request(PageKey::new(0, 1));
        pool.request(PageKey::new(0, 2));
        // Touch page 0 so page 1 becomes the LRU victim.
        pool.request(PageKey::new(0, 0));
        pool.request(PageKey::new(0, 3));
        assert!(pool.contains(PageKey::new(0, 0)));
        assert!(!pool.contains(PageKey::new(0, 1)));
        assert!(pool.contains(PageKey::new(0, 2)));
        assert!(pool.contains(PageKey::new(0, 3)));
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.resident_pages(), 3);
    }

    #[test]
    fn range_requests_count_misses() {
        let mut pool = PagePool::new(100);
        assert_eq!(pool.request_range(7, 0, 8), 8);
        assert_eq!(pool.request_range(7, 0, 8), 0);
        assert_eq!(pool.request_range(7, 4, 8), 4);
    }

    #[test]
    fn pools_are_independent() {
        let mut bm = BufferManager::new(10, 20);
        bm.fact().request(PageKey::new(1, 1));
        bm.bitmap().request(PageKey::new(1, 1));
        bm.bitmap().request(PageKey::new(1, 1));
        let (fact, bitmap) = bm.stats();
        assert_eq!(fact.misses, 1);
        assert_eq!(fact.hits, 0);
        assert_eq!(bitmap.misses, 1);
        assert_eq!(bitmap.hits, 1);
    }

    #[test]
    fn scan_larger_than_pool_gets_no_hits_on_repeat() {
        // A sequential scan over more pages than the pool holds cannot profit
        // from LRU on the second pass (classic sequential-flooding behaviour).
        let mut pool = PagePool::new(50);
        pool.request_range(1, 0, 200);
        let misses_second_pass = pool.request_range(1, 0, 200);
        assert_eq!(misses_second_pass, 200);
        assert!(pool.stats().evictions > 0);
    }

    #[test]
    fn request_reporting_names_the_victim() {
        let mut pool = PagePool::new(2);
        assert_eq!(
            pool.request_reporting(PageKey::new(0, 0)),
            PageRequest {
                hit: false,
                evicted: None
            }
        );
        pool.request(PageKey::new(0, 1));
        // Pool full: the next miss must evict page (0, 0), the LRU page.
        let outcome = pool.request_reporting(PageKey::new(0, 2));
        assert!(!outcome.hit);
        assert_eq!(outcome.evicted, Some(PageKey::new(0, 0)));
        // A hit reports no eviction.
        assert_eq!(
            pool.request_reporting(PageKey::new(0, 2)),
            PageRequest {
                hit: true,
                evicted: None
            }
        );
    }

    #[test]
    fn empty_stats_hit_ratio_is_zero() {
        assert_eq!(BufferPoolStats::default().hit_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = PagePool::new(0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The pool never holds more pages than its capacity and hits+misses
        /// always equals the number of requests.
        #[test]
        fn prop_capacity_and_accounting(
            capacity in 1usize..64,
            requests in proptest::collection::vec((0u64..4, 0u64..100), 1..500),
        ) {
            let mut pool = PagePool::new(capacity);
            for (object, page) in &requests {
                pool.request(PageKey::new(*object, *page));
                prop_assert!(pool.resident_pages() <= capacity);
            }
            let stats = pool.stats();
            prop_assert_eq!(stats.hits + stats.misses, requests.len() as u64);
            prop_assert_eq!(
                stats.misses - stats.evictions,
                pool.resident_pages() as u64
            );
        }

        /// Immediately repeating a request is always a hit.
        #[test]
        fn prop_repeat_is_hit(object in 0u64..10, page in 0u64..1_000) {
            let mut pool = PagePool::new(4);
            pool.request(PageKey::new(object, page));
            prop_assert!(pool.request(PageKey::new(object, page)));
        }
    }
}
