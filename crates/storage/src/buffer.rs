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

/// The "no frame" link of the slab's `u32`-linked LRU list.
const NIL: u32 = u32::MAX;

/// One resident page: a slab slot on the LRU list.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Page number within the owning object.
    page: u64,
    /// Slot of the owning object's [`PageTable`].
    table: u32,
    /// Neighbour towards the most recently used end (`NIL` at the head).
    newer: u32,
    /// Neighbour towards the least recently used end (`NIL` at the tail).
    older: u32,
}

/// The resident pages of one object: a dense table indexed by page number,
/// so it is as long as the object's highest page number ever resident.
#[derive(Debug, Clone)]
struct PageTable {
    object: u64,
    /// `frames[page]` is the page's frame, `NIL` when it is not resident.
    frames: Vec<u32>,
    /// Resident pages of the object (the non-`NIL` entries of `frames`).
    resident: usize,
}

impl PageTable {
    /// The frame holding `page`, `NIL` when it is not resident.
    fn frame(&self, page: u64) -> u32 {
        usize::try_from(page)
            .ok()
            .and_then(|p| self.frames.get(p))
            .map_or(NIL, |&frame| frame)
    }

    /// Records `page` as resident in `frame`, growing the table to reach it.
    fn install(&mut self, page: u64, frame: u32) {
        let p = page as usize;
        if p >= self.frames.len() {
            self.frames.resize(p + 1, NIL);
        }
        self.frames[p] = frame;
        self.resident += 1;
    }

    /// Records `page` as no longer resident.
    fn remove(&mut self, page: u64) {
        if let Some(frame) = self.frames.get_mut(page as usize) {
            *frame = NIL;
        }
        self.resident -= 1;
    }
}

/// A fixed-capacity LRU pool of pages.
///
/// Resident pages live in a slab of frames linked into one recency list by
/// `u32` indices (most recently used at the head, the next victim at the
/// tail), and each object with resident pages has a dense page table of
/// frame indices, found by one ordered-map lookup per request.  A hit,
/// a miss and an eviction are therefore O(1) per page after that lookup —
/// the simulator issues hundreds of thousands of page requests per query.
/// An object's table is released when its last page is evicted, and every
/// traversal order is deterministic.
#[derive(Debug, Clone)]
pub struct PagePool {
    capacity: usize,
    /// The frame slab; it grows to the capacity, after which a miss reuses
    /// the victim's frame, so its length is the resident page count.
    frames: Vec<Frame>,
    /// Most recently used frame (`NIL` when empty).
    newest: u32,
    /// Least recently used frame, the next victim (`NIL` when empty).
    oldest: u32,
    /// Page-table slot of every object with at least one resident page.
    objects: BTreeMap<u64, u32>,
    /// Page tables by slot; released slots are listed in `free_tables`.
    tables: Vec<PageTable>,
    free_tables: Vec<u32>,
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
            frames: Vec::new(),
            newest: NIL,
            oldest: NIL,
            objects: BTreeMap::new(),
            tables: Vec::new(),
            free_tables: Vec::new(),
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
        self.frames.len()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// True if `key` is currently buffered (does not touch LRU state).
    #[must_use]
    pub fn contains(&self, key: PageKey) -> bool {
        self.objects
            .get(&key.object)
            .is_some_and(|&table| self.table(table).frame(key.page) != NIL)
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
        let mut table = self.objects.get(&key.object).copied();
        self.touch(&mut table, key.object, key.page)
    }

    /// Requests `count` consecutive pages of `object` starting at
    /// `first_page` (a prefetch granule).  Returns the number of pages that
    /// missed and had to be fetched.
    pub fn request_range(&mut self, object: u64, first_page: u64, count: u64) -> u64 {
        let mut table = self.objects.get(&object).copied();
        let mut misses = 0;
        for page in first_page..first_page + count {
            if !self.touch(&mut table, object, page).hit {
                misses += 1;
            }
        }
        misses
    }

    /// One page request against `object`, whose page-table slot the caller
    /// looked up (`None` until the object has a resident page; the first
    /// install opens its table and stores the slot back).
    fn touch(&mut self, table: &mut Option<u32>, object: u64, page: u64) -> PageRequest {
        if let Some(slot) = *table {
            let frame = self.table(slot).frame(page);
            if frame != NIL {
                self.stats.hits += 1;
                self.unlink(frame);
                self.link_newest(frame);
                return PageRequest {
                    hit: true,
                    evicted: None,
                };
            }
        }
        self.stats.misses += 1;
        let slot = match *table {
            Some(slot) => slot,
            None => *table.insert(self.open_table(object)),
        };
        let (frame, evicted) = if self.frames.len() >= self.capacity.min(NIL as usize) {
            // Full: the least recently used frame is the victim, and the
            // requested page takes over its slab slot.
            let victim = self.oldest;
            let evicted = self.evict(victim, slot);
            let reused = self.frame_mut(victim);
            reused.page = page;
            reused.table = slot;
            (victim, Some(evicted))
        } else {
            self.frames.push(Frame {
                page,
                table: slot,
                newer: NIL,
                older: NIL,
            });
            ((self.frames.len() - 1) as u32, None)
        };
        self.link_newest(frame);
        self.table_mut(slot).install(page, frame);
        PageRequest {
            hit: false,
            evicted,
        }
    }

    /// Evicts the page in `frame` and returns its key.  Its object's table
    /// is released when that was the object's last page, unless it is
    /// `keep` (the table the caller is about to install into).
    fn evict(&mut self, frame: u32, keep: u32) -> PageKey {
        self.unlink(frame);
        let Frame { page, table, .. } = *self.frame(frame);
        let entry = self.table_mut(table);
        entry.remove(page);
        let object = entry.object;
        if entry.resident == 0 && table != keep {
            self.objects.remove(&object);
            self.free_tables.push(table);
        }
        self.stats.evictions += 1;
        PageKey::new(object, page)
    }

    /// Opens an empty page table for `object`, reusing a released slot.
    fn open_table(&mut self, object: u64) -> u32 {
        let slot = match self.free_tables.pop() {
            Some(slot) => {
                // A released table holds only `NIL` entries.
                self.table_mut(slot).object = object;
                slot
            }
            None => {
                self.tables.push(PageTable {
                    object,
                    frames: Vec::new(),
                    resident: 0,
                });
                (self.tables.len() - 1) as u32
            }
        };
        self.objects.insert(object, slot);
        slot
    }

    /// Detaches `frame` from the recency list.
    fn unlink(&mut self, frame: u32) {
        let Frame { newer, older, .. } = *self.frame(frame);
        match newer {
            NIL => self.newest = older,
            newer => self.frame_mut(newer).older = older,
        }
        match older {
            NIL => self.oldest = newer,
            older => self.frame_mut(older).newer = newer,
        }
    }

    /// Links a detached `frame` in as the most recently used.
    fn link_newest(&mut self, frame: u32) {
        let previous = self.newest;
        let linked = self.frame_mut(frame);
        linked.newer = NIL;
        linked.older = previous;
        match previous {
            NIL => self.oldest = frame,
            previous => self.frame_mut(previous).newer = frame,
        }
        self.newest = frame;
    }

    // Slab access: frame and table slots come only from the list links,
    // the page tables and `objects`, which hold valid slots by construction.

    fn frame(&self, frame: u32) -> &Frame {
        &self.frames[frame as usize]
    }

    fn frame_mut(&mut self, frame: u32) -> &mut Frame {
        &mut self.frames[frame as usize]
    }

    fn table(&self, slot: u32) -> &PageTable {
        &self.tables[slot as usize]
    }

    fn table_mut(&mut self, slot: u32) -> &mut PageTable {
        &mut self.tables[slot as usize]
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

/// The two-map pool this module shipped before the slab rewrite, kept
/// verbatim as the reference model the slab pool is checked against.
#[cfg(test)]
mod reference {
    use super::{BufferPoolStats, PageKey, PageRequest};
    use std::collections::BTreeMap;

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

    impl PagePool {
        /// Every resident page, in key order.
        pub fn resident_keys(&self) -> Vec<PageKey> {
            self.resident.keys().copied().collect()
        }
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

    #[test]
    fn churn_releases_every_object_without_resident_pages() {
        let mut pool = PagePool::new(16);
        let mut x = 7u64;
        for _ in 0..20_000 {
            // SplitMix-style scramble: 40 objects of up to 24 pages.
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let (object, page) = ((x >> 33) % 40, (x >> 17) % 24);
            if x.is_multiple_of(3) {
                pool.request_range(object, page, 1 + (x >> 9) % 20);
            } else {
                pool.request(PageKey::new(object, page));
            }
            assert!(pool.objects.len() <= pool.resident_pages());
            for &slot in pool.objects.values() {
                assert!(pool.table(slot).resident > 0, "object kept with no page");
            }
        }
        let resident: usize = pool
            .objects
            .values()
            .map(|&slot| pool.table(slot).resident)
            .sum();
        assert_eq!(resident, pool.resident_pages());
        assert_eq!(
            pool.objects.len() + pool.free_tables.len(),
            pool.tables.len()
        );
    }

    #[test]
    fn range_longer_than_the_pool_matches_the_reference() {
        // Sequential flooding: every range evicts its own earlier pages.
        let mut pool = PagePool::new(3);
        let mut reference = reference::PagePool::new(3);
        for (object, first, count) in [(0, 0, 10), (0, 0, 10), (1, 4, 7), (0, 8, 2)] {
            assert_eq!(
                pool.request_range(object, first, count),
                reference.request_range(object, first, count)
            );
            assert_eq!(pool.stats(), reference.stats());
            assert_eq!(pool.resident_pages(), reference.resident_pages());
            for key in reference.resident_keys() {
                assert!(pool.contains(key), "{key:?}");
            }
        }
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

        /// On random interleavings of single, reporting and range requests
        /// over six objects, the slab pool and the two-map reference agree
        /// after every operation: same results, same eviction victims, same
        /// statistics and the same resident set.  Ranges of up to 80 pages
        /// against capacities of 1–64 include sequential flooding.
        #[test]
        fn prop_matches_the_two_map_reference(
            capacity in 1usize..65,
            ops in proptest::collection::vec((0u8..3, 0u64..6, 0u64..96, 1u64..80), 1..300),
        ) {
            let mut pool = PagePool::new(capacity);
            let mut reference = reference::PagePool::new(capacity);
            prop_assert_eq!(pool.capacity(), reference.capacity());
            for &(kind, object, page, count) in &ops {
                let key = PageKey::new(object, page);
                match kind {
                    0 => prop_assert_eq!(pool.request(key), reference.request(key)),
                    1 => prop_assert_eq!(
                        pool.request_reporting(key),
                        reference.request_reporting(key)
                    ),
                    _ => prop_assert_eq!(
                        pool.request_range(object, page, count),
                        reference.request_range(object, page, count)
                    ),
                }
                prop_assert_eq!(pool.stats(), reference.stats());
                prop_assert_eq!(pool.resident_pages(), reference.resident_pages());
                for key in reference.resident_keys() {
                    prop_assert!(pool.contains(key), "{:?} not resident", key);
                }
                // The last page a range may have reached, resident or not.
                let last = PageKey::new(object, page + count - 1);
                prop_assert_eq!(pool.contains(last), reference.contains(last));
            }
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
