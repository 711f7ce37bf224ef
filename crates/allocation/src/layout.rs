//! Round-robin and staggered round-robin disk placement (§4, §4.6, Figure 2).

/// Where the bitmap fragments of a fact fragment are placed relative to the
/// fact fragment's disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitmapPlacement {
    /// Staggered round robin (Figure 2): the `k` bitmap fragments of fact
    /// fragment on disk `j` go to disks `j+1, …, j+k (mod d)`, so that all
    /// bitmap fragments needed by one subquery can be read in parallel.
    Staggered,
    /// Bitmap fragments share the disk of their fact fragment — the
    /// "non-parallel I/O" baseline of Figure 5.
    CoLocated,
}

/// A physical allocation of fact fragments and bitmap fragments onto `d`
/// disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalAllocation {
    disks: u64,
    bitmap_placement: BitmapPlacement,
    /// Extra offset added per allocation round ("gaps") to break up the gcd
    /// clustering of plain round robin; 0 reproduces plain round robin.
    round_gap: u64,
}

impl PhysicalAllocation {
    /// Plain round robin with staggered bitmap placement — the paper's
    /// default configuration.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero.
    #[must_use]
    pub fn round_robin(disks: u64) -> Self {
        assert!(disks > 0, "need at least one disk");
        PhysicalAllocation {
            disks,
            bitmap_placement: BitmapPlacement::Staggered,
            round_gap: 0,
        }
    }

    /// Round robin with co-located bitmap fragments (Figure 5 baseline).
    #[must_use]
    pub fn round_robin_colocated(disks: u64) -> Self {
        PhysicalAllocation {
            bitmap_placement: BitmapPlacement::CoLocated,
            ..Self::round_robin(disks)
        }
    }

    /// Gap-modified round robin: after each full round over the disks the
    /// starting disk is shifted by `gap`, which breaks the disk clustering
    /// that plain round robin exhibits for strided fragment sets whose stride
    /// shares a divisor with `d` (§4.6 "a modified allocation scheme
    /// introducing certain gaps").
    #[must_use]
    pub fn round_robin_with_gap(disks: u64, gap: u64) -> Self {
        PhysicalAllocation {
            round_gap: gap % disks.max(1),
            ..Self::round_robin(disks)
        }
    }

    /// Number of disks.
    #[must_use]
    pub fn disks(&self) -> u64 {
        self.disks
    }

    /// The bitmap placement policy.
    #[must_use]
    pub fn bitmap_placement(&self) -> BitmapPlacement {
        self.bitmap_placement
    }

    /// The per-round gap (0 for plain round robin).
    #[must_use]
    pub fn round_gap(&self) -> u64 {
        self.round_gap
    }

    /// The disk holding fact fragment `fragment_no` (fragments are numbered
    /// in the fragmentation's allocation order).
    #[must_use]
    pub fn fact_disk(&self, fragment_no: u64) -> u64 {
        if self.round_gap == 0 {
            fragment_no % self.disks
        } else {
            let round = fragment_no / self.disks;
            (fragment_no + round * self.round_gap) % self.disks
        }
    }

    /// The disk holding bitmap fragment `bitmap_index` (0-based among the `k`
    /// bitmaps that exist) of fact fragment `fragment_no`.
    #[must_use]
    pub fn bitmap_disk(&self, fragment_no: u64, bitmap_index: u64) -> u64 {
        let base = self.fact_disk(fragment_no);
        match self.bitmap_placement {
            BitmapPlacement::CoLocated => base,
            BitmapPlacement::Staggered => (base + 1 + bitmap_index) % self.disks,
        }
    }

    /// The disks touched when a subquery reads its fact fragment plus
    /// `bitmap_count` bitmap fragments.
    #[must_use]
    pub fn subquery_disks(&self, fragment_no: u64, bitmap_count: u64) -> Vec<u64> {
        let mut disks = vec![self.fact_disk(fragment_no)];
        for b in 0..bitmap_count {
            disks.push(self.bitmap_disk(fragment_no, b));
        }
        disks.sort_unstable();
        disks.dedup();
        disks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_round_robin_cycles_over_disks() {
        let a = PhysicalAllocation::round_robin(100);
        assert_eq!(a.disks(), 100);
        assert_eq!(a.fact_disk(0), 0);
        assert_eq!(a.fact_disk(99), 99);
        assert_eq!(a.fact_disk(100), 0);
        assert_eq!(a.fact_disk(11_519), 11_519 % 100);
        assert_eq!(a.round_gap(), 0);
    }

    #[test]
    fn staggered_bitmaps_follow_consecutive_disks() {
        // Figure 2: "if fact fragment frag i is placed on disk j, the
        // associated bitmap fragments of all k different bitmaps are placed
        // on disk j+1, …, j+k (modulo d)".
        let a = PhysicalAllocation::round_robin(10);
        assert_eq!(a.bitmap_placement(), BitmapPlacement::Staggered);
        assert_eq!(a.fact_disk(3), 3);
        assert_eq!(a.bitmap_disk(3, 0), 4);
        assert_eq!(a.bitmap_disk(3, 5), 9);
        assert_eq!(a.bitmap_disk(3, 6), 0); // wraps around
                                            // With 12 bitmaps on 10 disks, some disks receive two bitmap
                                            // fragments but the subquery still spans all 10 disks.
        let disks = a.subquery_disks(3, 12);
        assert_eq!(disks.len(), 10);
    }

    #[test]
    fn colocated_bitmaps_share_the_fact_disk() {
        let a = PhysicalAllocation::round_robin_colocated(10);
        assert_eq!(a.bitmap_placement(), BitmapPlacement::CoLocated);
        for b in 0..12 {
            assert_eq!(a.bitmap_disk(7, b), a.fact_disk(7));
        }
        assert_eq!(a.subquery_disks(7, 12), vec![7]);
    }

    #[test]
    fn parallel_bitmap_io_uses_distinct_disks_when_k_fits() {
        // With k ≤ d-1 bitmaps, staggering gives k distinct bitmap disks,
        // none equal to the fact disk.
        let a = PhysicalAllocation::round_robin(100);
        let k = 12;
        let disks = a.subquery_disks(42, k);
        assert_eq!(disks.len() as u64, k + 1);
    }

    #[test]
    fn gap_scheme_breaks_stride_clustering() {
        // §4.6: with d = 100 and F_MonthGroup allocated month-major, query
        // 1CODE accesses every 480th fragment; gcd(480, 100) = 20 confines
        // plain round robin to 5 disks.  A gap of 1 per round spreads the
        // same fragments over far more disks.
        let plain = PhysicalAllocation::round_robin(100);
        let gapped = PhysicalAllocation::round_robin_with_gap(100, 1);
        let fragments: Vec<u64> = (0..24).map(|m| m * 480).collect();
        let distinct = |a: &PhysicalAllocation| {
            let mut d: Vec<u64> = fragments.iter().map(|&f| a.fact_disk(f)).collect();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        assert_eq!(distinct(&plain), 5);
        assert!(
            distinct(&gapped) >= 20,
            "gapped spread: {}",
            distinct(&gapped)
        );
    }

    #[test]
    fn gap_allocation_still_covers_all_disks_evenly() {
        let a = PhysicalAllocation::round_robin_with_gap(10, 3);
        let mut counts = vec![0u64; 10];
        for f in 0..1_000 {
            counts[a.fact_disk(f) as usize] += 1;
        }
        // Every disk receives the same number of fragments.
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        let _ = PhysicalAllocation::round_robin(0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Disk numbers are always within range and round robin balances
        /// perfectly over any full number of rounds.
        #[test]
        fn prop_disks_in_range(disks in 1u64..128, gap in 0u64..64, frag in 0u64..100_000, bitmap in 0u64..80) {
            let a = PhysicalAllocation::round_robin_with_gap(disks, gap);
            prop_assert!(a.fact_disk(frag) < disks);
            prop_assert!(a.bitmap_disk(frag, bitmap) < disks);
        }

        /// Over one full round, plain round robin hits every disk exactly once.
        #[test]
        fn prop_round_robin_one_round_balance(disks in 1u64..200) {
            let a = PhysicalAllocation::round_robin(disks);
            let mut seen: Vec<u64> = (0..disks).map(|f| a.fact_disk(f)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..disks).collect::<Vec<_>>());
        }
    }
}
