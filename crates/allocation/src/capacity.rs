//! Per-disk storage accounting and balance metrics.
//!
//! §4.6: "the minimal number of disks is determined by the capacity
//! requirements to store the fact table, bitmaps and other data"; fact and
//! bitmap data share the same disks so that all disks can serve fact I/O.
//! [`CapacityReport`] computes how many bytes of fact and bitmap data each
//! disk receives under an allocation and how balanced the distribution is.

use mdhf::Fragmentation;
use schema::{PageSizing, StarSchema};

use crate::layout::PhysicalAllocation;

/// Storage assigned to one disk.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiskUsage {
    /// Bytes of fact-fragment data.
    pub fact_bytes: f64,
    /// Bytes of bitmap-fragment data.
    pub bitmap_bytes: f64,
    /// Number of fact fragments.
    pub fact_fragments: u64,
    /// Number of bitmap fragments.
    pub bitmap_fragments: u64,
}

impl DiskUsage {
    /// Total bytes on the disk.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.fact_bytes + self.bitmap_bytes
    }
}

/// Capacity accounting of a full allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityReport {
    per_disk: Vec<DiskUsage>,
}

impl CapacityReport {
    /// Computes per-disk usage for `fragmentation` with `bitmap_count`
    /// bitmaps, placed according to `allocation`.
    ///
    /// Fragment sizes use the uniform-distribution averages of the paper's
    /// sizing model.
    #[must_use]
    pub fn compute(
        schema: &StarSchema,
        fragmentation: &Fragmentation,
        allocation: &PhysicalAllocation,
        bitmap_count: u64,
    ) -> Self {
        let sizing = PageSizing::new(schema);
        let n = fragmentation.fragment_count();
        let fact_fragment_bytes =
            sizing.fact_rows() as f64 / n as f64 * sizing.fact_tuple_bytes() as f64;
        let bitmap_fragment_bytes = sizing.fact_rows() as f64 / n as f64 / 8.0;
        let mut per_disk = vec![DiskUsage::default(); allocation.disks() as usize];

        // Iterating over billions of fragments is unnecessary: round robin is
        // periodic with period `disks`, so distribute whole rounds in bulk and
        // walk only the remainder explicitly.
        // Both the plain and the gap-modified scheme place exactly one fact
        // fragment per disk per full round, so full rounds can be distributed
        // in bulk; only the final partial round is walked explicitly.
        let disks = allocation.disks();
        let full_rounds = n / disks;
        let remainder = n % disks;
        for usage in &mut per_disk {
            usage.fact_fragments = full_rounds;
            usage.fact_bytes = full_rounds as f64 * fact_fragment_bytes;
        }
        for f in (n - remainder)..n {
            let d = allocation.fact_disk(f) as usize;
            per_disk[d].fact_fragments += 1;
            per_disk[d].fact_bytes += fact_fragment_bytes;
        }

        // Bitmap fragments: every fact fragment has `bitmap_count` bitmap
        // fragments.  Over one full round-robin round every disk ends up with
        // exactly `bitmap_count` of them, both for the staggered placement
        // (the per-fragment offsets shift uniformly with the fact disk) and
        // for the co-located one.
        let bitmap_per_disk_per_round = bitmap_count;
        for usage in &mut per_disk {
            usage.bitmap_fragments = full_rounds * bitmap_per_disk_per_round;
            usage.bitmap_bytes =
                (full_rounds * bitmap_per_disk_per_round) as f64 * bitmap_fragment_bytes;
        }
        for f in (n - remainder)..n {
            for b in 0..bitmap_count {
                let d = allocation.bitmap_disk(f, b) as usize;
                per_disk[d].bitmap_fragments += 1;
                per_disk[d].bitmap_bytes += bitmap_fragment_bytes;
            }
        }

        CapacityReport { per_disk }
    }

    /// Per-disk usage, indexed by disk number.
    #[must_use]
    pub fn per_disk(&self) -> &[DiskUsage] {
        &self.per_disk
    }

    /// Total bytes across all disks.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.per_disk.iter().map(DiskUsage::total_bytes).sum()
    }

    /// Imbalance factor: maximum disk load divided by the mean load
    /// (1.0 = perfectly balanced).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        if self.per_disk.is_empty() {
            return 1.0;
        }
        let loads: Vec<f64> = self.per_disk.iter().map(DiskUsage::total_bytes).collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        loads.iter().copied().fold(0.0f64, f64::max) / mean
    }

    /// Minimum per-disk capacity (in bytes) needed to hold this allocation.
    #[must_use]
    pub fn required_disk_capacity(&self) -> f64 {
        self.per_disk
            .iter()
            .map(DiskUsage::total_bytes)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema::apb1::apb1_schema;

    #[test]
    fn month_group_on_100_disks_balances_and_sums_correctly() {
        let s = apb1_schema();
        let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
        let a = PhysicalAllocation::round_robin(100);
        // 32 bitmaps remain under F_MonthGroup.
        let report = CapacityReport::compute(&s, &f, &a, 32);
        assert_eq!(report.per_disk().len(), 100);
        // Total fact bytes ≈ 37.3 GB; total bitmap bytes = 32 × 233 MB ≈ 7.5 GB.
        let fact_total: f64 = report.per_disk().iter().map(|d| d.fact_bytes).sum();
        let bitmap_total: f64 = report.per_disk().iter().map(|d| d.bitmap_bytes).sum();
        assert!((fact_total - 37.3e9).abs() < 0.2e9, "{fact_total}");
        assert!(
            (bitmap_total - 32.0 * 233.28e6).abs() < 0.1e9,
            "{bitmap_total}"
        );
        // 11 520 fragments over 100 disks: near-perfect balance.
        assert!(report.imbalance() < 1.02, "{}", report.imbalance());
        // Each disk needs roughly (37.3 + 7.5) GB / 100 ≈ 450 MB.
        let cap = report.required_disk_capacity();
        assert!(cap > 4.0e8 && cap < 5.0e8, "{cap}");
    }

    #[test]
    fn fragment_counts_per_disk() {
        let s = apb1_schema();
        let f = Fragmentation::parse(&s, &["time::month", "product::group"]).unwrap();
        let a = PhysicalAllocation::round_robin(100);
        let report = CapacityReport::compute(&s, &f, &a, 12);
        let total_fact: u64 = report.per_disk().iter().map(|d| d.fact_fragments).sum();
        let total_bitmap: u64 = report.per_disk().iter().map(|d| d.bitmap_fragments).sum();
        assert_eq!(total_fact, 11_520);
        assert_eq!(total_bitmap, 11_520 * 12);
        // 11 520 does not divide evenly by 100 — 20 disks get one extra fragment.
        let max = report
            .per_disk()
            .iter()
            .map(|d| d.fact_fragments)
            .max()
            .unwrap();
        let min = report
            .per_disk()
            .iter()
            .map(|d| d.fact_fragments)
            .min()
            .unwrap();
        assert_eq!(max - min, 1);
    }

    #[test]
    fn colocated_allocation_accounts_bitmaps_on_fact_disks() {
        let s = apb1_schema();
        let f = Fragmentation::parse(&s, &["customer::store"]).unwrap();
        let a = PhysicalAllocation::round_robin_colocated(10);
        let report = CapacityReport::compute(&s, &f, &a, 5);
        let total_bitmap: u64 = report.per_disk().iter().map(|d| d.bitmap_fragments).sum();
        assert_eq!(total_bitmap, 1_440 * 5);
        assert!(report.imbalance() < 1.05);
        assert!(report.total_bytes() > 0.0);
    }
}
