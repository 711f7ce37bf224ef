//! Declustering analysis (§4.6).
//!
//! Round robin can "artificially restrict parallelism for certain query
//! classes": if a query has to access every `s`-th fragment and
//! `gcd(s, d) > 1`, the relevant fragments land on only `d / gcd(s, d)`
//! disks.  The paper's example: `F_MonthGroup` on `d = 100` disks allocated
//! month-major; query 1CODE accesses every 480th fragment and
//! `gcd(480, 100) = 20`, so only 5 disks are used — a 4.8× parallelism loss.
//! The suggested counter-measures are a prime number of disks or a
//! gap-modified allocation.

use crate::layout::PhysicalAllocation;

/// Number of distinct disks that hold the given fact fragments under an
/// allocation — the maximum achievable I/O parallelism for a query that has
/// to read exactly those fragments.
#[must_use]
pub fn effective_parallelism(allocation: &PhysicalAllocation, fragments: &[u64]) -> usize {
    let mut disks: Vec<u64> = fragments.iter().map(|&f| allocation.fact_disk(f)).collect();
    disks.sort_unstable();
    disks.dedup();
    disks.len()
}

/// Effective parallelism of a strided fragment set under *plain* round robin:
/// accessing fragments `start, start+stride, …` (`count` of them) on `d`
/// disks reaches `min(count, d / gcd(stride, d))` distinct disks.
#[must_use]
pub fn stride_parallelism(disks: u64, stride: u64, count: u64) -> u64 {
    assert!(disks > 0);
    if count == 0 {
        return 0;
    }
    let stride = if stride == 0 { disks } else { stride };
    let reachable = disks / gcd(stride, disks);
    reachable.min(count)
}

/// Greatest common divisor (Euclid).
#[must_use]
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// True if `n` is prime (trial division; disk counts are small).
#[must_use]
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n < 4 {
        return true;
    }
    if n.is_multiple_of(2) {
        return false;
    }
    let mut i = 3;
    while i * i <= n {
        if n.is_multiple_of(i) {
            return false;
        }
        i += 2;
    }
    true
}

/// The smallest prime greater than or equal to `n` — the paper's
/// "choose a prime number for the degree of declustering" recommendation.
#[must_use]
pub fn next_prime_at_least(n: u64) -> u64 {
    let mut candidate = n.max(2);
    while !is_prime(candidate) {
        candidate += 1;
    }
    candidate
}

/// The per-disk load shares of an allocation for a weighted fragment set:
/// `weights[f]` is fact fragment `f`'s load (pages, rows, expected scans —
/// any non-negative measure) and the result sums it per
/// [`PhysicalAllocation::fact_disk`], normalised to a total of 1.
///
/// This is the analytic counterpart of a measured per-disk utilisation
/// profile: under uniform weights round robin balances perfectly, while a
/// Zipf-skewed weight vector predicts exactly how much load the disk
/// holding the hot head must absorb.
#[must_use]
pub fn disk_load_shares(allocation: &PhysicalAllocation, weights: &[f64]) -> Vec<f64> {
    let mut loads = vec![0.0f64; usize::try_from(allocation.disks()).expect("disk count fits")];
    for (fragment, &weight) in weights.iter().enumerate() {
        loads[allocation.fact_disk(fragment as u64) as usize] += weight;
    }
    let total: f64 = loads.iter().sum();
    if total > 0.0 {
        for load in &mut loads {
            *load /= total;
        }
    }
    loads
}

/// Load imbalance of a per-disk (or per-worker) load vector: the maximum
/// load over the mean load.  1.0 is perfect balance; an all-idle vector
/// reports 1.0 rather than NaN.
#[must_use]
pub fn load_imbalance(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let max = loads.iter().copied().fold(0.0f64, f64::max);
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= f64::EPSILON {
        1.0
    } else {
        max / mean
    }
}

/// Summary of how well an allocation supports a set of strided access
/// patterns (one per query type of interest).
#[derive(Debug, Clone, PartialEq)]
pub struct DeclusteringAnalysis {
    /// Number of disks analysed.
    pub disks: u64,
    /// Per-pattern `(stride, fragments accessed, distinct disks reached)`.
    pub patterns: Vec<(u64, u64, u64)>,
    /// Worst-case parallelism loss factor over all patterns
    /// (`1.0` = no loss; the paper's 1CODE example loses 4.8×).
    pub worst_loss_factor: f64,
}

impl DeclusteringAnalysis {
    /// Analyses plain round robin on `disks` disks for the given
    /// `(stride, count)` access patterns.
    #[must_use]
    pub fn analyse(disks: u64, patterns: &[(u64, u64)]) -> Self {
        let mut rows = Vec::with_capacity(patterns.len());
        let mut worst = 1.0f64;
        for &(stride, count) in patterns {
            let reached = stride_parallelism(disks, stride, count);
            let ideal = count.min(disks);
            if reached > 0 {
                worst = worst.max(ideal as f64 / reached as f64);
            }
            rows.push((stride, count, reached));
        }
        DeclusteringAnalysis {
            disks,
            patterns: rows,
            worst_loss_factor: worst,
        }
    }

    /// True if no analysed pattern loses parallelism.
    #[must_use]
    pub fn is_clustering_free(&self) -> bool {
        self.worst_loss_factor <= 1.0 + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_1code_on_100_disks() {
        // §4.6: 1CODE accesses 24 fragments with stride 480 on 100 disks;
        // gcd(480, 100) = 20 → only 5 disks, "reducing possible parallelism
        // by a factor of 4.8".
        assert_eq!(gcd(480, 100), 20);
        assert_eq!(stride_parallelism(100, 480, 24), 5);
        let a = PhysicalAllocation::round_robin(100);
        let fragments: Vec<u64> = (0..24).map(|m| m * 480).collect();
        assert_eq!(effective_parallelism(&a, &fragments), 5);
        let analysis = DeclusteringAnalysis::analyse(100, &[(480, 24)]);
        assert!((analysis.worst_loss_factor - 4.8).abs() < 1e-9);
        assert!(!analysis.is_clustering_free());
    }

    #[test]
    fn paper_example_group_major_allocation() {
        // "If we decide to allocate the other way round, 1CODE is optimally
        // supported while, e.g., 1MONTH queries are restricted to 25 disks
        // (gcd = 4)".  Group-major order gives 1MONTH a stride of 24 over 480
        // fragments.
        assert_eq!(gcd(24, 100), 4);
        assert_eq!(stride_parallelism(100, 24, 480), 25);
    }

    #[test]
    fn prime_disk_count_avoids_clustering() {
        // A prime number of disks makes gcd(stride, d) = 1 for every stride
        // not a multiple of d.
        let d = next_prime_at_least(100);
        assert_eq!(d, 101);
        assert_eq!(stride_parallelism(d, 480, 101), 101);
        assert_eq!(stride_parallelism(d, 24, 101), 101);
        let analysis = DeclusteringAnalysis::analyse(101, &[(480, 480), (24, 480)]);
        assert!(analysis.is_clustering_free());
    }

    #[test]
    fn stride_parallelism_edge_cases() {
        assert_eq!(stride_parallelism(10, 1, 100), 10);
        assert_eq!(stride_parallelism(10, 1, 3), 3);
        assert_eq!(stride_parallelism(10, 0, 5), 1); // stride 0 ≡ stride d
        assert_eq!(stride_parallelism(10, 10, 5), 1);
        assert_eq!(stride_parallelism(10, 5, 100), 2);
        assert_eq!(stride_parallelism(7, 3, 0), 0);
    }

    #[test]
    fn gcd_and_primality() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert!(is_prime(2));
        assert!(is_prime(97));
        assert!(is_prime(101));
        assert!(!is_prime(1));
        assert!(!is_prime(0));
        assert!(!is_prime(100));
        assert_eq!(next_prime_at_least(2), 2);
        assert_eq!(next_prime_at_least(8), 11);
        assert_eq!(next_prime_at_least(20), 23);
    }

    #[test]
    fn uniform_weights_balance_round_robin_perfectly() {
        let a = PhysicalAllocation::round_robin(5);
        let shares = disk_load_shares(&a, &[1.0; 100]);
        assert_eq!(shares.len(), 5);
        for &s in &shares {
            assert!((s - 0.2).abs() < 1e-12, "{shares:?}");
        }
        assert!((load_imbalance(&shares) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_weights_predict_the_hot_disk() {
        // Fragment 0 carries half the load on 4 disks: disk 0's share is
        // 0.5 + 0.5/4 of the remainder spread and imbalance exceeds 2x.
        let mut weights = vec![1.0f64; 16];
        weights[0] = 15.0;
        let a = PhysicalAllocation::round_robin(4);
        let shares = disk_load_shares(&a, &weights);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 18.0 / 30.0).abs() < 1e-12, "{shares:?}");
        assert!((load_imbalance(&shares) - (18.0 / 30.0) / 0.25).abs() < 1e-12);
    }

    #[test]
    fn load_imbalance_degenerate_inputs() {
        assert_eq!(load_imbalance(&[]), 1.0);
        assert_eq!(load_imbalance(&[0.0, 0.0]), 1.0);
        assert!((load_imbalance(&[2.0, 1.0, 1.0]) - 1.5).abs() < 1e-12);
        // Weight vectors shorter than a full round leave trailing disks idle.
        let a = PhysicalAllocation::round_robin(4);
        let shares = disk_load_shares(&a, &[1.0, 1.0]);
        assert_eq!(shares, vec![0.5, 0.5, 0.0, 0.0]);
        assert!((load_imbalance(&shares) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn effective_parallelism_with_duplicates_and_empty() {
        let a = PhysicalAllocation::round_robin(10);
        assert_eq!(effective_parallelism(&a, &[]), 0);
        assert_eq!(effective_parallelism(&a, &[3, 13, 23]), 1);
        assert_eq!(effective_parallelism(&a, &[0, 1, 2, 3]), 4);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// gcd divides both arguments and the stride formula matches a direct
        /// simulation of plain round robin.
        #[test]
        fn prop_gcd_and_stride(d in 1u64..200, stride in 1u64..2_000, count in 1u64..500) {
            let g = gcd(stride, d);
            prop_assert_eq!(stride % g, 0);
            prop_assert_eq!(d % g, 0);
            let a = PhysicalAllocation::round_robin(d);
            let fragments: Vec<u64> = (0..count).map(|i| i * stride).collect();
            let direct = effective_parallelism(&a, &fragments) as u64;
            prop_assert_eq!(direct, stride_parallelism(d, stride, count));
        }

        /// Prime disk counts never lose parallelism for strides below d.
        #[test]
        fn prop_prime_disks_are_clustering_free(seed in 2u64..150, stride in 1u64..149) {
            let d = next_prime_at_least(seed);
            prop_assume!(stride % d != 0);
            prop_assert_eq!(stride_parallelism(d, stride, d), d);
        }
    }
}
