//! Two-level **node → disk** placement for multi-node scale-out.
//!
//! The paper allocates fragments across the disks of a single parallel
//! machine.  This module generalises [`PhysicalAllocation`] one level up: the
//! `d` disks are owned by `n` simulated nodes (`d / n` consecutive disks
//! each), and the placement strategy decides what a *remote* disk costs:
//!
//! * [`NodeStrategy::SharedNothing`] — each node can reach only its own
//!   disks directly; a scan executing on node `i` that touches a disk owned
//!   by node `j ≠ i` must ship the pages over the interconnect (the
//!   execution layer charges a per-page network cost).
//! * [`NodeStrategy::SharedDisk`] — every node reaches every disk at equal
//!   cost (the paper's Shared Disk architecture); only the per-node buffer
//!   caches are private.
//!
//! The fragment-level placement itself is still the wrapped
//! [`PhysicalAllocation`] — round-robin facts with staggered bitmaps — so a
//! single-node `NodePlacement` is bit-for-bit the flat allocation it wraps.
//!
//! ```
//! use allocation::{NodePlacement, NodeStrategy};
//!
//! // 4 nodes × 3 disks = 12 disks, shared-nothing.
//! let p = NodePlacement::shared_nothing(4, 3);
//! assert_eq!(p.total_disks(), 12);
//! assert_eq!(p.node_of_disk(7), 2);
//! // Fact fragment 7 lands on disk 7 (round robin), owned by node 2.
//! assert_eq!(p.home_node(7), 2);
//! assert!(p.is_local(2, 7));
//! assert!(!p.is_local(0, 7));
//! // Shared disk treats every disk as local.
//! assert!(NodePlacement::shared_disk(4, 3).is_local(0, 7));
//! ```

use crate::analysis::disk_load_shares;
use crate::layout::PhysicalAllocation;

/// How the nodes of a [`NodePlacement`] reach each other's disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStrategy {
    /// Each node owns its disks exclusively; remote pages travel over the
    /// interconnect and pay a per-page network charge.
    SharedNothing,
    /// Every node reaches every disk at equal cost (the paper's Shared Disk
    /// architecture); only buffer caches are per-node.
    SharedDisk,
}

/// A two-level placement: `nodes × disks_per_node` disks, fragment placement
/// delegated to a wrapped [`PhysicalAllocation`], disk `d` owned by node
/// `d / disks_per_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePlacement {
    nodes: u64,
    strategy: NodeStrategy,
    allocation: PhysicalAllocation,
}

impl NodePlacement {
    /// A placement of `nodes × disks_per_node` disks under `strategy`, with
    /// plain round-robin fact placement and staggered bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `disks_per_node` is zero.
    #[must_use]
    pub fn new(nodes: u64, disks_per_node: u64, strategy: NodeStrategy) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(disks_per_node > 0, "need at least one disk per node");
        NodePlacement {
            nodes,
            strategy,
            allocation: PhysicalAllocation::round_robin(nodes * disks_per_node),
        }
    }

    /// Shared-nothing placement: `nodes × disks_per_node` disks, remote
    /// pages pay the interconnect.
    #[must_use]
    pub fn shared_nothing(nodes: u64, disks_per_node: u64) -> Self {
        Self::new(nodes, disks_per_node, NodeStrategy::SharedNothing)
    }

    /// Shared-disk placement: `nodes × disks_per_node` disks, every disk
    /// equally reachable.
    #[must_use]
    pub fn shared_disk(nodes: u64, disks_per_node: u64) -> Self {
        Self::new(nodes, disks_per_node, NodeStrategy::SharedDisk)
    }

    /// Wraps an existing flat allocation in a node layer.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or does not divide the allocation's disk
    /// count (nodes own equal, contiguous disk ranges).
    #[must_use]
    pub fn over(allocation: PhysicalAllocation, nodes: u64, strategy: NodeStrategy) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(
            allocation.disks().is_multiple_of(nodes),
            "node count {nodes} must divide disk count {}",
            allocation.disks()
        );
        NodePlacement {
            nodes,
            strategy,
            allocation,
        }
    }

    /// The degenerate single-node placement over `allocation` — exactly the
    /// flat single-machine configuration.
    #[must_use]
    pub fn single(allocation: PhysicalAllocation) -> Self {
        Self::over(allocation, 1, NodeStrategy::SharedDisk)
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Disks owned by each node.
    #[must_use]
    pub fn disks_per_node(&self) -> u64 {
        self.allocation.disks() / self.nodes
    }

    /// Total number of disks across all nodes.
    #[must_use]
    pub fn total_disks(&self) -> u64 {
        self.allocation.disks()
    }

    /// The wrapped fragment-level allocation.
    #[must_use]
    pub fn allocation(&self) -> &PhysicalAllocation {
        &self.allocation
    }

    /// The placement strategy.
    #[must_use]
    pub fn strategy(&self) -> NodeStrategy {
        self.strategy
    }

    /// The node owning disk `disk`.
    #[must_use]
    pub fn node_of_disk(&self, disk: u64) -> u64 {
        (disk / self.disks_per_node()).min(self.nodes - 1)
    }

    /// The node owning fact fragment `fragment_no`'s disk — the node a scan
    /// of that fragment executes on.
    #[must_use]
    pub fn home_node(&self, fragment_no: u64) -> u64 {
        self.node_of_disk(self.allocation.fact_disk(fragment_no))
    }

    /// True when `node` can read `disk` without paying the interconnect:
    /// always under [`NodeStrategy::SharedDisk`], only for owned disks under
    /// [`NodeStrategy::SharedNothing`].
    #[must_use]
    pub fn is_local(&self, node: u64, disk: u64) -> bool {
        match self.strategy {
            NodeStrategy::SharedDisk => true,
            NodeStrategy::SharedNothing => self.node_of_disk(disk) == node,
        }
    }
}

/// The per-node load shares of a two-level placement for a weighted fragment
/// set: [`disk_load_shares`] folded over each node's owned disk range, so
/// the result has one entry per node and sums to 1 whenever any weight is
/// positive.
///
/// This is the analytic counterpart of a measured per-node utilisation
/// profile — under Zipf skew it predicts how much load the node owning the
/// hot head's disk must absorb, for comparison against
/// [`crate::load_imbalance`] of the measured per-node busy times.
#[must_use]
pub fn node_load_shares(placement: &NodePlacement, weights: &[f64]) -> Vec<f64> {
    let disk_shares = disk_load_shares(placement.allocation(), weights);
    let mut shares = vec![0.0f64; usize::try_from(placement.nodes()).expect("node count fits")];
    for (disk, &share) in disk_shares.iter().enumerate() {
        shares[usize::try_from(placement.node_of_disk(disk as u64)).expect("node fits")] += share;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::load_imbalance;

    #[test]
    fn ownership_is_contiguous_and_complete() {
        let p = NodePlacement::shared_nothing(4, 3);
        assert_eq!(p.nodes(), 4);
        assert_eq!(p.disks_per_node(), 3);
        assert_eq!(p.total_disks(), 12);
        for disk in 0..12 {
            assert_eq!(p.node_of_disk(disk), disk / 3);
        }
    }

    #[test]
    fn home_node_follows_the_fact_disk() {
        let p = NodePlacement::shared_nothing(2, 5);
        for fragment in 0..100 {
            let disk = p.allocation().fact_disk(fragment);
            assert_eq!(p.home_node(fragment), disk / 5);
        }
    }

    #[test]
    fn locality_depends_on_the_strategy() {
        let sn = NodePlacement::shared_nothing(2, 2);
        assert!(sn.is_local(0, 0));
        assert!(sn.is_local(0, 1));
        assert!(!sn.is_local(0, 2));
        assert!(sn.is_local(1, 3));
        let sd = NodePlacement::shared_disk(2, 2);
        for node in 0..2 {
            for disk in 0..4 {
                assert!(sd.is_local(node, disk));
            }
        }
    }

    #[test]
    fn single_node_is_the_flat_allocation() {
        let flat = PhysicalAllocation::round_robin(7);
        let p = NodePlacement::single(flat);
        assert_eq!(p.nodes(), 1);
        assert_eq!(p.total_disks(), 7);
        assert_eq!(p.allocation(), &flat);
        for fragment in 0..50 {
            assert_eq!(p.home_node(fragment), 0);
        }
        for disk in 0..7 {
            assert!(p.is_local(0, disk));
        }
    }

    #[test]
    fn uniform_weights_balance_nodes_perfectly() {
        let p = NodePlacement::shared_nothing(4, 3);
        let shares = node_load_shares(&p, &[1.0; 120]);
        assert_eq!(shares.len(), 4);
        for &s in &shares {
            assert!((s - 0.25).abs() < 1e-12, "{shares:?}");
        }
        assert!((load_imbalance(&shares) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_weights_load_the_hot_node() {
        // Fragment 0 carries most of the load; node 0 owns its disk.
        let mut weights = vec![1.0f64; 12];
        weights[0] = 23.0;
        let p = NodePlacement::shared_nothing(4, 3);
        let shares = node_load_shares(&p, &weights);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Node 0: fragments 0,1,2 → (23 + 1 + 1) / 34.
        assert!((shares[0] - 25.0 / 34.0).abs() < 1e-12, "{shares:?}");
        assert!(load_imbalance(&shares) > 2.0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn uneven_node_split_rejected() {
        let _ = NodePlacement::over(
            PhysicalAllocation::round_robin(7),
            2,
            NodeStrategy::SharedNothing,
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = NodePlacement::new(0, 3, NodeStrategy::SharedDisk);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::analysis::disk_load_shares;
    use proptest::prelude::*;

    proptest! {
        /// Node shares are exactly the disk shares folded by ownership: they
        /// sum to 1 and each node's share equals the sum over its disks
        /// (conservation — no load appears or vanishes in the node layer).
        #[test]
        fn prop_node_shares_conserve_disk_shares(
            nodes in 1u64..9,
            disks_per_node in 1u64..7,
            weights in proptest::collection::vec(0.0f64..100.0, 1..200),
        ) {
            let p = NodePlacement::shared_nothing(nodes, disks_per_node);
            let node_shares = node_load_shares(&p, &weights);
            let disk_shares = disk_load_shares(p.allocation(), &weights);
            prop_assert_eq!(node_shares.len() as u64, nodes);
            let total: f64 = node_shares.iter().sum();
            let disk_total: f64 = disk_shares.iter().sum();
            prop_assert!((total - disk_total).abs() < 1e-9);
            if weights.iter().any(|&w| w > 0.0) {
                prop_assert!((total - 1.0).abs() < 1e-9);
            }
            for (node, &share) in node_shares.iter().enumerate() {
                let owned: f64 = disk_shares
                    .iter()
                    .enumerate()
                    .filter(|(d, _)| p.node_of_disk(*d as u64) == node as u64)
                    .map(|(_, &s)| s)
                    .sum();
                prop_assert!((share - owned).abs() < 1e-9);
            }
        }

        /// Every fragment's home node is in range and owns the fact disk.
        #[test]
        fn prop_home_node_owns_the_fact_disk(
            nodes in 1u64..9,
            disks_per_node in 1u64..7,
            fragment in 0u64..100_000,
        ) {
            let p = NodePlacement::shared_disk(nodes, disks_per_node);
            let home = p.home_node(fragment);
            prop_assert!(home < nodes);
            prop_assert!(p.node_of_disk(p.allocation().fact_disk(fragment)) == home);
        }
    }
}
