//! Simulation parameters (Table 4) and hardware grids (Table 5).

use storage::DiskParameters;

/// CPU instruction costs of the major query-processing steps (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstructionCosts {
    /// Initiate / plan a query (coordinator).
    pub initiate_query: u64,
    /// Terminate a query (coordinator).
    pub terminate_query: u64,
    /// Initiate / plan a subquery (processing node).
    pub initiate_subquery: u64,
    /// Terminate a subquery (processing node).
    pub terminate_subquery: u64,
    /// Read one page from disk into the buffer.
    pub read_page: u64,
    /// Process one bitmap page (scan for hit bits).
    pub process_bitmap_page: u64,
    /// Extract one fact-table row.
    pub extract_row: u64,
    /// Aggregate one fact-table row.
    pub aggregate_row: u64,
    /// Fixed cost of sending a message (plus one instruction per byte).
    pub send_message: u64,
    /// Fixed cost of receiving a message (plus one instruction per byte).
    pub receive_message: u64,
}

impl Default for InstructionCosts {
    fn default() -> Self {
        InstructionCosts {
            initiate_query: 50_000,
            terminate_query: 10_000,
            initiate_subquery: 10_000,
            terminate_subquery: 10_000,
            read_page: 3_000,
            process_bitmap_page: 1_500,
            extract_row: 100,
            aggregate_row: 100,
            send_message: 1_000,
            receive_message: 1_000,
        }
    }
}

/// The full simulation configuration (Table 4 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of disks `d`.
    pub disks: u64,
    /// Number of processing nodes `p`.
    pub nodes: usize,
    /// CPU speed in MIPS.
    pub cpu_mips: f64,
    /// Maximum concurrent subqueries per node `t`.  The coordinator node
    /// counts its coordination work as one task and therefore only runs
    /// `t - 1` subqueries (§5).
    pub subqueries_per_node: usize,
    /// Disk service-time parameters.
    pub disk: DiskParameters,
    /// Instruction costs.
    pub instructions: InstructionCosts,
    /// Page size in bytes.
    pub page_size: u64,
    /// Fact-table buffer size in pages.
    pub fact_buffer_pages: usize,
    /// Bitmap buffer size in pages.
    pub bitmap_buffer_pages: usize,
    /// Prefetch size on fact fragments, in pages.
    pub fact_prefetch_pages: u64,
    /// Prefetch size on bitmap fragments, in pages.
    pub bitmap_prefetch_pages: u64,
    /// Network connection speed in bit/s.
    pub network_bits_per_sec: f64,
    /// Small (control) message size in bytes.
    pub small_message_bytes: u64,
    /// Whether the bitmap fragments of a subquery are read in parallel from
    /// their staggered disks (Figure 5's "parallel I/O") or one after the
    /// other ("non-parallel I/O").
    pub parallel_bitmap_io: bool,
    /// Whether the LRU buffer pools are consulted before issuing disk I/O.
    pub use_buffer: bool,
    /// Master random seed (coordinator selection, query parameters).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            disks: 100,
            nodes: 20,
            cpu_mips: 50.0,
            subqueries_per_node: 5,
            disk: DiskParameters::default(),
            instructions: InstructionCosts::default(),
            page_size: 4 * 1024,
            fact_buffer_pages: 1_000,
            bitmap_buffer_pages: 5_000,
            fact_prefetch_pages: 8,
            bitmap_prefetch_pages: 5,
            network_bits_per_sec: 100e6,
            small_message_bytes: 128,
            parallel_bitmap_io: true,
            use_buffer: true,
            seed: 42,
        }
    }
}

impl SimConfig {
    /// Time (ms) for a CPU burst of `instructions` instructions.
    #[must_use]
    pub fn cpu_ms(&self, instructions: u64) -> f64 {
        instructions as f64 / (self.cpu_mips * 1_000.0)
    }

    /// Network transfer delay (ms) for a message of `bytes` bytes.
    #[must_use]
    pub fn network_ms(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / self.network_bits_per_sec * 1_000.0
    }

    /// CPU cost (instructions) of sending a message of `bytes` bytes
    /// (Table 4: `1,000 + #B`).
    #[must_use]
    pub fn send_instructions(&self, bytes: u64) -> u64 {
        self.instructions.send_message + bytes
    }

    /// CPU cost (instructions) of receiving a message of `bytes` bytes.
    #[must_use]
    pub fn receive_instructions(&self, bytes: u64) -> u64 {
        self.instructions.receive_message + bytes
    }

    /// The hardware grid of the speed-up experiments (Table 5): for each
    /// number of disks `d ∈ {20, 60, 100}` the processor counts
    /// `p = d/20, d/10, d/5, d/4, d/2`.
    #[must_use]
    pub fn speedup_grid() -> Vec<(u64, usize)> {
        let mut grid = Vec::new();
        for d in [20u64, 60, 100] {
            for divisor in [20u64, 10, 5, 4, 2] {
                let p = (d / divisor).max(1) as usize;
                grid.push((d, p));
            }
        }
        grid
    }

    /// Derives a configuration for one point of the speed-up grid, keeping
    /// all other parameters at their defaults and using the paper's
    /// `t = d / p` rule for the number of subqueries per node.
    #[must_use]
    pub fn for_speedup_point(disks: u64, nodes: usize) -> Self {
        SimConfig {
            disks,
            nodes,
            subqueries_per_node: ((disks as usize) / nodes.max(1)).max(1),
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_4_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.disks, 100);
        assert_eq!(c.nodes, 20);
        assert_eq!(c.cpu_mips, 50.0);
        assert_eq!(c.page_size, 4_096);
        assert_eq!(c.fact_buffer_pages, 1_000);
        assert_eq!(c.bitmap_buffer_pages, 5_000);
        assert_eq!(c.fact_prefetch_pages, 8);
        assert_eq!(c.bitmap_prefetch_pages, 5);
        assert_eq!(c.instructions.initiate_query, 50_000);
        assert_eq!(c.instructions.read_page, 3_000);
        assert_eq!(c.instructions.process_bitmap_page, 1_500);
        assert_eq!(c.disk.avg_seek_ms, 10.0);
        assert_eq!(c.disk.settle_controller_ms, 3.0);
        assert_eq!(c.disk.per_page_ms, 1.0);
    }

    #[test]
    fn derived_times() {
        let c = SimConfig::default();
        // 50,000 instructions at 50 MIPS = 1 ms.
        assert!((c.cpu_ms(50_000) - 1.0).abs() < 1e-12);
        // A 4 KB page over 100 Mbit/s ≈ 0.33 ms.
        assert!((c.network_ms(4_096) - 0.327_68).abs() < 1e-3);
        // Small message: ~0.01 ms.
        assert!(c.network_ms(128) < 0.02);
        assert_eq!(c.send_instructions(128), 1_128);
        assert_eq!(c.receive_instructions(4_096), 5_096);
    }

    #[test]
    fn speedup_grid_matches_table_5() {
        let grid = SimConfig::speedup_grid();
        assert_eq!(grid.len(), 15);
        assert!(grid.contains(&(20, 1)));
        assert!(grid.contains(&(20, 10)));
        assert!(grid.contains(&(60, 3)));
        assert!(grid.contains(&(60, 30)));
        assert!(grid.contains(&(100, 5)));
        assert!(grid.contains(&(100, 50)));
        // Processor counts range from 1 to 50 as in the paper.
        assert_eq!(grid.iter().map(|&(_, p)| p).min(), Some(1));
        assert_eq!(grid.iter().map(|&(_, p)| p).max(), Some(50));
    }

    #[test]
    fn speedup_point_uses_t_equals_d_over_p() {
        let c = SimConfig::for_speedup_point(100, 20);
        assert_eq!(c.subqueries_per_node, 5);
        let c = SimConfig::for_speedup_point(20, 1);
        assert_eq!(c.subqueries_per_node, 20);
        let c = SimConfig::for_speedup_point(60, 30);
        assert_eq!(c.subqueries_per_node, 2);
    }
}
