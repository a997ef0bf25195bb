//! Memory-node architecture configuration (Fig. 6, Table II).
//!
//! A memory-node is a mezzanine board sized like a V100 (14 cm × 8 cm)
//! housing ten DDR4 DIMMs behind a memory controller, a DMA unit, and a
//! protocol engine exposing N high-bandwidth links. The N links are
//! logically partitioned into M groups; each group is exclusively assigned
//! to one client device-node (§III-A).

use serde::{Deserialize, Serialize};

use crate::dimm::DimmKind;

/// Configuration of one memory-node.
///
/// # Examples
///
/// ```
/// use mcdla_memnode::MemoryNodeConfig;
///
/// let node = MemoryNodeConfig::paper_baseline();
/// // Table II: 256 GB/s of DIMM bandwidth behind 6 x 25 GB/s links.
/// assert_eq!(node.memory_bandwidth_gbs, 256.0);
/// assert_eq!(node.link_count, 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryNodeConfig {
    /// DIMM module type populated (Table IV options).
    pub dimm: DimmKind,
    /// Number of DIMMs on the board (ten fit the V100-sized mezzanine).
    pub dimm_count: usize,
    /// Aggregate DIMM bandwidth in GB/s (170 for PC4-17000, 256 for
    /// PC4-25600; Table II uses 256).
    pub memory_bandwidth_gbs: f64,
    /// Memory access latency in nanoseconds (Table II: 100 cycles at 1 GHz).
    pub memory_latency_ns: u64,
    /// High-bandwidth links exposed by the protocol engine (Table II's N).
    pub link_count: usize,
    /// Uni-directional bandwidth per link in GB/s (Table II's B).
    pub link_bandwidth_gbs: f64,
    /// Number of link groups M (M ≤ N); each group serves one client
    /// device exclusively. The ring-based MC-DLA partitions each node in
    /// two (left and right client devices).
    pub link_groups: usize,
}

impl MemoryNodeConfig {
    /// Table II memory-node: ten DIMMs at 256 GB/s, 100 ns, six 25 GB/s
    /// links split into two groups (one per neighbor device).
    pub fn paper_baseline() -> Self {
        MemoryNodeConfig {
            dimm: DimmKind::Lrdimm128,
            dimm_count: 10,
            memory_bandwidth_gbs: 256.0,
            memory_latency_ns: 100,
            link_count: 6,
            link_bandwidth_gbs: 25.0,
            link_groups: 2,
        }
    }

    /// A baseline populated with a specific DIMM option.
    pub fn with_dimm(dimm: DimmKind) -> Self {
        MemoryNodeConfig {
            dimm,
            ..MemoryNodeConfig::paper_baseline()
        }
    }

    /// Total capacity in bytes (decimal GB per Table IV).
    pub fn capacity_bytes(&self) -> u64 {
        self.dimm.capacity_gb() * self.dimm_count as u64 * 1_000_000_000
    }

    /// Board TDP in watts (`dimm TDP × dimm count`, Table IV "Memory-node
    /// TDP").
    pub fn tdp_watts(&self) -> f64 {
        self.dimm.tdp_watts() * self.dimm_count as f64
    }

    /// Capacity efficiency in decimal GB per watt (Table IV's last column).
    pub fn gb_per_watt(&self) -> f64 {
        self.dimm.capacity_gb() as f64 * self.dimm_count as f64 / self.tdp_watts()
    }

    /// Links per group: `(N/M)`, the paper's per-client allocation.
    pub(crate) fn links_per_group(&self) -> usize {
        self.link_count / self.link_groups
    }

    /// Per-client link bandwidth in GB/s: `(N/M) × B` (Fig. 6; 75 GB/s for
    /// the baseline's two groups).
    pub fn group_bandwidth_gbs(&self) -> f64 {
        self.links_per_group() as f64 * self.link_bandwidth_gbs
    }
}

impl Default for MemoryNodeConfig {
    fn default() -> Self {
        MemoryNodeConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = MemoryNodeConfig::paper_baseline();
        assert_eq!(c.memory_bandwidth_gbs, 256.0);
        assert_eq!(c.memory_latency_ns, 100);
        assert_eq!(c.link_count, 6);
        assert_eq!(c.link_bandwidth_gbs, 25.0);
    }

    #[test]
    fn capacity_envelope_matches_section_3a() {
        // §III-A: ten DIMMs give 80 GB (8 GB RDIMM) to 1.3 TB (128 GB
        // LRDIMM) per memory-node.
        let small = MemoryNodeConfig::with_dimm(DimmKind::Rdimm8);
        let large = MemoryNodeConfig::with_dimm(DimmKind::Lrdimm128);
        assert_eq!(small.capacity_bytes(), 80_000_000_000);
        assert_eq!(large.capacity_bytes(), 1_280_000_000_000);
    }

    #[test]
    fn table4_node_tdp_and_gb_per_watt() {
        // (DIMM TDP x 10, GB/W) rows of Table IV: 29 W/2.8, 66/2.4, 87/3.7,
        // 102/6.3, 127/10.1.
        let expect = [
            (DimmKind::Rdimm8, 29.0, 2.8),
            (DimmKind::Rdimm16, 66.0, 2.4),
            (DimmKind::Lrdimm32, 87.0, 3.7),
            (DimmKind::Lrdimm64, 102.0, 6.3),
            (DimmKind::Lrdimm128, 127.0, 10.1),
        ];
        for (dimm, tdp, gbw) in expect {
            let c = MemoryNodeConfig::with_dimm(dimm);
            assert!(
                (c.tdp_watts() - tdp).abs() < 1e-9,
                "{dimm}: {}",
                c.tdp_watts()
            );
            assert!(
                (c.gb_per_watt() - gbw).abs() < 0.05,
                "{dimm}: {:.2} GB/W vs {gbw}",
                c.gb_per_watt()
            );
        }
    }

    #[test]
    fn group_bandwidth_split() {
        let c = MemoryNodeConfig::paper_baseline();
        assert_eq!(c.links_per_group(), 3);
        assert_eq!(c.group_bandwidth_gbs(), 75.0);
        let mut one = MemoryNodeConfig::paper_baseline();
        one.link_groups = 1;
        assert_eq!(one.group_bandwidth_gbs(), 150.0);
    }
}
