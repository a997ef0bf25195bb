//! System-level power accounting (§V-C).
//!
//! MC-DLA reuses the accelerators as-is; the added power is the eight
//! memory-nodes on the ring. The paper anchors against NVIDIA's DGX
//! (3,200 W TDP, of which the eight V100s draw 2,400 W) and reports a 7%
//! (8 GB RDIMM nodes) to 31% (128 GB LRDIMM nodes) system-power increase,
//! netting 2.6× to 2.1× perf/W at the headline 2.8× speedup.

use serde::{Deserialize, Serialize};

use crate::config::MemoryNodeConfig;
use crate::dimm::DimmKind;

/// DGX-1V system TDP in watts (§V-C).
pub const DGX_SYSTEM_TDP_WATTS: f64 = 3200.0;

/// Power draw of the eight V100s inside the DGX (75% of system TDP).
pub const DGX_GPU_TDP_WATTS: f64 = 2400.0;

/// Power summary of one system design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemPower {
    /// Baseline system TDP (DGX-class chassis).
    pub base_watts: f64,
    /// Added memory-node power.
    pub memnode_watts: f64,
    /// Number of memory-nodes.
    pub memnode_count: usize,
    /// Added memory capacity in bytes.
    pub added_capacity_bytes: u64,
}

impl SystemPower {
    /// An MC-DLA system with `count` memory-nodes of the given
    /// configuration.
    pub fn mc_dla(config: &MemoryNodeConfig, count: usize) -> Self {
        SystemPower {
            base_watts: DGX_SYSTEM_TDP_WATTS,
            memnode_watts: config.tdp_watts() * count as f64,
            memnode_count: count,
            added_capacity_bytes: config.capacity_bytes() * count as u64,
        }
    }

    /// Total system power.
    pub fn total_watts(&self) -> f64 {
        self.base_watts + self.memnode_watts
    }

    /// Fractional increase over the DC-DLA baseline (0.07 for 8 GB RDIMM
    /// nodes, 0.31 for 128 GB LRDIMM nodes).
    pub fn overhead_fraction(&self) -> f64 {
        self.memnode_watts / self.base_watts
    }

    /// Performance-per-watt ratio vs the DC-DLA baseline, given a speedup
    /// over DC-DLA: `speedup / (1 + overhead)`.
    pub fn perf_per_watt_gain(&self, speedup: f64) -> f64 {
        speedup / (1.0 + self.overhead_fraction())
    }
}

/// The §V-C headline: perf/W gains for the power-limited and the
/// capacity-optimized memory-node choices at the paper's 2.8× speedup.
pub fn paper_perf_per_watt_range(speedup: f64) -> (f64, f64) {
    let rdimm8 = SystemPower::mc_dla(&MemoryNodeConfig::with_dimm(DimmKind::Rdimm8), 8);
    let lrdimm128 = SystemPower::mc_dla(&MemoryNodeConfig::with_dimm(DimmKind::Lrdimm128), 8);
    (
        lrdimm128.perf_per_watt_gain(speedup),
        rdimm8.perf_per_watt_gain(speedup),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdimm8_overhead_is_7_percent() {
        // §V-C: 29 W x 8 = 232 W, a 7% increase over the 3,200 W DGX.
        let p = SystemPower::mc_dla(&MemoryNodeConfig::with_dimm(DimmKind::Rdimm8), 8);
        assert!((p.memnode_watts - 232.0).abs() < 1e-9);
        assert!((p.overhead_fraction() - 0.0725).abs() < 0.001);
    }

    #[test]
    fn lrdimm128_overhead_is_31_percent() {
        // §V-C: 127 W x 8 = 1,016 W, a 31% increase, adding 10.4 TB* of
        // memory (*8 x 1.28 TB = 10.24 TB decimal).
        let p = SystemPower::mc_dla(&MemoryNodeConfig::with_dimm(DimmKind::Lrdimm128), 8);
        assert!((p.memnode_watts - 1016.0).abs() < 1e-9);
        assert!((p.overhead_fraction() - 0.3175).abs() < 0.001);
        assert_eq!(p.added_capacity_bytes, 8 * 1_280_000_000_000);
    }

    #[test]
    fn perf_per_watt_matches_section_5c() {
        // §V-C: (2.8/1.31) = 2.1x to (2.8/1.07) = 2.6x.
        let (lo, hi) = paper_perf_per_watt_range(2.8);
        assert!((lo - 2.8 / 1.3175).abs() < 0.01, "{lo}");
        assert!((hi - 2.8 / 1.0725).abs() < 0.01, "{hi}");
        assert!(lo > 2.0 && lo < 2.2);
        assert!(hi > 2.5 && hi < 2.7);
    }

    #[test]
    fn dc_dla_has_no_overhead() {
        // DC-DLA is an MC-DLA system with no memory-nodes.
        let p = SystemPower::mc_dla(&MemoryNodeConfig::paper_baseline(), 0);
        assert_eq!(p.total_watts(), DGX_SYSTEM_TDP_WATTS);
        assert_eq!(p.overhead_fraction(), 0.0);
        assert_eq!(p.perf_per_watt_gain(1.0), 1.0);
    }
}
