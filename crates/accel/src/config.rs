//! Device-node configuration (Table II).

use serde::{Deserialize, Serialize};

/// Configuration of one accelerator device-node.
///
/// Field defaults reproduce the paper's Table II: a spatial array of 1024
/// processing elements with 125 MAC operators each at 1 GHz, 32 KB
/// double-buffered SRAM per PE, 900 GB/s of on-package HBM at 100 cycles
/// latency, and six 25 GB/s high-bandwidth links.
///
/// # Examples
///
/// ```
/// use mcdla_accel::DeviceConfig;
///
/// let dev = DeviceConfig::paper_baseline();
/// assert_eq!(dev.pe_count, 1024);
/// // 1024 PEs x 125 MACs x 1 GHz = 128 TMAC/s peak.
/// assert_eq!(dev.pe_count * dev.macs_per_pe, 128_000);
/// assert_eq!(dev.frequency_ghz, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Marketing-style name used in reports.
    pub name: String,
    /// Number of processing elements in the spatial array.
    pub pe_count: u64,
    /// MAC operators per PE.
    pub macs_per_pe: u64,
    /// PE operating frequency in GHz.
    pub frequency_ghz: f64,
    /// Local SRAM buffer per PE in bytes (double-buffered to overlap compute
    /// with data fetches).
    pub sram_per_pe_bytes: u64,
    /// On-package (HBM) memory bandwidth in GB/s.
    pub memory_bandwidth_gbs: f64,
    /// Memory access latency in PE cycles.
    pub memory_latency_cycles: u64,
    /// Device-local memory capacity in bytes (not part of Table II; defaults
    /// to a Volta-class 16 GiB).
    pub memory_capacity_bytes: u64,
    /// Number of high-bandwidth links (Table II's N).
    pub link_count: usize,
    /// Uni-directional bandwidth per high-bandwidth link in GB/s (Table
    /// II's B).
    pub link_bandwidth_gbs: f64,
    /// Sustained fraction of peak MAC throughput achieved on large GEMMs
    /// (dataflow/mapping losses). 1.0 models the idealized array.
    pub sustained_efficiency: f64,
}

impl DeviceConfig {
    /// The Table II baseline device-node.
    pub fn paper_baseline() -> Self {
        DeviceConfig {
            name: "paper-baseline".into(),
            pe_count: 1024,
            macs_per_pe: 125,
            frequency_ghz: 1.0,
            sram_per_pe_bytes: 32 * 1024,
            memory_bandwidth_gbs: 900.0,
            memory_latency_cycles: 100,
            memory_capacity_bytes: 16 * (1 << 30),
            link_count: 6,
            link_bandwidth_gbs: 25.0,
            sustained_efficiency: 1.0,
        }
    }

    /// A faster device-node, standing in for the §V-B "faster device-node
    /// configuration such as TPUv2" sensitivity study (~1.8x the baseline
    /// compute with higher-bandwidth memory).
    pub fn tpu_v2_like() -> Self {
        DeviceConfig {
            name: "tpuv2-like".into(),
            pe_count: 1024,
            macs_per_pe: 225,
            frequency_ghz: 1.0,
            memory_bandwidth_gbs: 2400.0,
            ..DeviceConfig::paper_baseline()
        }
    }

    /// A scaled-up node configuration, standing in for the §V-B "DGX-2"
    /// study (2 PFLOPS node compute and 2.4 TB/s of device-side interconnect
    /// bandwidth: per-device compute and link bandwidth both doubled).
    pub fn dgx2_like() -> Self {
        DeviceConfig {
            name: "dgx2-like".into(),
            pe_count: 2048,
            link_bandwidth_gbs: 50.0,
            ..DeviceConfig::paper_baseline()
        }
    }

    /// Peak MAC throughput: `pe_count x macs_per_pe x frequency`.
    pub(crate) fn peak_macs_per_sec(&self) -> u64 {
        (self.pe_count as f64 * self.macs_per_pe as f64 * self.frequency_ghz * 1e9).round() as u64
    }

    /// MAC lanes available per cycle (`pe_count x macs_per_pe`) — the
    /// output-stationary array's parallel width.
    pub(crate) fn mac_lanes(&self) -> u64 {
        self.pe_count * self.macs_per_pe
    }

    /// Memory access latency in seconds.
    pub(crate) fn memory_latency_secs(&self) -> f64 {
        self.memory_latency_cycles as f64 / (self.frequency_ghz * 1e9)
    }

    /// Aggregate uni-directional high-bandwidth link throughput in GB/s
    /// (N x B; 150 GB/s for the Table II baseline).
    #[cfg(test)]
    pub(crate) fn aggregate_link_bandwidth_gbs(&self) -> f64 {
        self.link_count as f64 * self.link_bandwidth_gbs
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.pe_count == 0 || self.macs_per_pe == 0 {
            return Err("PE array must have non-zero dimensions".into());
        }
        if self.frequency_ghz <= 0.0 {
            return Err("frequency must be positive".into());
        }
        if self.memory_bandwidth_gbs <= 0.0 {
            return Err("memory bandwidth must be positive".into());
        }
        if self.link_count == 0 || self.link_bandwidth_gbs <= 0.0 {
            return Err("device must have high-bandwidth links".into());
        }
        if !(self.sustained_efficiency > 0.0 && self.sustained_efficiency <= 1.0) {
            return Err("sustained_efficiency must be in (0, 1]".into());
        }
        Ok(())
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_baseline_values() {
        let d = DeviceConfig::paper_baseline();
        assert_eq!(d.pe_count, 1024);
        assert_eq!(d.macs_per_pe, 125);
        assert_eq!(d.frequency_ghz, 1.0);
        assert_eq!(d.sram_per_pe_bytes, 32 * 1024);
        assert_eq!(d.memory_bandwidth_gbs, 900.0);
        assert_eq!(d.memory_latency_cycles, 100);
        assert_eq!(d.link_count, 6);
        assert_eq!(d.link_bandwidth_gbs, 25.0);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn aggregate_link_bandwidth_is_150() {
        // §III-B: (N/2 rings) x (2 x B) = N x B = 150 GB/s per device.
        let d = DeviceConfig::paper_baseline();
        assert_eq!(d.aggregate_link_bandwidth_gbs(), 150.0);
    }

    #[test]
    fn latency_is_100ns_at_1ghz() {
        let d = DeviceConfig::paper_baseline();
        assert!((d.memory_latency_secs() - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn sensitivity_presets_are_faster() {
        let base = DeviceConfig::paper_baseline();
        assert!(DeviceConfig::tpu_v2_like().peak_macs_per_sec() > base.peak_macs_per_sec());
        let dgx2 = DeviceConfig::dgx2_like();
        assert_eq!(dgx2.peak_macs_per_sec(), 2 * base.peak_macs_per_sec());
        assert_eq!(dgx2.aggregate_link_bandwidth_gbs(), 300.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut d = DeviceConfig::paper_baseline();
        d.pe_count = 0;
        assert!(d.validate().is_err());
        let mut d = DeviceConfig::paper_baseline();
        d.sustained_efficiency = 0.0;
        assert!(d.validate().is_err());
        let mut d = DeviceConfig::paper_baseline();
        d.link_count = 0;
        assert!(d.validate().is_err());
    }
}
