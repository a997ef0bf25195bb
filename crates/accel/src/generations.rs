//! Historical accelerator generations for the Figure 2 motivation study.
//!
//! Figure 2 runs the four CNNs on five successive accelerator generations
//! (Kepler, Maxwell, Pascal, Volta, TPUv2) against a *fixed* PCIe gen3 host
//! interface, showing execution time dropping 20x–34x while the
//! memory-virtualization overhead percentage climbs.
//!
//! The authors' per-generation calibration data is not public, so each
//! generation is characterized by a **sustained** training MAC throughput
//! and memory bandwidth derived from public specifications (fp32 for
//! Kepler/Maxwell, fp16 for Pascal, tensor cores for Volta, MXU for TPUv2).
//! Only the *ratios* matter for reproducing the figure's shape.

use std::fmt;

use serde::Serialize;

use crate::config::DeviceConfig;

/// One of Figure 2's five accelerator generations.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum DeviceGeneration {
    /// NVIDIA Kepler (K40-class), fp32.
    Kepler,
    /// NVIDIA Maxwell (M40-class), fp32.
    Maxwell,
    /// NVIDIA Pascal (P100-class), fp16.
    Pascal,
    /// NVIDIA Volta (V100-class), tensor cores.
    Volta,
    /// Google TPUv2, MXU.
    TpuV2,
}

impl DeviceGeneration {
    /// All generations in Figure 2's left-to-right order.
    pub const ALL: [DeviceGeneration; 5] = [
        DeviceGeneration::Kepler,
        DeviceGeneration::Maxwell,
        DeviceGeneration::Pascal,
        DeviceGeneration::Volta,
        DeviceGeneration::TpuV2,
    ];

    /// The wire (serde) name — the variant identifier the derived
    /// `Serialize` emits.
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            DeviceGeneration::Kepler => "Kepler",
            DeviceGeneration::Maxwell => "Maxwell",
            DeviceGeneration::Pascal => "Pascal",
            DeviceGeneration::Volta => "Volta",
            DeviceGeneration::TpuV2 => "TpuV2",
        }
    }

    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DeviceGeneration::Kepler => "Kepler",
            DeviceGeneration::Maxwell => "Maxwell",
            DeviceGeneration::Pascal => "Pascal",
            DeviceGeneration::Volta => "Volta",
            DeviceGeneration::TpuV2 => "TPUv2",
        }
    }

    /// Sustained training throughput in tera-MACs per second.
    pub(crate) fn sustained_tmacs(self) -> f64 {
        match self {
            DeviceGeneration::Kepler => 2.1,  // K40 4.3 TFLOPS fp32
            DeviceGeneration::Maxwell => 3.4, // M40 6.8 TFLOPS fp32
            DeviceGeneration::Pascal => 10.6, // P100 21.2 TFLOPS fp16
            DeviceGeneration::Volta => 56.0,  // V100 tensor cores, sustained
            DeviceGeneration::TpuV2 => 64.0,  // TPUv2 MXU, sustained
        }
    }

    /// Device memory bandwidth in GB/s.
    pub(crate) fn memory_bandwidth_gbs(self) -> f64 {
        match self {
            DeviceGeneration::Kepler => 288.0,
            DeviceGeneration::Maxwell => 288.0,
            DeviceGeneration::Pascal => 732.0,
            DeviceGeneration::Volta => 900.0,
            DeviceGeneration::TpuV2 => 2400.0,
        }
    }

    /// Device memory capacity in bytes (M40's 12 GB vs V100's 16 GB, as the
    /// paper contrasts in §III-B).
    pub(crate) fn memory_capacity_bytes(self) -> u64 {
        match self {
            DeviceGeneration::Kepler | DeviceGeneration::Maxwell => 12 * (1 << 30),
            _ => 16 * (1 << 30),
        }
    }

    /// Builds the effective [`DeviceConfig`] for this generation. The PE
    /// array is expressed as `tmacs x 1000` single-MAC PEs at 1 GHz
    /// (= `tmacs x 1e12` MACs/s); only aggregate throughput matters to the
    /// roofline model.
    pub fn device_config(self) -> DeviceConfig {
        DeviceConfig {
            name: self.name().into(),
            pe_count: (self.sustained_tmacs() * 1000.0).round() as u64,
            macs_per_pe: 1,
            frequency_ghz: 1.0,
            memory_bandwidth_gbs: self.memory_bandwidth_gbs(),
            memory_capacity_bytes: self.memory_capacity_bytes(),
            ..DeviceConfig::paper_baseline()
        }
    }
}

impl fmt::Display for DeviceGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Hand-written (not derived) so wire payloads may use either the wire
// name (`TpuV2`) or the display label (`TPUv2`), in any case, and an
// unknown name answers with the full accepted list.
impl serde::Deserialize for DeviceGeneration {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::expected("string", "DeviceGeneration"))?;
        DeviceGeneration::ALL
            .iter()
            .copied()
            .find(|g| s.eq_ignore_ascii_case(g.wire_name()) || s.eq_ignore_ascii_case(g.name()))
            .ok_or_else(|| {
                let accepted: Vec<&str> = DeviceGeneration::ALL
                    .iter()
                    .map(|g| g.wire_name())
                    .collect();
                serde::Error::custom(format!(
                    "unknown DeviceGeneration `{s}` (accepted, case-insensitive: {})",
                    accepted.join(", ")
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_monotonically_increasing() {
        let t: Vec<f64> = DeviceGeneration::ALL
            .iter()
            .map(|g| g.sustained_tmacs())
            .collect();
        assert!(t.windows(2).all(|w| w[1] > w[0]), "{t:?}");
    }

    #[test]
    fn kepler_to_tpuv2_is_20x_to_34x() {
        // Figure 2's headline: execution time reduced by 20x-34x over five
        // years. Pure compute ratio must land inside (or very near) that
        // band so workload mixes of compute/memory-bound layers land within.
        let ratio =
            DeviceGeneration::TpuV2.sustained_tmacs() / DeviceGeneration::Kepler.sustained_tmacs();
        assert!(
            (20.0..=34.0).contains(&ratio),
            "compute scaling {ratio} outside Fig. 2's 20x-34x"
        );
    }

    #[test]
    fn device_configs_reflect_throughput() {
        for g in DeviceGeneration::ALL {
            let c = g.device_config();
            assert!(c.validate().is_ok());
            let peak_tmacs = c.peak_macs_per_sec() as f64 / 1e12;
            assert!(
                (peak_tmacs - g.sustained_tmacs()).abs() < 1e-3,
                "{g}: {peak_tmacs} vs {}",
                g.sustained_tmacs()
            );
        }
    }

    #[test]
    fn maxwell_has_12gb() {
        assert_eq!(
            DeviceGeneration::Maxwell.memory_capacity_bytes(),
            12 * (1u64 << 30)
        );
        assert_eq!(
            DeviceGeneration::Volta.memory_capacity_bytes(),
            16 * (1u64 << 30)
        );
    }
}
