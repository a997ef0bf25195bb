//! Commodity DDR4 DIMM catalog (Table IV).
//!
//! The paper populates memory-nodes with capacity/density-optimized
//! commodity DIMMs, from 8–16 GB registered DIMMs to 32–128 GB load-reduced
//! DIMMs, and estimates power from public Samsung datasheets and Micron's
//! DDR4 system power calculator (§V-C, Table IV).

use std::fmt;

use serde::{Deserialize, Serialize};

/// One DDR4 module option from Table IV (DDR4-2400).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DimmKind {
    /// 8 GB registered DIMM (2.9 W) — the power-limited choice.
    Rdimm8,
    /// 16 GB registered DIMM (6.6 W).
    Rdimm16,
    /// 32 GB load-reduced DIMM (8.7 W).
    Lrdimm32,
    /// 64 GB load-reduced DIMM (10.2 W).
    Lrdimm64,
    /// 128 GB load-reduced DIMM (12.7 W) — the capacity-optimized choice
    /// (1.3 TB per node, best GB/W).
    Lrdimm128,
}

impl DimmKind {
    /// All Table IV rows, smallest first.
    pub const ALL: [DimmKind; 5] = [
        DimmKind::Rdimm8,
        DimmKind::Rdimm16,
        DimmKind::Lrdimm32,
        DimmKind::Lrdimm64,
        DimmKind::Lrdimm128,
    ];

    /// Module capacity in decimal gigabytes.
    pub(crate) fn capacity_gb(self) -> u64 {
        match self {
            DimmKind::Rdimm8 => 8,
            DimmKind::Rdimm16 => 16,
            DimmKind::Lrdimm32 => 32,
            DimmKind::Lrdimm64 => 64,
            DimmKind::Lrdimm128 => 128,
        }
    }

    /// Module TDP in watts (Table IV, "Single DIMM TDP").
    pub fn tdp_watts(self) -> f64 {
        match self {
            DimmKind::Rdimm8 => 2.9,
            DimmKind::Rdimm16 => 6.6,
            DimmKind::Lrdimm32 => 8.7,
            DimmKind::Lrdimm64 => 10.2,
            DimmKind::Lrdimm128 => 12.7,
        }
    }

    /// Table IV display name.
    pub fn name(self) -> &'static str {
        match self {
            DimmKind::Rdimm8 => "8 GB RDIMM",
            DimmKind::Rdimm16 => "16 GB RDIMM",
            DimmKind::Lrdimm32 => "32 GB LRDIMM",
            DimmKind::Lrdimm64 => "64 GB LRDIMM",
            DimmKind::Lrdimm128 => "128 GB LRDIMM",
        }
    }
}

impl fmt::Display for DimmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_values() {
        assert_eq!(DimmKind::Rdimm8.capacity_gb(), 8);
        assert_eq!(DimmKind::Rdimm8.tdp_watts(), 2.9);
        assert_eq!(DimmKind::Lrdimm128.capacity_gb(), 128);
        assert_eq!(DimmKind::Lrdimm128.tdp_watts(), 12.7);
    }

    #[test]
    fn capacity_is_monotonic() {
        let caps: Vec<u64> = DimmKind::ALL.iter().map(|d| d.capacity_gb()).collect();
        assert!(caps.windows(2).all(|w| w[1] > w[0]));
    }
}
