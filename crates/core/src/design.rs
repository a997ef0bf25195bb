//! The six evaluated system design points and their configuration.

use std::fmt;

use mcdla_accel::DeviceConfig;
use mcdla_dnn::DataType;
use mcdla_interconnect::{FabricTopology, ScaleOutPlane};
use mcdla_memnode::MemoryNodeConfig;
use mcdla_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Device-nodes per backplane / system node (the DGX-class building
/// block the paper evaluates). Device counts beyond this scale out
/// across system nodes: memory-centric designs over the Fig. 15 pooled
/// switch plane, host-centric designs over the host interface.
pub const BACKPLANE_DEVICES: usize = 8;

/// The paper-default device count (§IV).
pub const PAPER_DEFAULT_DEVICES: usize = BACKPLANE_DEVICES;

/// The paper-default global mini-batch (§IV).
pub const PAPER_DEFAULT_BATCH: u64 = 512;

/// One of the §V system design points.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum SystemDesign {
    /// Device-centric baseline: DGX-style cube-mesh rings, memory
    /// virtualization over host PCIe.
    DcDla,
    /// Host-centric: half the high-bandwidth links carry virtualization
    /// traffic to an over-provisioned CPU (§IV).
    HcDla,
    /// Memory-centric, star attachment (Fig. 7(b)): 2 dedicated links per
    /// device to its memory-node, unbalanced 8/12/20-hop rings.
    McDlaStar,
    /// Memory-centric ring (Fig. 7(c)) with LOCAL page placement: 3 links
    /// to one neighbor memory-node (75 GB/s).
    McDlaLocal,
    /// Memory-centric ring (Fig. 7(c)) with BW_AWARE placement: all 6
    /// links across both neighbors (150 GB/s) — the proposed design.
    McDlaBwAware,
    /// Oracular DC-DLA with infinite device memory: no virtualization
    /// traffic at all (an unbuildable upper bound).
    DcDlaOracle,
}

impl SystemDesign {
    /// All six design points in the paper's presentation order.
    pub const ALL: [SystemDesign; 6] = [
        SystemDesign::DcDla,
        SystemDesign::HcDla,
        SystemDesign::McDlaStar,
        SystemDesign::McDlaLocal,
        SystemDesign::McDlaBwAware,
        SystemDesign::DcDlaOracle,
    ];

    /// The wire (serde) name of this design — the PascalCase variant
    /// identifier the derived `Serialize` emits.
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            SystemDesign::DcDla => "DcDla",
            SystemDesign::HcDla => "HcDla",
            SystemDesign::McDlaStar => "McDlaStar",
            SystemDesign::McDlaLocal => "McDlaLocal",
            SystemDesign::McDlaBwAware => "McDlaBwAware",
            SystemDesign::DcDlaOracle => "DcDlaOracle",
        }
    }

    /// The paper's label for this design.
    pub fn name(self) -> &'static str {
        match self {
            SystemDesign::DcDla => "DC-DLA",
            SystemDesign::HcDla => "HC-DLA",
            SystemDesign::McDlaStar => "MC-DLA(S)",
            SystemDesign::McDlaLocal => "MC-DLA(L)",
            SystemDesign::McDlaBwAware => "MC-DLA(B)",
            SystemDesign::DcDlaOracle => "DC-DLA(O)",
        }
    }

    /// True for the three memory-centric proposals.
    pub(crate) fn is_memory_centric(self) -> bool {
        matches!(
            self,
            SystemDesign::McDlaStar | SystemDesign::McDlaLocal | SystemDesign::McDlaBwAware
        )
    }

    /// True when the design virtualizes memory at all (the oracle holds
    /// everything in its infinite device memory).
    pub fn virtualizes(self) -> bool {
        !matches!(self, SystemDesign::DcDlaOracle)
    }
}

impl fmt::Display for SystemDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// Hand-written (not derived) so wire payloads may use either the serde
// wire name (`McDlaBwAware`) or the paper label (`MC-DLA(B)`), in any
// case, and an unknown name answers with the full accepted list instead
// of an unguessable one-liner.
impl serde::Deserialize for SystemDesign {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::expected("string", "SystemDesign"))?;
        SystemDesign::ALL
            .iter()
            .copied()
            .find(|d| s.eq_ignore_ascii_case(d.wire_name()) || s.eq_ignore_ascii_case(d.name()))
            .ok_or_else(|| {
                let accepted: Vec<String> = SystemDesign::ALL
                    .iter()
                    .map(|d| format!("{} / {}", d.wire_name(), d.name()))
                    .collect();
                serde::Error::custom(format!(
                    "unknown SystemDesign `{s}` (accepted, case-insensitive: {})",
                    accepted.join(", ")
                ))
            })
    }
}

/// PCIe generation of the host interface (§V-B studies gen4).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PcieGen {
    /// 16 GB/s per x16 endpoint (the paper's baseline).
    #[default]
    Gen3,
    /// 32 GB/s per x16 endpoint (the §V-B sensitivity study).
    Gen4,
}

impl PcieGen {
    /// Per-endpoint x16 bandwidth in GB/s.
    pub(crate) fn x16_gbs(self) -> f64 {
        match self {
            PcieGen::Gen3 => 16.0,
            PcieGen::Gen4 => 32.0,
        }
    }
}

/// Host-side resources shared by the PCIe-attached devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostConfig {
    /// CPU sockets in the node.
    pub sockets: usize,
    /// DRAM bandwidth per socket in GB/s (80 for a high-end Xeon, 120 for
    /// POWER9, 300 for HC-DLA's hypothetical 3-4x over-provisioned CPU).
    pub socket_dram_gbs: f64,
    /// PCIe switches between devices and sockets (DGX-1 has four, each
    /// shared by two devices).
    pub pcie_switches: usize,
    /// Host PCIe generation.
    pub pcie: PcieGen,
}

impl HostConfig {
    /// A dual-socket Xeon host as in the DGX baseline (§II-C: "only"
    /// 80 GB/s per socket).
    pub(crate) fn xeon() -> Self {
        HostConfig {
            sockets: 2,
            socket_dram_gbs: 80.0,
            pcie_switches: 4,
            pcie: PcieGen::Gen3,
        }
    }

    /// HC-DLA's hypothetical host: 300 GB/s per socket, enough to serve
    /// four devices at 75 GB/s each (§IV).
    pub(crate) fn hc_hypothetical() -> Self {
        HostConfig {
            socket_dram_gbs: 300.0,
            ..HostConfig::xeon()
        }
    }
}

/// Full configuration of one simulated system.
///
/// # Examples
///
/// ```
/// use mcdla_core::{SystemConfig, SystemDesign};
///
/// let cfg = SystemConfig::new(SystemDesign::McDlaBwAware);
/// assert_eq!(cfg.devices, 8);
/// assert_eq!(cfg.global_batch, 512);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Which design point.
    pub design: SystemDesign,
    /// Device-node count (the paper evaluates 8; §V-D sweeps 1/2/4/8).
    pub devices: usize,
    /// Device-node configuration (Table II).
    pub device: DeviceConfig,
    /// Memory-node configuration (Table II / Fig. 6).
    pub memory_node: MemoryNodeConfig,
    /// Host-side configuration.
    pub host: HostConfig,
    /// Element precision.
    pub dtype: DataType,
    /// Global mini-batch (§IV: 512).
    pub global_batch: u64,
    /// NCCL-style gradient bucket target (Fig. 9's 8 MB sync size).
    pub sync_bucket_bytes: u64,
    /// Fixed software/DMA-setup latency added to every overlay transfer.
    pub dma_op_latency: SimDuration,
    /// Activation-compression ratio on overlay traffic (1.0 = off; the
    /// §V-B cDMA study uses 2.6 on CNNs).
    pub compression_ratio: f64,
    /// How many layers ahead the DMA engine prefetches during
    /// backpropagation.
    pub prefetch_lookahead: usize,
    /// Fraction of a *blocking* boundary collective that software
    /// pipelining hides behind the dependent layer's compute (chunked
    /// consumption of the all-reduced tensor). 0 = fully serialized,
    /// 1 = fully hidden.
    pub boundary_pipeline_fraction: f64,
    /// Device-memory budget for offloaded-but-in-flight stashes; compute
    /// stalls when exceeded (the vDNN pinned-buffer behavior). `None`
    /// derives it from device capacity minus the resident working set.
    pub pinned_budget_bytes: Option<u64>,
    /// Concrete topology to realize the collective planes on. `None`
    /// (the default) prices collectives with the closed-form analytical
    /// model; `Some(t)` routes them as flow batches over `t` with
    /// max-min fair link sharing (congestion becomes visible).
    pub topology: Option<FabricTopology>,
}

impl SystemConfig {
    /// Paper-default configuration for a design point.
    ///
    /// The device's sustained efficiency is calibrated to 0.75 of the Table
    /// II peak (96 TMAC/s): the authors' per-layer latency calibration is
    /// not public, and this operating point reproduces the paper's headline
    /// speedup ratios (see EXPERIMENTS.md).
    pub fn new(design: SystemDesign) -> Self {
        let mut device = DeviceConfig::paper_baseline();
        device.sustained_efficiency = 0.75;
        let host = match design {
            SystemDesign::HcDla => HostConfig::hc_hypothetical(),
            _ => HostConfig::xeon(),
        };
        SystemConfig {
            design,
            devices: PAPER_DEFAULT_DEVICES,
            device,
            memory_node: MemoryNodeConfig::paper_baseline(),
            host,
            dtype: DataType::F32,
            global_batch: PAPER_DEFAULT_BATCH,
            sync_bucket_bytes: 8 << 20,
            dma_op_latency: SimDuration::from_us(10),
            compression_ratio: 1.0,
            prefetch_lookahead: 4,
            boundary_pipeline_fraction: 0.5,
            pinned_budget_bytes: None,
            topology: None,
        }
    }

    /// Returns the configuration with a different device count (§V-D).
    pub fn with_devices(mut self, devices: usize) -> Self {
        assert!(devices >= 1, "need at least one device");
        self.devices = devices;
        self
    }

    /// Returns the configuration with a different global batch (Fig. 14).
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.global_batch = batch;
        self
    }

    /// Returns the configuration with PCIe gen4 on the host interface
    /// (§V-B).
    pub(crate) fn with_pcie_gen4(mut self) -> Self {
        self.host.pcie = PcieGen::Gen4;
        self
    }

    /// Returns the configuration with a different device-node (§V-B's
    /// TPUv2-like and DGX-2-like studies). The calibration factor is
    /// preserved.
    pub(crate) fn with_device(mut self, mut device: DeviceConfig) -> Self {
        device.sustained_efficiency = self.device.sustained_efficiency;
        self.device = device;
        self
    }

    /// Returns the configuration with cDMA-style activation compression at
    /// the given traffic-reduction ratio (§V-B uses 2.6).
    pub fn with_compression(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0, "compression ratio must be >= 1");
        self.compression_ratio = ratio;
        self
    }

    /// Returns the configuration with collectives routed as flows over a
    /// concrete topology instead of the analytical model.
    pub(crate) fn with_topology(mut self, topology: FabricTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Devices resident in one backplane / system node. Counts beyond
    /// [`BACKPLANE_DEVICES`] scale out across system nodes, each with its
    /// own host, so host-side sharing never spreads thinner than one
    /// node's worth of devices.
    pub(crate) fn backplane_devices(&self) -> usize {
        self.devices.min(BACKPLANE_DEVICES)
    }

    /// Devices sharing one PCIe switch uplink when all are active. The DGX
    /// wires devices to switches in fixed pairs, so any multi-device run
    /// halves the uplink (§V-D's scaling penalty). Scale-out runs replicate
    /// the host per backplane, so sharing is computed per system node.
    pub(crate) fn devices_per_switch(&self) -> usize {
        let node_devices = self.backplane_devices();
        if node_devices < 2 {
            1
        } else {
            node_devices.div_ceil(self.host.pcie_switches).max(2)
        }
    }

    /// Devices drawing on one CPU socket when all are active (per system
    /// node; scale-out runs replicate the host per backplane).
    pub(crate) fn devices_per_socket(&self) -> usize {
        self.backplane_devices().div_ceil(self.host.sockets).max(1)
    }

    /// The Fig. 15 pooled switch plane this configuration scales out on:
    /// memory-centric designs beyond one backplane hang every device-node
    /// and memory-node (one per device) off an NVSwitch-class plane with
    /// half the device's links (`N/2 = 3`) per node. `None` for
    /// single-backplane runs and for designs whose cross-node traffic
    /// rides the host interface instead (DC-DLA, HC-DLA, the oracle).
    ///
    /// The plane is a function of the device count *and* the device
    /// configuration — a scenario's `generation` knob changes the link
    /// specs the plane is built from.
    pub fn scale_out_plane(&self) -> Option<ScaleOutPlane> {
        if self.devices <= BACKPLANE_DEVICES || !self.design.is_memory_centric() {
            return None;
        }
        Some(ScaleOutPlane::new(
            self.devices,
            self.devices,
            (self.device.link_count / 2).max(1),
            self.device.link_bandwidth_gbs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_labels_match_paper() {
        let names: Vec<&str> = SystemDesign::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "DC-DLA",
                "HC-DLA",
                "MC-DLA(S)",
                "MC-DLA(L)",
                "MC-DLA(B)",
                "DC-DLA(O)"
            ]
        );
    }

    #[test]
    fn design_classification() {
        assert!(!SystemDesign::DcDla.is_memory_centric());
        assert!(SystemDesign::McDlaBwAware.is_memory_centric());
        assert!(!SystemDesign::DcDlaOracle.virtualizes());
    }

    #[test]
    fn hc_dla_gets_overprovisioned_host() {
        let hc = SystemConfig::new(SystemDesign::HcDla);
        assert_eq!(hc.host.socket_dram_gbs, 300.0);
        let dc = SystemConfig::new(SystemDesign::DcDla);
        assert_eq!(dc.host.socket_dram_gbs, 80.0);
    }

    #[test]
    fn sharing_arithmetic() {
        let cfg = SystemConfig::new(SystemDesign::DcDla);
        assert_eq!(cfg.devices_per_switch(), 2);
        assert_eq!(cfg.devices_per_socket(), 4);
        let one = cfg.with_devices(1);
        assert_eq!(one.devices_per_switch(), 1);
        assert_eq!(one.devices_per_socket(), 1);
    }

    #[test]
    fn host_sharing_is_per_backplane_at_scale_out() {
        // 64 devices = 8 backplanes of 8, each with its own host: PCIe
        // and socket sharing must not spread thinner than one node's.
        let cfg = SystemConfig::new(SystemDesign::DcDla).with_devices(64);
        assert_eq!(cfg.backplane_devices(), 8);
        assert_eq!(cfg.devices_per_switch(), 2);
        assert_eq!(cfg.devices_per_socket(), 4);
    }

    #[test]
    fn scale_out_plane_selection() {
        // Single backplane: no plane, for any design.
        for d in SystemDesign::ALL {
            assert!(SystemConfig::new(d).scale_out_plane().is_none(), "{d}");
        }
        // Beyond one backplane: memory-centric designs get the pooled
        // fabric; host-routed designs do not.
        let plane = SystemConfig::new(SystemDesign::McDlaBwAware)
            .with_devices(32)
            .scale_out_plane()
            .expect("pooled plane");
        assert_eq!(plane.devices(), 32);
        assert_eq!(plane.memory_nodes(), 32);
        assert_eq!(plane.links_per_node(), 3);
        for d in [
            SystemDesign::DcDla,
            SystemDesign::HcDla,
            SystemDesign::DcDlaOracle,
        ] {
            assert!(
                SystemConfig::new(d)
                    .with_devices(32)
                    .scale_out_plane()
                    .is_none(),
                "{d} scales out over the host, not the pooled fabric"
            );
        }
    }

    #[test]
    fn builders_apply() {
        let cfg = SystemConfig::new(SystemDesign::DcDla)
            .with_batch(128)
            .with_pcie_gen4()
            .with_compression(2.6);
        assert_eq!(cfg.global_batch, 128);
        assert_eq!(cfg.host.pcie, PcieGen::Gen4);
        assert_eq!(cfg.compression_ratio, 2.6);
    }

    #[test]
    fn pcie_gen_bandwidths() {
        assert_eq!(PcieGen::Gen3.x16_gbs(), 16.0);
        assert_eq!(PcieGen::Gen4.x16_gbs(), 32.0);
    }
}
