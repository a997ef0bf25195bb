//! Effective memory-virtualization data paths per design point.
//!
//! Every overlay transfer traverses a chain of shared resources. Under the
//! symmetric, lock-step workloads of the evaluation (all devices run the
//! same layer schedule), max-min fair sharing reduces to static division:
//! each device's effective bandwidth is the minimum over the path of
//! `capacity / concurrent users`. A test materializes the same path in a
//! `FlowNetwork` and checks the static model against the fluid-flow
//! solver.

use mcdla_sim::{Bandwidth, SimDuration};

use crate::design::{SystemConfig, SystemDesign};

/// One design point's device-to-backing-store path, reduced to effective
/// per-device numbers.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VirtPath {
    /// Effective per-device, per-direction bandwidth under full symmetric
    /// load, in GB/s.
    pub per_device_gbs: f64,
    /// Fixed latency added to each overlay transfer (DMA setup + protocol).
    pub op_latency: SimDuration,
    /// Whether transfers consume host CPU memory bandwidth (Fig. 12).
    pub touches_host: bool,
    /// Peak per-socket CPU DRAM draw when every device on the socket
    /// transfers at once (one direction), in GB/s.
    pub socket_peak_gbs: f64,
}

impl VirtPath {
    /// Effective bandwidth as a [`Bandwidth`].
    pub(crate) fn bandwidth(&self) -> Bandwidth {
        Bandwidth::gb_per_sec(self.per_device_gbs)
    }

    /// Derives the virtualization path for a configuration; `None` for the
    /// oracle (nothing to virtualize).
    pub(crate) fn from_config(cfg: &SystemConfig) -> Option<VirtPath> {
        let op_latency = cfg.dma_op_latency;
        match cfg.design {
            SystemDesign::DcDlaOracle => None,
            SystemDesign::DcDla => {
                // Device x16 -> PCIe switch uplink (shared) -> socket DRAM
                // (shared by all devices on the socket).
                let endpoint = cfg.host.pcie.x16_gbs();
                let switch_share = endpoint / cfg.devices_per_switch() as f64;
                let socket_share = cfg.host.socket_dram_gbs / cfg.devices_per_socket() as f64;
                let eff = endpoint.min(switch_share).min(socket_share);
                Some(VirtPath {
                    per_device_gbs: eff,
                    op_latency,
                    touches_host: true,
                    socket_peak_gbs: (eff * cfg.devices_per_socket() as f64)
                        .min(cfg.host.socket_dram_gbs),
                })
            }
            SystemDesign::HcDla => {
                // Half the high-bandwidth links (N/2 = 3) to the CPU; the
                // hypothetical socket serves all four clients at full rate.
                let links = (cfg.device.link_count / 2) as f64 * cfg.device.link_bandwidth_gbs;
                let socket_share = cfg.host.socket_dram_gbs / cfg.devices_per_socket() as f64;
                let eff = links.min(socket_share);
                Some(VirtPath {
                    per_device_gbs: eff,
                    op_latency,
                    touches_host: true,
                    socket_peak_gbs: (eff * cfg.devices_per_socket() as f64)
                        .min(cfg.host.socket_dram_gbs),
                })
            }
            SystemDesign::McDlaStar => {
                // Two dedicated links to the device's own memory-node.
                let links = 2.0 * cfg.device.link_bandwidth_gbs;
                let dimm = cfg.memory_node.memory_bandwidth_gbs; // single client
                Some(VirtPath {
                    per_device_gbs: links.min(dimm),
                    op_latency,
                    touches_host: false,
                    socket_peak_gbs: 0.0,
                })
            }
            SystemDesign::McDlaLocal => {
                // LOCAL placement: N/2 = 3 links to one neighbor
                // memory-node (Fig. 10: D/(N*B/2)).
                let links = (cfg.device.link_count / 2) as f64 * cfg.device.link_bandwidth_gbs;
                // The whole allocation lives in one node; that node's DIMM
                // bandwidth is available to this single LOCAL client.
                let dimm = cfg.memory_node.memory_bandwidth_gbs;
                Some(VirtPath {
                    per_device_gbs: links.min(dimm),
                    op_latency,
                    touches_host: false,
                    socket_peak_gbs: 0.0,
                })
            }
            SystemDesign::McDlaBwAware => {
                // BW_AWARE: all N links across both neighbors (Fig. 10:
                // D/(N*B)); each neighbor node serves two clients, so the
                // DIMM side offers memory_bandwidth/2 per client per side.
                let side_links = (cfg.device.link_count / 2) as f64 * cfg.device.link_bandwidth_gbs;
                let side_dimm =
                    cfg.memory_node.memory_bandwidth_gbs / cfg.memory_node.link_groups as f64;
                let per_side = side_links.min(side_dimm);
                Some(VirtPath {
                    per_device_gbs: 2.0 * per_side,
                    op_latency,
                    touches_host: false,
                    socket_peak_gbs: 0.0,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdla_sim::{Bytes, ChannelId, FlowNetwork, SimTime};

    /// Materializes one direction of the virtualization path for **all**
    /// devices of `cfg` into a [`FlowNetwork`], returning per-device channel
    /// paths: the reference the static sharing model is checked against.
    fn build_flow_channels(cfg: &SystemConfig, net: &mut FlowNetwork) -> Vec<Vec<ChannelId>> {
        let mut paths = vec![Vec::new(); cfg.devices];
        match cfg.design {
            SystemDesign::DcDlaOracle => {}
            SystemDesign::DcDla => {
                let sockets: Vec<ChannelId> = (0..cfg.host.sockets)
                    .map(|_| net.add_channel(Bandwidth::gb_per_sec(cfg.host.socket_dram_gbs)))
                    .collect();
                let switches: Vec<ChannelId> = (0..cfg.host.pcie_switches)
                    .map(|_| net.add_channel(Bandwidth::gb_per_sec(cfg.host.pcie.x16_gbs())))
                    .collect();
                for (d, path) in paths.iter_mut().enumerate() {
                    let endpoint = net.add_channel(Bandwidth::gb_per_sec(cfg.host.pcie.x16_gbs()));
                    // Fixed pairing: devices 2k and 2k+1 share switch k.
                    let switch = switches[(d / 2) % cfg.host.pcie_switches];
                    let socket = sockets[(d / cfg.devices_per_socket()) % cfg.host.sockets];
                    path.extend([endpoint, switch, socket]);
                }
            }
            SystemDesign::HcDla => {
                let sockets: Vec<ChannelId> = (0..cfg.host.sockets)
                    .map(|_| net.add_channel(Bandwidth::gb_per_sec(cfg.host.socket_dram_gbs)))
                    .collect();
                let link_gbs = (cfg.device.link_count / 2) as f64 * cfg.device.link_bandwidth_gbs;
                for (d, path) in paths.iter_mut().enumerate() {
                    let links = net.add_channel(Bandwidth::gb_per_sec(link_gbs));
                    let socket = sockets[(d / cfg.devices_per_socket()) % cfg.host.sockets];
                    path.extend([links, socket]);
                }
            }
            SystemDesign::McDlaStar | SystemDesign::McDlaLocal | SystemDesign::McDlaBwAware => {
                // Per-device links plus per-memory-node DIMM channels. For
                // the ring designs, node m's DIMM bandwidth is shared by
                // its left/right clients.
                let vp = VirtPath::from_config(cfg).expect("memory-centric path");
                let dimms: Vec<ChannelId> = (0..cfg.devices)
                    .map(|_| {
                        net.add_channel(Bandwidth::gb_per_sec(cfg.memory_node.memory_bandwidth_gbs))
                    })
                    .collect();
                for (d, path) in paths.iter_mut().enumerate() {
                    let links = net.add_channel(Bandwidth::gb_per_sec(vp.per_device_gbs));
                    path.push(links);
                    match cfg.design {
                        SystemDesign::McDlaBwAware => {
                            // Both neighbors carry half the traffic each;
                            // approximate with both DIMM channels on the
                            // path at half weight by using the right node
                            // only when validating (the link channel already
                            // caps at 150 GB/s < 2 x 128 GB/s of DIMM).
                            path.push(dimms[d]);
                        }
                        _ => path.push(dimms[d]),
                    }
                }
            }
        }
        paths
    }

    fn path(design: SystemDesign) -> VirtPath {
        VirtPath::from_config(&SystemConfig::new(design)).expect("path")
    }

    #[test]
    fn oracle_has_no_path() {
        assert!(VirtPath::from_config(&SystemConfig::new(SystemDesign::DcDlaOracle)).is_none());
    }

    #[test]
    fn effective_bandwidths_match_paper() {
        // DC-DLA: 16 GB/s endpoint, halved by switch sharing -> 8 GB/s.
        assert_eq!(path(SystemDesign::DcDla).per_device_gbs, 8.0);
        // HC-DLA: 3 links = 75 GB/s, socket 300/4 = 75 -> 75 GB/s.
        assert_eq!(path(SystemDesign::HcDla).per_device_gbs, 75.0);
        // MC-DLA(S): 2 links = 50 GB/s.
        assert_eq!(path(SystemDesign::McDlaStar).per_device_gbs, 50.0);
        // MC-DLA(L): 3 links = 75 GB/s (Fig. 10 LOCAL).
        assert_eq!(path(SystemDesign::McDlaLocal).per_device_gbs, 75.0);
        // MC-DLA(B): 150 GB/s (Fig. 10 BW_AWARE).
        assert_eq!(path(SystemDesign::McDlaBwAware).per_device_gbs, 150.0);
    }

    #[test]
    fn single_device_dc_gets_full_pcie() {
        let cfg = SystemConfig::new(SystemDesign::DcDla).with_devices(1);
        let p = VirtPath::from_config(&cfg).unwrap();
        assert_eq!(p.per_device_gbs, 16.0);
    }

    #[test]
    fn gen4_doubles_dc_bandwidth() {
        let cfg = SystemConfig::new(SystemDesign::DcDla).with_pcie_gen4();
        let p = VirtPath::from_config(&cfg).unwrap();
        assert_eq!(p.per_device_gbs, 16.0); // 32 / 2-way switch sharing
        let one = SystemConfig::new(SystemDesign::DcDla)
            .with_pcie_gen4()
            .with_devices(1);
        assert_eq!(VirtPath::from_config(&one).unwrap().per_device_gbs, 32.0);
    }

    #[test]
    fn host_exposure_and_socket_peaks() {
        let dc = path(SystemDesign::DcDla);
        assert!(dc.touches_host);
        assert_eq!(dc.socket_peak_gbs, 32.0); // 8 GB/s x 4 devices
        let hc = path(SystemDesign::HcDla);
        assert_eq!(hc.socket_peak_gbs, 300.0); // the §IV worst case
        for d in [
            SystemDesign::McDlaStar,
            SystemDesign::McDlaLocal,
            SystemDesign::McDlaBwAware,
        ] {
            let p = path(d);
            assert!(!p.touches_host);
            assert_eq!(p.socket_peak_gbs, 0.0);
        }
    }

    #[test]
    fn static_model_matches_fluid_solver() {
        // Run 8 symmetric transfers through the full channel graph and
        // check each flow's steady rate equals the static prediction.
        for design in [
            SystemDesign::DcDla,
            SystemDesign::HcDla,
            SystemDesign::McDlaBwAware,
        ] {
            let cfg = SystemConfig::new(design);
            let expect = VirtPath::from_config(&cfg).unwrap().per_device_gbs;
            let mut net = FlowNetwork::new();
            let device_paths = build_flow_channels(&cfg, &mut net);
            let flows: Vec<_> = device_paths
                .iter()
                .map(|p| {
                    net.open_flow(SimTime::ZERO, p, Bytes::from_gb(10))
                        .expect("flow")
                })
                .collect();
            for f in flows {
                let rate = net.flow_rate(f).unwrap().as_gb_per_sec();
                assert!(
                    (rate - expect).abs() < 1e-6,
                    "{design}: fluid {rate} vs static {expect}"
                );
            }
        }
    }
}
