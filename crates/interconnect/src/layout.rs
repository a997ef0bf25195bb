//! Concrete system interconnect layouts (Figs. 5, 7, 8).
//!
//! Five constructors build the device-side interconnects the paper
//! evaluates:
//!
//! | constructor | paper figure | comm rings (hops) | virt channel per device |
//! |---|---|---|---|
//! | [`SystemInterconnect::dgx_cube_mesh`] | Fig. 5 (DC-DLA, DC-DLA(O)) | 8 / 8 / 8 | — (PCIe, modeled host-side) |
//! | [`SystemInterconnect::hc_dla`] | §II-C HC-DLA | 8 | 3 links to host CPU (75 GB/s) |
//! | [`SystemInterconnect::mc_dla_star_a`] | Fig. 7(a) | 8 / 8 / 24 | 2 links to its memory-node (50 GB/s) |
//! | [`SystemInterconnect::mc_dla_star_b`] | Fig. 7(b) (MC-DLA(S)) | 8 / 12 / 20 | 2 links to its memory-node (50 GB/s) |
//! | [`SystemInterconnect::mc_dla_ring`] | Fig. 7(c) (MC-DLA(L)/(B)) | 16 / 16 / 16 | 3 links each to left and right memory-nodes (75/150 GB/s) |
//!
//! The ring orders for the 8-device cube-mesh follow NCCL's casting of the
//! DGX-1V topology. The star variants reproduce Fig. 7(a)/(b) at hop-count
//! fidelity (the exact physical wire routing of the folded designs is not
//! specified by the paper beyond the hop counts).

use serde::{Deserialize, Serialize};

use crate::graph::{LinkId, NodeId, NodeKind, Topology};
use crate::ring::{Ring, RingShape};

/// A ring together with the physical links realizing each hop (one duplex
/// pair per hop; only the forward-direction ids are stored).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingPath {
    /// The cyclic node traversal.
    pub ring: Ring,
    /// `links[i]` carries hop `i` of the lap (empty when the layout is
    /// modeled at hop-count fidelity only).
    pub links: Vec<LinkId>,
}

/// One device's attachment to a backing-store target for memory
/// virtualization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct VirtTarget {
    /// The memory-node or host CPU reached.
    pub node: NodeId,
    /// Device-to-target link lanes (offload direction).
    pub out_links: Vec<LinkId>,
    /// Target-to-device link lanes (prefetch direction).
    pub in_links: Vec<LinkId>,
}

/// All backing-store targets of one device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct VirtAttachment {
    /// The device.
    pub device: NodeId,
    /// Reachable targets; MC-DLA(B) uses both, MC-DLA(L) only the first.
    pub targets: Vec<VirtTarget>,
}

impl VirtAttachment {
    /// Total offload-direction lanes across targets.
    #[cfg(test)]
    pub(crate) fn total_out_lanes(&self) -> usize {
        self.targets.iter().map(|t| t.out_links.len()).sum()
    }
}

/// A fully-assembled device-side interconnect for one system design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemInterconnect {
    name: String,
    topology: Topology,
    devices: Vec<NodeId>,
    memory_nodes: Vec<NodeId>,
    hosts: Vec<NodeId>,
    rings: Vec<RingPath>,
    virt: Vec<VirtAttachment>,
    link_bandwidth_gbs: f64,
}

impl SystemInterconnect {
    /// Layout name (e.g. `"mc-dla-ring"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Device-nodes in index order.
    pub fn devices(&self) -> &[NodeId] {
        &self.devices
    }

    /// Memory-nodes in index order (empty for DC/HC designs).
    pub fn memory_nodes(&self) -> &[NodeId] {
        &self.memory_nodes
    }

    /// Host CPU sockets (HC-DLA only).
    #[cfg(test)]
    pub(crate) fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// The collective-communication rings.
    pub fn rings(&self) -> &[RingPath] {
        &self.rings
    }

    /// Shapes of all rings, for the collective latency model.
    pub fn ring_shapes(&self) -> Vec<RingShape> {
        self.rings
            .iter()
            .map(|r| r.ring.shape(&self.topology))
            .collect()
    }

    /// Per-device virtualization attachments (index-aligned with
    /// [`SystemInterconnect::devices`]); empty for DC designs.
    #[cfg(test)]
    pub(crate) fn virt_attachments(&self) -> &[VirtAttachment] {
        &self.virt
    }

    /// Per-device virtualization bandwidth in GB/s when using the first
    /// `targets` attachments (1 = LOCAL-style single-target, 2 = BW_AWARE
    /// both neighbors). Returns 0.0 for designs without attachments.
    pub fn virt_bandwidth_gbs(&self, targets: usize) -> f64 {
        match self.virt.first() {
            None => 0.0,
            Some(a) => {
                let lanes: usize = a
                    .targets
                    .iter()
                    .take(targets)
                    .map(|t| t.out_links.len())
                    .sum();
                lanes as f64 * self.link_bandwidth_gbs
            }
        }
    }

    /// DC-DLA / DC-DLA(O): the DGX cube-mesh of Fig. 5 cast as three
    /// 8-device rings. No device-side virtualization attachments — DC-DLA
    /// virtualizes over host PCIe.
    pub fn dgx_cube_mesh(link_bandwidth_gbs: f64) -> Self {
        let mut topo = Topology::new();
        let devices: Vec<NodeId> = (0..8)
            .map(|i| topo.add_node(NodeKind::Device, format!("D{i}")))
            .collect();
        // NCCL-style ring casts of the DGX-1V cube-mesh.
        let orders: [[usize; 8]; 3] = [
            [0, 1, 2, 3, 7, 6, 5, 4],
            [0, 2, 6, 4, 5, 7, 3, 1],
            [0, 3, 2, 1, 5, 6, 7, 4],
        ];
        let mut rings = Vec::new();
        for order in orders {
            let seq: Vec<NodeId> = order.iter().map(|&i| devices[i]).collect();
            rings.push(build_ring_links(&mut topo, seq, link_bandwidth_gbs));
        }
        SystemInterconnect {
            name: "dc-dla".into(),
            topology: topo,
            devices,
            memory_nodes: Vec::new(),
            hosts: Vec::new(),
            rings,
            virt: Vec::new(),
            link_bandwidth_gbs,
        }
    }

    /// HC-DLA: half of each device's links (3) connect to its CPU socket
    /// for memory virtualization; the remainder forms a single 8-device
    /// ring (2 links), leaving one link unused (§II-C's "now singular or
    /// duo ring networks").
    pub fn hc_dla(link_bandwidth_gbs: f64) -> Self {
        let mut topo = Topology::new();
        let devices: Vec<NodeId> = (0..8)
            .map(|i| topo.add_node(NodeKind::Device, format!("D{i}")))
            .collect();
        let hosts: Vec<NodeId> = (0..2)
            .map(|i| topo.add_node(NodeKind::HostCpu, format!("CPU{i}")))
            .collect();
        let ring = build_ring_links(&mut topo, devices.clone(), link_bandwidth_gbs);
        let mut virt = Vec::new();
        for (i, &d) in devices.iter().enumerate() {
            let host = hosts[i / 4]; // four devices per socket
            let mut out_links = Vec::new();
            let mut in_links = Vec::new();
            for _ in 0..3 {
                let (o, inn) = topo.add_duplex_link(d, host, link_bandwidth_gbs);
                out_links.push(o);
                in_links.push(inn);
            }
            virt.push(VirtAttachment {
                device: d,
                targets: vec![VirtTarget {
                    node: host,
                    out_links,
                    in_links,
                }],
            });
        }
        SystemInterconnect {
            name: "hc-dla".into(),
            topology: topo,
            devices,
            memory_nodes: Vec::new(),
            hosts,
            rings: vec![ring],
            virt,
            link_bandwidth_gbs,
        }
    }

    /// Fig. 7(a): the black cube-mesh ring rearranged through all 8
    /// memory-nodes (each visited twice, 24 hops) plus two 8-device rings;
    /// each device reaches its designated memory-node over 2 links.
    pub fn mc_dla_star_a(link_bandwidth_gbs: f64) -> Self {
        Self::mc_dla_star("mc-dla-star-a", link_bandwidth_gbs, StarRingPlan::FigureA)
    }

    /// Fig. 7(b), the evaluated MC-DLA(S): memory-nodes folded inward,
    /// rings of 8/12/20 hops; each device reaches its designated
    /// memory-node over 2 links (50 GB/s).
    pub fn mc_dla_star_b(link_bandwidth_gbs: f64) -> Self {
        Self::mc_dla_star("mc-dla-star", link_bandwidth_gbs, StarRingPlan::FigureB)
    }

    fn mc_dla_star(name: &str, link_bandwidth_gbs: f64, plan: StarRingPlan) -> Self {
        let mut topo = Topology::new();
        let devices: Vec<NodeId> = (0..8)
            .map(|i| topo.add_node(NodeKind::Device, format!("D{i}")))
            .collect();
        let memory_nodes: Vec<NodeId> = (0..8)
            .map(|i| topo.add_node(NodeKind::Memory, format!("M{i}")))
            .collect();
        let d = &devices;
        let m = &memory_nodes;
        let ring_seqs: Vec<Vec<NodeId>> = match plan {
            StarRingPlan::FigureA => vec![
                d.to_vec(),
                d.to_vec(),
                // ... M0 -> D0 -> M0 -> M7 -> D7 -> M7 ... (footnote 1):
                // 8 devices + 16 memory visits = 24 hops.
                (0..8).flat_map(|i| [m[i], d[i], m[i]]).collect(),
            ],
            StarRingPlan::FigureB => vec![
                d.to_vec(),
                // 12 hops: four memory-nodes folded into the lap.
                vec![
                    d[0], m[0], d[1], d[2], m[2], d[3], d[4], m[4], d[5], d[6], m[6], d[7],
                ],
                // 20 hops: all eight memory-nodes, four visited twice.
                vec![
                    d[0], m[0], d[1], m[1], d[2], m[2], d[3], m[3], d[4], m[4], d[5], m[5], d[6],
                    m[6], d[7], m[7], m[1], m[3], m[5], m[7],
                ],
            ],
        };
        let rings: Vec<RingPath> = ring_seqs
            .into_iter()
            .map(|seq| RingPath {
                ring: Ring::new(seq),
                links: Vec::new(), // hop-count fidelity; see module docs
            })
            .collect();
        let mut virt = Vec::new();
        for i in 0..8 {
            let mut out_links = Vec::new();
            let mut in_links = Vec::new();
            for _ in 0..2 {
                let (o, inn) =
                    topo.add_duplex_link(devices[i], memory_nodes[i], link_bandwidth_gbs);
                out_links.push(o);
                in_links.push(inn);
            }
            virt.push(VirtAttachment {
                device: devices[i],
                targets: vec![VirtTarget {
                    node: memory_nodes[i],
                    out_links,
                    in_links,
                }],
            });
        }
        SystemInterconnect {
            name: name.into(),
            topology: topo,
            devices,
            memory_nodes,
            hosts: Vec::new(),
            rings,
            virt,
            link_bandwidth_gbs,
        }
    }

    /// Fig. 7(c), the proposed ring-based MC-DLA: three identical 16-node
    /// rings alternating device- and memory-nodes. Each adjacent pair is
    /// joined by three parallel duplex links (one per ring), so a device
    /// reaches its **left** and **right** memory-nodes over 3 links each —
    /// 75 GB/s per side, 150 GB/s with BW_AWARE placement (Fig. 10).
    pub fn mc_dla_ring(link_bandwidth_gbs: f64) -> Self {
        let mut topo = Topology::new();
        let devices: Vec<NodeId> = (0..8)
            .map(|i| topo.add_node(NodeKind::Device, format!("D{i}")))
            .collect();
        let memory_nodes: Vec<NodeId> = (0..8)
            .map(|i| topo.add_node(NodeKind::Memory, format!("M{i}")))
            .collect();
        // D0, M0, D1, M1, ..., D7, M7 and back to D0.
        let seq: Vec<NodeId> = (0..8).flat_map(|i| [devices[i], memory_nodes[i]]).collect();
        let rings: Vec<RingPath> = (0..3)
            .map(|_| build_ring_links(&mut topo, seq.clone(), link_bandwidth_gbs))
            .collect();
        // Virtualization reuses the ring links: device i's right neighbor is
        // M_i (hop 2i of each lap) and left neighbor is M_{i-1 mod 8}
        // (hop 2i-1 ends at D_i; the reverse lane of hop 2i-1... handled by
        // looking up links_between).
        let mut virt = Vec::new();
        for i in 0..8 {
            let right = memory_nodes[i];
            let left = memory_nodes[(i + 7) % 8];
            let mk_target = |topo: &Topology, node: NodeId| VirtTarget {
                node,
                out_links: topo.links_between(devices[i], node),
                in_links: topo.links_between(node, devices[i]),
            };
            virt.push(VirtAttachment {
                device: devices[i],
                targets: vec![mk_target(&topo, right), mk_target(&topo, left)],
            });
        }
        SystemInterconnect {
            name: "mc-dla-ring".into(),
            topology: topo,
            devices,
            memory_nodes,
            hosts: Vec::new(),
            rings,
            virt,
            link_bandwidth_gbs,
        }
    }
}

#[derive(Debug, Copy, Clone)]
enum StarRingPlan {
    FigureA,
    FigureB,
}

/// Adds one duplex link per hop of `seq` and returns the ring with its
/// forward-direction link ids.
fn build_ring_links(topo: &mut Topology, seq: Vec<NodeId>, bw: f64) -> RingPath {
    let n = seq.len();
    let mut links = Vec::with_capacity(n);
    for i in 0..n {
        let (fwd, _rev) = topo.add_duplex_link(seq[i], seq[(i + 1) % n], bw);
        links.push(fwd);
    }
    RingPath {
        ring: Ring::new(seq),
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::check_link_budget;

    const B: f64 = 25.0;

    #[test]
    fn dgx_has_three_balanced_8_hop_rings() {
        let sys = SystemInterconnect::dgx_cube_mesh(B);
        let shapes = sys.ring_shapes();
        assert_eq!(shapes.len(), 3);
        for s in &shapes {
            assert_eq!(s.participants, 8);
            assert_eq!(s.hops, 8);
        }
        // 3 rings x 2 links = exactly the N = 6 budget.
        let rings: Vec<Ring> = sys.rings().iter().map(|r| r.ring.clone()).collect();
        let used = check_link_budget(sys.topology(), &rings, 6).expect("budget");
        assert!(used.iter().all(|&u| u == 6));
        assert!(sys.virt_attachments().is_empty());
        assert_eq!(sys.virt_bandwidth_gbs(2), 0.0);
    }

    #[test]
    fn hc_dla_splits_links_between_host_and_ring() {
        let sys = SystemInterconnect::hc_dla(B);
        assert_eq!(sys.ring_shapes(), vec![RingShape::device_ring(8)]);
        assert_eq!(sys.hosts().len(), 2);
        assert_eq!(sys.virt_attachments().len(), 8);
        // 3 links to the host: 75 GB/s of virtualization bandwidth.
        assert_eq!(sys.virt_bandwidth_gbs(1), 75.0);
        // Devices 0-3 on socket 0, 4-7 on socket 1.
        let a0 = &sys.virt_attachments()[0];
        let a7 = &sys.virt_attachments()[7];
        assert_ne!(a0.targets[0].node, a7.targets[0].node);
        // Device link budget: 2 (ring) + 3 (host) = 5 of 6.
        for &d in sys.devices() {
            assert!(sys.topology().duplex_degree(d) <= 6);
        }
    }

    #[test]
    fn star_a_matches_fig7a_hop_counts() {
        let sys = SystemInterconnect::mc_dla_star_a(B);
        let mut hops: Vec<usize> = sys.ring_shapes().iter().map(|s| s.hops).collect();
        hops.sort_unstable();
        assert_eq!(hops, vec![8, 8, 24]);
        for s in sys.ring_shapes() {
            assert_eq!(s.participants, 8);
        }
        assert_eq!(sys.virt_bandwidth_gbs(1), 50.0);
    }

    #[test]
    fn star_b_matches_fig7b_hop_counts() {
        let sys = SystemInterconnect::mc_dla_star_b(B);
        let mut hops: Vec<usize> = sys.ring_shapes().iter().map(|s| s.hops).collect();
        hops.sort_unstable();
        assert_eq!(hops, vec![8, 12, 20]);
        for s in sys.ring_shapes() {
            assert_eq!(s.participants, 8);
        }
        // 2 dedicated links: 50 GB/s (the paper's Dn<->Mn bandwidth).
        assert_eq!(sys.virt_bandwidth_gbs(1), 50.0);
        assert_eq!(sys.virt_bandwidth_gbs(2), 50.0); // single target only
    }

    #[test]
    fn ring_c_is_balanced_and_bandwidth_aware() {
        let sys = SystemInterconnect::mc_dla_ring(B);
        let shapes = sys.ring_shapes();
        assert_eq!(shapes.len(), 3);
        for s in &shapes {
            assert_eq!(s.participants, 8);
            assert_eq!(s.hops, 16);
            assert_eq!(s.hops_per_step(), 2.0);
        }
        // LOCAL: one side, 3 links = 75 GB/s; BW_AWARE: both sides = 150.
        assert_eq!(sys.virt_bandwidth_gbs(1), 75.0);
        assert_eq!(sys.virt_bandwidth_gbs(2), 150.0);
        // Budget: every node appears in 3 rings = 6 links, and the virt
        // links are the ring links (no extra links).
        let rings: Vec<Ring> = sys.rings().iter().map(|r| r.ring.clone()).collect();
        let used = check_link_budget(sys.topology(), &rings, 6).expect("budget");
        assert!(used.iter().all(|&u| u == 6));
        for n in sys.topology().nodes() {
            assert_eq!(sys.topology().duplex_degree(n.id()), 6);
        }
    }

    #[test]
    fn ring_c_virt_targets_are_left_and_right_neighbors() {
        let sys = SystemInterconnect::mc_dla_ring(B);
        let d1 = &sys.virt_attachments()[1];
        let right = sys.memory_nodes()[1];
        let left = sys.memory_nodes()[0];
        assert_eq!(d1.targets[0].node, right);
        assert_eq!(d1.targets[1].node, left);
        assert_eq!(d1.targets[0].out_links.len(), 3);
        assert_eq!(d1.targets[1].out_links.len(), 3);
        assert_eq!(d1.total_out_lanes(), 6);
    }

    #[test]
    fn every_memory_node_serves_exactly_two_devices_in_ring_c() {
        let sys = SystemInterconnect::mc_dla_ring(B);
        let mut clients = vec![0usize; sys.memory_nodes().len()];
        for a in sys.virt_attachments() {
            for t in &a.targets {
                let idx = sys
                    .memory_nodes()
                    .iter()
                    .position(|&m| m == t.node)
                    .expect("target is a memory node");
                clients[idx] += 1;
            }
        }
        assert!(clients.iter().all(|&c| c == 2), "{clients:?}");
    }
}
