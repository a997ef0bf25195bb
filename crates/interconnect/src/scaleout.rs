//! Scale-out device-side interconnects (§VI, Fig. 15).
//!
//! The paper's future-work direction: NVSwitch-class, NVLINK-compatible
//! switches let system vendors scale the device-side interconnect beyond
//! one backplane — "tightly integrating thousands of GPUs across hundreds
//! of system nodes". This module builds such a switched plane: every
//! device-node and memory-node hangs off a crossbar with N links each, and
//! the collective library casts the plane into rings that traverse the
//! switch (two hops per adjacent-participant step).

use serde::{Deserialize, Serialize};

use crate::graph::{NodeId, NodeKind, Topology};
use crate::ring::RingShape;

/// A switched scale-out plane of device- and memory-nodes (Fig. 15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleOutPlane {
    topology: Topology,
    devices: Vec<NodeId>,
    memory_nodes: Vec<NodeId>,
    switch: NodeId,
    links_per_node: usize,
    link_bandwidth_gbs: f64,
}

impl ScaleOutPlane {
    /// Builds a plane of `devices` device-nodes and `memory_nodes`
    /// memory-nodes around one logical switch, each node attaching with
    /// `links_per_node` duplex links of `link_bandwidth_gbs` (Fig. 15 uses
    /// N = 3 per node).
    ///
    /// # Panics
    ///
    /// Panics if `devices` or `links_per_node` is zero, or the bandwidth is
    /// not positive.
    pub fn new(
        devices: usize,
        memory_nodes: usize,
        links_per_node: usize,
        link_bandwidth_gbs: f64,
    ) -> Self {
        assert!(devices > 0, "need at least one device");
        assert!(links_per_node > 0, "nodes need links");
        assert!(link_bandwidth_gbs > 0.0, "bandwidth must be positive");
        let mut topology = Topology::new();
        let switch = topology.add_node(NodeKind::Switch, "nvswitch");
        let device_ids: Vec<NodeId> = (0..devices)
            .map(|i| topology.add_node(NodeKind::Device, format!("D{i}")))
            .collect();
        let memory_ids: Vec<NodeId> = (0..memory_nodes)
            .map(|i| topology.add_node(NodeKind::Memory, format!("M{i}")))
            .collect();
        for &n in device_ids.iter().chain(&memory_ids) {
            for _ in 0..links_per_node {
                topology.add_duplex_link(n, switch, link_bandwidth_gbs);
            }
        }
        ScaleOutPlane {
            topology,
            devices: device_ids,
            memory_nodes: memory_ids,
            switch,
            links_per_node,
            link_bandwidth_gbs,
        }
    }

    /// The underlying graph.
    #[cfg(test)]
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Device-nodes on the plane.
    pub fn devices(&self) -> &[NodeId] {
        &self.devices
    }

    /// Memory-nodes on the plane.
    pub fn memory_nodes(&self) -> &[NodeId] {
        &self.memory_nodes
    }

    /// The switch node.
    #[cfg(test)]
    pub(crate) fn switch(&self) -> NodeId {
        self.switch
    }

    /// Ring shapes the collective library casts onto the plane: one ring
    /// per node link, each step crossing two links (node → switch → node).
    pub fn ring_shapes(&self) -> Vec<RingShape> {
        vec![
            RingShape {
                participants: self.devices.len(),
                hops: 2 * self.devices.len(),
            };
            self.links_per_node
        ]
    }

    /// Per-device virtualization bandwidth to the memory-node pool in GB/s:
    /// all links can reach any memory-node through the switch, bounded by
    /// the pool's aggregate link bandwidth divided among devices.
    #[cfg(test)]
    pub(crate) fn virt_bandwidth_gbs(&self) -> f64 {
        if self.memory_nodes.is_empty() {
            return 0.0;
        }
        let device_side = self.links_per_node as f64 * self.link_bandwidth_gbs;
        let pool_side =
            self.memory_nodes.len() as f64 * self.links_per_node as f64 * self.link_bandwidth_gbs
                / self.devices.len() as f64;
        device_side.min(pool_side)
    }

    /// Bisection bandwidth of the plane in GB/s (all traffic crosses the
    /// switch; the bisection is half the devices' aggregate attachment).
    pub fn bisection_bandwidth_gbs(&self) -> f64 {
        self.devices.len() as f64 / 2.0 * self.links_per_node as f64 * self.link_bandwidth_gbs
    }

    /// Links each node attaches to the switch with.
    pub fn links_per_node(&self) -> usize {
        self.links_per_node
    }

    /// Per-direction bandwidth of one attachment link in GB/s.
    pub fn link_bandwidth_gbs(&self) -> f64 {
        self.link_bandwidth_gbs
    }

    /// Per-device, per-ring injection bandwidth (GB/s, one direction) the
    /// plane can sustain when collectives are striped over `rings` rings.
    ///
    /// Every ring step crosses the switch (node → switch → node), so each
    /// injected byte consumes one up-crossing and one down-crossing of the
    /// plane's bisection: aggregate injection across all devices and rings
    /// is bounded by `2 x bisection`, and no single link can carry more
    /// than its own bandwidth. With `rings == links_per_node` (the Fig. 15
    /// configuration) this is exactly the link bandwidth — the switched
    /// plane is non-blocking for its own ring set — but the bound is what
    /// keeps over-striped configurations physically sane.
    pub fn collective_ring_share_gbs(&self, rings: usize) -> f64 {
        if rings == 0 || self.devices.is_empty() {
            return 0.0;
        }
        let fair = 2.0 * self.bisection_bandwidth_gbs() / (self.devices.len() * rings) as f64;
        fair.min(self.link_bandwidth_gbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_plane_shape() {
        // Fig. 15: 8 nodes per system node, N = 3 links each.
        let plane = ScaleOutPlane::new(8, 8, 3, 25.0);
        assert_eq!(plane.devices().len(), 8);
        assert_eq!(plane.memory_nodes().len(), 8);
        assert_eq!(plane.ring_shapes().len(), 3);
        for s in plane.ring_shapes() {
            assert_eq!(s.participants, 8);
            assert_eq!(s.hops, 16);
        }
        // Every node terminates exactly N duplex links at the switch.
        for &d in plane.devices() {
            assert_eq!(plane.topology().duplex_degree(d), 3);
        }
        assert_eq!(plane.topology().duplex_degree(plane.switch()), 48);
    }

    #[test]
    fn balanced_pool_gives_full_device_bandwidth() {
        let plane = ScaleOutPlane::new(16, 16, 3, 25.0);
        assert_eq!(plane.virt_bandwidth_gbs(), 75.0);
        // Undersized pool throttles every device.
        let starved = ScaleOutPlane::new(16, 4, 3, 25.0);
        assert!((starved.virt_bandwidth_gbs() - 75.0 * 4.0 / 16.0).abs() < 1e-9);
        // No pool, no virtualization.
        assert_eq!(ScaleOutPlane::new(8, 0, 3, 25.0).virt_bandwidth_gbs(), 0.0);
    }

    #[test]
    fn bisection_scales_with_devices() {
        let small = ScaleOutPlane::new(8, 8, 3, 25.0);
        let large = ScaleOutPlane::new(64, 64, 3, 25.0);
        assert_eq!(small.bisection_bandwidth_gbs(), 300.0);
        assert_eq!(large.bisection_bandwidth_gbs(), 2400.0);
    }

    #[test]
    fn collective_share_is_link_bound_at_matched_striping() {
        let plane = ScaleOutPlane::new(16, 16, 3, 25.0);
        // One ring per link: the plane is non-blocking, full link rate.
        assert_eq!(plane.collective_ring_share_gbs(3), 25.0);
        // Over-striping shares the bisection: 6 rings halve the rate.
        assert_eq!(plane.collective_ring_share_gbs(6), 12.5);
        assert_eq!(plane.collective_ring_share_gbs(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_plane_panics() {
        let _ = ScaleOutPlane::new(0, 8, 3, 25.0);
    }
}
