//! Ring networks extracted from a device-side interconnect.
//!
//! Topology-aware collective libraries (NCCL, PowerAI DDL) "cast the
//! underlying system interconnect as multiple ring networks" (§II-C). A
//! [`Ring`] is one such cast: a cyclic traversal of nodes. Rings may visit a
//! node more than once — Fig. 7(a)'s 24-hop ring visits every memory-node
//! twice — so rings record a *sequence* whose length is the hop count.

use serde::{Deserialize, Serialize};

use crate::graph::{NodeId, NodeKind, Topology};

/// One ring network: a cyclic node traversal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ring {
    sequence: Vec<NodeId>,
}

impl Ring {
    /// Creates a ring from the cyclic node sequence (the final hop back to
    /// the first node is implicit).
    ///
    /// # Panics
    ///
    /// Panics for sequences shorter than 2 nodes.
    pub fn new(sequence: Vec<NodeId>) -> Self {
        assert!(sequence.len() >= 2, "a ring needs at least two nodes");
        Ring { sequence }
    }

    /// The cyclic traversal order.
    pub(crate) fn sequence(&self) -> &[NodeId] {
        &self.sequence
    }

    /// Hop count: number of links traversed per lap (= sequence length).
    pub(crate) fn hop_count(&self) -> usize {
        self.sequence.len()
    }

    /// Number of *distinct* participant devices in the ring, given the
    /// topology (memory-nodes forward traffic but do not inject collective
    /// messages — footnote 2 of the paper).
    pub(crate) fn participant_count(&self, topo: &Topology) -> usize {
        let mut devs: Vec<NodeId> = self
            .sequence
            .iter()
            .copied()
            .filter(|n| topo.node(*n).kind() == NodeKind::Device)
            .collect();
        devs.sort_unstable();
        devs.dedup();
        devs.len()
    }

    /// The consecutive `(src, dst)` pairs of one lap, including the closing
    /// hop.
    #[cfg(test)]
    pub(crate) fn hops(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let n = self.sequence.len();
        (0..n).map(move |i| (self.sequence[i], self.sequence[(i + 1) % n]))
    }

    /// Geometric summary used by the collective latency model.
    pub fn shape(&self, topo: &Topology) -> RingShape {
        RingShape {
            participants: self.participant_count(topo),
            hops: self.hop_count(),
        }
    }
}

/// The two numbers the collective model needs about a ring: how many devices
/// communicate and how many links a lap crosses.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RingShape {
    /// Distinct communicating device-nodes.
    pub participants: usize,
    /// Links traversed per lap.
    pub hops: usize,
}

impl RingShape {
    /// A device-only ring: hop count equals participant count.
    pub fn device_ring(participants: usize) -> Self {
        RingShape {
            participants,
            hops: participants,
        }
    }

    /// Links separating two adjacent participants (1 for a device-only
    /// ring; 2 for MC-DLA's alternating device/memory ring).
    pub(crate) fn hops_per_step(&self) -> f64 {
        if self.participants == 0 {
            0.0
        } else {
            self.hops as f64 / self.participants as f64
        }
    }
}

/// Validates that `rings` respect every node's link budget in `topo`.
///
/// Every ring visit consumes **two** of a node's high-bandwidth links (one
/// toward each ring neighbor) — this is why Table II's N = 6 links support
/// exactly three rings per node. Returns the per-node link usage, or an
/// error naming the first node using more than `max_links`.
///
/// # Errors
///
/// Returns `(node, used)` for the first node using more than `max_links`.
pub fn check_link_budget(
    topo: &Topology,
    rings: &[Ring],
    max_links: usize,
) -> Result<Vec<usize>, (NodeId, usize)> {
    let mut used = vec![0usize; topo.nodes().len()];
    for ring in rings {
        for node in ring.sequence() {
            used[node.index()] += 2;
        }
    }
    for (i, &u) in used.iter().enumerate() {
        if u > max_links {
            return Err((NodeId(i), u));
        }
    }
    Ok(used)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo_with(devices: usize, memories: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        let mut t = Topology::new();
        let d: Vec<NodeId> = (0..devices)
            .map(|i| t.add_node(NodeKind::Device, format!("D{i}")))
            .collect();
        let m: Vec<NodeId> = (0..memories)
            .map(|i| t.add_node(NodeKind::Memory, format!("M{i}")))
            .collect();
        (t, d, m)
    }

    #[test]
    fn device_ring_shape() {
        let (t, d, _) = topo_with(8, 0);
        let r = Ring::new(d.clone());
        assert_eq!(r.hop_count(), 8);
        assert_eq!(r.participant_count(&t), 8);
        let s = r.shape(&t);
        assert_eq!(s, RingShape::device_ring(8));
        assert_eq!(s.hops_per_step(), 1.0);
    }

    #[test]
    fn alternating_ring_has_two_hops_per_step() {
        let (t, d, m) = topo_with(8, 8);
        let mut seq = Vec::new();
        for i in 0..8 {
            seq.push(d[i]);
            seq.push(m[i]);
        }
        let r = Ring::new(seq);
        assert_eq!(r.hop_count(), 16);
        assert_eq!(r.participant_count(&t), 8);
        assert_eq!(r.shape(&t).hops_per_step(), 2.0);
    }

    #[test]
    fn repeated_visits_count_as_hops_not_participants() {
        // Fig. 7(a)'s long ring visits each memory node twice:
        // ... M0 -> D0 -> M0 -> M7 -> D7 -> M7 ...
        let (t, d, m) = topo_with(2, 2);
        let seq = vec![m[0], d[0], m[0], m[1], d[1], m[1]];
        let r = Ring::new(seq);
        assert_eq!(r.hop_count(), 6);
        assert_eq!(r.participant_count(&t), 2);
        assert_eq!(r.shape(&t).hops_per_step(), 3.0);
    }

    #[test]
    fn hops_close_the_cycle() {
        let (_, d, _) = topo_with(3, 0);
        let r = Ring::new(d.clone());
        let hops: Vec<_> = r.hops().collect();
        assert_eq!(hops, vec![(d[0], d[1]), (d[1], d[2]), (d[2], d[0])]);
    }

    #[test]
    fn link_budget_detects_overuse() {
        let (t, d, _) = topo_with(4, 0);
        let ring = Ring::new(d.clone());
        // Three rings use all 6 links per node (2 per ring): exactly N = 6.
        let rings = vec![ring.clone(), ring.clone(), ring.clone()];
        let used = check_link_budget(&t, &rings, 6).expect("within budget");
        assert_eq!(used, vec![6, 6, 6, 6]);
        // A fourth ring exceeds N = 6.
        let rings4 = vec![ring; 4];
        let err = check_link_budget(&t, &rings4, 6).unwrap_err();
        assert_eq!(err.1, 8);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_ring_panics() {
        let (_, d, _) = topo_with(1, 0);
        let _ = Ring::new(d);
    }
}
