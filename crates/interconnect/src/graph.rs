//! Node/link graphs for device-side interconnects.
//!
//! Nodes are device-nodes (GPUs/TPUs), memory-nodes (the paper's
//! contribution), host CPUs, or PCIe switches; links are **uni-directional**
//! (one direction of a bi-directional high-bandwidth link), matching the
//! paper's convention of quoting B = 25 GB/s of uni-directional bandwidth
//! per link.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a node within a [`Topology`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index into the topology's node table.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a uni-directional link within a [`Topology`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Index into the topology's link table.
    #[cfg(test)]
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// What a node is.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// An accelerator device-node (GPU/TPU).
    Device,
    /// A capacity-optimized memory-node (Fig. 6).
    Memory,
    /// A host CPU socket.
    HostCpu,
    /// A PCIe switch.
    Switch,
}

/// A node of the interconnect graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
    name: String,
}

impl Node {
    /// The node's id.
    #[cfg(test)]
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The node's kind.
    pub(crate) fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The node's display name (`D0`, `M3`, ...).
    #[cfg(test)]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }
}

/// A uni-directional link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    id: LinkId,
    src: NodeId,
    dst: NodeId,
    bandwidth_gbs: f64,
}

impl Link {
    /// Receiving node.
    #[cfg(test)]
    pub(crate) fn dst(&self) -> NodeId {
        self.dst
    }
}

/// A device-side interconnect graph.
///
/// # Examples
///
/// ```
/// use mcdla_interconnect::{NodeKind, Topology};
///
/// let mut t = Topology::new();
/// let d0 = t.add_node(NodeKind::Device, "D0");
/// let m0 = t.add_node(NodeKind::Memory, "M0");
/// t.add_duplex_link(d0, m0, 25.0);
/// assert_eq!(t.links_from(d0).count(), 1);
/// assert_eq!(t.links_between(m0, d0).len(), 1); // and one back
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            name: name.into(),
        });
        id
    }

    /// Adds one uni-directional link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown or the bandwidth is not positive.
    pub(crate) fn add_link(&mut self, src: NodeId, dst: NodeId, bandwidth_gbs: f64) -> LinkId {
        assert!(src.index() < self.nodes.len(), "unknown src node");
        assert!(dst.index() < self.nodes.len(), "unknown dst node");
        assert!(bandwidth_gbs > 0.0, "link bandwidth must be positive");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            id,
            src,
            dst,
            bandwidth_gbs,
        });
        id
    }

    /// Adds both directions of a bi-directional link, returning
    /// `(src->dst, dst->src)`. `bandwidth_gbs` is per direction.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown or the bandwidth is not positive.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth_gbs: f64,
    ) -> (LinkId, LinkId) {
        (
            self.add_link(a, b, bandwidth_gbs),
            self.add_link(b, a, bandwidth_gbs),
        )
    }

    /// All nodes.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    #[cfg(test)]
    pub(crate) fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Outgoing links of `node`.
    pub fn links_from(&self, node: NodeId) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter().filter(move |l| l.src == node)
    }

    /// The uni-directional links from `a` to `b` (parallel links allowed —
    /// MC-DLA attaches several ring links between the same neighbor pair).
    pub fn links_between(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        self.links
            .iter()
            .filter(|l| l.src == a && l.dst == b)
            .map(|l| l.id)
            .collect()
    }

    /// Total port count of `node` (in + out) — each uni-directional link
    /// consumes one port; a duplex link consumes two (one lane pair).
    #[cfg(test)]
    pub(crate) fn degree(&self, node: NodeId) -> usize {
        self.links
            .iter()
            .filter(|l| l.src == node || l.dst == node)
            .count()
    }

    /// Number of bi-directional high-bandwidth links a node terminates,
    /// i.e. `degree / 2` for symmetric wiring. This is the quantity bounded
    /// by Table II's N = 6 per node.
    #[cfg(test)]
    pub(crate) fn duplex_degree(&self, node: NodeId) -> usize {
        self.degree(node) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_graph() {
        let mut t = Topology::new();
        let d0 = t.add_node(NodeKind::Device, "D0");
        let d1 = t.add_node(NodeKind::Device, "D1");
        let m0 = t.add_node(NodeKind::Memory, "M0");
        t.add_duplex_link(d0, d1, 25.0);
        t.add_duplex_link(d0, m0, 25.0);
        assert_eq!(t.nodes().len(), 3);
        assert_eq!(t.links().len(), 4);
        assert_eq!(t.degree(d0), 4);
        assert_eq!(t.duplex_degree(d0), 2);
        assert_eq!(t.links_between(d0, d1).len(), 1);
        assert_eq!(t.links_between(d1, m0).len(), 0);
        assert_eq!(t.node(m0).name(), "M0");
    }

    #[test]
    fn parallel_links_are_allowed() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Device, "a");
        let b = t.add_node(NodeKind::Memory, "b");
        for _ in 0..3 {
            t.add_duplex_link(a, b, 25.0);
        }
        assert_eq!(t.links_between(a, b).len(), 3);
        assert_eq!(t.duplex_degree(a), 3);
    }

    #[test]
    #[should_panic(expected = "unknown dst node")]
    fn bad_endpoint_panics() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Device, "a");
        t.add_link(a, NodeId(7), 25.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Device, "a");
        let b = t.add_node(NodeKind::Device, "b");
        t.add_link(a, b, 0.0);
    }
}
