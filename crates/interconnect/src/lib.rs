//! # `mcdla-interconnect` — device-side interconnection networks
//!
//! The interconnect substrate of the MC-DLA simulator (Kwon & Rhu, *Beyond
//! the Memory Wall*, MICRO-51 2018):
//!
//! * [`Topology`] — node/link graphs of devices, memory-nodes, hosts and
//!   switches (§II-C, §III-B);
//! * [`Ring`] / [`RingShape`] — ring networks cast from a topology, the
//!   NCCL-style abstraction collective libraries operate on (Fig. 5);
//! * [`CollectiveModel`] — ring-algorithm latency model for all-gather,
//!   all-reduce and broadcast (Figs. 4 and 9);
//! * [`SystemInterconnect`] — the concrete layouts the paper evaluates:
//!   the DGX cube-mesh (DC-DLA), HC-DLA's split links, and the three MC-DLA
//!   interconnects of Fig. 7 with their 8/8/24, 8/12/20 and 16/16/16 hop
//!   counts.
//!
//! # Examples
//!
//! ```
//! use mcdla_interconnect::{CollectiveKind, CollectiveModel, SystemInterconnect};
//! use mcdla_sim::Bytes;
//!
//! let dc = SystemInterconnect::dgx_cube_mesh(25.0);
//! let mc = SystemInterconnect::mc_dla_ring(25.0);
//! let model = CollectiveModel::paper_fig9();
//!
//! // Adding 8 memory-nodes to each ring costs almost nothing for large
//! // synchronizations (Fig. 9: ~7%).
//! let s = Bytes::from_mib(8);
//! let t_dc = model.striped_latency(CollectiveKind::AllReduce, s, &dc.ring_shapes());
//! let t_mc = model.striped_latency(CollectiveKind::AllReduce, s, &mc.ring_shapes());
//! assert!(t_mc.as_secs_f64() / t_dc.as_secs_f64() < 1.10);
//!
//! // ...while the memory-virtualization bandwidth grows from PCIe-class to
//! // 150 GB/s per device (BW_AWARE over both neighbor memory-nodes).
//! assert_eq!(mc.virt_bandwidth_gbs(2), 150.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collective;
mod fabric;
mod graph;
mod layout;
mod ring;
mod scaleout;

pub use collective::{CollectiveKind, CollectiveModel};
pub use fabric::{FabricSpec, FabricTopology, RoutedFabric};
pub use graph::{Link, LinkId, Node, NodeId, NodeKind, Topology};
pub use layout::{RingPath, SystemInterconnect};
pub use ring::{check_link_budget, Ring, RingShape};
pub use scaleout::ScaleOutPlane;
