//! # `mcdla-sim` — discrete-event simulation kernel
//!
//! The simulation substrate underneath the MC-DLA system simulator
//! (Kwon & Rhu, *Beyond the Memory Wall*, MICRO-51 2018). It provides the
//! same modeling abstractions the paper's in-house simulator describes in
//! §IV:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-picosecond clock, so event
//!   ordering is exact and runs are reproducible.
//! * [`FifoEngine`] — a serialized hardware stream (PE array, DMA unit,
//!   protocol/communication engine) that accumulates the busy time stacked
//!   in the paper's Figure 11.
//! * [`FlowNetwork`] — a max-min-fair fluid-flow bandwidth model for shared
//!   channels (PCIe switches, CPU socket DRAM, NVLINK-class links, DIMM
//!   bandwidth), giving contention effects without packet-level simulation.
//! * [`stats`] — the harmonic mean used throughout the evaluation (§V
//!   reports all averages as harmonic means).
//!
//! # Examples
//!
//! Modeling the paper's observation that host-side PCIe bandwidth is divided
//! among intra-node devices:
//!
//! ```
//! use mcdla_sim::{Bandwidth, Bytes, FlowNetwork, SimTime};
//!
//! let mut net = FlowNetwork::new();
//! let socket = net.add_channel(Bandwidth::gb_per_sec(80.0));
//! // Four devices offloading feature maps concurrently through one socket.
//! let flows: Vec<_> = (0..4)
//!     .map(|_| net.open_flow(SimTime::ZERO, &[socket], Bytes::from_gb(20)).unwrap())
//!     .collect();
//! // Each device only sees a quarter of the socket bandwidth.
//! assert!((net.flow_rate(flows[0]).unwrap().as_gb_per_sec() - 20.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod flow;
pub mod stats;
mod time;
mod units;

pub use engine::{Completion, FifoEngine};
pub use flow::{ChannelId, FlowError, FlowId, FlowNetwork};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, Bytes};
