//! # `mcdla-memnode` — the memory-node architecture
//!
//! The paper's §III-A building block: a pool of capacity-optimized DDR4
//! DIMMs behind a protocol engine, DMA unit, and memory controller, sized
//! like a PCIe accelerator board and stationed inside the device-side
//! interconnect. This crate provides:
//!
//! * [`DimmKind`] — the Table IV commodity module catalog (8 GB RDIMM to
//!   128 GB LRDIMM);
//! * [`MemoryNodeConfig`] — Fig. 6 / Table II node parameters (ten DIMMs,
//!   256 GB/s, N = 6 links in M groups);
//! * [`RemoteAllocator`] / [`PagePolicy`] — Fig. 10's LOCAL and BW_AWARE
//!   page-placement policies over the left/right half-node shares;
//! * [`SystemPower`] — §V-C power accounting (7%–31% system overhead,
//!   2.1×–2.6× perf/W).
//!
//! # Examples
//!
//! ```
//! use mcdla_memnode::{DimmKind, MemoryNodeConfig};
//!
//! // The capacity-optimized configuration: 1.28 TB per node at 127 W.
//! let node = MemoryNodeConfig::with_dimm(DimmKind::Lrdimm128);
//! assert_eq!(node.capacity_bytes(), 1_280_000_000_000);
//! // Eight nodes expand the system by >10 TB (the paper's "10s of TBs").
//! assert!(8 * node.capacity_bytes() > 10_000_000_000_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod config;
mod dimm;
mod power;

pub use alloc::{AllocError, PagePolicy, RemoteAllocation, RemoteAllocator, Side};
pub use config::MemoryNodeConfig;
pub use dimm::DimmKind;
pub use power::{paper_perf_per_watt_range, SystemPower, DGX_GPU_TDP_WATTS, DGX_SYSTEM_TDP_WATTS};
