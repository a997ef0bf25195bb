//! # `mcdla-vmem` — DNN memory virtualization runtime
//!
//! The memory-overlaying layer of the MC-DLA stack (Kwon & Rhu, *Beyond the
//! Memory Wall*, MICRO-51 2018): vDNN-style virtualization that uses device
//! memory as an application-level cache over a backing store — host DRAM in
//! DC/HC-DLA, memory-nodes in MC-DLA. Provides:
//!
//! * [`VirtSchedule`] — the compile-time DAG analysis deciding, per layer,
//!   whether its stashed activations are **offloaded**, **recomputed**, or
//!   kept **resident** (§II-B, footnote 4);
//! * [`ResidencyProfile`] — replay of an iteration's device-resident bytes,
//!   demonstrating the O(N) → O(1) footprint reduction.
//!
//! # Examples
//!
//! ```
//! use mcdla_dnn::{Benchmark, DataType};
//! use mcdla_vmem::{peak_with_and_without_virtualization, VirtPolicy, VirtSchedule};
//!
//! let net = Benchmark::VggE.build();
//! let (virtualized, resident) =
//!     peak_with_and_without_virtualization(&net, 256, DataType::F32);
//! // Virtualization shrinks the peak footprint several-fold for deep CNNs.
//! assert!(virtualized * 3 < resident);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod residency;
mod schedule;
#[cfg(test)]
mod timeline;

pub use residency::{peak_with_and_without_virtualization, ResidencyProfile};
pub use schedule::{Disposition, VirtEntry, VirtPolicy, VirtSchedule};
