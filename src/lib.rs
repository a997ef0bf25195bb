//! # `mcdla` — Beyond the Memory Wall, reproduced in Rust
//!
//! A system-level simulator for **memory-centric deep-learning HPC nodes**,
//! reproducing Kwon & Rhu, *Beyond the Memory Wall: A Case for
//! Memory-centric HPC System for Deep Learning* (MICRO-51, 2018).
//!
//! The paper proposes **MC-DLA**: instead of virtualizing accelerator
//! memory over the host's PCIe interface (DC-DLA) or sacrificing
//! device-side links to reach the CPU (HC-DLA), it stations
//! capacity-optimized *memory-nodes* inside the NVLINK-class device-side
//! interconnect, giving every accelerator 150 GB/s of transparent
//! backing-store bandwidth and the node tens of terabytes of memory —
//! an average 2.8× training speedup over the DGX-style baseline.
//!
//! This facade re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | picosecond clock, FIFO engines, fluid-flow bandwidth model, units |
//! | [`dnn`] | layers, network DAGs, the Table III benchmark zoo |
//! | [`accel`] | Table II device timing model, Fig. 2 generations |
//! | [`interconnect`] | topologies, rings, collective models (Figs. 5/7/9) |
//! | [`memnode`] | the memory-node: DIMMs, page policies, power (Figs. 6/10, Table IV) |
//! | [`vmem`] | vDNN-style memory overlaying: per-layer offload / recompute schedule |
//! | [`parallel`] | data-/model-parallel partitioners (Fig. 3) |
//! | [`core`] | the six system designs + iteration simulator + §V experiments |
//! | [`serve`] | the persistent simulation service over the shared result store |
//! | [`cluster`] | the fleet layer: consistent-hash gateway, failover, scatter-gather |
//!
//! # Quickstart
//!
//! ```
//! use mcdla::core::{experiment, SystemDesign};
//! use mcdla::dnn::Benchmark;
//! use mcdla::parallel::ParallelStrategy;
//!
//! // How much faster does the proposed MC-DLA(B) train VGG-E than the
//! // DGX-style DC-DLA baseline?
//! let dc = experiment::simulate(SystemDesign::DcDla, Benchmark::VggE,
//!     ParallelStrategy::DataParallel);
//! let mc = experiment::simulate(SystemDesign::McDlaBwAware, Benchmark::VggE,
//!     ParallelStrategy::DataParallel);
//! println!("{:.1}x", mc.speedup_over(&dc));
//! assert!(mc.speedup_over(&dc) > 2.0);
//! ```

#![warn(missing_docs)]

pub use mcdla_accel as accel;
pub use mcdla_cluster as cluster;
pub use mcdla_core as core;
pub use mcdla_dnn as dnn;
pub use mcdla_interconnect as interconnect;
pub use mcdla_memnode as memnode;
pub use mcdla_parallel as parallel;
pub use mcdla_serve as serve;
pub use mcdla_sim as sim;
pub use mcdla_vmem as vmem;
