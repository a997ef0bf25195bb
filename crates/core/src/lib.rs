//! # `mcdla-core` — the memory-centric DL system architecture simulator
//!
//! The paper's contribution (Kwon & Rhu, *Beyond the Memory Wall: A Case
//! for Memory-centric HPC System for Deep Learning*, MICRO-51 2018),
//! assembled from the substrate crates:
//!
//! * [`SystemDesign`] / [`SystemConfig`] — the six evaluated design points:
//!   DC-DLA, HC-DLA, MC-DLA(S), MC-DLA(L), MC-DLA(B), DC-DLA(O);
//! * [`IterationSim`] — the training-iteration engine overlapping
//!   computation, ring-collective synchronization and memory-overlaying
//!   DMA per device (§IV), over each design's effective
//!   memory-virtualization data path (PCIe/host for DC/HC, memory-node
//!   links for MC), validated against the max-min fluid-flow solver;
//! * [`scenario`] — the data-driven experiment layer: [`Scenario`] /
//!   [`ScenarioGrid`] specs plus the parallel, memoizing [`Runner`];
//! * [`ResultStore`] — the capacity-bounded, single-flight store
//!   behind the runner (and the `mcdla-serve` service), with JSON
//!   snapshot/restore for warm restarts;
//! * [`experiment`] — runners for every table and figure of §V, built on
//!   the scenario grid.
//!
//! # Examples
//!
//! Reproducing the headline comparison on one workload:
//!
//! ```
//! use mcdla_core::{experiment, SystemDesign};
//! use mcdla_dnn::Benchmark;
//! use mcdla_parallel::ParallelStrategy;
//!
//! let dc = experiment::simulate(SystemDesign::DcDla, Benchmark::VggE,
//!     ParallelStrategy::DataParallel);
//! let mc = experiment::simulate(SystemDesign::McDlaBwAware, Benchmark::VggE,
//!     ParallelStrategy::DataParallel);
//! let speedup = mc.speedup_over(&dc);
//! assert!(speedup > 1.5, "MC-DLA(B) should clearly beat DC-DLA: {speedup}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
mod design;
mod energy;
mod engine;
pub mod experiment;
mod report;
pub mod scenario;
pub mod stages;
mod store;
mod virt_path;

pub use design::{HostConfig, PcieGen, SystemConfig, SystemDesign};
pub use design::{BACKPLANE_DEVICES, PAPER_DEFAULT_BATCH, PAPER_DEFAULT_DEVICES};
pub use energy::{EnergyReport, PowerModel};
pub use engine::{AnalyticalFabric, CommFabric, FlowFabric, IterationSim};
pub use mcdla_interconnect::FabricTopology;
pub use report::IterationReport;
pub use scenario::{DeviceModel, GridStream, Overrides, Runner, Scenario, ScenarioGrid, TimedRun};
pub use store::{key_hash, Fetched, Provenance, ResultStore, StageCache, StageStats, StoreStats};
