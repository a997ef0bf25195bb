//! # `mcdla-dnn` — DNN workload substrate
//!
//! The workload half of the MC-DLA simulator (Kwon & Rhu, *Beyond the Memory
//! Wall*, MICRO-51 2018): layer and network models that expose exactly the
//! quantities the system simulator consumes —
//!
//! * per-layer forward/backward **MAC counts** (compute cost),
//! * per-layer **feature-map / weight / gradient byte sizes** (memory and
//!   communication cost),
//! * the network **DAG** from which the memory-virtualization runtime derives
//!   data dependencies and offload points (§II-B),
//! * the eight **Table III benchmarks** ([`Benchmark`]).
//!
//! No tensor data is ever materialized; training here is a cost model, not a
//! numerical computation (§IV uses the workloads as interconnect stress
//! microbenchmarks).
//!
//! # Examples
//!
//! ```
//! use mcdla_dnn::{Benchmark, DataType};
//!
//! let vgg = Benchmark::VggE.build();
//! assert_eq!(vgg.weighted_depth(), 19);
//! assert_eq!(vgg.total_params(), 143_667_240);
//!
//! // Training VGG-E at the paper's batch size of 512 without
//! // virtualization needs far more memory than the 16 GB of a Volta-class
//! // device...
//! let fp = vgg.footprint(512, DataType::F32);
//! assert!(fp.total_unvirtualized() > 16 * (1u64 << 30));
//! // ...but the virtualized working set is several times smaller.
//! assert!(fp.total_virtualized() < fp.total_unvirtualized() / 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generator;
mod layer;
mod network;
mod tensor;
pub mod zoo;

pub use layer::{ActivationKind, Layer, LayerId, LayerKind, PoolKind, RnnCellKind};
pub use network::{Application, BuildError, MemoryFootprint, Network, NetworkBuilder};
pub use tensor::{DataType, TensorShape};
pub use zoo::Benchmark;
