//! # `mcdla-accel` — accelerator device-node timing model
//!
//! The device-node half of §IV's methodology: a spatial-array DL accelerator
//! (Eyeriss/DaDianNao-style, output-stationary dataflow) timed with a
//! roofline model over the Table II configuration. Provides:
//!
//! * [`DeviceConfig`] — Table II parameters plus the §V-B sensitivity
//!   presets ([`DeviceConfig::tpu_v2_like`], [`DeviceConfig::dgx2_like`]);
//! * [`AccelTimingModel`] — per-layer forward/backward times for any
//!   [`mcdla_dnn::Network`];
//! * [`DeviceGeneration`] — the five historical devices of the Figure 2
//!   motivation experiment.
//!
//! # Examples
//!
//! ```
//! use mcdla_accel::{AccelTimingModel, DeviceConfig};
//! use mcdla_dnn::{Benchmark, DataType};
//!
//! let model = AccelTimingModel::new(DeviceConfig::paper_baseline(), DataType::F32);
//! let resnet = Benchmark::ResNet.build();
//! let iter = model.iteration_compute_time(&resnet, 64);
//! // One training iteration of ResNet-34 at batch 64 takes milliseconds on
//! // a 128 TMAC/s device, not seconds.
//! assert!(iter.as_ms_f64() > 1.0 && iter.as_ms_f64() < 1000.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod generations;
mod timing;

pub use config::DeviceConfig;
pub use generations::DeviceGeneration;
pub use timing::AccelTimingModel;
