//! Per-layer timing model for the device-node.
//!
//! The paper (§IV) argues that DNN accelerators are well modeled without
//! cycle-level DRAM simulation because (1) dataflow is deterministic and
//! orchestrated in coarse granularity, and (2) all inter-node transfers are
//! bulk DMAs. Accordingly, each layer is timed with an output-stationary
//! roofline:
//!
//! ```text
//! t_layer = max(MACs / (peak_macs x occupancy x sustained_eff),
//!               bytes_touched / HBM_bandwidth)
//!           + memory_latency
//! ```
//!
//! The occupancy term models the spatial array running underfilled when a
//! layer exposes fewer output elements than the array has MAC lanes (small
//! GEMVs at low batch — the reason recurrent layers are bandwidth-limited in
//! §V-A).

use mcdla_dnn::{DataType, Layer, Network};
use mcdla_sim::SimDuration;

use crate::config::DeviceConfig;

/// Forward/backward execution times of one layer.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub(crate) struct LayerTiming {
    /// Forward-propagation time.
    pub forward: SimDuration,
    /// Backward-propagation time (dX + dW computation).
    pub backward: SimDuration,
}

impl LayerTiming {
    /// Sum of forward and backward time.
    pub(crate) fn total(&self) -> SimDuration {
        self.forward + self.backward
    }
}

/// Timing model of one accelerator device (Table II configuration).
///
/// # Examples
///
/// ```
/// use mcdla_accel::{AccelTimingModel, DeviceConfig};
/// use mcdla_dnn::{Benchmark, DataType};
///
/// let model = AccelTimingModel::new(DeviceConfig::paper_baseline(), DataType::F32);
/// let net = Benchmark::AlexNet.build();
/// // Backward is roughly twice forward for GEMM-dominated networks.
/// let layers = net.layers().iter();
/// let f: f64 = layers.clone().map(|l| model.forward_time(l, 64).as_secs_f64()).sum();
/// let b: f64 = layers.map(|l| model.backward_time(l, 64).as_secs_f64()).sum();
/// assert!(b > 1.5 * f && b < 2.5 * f);
/// ```
#[derive(Debug, Clone)]
pub struct AccelTimingModel {
    config: DeviceConfig,
    dtype: DataType,
}

impl AccelTimingModel {
    /// Creates a timing model for a device and element precision.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid: an empty PE array, a
    /// non-positive frequency or bandwidth, no links, or a sustained
    /// efficiency outside `(0, 1]`.
    pub fn new(config: DeviceConfig, dtype: DataType) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid device config: {e}");
        }
        AccelTimingModel { config, dtype }
    }

    /// The underlying device configuration.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Occupancy of the output-stationary array for a layer at a batch size:
    /// the fraction of MAC lanes that find an output element to work on.
    pub(crate) fn occupancy(&self, layer: &Layer, batch: u64) -> f64 {
        let outputs = layer.output_shape().elements().saturating_mul(batch);
        let lanes = self.config.mac_lanes();
        if outputs == 0 {
            return 1.0;
        }
        (outputs as f64 / lanes as f64).min(1.0)
    }

    fn gemm_time(&self, macs: u64, bytes: u64, occupancy: f64) -> SimDuration {
        let peak = self.config.peak_macs_per_sec() as f64
            * occupancy.max(MIN_OCCUPANCY)
            * self.config.sustained_efficiency;
        let t_compute = macs as f64 / peak;
        let t_memory = bytes as f64 / (self.config.memory_bandwidth_gbs * 1e9);
        SimDuration::from_secs_f64(t_compute.max(t_memory) + self.config.memory_latency_secs())
    }

    /// Forward-pass time of one layer for a batch.
    pub fn forward_time(&self, layer: &Layer, batch: u64) -> SimDuration {
        self.gemm_time(
            layer.forward_macs(batch),
            layer.forward_bytes_touched(batch, self.dtype),
            self.occupancy(layer, batch),
        )
    }

    /// Backward-pass time of one layer for a batch (dX and dW GEMMs).
    pub fn backward_time(&self, layer: &Layer, batch: u64) -> SimDuration {
        self.gemm_time(
            layer.backward_macs(batch),
            layer.backward_bytes_touched(batch, self.dtype),
            self.occupancy(layer, batch),
        )
    }

    /// Recompute cost of a cheap layer during backpropagation — its forward
    /// time again (the MXNet-style optimization of footnote 4 trades this
    /// for a round-trip to the backing store).
    pub fn recompute_time(&self, layer: &Layer, batch: u64) -> SimDuration {
        self.forward_time(layer, batch)
    }

    /// Timings for every layer of `network` at a batch size, in topological
    /// order.
    pub(crate) fn network_timing(&self, network: &Network, batch: u64) -> Vec<LayerTiming> {
        network
            .layers()
            .iter()
            .map(|l| LayerTiming {
                forward: self.forward_time(l, batch),
                backward: self.backward_time(l, batch),
            })
            .collect()
    }

    /// Total compute time of one training iteration (forward + backward over
    /// all layers), excluding communication and memory virtualization.
    pub fn iteration_compute_time(&self, network: &Network, batch: u64) -> SimDuration {
        self.network_timing(network, batch)
            .iter()
            .map(LayerTiming::total)
            .sum()
    }
}

/// Floor on occupancy so degenerate layers don't produce infinite time.
const MIN_OCCUPANCY: f64 = 1.0 / 4096.0;

#[cfg(test)]
mod tests {
    use super::*;
    use mcdla_dnn::Benchmark;

    fn model() -> AccelTimingModel {
        AccelTimingModel::new(DeviceConfig::paper_baseline(), DataType::F32)
    }

    #[test]
    fn compute_time_scales_with_batch() {
        let m = model();
        let net = Benchmark::VggE.build();
        let t64 = m.iteration_compute_time(&net, 64).as_secs_f64();
        let t128 = m.iteration_compute_time(&net, 128).as_secs_f64();
        assert!(t128 > 1.8 * t64 && t128 < 2.2 * t64, "{t64} vs {t128}");
    }

    #[test]
    fn faster_device_is_faster() {
        let base = model();
        let fast = AccelTimingModel::new(DeviceConfig::tpu_v2_like(), DataType::F32);
        let net = Benchmark::ResNet.build();
        assert!(fast.iteration_compute_time(&net, 64) < base.iteration_compute_time(&net, 64));
    }

    #[test]
    fn conv_layers_are_compute_bound_fc_layers_memory_bound_at_batch_1() {
        // §V-A: convolutional layers have high locality (compute-limited);
        // fully-connected layers are bandwidth-limited at small batch.
        let m = model();
        let net = Benchmark::AlexNet.build();
        // conv3 has high arithmetic intensity (3x3 over 256 channels);
        // conv1's stride-4 sliding window is closer to the roofline ridge.
        let conv3 = net.layers().iter().find(|l| l.name() == "conv3").unwrap();
        let fc6 = net.layers().iter().find(|l| l.name() == "fc6").unwrap();

        let peak = m.config().peak_macs_per_sec() as f64;
        let bw = m.config().memory_bandwidth_gbs * 1e9;
        // conv3 at batch 64: compute term dominates.
        let c_comp = conv3.forward_macs(64) as f64 / peak;
        let c_mem = conv3.forward_bytes_touched(64, DataType::F32) as f64 / bw;
        assert!(
            c_comp > c_mem,
            "conv should be compute bound: {c_comp} {c_mem}"
        );
        // fc6 at batch 1: memory term dominates (reads 38M weights for 9k
        // activations).
        let f_comp = fc6.forward_macs(1) as f64 / peak;
        let f_mem = fc6.forward_bytes_touched(1, DataType::F32) as f64 / bw;
        assert!(
            f_mem > f_comp,
            "fc should be memory bound: {f_comp} {f_mem}"
        );
    }

    #[test]
    fn occupancy_penalizes_small_layers() {
        let m = model();
        let net = Benchmark::RnnLstm1.build(); // h=512
        let cell = &net.layers()[1];
        // 512 outputs x batch 8 = 4096 << 128K lanes.
        assert!(m.occupancy(cell, 8) < 0.05);
        assert!((m.occupancy(cell, 1_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_layer_costs_at_least_the_memory_latency() {
        let m = model();
        let net = Benchmark::GoogLeNet.build();
        let lat = SimDuration::from_secs_f64(m.config().memory_latency_secs());
        for lt in m.network_timing(&net, 16) {
            assert!(lt.forward >= lat);
            assert!(lt.backward >= lat);
        }
    }

    #[test]
    fn recompute_equals_forward() {
        let m = model();
        let net = Benchmark::AlexNet.build();
        let relu = net.layers().iter().find(|l| l.is_cheap()).unwrap();
        assert_eq!(m.recompute_time(relu, 64), m.forward_time(relu, 64));
    }

    #[test]
    #[should_panic(expected = "invalid device config")]
    fn invalid_config_panics() {
        let mut c = DeviceConfig::paper_baseline();
        c.frequency_ghz = -1.0;
        let _ = AccelTimingModel::new(c, DataType::F32);
    }
}
