//! Layer taxonomy and per-layer cost characterization.
//!
//! Each layer knows its forward MAC count, weight footprint, and activation
//! footprints — the three quantities the system simulator consumes. Layers
//! are classified as *major* (GEMM-shaped: convolution, fully-connected,
//! recurrent cells) or *cheap* (activation, pooling, normalization, ...).
//! Cheap layers are the ones the memory manager recomputes during
//! backpropagation instead of stashing to the backing store (the paper's
//! footnote 4, following MXNet).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::tensor::{DataType, TensorShape};

/// Identifies a layer within a [`crate::Network`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LayerId(pub(crate) usize);

impl LayerId {
    /// Index of the layer in the network's topological order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Pooling flavors.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling (includes global average pooling).
    Avg,
}

/// Pointwise non-linearity flavors.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivationKind {
    /// Rectified linear unit.
    ReLU,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// Recurrent cell flavors, matching the DeepBench suite used in Table III.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RnnCellKind {
    /// Vanilla RNN (one GEMV-shaped gate).
    Vanilla,
    /// Long short-term memory (four gates plus cell state).
    Lstm,
    /// Gated recurrent unit (three gates).
    Gru,
}

impl RnnCellKind {
    /// Number of GEMM-shaped gates evaluated per timestep.
    pub(crate) const fn gate_count(self) -> u64 {
        match self {
            RnnCellKind::Vanilla => 1,
            RnnCellKind::Lstm => 4,
            RnnCellKind::Gru => 3,
        }
    }

    /// Per-timestep activations that must be stashed for backpropagation
    /// through time, as a multiple of one `batch × hidden` tensor.
    ///
    /// Vanilla keeps the pre-activation and hidden state; LSTM additionally
    /// keeps four gate outputs and the cell state; GRU keeps three gates and
    /// two candidate states.
    pub(crate) const fn stash_factor(self) -> u64 {
        match self {
            RnnCellKind::Vanilla => 2,
            RnnCellKind::Lstm => 6,
            RnnCellKind::Gru => 5,
        }
    }
}

/// The operator a layer applies (Fig. 3's "set of mathematical operations").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Network input placeholder (holds the sample shape; zero cost).
    Input,
    /// 2-D convolution.
    Conv2d {
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        padding: usize,
        /// Channel groups (AlexNet's two-tower convolutions use 2).
        groups: usize,
    },
    /// Fully-connected (dense) layer.
    FullyConnected {
        /// Output features.
        out_features: usize,
    },
    /// Spatial pooling.
    Pool2d {
        /// Pooling flavor.
        kind: PoolKind,
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each side.
        padding: usize,
    },
    /// Pointwise non-linearity.
    Activation {
        /// Non-linearity flavor.
        kind: ActivationKind,
    },
    /// Local response normalization (AlexNet/GoogLeNet era).
    Lrn,
    /// Batch normalization (ResNet era).
    BatchNorm,
    /// Dropout regularization.
    Dropout,
    /// Channel-wise concatenation of all inputs (inception modules).
    Concat,
    /// Element-wise addition of two inputs (residual connections).
    EltwiseAdd,
    /// Softmax classifier head.
    Softmax,
    /// One unrolled recurrent timestep.
    RnnCell {
        /// Cell flavor.
        kind: RnnCellKind,
        /// Hidden state width.
        hidden: usize,
        /// Input feature width (often equal to `hidden` in DeepBench).
        input: usize,
    },
}

impl LayerKind {
    /// True for layers the memory manager recomputes during backpropagation
    /// rather than offloading their inputs (paper footnote 4: "layers that
    /// have short computation time (e.g., activation layers, pooling
    /// layers, ...)").
    pub fn is_cheap(&self) -> bool {
        matches!(
            self,
            LayerKind::Pool2d { .. }
                | LayerKind::Activation { .. }
                | LayerKind::Lrn
                | LayerKind::BatchNorm
                | LayerKind::Dropout
                | LayerKind::Concat
                | LayerKind::EltwiseAdd
                | LayerKind::Softmax
        )
    }

    /// True for GEMM-shaped layers with trainable weights.
    pub(crate) fn has_weights(&self) -> bool {
        matches!(
            self,
            LayerKind::Conv2d { .. } | LayerKind::FullyConnected { .. } | LayerKind::RnnCell { .. }
        )
    }
}

/// One node of a network DAG, with resolved input/output shapes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    pub(crate) id: LayerId,
    pub(crate) name: String,
    pub(crate) kind: LayerKind,
    pub(crate) inputs: Vec<LayerId>,
    pub(crate) in_shape: TensorShape,
    pub(crate) out_shape: TensorShape,
    pub(crate) counts_toward_depth: bool,
    /// Weight-sharing group: layers with the same group reference one
    /// physical weight tensor (unrolled RNN timesteps). Defaults to the
    /// layer's own id (no sharing).
    pub(crate) weight_group: usize,
}

impl Layer {
    /// The layer's id within its network.
    pub fn id(&self) -> LayerId {
        self.id
    }

    /// Human-readable layer name (e.g. `"conv3/3x3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator this layer applies.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// Ids of the layers feeding this one.
    pub fn inputs(&self) -> &[LayerId] {
        &self.inputs
    }

    /// Per-sample input shape (for multi-input layers, the combined shape).
    #[cfg(test)]
    pub(crate) fn input_shape(&self) -> &TensorShape {
        &self.in_shape
    }

    /// Per-sample output shape.
    pub fn output_shape(&self) -> &TensorShape {
        &self.out_shape
    }

    /// Whether this layer counts toward the paper's Table III depth
    /// (projection shortcuts and plumbing layers do not).
    pub(crate) fn counts_toward_depth(&self) -> bool {
        self.counts_toward_depth
    }

    /// True for layers recomputed instead of offloaded (see
    /// [`LayerKind::is_cheap`]).
    pub fn is_cheap(&self) -> bool {
        self.kind.is_cheap()
    }

    /// Weight-sharing group id. Unrolled recurrent timesteps share one
    /// physical weight tensor and therefore one group; feed-forward layers
    /// each form their own group.
    pub fn weight_group(&self) -> usize {
        self.weight_group
    }

    /// True for layers with trainable weights.
    pub fn has_weights(&self) -> bool {
        self.kind.has_weights()
    }

    /// Forward-pass multiply-accumulate operations for a batch of `batch`
    /// samples. Cheap layers report zero MACs — their cost is memory-bound
    /// and captured by [`Layer::forward_bytes_touched`].
    pub fn forward_macs(&self, batch: u64) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                out_channels,
                kernel,
                groups,
                ..
            } => {
                let (oh, ow) = self.out_shape.spatial();
                let in_ch = self.in_shape.channels();
                let macs_per_sample = (oh as u64)
                    * (ow as u64)
                    * (out_channels as u64)
                    * (kernel as u64)
                    * (kernel as u64)
                    * (in_ch as u64 / groups as u64);
                macs_per_sample * batch
            }
            LayerKind::FullyConnected { out_features } => {
                self.in_shape.elements() * out_features as u64 * batch
            }
            LayerKind::RnnCell {
                kind,
                hidden,
                input,
            } => {
                // Per gate: one input GEMM (input×hidden) and one recurrent
                // GEMM (hidden×hidden).
                let per_gate = (input as u64 + hidden as u64) * hidden as u64;
                kind.gate_count() * per_gate * batch
            }
            _ => 0,
        }
    }

    /// Backward-pass MACs: the dX GEMM plus the dW GEMM, each the size of
    /// the forward GEMM (standard 2× rule for backpropagation).
    pub fn backward_macs(&self, batch: u64) -> u64 {
        2 * self.forward_macs(batch)
    }

    /// Trainable parameter count (weights + biases).
    pub(crate) fn weight_params(&self) -> u64 {
        match self.kind {
            LayerKind::Conv2d {
                out_channels,
                kernel,
                groups,
                ..
            } => {
                let in_ch = self.in_shape.channels() as u64;
                out_channels as u64 * kernel as u64 * kernel as u64 * (in_ch / groups as u64)
                    + out_channels as u64
            }
            LayerKind::FullyConnected { out_features } => {
                self.in_shape.elements() * out_features as u64 + out_features as u64
            }
            LayerKind::RnnCell {
                kind,
                hidden,
                input,
            } => {
                kind.gate_count() * ((input as u64 + hidden as u64) * hidden as u64 + hidden as u64)
            }
            _ => 0,
        }
    }

    /// Weight bytes at the given precision.
    pub fn weight_bytes(&self, dtype: DataType) -> u64 {
        self.weight_params() * dtype.size_bytes()
    }

    /// Input feature-map (X) bytes for a batch — the tensor stashed to the
    /// backing store after its last forward use.
    pub fn input_bytes(&self, batch: u64, dtype: DataType) -> u64 {
        self.in_shape.bytes(dtype) * batch
    }

    /// Output feature-map (Y) bytes for a batch.
    pub fn output_bytes(&self, batch: u64, dtype: DataType) -> u64 {
        self.out_shape.bytes(dtype) * batch
    }

    /// Bytes this layer must stash for backpropagation. For most layers this
    /// is the input feature map X; recurrent cells additionally stash their
    /// gate activations (LSTM and GRU cells stash several per step).
    pub fn stash_bytes(&self, batch: u64, dtype: DataType) -> u64 {
        match self.kind {
            LayerKind::RnnCell { kind, hidden, .. } => {
                (hidden as u64) * kind.stash_factor() * batch * dtype.size_bytes()
            }
            LayerKind::Input => 0,
            _ => self.input_bytes(batch, dtype),
        }
    }

    /// Bytes moved through device memory by the forward pass (roofline
    /// memory term): read X and W, write Y.
    pub fn forward_bytes_touched(&self, batch: u64, dtype: DataType) -> u64 {
        let io = self.input_bytes(batch, dtype) + self.output_bytes(batch, dtype);
        io + self.weight_bytes(dtype)
    }

    /// Bytes moved by the backward pass: read dY, X, W; write dX, dW.
    pub fn backward_bytes_touched(&self, batch: u64, dtype: DataType) -> u64 {
        2 * self.input_bytes(batch, dtype)
            + self.output_bytes(batch, dtype)
            + 2 * self.weight_bytes(dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_layer() -> Layer {
        // AlexNet conv1: 3x227x227 -> 96 kernels 11x11 stride 4 -> 96x55x55.
        Layer {
            id: LayerId(1),
            name: "conv1".into(),
            kind: LayerKind::Conv2d {
                out_channels: 96,
                kernel: 11,
                stride: 4,
                padding: 0,
                groups: 1,
            },
            inputs: vec![LayerId(0)],
            in_shape: TensorShape::chw(3, 227, 227),
            out_shape: TensorShape::chw(96, 55, 55),
            counts_toward_depth: true,
            weight_group: 0,
        }
    }

    #[test]
    fn conv_macs_match_hand_count() {
        let l = conv_layer();
        // 55*55*96 output elements, 11*11*3 MACs each.
        assert_eq!(l.forward_macs(1), 55 * 55 * 96 * 11 * 11 * 3);
        assert_eq!(l.backward_macs(1), 2 * l.forward_macs(1));
        assert_eq!(l.forward_macs(2), 2 * l.forward_macs(1));
    }

    #[test]
    fn conv_params_match_hand_count() {
        let l = conv_layer();
        assert_eq!(l.weight_params(), 96 * 11 * 11 * 3 + 96);
        assert_eq!(l.weight_bytes(DataType::F32), (96 * 11 * 11 * 3 + 96) * 4);
    }

    #[test]
    fn grouped_conv_divides_weights_and_macs() {
        let mut l = conv_layer();
        l.kind = LayerKind::Conv2d {
            out_channels: 96,
            kernel: 11,
            stride: 4,
            padding: 0,
            groups: 3,
        };
        assert_eq!(l.weight_params(), 96 * 11 * 11 + 96);
        assert_eq!(l.forward_macs(1), 55 * 55 * 96 * 11 * 11);
    }

    #[test]
    fn fc_costs() {
        let l = Layer {
            id: LayerId(2),
            name: "fc6".into(),
            kind: LayerKind::FullyConnected { out_features: 4096 },
            inputs: vec![LayerId(1)],
            in_shape: TensorShape::vector(9216),
            out_shape: TensorShape::vector(4096),
            counts_toward_depth: true,
            weight_group: 0,
        };
        assert_eq!(l.forward_macs(1), 9216 * 4096);
        assert_eq!(l.weight_params(), 9216 * 4096 + 4096);
        assert_eq!(l.input_bytes(64, DataType::F32), 9216 * 4 * 64);
    }

    #[test]
    fn lstm_cell_costs() {
        let l = Layer {
            id: LayerId(3),
            name: "lstm_t0".into(),
            kind: LayerKind::RnnCell {
                kind: RnnCellKind::Lstm,
                hidden: 512,
                input: 512,
            },
            inputs: vec![LayerId(2)],
            in_shape: TensorShape::vector(512),
            out_shape: TensorShape::vector(512),
            counts_toward_depth: true,
            weight_group: 0,
        };
        assert_eq!(l.forward_macs(1), 4 * (512 + 512) * 512);
        assert_eq!(l.weight_params(), 4 * ((512 + 512) * 512 + 512));
        // Stash: 6 tensors of batch x hidden.
        assert_eq!(l.stash_bytes(16, DataType::F32), 6 * 512 * 16 * 4);
    }

    #[test]
    fn cheap_layers_have_no_macs_or_weights() {
        let l = Layer {
            id: LayerId(4),
            name: "relu".into(),
            kind: LayerKind::Activation {
                kind: ActivationKind::ReLU,
            },
            inputs: vec![LayerId(3)],
            in_shape: TensorShape::vector(4096),
            out_shape: TensorShape::vector(4096),
            counts_toward_depth: false,
            weight_group: 0,
        };
        assert!(l.is_cheap());
        assert!(!l.has_weights());
        assert_eq!(l.forward_macs(64), 0);
        assert_eq!(l.weight_params(), 0);
        assert!(l.forward_bytes_touched(64, DataType::F32) > 0);
    }

    #[test]
    fn gate_counts_and_stash_factors() {
        assert_eq!(RnnCellKind::Vanilla.gate_count(), 1);
        assert_eq!(RnnCellKind::Lstm.gate_count(), 4);
        assert_eq!(RnnCellKind::Gru.gate_count(), 3);
        assert!(RnnCellKind::Lstm.stash_factor() > RnnCellKind::Vanilla.stash_factor());
    }
}
