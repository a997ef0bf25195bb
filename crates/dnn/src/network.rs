//! Network DAGs and their construction.
//!
//! A [`Network`] is the compile-time artifact the memory-virtualization
//! runtime analyzes (§II-B: "leveraging the user-level DNN topology graph as
//! means to extract a compile-time data dependency information ...
//! encapsulated as a direct acyclic graph (DAG)"). Layers are stored in
//! topological order by construction — the builder only lets a layer consume
//! previously-defined layers, so cycles cannot be expressed.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::layer::{ActivationKind, Layer, LayerId, LayerKind, PoolKind, RnnCellKind};
use crate::tensor::{DataType, TensorShape};

/// Application domain, as listed in Table III.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Application {
    /// ImageNet-style CNN classification.
    ImageRecognition,
    /// DeepSpeech-style acoustic models.
    SpeechRecognition,
    /// Sequence-to-sequence translation.
    MachineTranslation,
    /// Next-token language models.
    LanguageModeling,
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Application::ImageRecognition => "Image recognition",
            Application::SpeechRecognition => "Speech recognition",
            Application::MachineTranslation => "Machine translation",
            Application::LanguageModeling => "Language modeling",
        };
        f.write_str(s)
    }
}

/// Errors produced while constructing a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A layer referenced an id that does not exist yet.
    UnknownLayer(LayerId),
    /// Layer inputs have incompatible shapes (e.g. mismatched element-wise add).
    ShapeMismatch {
        /// The offending layer's name.
        layer: String,
        /// Explanation of the mismatch.
        detail: String,
    },
    /// A structurally invalid parameter (zero kernel, zero stride, ...).
    InvalidParameter {
        /// The offending layer's name.
        layer: String,
        /// Explanation of the invalid parameter.
        detail: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownLayer(id) => write!(f, "unknown layer {id}"),
            BuildError::ShapeMismatch { layer, detail } => {
                write!(f, "shape mismatch at layer '{layer}': {detail}")
            }
            BuildError::InvalidParameter { layer, detail } => {
                write!(f, "invalid parameter at layer '{layer}': {detail}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A deep neural network expressed as a DAG of [`Layer`]s in topological
/// order.
///
/// # Examples
///
/// ```
/// use mcdla_dnn::{Application, NetworkBuilder, TensorShape};
///
/// # fn main() -> Result<(), mcdla_dnn::BuildError> {
/// let mut b = NetworkBuilder::new("tiny", Application::ImageRecognition);
/// let x = b.input(TensorShape::chw(3, 32, 32));
/// let c = b.conv("conv1", x, 16, 3, 1, 1)?;
/// let r = b.relu("relu1", c)?;
/// let f = b.fully_connected("fc", r, 10)?;
/// let net = b.build();
/// assert_eq!(net.weighted_depth(), 2); // conv1 + fc
/// assert!(net.layer(f).output_shape().elements() == 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    application: Application,
    layers: Vec<Layer>,
}

impl Network {
    /// Network name (e.g. `"VGG-E"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Application domain (Table III's second column).
    pub fn application(&self) -> Application {
        self.application
    }

    /// All layers in topological order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Looks up a layer by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.index()]
    }

    /// Number of depth-counting weighted layers — the Table III "# of
    /// layers" figure (8 for AlexNet, 58 for GoogLeNet, 19 for VGG-E, 34 for
    /// ResNet).
    pub fn weighted_depth(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.counts_toward_depth() && l.has_weights())
            .count()
    }

    /// Layers owning a *physical* weight tensor: the first member of each
    /// weight-sharing group. Unrolled RNN timesteps share one tensor, so
    /// only timestep 0 appears here.
    pub(crate) fn unique_weight_layers(&self) -> impl Iterator<Item = &Layer> + '_ {
        self.layers
            .iter()
            .filter(|l| l.has_weights() && l.weight_group() == l.id().index())
    }

    /// Total trainable parameters (weight-sharing groups counted once).
    pub fn total_params(&self) -> u64 {
        self.unique_weight_layers().map(Layer::weight_params).sum()
    }

    /// Total weight bytes at a precision (weight-sharing groups counted
    /// once).
    pub fn total_weight_bytes(&self, dtype: DataType) -> u64 {
        self.unique_weight_layers()
            .map(|l| l.weight_bytes(dtype))
            .sum()
    }

    /// For every layer, the topological position of its **last forward
    /// consumer** — the point after which its output may be offloaded to the
    /// backing store. Terminal layers consume themselves.
    pub fn last_consumer(&self) -> Vec<LayerId> {
        let mut last: Vec<LayerId> = (0..self.layers.len()).map(LayerId).collect();
        for l in &self.layers {
            for &inp in l.inputs() {
                if l.id() > last[inp.index()] {
                    last[inp.index()] = l.id();
                }
            }
        }
        last
    }

    /// The memory cost of training this network at `batch`, broken into the
    /// components of §II-B.
    pub fn footprint(&self, batch: u64, dtype: DataType) -> MemoryFootprint {
        let weights = self.total_weight_bytes(dtype);
        let mut stashed = 0u64;
        let mut peak_live = 0u64;
        for l in &self.layers {
            stashed += l.stash_bytes(batch, dtype);
            let live = l.input_bytes(batch, dtype) + l.output_bytes(batch, dtype);
            peak_live = peak_live.max(live);
        }
        MemoryFootprint {
            weight_bytes: weights,
            gradient_bytes: weights,
            stashed_activation_bytes: stashed,
            peak_live_bytes: peak_live,
        }
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.1}M params)",
            self.name,
            self.weighted_depth(),
            self.total_params() as f64 / 1e6
        )
    }
}

/// Training-time memory cost decomposition (§II-B: memory scales O(N) with
/// depth because every layer's X must be kept for backpropagation).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Model weights W.
    pub weight_bytes: u64,
    /// Weight gradients dW (same size as W).
    pub gradient_bytes: u64,
    /// All stashed feature maps X across the network — the O(N) term.
    pub stashed_activation_bytes: u64,
    /// Largest single layer's live X+Y working set — the O(1) floor that
    /// virtualization can reduce the activation footprint to.
    pub peak_live_bytes: u64,
}

impl MemoryFootprint {
    /// Total bytes without memory virtualization: O(N) activations plus
    /// weights and gradients.
    pub fn total_unvirtualized(&self) -> u64 {
        self.weight_bytes + self.gradient_bytes + self.stashed_activation_bytes
    }

    /// Resident bytes with virtualization: only the peak live working set
    /// plus weights and gradients stay in device memory.
    pub fn total_virtualized(&self) -> u64 {
        self.weight_bytes + self.gradient_bytes + self.peak_live_bytes
    }
}

/// Incremental [`Network`] constructor.
///
/// Every method that adds a layer takes the producing layers' ids and
/// resolves the new layer's shapes immediately, returning its id. See
/// [`Network`] for a usage example.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    application: Application,
    layers: Vec<Layer>,
}

impl NetworkBuilder {
    /// Starts a network with the given name and application domain.
    pub fn new(name: impl Into<String>, application: Application) -> Self {
        NetworkBuilder {
            name: name.into(),
            application,
            layers: Vec::new(),
        }
    }

    /// Adds the input placeholder carrying the per-sample shape.
    pub fn input(&mut self, shape: TensorShape) -> LayerId {
        let id = LayerId(self.layers.len());
        self.layers.push(Layer {
            id,
            name: "input".into(),
            kind: LayerKind::Input,
            inputs: Vec::new(),
            in_shape: shape.clone(),
            out_shape: shape,
            counts_toward_depth: false,
            weight_group: id.0,
        });
        id
    }

    fn shape_of(&self, id: LayerId) -> Result<&TensorShape, BuildError> {
        self.layers
            .get(id.index())
            .map(|l| &l.out_shape)
            .ok_or(BuildError::UnknownLayer(id))
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        inputs: Vec<LayerId>,
        in_shape: TensorShape,
        out_shape: TensorShape,
        counts: bool,
    ) -> LayerId {
        let id = LayerId(self.layers.len());
        self.layers.push(Layer {
            id,
            name: name.into(),
            kind,
            inputs,
            in_shape,
            out_shape,
            counts_toward_depth: counts,
            weight_group: id.0,
        });
        id
    }

    /// Adds a convolution (`groups = 1`).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] for unknown inputs or invalid geometry.
    pub fn conv(
        &mut self,
        name: &str,
        input: LayerId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<LayerId, BuildError> {
        self.conv_grouped(name, input, out_channels, kernel, stride, padding, 1)
    }

    /// Adds a grouped convolution (AlexNet's original two-tower layers).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidParameter`] for zero kernel/stride/
    /// groups or non-dividing group counts, [`BuildError::ShapeMismatch`]
    /// when the window does not fit, and [`BuildError::UnknownLayer`] for a
    /// bad input id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conv_grouped(
        &mut self,
        name: &str,
        input: LayerId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Result<LayerId, BuildError> {
        if kernel == 0 || stride == 0 || groups == 0 || out_channels == 0 {
            return Err(BuildError::InvalidParameter {
                layer: name.into(),
                detail: "kernel, stride, groups, out_channels must be non-zero".into(),
            });
        }
        let in_shape = self.shape_of(input)?.clone();
        let (c, h, w) = match in_shape {
            TensorShape::Chw { c, h, w } => (c, h, w),
            TensorShape::Vector { .. } => {
                return Err(BuildError::ShapeMismatch {
                    layer: name.into(),
                    detail: "convolution requires a CHW input".into(),
                })
            }
        };
        if !c.is_multiple_of(groups) || !out_channels.is_multiple_of(groups) {
            return Err(BuildError::InvalidParameter {
                layer: name.into(),
                detail: format!("groups {groups} must divide channels {c} and {out_channels}"),
            });
        }
        let (oh, ow) =
            conv_out(h, w, kernel, stride, padding).ok_or_else(|| BuildError::ShapeMismatch {
                layer: name.into(),
                detail: format!("window {kernel}/{stride}/{padding} does not fit {h}x{w}"),
            })?;
        Ok(self.push(
            name,
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
            },
            vec![input],
            TensorShape::chw(c, h, w),
            TensorShape::chw(out_channels, oh, ow),
            true,
        ))
    }

    /// Like [`NetworkBuilder::conv`], but excluded from the Table III depth
    /// count — used for residual projection shortcuts.
    ///
    /// # Errors
    ///
    /// Same as [`NetworkBuilder::conv_grouped`].
    pub(crate) fn conv_shortcut(
        &mut self,
        name: &str,
        input: LayerId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<LayerId, BuildError> {
        let id = self.conv_grouped(name, input, out_channels, kernel, stride, padding, 1)?;
        self.layers[id.index()].counts_toward_depth = false;
        Ok(id)
    }

    /// Adds a pooling layer with Caffe-style ceil-mode output geometry
    /// (AlexNet/GoogLeNet convention); the zoo's ResNet uses floor mode.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] for unknown inputs or invalid geometry.
    pub fn pool(
        &mut self,
        name: &str,
        input: LayerId,
        kind: PoolKind,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<LayerId, BuildError> {
        self.pool_with_mode(name, input, kind, kernel, stride, padding, true)
    }

    /// Adds a pooling layer with floor-mode output geometry (the ResNet /
    /// modern-framework convention).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] for unknown inputs or invalid geometry.
    pub(crate) fn pool_floor(
        &mut self,
        name: &str,
        input: LayerId,
        kind: PoolKind,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<LayerId, BuildError> {
        self.pool_with_mode(name, input, kind, kernel, stride, padding, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn pool_with_mode(
        &mut self,
        name: &str,
        input: LayerId,
        kind: PoolKind,
        kernel: usize,
        stride: usize,
        padding: usize,
        ceil_mode: bool,
    ) -> Result<LayerId, BuildError> {
        if kernel == 0 || stride == 0 {
            return Err(BuildError::InvalidParameter {
                layer: name.into(),
                detail: "kernel and stride must be non-zero".into(),
            });
        }
        let in_shape = self.shape_of(input)?.clone();
        let (c, h, w) = match in_shape {
            TensorShape::Chw { c, h, w } => (c, h, w),
            TensorShape::Vector { .. } => {
                return Err(BuildError::ShapeMismatch {
                    layer: name.into(),
                    detail: "pooling requires a CHW input".into(),
                })
            }
        };
        let (oh, ow) = pool_out(h, w, kernel, stride, padding, ceil_mode).ok_or_else(|| {
            BuildError::ShapeMismatch {
                layer: name.into(),
                detail: format!("window {kernel}/{stride}/{padding} does not fit {h}x{w}"),
            }
        })?;
        Ok(self.push(
            name,
            LayerKind::Pool2d {
                kind,
                kernel,
                stride,
                padding,
            },
            vec![input],
            TensorShape::chw(c, h, w),
            TensorShape::chw(c, oh, ow),
            false,
        ))
    }

    /// Adds a global average pool, collapsing spatial dims to a vector.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] for an unknown or non-CHW input.
    pub(crate) fn global_avg_pool(
        &mut self,
        name: &str,
        input: LayerId,
    ) -> Result<LayerId, BuildError> {
        let in_shape = self.shape_of(input)?.clone();
        let (c, h, w) = match in_shape {
            TensorShape::Chw { c, h, w } => (c, h, w),
            TensorShape::Vector { .. } => {
                return Err(BuildError::ShapeMismatch {
                    layer: name.into(),
                    detail: "global pooling requires a CHW input".into(),
                })
            }
        };
        Ok(self.push(
            name,
            LayerKind::Pool2d {
                kind: PoolKind::Avg,
                kernel: h.max(w),
                stride: 1,
                padding: 0,
            },
            vec![input],
            TensorShape::chw(c, h, w),
            TensorShape::vector(c),
            false,
        ))
    }

    /// Adds a fully-connected layer (flattens CHW inputs automatically).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::UnknownLayer`] / invalid parameters.
    pub fn fully_connected(
        &mut self,
        name: &str,
        input: LayerId,
        out_features: usize,
    ) -> Result<LayerId, BuildError> {
        if out_features == 0 {
            return Err(BuildError::InvalidParameter {
                layer: name.into(),
                detail: "out_features must be non-zero".into(),
            });
        }
        let in_shape = self.shape_of(input)?.flattened();
        Ok(self.push(
            name,
            LayerKind::FullyConnected { out_features },
            vec![input],
            in_shape,
            TensorShape::vector(out_features),
            true,
        ))
    }

    /// Adds a ReLU activation.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::UnknownLayer`].
    pub fn relu(&mut self, name: &str, input: LayerId) -> Result<LayerId, BuildError> {
        self.activation(name, input, ActivationKind::ReLU)
    }

    /// Adds a pointwise activation.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::UnknownLayer`].
    pub(crate) fn activation(
        &mut self,
        name: &str,
        input: LayerId,
        kind: ActivationKind,
    ) -> Result<LayerId, BuildError> {
        let s = self.shape_of(input)?.clone();
        Ok(self.push(
            name,
            LayerKind::Activation { kind },
            vec![input],
            s.clone(),
            s,
            false,
        ))
    }

    /// Adds a shape-preserving plumbing layer (LRN, batch-norm, dropout,
    /// softmax).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::UnknownLayer`].
    pub fn unary(
        &mut self,
        name: &str,
        input: LayerId,
        kind: LayerKind,
    ) -> Result<LayerId, BuildError> {
        let s = self.shape_of(input)?.clone();
        Ok(self.push(name, kind, vec![input], s.clone(), s, false))
    }

    /// Concatenates inputs channel-wise (inception modules).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ShapeMismatch`] for mismatched spatial sizes,
    /// [`BuildError::InvalidParameter`] for fewer than two inputs.
    pub(crate) fn concat(&mut self, name: &str, inputs: &[LayerId]) -> Result<LayerId, BuildError> {
        if inputs.len() < 2 {
            return Err(BuildError::InvalidParameter {
                layer: name.into(),
                detail: "concat requires at least two inputs".into(),
            });
        }
        let first = self.shape_of(inputs[0])?.clone();
        let (h0, w0) = first.spatial();
        let mut channels = 0usize;
        for &i in inputs {
            let s = self.shape_of(i)?;
            let (h, w) = s.spatial();
            if (h, w) != (h0, w0) {
                return Err(BuildError::ShapeMismatch {
                    layer: name.into(),
                    detail: format!("spatial {h}x{w} != {h0}x{w0}"),
                });
            }
            channels += s.channels();
        }
        Ok(self.push(
            name,
            LayerKind::Concat,
            inputs.to_vec(),
            TensorShape::chw(channels, h0, w0),
            TensorShape::chw(channels, h0, w0),
            false,
        ))
    }

    /// Element-wise addition of two inputs (residual connections).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ShapeMismatch`] when shapes differ.
    pub(crate) fn add(
        &mut self,
        name: &str,
        a: LayerId,
        b: LayerId,
    ) -> Result<LayerId, BuildError> {
        let sa = self.shape_of(a)?.clone();
        let sb = self.shape_of(b)?.clone();
        if sa != sb {
            return Err(BuildError::ShapeMismatch {
                layer: name.into(),
                detail: format!("{sa} != {sb}"),
            });
        }
        Ok(self.push(
            name,
            LayerKind::EltwiseAdd,
            vec![a, b],
            sa.clone(),
            sa,
            false,
        ))
    }

    /// Adds one unrolled recurrent timestep consuming the previous hidden
    /// state (and implicitly the timestep input of width `input`).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError::UnknownLayer`] / invalid sizes.
    pub fn rnn_cell(
        &mut self,
        name: &str,
        prev: LayerId,
        kind: RnnCellKind,
        hidden: usize,
        input: usize,
    ) -> Result<LayerId, BuildError> {
        if hidden == 0 || input == 0 {
            return Err(BuildError::InvalidParameter {
                layer: name.into(),
                detail: "hidden and input widths must be non-zero".into(),
            });
        }
        let _ = self.shape_of(prev)?;
        Ok(self.push(
            name,
            LayerKind::RnnCell {
                kind,
                hidden,
                input,
            },
            vec![prev],
            TensorShape::vector(input + hidden),
            TensorShape::vector(hidden),
            true,
        ))
    }

    /// Declares that `layer` reuses the physical weight tensor of `with`
    /// (unrolled RNN timesteps). Parameter totals and gradient
    /// synchronization then count the shared tensor once.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownLayer`] for bad ids and
    /// [`BuildError::ShapeMismatch`] if the two layers' kinds differ (they
    /// could not share a tensor).
    pub fn share_weights(&mut self, layer: LayerId, with: LayerId) -> Result<(), BuildError> {
        if with.index() >= self.layers.len() {
            return Err(BuildError::UnknownLayer(with));
        }
        if layer.index() >= self.layers.len() {
            return Err(BuildError::UnknownLayer(layer));
        }
        if self.layers[layer.index()].kind != self.layers[with.index()].kind {
            return Err(BuildError::ShapeMismatch {
                layer: self.layers[layer.index()].name.clone(),
                detail: "weight sharing requires identical layer kinds".into(),
            });
        }
        let group = self.layers[with.index()].weight_group;
        self.layers[layer.index()].weight_group = group;
        Ok(())
    }

    /// Finishes construction.
    pub fn build(self) -> Network {
        Network {
            name: self.name,
            application: self.application,
            layers: self.layers,
        }
    }
}

fn conv_out(h: usize, w: usize, k: usize, s: usize, p: usize) -> Option<(usize, usize)> {
    let oh = (h + 2 * p).checked_sub(k)? / s + 1;
    let ow = (w + 2 * p).checked_sub(k)? / s + 1;
    Some((oh, ow))
}

fn pool_out(
    h: usize,
    w: usize,
    k: usize,
    s: usize,
    p: usize,
    ceil: bool,
) -> Option<(usize, usize)> {
    // Ceil-mode matches Caffe-era conventions used by AlexNet/GoogLeNet
    // (3x3 stride-2 pooling of 55 -> 27); floor-mode matches ResNet
    // (3x3 stride-2 pad-1 pooling of 112 -> 56).
    let span_h = (h + 2 * p).checked_sub(k)?;
    let span_w = (w + 2 * p).checked_sub(k)?;
    let (oh, ow) = if ceil {
        (span_h.div_ceil(s) + 1, span_w.div_ceil(s) + 1)
    } else {
        (span_h / s + 1, span_w / s + 1)
    };
    Some((oh, ow))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let mut b = NetworkBuilder::new("tiny", Application::ImageRecognition);
        let x = b.input(TensorShape::chw(3, 32, 32));
        let c1 = b.conv("c1", x, 8, 3, 1, 1).unwrap();
        let r1 = b.relu("r1", c1).unwrap();
        let p1 = b.pool("p1", r1, PoolKind::Max, 2, 2, 0).unwrap();
        let f = b.fully_connected("fc", p1, 10).unwrap();
        let _s = b.unary("sm", f, LayerKind::Softmax).unwrap();
        b.build()
    }

    #[test]
    fn shapes_propagate() {
        let n = tiny();
        assert_eq!(n.layers().len(), 6);
        assert_eq!(n.weighted_depth(), 2);
        assert_eq!(n.layers()[1].output_shape(), &TensorShape::chw(8, 32, 32));
        assert_eq!(n.layers()[3].output_shape(), &TensorShape::chw(8, 16, 16));
        assert_eq!(
            n.layers()[4].input_shape(),
            &TensorShape::vector(8 * 16 * 16)
        );
    }

    #[test]
    fn conv_output_geometry() {
        assert_eq!(conv_out(227, 227, 11, 4, 0), Some((55, 55)));
        assert_eq!(conv_out(27, 27, 5, 1, 2), Some((27, 27)));
        assert_eq!(conv_out(224, 224, 3, 1, 1), Some((224, 224)));
        assert_eq!(conv_out(2, 2, 5, 1, 0), None);
    }

    #[test]
    fn pool_output_geometry_modes() {
        assert_eq!(pool_out(55, 55, 3, 2, 0, true), Some((27, 27)));
        assert_eq!(pool_out(13, 13, 3, 2, 0, true), Some((6, 6)));
        // ResNet stem: 112 -> 56 only in floor mode.
        assert_eq!(pool_out(112, 112, 3, 2, 1, false), Some((56, 56)));
        assert_eq!(pool_out(112, 112, 3, 2, 1, true), Some((57, 57)));
    }

    #[test]
    fn last_consumer_handles_branches() {
        let mut b = NetworkBuilder::new("branchy", Application::ImageRecognition);
        let x = b.input(TensorShape::chw(4, 8, 8));
        let a = b.conv("a", x, 4, 3, 1, 1).unwrap();
        let c = b.conv("c", x, 4, 3, 1, 1).unwrap(); // second consumer of x
        let d = b.add("d", a, c).unwrap();
        let n = b.build();
        let last = n.last_consumer();
        // x's last consumer is the later conv `c`.
        assert_eq!(last[x.index()], c);
        // a and c are both consumed by d.
        assert_eq!(last[a.index()], d);
        assert_eq!(last[c.index()], d);
        // d is terminal: its own id.
        assert_eq!(last[d.index()], d);
    }

    #[test]
    fn footprint_scales_with_depth_and_batch() {
        let n = tiny();
        let f1 = n.footprint(1, DataType::F32);
        let f64b = n.footprint(64, DataType::F32);
        assert_eq!(
            f64b.stashed_activation_bytes,
            64 * f1.stashed_activation_bytes
        );
        assert_eq!(f64b.weight_bytes, f1.weight_bytes);
        assert!(f64b.total_virtualized() < f64b.total_unvirtualized());
    }

    #[test]
    fn builder_rejects_bad_construction() {
        let mut b = NetworkBuilder::new("bad", Application::ImageRecognition);
        let x = b.input(TensorShape::chw(3, 8, 8));
        assert!(matches!(
            b.conv("c", x, 0, 3, 1, 1),
            Err(BuildError::InvalidParameter { .. })
        ));
        assert!(matches!(
            b.conv("c", x, 8, 16, 1, 0),
            Err(BuildError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            b.conv("c", LayerId(99), 8, 3, 1, 1),
            Err(BuildError::UnknownLayer(_))
        ));
        assert!(matches!(
            b.conv_grouped("c", x, 8, 3, 1, 1, 2),
            Err(BuildError::InvalidParameter { .. }) // 3 channels % 2 groups
        ));
        let a = b.conv("a", x, 4, 3, 1, 1).unwrap();
        let p = b.pool("p", a, PoolKind::Max, 2, 2, 0).unwrap();
        assert!(matches!(
            b.add("bad-add", a, p),
            Err(BuildError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            b.concat("one", &[a]),
            Err(BuildError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rnn_chain_builds() {
        let mut b = NetworkBuilder::new("rnn", Application::SpeechRecognition);
        let mut prev = b.input(TensorShape::vector(1760));
        for t in 0..50 {
            prev = b
                .rnn_cell(&format!("t{t}"), prev, RnnCellKind::Vanilla, 1760, 1760)
                .unwrap();
        }
        let n = b.build();
        assert_eq!(n.weighted_depth(), 50);
        assert_eq!(n.layers().len(), 51);
    }

    #[test]
    fn display_summarizes() {
        let n = tiny();
        let s = n.to_string();
        assert!(s.contains("tiny"), "{s}");
        assert!(s.contains("2 layers"), "{s}");
    }
}
