//! Tensor shapes and element types.
//!
//! The simulator never materializes tensor *data* — only shapes matter
//! (§IV: the benchmarks are used as microbenchmarks to stress the system
//! interconnect). Shapes here exclude the batch dimension; the batch is a
//! property of the training run and is applied by the analysis layer.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Numeric precision of tensor elements.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DataType {
    /// IEEE 754 single precision (4 bytes) — the paper-era training default.
    #[default]
    F32,
    /// IEEE 754 half precision (2 bytes).
    F16,
}

impl DataType {
    /// Size of one element in bytes.
    pub(crate) const fn size_bytes(self) -> u64 {
        match self {
            DataType::F32 => 4,
            DataType::F16 => 2,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::F32 => f.write_str("f32"),
            DataType::F16 => f.write_str("f16"),
        }
    }
}

/// The shape of one sample's tensor (batch dimension excluded).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TensorShape {
    /// A channel-height-width feature map (CNN activations).
    Chw {
        /// Channels.
        c: usize,
        /// Height.
        h: usize,
        /// Width.
        w: usize,
    },
    /// A flat feature vector (FC activations, RNN hidden state).
    Vector {
        /// Number of features.
        len: usize,
    },
}

impl TensorShape {
    /// A `C × H × W` feature map.
    pub const fn chw(c: usize, h: usize, w: usize) -> Self {
        TensorShape::Chw { c, h, w }
    }

    /// A flat vector of `len` features.
    pub(crate) const fn vector(len: usize) -> Self {
        TensorShape::Vector { len }
    }

    /// Elements per sample.
    pub fn elements(&self) -> u64 {
        match *self {
            TensorShape::Chw { c, h, w } => (c as u64) * (h as u64) * (w as u64),
            TensorShape::Vector { len } => len as u64,
        }
    }

    /// Bytes per sample at the given precision.
    pub(crate) fn bytes(&self, dtype: DataType) -> u64 {
        self.elements() * dtype.size_bytes()
    }

    /// Channel count: `c` for feature maps, `len` for vectors.
    pub(crate) fn channels(&self) -> usize {
        match *self {
            TensorShape::Chw { c, .. } => c,
            TensorShape::Vector { len } => len,
        }
    }

    /// Spatial size `(h, w)`; vectors are `1 × 1`.
    pub(crate) fn spatial(&self) -> (usize, usize) {
        match *self {
            TensorShape::Chw { h, w, .. } => (h, w),
            TensorShape::Vector { .. } => (1, 1),
        }
    }

    /// Flattens a feature map into a vector shape (e.g. before an FC layer).
    pub(crate) fn flattened(&self) -> TensorShape {
        TensorShape::vector(self.elements() as usize)
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TensorShape::Chw { c, h, w } => write!(f, "{c}x{h}x{w}"),
            TensorShape::Vector { len } => write!(f, "{len}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_and_byte_counts() {
        let s = TensorShape::chw(3, 227, 227);
        assert_eq!(s.elements(), 3 * 227 * 227);
        assert_eq!(s.bytes(DataType::F32), 3 * 227 * 227 * 4);
        assert_eq!(s.bytes(DataType::F16), 3 * 227 * 227 * 2);
    }

    #[test]
    fn vector_shape() {
        let v = TensorShape::vector(4096);
        assert_eq!(v.elements(), 4096);
        assert_eq!(v.channels(), 4096);
        assert_eq!(v.spatial(), (1, 1));
    }

    #[test]
    fn flatten_preserves_elements() {
        let s = TensorShape::chw(256, 6, 6);
        assert_eq!(s.flattened(), TensorShape::vector(9216));
        assert_eq!(s.flattened().elements(), s.elements());
    }

    #[test]
    fn display_formats() {
        assert_eq!(TensorShape::chw(64, 56, 56).to_string(), "64x56x56");
        assert_eq!(TensorShape::vector(1000).to_string(), "1000");
        assert_eq!(DataType::F32.to_string(), "f32");
    }
}
