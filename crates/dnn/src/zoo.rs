//! The benchmark suite of Table III.
//!
//! Four ImageNet CNNs (AlexNet, GoogLeNet, VGG-E, ResNet) and four
//! DeepBench-derived RNN workloads (vanilla GEMV RNN, two LSTMs, one GRU).
//! Topologies follow the published network definitions; parameter counts are
//! verified against the literature in this module's tests (AlexNet
//! 60,965,224; VGG-19 143,667,240; GoogLeNet 6,998,552; ResNet-34 ≈21.8M).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::layer::{LayerKind, PoolKind, RnnCellKind};
use crate::network::{Application, Network, NetworkBuilder};
use crate::tensor::TensorShape;

/// The eight evaluated workloads (Table III).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// AlexNet — 8 weighted layers, image recognition.
    AlexNet,
    /// GoogLeNet (Inception v1) — 58 weighted layers, image recognition.
    GoogLeNet,
    /// VGG-E (VGG-19) — 19 weighted layers, image recognition.
    VggE,
    /// ResNet-34 — 34 weighted layers, image recognition.
    ResNet,
    /// DeepBench vanilla RNN, h=1760, 50 timesteps, speech recognition.
    RnnGemv,
    /// DeepBench LSTM, h=512, 25 timesteps, machine translation.
    RnnLstm1,
    /// DeepBench LSTM, h=2048, 25 timesteps, language modeling.
    RnnLstm2,
    /// DeepBench GRU, h=2816, 187 timesteps, speech recognition.
    RnnGru,
}

impl Benchmark {
    /// All eight benchmarks in the paper's presentation order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::AlexNet,
        Benchmark::GoogLeNet,
        Benchmark::VggE,
        Benchmark::ResNet,
        Benchmark::RnnGemv,
        Benchmark::RnnLstm1,
        Benchmark::RnnLstm2,
        Benchmark::RnnGru,
    ];

    /// The four CNN benchmarks (used by Fig. 2 and the cDMA sensitivity
    /// study, which apply to CNNs only).
    pub const CNNS: [Benchmark; 4] = [
        Benchmark::AlexNet,
        Benchmark::GoogLeNet,
        Benchmark::VggE,
        Benchmark::ResNet,
    ];

    /// Table III display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::AlexNet => "AlexNet",
            Benchmark::GoogLeNet => "GoogLeNet",
            Benchmark::VggE => "VGG-E",
            Benchmark::ResNet => "ResNet",
            Benchmark::RnnGemv => "RNN-GEMV",
            Benchmark::RnnLstm1 => "RNN-LSTM-1",
            Benchmark::RnnLstm2 => "RNN-LSTM-2",
            Benchmark::RnnGru => "RNN-GRU",
        }
    }

    /// True for the CNN half of the suite.
    #[cfg(test)]
    pub(crate) fn is_cnn(self) -> bool {
        matches!(
            self,
            Benchmark::AlexNet | Benchmark::GoogLeNet | Benchmark::VggE | Benchmark::ResNet
        )
    }

    /// Recurrent timestep count (Table III), `None` for CNNs.
    pub fn timesteps(self) -> Option<usize> {
        match self {
            Benchmark::RnnGemv => Some(50),
            Benchmark::RnnLstm1 | Benchmark::RnnLstm2 => Some(25),
            Benchmark::RnnGru => Some(187),
            _ => None,
        }
    }

    /// Builds the network topology.
    pub fn build(self) -> Network {
        match self {
            Benchmark::AlexNet => alexnet(),
            Benchmark::GoogLeNet => googlenet(),
            Benchmark::VggE => vgg_e(),
            Benchmark::ResNet => resnet34(),
            Benchmark::RnnGemv => rnn(
                Application::SpeechRecognition,
                "RNN-GEMV",
                RnnCellKind::Vanilla,
                1760,
                50,
            ),
            Benchmark::RnnLstm1 => rnn(
                Application::MachineTranslation,
                "RNN-LSTM-1",
                RnnCellKind::Lstm,
                512,
                25,
            ),
            Benchmark::RnnLstm2 => rnn(
                Application::LanguageModeling,
                "RNN-LSTM-2",
                RnnCellKind::Lstm,
                2048,
                25,
            ),
            Benchmark::RnnGru => rnn(
                Application::SpeechRecognition,
                "RNN-GRU",
                RnnCellKind::Gru,
                2816,
                187,
            ),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// AlexNet with the original grouped (two-tower) convolutions.
pub(crate) fn alexnet() -> Network {
    let mut b = NetworkBuilder::new("AlexNet", Application::ImageRecognition);
    let x = b.input(TensorShape::chw(3, 227, 227));
    let c1 = b.conv("conv1", x, 96, 11, 4, 0).expect("conv1");
    let r1 = b.relu("relu1", c1).expect("relu1");
    let n1 = b.unary("norm1", r1, LayerKind::Lrn).expect("norm1");
    let p1 = b.pool("pool1", n1, PoolKind::Max, 3, 2, 0).expect("pool1");
    let c2 = b.conv_grouped("conv2", p1, 256, 5, 1, 2, 2).expect("conv2");
    let r2 = b.relu("relu2", c2).expect("relu2");
    let n2 = b.unary("norm2", r2, LayerKind::Lrn).expect("norm2");
    let p2 = b.pool("pool2", n2, PoolKind::Max, 3, 2, 0).expect("pool2");
    let c3 = b.conv("conv3", p2, 384, 3, 1, 1).expect("conv3");
    let r3 = b.relu("relu3", c3).expect("relu3");
    let c4 = b.conv_grouped("conv4", r3, 384, 3, 1, 1, 2).expect("conv4");
    let r4 = b.relu("relu4", c4).expect("relu4");
    let c5 = b.conv_grouped("conv5", r4, 256, 3, 1, 1, 2).expect("conv5");
    let r5 = b.relu("relu5", c5).expect("relu5");
    let p5 = b.pool("pool5", r5, PoolKind::Max, 3, 2, 0).expect("pool5");
    let f6 = b.fully_connected("fc6", p5, 4096).expect("fc6");
    let r6 = b.relu("relu6", f6).expect("relu6");
    let d6 = b.unary("drop6", r6, LayerKind::Dropout).expect("drop6");
    let f7 = b.fully_connected("fc7", d6, 4096).expect("fc7");
    let r7 = b.relu("relu7", f7).expect("relu7");
    let d7 = b.unary("drop7", r7, LayerKind::Dropout).expect("drop7");
    let f8 = b.fully_connected("fc8", d7, 1000).expect("fc8");
    let _ = b.unary("prob", f8, LayerKind::Softmax).expect("prob");
    b.build()
}

/// VGG-E (VGG-19): sixteen 3x3 convolutions in five blocks plus three FCs.
pub(crate) fn vgg_e() -> Network {
    let mut b = NetworkBuilder::new("VGG-E", Application::ImageRecognition);
    let mut prev = b.input(TensorShape::chw(3, 224, 224));
    let blocks: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 4), (512, 4), (512, 4)];
    for (bi, (ch, n)) in blocks.iter().enumerate() {
        for li in 0..*n {
            let name = format!("conv{}_{}", bi + 1, li + 1);
            prev = b.conv(&name, prev, *ch, 3, 1, 1).expect("conv");
            prev = b
                .relu(&format!("relu{}_{}", bi + 1, li + 1), prev)
                .expect("relu");
        }
        prev = b
            .pool(&format!("pool{}", bi + 1), prev, PoolKind::Max, 2, 2, 0)
            .expect("pool");
    }
    let f6 = b.fully_connected("fc6", prev, 4096).expect("fc6");
    let r6 = b.relu("relu6", f6).expect("relu6");
    let d6 = b.unary("drop6", r6, LayerKind::Dropout).expect("drop6");
    let f7 = b.fully_connected("fc7", d6, 4096).expect("fc7");
    let r7 = b.relu("relu7", f7).expect("relu7");
    let d7 = b.unary("drop7", r7, LayerKind::Dropout).expect("drop7");
    let f8 = b.fully_connected("fc8", d7, 1000).expect("fc8");
    let _ = b.unary("prob", f8, LayerKind::Softmax).expect("prob");
    b.build()
}

/// One inception module: four parallel branches concatenated channel-wise.
#[allow(clippy::too_many_arguments)]
fn inception(
    b: &mut NetworkBuilder,
    name: &str,
    input: crate::LayerId,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    pp: usize,
) -> crate::LayerId {
    let b1 = b
        .conv(&format!("{name}/1x1"), input, c1, 1, 1, 0)
        .expect("1x1");
    let b1 = b.relu(&format!("{name}/relu_1x1"), b1).expect("relu");
    let b3r = b
        .conv(&format!("{name}/3x3_reduce"), input, c3r, 1, 1, 0)
        .expect("3x3r");
    let b3r = b.relu(&format!("{name}/relu_3x3r"), b3r).expect("relu");
    let b3 = b
        .conv(&format!("{name}/3x3"), b3r, c3, 3, 1, 1)
        .expect("3x3");
    let b3 = b.relu(&format!("{name}/relu_3x3"), b3).expect("relu");
    let b5r = b
        .conv(&format!("{name}/5x5_reduce"), input, c5r, 1, 1, 0)
        .expect("5x5r");
    let b5r = b.relu(&format!("{name}/relu_5x5r"), b5r).expect("relu");
    let b5 = b
        .conv(&format!("{name}/5x5"), b5r, c5, 5, 1, 2)
        .expect("5x5");
    let b5 = b.relu(&format!("{name}/relu_5x5"), b5).expect("relu");
    let bp = b
        .pool(&format!("{name}/pool"), input, PoolKind::Max, 3, 1, 1)
        .expect("pool");
    let bp = b
        .conv(&format!("{name}/pool_proj"), bp, pp, 1, 1, 0)
        .expect("pool_proj");
    let bp = b.relu(&format!("{name}/relu_pp"), bp).expect("relu");
    b.concat(&format!("{name}/output"), &[b1, b3, b5, bp])
        .expect("concat")
}

/// GoogLeNet (Inception v1) without auxiliary classifiers: 58 weighted
/// layers (3 stem convs + 9 modules x 6 convs + 1 FC).
pub(crate) fn googlenet() -> Network {
    let mut b = NetworkBuilder::new("GoogLeNet", Application::ImageRecognition);
    let x = b.input(TensorShape::chw(3, 224, 224));
    let c1 = b.conv("conv1/7x7_s2", x, 64, 7, 2, 3).expect("conv1");
    let r1 = b.relu("conv1/relu", c1).expect("relu");
    let p1 = b
        .pool("pool1/3x3_s2", r1, PoolKind::Max, 3, 2, 0)
        .expect("pool1");
    let n1 = b.unary("pool1/norm1", p1, LayerKind::Lrn).expect("norm1");
    let c2r = b.conv("conv2/3x3_reduce", n1, 64, 1, 1, 0).expect("conv2r");
    let r2r = b.relu("conv2/relu_r", c2r).expect("relu");
    let c2 = b.conv("conv2/3x3", r2r, 192, 3, 1, 1).expect("conv2");
    let r2 = b.relu("conv2/relu", c2).expect("relu");
    let n2 = b.unary("conv2/norm2", r2, LayerKind::Lrn).expect("norm2");
    let p2 = b
        .pool("pool2/3x3_s2", n2, PoolKind::Max, 3, 2, 0)
        .expect("pool2");

    let i3a = inception(&mut b, "inception_3a", p2, 64, 96, 128, 16, 32, 32);
    let i3b = inception(&mut b, "inception_3b", i3a, 128, 128, 192, 32, 96, 64);
    let p3 = b
        .pool("pool3/3x3_s2", i3b, PoolKind::Max, 3, 2, 0)
        .expect("pool3");
    let i4a = inception(&mut b, "inception_4a", p3, 192, 96, 208, 16, 48, 64);
    let i4b = inception(&mut b, "inception_4b", i4a, 160, 112, 224, 24, 64, 64);
    let i4c = inception(&mut b, "inception_4c", i4b, 128, 128, 256, 24, 64, 64);
    let i4d = inception(&mut b, "inception_4d", i4c, 112, 144, 288, 32, 64, 64);
    let i4e = inception(&mut b, "inception_4e", i4d, 256, 160, 320, 32, 128, 128);
    let p4 = b
        .pool("pool4/3x3_s2", i4e, PoolKind::Max, 3, 2, 0)
        .expect("pool4");
    let i5a = inception(&mut b, "inception_5a", p4, 256, 160, 320, 32, 128, 128);
    let i5b = inception(&mut b, "inception_5b", i5a, 384, 192, 384, 48, 128, 128);

    let gp = b.global_avg_pool("pool5/7x7_s1", i5b).expect("gap");
    let dp = b.unary("pool5/drop", gp, LayerKind::Dropout).expect("drop");
    let fc = b.fully_connected("loss3/classifier", dp, 1000).expect("fc");
    let _ = b.unary("prob", fc, LayerKind::Softmax).expect("prob");
    b.build()
}

/// One ResNet basic block (two 3x3 convolutions plus identity or projection
/// shortcut).
fn basic_block(
    b: &mut NetworkBuilder,
    name: &str,
    input: crate::LayerId,
    channels: usize,
    stride: usize,
    project: bool,
) -> crate::LayerId {
    let c1 = b
        .conv(&format!("{name}/conv1"), input, channels, 3, stride, 1)
        .expect("conv1");
    let n1 = b
        .unary(&format!("{name}/bn1"), c1, LayerKind::BatchNorm)
        .expect("bn1");
    let r1 = b.relu(&format!("{name}/relu1"), n1).expect("relu1");
    let c2 = b
        .conv(&format!("{name}/conv2"), r1, channels, 3, 1, 1)
        .expect("conv2");
    let n2 = b
        .unary(&format!("{name}/bn2"), c2, LayerKind::BatchNorm)
        .expect("bn2");
    let shortcut = if project {
        let p = b
            .conv_shortcut(&format!("{name}/proj"), input, channels, 1, stride, 0)
            .expect("proj");
        b.unary(&format!("{name}/proj_bn"), p, LayerKind::BatchNorm)
            .expect("proj_bn")
    } else {
        input
    };
    let s = b.add(&format!("{name}/add"), n2, shortcut).expect("add");
    b.relu(&format!("{name}/relu2"), s).expect("relu2")
}

/// ResNet-34: 33 depth-counting convolutions plus one FC.
pub(crate) fn resnet34() -> Network {
    let mut b = NetworkBuilder::new("ResNet", Application::ImageRecognition);
    let x = b.input(TensorShape::chw(3, 224, 224));
    let c1 = b.conv("conv1", x, 64, 7, 2, 3).expect("conv1");
    let n1 = b.unary("bn1", c1, LayerKind::BatchNorm).expect("bn1");
    let r1 = b.relu("relu1", n1).expect("relu1");
    let mut prev = b
        .pool_floor("pool1", r1, PoolKind::Max, 3, 2, 1)
        .expect("pool1");
    let stages: [(usize, usize); 4] = [(64, 3), (128, 4), (256, 6), (512, 3)];
    for (si, (ch, blocks)) in stages.iter().enumerate() {
        for bi in 0..*blocks {
            let first_of_downsampling_stage = bi == 0 && si > 0;
            let stride = if first_of_downsampling_stage { 2 } else { 1 };
            prev = basic_block(
                &mut b,
                &format!("conv{}_{}", si + 2, bi + 1),
                prev,
                *ch,
                stride,
                first_of_downsampling_stage,
            );
        }
    }
    let gp = b.global_avg_pool("avgpool", prev).expect("gap");
    let fc = b.fully_connected("fc", gp, 1000).expect("fc");
    let _ = b.unary("prob", fc, LayerKind::Softmax).expect("prob");
    b.build()
}

/// A DeepBench-style unrolled recurrent network: `timesteps` cells of the
/// given flavor with `input = hidden` widths, as in the DeepBench RNN
/// kernels. All timesteps share one physical weight tensor.
pub fn rnn(
    application: Application,
    name: &str,
    kind: RnnCellKind,
    hidden: usize,
    timesteps: usize,
) -> Network {
    let mut b = NetworkBuilder::new(name, application);
    let mut prev = b.input(TensorShape::vector(hidden));
    let mut first_cell = None;
    for t in 0..timesteps {
        prev = b
            .rnn_cell(&format!("t{t}"), prev, kind, hidden, hidden)
            .expect("rnn cell");
        match first_cell {
            None => first_cell = Some(prev),
            Some(cell0) => b.share_weights(prev, cell0).expect("share weights"),
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::DataType;

    #[test]
    fn table3_depths() {
        assert_eq!(alexnet().weighted_depth(), 8);
        assert_eq!(googlenet().weighted_depth(), 58);
        assert_eq!(vgg_e().weighted_depth(), 19);
        assert_eq!(resnet34().weighted_depth(), 34);
        assert_eq!(Benchmark::RnnGemv.build().weighted_depth(), 50);
        assert_eq!(Benchmark::RnnLstm1.build().weighted_depth(), 25);
        assert_eq!(Benchmark::RnnLstm2.build().weighted_depth(), 25);
        assert_eq!(Benchmark::RnnGru.build().weighted_depth(), 187);
    }

    #[test]
    fn alexnet_params_match_literature() {
        assert_eq!(alexnet().total_params(), 60_965_224);
    }

    #[test]
    fn vgg19_params_match_literature() {
        assert_eq!(vgg_e().total_params(), 143_667_240);
    }

    #[test]
    fn googlenet_params_match_literature() {
        assert_eq!(googlenet().total_params(), 6_998_552);
    }

    #[test]
    fn resnet34_params_match_literature() {
        // torchvision reports 21,797,672 including batch-norm affine
        // parameters; convolutions+biases alone come to 21,789,160.
        let p = resnet34().total_params();
        assert_eq!(p, 21_789_160);
        assert!((p as f64 - 21_797_672.0).abs() / 21_797_672.0 < 0.005);
    }

    #[test]
    fn alexnet_shapes_match_literature() {
        let n = alexnet();
        let conv1 = &n.layers()[1];
        assert_eq!(conv1.output_shape(), &TensorShape::chw(96, 55, 55));
        let fc6 = n
            .layers()
            .iter()
            .find(|l| l.name() == "fc6")
            .expect("fc6 exists");
        assert_eq!(fc6.input_shape().elements(), 9216);
    }

    #[test]
    fn googlenet_inception_output_channels() {
        let n = googlenet();
        let by_name = |s: &str| {
            n.layers()
                .iter()
                .find(|l| l.name() == s)
                .unwrap_or_else(|| panic!("layer {s}"))
        };
        assert_eq!(
            by_name("inception_3a/output").output_shape().channels(),
            256
        );
        assert_eq!(
            by_name("inception_3b/output").output_shape().channels(),
            480
        );
        assert_eq!(
            by_name("inception_4e/output").output_shape().channels(),
            832
        );
        assert_eq!(
            by_name("inception_5b/output").output_shape().channels(),
            1024
        );
        // Spatial sizes: 28 at stage 3, 14 at stage 4, 7 at stage 5.
        assert_eq!(
            by_name("inception_3a/output").output_shape().spatial(),
            (28, 28)
        );
        assert_eq!(
            by_name("inception_4a/output").output_shape().spatial(),
            (14, 14)
        );
        assert_eq!(
            by_name("inception_5a/output").output_shape().spatial(),
            (7, 7)
        );
    }

    #[test]
    fn resnet_stage_shapes() {
        let n = resnet34();
        let fc = n.layers().iter().find(|l| l.name() == "fc").expect("fc");
        assert_eq!(fc.input_shape().elements(), 512);
        // Stem pooling: 224 -> 112 -> 56.
        let pool1 = n
            .layers()
            .iter()
            .find(|l| l.name() == "pool1")
            .expect("pool1");
        assert_eq!(pool1.output_shape(), &TensorShape::chw(64, 56, 56));
    }

    #[test]
    fn cnn_feature_maps_dominate_weights_and_rnns_invert() {
        // §V-A: conv layers' feature maps dominate their weights; recurrent
        // layers' weights take a larger fraction than their feature maps.
        let batch = 64;
        let vgg = vgg_e().footprint(batch, DataType::F32);
        assert!(
            vgg.stashed_activation_bytes > vgg.weight_bytes,
            "VGG activations should dominate at batch {batch}"
        );
        // Per-layer view for the recurrent case: one LSTM cell's weight
        // tensor is far larger than its per-timestep activation stash.
        let lstm = Benchmark::RnnLstm2.build();
        let cell = &lstm.layers()[1];
        assert!(
            cell.weight_bytes(DataType::F32) > cell.stash_bytes(batch, DataType::F32),
            "LSTM cell weights should dominate: {} vs {}",
            cell.weight_bytes(DataType::F32),
            cell.stash_bytes(batch, DataType::F32)
        );
    }

    #[test]
    fn rnn_timesteps_share_one_weight_tensor() {
        let net = Benchmark::RnnLstm1.build(); // h = 512, t = 25
                                               // Parameters count one cell, not 25.
        let one_cell = 4 * ((512 + 512) * 512 + 512) as u64;
        assert_eq!(net.total_params(), one_cell);
        assert_eq!(net.unique_weight_layers().count(), 1);
        // All cells are in timestep 0's sharing group.
        let g0 = net.layers()[1].weight_group();
        assert!(net.layers().iter().skip(1).all(|l| l.weight_group() == g0));
    }

    #[test]
    fn benchmark_enum_round_trips() {
        for bm in Benchmark::ALL {
            let n = bm.build();
            assert_eq!(n.name(), bm.name());
            if bm.is_cnn() {
                assert_eq!(bm.timesteps(), None);
            } else {
                assert_eq!(bm.timesteps(), Some(n.weighted_depth()));
            }
        }
        assert_eq!(Benchmark::CNNS.len(), 4);
        assert!(Benchmark::CNNS.iter().all(|b| b.is_cnn()));
    }

    #[test]
    fn memory_scales_linearly_with_depth() {
        // §II-B: O(N) memory cost in network depth.
        let short = rnn(
            Application::SpeechRecognition,
            "short",
            RnnCellKind::Lstm,
            1024,
            10,
        );
        let long = rnn(
            Application::SpeechRecognition,
            "long",
            RnnCellKind::Lstm,
            1024,
            40,
        );
        let fs = short.footprint(64, DataType::F32);
        let fl = long.footprint(64, DataType::F32);
        assert_eq!(fl.stashed_activation_bytes, 4 * fs.stashed_activation_bytes);
        // Virtualized footprint is O(1) in depth.
        assert_eq!(fl.peak_live_bytes, fs.peak_live_bytes);
    }
}
