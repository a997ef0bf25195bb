//! Synthetic workload generation.
//!
//! [`random_network`] builds seeded random-but-valid CNN/RNN topologies
//! for property-based testing of the simulator stack (any generated
//! network must schedule, virtualize, and simulate without panicking).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layer::{LayerKind, PoolKind, RnnCellKind};
use crate::network::{Application, Network, NetworkBuilder};
use crate::tensor::TensorShape;

/// Generates a random valid network from a seed (deterministic per seed).
///
/// Roughly half the seeds produce CNN-style stacks (convolutions,
/// pooling, occasional residual pairs) and half produce unrolled RNNs.
///
/// # Examples
///
/// ```
/// use mcdla_dnn::generator::random_network;
///
/// let a = random_network(7);
/// let b = random_network(7);
/// assert_eq!(a, b, "same seed, same network");
/// assert!(a.layers().len() > 1);
/// ```
pub fn random_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    if rng.gen_bool(0.5) {
        random_cnn(&mut rng)
    } else {
        random_rnn(&mut rng)
    }
}

fn random_cnn(rng: &mut StdRng) -> Network {
    let mut b = NetworkBuilder::new("random-cnn", Application::ImageRecognition);
    let size = *[32usize, 64, 128, 224]
        .get(rng.gen_range(0..4usize))
        .unwrap();
    let mut x = b.input(TensorShape::chw(3, size, size));
    let stages = rng.gen_range(1..=4usize);
    let mut ch = 8usize << rng.gen_range(0..3);
    let mut spatial = size;
    // Channels `x` actually has: a stage may skip all its convolutions
    // (kernel larger than the remaining spatial size), leaving `x` at the
    // previous width, so the residual pair below must not assume `ch`.
    let mut x_ch = 3usize;
    for stage in 0..stages {
        let convs = rng.gen_range(1..=3usize);
        for i in 0..convs {
            let kernel = [1usize, 3, 5][rng.gen_range(0..3usize)];
            if spatial < kernel {
                break;
            }
            x = b
                .conv(&format!("c{stage}_{i}"), x, ch, kernel, 1, kernel / 2)
                .expect("conv geometry is valid by construction");
            x_ch = ch;
            if rng.gen_bool(0.7) {
                x = b.relu(&format!("r{stage}_{i}"), x).expect("relu");
            }
            if rng.gen_bool(0.3) {
                x = b
                    .unary(&format!("bn{stage}_{i}"), x, LayerKind::BatchNorm)
                    .expect("bn");
            }
        }
        // Residual pair on equal shapes.
        if rng.gen_bool(0.3) && spatial >= 3 {
            let y = b
                .conv(&format!("res{stage}"), x, x_ch, 3, 1, 1)
                .expect("res conv");
            x = b.add(&format!("add{stage}"), x, y).expect("same shape");
        }
        if spatial >= 4 {
            x = b
                .pool(&format!("p{stage}"), x, PoolKind::Max, 2, 2, 0)
                .expect("pool");
            spatial /= 2;
        }
        ch = (ch * 2).min(512);
    }
    let f = b
        .fully_connected("fc", x, rng.gen_range(10..=1000))
        .expect("fc");
    let _ = b.unary("prob", f, LayerKind::Softmax).expect("softmax");
    b.build()
}

fn random_rnn(rng: &mut StdRng) -> Network {
    let kind =
        [RnnCellKind::Vanilla, RnnCellKind::Lstm, RnnCellKind::Gru][rng.gen_range(0..3usize)];
    let hidden = 64usize << rng.gen_range(0..6); // 64..2048
    let steps = rng.gen_range(2..=64usize);
    crate::zoo::rnn(
        Application::SpeechRecognition,
        "random-rnn",
        kind,
        hidden,
        steps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::DataType;

    #[test]
    fn random_networks_are_deterministic_and_valid() {
        for seed in 0..50 {
            let net = random_network(seed);
            assert_eq!(net, random_network(seed), "seed {seed}");
            assert!(net.layers().len() >= 2, "seed {seed}");
            // Shapes propagate: analytics never panic.
            let _ = net.footprint(16, DataType::F32);
            let _ = net.last_consumer();
            let macs: u64 = net.layers().iter().map(|l| l.forward_macs(16)).sum();
            assert!(macs > 0, "seed {seed}");
        }
    }

    #[test]
    fn seeds_cover_both_families() {
        let mut cnn = 0;
        let mut rnn = 0;
        for seed in 0..40 {
            match random_network(seed).name() {
                "random-cnn" => cnn += 1,
                "random-rnn" => rnn += 1,
                other => panic!("unexpected family {other}"),
            }
        }
        assert!(cnn > 5 && rnn > 5, "cnn {cnn}, rnn {rnn}");
    }
}
