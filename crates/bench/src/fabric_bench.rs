//! The routed-fabric bench behind `mcdla fabric-bench`: measures the
//! flow-level fabric two ways at each device-count scale.
//!
//! * **solver cost** — one all-reduce priced on a standalone
//!   three-plane ring [`RoutedFabric`] (one flow per ring hop per
//!   plane, so the flow count grows with the device count), in µs per
//!   collective; the 1024-device cost is gated by a ceiling;
//! * **end-to-end cost** — the same DC-DLA/VGG-E iteration priced
//!   analytically and through the routed fabric (both monolithic, no
//!   stage cache), in cells/s on each side: what the `topology` knob
//!   costs a sweep.
//!
//! The bench also replays the single-backplane agreement matrix (every
//! design x {2, 4, 8} devices): inside one island the routed ring has
//! dedicated links, so the flow price must collapse to the analytical
//! formula. The worst relative iteration-time error is gated at 1%.

use mcdla_core::{Scenario, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_interconnect::{
    CollectiveKind, CollectiveModel, FabricSpec, FabricTopology, RingShape, RoutedFabric,
};
use mcdla_parallel::ParallelStrategy;
use mcdla_sim::Bytes;

use crate::measure::{sample, sample_pair, secs, Better, Metric};

/// Measured chunks per metric.
const CHUNKS: usize = 9;

/// The committed `BENCH_fabric.json` scales: `(devices, global batch)`.
/// The batch grows with the device count so the data-parallel split
/// stays valid (a worker needs at least one sample).
pub const PAPER_SCALES: [(usize, u64); 3] = [(8, 512), (64, 512), (1024, 4096)];

/// Ceiling on one routed 1024-device all-reduce, in µs.
const ALLREDUCE_1024_CEILING_US: f64 = 2.5e3;

/// Measures one `(devices, batch)` scale; a chunk prices `reps` cells
/// per side.
fn bench_scale(devices: usize, batch: u64, reps: usize) -> Vec<Metric> {
    // The paper's link budget: 50 GB/s collective planes over 8-device
    // backplane islands bridged by a PCIe-share escape channel.
    let spec = FabricSpec {
        devices,
        planes: vec![RingShape::device_ring(devices); 3],
        plane_gbs: 50.0,
        backplane: 8,
        escape_gbs: 8.0,
    };
    let fabric = RoutedFabric::build(FabricTopology::Ring, &spec);
    let model = CollectiveModel::with_link_bandwidth(50.0);
    let allreduce_us = sample(CHUNKS, || {
        1e6 * secs(|| {
            std::hint::black_box(fabric.collective_time(
                &model,
                CollectiveKind::AllReduce,
                Bytes::new(64 << 20),
            ));
        })
    });
    let mut allreduce = Metric::sampled(
        format!("d{devices}.allreduce_us"),
        "us",
        Better::Lower,
        &allreduce_us,
    );
    if devices == 1024 {
        allreduce = allreduce.floor(ALLREDUCE_1024_CEILING_US);
    }

    let analytic = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::VggE,
        ParallelStrategy::DataParallel,
    )
    .with_devices(devices)
    .with_batch(batch);
    let routed = analytic.with_topology(FabricTopology::Ring);
    let cells_per_s = |cell: &Scenario| {
        reps as f64
            / secs(|| {
                for _ in 0..reps {
                    std::hint::black_box(cell.simulate_monolithic());
                }
            })
            .max(1e-9)
    };
    let name = |side: &str| format!("d{devices}.{side}_cells_per_s");
    let pairs = sample_pair(CHUNKS, || cells_per_s(&analytic), || cells_per_s(&routed));
    let (a, r): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    vec![
        Metric::exact(
            format!("d{devices}.flows_per_allreduce"),
            "flows",
            Better::Lower,
            fabric.flows_per_collective() as f64,
        ),
        allreduce,
        Metric::sampled(name("analytic"), "cells/s", Better::Higher, &a),
        Metric::sampled(name("routed"), "cells/s", Better::Higher, &r),
    ]
}

/// Replays the single-backplane agreement matrix (the property the core
/// test suite pins): every design x {2, 4, 8} devices, AlexNet
/// data-parallel, routed ring vs analytical. Returns the worst relative
/// iteration-time error.
fn agreement() -> f64 {
    let mut cells = 0usize;
    let mut max_rel = 0.0f64;
    for design in SystemDesign::ALL {
        for devices in [2usize, 4, 8] {
            let cell = Scenario::new(design, Benchmark::AlexNet, ParallelStrategy::DataParallel)
                .with_devices(devices);
            let a = cell.simulate_monolithic().iteration_time.as_secs_f64();
            let r = cell
                .with_topology(FabricTopology::Ring)
                .simulate_monolithic()
                .iteration_time
                .as_secs_f64();
            max_rel = max_rel.max((r - a).abs() / a);
            cells += 1;
        }
    }
    assert_eq!(cells, 18, "the agreement matrix is 6 designs x 3 sizes");
    max_rel
}

/// Runs the routed-fabric bench at each `(devices, batch)` scale, plus
/// the agreement matrix. A chunk prices `reps` cells per side at 8
/// devices; larger fabrics price proportionally fewer (one call does
/// proportionally more work).
pub fn fabric_bench(reps: usize, scales: &[(usize, u64)]) -> Vec<Metric> {
    let reps = reps.max(1);
    let mut metrics: Vec<Metric> = scales
        .iter()
        .flat_map(|&(devices, batch)| bench_scale(devices, batch, (reps * 8 / devices).max(1)))
        .collect();
    metrics.push(
        Metric::exact("agreement.max_rel_err", "ratio", Better::Lower, agreement()).floor(0.01),
    );
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_bench_reports_scales_and_gates_agreement() {
        // Small scales for a debug-build test; the committed
        // `BENCH_fabric.json` runs `PAPER_SCALES` in release.
        let metrics = fabric_bench(1, &[(8, 512), (16, 512)]);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "d8.flows_per_allreduce",
                "d8.allreduce_us",
                "d8.analytic_cells_per_s",
                "d8.routed_cells_per_s",
                "d16.flows_per_allreduce",
                "d16.allreduce_us",
                "d16.analytic_cells_per_s",
                "d16.routed_cells_per_s",
                "agreement.max_rel_err",
            ]
        );
        for m in &metrics {
            assert!(m.value.is_finite() && m.value >= 0.0, "{m:?}");
        }
        let agreement = metrics.last().unwrap();
        assert!(
            !agreement.misses_floor(),
            "single-backplane ring must agree with the analytical model: {agreement:?}"
        );
    }
}
