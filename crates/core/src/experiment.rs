//! The paper's evaluation experiments (§V), packaged as reusable runners.
//!
//! Each function reproduces the data behind one table or figure; the
//! `mcdla-bench` harness formats them into the paper's rows/series.
//!
//! Every runner is phrased as a [`Scenario`] grid handed to the shared
//! [`global_runner`]: cells execute across
//! worker threads (`MCDLA_THREADS` controls the count) and land in a
//! process-wide memo cache, so figures that share cells — Fig. 11 and
//! Fig. 13 span the same 96-cell matrix, every §V-B study reuses the
//! DC-DLA baselines — simulate each cell exactly once per process.

use mcdla_accel::DeviceGeneration;
use mcdla_dnn::Benchmark;
use mcdla_parallel::ParallelStrategy;
use mcdla_sim::stats::harmonic_mean;
use serde::{Deserialize, Serialize};

use crate::design::{SystemConfig, SystemDesign};
use crate::engine::IterationSim;
use crate::report::IterationReport;
use crate::scenario::{global_runner, DeviceModel, Scenario, ScenarioGrid};

/// Runs one (design, benchmark, strategy) cell with paper-default
/// configuration, memoized through the shared scenario runner.
pub fn simulate(
    design: SystemDesign,
    benchmark: Benchmark,
    strategy: ParallelStrategy,
) -> IterationReport {
    global_runner().run(Scenario::new(design, benchmark, strategy))
}

/// Runs one cell with an explicit configuration (uncached: arbitrary
/// configurations have no scenario key).
pub(crate) fn simulate_with(
    cfg: SystemConfig,
    benchmark: Benchmark,
    strategy: ParallelStrategy,
) -> IterationReport {
    let net = benchmark.build();
    IterationSim::new(cfg, &net, strategy).run()
}

/// One benchmark's row of Figure 13: performance per design, normalized to
/// the fastest design (the oracle).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig13Row {
    /// Benchmark name.
    pub benchmark: String,
    /// `(design, normalized performance)` in [`SystemDesign::ALL`] order.
    pub performance: Vec<(SystemDesign, f64)>,
}

/// Figure 13 data for one parallelization strategy.
pub fn fig13(strategy: ParallelStrategy) -> Vec<Fig13Row> {
    let grid = ScenarioGrid::paper_default().strategies(&[strategy]);
    let reports = global_runner().run_grid(&grid.scenarios());
    // Benchmark-major expansion: one chunk of SystemDesign::ALL per row.
    reports
        .chunks(SystemDesign::ALL.len())
        .zip(Benchmark::ALL)
        .map(|(reports, bm)| {
            let best = reports
                .iter()
                .map(IterationReport::performance)
                .fold(f64::MIN, f64::max);
            Fig13Row {
                benchmark: bm.name().to_owned(),
                performance: reports
                    .iter()
                    .map(|r| (r.design, r.performance() / best))
                    .collect(),
            }
        })
        .collect()
}

/// Speedups of `design` over DC-DLA across the suite, plus the harmonic
/// mean the paper reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupSummary {
    /// Design compared against DC-DLA.
    pub design: SystemDesign,
    /// Strategy evaluated.
    pub strategy: ParallelStrategy,
    /// `(benchmark, speedup)` per workload.
    pub per_benchmark: Vec<(String, f64)>,
    /// Harmonic mean over the suite (§V: all averages are harmonic means).
    pub harmonic_mean: f64,
}

/// Speedup of a design over DC-DLA for one strategy, over the full suite.
pub fn speedup_vs_dc(design: SystemDesign, strategy: ParallelStrategy) -> SpeedupSummary {
    speedup_vs_dc_scenarios(design, strategy, &Benchmark::ALL, |s| s)
}

/// Like [`speedup_vs_dc`] with a benchmark subset and a scenario
/// transformation applied to **both** the design and the DC-DLA baseline
/// — the memoized, parallel path for every standard study.
pub(crate) fn speedup_vs_dc_scenarios(
    design: SystemDesign,
    strategy: ParallelStrategy,
    benchmarks: &[Benchmark],
    modify: impl Fn(Scenario) -> Scenario,
) -> SpeedupSummary {
    let mut cells = Vec::with_capacity(benchmarks.len() * 2);
    for bm in benchmarks {
        cells.push(modify(Scenario::new(SystemDesign::DcDla, *bm, strategy)));
        cells.push(modify(Scenario::new(design, *bm, strategy)));
    }
    let reports = global_runner().run_grid(&cells);
    let per_benchmark: Vec<(String, f64)> = benchmarks
        .iter()
        .zip(reports.chunks(2))
        .map(|(bm, pair)| (bm.name().to_owned(), pair[1].speedup_over(&pair[0])))
        .collect();
    let values: Vec<f64> = per_benchmark.iter().map(|(_, s)| *s).collect();
    SpeedupSummary {
        design,
        strategy,
        harmonic_mean: harmonic_mean(&values).unwrap_or(0.0),
        per_benchmark,
    }
}

/// Like [`speedup_vs_dc`] with a benchmark subset and arbitrary config
/// customization (applied to **both** the design and the DC-DLA
/// baseline). Arbitrary configurations cannot be keyed by a scenario, so
/// this path is uncached, unlike the scenario-keyed studies in this
/// module.
pub fn speedup_vs_dc_with(
    design: SystemDesign,
    strategy: ParallelStrategy,
    benchmarks: &[Benchmark],
    mut config: impl FnMut(SystemDesign) -> SystemConfig,
) -> SpeedupSummary {
    let mut per_benchmark = Vec::new();
    for bm in benchmarks {
        let dc = simulate_with(config(SystemDesign::DcDla), *bm, strategy);
        let d = simulate_with(config(design), *bm, strategy);
        per_benchmark.push((bm.name().to_owned(), d.speedup_over(&dc)));
    }
    let values: Vec<f64> = per_benchmark.iter().map(|(_, s)| *s).collect();
    SpeedupSummary {
        design,
        strategy,
        harmonic_mean: harmonic_mean(&values).unwrap_or(0.0),
        per_benchmark,
    }
}

/// The paper's headline: MC-DLA(B) speedup over DC-DLA, harmonic-mean over
/// both strategies and all eight workloads (the quoted "average 2.8x").
pub fn headline_speedup() -> f64 {
    let mut all = Vec::new();
    for strategy in ParallelStrategy::ALL {
        let s = speedup_vs_dc(SystemDesign::McDlaBwAware, strategy);
        all.extend(s.per_benchmark.iter().map(|(_, v)| *v));
    }
    harmonic_mean(&all).unwrap_or(0.0)
}

/// One Fig. 11 stacked bar: the three busy-time components, normalized to
/// the tallest stack of the benchmark's group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig11Bar {
    /// Benchmark name.
    pub benchmark: String,
    /// Design point.
    pub design: SystemDesign,
    /// Normalized (computation, synchronization, memory virtualization).
    pub stack: [f64; 3],
}

/// Figure 11 data for one strategy: per benchmark, one stacked bar per
/// design, normalized to the tallest stack within the benchmark.
pub fn fig11(strategy: ParallelStrategy) -> Vec<Fig11Bar> {
    let grid = ScenarioGrid::paper_default().strategies(&[strategy]);
    let reports = global_runner().run_grid(&grid.scenarios());
    let mut bars = Vec::new();
    for (reports, bm) in reports.chunks(SystemDesign::ALL.len()).zip(Benchmark::ALL) {
        let tallest = reports
            .iter()
            .map(|r| r.breakdown_secs().iter().sum::<f64>())
            .fold(f64::MIN, f64::max);
        for r in reports {
            let b = r.breakdown_secs();
            bars.push(Fig11Bar {
                benchmark: bm.name().to_owned(),
                design: r.design,
                stack: [b[0] / tallest, b[1] / tallest, b[2] / tallest],
            });
        }
    }
    bars
}

/// One Fig. 12 group: CPU memory-bandwidth usage of a benchmark under one
/// design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Row {
    /// Design point (DC-DLA, HC-DLA, MC-DLA(B)).
    pub design: SystemDesign,
    /// Benchmark name.
    pub benchmark: String,
    /// Average draw per socket, data-parallel (GB/s).
    pub avg_data_parallel_gbs: f64,
    /// Average draw per socket, model-parallel (GB/s).
    pub avg_model_parallel_gbs: f64,
    /// Peak draw per socket (GB/s), max over both strategies.
    pub max_gbs: f64,
}

/// Figure 12 data: DC-DLA, HC-DLA and MC-DLA CPU memory-bandwidth usage.
pub fn fig12() -> Vec<Fig12Row> {
    let designs = [
        SystemDesign::DcDla,
        SystemDesign::HcDla,
        SystemDesign::McDlaBwAware,
    ];
    let mut cells = Vec::new();
    for design in designs {
        for bm in Benchmark::ALL {
            for strategy in ParallelStrategy::ALL {
                cells.push(Scenario::new(design, bm, strategy));
            }
        }
    }
    let reports = global_runner().run_grid(&cells);
    reports
        .chunks(2)
        .map(|pair| {
            let (dp, mp) = (&pair[0], &pair[1]);
            Fig12Row {
                design: dp.design,
                benchmark: dp.benchmark.clone(),
                avg_data_parallel_gbs: dp.cpu_socket_avg_gbs,
                avg_model_parallel_gbs: mp.cpu_socket_avg_gbs,
                max_gbs: dp.cpu_socket_max_gbs.max(mp.cpu_socket_max_gbs),
            }
        })
        .collect()
}

/// One Fig. 14 cell: MC-DLA(B) speedup over DC-DLA at a batch size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig14Cell {
    /// Global batch size.
    pub batch: u64,
    /// Strategy.
    pub strategy: ParallelStrategy,
    /// Benchmark name (`"HarMean"` for the aggregate).
    pub benchmark: String,
    /// Speedup over DC-DLA at the same batch.
    pub speedup: f64,
}

/// Figure 14 data: batch-size sensitivity (paper sweeps 128–2048).
pub fn fig14(batches: &[u64]) -> Vec<Fig14Cell> {
    let mut cells = Vec::new();
    for &batch in batches {
        for strategy in ParallelStrategy::ALL {
            let summary = speedup_vs_dc_scenarios(
                SystemDesign::McDlaBwAware,
                strategy,
                &Benchmark::ALL,
                |s| s.with_batch(batch),
            );
            for (bm, s) in &summary.per_benchmark {
                cells.push(Fig14Cell {
                    batch,
                    strategy,
                    benchmark: bm.clone(),
                    speedup: *s,
                });
            }
            cells.push(Fig14Cell {
                batch,
                strategy,
                benchmark: "HarMean".to_owned(),
                speedup: summary.harmonic_mean,
            });
        }
    }
    cells
}

/// One Fig. 2 cell: a CNN on one historical device generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Cell {
    /// CNN benchmark.
    pub benchmark: String,
    /// Device generation.
    pub generation: DeviceGeneration,
    /// Execution time normalized to the benchmark's Kepler time.
    pub normalized_time: f64,
    /// Memory-virtualization overhead fraction (right axis of Fig. 2).
    pub overhead: f64,
}

/// Figure 2 data: single-device execution time across five accelerator
/// generations (PCIe gen3 fixed) plus the virtualization overhead.
pub fn fig2() -> Vec<Fig2Cell> {
    let grid = ScenarioGrid::paper_default()
        .designs(&[SystemDesign::DcDla, SystemDesign::DcDlaOracle])
        .benchmarks(&Benchmark::CNNS)
        .strategies(&[ParallelStrategy::DataParallel])
        .device_counts(&[1])
        .generations(&DeviceGeneration::ALL);
    let runs = global_runner().run_grid(&grid.scenarios());
    // Benchmark-major, then design (DC virt, then oracle), then generation.
    let per_design = DeviceGeneration::ALL.len();
    let mut cells = Vec::new();
    for (chunk, bm) in runs.chunks(2 * per_design).zip(Benchmark::CNNS) {
        let (virts, oracles) = chunk.split_at(per_design);
        let mut kepler_time = None;
        for ((virt, oracle), generation) in virts.iter().zip(oracles).zip(DeviceGeneration::ALL) {
            // Left axis: plain execution time (no virtualization) — the
            // 20x-34x device-compute trend. Right axis: the overhead once
            // memory is virtualized over the fixed PCIe gen3 interface.
            let t = oracle.iteration_time.as_secs_f64();
            let base = *kepler_time.get_or_insert(t);
            cells.push(Fig2Cell {
                benchmark: bm.name().to_owned(),
                generation,
                normalized_time: t / base,
                overhead: virt.virtualization_overhead_vs(oracle),
            });
        }
    }
    cells
}

/// One §V-D scalability row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalabilityRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Device count.
    pub devices: usize,
    /// DC-DLA speedup over its 1-device run, virtualization enabled.
    pub dc_virt_on: f64,
    /// DC-DLA speedup with virtualization disabled (near-linear).
    pub dc_virt_off: f64,
    /// MC-DLA(B) speedup over its 1-device run.
    pub mc: f64,
}

/// §V-D: strong-scaling of data-parallel CNN training to 1/2/4/8 devices.
pub fn scalability(benchmarks: &[Benchmark]) -> Vec<ScalabilityRow> {
    const DESIGNS: [SystemDesign; 3] = [
        SystemDesign::DcDla,
        SystemDesign::DcDlaOracle,
        SystemDesign::McDlaBwAware,
    ];
    const COUNTS: [usize; 4] = [1, 2, 4, 8];
    let grid = ScenarioGrid::paper_default()
        .designs(&DESIGNS)
        .benchmarks(benchmarks)
        .strategies(&[ParallelStrategy::DataParallel])
        .device_counts(&COUNTS);
    let runs = global_runner().run_grid(&grid.scenarios());
    let mut rows = Vec::new();
    for (chunk, bm) in runs.chunks(DESIGNS.len() * COUNTS.len()).zip(benchmarks) {
        let secs = |design_idx: usize, count_idx: usize| {
            chunk[design_idx * COUNTS.len() + count_idx]
                .iteration_time
                .as_secs_f64()
        };
        for (count_idx, devices) in COUNTS.iter().enumerate().skip(1) {
            rows.push(ScalabilityRow {
                benchmark: bm.name().to_owned(),
                devices: *devices,
                dc_virt_on: secs(0, 0) / secs(0, count_idx),
                dc_virt_off: secs(1, 0) / secs(1, count_idx),
                mc: secs(2, 0) / secs(2, count_idx),
            });
        }
    }
    rows
}

/// The §V-B sensitivity studies, as MC-DLA(B)-over-DC-DLA harmonic-mean
/// speedups under modified configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivitySummary {
    /// Baseline gap (paper: 2.8x).
    pub baseline: f64,
    /// DC-DLA's own improvement from PCIe gen4 (paper: +38%).
    pub dc_gen4_improvement: f64,
    /// Gap with PCIe gen4 DC-DLA (paper: 2.1x).
    pub gen4_gap: f64,
    /// Gap with a TPUv2-class device-node (paper: 3.2x).
    pub faster_device_gap: f64,
    /// Gap with a DGX-2-class node (paper: 2.9x).
    pub dgx2_gap: f64,
    /// Gap on CNNs with cDMA-style 2.6x activation compression
    /// (paper: 2.3x).
    pub cdma_cnn_gap: f64,
}

/// Runs all §V-B sensitivity studies.
pub fn sensitivity() -> SensitivitySummary {
    let gap = |modify: &dyn Fn(Scenario) -> Scenario, benchmarks: &[Benchmark]| {
        let mut all = Vec::new();
        for strategy in ParallelStrategy::ALL {
            let s =
                speedup_vs_dc_scenarios(SystemDesign::McDlaBwAware, strategy, benchmarks, modify);
            all.extend(s.per_benchmark.iter().map(|(_, v)| *v));
        }
        harmonic_mean(&all).unwrap_or(0.0)
    };
    let baseline = gap(&|s| s, &Benchmark::ALL);
    let gen4_gap = gap(&Scenario::with_pcie_gen4, &Benchmark::ALL);
    let faster_device_gap = gap(
        &|s| s.with_device_model(DeviceModel::TpuV2Like),
        &Benchmark::ALL,
    );
    let dgx2_gap = gap(
        &|s| s.with_device_model(DeviceModel::Dgx2Like),
        &Benchmark::ALL,
    );
    let cdma_cnn_gap = gap(&|s| s.with_compression(2.6), &Benchmark::CNNS);
    // DC-DLA gen4 vs gen3 improvement, as one paired grid.
    let mut cells = Vec::new();
    for strategy in ParallelStrategy::ALL {
        for bm in Benchmark::ALL {
            cells.push(Scenario::new(SystemDesign::DcDla, bm, strategy));
            cells.push(Scenario::new(SystemDesign::DcDla, bm, strategy).with_pcie_gen4());
        }
    }
    let runs = global_runner().run_grid(&cells);
    let ratios: Vec<f64> = runs
        .chunks(2)
        .map(|pair| pair[1].speedup_over(&pair[0]))
        .collect();
    SensitivitySummary {
        baseline,
        dc_gen4_improvement: harmonic_mean(&ratios).unwrap_or(0.0) - 1.0,
        gen4_gap,
        faster_device_gap,
        dgx2_gap,
        cdma_cnn_gap,
    }
}

/// One §VI scale-out data point: an NVSwitch-class plane of `devices`
/// device-nodes and as many memory-nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleOutRow {
    /// Device count on the plane.
    pub devices: usize,
    /// Iteration time in seconds (weak scaling: 64 samples per device).
    pub iteration_secs: f64,
    /// Training throughput (samples/sec) relative to the 8-device plane.
    pub throughput_vs_8: f64,
    /// Collective fraction of the iteration.
    pub sync_fraction: f64,
}

/// §VI (Fig. 15): scales the MC-DLA ring beyond one backplane via an
/// NVSwitch-class plane, training data-parallel with 64 samples per device
/// (weak scaling, the large-batch regime of §V-D's citations).
pub fn scale_out(benchmark: Benchmark, device_counts: &[usize]) -> Vec<ScaleOutRow> {
    let cells: Vec<Scenario> = device_counts
        .iter()
        .map(|&devices| {
            Scenario::new(
                SystemDesign::McDlaBwAware,
                benchmark,
                ParallelStrategy::DataParallel,
            )
            .with_devices(devices)
            .with_batch(64 * devices as u64)
        })
        .collect();
    let runs = global_runner().run_grid(&cells);
    let mut rows = Vec::new();
    let mut base: Option<f64> = None;
    for (r, &devices) in runs.iter().zip(device_counts) {
        let t = r.iteration_time.as_secs_f64();
        let throughput = 64.0 * devices as f64 / t;
        let base_tp = *base.get_or_insert(throughput * 8.0 / devices as f64);
        rows.push(ScaleOutRow {
            devices,
            iteration_secs: t,
            throughput_vs_8: throughput / base_tp,
            sync_fraction: (r.sync_busy.as_secs_f64() / t).min(1.0),
        });
    }
    rows
}
