//! The staged-engine bench behind `mcdla stage-bench`: times mega-grid
//! sweeps through the staged pipeline against the monolithic engine.
//!
//! Two grid shapes, both one-knob-varying over the full six-design
//! matrix:
//!
//! * **knob grid** (speedup gated at 5x): sweeps the cDMA
//!   activation-compression ratio (§V-B), a per-cell knob that enters
//!   the pipeline only at report assembly. Every stage table stays hot
//!   after the first handful of cells, so this shape measures the
//!   staged engine's designed sweet spot: fabric summaries, layer
//!   timings, worker plans, schedules, and collective costs are each
//!   built a handful of times instead of once per cell.
//! * **batch grid** (speedup gated at 1.5x): sweeps the global batch
//!   size, the knob with the *widest* key blast radius — plans,
//!   schedules, and collective costs all key on it, so only the
//!   across-design reuse (six designs share one batch's artifacts)
//!   amortizes. The honest lower bound on what staging buys.
//!
//! Both engines run the same knob values chunk by chunk, alternating
//! which goes first, so drift lands on both sides; the speedup is the
//! median of the per-chunk ratios. Each grid also cross-checks a
//! deterministic sample of cells for bit-identical staged-vs-monolithic
//! reports, so the bench doubles as an equivalence smoke at mega-grid
//! scale.

use mcdla_core::{stages, Scenario, StageStats, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_parallel::ParallelStrategy;

use crate::measure::{sample_pair, secs, Better, Metric, MIN_CHUNKS};

/// Most measured chunks per grid.
const MAX_CHUNKS: usize = 64;

const DESIGNS: [SystemDesign; 6] = [
    SystemDesign::DcDla,
    SystemDesign::HcDla,
    SystemDesign::McDlaStar,
    SystemDesign::McDlaLocal,
    SystemDesign::McDlaBwAware,
    SystemDesign::DcDlaOracle,
];

const SUITE: [Benchmark; 4] = [
    Benchmark::GoogLeNet,
    Benchmark::RnnGru,
    Benchmark::ResNet,
    Benchmark::VggE,
];

/// Total `(hits, misses)` across every stage table.
fn stage_traffic(stats: &[StageStats]) -> (u64, u64) {
    stats
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
}

/// Times one grid shape: `make(i, benchmark, design)` yields the cell
/// at the i-th knob setting for one workload on one design; the grid is
/// about `values` settings crossed with the full benchmark-suite x
/// design matrix, split into one warm-up chunk and up to 64 measured
/// ones. `prefix` names the metrics; the speedup is gated on
/// `speedup_floor`, the stage-table hit share on `hit_floor`.
fn bench_grid(
    prefix: &str,
    values: usize,
    speedup_floor: f64,
    hit_floor: Option<f64>,
    make: impl Fn(u64, Benchmark, SystemDesign) -> Scenario,
) -> Vec<Metric> {
    let chunks = (values.saturating_sub(1)).clamp(MIN_CHUNKS, MAX_CHUNKS);
    let per_chunk = (values / (chunks + 1)).max(1) as u64;
    let cells_per_chunk = per_chunk as usize * SUITE.len() * DESIGNS.len();
    // Each engine walks the knob values with its own cursor; both see
    // the same values in every chunk.
    let run = |cursor: &mut u64, staged: bool| {
        let lo = *cursor;
        *cursor += per_chunk;
        secs(|| {
            for i in lo..*cursor {
                for &benchmark in &SUITE {
                    for &design in &DESIGNS {
                        let cell = make(i, benchmark, design);
                        std::hint::black_box(if staged {
                            cell.simulate()
                        } else {
                            cell.simulate_monolithic()
                        });
                    }
                }
            }
        })
    };
    // The monolithic engine never touches the stage tables, so the
    // counter delta is pure staged traffic.
    let before = stage_traffic(&stages::stage_stats());
    let (mut staged_cursor, mut mono_cursor) = (0u64, 0u64);
    let pairs = sample_pair(
        chunks,
        || run(&mut staged_cursor, true),
        || run(&mut mono_cursor, false),
    );
    let after = stage_traffic(&stages::stage_stats());
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);

    // Equivalence spot-check on a deterministic sample: the staged
    // report must be bit-identical to a from-scratch compute.
    let cells = staged_cursor as usize * SUITE.len() * DESIGNS.len();
    for n in (0..cells).step_by((cells / 64).max(1)) {
        let (i, rest) = (
            n / (SUITE.len() * DESIGNS.len()),
            n % (SUITE.len() * DESIGNS.len()),
        );
        let cell = make(
            i as u64,
            SUITE[rest / DESIGNS.len()],
            DESIGNS[rest % DESIGNS.len()],
        );
        assert_eq!(
            cell.simulate(),
            cell.simulate_monolithic(),
            "staged report diverged from monolithic on {}",
            cell.label()
        );
    }

    let rate = |secs: f64| cells_per_chunk as f64 / secs.max(1e-9);
    let speedups: Vec<f64> = pairs.iter().map(|(s, m)| m / s.max(1e-9)).collect();
    let staged: Vec<f64> = pairs.iter().map(|p| rate(p.0)).collect();
    let mono: Vec<f64> = pairs.iter().map(|p| rate(p.1)).collect();
    vec![
        Metric::sampled(format!("{prefix}.speedup"), "x", Better::Higher, &speedups)
            .floor(speedup_floor),
        Metric::sampled(
            format!("{prefix}.staged_cells_per_s"),
            "cells/s",
            Better::Higher,
            &staged,
        ),
        Metric::sampled(
            format!("{prefix}.mono_cells_per_s"),
            "cells/s",
            Better::Higher,
            &mono,
        ),
        Metric {
            floor: hit_floor,
            ..Metric::exact(
                format!("{prefix}.stage_hit_share"),
                "ratio",
                Better::Higher,
                hits as f64 / (hits + misses).max(1) as f64,
            )
        },
    ]
}

/// Runs the staged-engine bench: a compression sweep over about
/// `knob_values` settings and a batch sweep over about `batch_values`,
/// each across the full four-benchmark x six-design data-parallel
/// matrix.
pub fn stage_bench(knob_values: usize, batch_values: usize) -> Vec<Metric> {
    let base = |benchmark, design| Scenario::new(design, benchmark, ParallelStrategy::DataParallel);
    // Staging must pay off on both shapes, and the compression knob
    // must leave the stage tables hot (> 4 hits per miss).
    let mut metrics = bench_grid(
        "knob",
        knob_values,
        5.0,
        Some(0.8),
        |i, benchmark, design| base(benchmark, design).with_compression(1.0 + 1e-5 * i as f64),
    );
    metrics.extend(bench_grid(
        "batch",
        batch_values,
        1.5,
        None,
        |i, benchmark, design| base(benchmark, design).with_batch(512 + 8 * i),
    ));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_bench_reports_both_grids_and_checks_equivalence() {
        // Small enough for a debug-build test (the bench itself asserts
        // staged == monolithic on a sample); the release floors are
        // checked by `mcdla stage-bench`.
        let metrics = stage_bench(8, 8);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "knob.speedup",
                "knob.staged_cells_per_s",
                "knob.mono_cells_per_s",
                "knob.stage_hit_share",
                "batch.speedup",
                "batch.staged_cells_per_s",
                "batch.mono_cells_per_s",
                "batch.stage_hit_share",
            ]
        );
        for m in &metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{m:?}");
        }
        assert_eq!(metrics[0].floor, Some(5.0));
    }
}
