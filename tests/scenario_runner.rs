//! Integration tests for the scenario subsystem: serde round-trips,
//! memoization, parallel-vs-serial determinism, and the paper-headline
//! regression pin.

use std::sync::{Arc, Mutex, MutexGuard};

use mcdla::core::scenario::global_runner;
use mcdla::core::{
    experiment, DeviceModel, ResultStore, Runner, Scenario, ScenarioGrid, SystemDesign,
};
use mcdla::dnn::Benchmark;
use mcdla::parallel::ParallelStrategy;
use serde::json;

/// Serializes the tests that drive the process-global runner: its miss
/// counter is shared, so one test's fresh cells would otherwise land
/// between another's before/after reads.
fn global_runner_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fancy_scenario() -> Scenario {
    Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::RnnGru,
        ParallelStrategy::ModelParallel,
    )
    .with_devices(4)
    .with_batch(256)
    .with_pcie_gen4()
    .with_device_model(DeviceModel::Dgx2Like)
    .with_compression(2.6)
}

#[test]
fn scenario_round_trips_through_json() {
    for s in [
        Scenario::new(
            SystemDesign::DcDla,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        ),
        fancy_scenario(),
    ] {
        let text = json::to_string(&s);
        let back: Scenario = json::from_str(&text).expect("parse back");
        assert_eq!(s, back, "round-trip changed the scenario: {text}");
        // Pretty form round-trips too.
        let pretty = json::to_string_pretty(&s);
        assert_eq!(s, json::from_str::<Scenario>(&pretty).unwrap());
    }
}

#[test]
fn scenario_grid_round_trips_through_json() {
    let grid = ScenarioGrid::paper_default()
        .benchmarks(&[Benchmark::VggE, Benchmark::RnnGru])
        .batches(&[128, 512])
        .device_counts(&[2, 8]);
    let back: ScenarioGrid = json::from_str(&json::to_string(&grid)).expect("parse back");
    assert_eq!(grid, back);
    assert_eq!(grid.scenarios(), back.scenarios());
}

#[test]
fn missing_optional_fields_deserialize_as_defaults() {
    // A hand-written spec may omit the optional axes entirely — even the
    // overrides object itself (`POST /simulate` bodies usually do).
    let s: Scenario = json::from_str(
        r#"{"design": "McDlaBwAware", "benchmark": "VggE",
            "strategy": "DataParallel"}"#,
    )
    .expect("sparse scenario parses");
    assert_eq!(s.devices, None);
    assert_eq!(s.batch, None);
    assert_eq!(s.generation, None);
    assert!(!s.overrides.pcie_gen4);
    assert_eq!(s.overrides.device_model, None);
    assert_eq!(s.overrides.compression, None);
    assert_eq!(
        s,
        Scenario::new(
            SystemDesign::McDlaBwAware,
            Benchmark::VggE,
            ParallelStrategy::DataParallel
        )
    );
}

#[test]
fn wire_validation_rejects_hostile_knobs() {
    // Builder methods can't construct these, but wire payloads can say
    // anything; `validate` is the service's guard.
    let base = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    assert!(base.validate().is_ok());
    let mut s = base;
    s.devices = Some(0);
    assert!(s.validate().unwrap_err().contains("devices"));
    let mut s = base;
    s.batch = Some(0);
    assert!(s.validate().unwrap_err().contains("batch"));
    let mut s = base;
    s.overrides.compression = Some(f64::NAN);
    assert!(s.validate().unwrap_err().contains("compression"));
}

#[test]
fn cache_serves_repeat_cells_without_resimulating() {
    let runner = Runner::with_threads(2);
    let s = Scenario::new(
        SystemDesign::HcDla,
        Benchmark::GoogLeNet,
        ParallelStrategy::DataParallel,
    );
    let a = runner.run(s);
    assert_eq!(runner.cache_misses(), 1);
    assert_eq!(runner.cache_hits(), 0);
    let b = runner.run(s);
    assert_eq!(runner.cache_misses(), 1, "second run must not simulate");
    assert_eq!(runner.cache_hits(), 1);
    assert_eq!(a, b);
    // A grid containing the cell also hits the cache.
    let grid = runner.run_grid(&[s, s.with_batch(128), s]);
    assert_eq!(grid[0], a);
    assert_eq!(grid[2], a);
    assert_eq!(runner.cache_misses(), 2, "only the new batch-128 cell runs");
}

#[test]
fn parallel_grid_results_are_bit_identical_to_serial() {
    // The determinism guarantee behind `--threads N`: any thread count
    // produces exactly the same reports in exactly the same order.
    let scenarios = ScenarioGrid::paper_default()
        .benchmarks(&[Benchmark::AlexNet, Benchmark::VggE, Benchmark::RnnLstm2])
        .batches(&[256, 512])
        .scenarios();
    let serial = Runner::with_threads(1).run_grid(&scenarios);
    for threads in [2usize, 4, 8] {
        let parallel = Runner::with_threads(threads).run_grid(&scenarios);
        assert_eq!(
            serial, parallel,
            "{threads}-thread grid differs from serial"
        );
    }
}

#[test]
fn thread_counts_resolve_and_clamp() {
    // Explicit counts win and are clamped to >= 1. (The MCDLA_THREADS
    // env resolution itself is covered by mcdla-core's unit tests on the
    // pure `threads_from` helper — mutating the process environment from
    // a parallel test binary would race with sibling tests.)
    assert_eq!(Runner::with_threads(0).threads(), 1);
    assert_eq!(Runner::with_threads(5).threads(), 5);
    assert!(Runner::new().threads() >= 1);
}

#[test]
fn global_runner_memoizes_across_experiment_calls() {
    // Fig. 13 and Fig. 11 span the same 96-cell matrix: after both run,
    // the shared cache holds each cell once and the second figure's cells
    // were all hits.
    let _serial = global_runner_lock();
    let _ = experiment::fig13(ParallelStrategy::DataParallel);
    let misses_after_fig13 = global_runner().cache_misses();
    let _ = experiment::fig11(ParallelStrategy::DataParallel);
    assert_eq!(
        global_runner().cache_misses(),
        misses_after_fig13,
        "fig11 re-simulated cells fig13 already ran"
    );
}

#[test]
fn headline_speedup_stays_near_2_8x() {
    // Regression pin for the paper's headline claim (§I: "an average
    // 2.8x training speedup"). The seed calibration lands at ~2.84x;
    // hold future PRs to a tight band around it.
    let _serial = global_runner_lock();
    let headline = experiment::headline_speedup();
    assert!(
        (2.6..=3.1).contains(&headline),
        "headline speedup drifted to {headline:.3}x (expected ~2.8x)"
    );
}

#[test]
fn runners_share_a_store_and_bounded_stores_evict() {
    // Two runners over one bounded store: what one simulates, the other
    // hits; past the capacity, LRU eviction keeps the footprint flat and
    // the eviction counter visible (the `sweep`/`GET /stats` payloads).
    let store = Arc::new(ResultStore::bounded(2));
    let a = Runner::with_store(1, store.clone());
    let b = Runner::with_store(2, store);
    let cells: Vec<Scenario> = [Benchmark::AlexNet, Benchmark::RnnGemv, Benchmark::RnnLstm1]
        .iter()
        .map(|&bm| Scenario::new(SystemDesign::DcDla, bm, ParallelStrategy::DataParallel))
        .collect();

    let first = a.run(cells[0]);
    assert_eq!(b.run(cells[0]), first, "store is shared across runners");
    assert_eq!(b.cache_hits(), 1);
    assert_eq!(b.cache_misses(), 1);

    // Two more distinct cells through a 2-cap store: something evicts.
    let _ = a.run(cells[1]);
    let _ = a.run(cells[2]);
    assert!(a.cache_len() <= 2, "cap 2 exceeded: {}", a.cache_len());
    assert!(a.cache_evictions() >= 1);
    // The evicted cell re-simulates on the next request.
    let again = a.run(cells[0]);
    assert_eq!(again, first, "re-simulated cell must be bit-identical");
}

#[test]
fn store_snapshot_warms_a_fresh_runner() {
    let hot = Runner::with_threads(1);
    let s = Scenario::new(
        SystemDesign::McDlaStar,
        Benchmark::RnnGemv,
        ParallelStrategy::DataParallel,
    );
    let report = hot.run(s);
    let snapshot = hot.store().snapshot_json();

    let warmed = Arc::new(ResultStore::unbounded());
    assert_eq!(warmed.restore_json(&snapshot), Ok(1));
    let cold = Runner::with_store(1, warmed);
    assert_eq!(cold.run(s), report, "warm-started cell must be identical");
    assert_eq!(cold.cache_misses(), 0, "warm start must not re-simulate");
    assert_eq!(cold.cache_hits(), 1);
}

#[test]
fn scenario_digest_is_stable_across_processes() {
    // The digest feeds BENCH_scenarios.json; pin one value so accidental
    // encoding changes surface in review.
    let s = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    assert_eq!(format!("{:016x}", s.digest()), "a8f7c57156f141b7");
}
