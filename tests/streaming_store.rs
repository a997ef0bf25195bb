//! Concurrency and property tests for the shared [`ResultStore`] under
//! the streaming grid executor: overlapping streams dedupe to one
//! simulation per unique cell, the capacity bound holds at every
//! observable point (including during snapshot restore), and a poisoned
//! (panicking) single-flight leader still unblocks streaming waiters.

use std::sync::Arc;

use mcdla::core::{
    IterationReport, Provenance, ResultStore, Runner, Scenario, ScenarioGrid, SystemDesign,
    TimedRun,
};
use mcdla::dnn::Benchmark;
use mcdla::parallel::ParallelStrategy;
use mcdla::sim::{Bytes, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn overlap_grid() -> Vec<Scenario> {
    ScenarioGrid::paper_default()
        .designs(&[SystemDesign::DcDla, SystemDesign::McDlaBwAware])
        .benchmarks(&[Benchmark::AlexNet])
        .device_counts(&[8, 16])
        .scenarios()
}

/// A distinct key per `tag` (store-mechanics tests never simulate).
fn key(tag: u64) -> Scenario {
    Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    )
    .with_batch(512 + tag)
}

/// A cheap dummy report for store-mechanics tests.
fn dummy(tag: u64) -> IterationReport {
    IterationReport {
        design: SystemDesign::DcDla,
        benchmark: format!("dummy-{tag}"),
        strategy: ParallelStrategy::DataParallel,
        devices: 8,
        global_batch: tag.max(1),
        iteration_time: SimDuration::from_us(tag.max(1)),
        compute_busy: SimDuration::ZERO,
        sync_busy: SimDuration::ZERO,
        virt_busy: SimDuration::ZERO,
        memory_stall: SimDuration::ZERO,
        virt_bytes: Bytes::ZERO,
        sync_bytes: Bytes::ZERO,
        cpu_socket_avg_gbs: 0.0,
        cpu_socket_max_gbs: 0.0,
    }
}

#[test]
fn overlapping_streams_simulate_each_unique_cell_once() {
    let store = Arc::new(ResultStore::unbounded());
    let cells = overlap_grid();
    let unique = cells.len();
    let threads = 4;
    std::thread::scope(|scope| {
        for offset in 0..threads {
            let store = store.clone();
            let mut grid = cells.clone();
            // Every thread streams the same cells in a different order,
            // so leaders and waiters interleave across the whole grid.
            grid.rotate_left(offset * 2);
            scope.spawn(move || {
                let runner = Runner::with_store(2, store);
                let runs: Vec<TimedRun> = runner.run_grid_streaming(grid, 2).collect();
                assert_eq!(runs.len(), unique);
            });
        }
    });
    let stats = store.stats();
    assert_eq!(
        stats.misses, unique as u64,
        "{threads} overlapping streams must simulate each unique cell exactly once: {stats:?}"
    );
    assert_eq!(stats.hits, (threads * unique - unique) as u64);
    assert_eq!(stats.entries, unique as u64);
    assert_eq!(stats.in_flight, 0, "no flight survives the streams");
}

#[test]
fn lru_bound_holds_under_streaming_churn() {
    // At most 4 resident cells, churned by two concurrent streams over
    // 16 distinct cells.
    let store = Arc::new(ResultStore::bounded(4));
    let cells: Vec<Scenario> = ScenarioGrid::paper_default()
        .designs(&[SystemDesign::DcDla, SystemDesign::McDlaBwAware])
        .benchmarks(&[Benchmark::AlexNet, Benchmark::RnnGemv])
        .device_counts(&[8, 16])
        .scenarios();
    assert_eq!(cells.len(), 16);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let store = store.clone();
            let grid = cells.clone();
            scope.spawn(move || {
                let runner = Runner::with_store(2, store.clone());
                for _run in runner.run_grid_streaming(grid, 1) {
                    assert!(
                        store.len() <= 4,
                        "LRU bound exceeded mid-stream: {} resident",
                        store.len()
                    );
                }
            });
        }
    });
    let stats = store.stats();
    assert!(
        stats.entries <= 4,
        "bound exceeded after the streams: {stats:?}"
    );
    assert!(
        stats.evictions > 0,
        "churn over capacity must evict: {stats:?}"
    );
}

/// A bounded store can never be observed over its configured capacity,
/// and it fills to exactly that capacity.
#[test]
fn bounded_store_is_never_observed_over_capacity() {
    let store = ResultStore::bounded(4);
    for i in 0..64 {
        let fetched = store.get_or_compute(key(i), || dummy(i));
        assert_eq!(fetched.provenance, Provenance::Computed);
        let resident = store.len();
        assert!(
            resident <= 4,
            "bounded(4) store observed holding {resident} entries after insert {i}"
        );
    }
    assert_eq!(store.len(), 4, "the bound fills exactly, not approximately");
    assert_eq!(store.evictions(), 60);
}

/// Seeded random op mix (inserts, hits, misses, restores) across
/// threads: the bound holds at every check, for several capacities.
#[test]
fn random_op_mix_never_violates_the_bound() {
    for (cap, seed) in [(3usize, 7u64), (7, 11), (20, 13)] {
        let store = Arc::new(ResultStore::bounded(cap));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = store.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed * 100 + t);
                    for _ in 0..500 {
                        let k = rng.gen_range(0..64u64);
                        match rng.gen_range(0..3u32) {
                            0 => store.insert(key(k), dummy(k)),
                            1 => {
                                let _ = store.get(&key(k));
                            }
                            _ => {
                                let _ = store.get_or_compute(key(k), || dummy(k));
                            }
                        }
                        let resident = store.len();
                        assert!(resident <= cap, "cap {cap}: observed {resident} resident");
                    }
                });
            }
        });
        let stats = store.stats();
        assert!(stats.entries <= cap as u64, "{stats:?}");
        assert!(stats.evictions > 0, "64 keys through cap {cap}: {stats:?}");
    }
}

/// Overlapping streaming grids through a store of capacity 3, with a
/// dedicated observer thread polling residency the whole time: no
/// observable point may exceed the bound.
#[test]
fn capacity_below_shard_count_holds_under_overlapping_streams() {
    let store = Arc::new(ResultStore::bounded(3));
    let cells = overlap_grid();
    assert!(cells.len() > 3);
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        // The observer asserts the bound continuously until the streams
        // (joined by the inner scope) are done.
        {
            let store = store.clone();
            let done = done.clone();
            scope.spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let resident = store.len();
                    assert!(resident <= 3, "observed {resident} > capacity 3 mid-stream");
                    std::thread::yield_now();
                }
            });
        }
        std::thread::scope(|streams| {
            for offset in 0..2 {
                let store = store.clone();
                let mut grid = cells.clone();
                grid.rotate_left(offset * 3);
                let total = cells.len();
                streams.spawn(move || {
                    let runner = Runner::with_store(2, store);
                    let runs: Vec<TimedRun> = runner.run_grid_streaming(grid, 1).collect();
                    assert_eq!(runs.len(), total);
                });
            }
        });
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let stats = store.stats();
    assert!(stats.entries <= 3, "bound exceeded: {stats:?}");
    assert!(stats.evictions > 0, "churn over capacity must evict");
}

/// Restoring a snapshot larger than the receiving store's bound must
/// evict down — oldest-first in snapshot order — not blow past it.
#[test]
fn snapshot_restore_over_capacity_evicts_oldest_first() {
    let donor = ResultStore::unbounded();
    for i in 0..12 {
        donor.insert(key(i), dummy(i));
    }
    let snapshot = donor.snapshot_json();

    // Recover the snapshot's (digest-sorted) cell order, which is the
    // restore's insertion order and therefore its recency order.
    let parsed = serde::json::parse(&snapshot).expect("snapshot parses");
    let order: Vec<Scenario> = parsed
        .get("cells")
        .and_then(|c| c.as_seq())
        .expect("cells array")
        .iter()
        .map(|cell| {
            serde::Deserialize::from_value(cell.get("scenario").expect("scenario field"))
                .expect("scenario deserializes")
        })
        .collect();
    assert_eq!(order.len(), 12);

    let small = ResultStore::bounded(5);
    assert_eq!(small.restore_json(&snapshot), Ok(12));
    assert_eq!(small.len(), 5, "restore must land exactly at capacity");
    assert_eq!(small.evictions(), 7);
    assert_eq!(small.warm_loaded(), 12);
    for (i, s) in order.iter().enumerate() {
        assert_eq!(
            small.contains(s),
            i >= 7,
            "cell {i} of 12: the oldest 7 must go, the newest 5 must stay"
        );
    }
}

#[test]
fn poisoned_leader_unblocks_streaming_waiters() {
    let store = Arc::new(ResultStore::unbounded());
    let cell = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    std::thread::scope(|scope| {
        // A leader takes the cell's flight and dies mid-simulation.
        let leader = scope.spawn(|| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.get_or_compute(cell, || {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    panic!("poisoned leader");
                })
            }));
            assert!(result.is_err(), "the leader's panic propagates to it");
        });
        // Wait until the doomed flight is actually open, then stream a
        // grid containing the poisoned cell: the streaming worker must
        // coalesce onto the flight, survive its failure, retake the
        // lead, and finish the stream.
        while store.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        let runner = Runner::with_store(2, store.clone());
        let runs: Vec<TimedRun> = runner.run_grid_streaming(vec![cell], 2).collect();
        assert_eq!(runs.len(), 1, "the stream must not hang or drop the cell");
        assert!(!runs[0].cached, "the retrying waiter recomputed the cell");
        leader.join().unwrap();
    });
    let stats = store.stats();
    assert_eq!(stats.misses, 1, "exactly the retry simulated: {stats:?}");
    assert!(
        stats.dedup_waits >= 1,
        "the stream coalesced first: {stats:?}"
    );
    assert_eq!(
        store
            .get_or_compute(cell, || panic!("must be cached"))
            .provenance,
        Provenance::Cached
    );
}
