//! Property tests for the staged engine: the memoized pipeline must be
//! **bit-identical** to a from-scratch monolithic compute for *any*
//! scenario (seeded in-repo RNG across every axis, the workspace's
//! proptest idiom), and the generic [`StageCache`] must honor its
//! global capacity bound under the same concurrent op mixes
//! `tests/streaming_store.rs` drives through the [`ResultStore`].

use std::sync::Arc;

use mcdla::accel::DeviceGeneration;
use mcdla::core::{DeviceModel, Scenario, StageCache, SystemDesign};
use mcdla::dnn::Benchmark;
use mcdla::parallel::ParallelStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random scenario with every axis populated at random: design,
/// benchmark, strategy, device count, global batch, device generation,
/// PCIe gen4, device model, and activation compression. Knob
/// combinations always satisfy [`Scenario::validate`] (the batch pool
/// starts at the device-count ceiling).
fn random_scenario(rng: &mut StdRng) -> Scenario {
    const DEVICES: [usize; 4] = [4, 8, 16, 32];
    const BATCHES: [u64; 4] = [64, 256, 1024, 4096];
    let design = SystemDesign::ALL[rng.gen_range(0..SystemDesign::ALL.len())];
    let benchmark = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
    let strategy = ParallelStrategy::ALL[rng.gen_range(0..ParallelStrategy::ALL.len())];
    let mut cell = Scenario::new(design, benchmark, strategy)
        .with_devices(DEVICES[rng.gen_range(0..DEVICES.len())])
        .with_batch(BATCHES[rng.gen_range(0..BATCHES.len())]);
    if rng.gen_bool(0.5) {
        let gens = DeviceGeneration::ALL;
        cell = cell.with_generation(gens[rng.gen_range(0..gens.len())]);
    }
    if rng.gen_bool(0.25) {
        cell = cell.with_pcie_gen4();
    }
    if rng.gen_bool(0.25) {
        cell = cell.with_device_model(if rng.gen_bool(0.5) {
            DeviceModel::TpuV2Like
        } else {
            DeviceModel::Dgx2Like
        });
    }
    if rng.gen_bool(0.5) {
        cell = cell.with_compression(1.0 + rng.gen_range(0.0..3.0));
    }
    cell
}

/// The staged pipeline's acceptance property: for random cells across
/// every axis, `Scenario::simulate` (memo tables, shared artifacts,
/// possibly warm from earlier cells) returns a report bit-identical to
/// `Scenario::simulate_monolithic` (every artifact rebuilt from
/// scratch). Each cell runs through the staged path twice — cold-ish
/// and warm — so both a miss-filled and a hit-served table are pinned.
#[test]
fn staged_pipeline_is_bit_identical_to_from_scratch_compute() {
    let mut rng = StdRng::seed_from_u64(0x5eed_57a6);
    for i in 0..96 {
        let cell = random_scenario(&mut rng);
        assert_eq!(cell.validate(), Ok(()), "generator made an invalid cell");
        let fresh = cell.simulate_monolithic();
        assert_eq!(
            cell.simulate(),
            fresh,
            "staged != monolithic on random cell {i}: {}",
            cell.label()
        );
        assert_eq!(
            cell.simulate(),
            fresh,
            "warm staged pass diverged on random cell {i}: {}",
            cell.label()
        );
    }
}

/// Seeded random op mix (inserts, gets, get-or-computes) across
/// threads, mirroring `tests/streaming_store.rs`: a bounded
/// [`StageCache`] is never observed over its configured capacity, for
/// several capacities.
#[test]
fn stage_cache_bound_holds_under_random_op_mix() {
    for (cap, seed) in [(3usize, 7u64), (7, 11), (20, 13)] {
        let cache = Arc::new(StageCache::<u64, u64>::bounded(cap));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = cache.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed * 100 + t);
                    for _ in 0..500 {
                        let k = rng.gen_range(0..64u64);
                        match rng.gen_range(0..3u32) {
                            0 => cache.insert(k, k * 10),
                            1 => {
                                if let Some(v) = cache.get(&k) {
                                    assert_eq!(v, k * 10, "stage entry corrupted");
                                }
                            }
                            _ => {
                                let (v, _) = cache.get_or_compute(k, || k * 10);
                                assert_eq!(v, k * 10, "stage entry corrupted");
                            }
                        }
                        let resident = cache.len();
                        assert!(resident <= cap, "cap {cap}: observed {resident} resident");
                    }
                });
            }
        });
        let stats = cache.stats("test");
        assert!(stats.entries <= cap as u64, "{stats:?}");
        assert!(stats.evictions > 0, "64 keys through cap {cap}: {stats:?}");
        assert_eq!(
            stats.hits + stats.misses,
            cache.hits() + cache.misses(),
            "stats snapshot and counters agree"
        );
    }
}
