//! The store bench behind `mcdla store-bench`: hammers the
//! [`ResultStore`] cache core directly — no sockets, no simulator.
//!
//! The store is the hot layer under every serving path (`Runner` memo
//! hits, `/simulate` cached cells, streamed grids), so this bench tracks
//! cached-get, insert and mixed get-or-compute throughput, plus each
//! phase's eviction churn, under several **capacity pressures** (how
//! much smaller the bound is than the key space) against the unbounded
//! store as the baseline. Cached gets are gated at every pressure: they
//! must stay fast even while eviction is churning.

use mcdla_core::{IterationReport, ResultStore, Scenario, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_parallel::ParallelStrategy;
use mcdla_sim::{Bytes, SimDuration};

use crate::measure::{sample, secs, Better, Metric};

/// Measured chunks per phase.
const CHUNKS: usize = 16;

/// A distinguishable dummy report; store mechanics do not care what the
/// simulator would have produced, and constructing one keeps the bench
/// loopback-free *and* simulator-free.
fn template_report(tag: u64) -> IterationReport {
    IterationReport {
        design: SystemDesign::DcDla,
        benchmark: format!("store-bench-{tag}"),
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

/// `keys` distinct scenarios, keyed by batch size.
fn key_space(keys: usize) -> Vec<Scenario> {
    (0..keys)
        .map(|i| {
            Scenario::new(
                SystemDesign::DcDla,
                Benchmark::AlexNet,
                ParallelStrategy::DataParallel,
            )
            .with_batch(i as u64 + 512)
        })
        .collect()
}

/// Samples `ops`-per-chunk throughput of `op(thread, i)` across
/// `threads` workers. Each thread walks its own stride from a cursor
/// that advances every chunk, so chunks touch fresh key sequences.
/// Returns ops/s per measured chunk and the total ops run (warm-up
/// included).
fn phase(threads: usize, ops: usize, op: impl Fn(usize, usize) + Sync) -> (Vec<f64>, usize) {
    let per_thread = ops.div_ceil(CHUNKS * threads).max(1);
    let mut cursor = 0;
    let rates = sample(CHUNKS, || {
        let base = cursor;
        cursor += per_thread;
        let wall = secs(|| {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let op = &op;
                    scope.spawn(move || (base..base + per_thread).for_each(|i| op(t, i)));
                }
            })
        });
        (per_thread * threads) as f64 / wall.max(1e-9)
    });
    (rates, cursor * threads)
}

/// Measures one store at one capacity pressure; `label` prefixes its
/// metric names.
fn bench_pressure(
    label: &str,
    capacity: Option<usize>,
    keys: &[Scenario],
    threads: usize,
    insert_ops: usize,
    get_ops: usize,
) -> Vec<Metric> {
    let store = match capacity {
        Some(cap) => ResultStore::bounded(cap),
        None => ResultStore::unbounded(),
    };
    let stride = |t: usize, i: usize, len: usize| (i * (2 * t + 1) + t) % len;

    // Insert churn: every thread walks the whole key space at a
    // different stride, so inserts contend for the table lock and (for
    // bounded stores) evict continuously.
    let (inserts, insert_count) = phase(threads, insert_ops, |t, i| {
        let k = stride(t, i, keys.len());
        store.insert(keys[k], template_report(k as u64));
    });
    let insert_evictions = store.evictions();
    if capacity.is_some_and(|cap| cap < keys.len()) {
        assert!(
            insert_evictions > 0,
            "{label}: an under-capacity store must evict"
        );
    }

    // Pin a hot set the size of the residency bound: re-inserting it
    // sequentially makes it the `min(cap, keys)` most-recently-used
    // entries, so the get phase is 100% cached.
    let hot = capacity.map_or(keys.len(), |cap| cap.min(keys.len()));
    for (i, key) in keys[..hot].iter().enumerate() {
        store.insert(*key, template_report(i as u64));
    }
    let (hits, misses) = (store.hits(), store.misses());
    let (gets, get_count) = phase(threads, get_ops, |t, i| {
        let k = stride(t, i, hot);
        assert!(
            store.get(&keys[k]).is_some(),
            "{label}: hot key {k} evicted"
        );
    });
    assert_eq!(
        (store.hits() - hits, store.misses() - misses),
        (get_count as u64, 0),
        "{label}: the get phase must be 100% cached"
    );

    // Mixed get_or_compute over the whole key space: resident keys hit,
    // evicted keys recompute and re-evict — the realistic under-pressure
    // serving mix.
    let (hits, evictions) = (store.hits(), store.evictions());
    let (mixes, mix_count) = phase(threads, get_ops, |t, i| {
        let k = stride(t, i, keys.len());
        let _ = store.get_or_compute(keys[k], || template_report(k as u64));
    });
    let mix_hits = store.hits() - hits;
    let mix_evictions = store.evictions() - evictions;

    let stats = store.stats();
    if let Some(cap) = capacity {
        assert!(
            stats.entries as usize <= cap,
            "{label}: store over its bound after the bench: {stats:?}"
        );
    }
    let per_op = |n: u64, ops: usize| n as f64 / ops.max(1) as f64;
    vec![
        Metric::sampled(
            format!("{label}.insert_per_s"),
            "ops/s",
            Better::Higher,
            &inserts,
        ),
        Metric::sampled(format!("{label}.get_per_s"), "ops/s", Better::Higher, &gets)
            .floor(800_000.0),
        Metric::sampled(
            format!("{label}.mix_per_s"),
            "ops/s",
            Better::Higher,
            &mixes,
        ),
        Metric::exact(
            format!("{label}.insert_evictions_per_op"),
            "ratio",
            Better::Lower,
            per_op(insert_evictions, insert_count),
        ),
        Metric::exact(
            format!("{label}.mix_evictions_per_op"),
            "ratio",
            Better::Lower,
            per_op(mix_evictions, mix_count),
        ),
        Metric::exact(
            format!("{label}.mix_hit_rate"),
            "ratio",
            Better::Higher,
            per_op(mix_hits, mix_count),
        ),
    ]
}

/// Runs the store bench: `keys` distinct cells through an unbounded
/// store and three bounded ones (capacity = 100%, 25%, and ~6% of the
/// key space), `threads` concurrent workers, about `insert_ops`
/// insert-churn operations and `get_ops` operations per read phase.
pub fn store_bench(keys: usize, threads: usize, insert_ops: usize, get_ops: usize) -> Vec<Metric> {
    let keys = key_space(keys.max(64));
    let threads = threads.max(1);
    [
        ("unbounded", None),
        ("cap100", Some(keys.len())),
        ("cap25", Some((keys.len() / 4).max(1))),
        ("cap6", Some((keys.len() / 16).max(1))),
    ]
    .into_iter()
    .flat_map(|(label, cap)| bench_pressure(label, cap, &keys, threads, insert_ops, get_ops))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_bench_measures_all_pressures_and_holds_bounds() {
        // Small enough for a debug-build test; the bench itself asserts
        // residency <= capacity and that every under-capacity store
        // evicts. The release floors are checked by `mcdla store-bench`.
        let metrics = store_bench(128, 2, 2_000, 4_000);
        assert_eq!(metrics.len(), 4 * 6, "unbounded + 3 capacity pressures");
        for label in ["unbounded", "cap100", "cap25", "cap6"] {
            for suffix in [
                "insert_per_s",
                "get_per_s",
                "mix_per_s",
                "insert_evictions_per_op",
                "mix_evictions_per_op",
                "mix_hit_rate",
            ] {
                let name = format!("{label}.{suffix}");
                let m = metrics.iter().find(|m| m.name == name).expect(&name);
                assert!(m.value.is_finite() && m.value >= 0.0, "{m:?}");
            }
        }
        let churn = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(churn("unbounded.insert_evictions_per_op"), 0.0);
        assert!(churn("cap6.insert_evictions_per_op") > 0.0);
        assert!(churn("cap6.mix_evictions_per_op") <= 1.0);
    }
}
