//! Timing benches regenerating each figure's data set (Figs. 2, 9, 11,
//! 12, 13, 14). These time the *simulator*, demonstrating that every paper
//! figure regenerates in tractable time (§IV's "being able to perform
//! simulation in tractable amount of time is crucial").
//!
//! Figure data flows through the shared scenario runner, so iterations
//! after the first measure the memoized end-to-end path the CLI takes —
//! exactly the performance a user of `mcdla all` experiences. The cold
//! path is covered by `substrates.rs`'s grid benches on fresh runners.

use mcdla_bench::measure::{time_ms, Envelope};
use mcdla_core::experiment;
use mcdla_interconnect::{CollectiveKind, CollectiveModel, RingShape};
use mcdla_parallel::ParallelStrategy;
use mcdla_sim::Bytes;

fn main() {
    let mut metrics = vec![time_ms("fig2/generations_sweep", 10, experiment::fig2)];

    let model = CollectiveModel::paper_fig9();
    metrics.push(time_ms("fig9/collective_sweep", 10, || {
        let mut acc = 0.0f64;
        for nodes in 2..=36 {
            for kind in CollectiveKind::ALL {
                acc += model
                    .latency(kind, Bytes::from_mib(8), RingShape::device_ring(nodes))
                    .as_secs_f64();
            }
        }
        acc
    }));

    for strategy in ParallelStrategy::ALL {
        metrics.push(time_ms(&format!("fig11/breakdown_{strategy}"), 10, || {
            experiment::fig11(strategy)
        }));
    }

    metrics.push(time_ms("fig12/cpu_bandwidth", 10, experiment::fig12));

    for strategy in ParallelStrategy::ALL {
        metrics.push(time_ms(
            &format!("fig13/performance_{strategy}"),
            10,
            || experiment::fig13(strategy),
        ));
    }

    metrics.push(time_ms("fig14/batch_sweep", 10, || {
        experiment::fig14(&[128, 256, 1024, 2048])
    }));
    print!(
        "{}",
        Envelope::new("cargo bench --bench figures", metrics).render()
    );
}
