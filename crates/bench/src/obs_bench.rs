//! `mcdla obs-bench`: what does the telemetry sampler cost?
//!
//! Boots one in-process server sampling every 25 ms (40x the production
//! 1 s default, so any cost is amplified), drives the depth-64
//! pipelined cached load against it, and reads the CPU time of its
//! `mcdla-sampler` thread from `/proc/self/task/<tid>/schedstat` around
//! every chunk. `Δcpu ÷ (Δwall × nproc)` is the share of a saturated
//! host the sampler takes; it is gated under 1% on the interval's upper
//! end. A throughput A/B cannot resolve 1% on a small shared host; the
//! thread's own CPU time can.

use std::path::PathBuf;
use std::time::Duration;

use mcdla_core::{Scenario, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_parallel::ParallelStrategy;
use mcdla_serve::{client::Connection, ServeConfig, Server};

use crate::measure::{sample, secs, Better, Host, Metric};
use crate::service::{hammer, PIPELINE_DEPTH};

/// Sampler cadence under test.
const SAMPLE_MS: u64 = 25;
/// Measured chunks.
const CHUNKS: usize = 16;

/// The `/proc/self/task/<tid>` directory of every thread named
/// `mcdla-sampler`.
fn sampler_tasks() -> Vec<PathBuf> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| t.ok().map(|t| t.path()))
        .filter(|t| {
            std::fs::read_to_string(t.join("comm")).is_ok_and(|c| c.trim() == "mcdla-sampler")
        })
        .collect()
}

/// Nanoseconds `task` has spent on a CPU (schedstat's first field).
///
/// # Panics
///
/// Panics when the file is missing or malformed: without it the bench
/// has nothing to measure.
fn cpu_ns(task: &std::path::Path) -> u64 {
    let path = task.join("schedstat");
    std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no CPU time in {}", path.display()))
}

/// Runs the sampler-cost bench: every chunk has `client_threads`
/// connections pushing `requests_per_thread` cached `/simulate`s in
/// depth-64 batches.
///
/// # Panics
///
/// Panics when the server cannot bind, a request fails, or the sampler
/// thread's schedstat cannot be read.
pub fn obs_bench(client_threads: usize, requests_per_thread: usize) -> Vec<Metric> {
    let threads = client_threads.max(1);
    let per_thread = requests_per_thread.max(PIPELINE_DEPTH);
    let before = sampler_tasks();
    let handle = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: threads + 1,
        sample_ms: Some(SAMPLE_MS),
        ..ServeConfig::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn event loop");
    let addr = handle.addr().to_string();
    // The thread names itself once it starts running.
    let task = (0..200)
        .find_map(|_| {
            let task = sampler_tasks().into_iter().find(|t| !before.contains(t));
            if task.is_none() {
                std::thread::sleep(Duration::from_millis(5));
            }
            task
        })
        .expect("the server started no mcdla-sampler thread");

    let body = serde::json::to_string(&Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    ));
    let mut probe = Connection::open(&addr).expect("open probe connection");
    let warm = probe
        .request("POST", "/simulate", Some(&body))
        .expect("warm simulate");
    assert!(warm.is_ok(), "warm simulate failed: {}", warm.body);

    let bodies = [body];
    let nproc = Host::current().nproc as f64;
    let chunks = sample(CHUNKS, || {
        let cpu = cpu_ns(&task);
        let mut rps = 0.0;
        let wall = secs(|| rps = hammer(&addr, &bodies, threads, per_thread, PIPELINE_DEPTH).0);
        let cpu_s = (cpu_ns(&task) - cpu) as f64 * 1e-9;
        let ticks = wall * 1e3 / SAMPLE_MS as f64;
        [cpu_s / (wall * nproc), 1e6 * cpu_s / ticks, rps]
    });

    // The sampled server must actually have been recording.
    let history = probe
        .request("GET", "/metrics/history?series=req_per_s", None)
        .expect("fetch history");
    let samples = serde::json::parse(&history.body)
        .ok()
        .and_then(|v| v.get("samples")?.as_u64())
        .unwrap_or(0);
    assert!(samples > 0, "sampled server recorded no history samples");
    drop(probe);
    handle.shutdown();

    let column = |i: usize| chunks.iter().map(|c| c[i]).collect::<Vec<_>>();
    vec![
        Metric::sampled("sampler.host_share", "ratio", Better::Lower, &column(0)).floor(0.01),
        Metric::sampled("sampler.us_per_tick", "us", Better::Lower, &column(1)),
        Metric::sampled("load.req_per_s", "req/s", Better::Higher, &column(2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bench_measures_and_reports() {
        // Small sizes: a smoke test of the harness; the release gate is
        // checked by `mcdla obs-bench`. Other tests' servers run their
        // own samplers in this process, so no value is asserted.
        let metrics = obs_bench(2, 256);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "sampler.host_share",
                "sampler.us_per_tick",
                "load.req_per_s"
            ]
        );
        for m in &metrics {
            assert!(m.value.is_finite() && m.value >= 0.0, "{m:?}");
        }
    }
}
