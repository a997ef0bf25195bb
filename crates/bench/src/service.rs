//! The service bench behind `mcdla serve-bench`: one in-process
//! `mcdla-serve` over loopback keep-alive connections, measured as
//! cached-cell throughput (serial and depth-64 pipelined), cached
//! latency, cold-cell latency and warm streamed-grid throughput.

use mcdla_core::{Scenario, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_obs::{Histogram, HistogramSnapshot};
use mcdla_parallel::ParallelStrategy;
use mcdla_serve::{client::Connection, ServeConfig, Server};

use crate::measure::{sample, secs, Better, Metric};

/// Measured chunks per metric.
const CHUNKS: usize = 16;
/// Requests per write on the pipelined path.
pub(crate) const PIPELINE_DEPTH: usize = 64;

/// Drives `POST /simulate` at `addr` from `threads` fresh keep-alive
/// connections, `per_thread` requests each, `depth` per write. Bodies
/// are drawn from `bodies` by a seeded LCG per thread. Returns req/s and
/// the histogram of write-to-last-response round trips (one request's
/// latency when `depth` is 1).
///
/// # Panics
///
/// Panics when a connection or request fails — a bench environment
/// problem, not a measurement.
pub(crate) fn hammer(
    addr: &str,
    bodies: &[String],
    threads: usize,
    per_thread: usize,
    depth: usize,
) -> (f64, HistogramSnapshot) {
    let hist = Histogram::new();
    let batches = per_thread.div_ceil(depth);
    let wall = secs(|| {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let hist = &hist;
                scope.spawn(move || {
                    let mut conn = Connection::open(addr).expect("open bench connection");
                    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15 ^ (t as u64).wrapping_mul(0xdead_beef);
                    for _ in 0..batches {
                        let batch: Vec<(&str, &str, Option<&str>)> = (0..depth)
                            .map(|_| {
                                lcg = lcg
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                let body = &bodies[((lcg >> 33) as usize) % bodies.len()];
                                ("POST", "/simulate", Some(body.as_str()))
                            })
                            .collect();
                        let t0 = std::time::Instant::now();
                        let responses = conn.request_pipelined(&batch).expect("bench simulate");
                        hist.observe_duration(t0.elapsed());
                        assert!(responses.iter().all(|r| r.is_ok()), "bench simulate failed");
                    }
                });
            }
        })
    });
    let requests = threads * batches * depth;
    (requests as f64 / wall.max(1e-9), hist.snapshot())
}

/// Samples `chunks` chunks of serial (one request per write) cached
/// load through [`hammer`]: `{prefix}cached.req_per_s`, `.p50_us` and
/// `.p99_us`.
pub(crate) fn serial_load(
    prefix: &str,
    chunks: usize,
    addr: &str,
    bodies: &[String],
    threads: usize,
    per_thread: usize,
) -> [Metric; 3] {
    let samples = sample(chunks, || {
        let (rps, hist) = hammer(addr, bodies, threads, per_thread, 1);
        [rps, hist.quantile(0.5) * 1e6, hist.quantile(0.99) * 1e6]
    });
    let column = |i: usize| samples.iter().map(|s| s[i]).collect::<Vec<_>>();
    let name = |what: &str| format!("{prefix}cached.{what}");
    [
        Metric::sampled(name("req_per_s"), "req/s", Better::Higher, &column(0)),
        Metric::sampled(name("p50_us"), "us", Better::Lower, &column(1)),
        Metric::sampled(name("p99_us"), "us", Better::Lower, &column(2)),
    ]
}

/// Streams the full paper matrix (`POST /grid?stream=1`) through
/// `probe` once; returns cells/s.
///
/// # Panics
///
/// Panics when the stream is refused or cut short.
pub(crate) fn stream_cells_per_s(probe: &mut Connection) -> f64 {
    let mut cells = 0;
    let wall = secs(|| {
        let stream = probe
            .request_stream("POST", "/grid?stream=1", Some("{}"))
            .expect("grid stream");
        assert_eq!(stream.status, 200, "grid stream rejected");
        cells = stream.collect_lines().expect("clean stream").len();
    });
    cells as f64 / wall.max(1e-9)
}

/// Runs the service bench: every chunk sends `requests_per_thread`
/// requests on each of `client_threads` connections.
///
/// # Panics
///
/// Panics when the server cannot bind a loopback port or a request
/// fails — a bench environment problem, not a measurement.
pub fn service_bench(client_threads: usize, requests_per_thread: usize) -> Vec<Metric> {
    let threads = client_threads.max(1);
    let per_thread = requests_per_thread.max(1);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: threads + 1, // headroom for the probe connection
        ..ServeConfig::default()
    })
    .expect("bind loopback server");
    let handle = server.spawn().expect("spawn event loop");
    let addr = handle.addr().to_string();
    let mut probe = Connection::open(&addr).expect("open probe connection");

    // Cold cells: each chunk is one store miss on a distinct batch size.
    let cell = |batch| {
        let cell = Scenario::new(
            SystemDesign::DcDla,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        );
        serde::json::to_string(&cell.with_batch(batch))
    };
    let mut batch = 512;
    let cold_ms = sample(CHUNKS, || {
        batch += 1;
        let body = cell(batch);
        1e3 * secs(|| {
            let resp = probe
                .request("POST", "/simulate", Some(&body))
                .expect("cold simulate");
            assert!(resp.is_ok(), "cold simulate failed: {}", resp.body);
        })
    });

    // Cached cells: the last cold cell, now resident.
    let bodies = [cell(batch)];
    let [cached, p50, p99] = serial_load("", CHUNKS, &addr, &bodies, threads, per_thread);
    let pipelined = sample(CHUNKS, || {
        hammer(&addr, &bodies, threads, per_thread, PIPELINE_DEPTH).0
    });

    // The full paper matrix over `?stream=1`; the warm-up pass fills it.
    let stream = sample(CHUNKS, || stream_cells_per_s(&mut probe));
    drop(probe);
    handle.shutdown();

    vec![
        cached.floor(30_000.0),
        p50,
        p99,
        Metric::sampled("pipelined.req_per_s", "req/s", Better::Higher, &pipelined)
            .floor(100_000.0),
        Metric::sampled("cold_simulate_ms", "ms", Better::Lower, &cold_ms),
        Metric::sampled(
            "grid_stream.cells_per_s",
            "cells/s",
            Better::Higher,
            &stream,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_bench_measures_and_clears_the_floor() {
        // A small debug-build run: the release floors are checked by
        // `mcdla serve-bench` itself.
        let metrics = service_bench(2, 100);
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "cached.req_per_s",
                "cached.p50_us",
                "cached.p99_us",
                "pipelined.req_per_s",
                "cold_simulate_ms",
                "grid_stream.cells_per_s"
            ]
        );
        for m in &metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0 && m.lo <= m.value && m.value <= m.hi,
                "{m:?}"
            );
        }
    }
}
