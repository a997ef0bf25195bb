//! Failover semantics under real process death: workers run as child
//! `mcdla serve` processes and die by SIGKILL — no graceful shutdown, no
//! connection draining — while an in-process gateway routes across them.
//!
//! Pinned here:
//! * kill -9 the owner **mid-simulate traffic**: the gateway answers
//!   point queries via retry + next-replica failover, bit-identically;
//! * kill -9 a worker **mid-stream**: the gateway honors the
//!   close-without-terminal-chunk contract (the client sees truncation,
//!   never a silent clean end);
//! * gateway grid output is cell-for-cell identical to a single node
//!   (modulo `cached`).

mod common;

use std::time::Duration;

use common::WorkerProc;
use mcdla::cluster::{Gateway, GatewayConfig, Topology};
use mcdla::core::Scenario;
use mcdla::serve::client::{request_once, Connection, Timeouts};
use serde::Value;

fn spawn_gateway(backends: Vec<String>) -> mcdla::cluster::GatewayHandle {
    Gateway::bind(&GatewayConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        backends,
        // Short deadlines keep the failover path snappy in tests; a
        // kill -9'd loopback worker answers connects with RST anyway.
        timeouts: Timeouts::all(Duration::from_secs(30)),
        probe_interval: None,
        max_idle_per_worker: 4,
        ..GatewayConfig::default()
    })
    .expect("bind gateway")
    .spawn()
    .expect("spawn gateway")
}

fn report_of(body: &str) -> String {
    let Value::Map(entries) = serde::json::parse(body).expect("cell JSON") else {
        panic!("cell is not an object")
    };
    let report = entries
        .into_iter()
        .find(|(k, _)| k == "report")
        .expect("cell has a report")
        .1;
    serde::json::to_string(&report)
}

#[test]
fn kill9_owner_mid_traffic_point_queries_fail_over() {
    let mut workers = [WorkerProc::spawn(), WorkerProc::spawn()];
    let backends: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let gateway = spawn_gateway(backends.clone());
    let addr = gateway.addr().to_string();

    let cell = Scenario::default().with_batch(640);
    let body = serde::json::to_string(&cell);
    let owner = Topology::new(backends).unwrap().owner_of(&cell);

    // Warm through the gateway: the owner computes the cell.
    let warm = request_once(&addr, "POST", "/simulate", Some(&body)).expect("warm");
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert!(warm.body.contains("\"cached\": false"));

    // SIGKILL the owner, then keep querying: every answer must arrive
    // via the surviving replica — recomputed, bit-identical report.
    workers[owner].kill9();
    let mut conn = Connection::open(&addr).expect("open gateway connection");
    for round in 0..3 {
        let resp = conn
            .request("POST", "/simulate", Some(&body))
            .expect("failover simulate");
        assert_eq!(resp.status, 200, "round {round}: {}", resp.body);
        assert_eq!(
            report_of(&warm.body),
            report_of(&resp.body),
            "round {round}"
        );
    }
    // The survivor answered from its own cache after the first recompute.
    let last = conn.request("POST", "/simulate", Some(&body)).unwrap();
    assert!(last.body.contains("\"cached\": true"));
    gateway.shutdown();
}

#[test]
fn kill9_worker_mid_stream_truncates_the_merged_stream() {
    let mut workers = [WorkerProc::spawn(), WorkerProc::spawn()];
    let backends: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let gateway = spawn_gateway(backends);
    let addr = gateway.addr().to_string();

    // A grid big and slow enough (heavier nets, a devices axis) that
    // neither worker can finish its slice before the kill lands, so
    // killing worker 0 right after the first merged line leaves pending
    // cells to die with it.
    let grid = r#"{"benchmarks": ["VggE", "GoogLeNet", "ResNet"], "devices": [2, 4, 6, 8]}"#;
    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let mut stream = conn
        .request_stream("POST", "/grid?stream=1", Some(grid))
        .expect("open merged stream");
    assert_eq!(stream.status, 200);

    let first = stream
        .next_line()
        .expect("at least one line")
        .expect("clean first line");
    assert!(first.contains("\"report\""), "not a cell line: {first}");
    workers[0].kill9();

    // Drain the rest: the stream must END IN AN ERROR (truncation), and
    // must never pretend to be a complete grid.
    let mut lines = 1usize;
    let mut truncated = false;
    while let Some(line) = stream.next_line() {
        match line {
            Ok(_) => lines += 1,
            Err(e) => {
                truncated = true;
                assert!(e.contains("truncated"), "error does not say truncated: {e}");
                break;
            }
        }
    }
    let total_cells = 6 * 3 * 2 * 4;
    assert!(
        truncated,
        "stream ended cleanly with {lines}/{total_cells} cells after a worker was SIGKILLed"
    );
    assert!(lines < total_cells, "somehow saw every cell");
    gateway.shutdown();
}

#[test]
fn kill9_then_gateway_grid_still_matches_a_single_node() {
    let mut workers = [
        WorkerProc::spawn(),
        WorkerProc::spawn(),
        WorkerProc::spawn(),
    ];
    let backends: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let gateway = spawn_gateway(backends);
    let addr = gateway.addr().to_string();

    // Take a worker out *before* the request: the buffered scatter must
    // fail its slice over and still assemble the full grid.
    workers[1].kill9();
    let body = r#"{"benchmarks": ["AlexNet"]}"#;
    let via_gateway = request_once(&addr, "POST", "/grid", Some(body)).expect("gateway grid");
    assert_eq!(via_gateway.status, 200, "{}", via_gateway.body);

    // Reference: one surviving worker, asked directly.
    let via_single =
        request_once(&workers[0].addr, "POST", "/grid", Some(body)).expect("single grid");
    assert_eq!(via_single.status, 200);

    let cells = |body: &str| -> Vec<String> {
        let Value::Map(entries) = serde::json::parse(body).unwrap() else {
            panic!("grid answer is not an object")
        };
        let Some((_, Value::Seq(cells))) = entries.into_iter().find(|(k, _)| k == "cells") else {
            panic!("no cells")
        };
        cells
            .iter()
            .map(|cell| {
                let Value::Map(entries) = cell else {
                    panic!("cell is not an object")
                };
                let kept: Vec<(String, Value)> = entries
                    .iter()
                    .filter(|(k, _)| k != "cached")
                    .cloned()
                    .collect();
                serde::json::to_string(&Value::Map(kept))
            })
            .collect()
    };
    assert_eq!(cells(&via_gateway.body), cells(&via_single.body));
    gateway.shutdown();
}
