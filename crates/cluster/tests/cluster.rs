//! End-to-end cluster behaviour over real loopback sockets: routing,
//! scatter-gather identity with a single node, failover, error mapping,
//! stats aggregation, and metrics — all with in-process fleets.
//! (Kill -9 failure injection lives in the workspace-root
//! `tests/cluster_failover.rs`, which spawns real worker processes.)

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdla_cluster::{spawn_local_fleet, FleetConfig, Topology};
use mcdla_core::{FabricTopology, Scenario, SystemDesign};
use mcdla_dnn::Benchmark;
use mcdla_parallel::ParallelStrategy;
use mcdla_serve::client::{Connection, Timeouts};
use mcdla_serve::{ServeConfig, Server};
use serde::Value;

fn fleet(workers: usize) -> mcdla_cluster::LocalFleet {
    spawn_local_fleet(&FleetConfig {
        workers,
        worker_threads: 2,
        gateway_threads: 4,
        probe_interval: None,
        ..FleetConfig::default()
    })
    .expect("spawn fleet")
}

fn scenario_json(scenario: &Scenario) -> String {
    serde::json::to_string(scenario)
}

/// Drops `cached` (and optionally `wall_ms`, which cell payloads don't
/// carry but sweep payloads do) from a cell object for identity checks.
fn strip_cached(cell: &Value) -> Value {
    match cell {
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .filter(|(k, _)| k != "cached" && k != "wall_ms")
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        ),
        other => other.clone(),
    }
}

fn grid_cells(body: &str) -> Vec<Value> {
    let parsed = serde::json::parse(body).expect("grid JSON");
    let Value::Map(entries) = parsed else {
        panic!("grid answer is not an object")
    };
    let Some((_, Value::Seq(cells))) = entries.into_iter().find(|(k, _)| k == "cells") else {
        panic!("grid answer has no cells array")
    };
    cells
}

#[test]
fn simulate_routes_to_the_rendezvous_owner_and_passes_through() {
    let fleet = fleet(3);
    let addr = fleet.gateway_addr().to_string();
    let topology = Topology::new(fleet.worker_addrs()).unwrap();
    let cell = Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    let owner = topology.owner_of(&cell);
    let body = scenario_json(&cell);

    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let first = conn.request("POST", "/simulate", Some(&body)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"cached\": false"));
    let second = conn.request("POST", "/simulate", Some(&body)).unwrap();
    assert!(second.body.contains("\"cached\": true"));

    // Exactly the rendezvous owner simulated (and holds) the cell.
    for (i, worker) in fleet.workers.iter().enumerate() {
        let expected = usize::from(i == owner);
        assert_eq!(
            worker.store().len(),
            expected,
            "worker {i} holds the wrong cell count"
        );
    }

    // Passthrough: the gateway answer is byte-identical to asking the
    // owning worker directly (both cached now).
    let direct = mcdla_serve::client::request_once(
        &fleet.worker_addrs()[owner],
        "POST",
        "/simulate",
        Some(&body),
    )
    .unwrap();
    assert_eq!(second.body, direct.body);
    fleet.shutdown();
}

#[test]
fn buffered_grid_matches_a_single_node_cell_for_cell() {
    let single = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_cap: None,
        snapshot: None,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let fleet = fleet(3);
    let body = r#"{"benchmarks": ["AlexNet", "GoogLeNet"]}"#;

    let via_gateway = mcdla_serve::client::request_once(
        &fleet.gateway_addr().to_string(),
        "POST",
        "/grid",
        Some(body),
    )
    .unwrap();
    assert_eq!(via_gateway.status, 200, "{}", via_gateway.body);
    let via_single =
        mcdla_serve::client::request_once(&single.addr().to_string(), "POST", "/grid", Some(body))
            .unwrap();
    assert_eq!(via_single.status, 200);

    let gateway_cells = grid_cells(&via_gateway.body);
    let single_cells = grid_cells(&via_single.body);
    assert_eq!(gateway_cells.len(), 24);
    assert_eq!(gateway_cells.len(), single_cells.len());
    // Same cells, same order (the gateway merges back into grid order),
    // same payloads modulo the per-store `cached` flag.
    for (g, s) in gateway_cells.iter().zip(&single_cells) {
        assert_eq!(strip_cached(g), strip_cached(s));
    }
    // The scatter really spread work: no single worker computed it all.
    let per_worker: Vec<usize> = fleet.workers.iter().map(|w| w.store().len()).collect();
    assert_eq!(per_worker.iter().sum::<usize>(), 24);
    assert!(
        per_worker.iter().all(|&n| n < 24),
        "one worker owned the whole grid: {per_worker:?}"
    );
    fleet.shutdown();
    single.shutdown();
}

#[test]
fn streamed_grid_merges_every_partition_and_stays_reusable() {
    let fleet = fleet(2);
    let addr = fleet.gateway_addr().to_string();
    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let stream = conn
        .request_stream("POST", "/grid?stream=1", Some("{}"))
        .unwrap();
    assert_eq!(stream.status, 200);
    let lines = stream.collect_lines().expect("clean merged stream");
    assert_eq!(lines.len(), 96);

    // Streamed lines match the buffered grid cells payload-for-payload.
    let buffered = conn.request("POST", "/grid", Some("{}")).unwrap();
    let mut buffered_cells: Vec<String> = grid_cells(&buffered.body)
        .iter()
        .map(|c| serde::json::to_string(&strip_cached(c)))
        .collect();
    let mut streamed_cells: Vec<String> = lines
        .iter()
        .map(|l| serde::json::to_string(&strip_cached(&serde::json::parse(l).unwrap())))
        .collect();
    buffered_cells.sort();
    streamed_cells.sort();
    assert_eq!(buffered_cells, streamed_cells);

    // The keep-alive connection stays framed after a clean stream.
    let health = conn.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    fleet.shutdown();
}

#[test]
fn gateway_simulates_each_repeated_cell_once() {
    let fleet = fleet(2);
    let addr = fleet.gateway_addr().to_string();
    let a = Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    let b = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::GoogLeNet,
        ParallelStrategy::DataParallel,
    );
    let body = format!(
        r#"{{"cells": [{a}, {b}, {a}, {a}]}}"#,
        a = scenario_json(&a),
        b = scenario_json(&b)
    );

    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let resp = conn.request("POST", "/grid", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let cells = grid_cells(&resp.body);
    assert_eq!(cells.len(), 4, "one output cell per input cell");
    assert_eq!(strip_cached(&cells[0]), strip_cached(&cells[2]));
    assert_eq!(strip_cached(&cells[0]), strip_cached(&cells[3]));
    // Every copy reached its owner, whose single-flight store simulated
    // each distinct cell once and answered the repeats from its cache.
    let (misses, entries) = fleet.workers.iter().fold((0, 0), |(m, n), w| {
        let stats = w.store().stats();
        (m + stats.misses, n + stats.entries)
    });
    assert_eq!(entries, 2, "the fleet holds one entry per distinct cell");
    assert_eq!(misses, 2, "a repeated cell was simulated more than once");

    // The streamed form keeps the line-per-input-cell contract too.
    let stream = conn
        .request_stream("POST", "/grid?stream=1", Some(&body))
        .unwrap();
    assert_eq!(stream.status, 200);
    let lines = stream.collect_lines().expect("clean merged stream");
    assert_eq!(lines.len(), 4, "one streamed line per input cell");
    let parse = |l: &String| serde::json::to_string(&strip_cached(&serde::json::parse(l).unwrap()));
    let payloads: Vec<String> = lines.iter().map(parse).collect();
    let a_payload = serde::json::to_string(&strip_cached(&cells[0]));
    assert_eq!(payloads.iter().filter(|p| **p == a_payload).count(), 3);
    fleet.shutdown();
}

#[test]
fn streamed_duplicates_repeat_their_own_cell_in_completion_order() {
    // One worker streams its slice as cells finish, so the slow cell,
    // listed first, arrives after the fast one; its held-back duplicate
    // must still repeat the slow cell.
    let fleet = fleet(1);
    let addr = fleet.gateway_addr().to_string();
    let slow = Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::GoogLeNet,
        ParallelStrategy::ModelParallel,
    )
    .with_devices(4096)
    .with_topology(FabricTopology::Ring);
    let fast = Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    let body = format!(
        r#"{{"cells": [{slow}, {fast}, {slow}]}}"#,
        slow = scenario_json(&slow),
        fast = scenario_json(&fast)
    );

    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let stream = conn
        .request_stream("POST", "/grid?stream=1", Some(&body))
        .unwrap();
    assert_eq!(stream.status, 200);
    let lines = stream.collect_lines().expect("clean merged stream");
    let digests: Vec<String> = lines
        .iter()
        .map(|l| {
            let cell = serde::json::parse(l).unwrap();
            cell.get("digest")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    let count = |s: &Scenario| {
        let digest = format!("{:016x}", s.digest());
        digests.iter().filter(|d| **d == digest).count()
    };
    assert_eq!((count(&slow), count(&fast)), (2, 1), "{digests:?}");
    fleet.shutdown();
}

#[test]
fn worker_grid_accepts_explicit_cells_and_rejects_mixtures() {
    let single = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        cache_cap: None,
        snapshot: None,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let addr = single.addr().to_string();
    let a = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    let b = a.with_batch(1024);
    let body = format!(
        r#"{{"cells": [{}, {}]}}"#,
        scenario_json(&a),
        scenario_json(&b)
    );
    let resp = mcdla_serve::client::request_once(&addr, "POST", "/grid", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let cells = grid_cells(&resp.body);
    assert_eq!(cells.len(), 2);
    // Cells answer in list order.
    let digest_of = |v: &Value| match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == "digest")
            .map(|(_, v)| serde::json::to_string(v))
            .unwrap(),
        _ => panic!("cell is not an object"),
    };
    assert_eq!(digest_of(&cells[0]), format!("\"{:016x}\"", a.digest()));
    assert_eq!(digest_of(&cells[1]), format!("\"{:016x}\"", b.digest()));

    let mixed = format!(
        r#"{{"cells": [{}], "benchmarks": ["AlexNet"]}}"#,
        scenario_json(&a)
    );
    let resp = mcdla_serve::client::request_once(&addr, "POST", "/grid", Some(&mixed)).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("cannot be combined"), "{}", resp.body);
    let empty = r#"{"cells": []}"#;
    let resp = mcdla_serve::client::request_once(&addr, "POST", "/grid", Some(empty)).unwrap();
    assert_eq!(resp.status, 400);
    single.shutdown();
}

#[test]
fn point_queries_fail_over_when_the_owner_goes_down() {
    let mut fleet = fleet(3);
    let addr = fleet.gateway_addr().to_string();
    let topology = Topology::new(fleet.worker_addrs()).unwrap();
    let cell = Scenario::new(
        SystemDesign::HcDla,
        Benchmark::VggE,
        ParallelStrategy::ModelParallel,
    );
    let owner = topology.owner_of(&cell);
    let body = scenario_json(&cell);

    // Warm through the gateway, then take the owner down.
    let warm = mcdla_serve::client::request_once(&addr, "POST", "/simulate", Some(&body)).unwrap();
    assert_eq!(warm.status, 200);
    fleet.workers.remove(owner).shutdown();

    // The gateway must answer via the next replica — which recomputes
    // the cell (its store never saw it) to a bit-identical report.
    let failed_over =
        mcdla_serve::client::request_once(&addr, "POST", "/simulate", Some(&body)).unwrap();
    assert_eq!(failed_over.status, 200, "{}", failed_over.body);
    let report_of = |body: &str| {
        let Value::Map(entries) = serde::json::parse(body).unwrap() else {
            panic!("not an object")
        };
        let report = entries.into_iter().find(|(k, _)| k == "report").unwrap().1;
        serde::json::to_string(&report)
    };
    assert_eq!(report_of(&warm.body), report_of(&failed_over.body));

    // The fleet view reflects the outage.
    let stats = mcdla_serve::client::request_once(&addr, "GET", "/cluster/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    let parsed = serde::json::parse(&stats.body).unwrap();
    let up = {
        let Value::Map(entries) = &parsed else {
            panic!("not an object")
        };
        let Some((_, Value::Map(fleet))) = entries.iter().find(|(k, _)| k == "fleet") else {
            panic!("no fleet section")
        };
        match fleet.iter().find(|(k, _)| k == "up") {
            Some((_, Value::U64(n))) => *n,
            other => panic!("no fleet.up: {other:?}"),
        }
    };
    assert_eq!(up, 2);
    fleet.shutdown();
}

#[test]
fn grids_fail_over_and_an_all_dead_fleet_is_a_502_naming_workers() {
    let mut fleet = fleet(2);
    let addr = fleet.gateway_addr().to_string();
    let worker_addrs = fleet.worker_addrs();

    // Kill one worker: the buffered grid reroutes its slice.
    fleet.workers.remove(1).shutdown();
    let resp = mcdla_serve::client::request_once(
        &addr,
        "POST",
        "/grid",
        Some(r#"{"benchmarks": ["AlexNet"]}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(grid_cells(&resp.body).len(), 12);

    // Kill the last worker: point and grid queries answer 502 and name
    // the unreachable workers.
    fleet.workers.remove(0).shutdown();
    let cell = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    let resp =
        mcdla_serve::client::request_once(&addr, "POST", "/simulate", Some(&scenario_json(&cell)))
            .unwrap();
    assert_eq!(resp.status, 502, "{}", resp.body);
    assert!(
        worker_addrs.iter().any(|w| resp.body.contains(w)),
        "502 does not name a worker: {}",
        resp.body
    );
    let resp = mcdla_serve::client::request_once(&addr, "POST", "/grid", Some("{}")).unwrap();
    assert_eq!(resp.status, 502);
    let resp =
        mcdla_serve::client::request_once(&addr, "POST", "/grid?stream=1", Some("{}")).unwrap();
    assert_eq!(
        resp.status, 502,
        "stream open failure must be a buffered 502"
    );
    fleet.shutdown();
}

/// A backend that answers a sub-grid request with a chunked 200 head and
/// one genuine cell line — the first cell it was sent — and then closes
/// without the terminal chunk.
fn worker_dying_mid_answer() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            // Read the whole request, so closing sends FIN rather than RST.
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let (mut header, mut length) = (String::new(), 0);
            while reader.read_line(&mut header).unwrap_or(0) > 2 {
                if let Some(n) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                    length = n.trim().parse().unwrap();
                }
                header.clear();
            }
            let mut body = vec![0; length];
            reader.read_exact(&mut body).unwrap();
            let grid = serde::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            let first = &grid.get("cells").and_then(Value::as_seq).unwrap()[0];
            let s: Scenario = serde::Deserialize::from_value(first).unwrap();
            let line = serde::json::to_string(&mcdla_serve::cell_value(&s, &s.simulate(), false));
            let head = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n";
            let chunk = format!("{:x}\r\n{line}\n\r\n", line.len() + 1);
            let _ = stream.write_all(format!("{head}{chunk}").as_bytes());
        }
    });
    addr
}

#[test]
fn buffered_grid_reroutes_cells_a_worker_dropped_mid_answer() {
    let worker = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let worker_addr = worker.addr().to_string();
    let gateway = mcdla_cluster::Gateway::bind(&mcdla_cluster::GatewayConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        backends: vec![worker_dying_mid_answer(), worker_addr.clone()],
        probe_interval: None,
        ..mcdla_cluster::GatewayConfig::default()
    })
    .expect("bind gateway")
    .spawn()
    .expect("spawn gateway");

    // Of 24 cells the stub owns some (all but certainly), answers one
    // and drops the rest; the real worker must take them over.
    let body = r#"{"benchmarks": ["AlexNet", "GoogLeNet"]}"#;
    let gateway_addr = gateway.addr().to_string();
    let via_gateway =
        mcdla_serve::client::request_once(&gateway_addr, "POST", "/grid", Some(body)).unwrap();
    assert_eq!(via_gateway.status, 200, "{}", via_gateway.body);
    assert!(
        !gateway.router().workers()[0].is_up(),
        "the worker that dropped its answer must be marked down"
    );

    // Every cell, in grid order, as one node answers it.
    let via_single =
        mcdla_serve::client::request_once(&worker_addr, "POST", "/grid", Some(body)).unwrap();
    let gateway_cells = grid_cells(&via_gateway.body);
    let single_cells = grid_cells(&via_single.body);
    assert_eq!(gateway_cells.len(), 24);
    assert_eq!(gateway_cells.len(), single_cells.len());
    for (g, s) in gateway_cells.iter().zip(&single_cells) {
        assert_eq!(strip_cached(g), strip_cached(s));
    }
    gateway.shutdown();
    worker.shutdown();
}

/// A backend that answers a sub-grid request with a chunked 200 head and
/// then stalls, holding the connection open until the gateway closes
/// it.
fn worker_stalling_after_the_head() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let head = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n";
            let _ = stream.write_all(head.as_bytes());
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        }
    });
    addr
}

/// Fast analytical cells that `topology` gives to worker `w`.
fn cells_owned_by(topology: &Topology, w: usize) -> impl Iterator<Item = Scenario> + '_ {
    let cell = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    (1..)
        .map(move |i| cell.with_batch(64 * i))
        .filter(move |s| topology.owner_of(s) == w)
}

/// A `{"cells": [...]}` grid body listing `cells`.
fn cells_body(cells: &[Scenario]) -> String {
    let cells: Vec<String> = cells.iter().map(scenario_json).collect();
    format!(r#"{{"cells": [{}]}}"#, cells.join(", "))
}

#[test]
fn streamed_grid_forwards_each_worker_as_it_finishes() {
    // Worker 0 owns one slow routed cell (a cold 8,000-device fat tree,
    // about 0.45 s) and worker 1 owns fast analytical cells: worker 1's
    // lines must reach the client without waiting behind worker 0's.
    let fleet = fleet(2);
    let topology = Topology::new(fleet.worker_addrs()).unwrap();
    let slow = Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::GoogLeNet,
        ParallelStrategy::ModelParallel,
    )
    .with_devices(8000)
    .with_topology(FabricTopology::FatTree);
    let slow = (0..)
        .map(|i| slow.with_batch(512 + 64 * i))
        .find(|s| topology.owner_of(s) == 0)
        .unwrap();
    let mut cells: Vec<Scenario> = cells_owned_by(&topology, 1).take(8).collect();
    cells.insert(0, slow);

    let mut conn = Connection::open(&fleet.gateway_addr().to_string()).unwrap();
    let stream = conn
        .request_stream("POST", "/grid?stream=1", Some(&cells_body(&cells)))
        .unwrap();
    assert_eq!(stream.status, 200);
    let lines = stream.collect_lines().expect("clean merged stream");
    assert_eq!(lines.len(), cells.len());
    let first = serde::json::parse(&lines[0]).unwrap();
    let digest = first.get("digest").and_then(Value::as_str).unwrap();
    assert_ne!(
        digest,
        format!("{:016x}", slow.digest()),
        "worker 1's lines waited behind worker 0's"
    );
    fleet.shutdown();
}

#[test]
fn streamed_grid_failure_closes_every_sub_stream_at_once() {
    // Worker 0 stalls after its head; worker 1 dies after one line. The
    // gateway must end the client's stream at once rather than wait out
    // its 20 s read deadline on worker 0, and a sub-stream it closed
    // itself is not worker 0's failure.
    let backends = vec![worker_stalling_after_the_head(), worker_dying_mid_answer()];
    let topology = Topology::new(backends.clone()).unwrap();
    let gateway = mcdla_cluster::Gateway::bind(&mcdla_cluster::GatewayConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        backends,
        timeouts: Timeouts {
            read: Duration::from_secs(20),
            ..Timeouts::default()
        },
        probe_interval: None,
        ..mcdla_cluster::GatewayConfig::default()
    })
    .expect("bind gateway")
    .spawn()
    .expect("spawn gateway");
    let cells = [0, 1].map(|w| cells_owned_by(&topology, w).next().unwrap());

    let started = Instant::now();
    let mut conn = Connection::open(&gateway.addr().to_string()).unwrap();
    let stream = conn
        .request_stream("POST", "/grid?stream=1", Some(&cells_body(&cells)))
        .unwrap();
    assert_eq!(stream.status, 200);
    let ended = stream.collect_lines();
    let elapsed = started.elapsed();
    assert!(
        ended.is_err(),
        "the stream must end without its terminal chunk"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "the stream took {elapsed:?}"
    );
    let workers = gateway.router().workers();
    assert!(!workers[1].is_up(), "the dying worker must be marked down");
    assert!(workers[0].is_up(), "the stalled worker must stay up");
    assert_eq!(workers[0].failures.load(Ordering::Relaxed), 0);
    gateway.shutdown();
}

#[test]
fn gateway_rejects_bad_requests_locally() {
    let fleet = fleet(1);
    let addr = fleet.gateway_addr().to_string();
    for (path, body, needle) in [
        ("/simulate", "not json", "bad scenario JSON"),
        (
            "/simulate",
            r#"{"dessign": "DcDla"}"#,
            "unknown Scenario field",
        ),
        ("/grid", r#"{"batches": [0]}"#, "batch sizes"),
        ("/grid", r#"{"designs": []}"#, "zero cells"),
    ] {
        let resp = mcdla_serve::client::request_once(&addr, "POST", path, Some(body)).unwrap();
        assert_eq!(resp.status, 400, "{path} with `{body}`");
        assert!(resp.body.contains(needle), "{}", resp.body);
    }
    // Nothing reached the fleet.
    assert_eq!(fleet.workers[0].store().len(), 0);
    let resp = mcdla_serve::client::request_once(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(resp.status, 404);
    let resp = mcdla_serve::client::request_once(&addr, "POST", "/healthz", None).unwrap();
    assert_eq!(resp.status, 405);
    fleet.shutdown();
}

#[test]
fn metrics_expose_gateway_and_worker_counters() {
    let fleet = fleet(2);
    let addr = fleet.gateway_addr().to_string();
    let cell = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    let _ =
        mcdla_serve::client::request_once(&addr, "POST", "/simulate", Some(&scenario_json(&cell)))
            .unwrap();

    let metrics = mcdla_serve::client::request_once(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("mcdla_gateway_up 1"));
    assert!(metrics
        .body
        .contains("mcdla_gateway_requests_total{endpoint=\"simulate\"} 1"));
    for worker in fleet.worker_addrs() {
        assert!(
            metrics
                .body
                .contains(&format!("mcdla_gateway_worker_up{{worker=\"{worker}\"}} 1")),
            "missing worker_up for {worker}"
        );
    }

    // The worker's own exposition (the satellite endpoint).
    let worker_metrics =
        mcdla_serve::client::request_once(&fleet.worker_addrs()[0], "GET", "/metrics", None)
            .unwrap();
    assert_eq!(worker_metrics.status, 200);
    assert!(worker_metrics
        .body
        .contains("# TYPE mcdla_store_hits_total counter"));
    assert!(worker_metrics.body.contains("mcdla_store_entries"));
    assert!(worker_metrics
        .body
        .contains("mcdla_requests_total{endpoint=\"metrics\"} 1"));
    fleet.shutdown();
}

#[test]
fn background_prober_revives_a_worker_marked_down() {
    let fleet = spawn_local_fleet(&FleetConfig {
        workers: 1,
        worker_threads: 2,
        gateway_threads: 2,
        probe_interval: Some(std::time::Duration::from_millis(100)),
        ..FleetConfig::default()
    })
    .expect("spawn fleet");
    fleet.gateway.router().workers()[0].mark_down("injected outage");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !fleet.gateway.router().workers()[0].is_up() {
        assert!(
            std::time::Instant::now() < deadline,
            "prober never revived the worker"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    fleet.shutdown();
}

#[test]
fn traced_simulate_carries_one_request_id_through_every_hop() {
    let fleet = fleet(3);
    let addr = fleet.gateway_addr().to_string();
    let cell = Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::VggE,
        ParallelStrategy::ModelParallel,
    );
    let body = scenario_json(&cell);
    let rid = "fleet-trace-1";

    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let resp = conn
        .request_with(
            "POST",
            "/simulate?trace=1",
            &[("x-mcdla-request-id", rid)],
            Some(&body),
        )
        .expect("traced simulate");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // The gateway echoes the propagated id.
    assert_eq!(resp.header("x-mcdla-request-id"), Some(rid));

    let parsed = serde::json::parse(&resp.body).expect("simulate JSON");
    assert!(parsed.get("report").is_some(), "{}", resp.body);
    let trace = parsed.get("trace").expect("gateway trace grafted");
    assert_eq!(trace.get("id").and_then(|v| v.as_str()), Some(rid));
    assert_eq!(
        trace.get("service").and_then(|v| v.as_str()),
        Some("mcdla-gateway")
    );
    let gateway_spans: Vec<&str> = trace
        .get("spans")
        .and_then(|s| s.as_seq())
        .expect("gateway spans")
        .iter()
        .map(|s| s.get("name").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert!(
        gateway_spans.contains(&"gateway.route"),
        "{gateway_spans:?}"
    );
    assert!(
        !gateway_spans.iter().any(|n| n.starts_with("pool.")),
        "{gateway_spans:?}"
    );
    assert!(
        gateway_spans
            .iter()
            .any(|n| n.starts_with("gateway.upstream.")),
        "{gateway_spans:?}"
    );

    // The grafted upstream block names the worker that answered and
    // carries its sub-trace under the very same id.
    let upstream = trace
        .get("upstream")
        .and_then(|u| u.as_seq())
        .expect("upstream block");
    assert_eq!(upstream.len(), 1);
    let hop = &upstream[0];
    let worker_idx = hop.get("worker").and_then(|v| v.as_u64()).expect("worker") as usize;
    assert!(worker_idx < 3);
    let sub = hop.get("trace").expect("worker sub-trace");
    assert_eq!(sub.get("id").and_then(|v| v.as_str()), Some(rid));
    let worker_spans: Vec<&str> = sub
        .get("spans")
        .and_then(|s| s.as_seq())
        .expect("worker spans")
        .iter()
        .map(|s| s.get("name").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert!(
        worker_spans.contains(&"engine.simulate"),
        "{worker_spans:?}"
    );
    assert!(
        worker_spans.iter().any(|n| n.starts_with("stage.")),
        "{worker_spans:?}"
    );

    // Exactly the answering worker recorded the trace; the others 404.
    let mut hits = Vec::new();
    for (i, worker_addr) in fleet.worker_addrs().iter().enumerate() {
        let mut wconn = Connection::open(worker_addr).expect("open worker");
        let replay = wconn
            .request("GET", &format!("/debug/trace/{rid}"), None)
            .expect("worker debug trace");
        if replay.status == 200 {
            assert!(replay.body.contains(rid));
            hits.push(i);
        } else {
            assert_eq!(replay.status, 404);
        }
    }
    assert_eq!(hits, vec![worker_idx], "trace recorded on the wrong worker");

    // The gateway's own flight recorder replays the trace too.
    let replay = conn
        .request("GET", &format!("/debug/trace/{rid}"), None)
        .expect("gateway debug trace");
    assert_eq!(replay.status, 200, "{}", replay.body);
    assert!(replay.body.contains("mcdla-gateway"), "{}", replay.body);
    let listing = conn
        .request("GET", "/debug/requests?endpoint=simulate", None)
        .expect("gateway debug requests");
    assert_eq!(listing.status, 200);
    assert!(listing.body.contains(rid), "{}", listing.body);

    fleet.shutdown();
}

#[test]
fn gateway_metrics_expose_latency_histograms_and_build_info() {
    let fleet = fleet(2);
    let addr = fleet.gateway_addr().to_string();
    let cell = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::ResNet,
        ParallelStrategy::DataParallel,
    );
    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let resp = conn
        .request("POST", "/simulate", Some(&scenario_json(&cell)))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let metrics = conn.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let text = &metrics.body;
    for needle in [
        "# TYPE mcdla_gateway_request_seconds histogram",
        "mcdla_gateway_request_seconds_bucket{endpoint=\"simulate\",le=\"+Inf\"}",
        "mcdla_gateway_request_seconds_count{endpoint=\"simulate\"}",
        "# TYPE mcdla_gateway_upstream_seconds histogram",
        "mcdla_gateway_upstream_seconds_bucket{worker=",
        "mcdla_build_info{",
    ] {
        assert!(
            text.contains(needle),
            "gateway metrics missing `{needle}`:\n{text}"
        );
    }

    fleet.shutdown();
}

#[test]
fn gateway_502_body_names_the_request_id() {
    // A backend address with nothing listening: bind, learn the port,
    // drop the listener. No prober, so the gateway only learns of the
    // outage from the request itself.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let gateway = mcdla_cluster::Gateway::bind(&mcdla_cluster::GatewayConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        backends: vec![dead],
        probe_interval: None,
        ..mcdla_cluster::GatewayConfig::default()
    })
    .expect("bind gateway");
    let handle = gateway.spawn().expect("spawn gateway");
    let addr = handle.addr().to_string();

    let cell = Scenario::new(
        SystemDesign::HcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    );
    let mut conn = Connection::open(&addr).expect("open gateway connection");
    let resp = conn
        .request_with(
            "POST",
            "/simulate",
            &[("x-mcdla-request-id", "dead-fleet-1")],
            Some(&scenario_json(&cell)),
        )
        .expect("simulate against dead fleet");
    assert_eq!(resp.status, 502, "{}", resp.body);
    assert_eq!(resp.header("x-mcdla-request-id"), Some("dead-fleet-1"));
    assert!(resp.body.contains("\"request_id\""), "{}", resp.body);
    assert!(resp.body.contains("dead-fleet-1"), "{}", resp.body);

    handle.shutdown();
}

/// The ISSUE-10 acceptance scenario: a cold fleet warms up, and
/// `GET /cluster/history` shows the hit-rate climb — a cold sample
/// window with misses and no hits, then a later window with hits and a
/// strictly higher hit rate — with tail-aligned fleet series and
/// monotone timestamps.
#[test]
fn cluster_history_shows_the_warmup_hit_rate_climb() {
    let fleet = spawn_local_fleet(&FleetConfig {
        workers: 2,
        worker_threads: 2,
        gateway_threads: 4,
        probe_interval: None,
        sample_ms: Some(40),
        ..FleetConfig::default()
    })
    .expect("spawn fleet");
    let addr = fleet.gateway_addr().to_string();
    let mut conn = Connection::open(&addr).expect("open gateway connection");

    let cells: Vec<String> = (0..6)
        .map(|i| {
            scenario_json(
                &Scenario::new(
                    SystemDesign::DcDla,
                    Benchmark::AlexNet,
                    ParallelStrategy::DataParallel,
                )
                .with_batch(3_000 + i),
            )
        })
        .collect();

    // Cold phase: every cell misses. Then let the sampler tick a few
    // windows so the misses land in their own samples.
    for body in &cells {
        let resp = conn.request("POST", "/simulate", Some(body)).expect("cold");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Warm phase: the same cells, three rounds — pure hits.
    for _ in 0..3 {
        for body in &cells {
            let resp = conn.request("POST", "/simulate", Some(body)).expect("warm");
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(150));

    let resp = conn
        .request("GET", "/cluster/history", None)
        .expect("cluster history");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = serde::json::parse(&resp.body).expect("cluster history JSON");

    // The gateway's own ring is present and sampling.
    let gateway_samples = parsed
        .get("gateway")
        .and_then(|g| g.get("samples"))
        .and_then(|v| v.as_u64())
        .expect("gateway.samples");
    assert!(gateway_samples > 0, "gateway sampler must have ticked");

    let fleet_block = parsed.get("fleet").expect("fleet block");
    assert_eq!(
        fleet_block.get("up").and_then(|v| v.as_u64()),
        Some(2),
        "both workers reachable: {}",
        resp.body
    );
    let stamps: Vec<u64> = fleet_block
        .get("timestamps_ms")
        .and_then(|v| v.as_seq())
        .expect("fleet.timestamps_ms")
        .iter()
        .map(|v| v.as_u64().expect("timestamp"))
        .collect();
    assert!(!stamps.is_empty(), "fleet history must hold samples");
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "fleet timestamps must be monotone: {stamps:?}"
    );

    let series = |name: &str| -> Vec<f64> {
        fleet_block
            .get("series")
            .and_then(|s| s.get(name))
            .and_then(|v| v.as_seq())
            .unwrap_or_else(|| panic!("fleet series {name} missing"))
            .iter()
            .map(|v| v.as_f64().expect("sample"))
            .collect()
    };
    let hits = series("store.hits_per_s");
    let misses = series("store.misses_per_s");
    let hit_rate = series("store.hit_rate");
    assert_eq!(hits.len(), stamps.len());
    assert_eq!(hit_rate.len(), stamps.len());

    // The climb: a cold window saw misses and no hits (rate 0), and a
    // strictly later window saw hits at a strictly higher rate.
    let cold = (0..stamps.len())
        .find(|&j| misses[j] > 0.0 && hits[j] == 0.0)
        .expect("a cold all-miss sample window");
    let warm = (0..stamps.len())
        .rfind(|&j| hits[j] > 0.0)
        .expect("a warm sample window with hits");
    assert!(
        cold < warm,
        "cold window {cold} must precede warm window {warm}"
    );
    assert!(
        hit_rate[warm] > hit_rate[cold],
        "hit rate must climb from warm-up: {hit_rate:?}"
    );

    // Per-worker rings ride along, marked up.
    let workers = parsed
        .get("workers")
        .and_then(|v| v.as_seq())
        .expect("workers array");
    assert_eq!(workers.len(), 2);
    for worker in workers {
        assert!(
            matches!(worker.get("up"), Some(Value::Bool(true))),
            "worker must be up: {}",
            resp.body
        );
        let samples = worker
            .get("history")
            .and_then(|h| h.get("samples"))
            .and_then(|v| v.as_u64())
            .expect("worker history samples");
        assert!(samples > 0, "worker sampler must have ticked");
    }

    // `?last=` bounds every ring in the answer.
    let resp = conn
        .request("GET", "/cluster/history?last=2", None)
        .expect("bounded cluster history");
    let parsed = serde::json::parse(&resp.body).expect("bounded JSON");
    let bounded = parsed
        .get("fleet")
        .and_then(|f| f.get("samples"))
        .and_then(|v| v.as_u64())
        .expect("bounded fleet samples");
    assert!(
        bounded <= 2,
        "last=2 must bound fleet samples, got {bounded}"
    );

    fleet.shutdown();
}

/// Reads one whole `content-length` response off `stream`, as bytes.
fn read_raw_response(stream: &mut std::net::TcpStream) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&bytes[..end]).to_ascii_lowercase();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .map_or(0, |n| n.trim().parse().unwrap());
            if bytes.len() >= end + 4 + length {
                return bytes;
            }
        }
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "connection closed mid-response");
        bytes.extend_from_slice(&buf[..n]);
    }
}

/// A `POST /simulate` request for `body`, with a pinned request id.
fn simulate_request(body: &str, rid: &str) -> Vec<u8> {
    let head = format!(
        "POST /simulate HTTP/1.1\r\nx-mcdla-request-id: {rid}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    [head.as_bytes(), body.as_bytes()].concat()
}

/// A cell whose miss takes long enough to overlap other requests: a
/// cold routed 8,000-device fat tree.
fn slow_cell(batch: u64) -> Scenario {
    Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::GoogLeNet,
        ParallelStrategy::ModelParallel,
    )
    .with_devices(8000)
    .with_topology(FabricTopology::FatTree)
    .with_batch(batch)
}

#[test]
fn loop_forward_relays_the_owners_bytes_exactly() {
    let fleet = fleet(2);
    let topology = Topology::new(fleet.worker_addrs()).unwrap();
    let cell = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::GoogLeNet,
        ParallelStrategy::DataParallel,
    );
    let body = scenario_json(&cell);
    let gateway = fleet.gateway_addr().to_string();
    let warm = mcdla_serve::client::request_once(&gateway, "POST", "/simulate", Some(&body));
    assert_eq!(warm.unwrap().status, 200);
    let request = simulate_request(&body, "raw-bytes-1");
    let raw = |addr: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(&request).unwrap();
        read_raw_response(&mut stream)
    };
    let via_gateway = raw(&gateway);
    let direct = raw(&fleet.worker_addrs()[topology.owner_of(&cell)]);
    assert_eq!(
        String::from_utf8_lossy(&via_gateway),
        String::from_utf8_lossy(&direct)
    );
    fleet.shutdown();
}

#[test]
fn a_slow_forward_does_not_hold_up_cached_ones() {
    let fleet = fleet(2);
    let gateway = fleet.gateway_addr().to_string();
    let cached = scenario_json(&Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    ));
    let mut conn = Connection::open(&gateway).unwrap();
    assert_eq!(
        conn.request("POST", "/simulate", Some(&cached))
            .unwrap()
            .status,
        200
    );
    let slow = scenario_json(&slow_cell(4096));
    std::thread::scope(|scope| {
        let waiting = scope.spawn(|| {
            let resp =
                mcdla_serve::client::request_once(&gateway, "POST", "/simulate", Some(&slow));
            (resp.unwrap().status, Instant::now())
        });
        std::thread::sleep(Duration::from_millis(100));
        for _ in 0..20 {
            let resp = conn.request("POST", "/simulate", Some(&cached)).unwrap();
            assert_eq!(resp.status, 200);
        }
        let cached_done = Instant::now();
        let (status, slow_done) = waiting.join().unwrap();
        assert_eq!(status, 200);
        assert!(
            cached_done < slow_done,
            "20 cached forwards waited behind the miss"
        );
    });
    fleet.shutdown();
}

/// A backend that accepts connections and never answers.
fn worker_never_answering() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming().flatten() {
            held.push(stream);
        }
    });
    addr
}

#[test]
fn an_upstream_deadline_marks_the_worker_down_and_fails_over() {
    let worker = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let timeouts = Timeouts {
        read: Duration::from_millis(300),
        ..Timeouts::default()
    };
    let gateway_over = |backends: Vec<String>| {
        mcdla_cluster::Gateway::bind(&mcdla_cluster::GatewayConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            backends,
            timeouts,
            probe_interval: None,
            ..mcdla_cluster::GatewayConfig::default()
        })
        .expect("bind gateway")
        .spawn()
        .expect("spawn gateway")
    };
    let silent = worker_never_answering();
    let backends = vec![silent.clone(), worker.addr().to_string()];
    let topology = Topology::new(backends.clone()).unwrap();
    let gateway = gateway_over(backends);
    let cell = cells_owned_by(&topology, 0).next().unwrap();
    let started = Instant::now();
    let resp = mcdla_serve::client::request_once(
        &gateway.addr().to_string(),
        "POST",
        "/simulate",
        Some(&scenario_json(&cell)),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(started.elapsed() >= Duration::from_millis(300));
    assert!(!gateway.router().workers()[0].is_up());
    assert_eq!(gateway.router().failovers.load(Ordering::Relaxed), 1);
    gateway.shutdown();

    // With only the silent worker, the answer is the 502 naming it.
    let gateway = gateway_over(vec![silent.clone()]);
    let mut stream = std::net::TcpStream::connect(gateway.addr()).unwrap();
    stream
        .write_all(&simulate_request(&scenario_json(&cell), "deadline-502"))
        .unwrap();
    let text = String::from_utf8(read_raw_response(&mut stream)).unwrap();
    assert!(text.starts_with("HTTP/1.1 502 "), "{text}");
    assert!(
        text.contains(&silent) && text.contains("deadline-502"),
        "{text}"
    );
    gateway.shutdown();
    worker.shutdown();
}

/// A backend that answers every request with a small 200 and then
/// closes the connection.
fn worker_closing_after_each_answer() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let (mut header, mut length) = (String::new(), 0);
            while reader.read_line(&mut header).unwrap_or(0) > 2 {
                if let Some(n) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                    length = n.trim().parse().unwrap();
                }
                header.clear();
            }
            let mut body = vec![0; length];
            if reader.read_exact(&mut body).is_ok() {
                let answer = "HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n{\"ok\":true}";
                let _ = stream.write_all(answer.as_bytes());
            }
        }
    });
    addr
}

#[test]
fn a_stale_upstream_connection_costs_one_retry_and_no_failover() {
    let gateway = mcdla_cluster::Gateway::bind(&mcdla_cluster::GatewayConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        backends: vec![worker_closing_after_each_answer()],
        probe_interval: None,
        ..mcdla_cluster::GatewayConfig::default()
    })
    .expect("bind gateway")
    .spawn()
    .expect("spawn gateway");
    let body = scenario_json(&Scenario::new(
        SystemDesign::HcDla,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    ));
    let mut conn = Connection::open(&gateway.addr().to_string()).unwrap();
    for _ in 0..2 {
        let resp = conn.request("POST", "/simulate", Some(&body)).unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (200, "{\"ok\":true}"));
    }
    let router = gateway.router();
    assert_eq!(router.retries(), 1);
    assert_eq!(router.failovers.load(Ordering::Relaxed), 0);
    assert!(router.workers()[0].is_up());
    gateway.shutdown();
}

/// A stub worker that answers the first request it ever reads, then
/// reads and stalls on every later one, on any connection.
fn stub_answering_once() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap().to_string();
    let answered = Arc::new(AtomicBool::new(false));
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let answered = answered.clone();
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                while let Ok(1..) = stream.read(&mut buf) {
                    if !answered.swap(true, Ordering::SeqCst) {
                        let head = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";
                        let _ = stream.write_all(head.as_bytes());
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn a_stalled_upstream_link_costs_one_deadline_and_no_retry() {
    let worker = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let backends = vec![stub_answering_once(), worker.addr().to_string()];
    let topology = Topology::new(backends.clone()).unwrap();
    let gateway = mcdla_cluster::Gateway::bind(&mcdla_cluster::GatewayConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        backends,
        timeouts: Timeouts {
            read: Duration::from_millis(300),
            ..Timeouts::default()
        },
        probe_interval: None,
        ..mcdla_cluster::GatewayConfig::default()
    })
    .expect("bind gateway")
    .spawn()
    .expect("spawn gateway");
    let body = scenario_json(&cells_owned_by(&topology, 0).next().unwrap());
    // Warm the live worker, so its answer costs no simulation below.
    let warm = mcdla_serve::client::request_once(
        &worker.addr().to_string(),
        "POST",
        "/simulate",
        Some(&body),
    );
    assert_eq!(warm.unwrap().status, 200);
    let mut conn = Connection::open(&gateway.addr().to_string()).unwrap();
    let first = conn.request("POST", "/simulate", Some(&body)).unwrap();
    assert_eq!((first.status, first.body.as_str()), (200, "{}"));
    // The stub's parked link now stalls: one read deadline marks it
    // down, with no second deadline on a "stale" retry.
    let started = Instant::now();
    let second = conn.request("POST", "/simulate", Some(&body)).unwrap();
    let waited = started.elapsed();
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(second.body.contains("\"report\""), "{}", second.body);
    assert!(
        waited >= Duration::from_millis(300) && waited < Duration::from_millis(550),
        "failover took {waited:?}, not one deadline"
    );
    let router = gateway.router();
    assert_eq!(router.retries(), 0, "a deadline is no stale connection");
    assert!(!router.workers()[0].is_up());
    assert_eq!(router.failovers.load(Ordering::Relaxed), 1);
    gateway.shutdown();
    worker.shutdown();
}

#[test]
fn a_backend_named_by_host_name_is_reached_on_the_loop() {
    let worker = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let gateway = mcdla_cluster::Gateway::bind(&mcdla_cluster::GatewayConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        backends: vec![format!("localhost:{}", worker.addr().port())],
        probe_interval: None,
        ..mcdla_cluster::GatewayConfig::default()
    })
    .expect("bind gateway")
    .spawn()
    .expect("spawn gateway");
    let body = scenario_json(&Scenario::new(
        SystemDesign::DcDla,
        Benchmark::AlexNet,
        ParallelStrategy::ModelParallel,
    ));
    let mut conn = Connection::open(&gateway.addr().to_string()).unwrap();
    for _ in 0..3 {
        let resp = conn.request("POST", "/simulate", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let state = &gateway.router().workers()[0];
    assert!(state.is_up());
    assert_eq!(state.failures.load(Ordering::Relaxed), 0);
    gateway.shutdown();
    worker.shutdown();
}

#[test]
fn pipelined_forwards_answer_in_request_order() {
    let fleet = fleet(1);
    let cold = slow_cell(2048);
    let cached = Scenario::new(
        SystemDesign::DcDla,
        Benchmark::VggE,
        ParallelStrategy::DataParallel,
    );
    let (cold_body, cached_body) = (scenario_json(&cold), scenario_json(&cached));
    let mut conn = Connection::open(&fleet.gateway_addr().to_string()).unwrap();
    assert_eq!(
        conn.request("POST", "/simulate", Some(&cached_body))
            .unwrap()
            .status,
        200
    );
    let answers = conn
        .request_pipelined(&[
            ("POST", "/simulate", Some(&cold_body)),
            ("POST", "/simulate", Some(&cached_body)),
        ])
        .unwrap();
    let digests: Vec<String> = answers
        .iter()
        .map(|r| {
            let v = serde::json::parse(&r.body).unwrap();
            v.get("digest").and_then(Value::as_str).unwrap().to_owned()
        })
        .collect();
    let expected = [cold, cached].map(|c| format!("{:016x}", c.digest()));
    assert_eq!(digests, expected);
    fleet.shutdown();
}

/// `name`'s value in a Prometheus exposition.
fn gauge(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name}"))
        .parse()
        .unwrap()
}

#[test]
fn a_client_hanging_up_mid_forward_leaves_the_upstream_reusable() {
    let fleet = fleet(1);
    let gateway = fleet.gateway_addr().to_string();
    let cached = scenario_json(&Scenario::new(
        SystemDesign::McDlaBwAware,
        Benchmark::AlexNet,
        ParallelStrategy::DataParallel,
    ));
    let mut probe = Connection::open(&gateway).unwrap();
    let mut direct = Connection::open(&fleet.worker_addrs()[0]).unwrap();
    assert_eq!(
        probe
            .request("POST", "/simulate", Some(&cached))
            .unwrap()
            .status,
        200
    );
    let open = |probe: &mut Connection| {
        let text = probe.request("GET", "/metrics", None).unwrap().body;
        gauge(&text, "mcdla_gateway_open_connections")
    };
    let accepted = |direct: &mut Connection| {
        let stats = direct.request("GET", "/stats", None).unwrap().body;
        let stats = serde::json::parse(&stats).unwrap();
        let connections = stats.get("connections").unwrap();
        connections.get("accepted").and_then(Value::as_u64).unwrap()
    };
    let (open_before, accepted_before) = (open(&mut probe), accepted(&mut direct));

    let mut client = std::net::TcpStream::connect(&gateway).unwrap();
    let slow = scenario_json(&slow_cell(1024));
    client
        .write_all(&simulate_request(&slow, "hang-up-1"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(60);
    while open(&mut probe) != open_before {
        assert!(
            Instant::now() < deadline,
            "the hung-up connection stayed open"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        probe
            .request("POST", "/simulate", Some(&cached))
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        accepted(&mut direct),
        accepted_before,
        "the next forward opened a new upstream connection"
    );
    fleet.shutdown();
}
