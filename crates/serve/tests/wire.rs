//! Wire-layer integration tests: a real server on an ephemeral loopback
//! port, driven over real sockets. Pins the ISSUE-2 service guarantees:
//! malformed input answers 4xx (never a panic or a hang), N concurrent
//! identical requests trigger exactly one simulation, and a
//! snapshot/restore cycle serves bit-identical reports from cache.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mcdla_serve::client::{request_once, Connection};
use mcdla_serve::{ServeConfig, Server, ServerHandle};

/// Starts a server on an ephemeral port, returning its handle and
/// `host:port` string.
fn start(config: ServeConfig) -> (ServerHandle, String) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral server");
    let handle = server.spawn().expect("spawn event loop");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// A unique scratch directory per test (no wall-clock available: use
/// pid + a process-global counter).
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mcdla-wire-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const CELL: &str = r#"{"design":"DcDla","benchmark":"AlexNet","strategy":"DataParallel"}"#;

/// Sends raw bytes and returns the full response text (read to EOF).
fn raw_roundtrip(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send");
    // Half-close so a server waiting for more body sees truncation.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

#[test]
fn healthz_stats_and_keep_alive() {
    let (handle, addr) = start(ServeConfig::default());
    // One persistent connection serves many requests.
    let mut conn = Connection::open(&addr).expect("open");
    let health = conn.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\""));
    let stats = conn.request("GET", "/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    for key in ["hits", "misses", "evictions", "dedup_waits", "in_flight"] {
        assert!(
            stats.body.contains(key),
            "stats missing `{key}`: {}",
            stats.body
        );
    }
    handle.shutdown();
}

#[test]
fn served_reports_are_bit_identical_to_the_batch_runner() {
    let (handle, addr) = start(ServeConfig::default());
    let scenario: mcdla_core::Scenario = serde::json::from_str(CELL).unwrap();
    let batch = serde::json::to_string(&scenario.simulate());

    let served = request_once(&addr, "POST", "/simulate", Some(CELL)).unwrap();
    assert_eq!(served.status, 200);
    let parsed = serde::json::parse(&served.body).unwrap();
    assert_eq!(
        serde::json::to_string(parsed.get("report").expect("report field")),
        batch,
        "served report differs from the batch runner's"
    );
    assert_eq!(parsed.get("cached"), Some(&serde::Value::Bool(false)));

    // Second request: cached, same report.
    let again = request_once(&addr, "POST", "/simulate", Some(CELL)).unwrap();
    let parsed = serde::json::parse(&again.body).unwrap();
    assert_eq!(parsed.get("cached"), Some(&serde::Value::Bool(true)));
    assert_eq!(serde::json::to_string(parsed.get("report").unwrap()), batch);
    handle.shutdown();
}

#[test]
fn grid_answers_match_simulate_cell_by_cell() {
    let (handle, addr) = start(ServeConfig::default());
    let body = r#"{"designs":["DcDla","McDlaBwAware"],"benchmarks":["AlexNet"]}"#;
    let grid = request_once(&addr, "POST", "/grid", Some(body)).unwrap();
    assert_eq!(grid.status, 200);
    let parsed = serde::json::parse(&grid.body).unwrap();
    assert_eq!(parsed.get("count").and_then(|v| v.as_u64()), Some(4));
    let cells = parsed.get("cells").and_then(|v| v.as_seq()).unwrap();
    assert_eq!(cells.len(), 4);
    // Every grid cell answers /simulate with the identical report (from
    // cache now — the store is shared between endpoints).
    for cell in cells {
        let scenario = serde::json::to_string(cell.get("scenario").unwrap());
        let single = request_once(&addr, "POST", "/simulate", Some(&scenario)).unwrap();
        let single = serde::json::parse(&single.body).unwrap();
        assert_eq!(single.get("cached"), Some(&serde::Value::Bool(true)));
        assert_eq!(
            serde::json::to_string(single.get("report").unwrap()),
            serde::json::to_string(cell.get("report").unwrap()),
        );
    }
    handle.shutdown();
}

#[test]
fn malformed_requests_answer_4xx_not_panic() {
    let (handle, addr) = start(ServeConfig::default());

    // Garbage instead of HTTP.
    let resp = raw_roundtrip(&addr, b"THIS IS NOT HTTP\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // Truncated head.
    let resp = raw_roundtrip(&addr, b"POST /simulate HTT");
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // Truncated body (content-length promises more than arrives).
    let resp = raw_roundtrip(
        &addr,
        b"POST /simulate HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"partial\":",
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
    assert!(resp.contains("truncated"), "{resp}");

    // Chunked bodies are politely unsupported.
    let resp = raw_roundtrip(
        &addr,
        b"POST /simulate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 501 "), "{resp}");

    // The server survived all of it.
    assert_eq!(
        request_once(&addr, "GET", "/healthz", None).unwrap().status,
        200
    );
    handle.shutdown();
}

#[test]
fn bad_bodies_and_bad_routes_answer_4xx() {
    let (handle, addr) = start(ServeConfig::default());

    // Invalid JSON.
    let resp = request_once(&addr, "POST", "/simulate", Some("{not json")).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("error"), "{}", resp.body);

    // Valid JSON, not a scenario object at all.
    let resp = request_once(&addr, "POST", "/simulate", Some("[1, 2]")).unwrap();
    assert_eq!(resp.status, 400);

    // An object with an unknown key: with every field optional, this
    // must be a 400 naming the key — not a 200 for the default cell.
    let resp = request_once(&addr, "POST", "/simulate", Some("{\"x\": 1}")).unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("unknown Scenario field `x`"),
        "{}",
        resp.body
    );

    // Valid scenario shape, hostile knobs: must be a 400, not a panic.
    for hostile in [
        r#"{"design":"DcDla","benchmark":"AlexNet","strategy":"DataParallel","devices":0}"#,
        r#"{"design":"DcDla","benchmark":"AlexNet","strategy":"DataParallel","batch":0}"#,
        r#"{"design":"DcDla","benchmark":"AlexNet","strategy":"DataParallel",
            "overrides":{"compression":0.5}}"#,
    ] {
        let resp = request_once(&addr, "POST", "/simulate", Some(hostile)).unwrap();
        assert_eq!(resp.status, 400, "hostile body accepted: {hostile}");
    }

    // Unknown endpoint and wrong methods.
    assert_eq!(
        request_once(&addr, "GET", "/nope", None).unwrap().status,
        404
    );
    assert_eq!(
        request_once(&addr, "GET", "/simulate", None)
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        request_once(&addr, "POST", "/healthz", None)
            .unwrap()
            .status,
        405
    );

    // A bad grid: zero batch in the axis.
    let resp = request_once(&addr, "POST", "/grid", Some(r#"{"batches":[0]}"#)).unwrap();
    assert_eq!(resp.status, 400);

    // Still healthy.
    assert_eq!(
        request_once(&addr, "GET", "/healthz", None).unwrap().status,
        200
    );
    handle.shutdown();
}

#[test]
fn streamed_grid_cells_are_byte_identical_to_batch_cells() {
    // Two fresh servers (cold stores) answer the same grid request, one
    // buffered, one streamed: every cell payload must match byte for
    // byte (streams arrive in completion order, so pair by digest).
    let body = r#"{"designs":["DcDla","McDlaBwAware"],"benchmarks":["AlexNet"],
                   "devices":[8,16]}"#;

    let (batch_handle, batch_addr) = start(ServeConfig::default());
    let batch = request_once(&batch_addr, "POST", "/grid", Some(body)).unwrap();
    assert_eq!(batch.status, 200);
    let parsed = serde::json::parse(&batch.body).unwrap();
    let cells = parsed.get("cells").and_then(|v| v.as_seq()).unwrap();
    let batch_by_digest: std::collections::HashMap<String, String> = cells
        .iter()
        .map(|c| {
            (
                c.get("digest").unwrap().as_str().unwrap().to_owned(),
                serde::json::to_string(c),
            )
        })
        .collect();
    batch_handle.shutdown();

    let (handle, addr) = start(ServeConfig::default());
    let mut conn = Connection::open(&addr).expect("open");
    let stream = conn
        .request_stream("POST", "/grid?stream=1", Some(body))
        .expect("stream");
    assert_eq!(stream.status, 200);
    let lines = stream.collect_lines().expect("clean terminal chunk");
    assert_eq!(lines.len(), batch_by_digest.len());
    for line in &lines {
        let cell = serde::json::parse(line).expect("valid JSON per line");
        let digest = cell.get("digest").unwrap().as_str().unwrap();
        assert_eq!(
            Some(line),
            batch_by_digest.get(digest),
            "streamed cell differs from the batch cell for digest {digest}"
        );
    }
    // The keep-alive connection survives the stream: next request works.
    let health = conn.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    handle.shutdown();
}

#[test]
fn abandoning_a_stream_mid_read_keeps_the_connection_framed() {
    let (handle, addr) = start(ServeConfig::default());
    let mut conn = Connection::open(&addr).expect("open");
    {
        let mut stream = conn
            .request_stream(
                "POST",
                "/grid?stream=1",
                Some(r#"{"benchmarks":["AlexNet"]}"#),
            )
            .expect("stream");
        assert_eq!(stream.status, 200);
        // Read one of the 12 cells, then drop the stream early: the
        // drop must drain the remaining chunks so the connection stays
        // on a frame boundary.
        let first = stream.next_line().expect("first cell").expect("valid");
        serde::json::parse(&first).expect("cell is JSON");
    }
    let health = conn.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200, "connection desynced after early drop");
    let again = conn
        .request_stream(
            "POST",
            "/grid?stream=1",
            Some(r#"{"benchmarks":["AlexNet"]}"#),
        )
        .expect("second stream on the same connection");
    assert_eq!(again.collect_lines().expect("clean").len(), 12);
    handle.shutdown();
}

#[test]
fn stream_rejections_are_buffered_400s() {
    let (handle, addr) = start(ServeConfig::default());
    let mut conn = Connection::open(&addr).expect("open");
    for (bad, why) in [
        ("{not json", "malformed JSON"),
        (r#"{"batches":[0]}"#, "zero batch"),
        (r#"{"designs":[]}"#, "empty axis"),
        // Individually valid knobs, nonsensical together: DP batch 64
        // cannot cover 256 devices. Must be a 400, not a 500/panic.
        (
            r#"{"strategies":["DataParallel"],"devices":[256],"batches":[64]}"#,
            "batch smaller than device count",
        ),
    ] {
        let mut resp = conn
            .request_stream("POST", "/grid?stream=1", Some(bad))
            .expect("request");
        assert_eq!(resp.status, 400, "{why} must answer 400");
        let line = resp.next_line().expect("error body").expect("readable");
        assert!(line.contains("error"), "{why}: {line}");
    }
    // Same combination through /simulate: 400, not a worker-planner panic.
    let combo = r#"{"design":"DcDla","benchmark":"AlexNet","strategy":"DataParallel",
                    "devices":256,"batch":64}"#;
    let resp = request_once(&addr, "POST", "/simulate", Some(combo)).unwrap();
    assert_eq!(resp.status, 400);
    // The server survived all of it.
    assert_eq!(
        request_once(&addr, "GET", "/healthz", None).unwrap().status,
        200
    );
    handle.shutdown();
}

#[test]
fn truncated_stream_client_does_not_kill_the_server() {
    let (handle, addr) = start(ServeConfig::default());
    // A client that requests a stream, reads a little, and vanishes: the
    // server must cancel the remaining cells and carry on, not panic or
    // leak its acceptor thread.
    let body = r#"{"benchmarks":["AlexNet"]}"#;
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let head = format!(
            "POST /grid?stream=1 HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("send");
        let mut first = [0u8; 64];
        let n = stream.read(&mut first).expect("read some of the stream");
        assert!(n > 0, "server never started answering");
        assert!(first.starts_with(b"HTTP/1.1 200"));
        // Drop without reading the rest.
    }
    // The pool still answers (repeatedly, to hit the same acceptor).
    for _ in 0..4 {
        assert_eq!(
            request_once(&addr, "GET", "/healthz", None).unwrap().status,
            200
        );
    }
    handle.shutdown();
}

#[test]
fn n_concurrent_identical_requests_simulate_once() {
    let (handle, addr) = start(ServeConfig {
        threads: 8,
        ..ServeConfig::default()
    });
    // A heavier cell so the flight stays open long enough to coalesce.
    let body = r#"{"design":"McDlaBwAware","benchmark":"VggE","strategy":"DataParallel"}"#;
    let n = 8;
    std::thread::scope(|scope| {
        for _ in 0..n {
            scope.spawn(|| {
                let resp = request_once(&addr, "POST", "/simulate", Some(body)).unwrap();
                assert_eq!(resp.status, 200);
            });
        }
    });
    let stats = handle.store().stats();
    assert_eq!(
        stats.misses, 1,
        "{n} concurrent identical requests must simulate exactly once (stats: {stats:?})"
    );
    assert_eq!(stats.hits, (n - 1) as u64);
    handle.shutdown();
}

#[test]
fn snapshot_restart_serves_warm_bit_identical_reports() {
    let dir = scratch_dir();
    let snapshot = dir.join("store.json");

    // Cold server: simulate one cell, which persists the snapshot.
    let (handle, addr) = start(ServeConfig {
        snapshot: Some(snapshot.clone()),
        ..ServeConfig::default()
    });
    let cold = request_once(&addr, "POST", "/simulate", Some(CELL)).unwrap();
    assert_eq!(cold.status, 200);
    let cold = serde::json::parse(&cold.body).unwrap();
    assert_eq!(cold.get("cached"), Some(&serde::Value::Bool(false)));
    handle.shutdown();
    assert!(snapshot.exists(), "shutdown must leave a snapshot behind");

    // Restarted server: the very first request is a warm hit with a
    // bit-identical report.
    let (handle, addr) = start(ServeConfig {
        snapshot: Some(snapshot.clone()),
        ..ServeConfig::default()
    });
    assert!(handle.store().warm_loaded() > 0, "store did not warm-load");
    let warm = request_once(&addr, "POST", "/simulate", Some(CELL)).unwrap();
    assert_eq!(warm.status, 200);
    let warm = serde::json::parse(&warm.body).unwrap();
    assert_eq!(warm.get("cached"), Some(&serde::Value::Bool(true)));
    assert_eq!(
        serde::json::to_string(warm.get("report").unwrap()),
        serde::json::to_string(cold.get("report").unwrap()),
        "cold and warm reports must be bit-identical"
    );
    let stats = handle.store().stats();
    assert!(stats.hits > 0, "first post-restart request must be a hit");
    assert_eq!(stats.misses, 0, "warm restart must not re-simulate");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_server_store_evicts_lru() {
    let (handle, addr) = start(ServeConfig {
        cache_cap: Some(16),
        ..ServeConfig::default()
    });
    // More distinct cells than the cap: 2 designs x 8 benchmarks x 2
    // strategies = 32 cells through a 16-cap store.
    let body = r#"{"designs":["DcDla","McDlaBwAware"]}"#;
    let grid = request_once(&addr, "POST", "/grid", Some(body)).unwrap();
    assert_eq!(grid.status, 200);
    let stats = handle.store().stats();
    assert!(stats.evictions > 0, "no evictions at cap 16: {stats:?}");
    assert!(stats.entries <= 16, "store grew past its bound: {stats:?}");
    handle.shutdown();
}

#[test]
fn bounded_server_store_holds_a_bound_below_the_shard_count() {
    // An 8-cell grid through a capacity-3 store.
    let (handle, addr) = start(ServeConfig {
        cache_cap: Some(3),
        ..ServeConfig::default()
    });
    let body = r#"{"designs":["DcDla","McDlaBwAware"],"benchmarks":["AlexNet","GoogLeNet"]}"#;
    let grid = request_once(&addr, "POST", "/grid", Some(body)).unwrap();
    assert_eq!(grid.status, 200);
    let stats = handle.store().stats();
    assert_eq!(
        stats.entries, 3,
        "global bound must hold exactly: {stats:?}"
    );
    assert_eq!(stats.evictions, 5, "8 cells - 3 resident: {stats:?}");
    handle.shutdown();
}

#[test]
fn sparse_scenarios_and_paper_label_aliases_are_accepted() {
    let (handle, addr) = start(ServeConfig::default());

    // The exact body the old code rejected with "missing field `strategy`".
    let sparse = r#"{"benchmark":"AlexNet","design":"McDlaBwAware"}"#;
    let resp = request_once(&addr, "POST", "/simulate", Some(sparse)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = serde::json::parse(&resp.body).unwrap();
    let scenario = parsed.get("scenario").expect("scenario echoed");
    assert_eq!(
        scenario.get("strategy").and_then(|v| v.as_str()),
        Some("DataParallel"),
        "omitted strategy defaults to the paper's data-parallel"
    );

    // An empty body is the fully-defaulted headline cell.
    let resp = request_once(&addr, "POST", "/simulate", Some("{}")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = serde::json::parse(&resp.body).unwrap();
    assert_eq!(
        parsed
            .get("scenario")
            .and_then(|s| s.get("design"))
            .and_then(|v| v.as_str()),
        Some("McDlaBwAware")
    );

    // Paper labels, any case, key the same cache cell as wire names.
    let aliased = r#"{"design":"mc-dla(b)","benchmark":"AlexNet","strategy":"data-parallel"}"#;
    let resp = request_once(&addr, "POST", "/simulate", Some(aliased)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = serde::json::parse(&resp.body).unwrap();
    assert_eq!(
        parsed.get("cached"),
        Some(&serde::Value::Bool(true)),
        "the alias must hit the cell the sparse request computed"
    );
    handle.shutdown();
}

#[test]
fn unknown_enum_errors_enumerate_the_accepted_variants() {
    let (handle, addr) = start(ServeConfig::default());
    let resp = request_once(
        &addr,
        "POST",
        "/simulate",
        Some(r#"{"design":"mcdla","benchmark":"AlexNet","strategy":"DataParallel"}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    for expected in ["unknown SystemDesign `mcdla`", "McDlaBwAware", "MC-DLA(B)"] {
        assert!(resp.body.contains(expected), "{}", resp.body);
    }
    // Same guidance on grid axes.
    let resp = request_once(&addr, "POST", "/grid", Some(r#"{"strategies":["dp"]}"#)).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("DataParallel"), "{}", resp.body);
    assert!(resp.body.contains("data-parallel"), "{}", resp.body);
    handle.shutdown();
}

#[test]
fn stats_surface_per_shard_occupancy_and_hit_rate() {
    let (handle, addr) = start(ServeConfig::default());
    let _ = request_once(&addr, "POST", "/simulate", Some(CELL)).unwrap();
    let _ = request_once(&addr, "POST", "/simulate", Some(CELL)).unwrap();
    let stats = request_once(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    assert!(
        stats.body.contains("hit_rate"),
        "stats missing `hit_rate`: {}",
        stats.body
    );
    let parsed = serde::json::parse(&stats.body).unwrap();
    let store = parsed.get("store").expect("store stats");
    assert_eq!(store.get("hit_rate").and_then(|v| v.as_f64()), Some(0.5));
    handle.shutdown();
}

#[test]
fn oversized_snapshots_are_compacted_into_a_bounded_restart() {
    let dir = scratch_dir();
    let snapshot = dir.join("store.json");

    // An unbounded server computes 4 cells and snapshots them all.
    let (handle, addr) = start(ServeConfig {
        snapshot: Some(snapshot.clone()),
        ..ServeConfig::default()
    });
    let body = r#"{"designs":["DcDla","McDlaBwAware"],"benchmarks":["AlexNet"]}"#;
    assert_eq!(
        request_once(&addr, "POST", "/grid", Some(body))
            .unwrap()
            .status,
        200
    );
    handle.shutdown();
    let full = std::fs::read_to_string(&snapshot).unwrap();
    assert!(full.matches("\"scenario\"").count() >= 4);

    // Restarting with a smaller bound restores what fits (evicting
    // oldest-first) and compacts the file down to the bound.
    let (handle, _addr) = start(ServeConfig {
        snapshot: Some(snapshot.clone()),
        cache_cap: Some(2),
        ..ServeConfig::default()
    });
    let stats = handle.store().stats();
    assert_eq!(
        stats.entries, 2,
        "restore must land at the bound: {stats:?}"
    );
    assert!(stats.warm_loaded >= 4);
    let compacted = std::fs::read_to_string(&snapshot).unwrap();
    assert_eq!(
        compacted.matches("\"scenario\"").count(),
        2,
        "the snapshot file must be compacted to the resident cells"
    );
    assert!(compacted.contains("\"capacity\": 2"), "{compacted}");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// ISSUE-10 pin: `X-Mcdla-Request-Id` is echoed on every answer shape —
/// the chunked head of a streamed grid, the 429 shed path, and the 408
/// stalled-request path — so log correlation survives exactly the
/// requests most worth correlating.
#[test]
fn request_id_echoes_on_stream_heads_and_shed_paths() {
    // Streamed grid: the propagated id must ride the chunked head.
    let (handle, addr) = start(ServeConfig::default());
    let body = r#"{"designs":["DcDla"],"benchmarks":["AlexNet"],"strategies":["DataParallel"]}"#;
    let request = format!(
        "POST /grid?stream=1 HTTP/1.1\r\nhost: t\r\nx-mcdla-request-id: stream-rid-7\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let out = raw_roundtrip(&addr, request.as_bytes());
    assert!(out.starts_with("HTTP/1.1 200 "), "{out}");
    let head = out.split("\r\n\r\n").next().unwrap().to_ascii_lowercase();
    assert!(
        head.contains("x-mcdla-request-id: stream-rid-7"),
        "streamed head must echo the propagated id:\n{out}"
    );
    assert!(
        head.contains("transfer-encoding: chunked"),
        "the echo must be on the *streamed* head:\n{out}"
    );
    handle.shutdown();

    // Shed path: 1 pool worker + 1 queue slot, a burst of distinct
    // heavy grids each carrying its own id. Every 429 must echo the id
    // of the request it rejects.
    let (handle, addr) = start(ServeConfig {
        threads: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let answers: Vec<(u16, String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let lo = 40_000 + i as u64 * 1_000;
                    let batches: Vec<String> = (lo..lo + 200).map(|b| b.to_string()).collect();
                    let body = format!(
                        r#"{{"designs":["DcDla"],"benchmarks":["AlexNet"],"strategies":["DataParallel"],"batches":[{}]}}"#,
                        batches.join(",")
                    );
                    let rid = format!("shed-rid-{i}");
                    let request = format!(
                        "POST /grid HTTP/1.1\r\nhost: t\r\nx-mcdla-request-id: {rid}\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let out = raw_roundtrip(&addr, request.as_bytes());
                    let status: u16 = out
                        .split(' ')
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    (status, rid, out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed: Vec<_> = answers.iter().filter(|(s, ..)| *s == 429).collect();
    assert!(
        !shed.is_empty(),
        "a burst of 8 against 1 worker + 1 queue slot must shed; statuses: {:?}",
        answers.iter().map(|(s, ..)| *s).collect::<Vec<_>>()
    );
    for (_, rid, out) in &shed {
        assert!(
            out.to_ascii_lowercase()
                .contains(&format!("x-mcdla-request-id: {rid}")),
            "429 must echo the shed request's own id {rid}:\n{out}"
        );
    }
    handle.shutdown();

    // Stalled request: the 408 arrives before any id could propagate,
    // so the server mints one — but the header must still be there.
    let (handle, addr) = start(ServeConfig {
        request_timeout: std::time::Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /healthz HTT").expect("send partial");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read 408");
    assert!(out.starts_with("HTTP/1.1 408 "), "{out}");
    assert!(
        out.to_ascii_lowercase().contains("x-mcdla-request-id: "),
        "408 must carry a (minted) request id:\n{out}"
    );
    handle.shutdown();
}
