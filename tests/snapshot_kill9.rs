//! What a `--snapshot` worker keeps across a `kill -9`. The worker
//! rewrites its snapshot after it writes an answer and before it reads
//! the connection's next request, so every cell answered before the
//! last answer on a connection is on disk; the last one may not be.

mod common;

use common::WorkerProc;
use mcdla::core::Scenario;
use mcdla::serve::client::Connection;
use serde::Value;

fn parse(body: &str) -> Value {
    serde::json::parse(body).expect("JSON body")
}

#[test]
fn kill9_keeps_every_cell_answered_before_the_last() {
    let dir = std::env::temp_dir().join(format!("mcdla-kill9-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("store.json");
    let snapshot = snapshot.to_str().expect("utf-8 path");
    let args = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--snapshot",
        snapshot,
    ];

    // Eight fresh cells back to back on one keep-alive connection, then
    // SIGKILL right after the eighth answer.
    let cells: Vec<String> = (0..8u64)
        .map(|i| serde::json::to_string(&Scenario::default().with_batch(704 + 64 * i)))
        .collect();
    let mut worker = WorkerProc::spawn_with(&args);
    let mut conn = Connection::open(&worker.addr).expect("open worker connection");
    let mut reports = Vec::new();
    for body in &cells {
        let resp = conn
            .request("POST", "/simulate", Some(body))
            .expect("simulate");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let answer = parse(&resp.body);
        assert_eq!(answer.get("cached"), Some(&Value::Bool(false)), "{body}");
        reports.push(answer.get("report").expect("report").clone());
    }
    worker.kill9();

    let worker = WorkerProc::spawn_with(&args);
    let mut conn = Connection::open(&worker.addr).expect("open restarted worker");
    let stats = parse(&conn.request("GET", "/stats", None).expect("stats").body);
    let warm = stats
        .get("store")
        .and_then(|s| s.get("warm_loaded"))
        .and_then(Value::as_u64)
        .expect("store.warm_loaded");
    assert!(warm >= 7, "only {warm} of 8 answered cells were restored");
    for (i, (body, before)) in cells.iter().zip(&reports).take(7).enumerate() {
        let resp = conn
            .request("POST", "/simulate", Some(body))
            .expect("simulate after restart");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let answer = parse(&resp.body);
        assert_eq!(answer.get("cached"), Some(&Value::Bool(true)), "cell {i}");
        assert_eq!(answer.get("report"), Some(before), "cell {i}");
    }
    drop(worker);
    std::fs::remove_dir_all(&dir).ok();
}
