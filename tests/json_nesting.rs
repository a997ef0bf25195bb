//! Deeply nested JSON bodies answer 400 on both tiers instead of
//! overflowing the stack of the thread that parses them. Real `mcdla
//! serve` and `mcdla gateway` processes take the bodies, because a
//! stack overflow aborts the whole process rather than one thread.

mod common;

use common::WorkerProc;
use mcdla::serve::client::request_once;

#[test]
fn deeply_nested_bodies_answer_400_on_both_tiers() {
    let mut worker = WorkerProc::spawn();
    let mut gateway = WorkerProc::spawn_gateway(&[&worker.addr]);
    // `/simulate` bodies parse on a worker's event-loop thread; grid
    // bodies parse on a pool thread. Both sizes go to both endpoints
    // of both tiers.
    for depth in [10_000, 20_000] {
        let body = "[".repeat(depth);
        for node in [&worker, &gateway] {
            for path in ["/simulate", "/grid"] {
                let resp = request_once(&node.addr, "POST", path, Some(&body))
                    .unwrap_or_else(|e| panic!("{} POST {path} depth {depth}: {e}", node.addr));
                assert_eq!(resp.status, 400, "POST {path} depth {depth}: {}", resp.body);
                assert!(resp.body.contains("nesting"), "{}", resp.body);
            }
        }
    }
    for node in [&mut worker, &mut gateway] {
        assert!(node.alive(), "{} died", node.addr);
        let health = request_once(&node.addr, "GET", "/healthz", None).unwrap();
        assert_eq!(health.status, 200, "{}", health.body);
    }
}
