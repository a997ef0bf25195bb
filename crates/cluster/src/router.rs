//! Routing a scenario key to a live worker: rendezvous ranking from the
//! [`Topology`], health state per worker, and bounded retry + failover
//! for point requests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mcdla_obs::{Histogram, Span};
use mcdla_serve::client::{Response, Timeouts};

use crate::pool::WorkerPool;
use crate::topology::Topology;

/// A gateway-level failure, carrying the HTTP status the gateway
/// answers with (`502` when no worker could take the request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GatewayError {
    /// Response status (e.g. 502).
    pub status: u16,
    /// Human-readable cause, naming the workers involved.
    pub message: String,
}

impl GatewayError {
    pub(crate) fn new(status: u16, message: impl Into<String>) -> Self {
        GatewayError {
            status,
            message: message.into(),
        }
    }
}

/// One worker's live state: its connection pool plus passive health.
#[derive(Debug)]
pub struct WorkerState {
    pool: WorkerPool,
    up: AtomicBool,
    /// Requests this worker answered (any status).
    pub answered: AtomicU64,
    /// Errors observed against this worker (connect/read failures and
    /// 5xx answers).
    pub failures: AtomicU64,
    /// Upstream round-trip latency against this worker (successful and
    /// failed attempts both count — a slow failure is still time spent).
    pub latency: Arc<Histogram>,
    last_error: Mutex<String>,
}

impl WorkerState {
    fn new(addr: &str, timeouts: Timeouts) -> Self {
        WorkerState {
            pool: WorkerPool::new(addr, timeouts),
            // Optimistic start: a worker is presumed up until a request
            // or probe says otherwise, so a fleet serves immediately.
            up: AtomicBool::new(true),
            answered: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            latency: Arc::new(Histogram::new()),
            last_error: Mutex::new(String::new()),
        }
    }

    /// The worker's address.
    pub(crate) fn addr(&self) -> &str {
        self.pool.addr()
    }

    /// This worker's connection pool.
    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Current health belief.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// Marks the worker healthy.
    pub(crate) fn mark_up(&self) {
        self.up.store(true, Ordering::Relaxed);
    }

    /// Marks the worker unhealthy, recording why.
    pub fn mark_down(&self, error: &str) {
        self.up.store(false, Ordering::Relaxed);
        self.failures.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock().expect("last_error lock") = error.to_owned();
    }

    /// The most recent error observed against this worker.
    #[cfg(test)]
    pub(crate) fn last_error(&self) -> String {
        self.last_error.lock().expect("last_error lock").clone()
    }
}

/// The gateway's routing core: topology + per-worker state + failover.
#[derive(Debug)]
pub struct Router {
    topology: Topology,
    workers: Vec<WorkerState>,
    /// Requests answered by a worker other than the rendezvous owner.
    pub failovers: AtomicU64,
}

impl Router {
    /// Builds a router over worker addresses.
    pub(crate) fn new<S: Into<String>>(
        addrs: impl IntoIterator<Item = S>,
        timeouts: Timeouts,
    ) -> Result<Self, String> {
        let topology = Topology::new(addrs)?;
        let workers = topology
            .workers()
            .iter()
            .map(|a| WorkerState::new(a, timeouts))
            .collect();
        Ok(Router {
            topology,
            workers,
            failovers: AtomicU64::new(0),
        })
    }

    /// Per-worker state, in topology index order.
    pub fn workers(&self) -> &[WorkerState] {
        &self.workers
    }

    /// Workers currently believed up.
    pub(crate) fn up_count(&self) -> usize {
        self.workers.iter().filter(|w| w.is_up()).count()
    }

    /// Stale-connection retries across all worker pools.
    pub fn retries(&self) -> u64 {
        self.workers.iter().map(|w| w.pool.retries()).sum()
    }

    /// Worker indices to try for `key`, in order: the rendezvous ranking
    /// with down workers demoted to the tail (still tried last — the
    /// health belief may be stale, and a down worker beats no answer).
    pub(crate) fn route(&self, key: u64) -> Vec<usize> {
        let ranked = self.topology.ranked(key);
        let (mut order, down): (Vec<usize>, Vec<usize>) =
            ranked.into_iter().partition(|&i| self.workers[i].is_up());
        order.extend(down);
        order
    }

    /// Forwards one buffered request along `key`'s failover chain,
    /// sending `headers` (request-id propagation) on every attempt.
    ///
    /// * A `< 500` answer (success **or** a worker-side 4xx) is final
    ///   and passes through — a 4xx is the worker's verdict on the
    ///   request, not a worker failure.
    /// * A connect/read failure marks the worker down and moves on.
    /// * A `5xx` answer counts as a worker failure and moves on, but
    ///   leaves the worker up (it is alive enough to answer).
    /// * When every worker fails, the caller gets a [`GatewayError`]
    ///   (502) naming each worker and what it said.
    pub(crate) fn forward_with(
        &self,
        key: u64,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<(usize, Response), GatewayError> {
        let order = {
            let _s = Span::enter("gateway.route");
            self.route(key)
        };
        let owner = order[0];
        let mut attempts: Vec<String> = Vec::new();
        for &i in &order {
            let worker = &self.workers[i];
            let attempt = {
                let _s = Span::enter_timed(&format!("gateway.upstream.{i}"), &worker.latency);
                worker.pool.request_with(method, path, headers, body)
            };
            match attempt {
                Ok(response) if response.status < 500 => {
                    worker.mark_up();
                    worker.answered.fetch_add(1, Ordering::Relaxed);
                    if i != owner {
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((i, response));
                }
                Ok(response) => {
                    worker.failures.fetch_add(1, Ordering::Relaxed);
                    attempts.push(format!(
                        "worker {} ({}) answered HTTP {}",
                        i,
                        worker.addr(),
                        response.status
                    ));
                }
                Err(e) => {
                    worker.mark_down(&e);
                    attempts.push(format!("worker {} ({}) unreachable: {e}", i, worker.addr()));
                }
            }
        }
        Err(GatewayError::new(
            502,
            format!("no worker could answer: {}", attempts.join("; ")),
        ))
    }

    /// Probes one worker's `GET /healthz`, updating its health belief.
    /// Returns the new belief.
    pub(crate) fn probe(&self, i: usize) -> bool {
        let worker = &self.workers[i];
        match worker.pool.request("GET", "/healthz", None) {
            Ok(response) if response.is_ok() => {
                worker.mark_up();
                true
            }
            Ok(response) => {
                worker.mark_down(&format!("healthz answered HTTP {}", response.status));
                false
            }
            Err(e) => {
                worker.mark_down(&e);
                false
            }
        }
    }

    /// Probes every worker once (the background prober's tick).
    pub(crate) fn probe_all(&self) {
        for i in 0..self.workers.len() {
            self.probe(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;

    fn refusing_addr() -> String {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    }

    /// A stub worker answering every request on every connection with a
    /// fixed status until dropped.
    fn stub_worker(status: u16, body: &'static str) -> (String, std::sync::Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().unwrap().to_string();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        listener.set_nonblocking(true).unwrap();
        std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        let stop3 = stop2.clone();
                        std::thread::spawn(move || {
                            let _ = stream
                                .set_read_timeout(Some(std::time::Duration::from_millis(200)));
                            loop {
                                let mut buf = [0u8; 4096];
                                match stream.read(&mut buf) {
                                    Ok(0) | Err(_) => break,
                                    Ok(_) => {}
                                }
                                if stop3.load(Ordering::Relaxed) {
                                    break;
                                }
                                let response = format!(
                                    "HTTP/1.1 {status} X\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
                                    body.len()
                                );
                                if stream.write_all(response.as_bytes()).is_err() {
                                    break;
                                }
                            }
                        });
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
                }
            }
        });
        (addr, stop)
    }

    #[test]
    fn forward_fails_over_from_a_dead_owner_and_marks_it_down() {
        let (live, stop) = stub_worker(200, "{\"ok\":true}");
        let dead = refusing_addr();
        let router = Router::new([dead.clone(), live.clone()], Timeouts::default()).unwrap();
        // Whichever worker owns the key, the answer must come from the
        // live one; a key owned by the dead worker records a failover.
        for key in 0..8u64 {
            let (i, resp) = router
                .forward_with(key, "GET", "/x", &[], None)
                .expect("failover");
            assert_eq!(router.workers()[i].addr(), live);
            assert_eq!(resp.status, 200);
        }
        let dead_state = router.workers().iter().find(|w| w.addr() == dead).unwrap();
        assert!(!dead_state.is_up());
        assert!(
            dead_state.last_error().contains("connect"),
            "{}",
            dead_state.last_error()
        );
        assert!(router.failovers.load(Ordering::Relaxed) >= 1);
        stop.store(true, Ordering::Relaxed);
    }

    #[test]
    fn worker_4xx_passes_through_without_failover() {
        let (a, stop_a) = stub_worker(418, "{\"error\":\"teapot\"}");
        let (b, stop_b) = stub_worker(418, "{\"error\":\"teapot\"}");
        let router = Router::new([a, b], Timeouts::default()).unwrap();
        let (_, resp) = router
            .forward_with(7, "POST", "/simulate", &[], Some("{}"))
            .unwrap();
        assert_eq!(resp.status, 418);
        assert_eq!(resp.body, "{\"error\":\"teapot\"}");
        assert_eq!(router.failovers.load(Ordering::Relaxed), 0);
        stop_a.store(true, Ordering::Relaxed);
        stop_b.store(true, Ordering::Relaxed);
    }

    #[test]
    fn worker_5xx_fails_over_but_leaves_the_worker_up() {
        let (sick, stop_sick) = stub_worker(500, "{\"error\":\"boom\"}");
        let (live, stop_live) = stub_worker(200, "{\"ok\":true}");
        let router = Router::new([sick.clone(), live], Timeouts::default()).unwrap();
        for key in 0..8u64 {
            let (_, resp) = router
                .forward_with(key, "GET", "/x", &[], None)
                .expect("5xx failover");
            assert_eq!(resp.status, 200);
        }
        let sick_state = router.workers().iter().find(|w| w.addr() == sick).unwrap();
        assert!(sick_state.is_up(), "5xx must not mark a live worker down");
        assert!(sick_state.failures.load(Ordering::Relaxed) >= 1);
        stop_sick.store(true, Ordering::Relaxed);
        stop_live.store(true, Ordering::Relaxed);
    }

    #[test]
    fn all_workers_down_is_a_502_naming_each() {
        let a = refusing_addr();
        let b = refusing_addr();
        let router = Router::new([a.clone(), b.clone()], Timeouts::default()).unwrap();
        let err = router.forward_with(1, "GET", "/x", &[], None).unwrap_err();
        assert_eq!(err.status, 502);
        assert!(
            err.message.contains(&a) && err.message.contains(&b),
            "{}",
            err.message
        );
        assert_eq!(router.up_count(), 0);
    }

    #[test]
    fn probe_revives_a_down_belief() {
        let (live, stop) = stub_worker(200, "{\"status\":\"ok\"}");
        let router = Router::new([live], Timeouts::default()).unwrap();
        router.workers()[0].mark_down("simulated outage");
        assert_eq!(router.up_count(), 0);
        assert!(router.probe(0));
        assert_eq!(router.up_count(), 1);
        stop.store(true, Ordering::Relaxed);
    }
}
