//! Routing a scenario key to a live worker: rendezvous ranking from the
//! [`Topology`], health state per worker, and the failover policy for
//! point requests ([`Failover`]) — one policy, driven by the event loop
//! for `/simulate` and by the pool for traced forwards.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use mcdla_obs::{Histogram, Span, TraceScope};
use mcdla_serve::accept::{Reply, Upstream};
use mcdla_serve::client::{RequestError, Response, Timeouts};

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
    /// `gateway.upstream.N`: the span of one forward attempt to it.
    span: String,
    /// Every socket address its name resolves to, in lookup order:
    /// resolved off the event loop, at start and again by each probe.
    resolved: RwLock<Arc<[SocketAddr]>>,
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
    fn new(index: usize, addr: &str, timeouts: Timeouts) -> Self {
        let worker = WorkerState {
            pool: WorkerPool::new(addr, timeouts),
            span: format!("gateway.upstream.{index}"),
            resolved: RwLock::new(Arc::from([])),
            // Optimistic start: a worker is presumed up until a request
            // or probe says otherwise, so a fleet serves immediately.
            up: AtomicBool::new(true),
            answered: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            latency: Arc::new(Histogram::new()),
            last_error: Mutex::new(String::new()),
        };
        worker.resolve();
        worker
    }

    /// Looks the worker's name up again (a blocking lookup: never on the
    /// event loop). A lookup that finds nothing keeps the last answer.
    fn resolve(&self) {
        let found: Vec<SocketAddr> = match self.addr().to_socket_addrs() {
            Ok(addrs) => addrs.collect(),
            Err(_) => return,
        };
        if !found.is_empty() {
            *self.resolved.write().expect("resolved lock") = found.into();
        }
    }

    /// The addresses the event loop connects to, tried in turn as a
    /// blocking connect tries them.
    fn socket_addrs(&self) -> Result<Arc<[SocketAddr]>, String> {
        let addrs = self.resolved.read().expect("resolved lock").clone();
        if addrs.is_empty() {
            return Err(format!("resolving {}: no address yet", self.addr()));
        }
        Ok(addrs)
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

/// The staleness rule, the same for every request the gateway makes to
/// a worker, pooled or on the event loop: a failure earns one retry on a
/// fresh connection only when a *reused* connection closed or reset
/// before the first response byte. A deadline, a refused connect or a
/// malformed answer is the worker's own failure.
pub(crate) fn stale(reused: bool, failure: &RequestError) -> bool {
    reused && failure.closed_early
}

/// One point request's walk down its failover chain: the single policy
/// both forward paths drive, one attempt at a time.
///
/// * Workers are tried in rendezvous order, down workers last (the
///   health belief may be stale, and a down worker beats no answer).
/// * A `< 500` answer (success **or** a worker-side 4xx) is final and
///   passes through — a 4xx is the worker's verdict on the request, not
///   a worker failure.
/// * A `5xx` answer counts as a worker failure and moves on, but leaves
///   the worker up (it is alive enough to answer).
/// * A [stale](stale) reused connection gets one retry on a fresh
///   connection, counted in `retries`.
/// * Any other failure — connect, read, an expired deadline — marks the
///   worker down and moves on.
/// * When no worker is left, [`Failover::exhausted`] is the 502 naming
///   every worker and what it said.
#[derive(Debug)]
pub(crate) struct Failover {
    order: Vec<usize>,
    at: usize,
    /// The current worker's next attempt needs a fresh connection.
    fresh: bool,
    attempts: Vec<String>,
}

impl Failover {
    /// The chain for `key`.
    pub(crate) fn new(router: &Router, key: u64) -> Failover {
        Failover {
            order: router.route(key),
            at: 0,
            fresh: false,
            attempts: Vec::new(),
        }
    }

    /// The attempt to make next: a worker index, and whether it needs a
    /// fresh connection. `None` once every worker failed.
    pub(crate) fn next(&self) -> Option<(usize, bool)> {
        self.order.get(self.at).map(|&i| (i, self.fresh))
    }

    /// Judges the attempt [`Failover::next`] named: its answer's status,
    /// or why there is none, and whether it rode a reused connection.
    /// Returns true when the answer is final.
    pub(crate) fn judge(
        &mut self,
        router: &Router,
        outcome: Result<u16, &RequestError>,
        reused: bool,
    ) -> bool {
        let i = self.order[self.at];
        let worker = &router.workers[i];
        match outcome {
            Ok(status) if status < 500 => {
                worker.mark_up();
                worker.answered.fetch_add(1, Ordering::Relaxed);
                if i != self.order[0] {
                    router.failovers.fetch_add(1, Ordering::Relaxed);
                }
                return true;
            }
            Ok(status) => {
                worker.failures.fetch_add(1, Ordering::Relaxed);
                let addr = worker.addr();
                self.attempts
                    .push(format!("worker {i} ({addr}) answered HTTP {status}"));
            }
            Err(e) if stale(reused, e) => {
                worker.pool.count_retry();
                self.fresh = true;
                return false;
            }
            Err(e) => {
                worker.mark_down(&e.message);
                let (addr, e) = (worker.addr(), &e.message);
                self.attempts
                    .push(format!("worker {i} ({addr}) unreachable: {e}"));
            }
        }
        self.at += 1;
        self.fresh = false;
        false
    }

    /// The 502 once [`Failover::next`] is `None`.
    pub(crate) fn exhausted(&self) -> GatewayError {
        let attempts = self.attempts.join("; ");
        GatewayError::new(502, format!("no worker could answer: {attempts}"))
    }
}

/// The gateway's routing core: topology + per-worker state + failover.
#[derive(Debug)]
pub struct Router {
    topology: Topology,
    workers: Vec<WorkerState>,
    timeouts: Timeouts,
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
            .enumerate()
            .map(|(i, a)| WorkerState::new(i, a, timeouts))
            .collect();
        Ok(Router {
            topology,
            workers,
            timeouts,
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

    /// Forwards one buffered request along `key`'s failover chain
    /// through the worker pools (the [`Failover`] policy), sending
    /// `headers` (request-id propagation) on every attempt.
    pub(crate) fn forward_with(
        &self,
        key: u64,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<(usize, Response), GatewayError> {
        let mut failover = {
            let _s = Span::enter("gateway.route");
            Failover::new(self, key)
        };
        while let Some((i, fresh)) = failover.next() {
            let worker = &self.workers[i];
            let (reused, result) = {
                let _s = Span::enter_timed(&worker.span, &worker.latency);
                worker.pool.attempt(fresh, method, path, headers, body)
            };
            if failover.judge(self, result.as_ref().map(|r| r.status), reused) {
                return Ok((i, result.expect("only an answer is final")));
            }
        }
        Err(failover.exhausted())
    }

    /// Where the event loop sends `failover`'s next attempt: the worker,
    /// its addresses, and whether it needs a fresh connection. A worker
    /// whose name has not resolved yet fails its turn. `None` once the
    /// chain is exhausted.
    pub(crate) fn next_upstream(&self, failover: &mut Failover) -> Option<Upstream> {
        loop {
            let (index, fresh) = failover.next()?;
            match self.workers[index].socket_addrs() {
                Ok(addrs) => {
                    return Some(Upstream {
                        index,
                        addrs,
                        fresh,
                        timeouts: self.timeouts,
                    })
                }
                Err(message) => {
                    let failed = RequestError {
                        message,
                        closed_early: false,
                    };
                    failover.judge(self, Err(&failed), false);
                }
            }
        }
    }

    /// Judges one loop attempt's reply: times it into the worker's
    /// histogram and the request's trace, then applies [`Failover`].
    /// Returns the final answer's worker and response.
    pub(crate) fn judge_reply(
        &self,
        failover: &mut Failover,
        reply: Reply,
        trace: &mut TraceScope,
    ) -> Option<(usize, Response)> {
        let worker = &self.workers[reply.index];
        worker
            .latency
            .observe_duration(reply.ended.saturating_duration_since(reply.started));
        trace.span(&worker.span, reply.started, reply.ended);
        let status = reply.result.as_ref().map(|r| r.status);
        if failover.judge(self, status, reply.reused) {
            return Some((reply.index, reply.result.expect("only an answer is final")));
        }
        None
    }

    /// Probes one worker's `GET /healthz`, updating its health belief.
    /// Returns the new belief.
    pub(crate) fn probe(&self, i: usize) -> bool {
        let worker = &self.workers[i];
        worker.resolve();
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

    /// A stub worker that answers the first request it ever reads, then
    /// reads and stalls on every later one, on any connection.
    fn stub_answering_once() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
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
    fn a_stalled_reused_connection_fails_over_after_one_deadline() {
        let stalling = stub_answering_once();
        let (live, stop) = stub_worker(200, "{\"ok\":true}");
        let timeouts = Timeouts {
            read: Some(std::time::Duration::from_millis(300)),
            ..Timeouts::default()
        };
        let router = Router::new([stalling, live], timeouts).unwrap();
        let key = (0..).find(|&k| router.route(k)[0] == 0).unwrap();
        let (first, _) = router.forward_with(key, "GET", "/x", &[], None).unwrap();
        assert_eq!(first, 0, "the stub answers its first request");
        // Its parked connection now stalls: one read deadline marks the
        // worker down, with no second deadline on a "stale" retry.
        let started = std::time::Instant::now();
        let (second, resp) = router.forward_with(key, "GET", "/x", &[], None).unwrap();
        let waited = started.elapsed();
        assert_eq!((second, resp.status), (1, 200));
        assert!(
            waited < std::time::Duration::from_millis(550),
            "failover took {waited:?}, more than one deadline"
        );
        assert_eq!(router.retries(), 0, "a deadline is no stale connection");
        assert!(!router.workers()[0].is_up());
        stop.store(true, Ordering::Relaxed);
    }

    #[test]
    fn a_probe_looks_the_name_up_again() {
        let (live, stop) = stub_worker(200, "{\"status\":\"ok\"}");
        let port = live.rsplit(':').next().unwrap().to_owned();
        let router = Router::new([format!("localhost:{port}")], Timeouts::default()).unwrap();
        let worker = &router.workers()[0];
        let found = worker.socket_addrs().unwrap();
        assert!(found.iter().all(|a| a.port().to_string() == port));
        // The address moved since the last lookup; the next probe sees it.
        let moved: SocketAddr = refusing_addr().parse().unwrap();
        *worker.resolved.write().unwrap() = Arc::from([moved]);
        assert!(router.probe(0));
        assert_eq!(worker.socket_addrs().unwrap(), found);
        stop.store(true, Ordering::Relaxed);
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
