//! Routing a scenario key to a live worker: rendezvous ranking from the
//! [`Topology`], health state per worker, and the failover policy the
//! event loop drives for every gateway `POST /simulate` ([`Failover`]).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use mcdla_obs::{Histogram, TraceScope};
use mcdla_serve::accept::{Reply, RequestError, Upstream};
use mcdla_serve::client::{self, Connection, Response, Timeouts};

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

/// One worker's live state: its address, passive health and counters.
#[derive(Debug)]
pub struct WorkerState {
    addr: String,
    /// `gateway.upstream.N`: the span of one forward attempt to it.
    span: String,
    /// Every socket address its name resolves to, in lookup order:
    /// resolved off the event loop, at start and again by each probe.
    resolved: RwLock<Arc<[SocketAddr]>>,
    up: AtomicBool,
    /// Requests this worker answered (any status).
    pub(crate) answered: AtomicU64,
    /// Errors observed against this worker (connect/read failures and
    /// 5xx answers).
    pub failures: AtomicU64,
    /// Stale-link retries against this worker.
    retries: AtomicU64,
    /// Upstream round-trip latency against this worker (successful and
    /// failed attempts both count — a slow failure is still time spent).
    pub(crate) latency: Arc<Histogram>,
    last_error: Mutex<String>,
}

impl WorkerState {
    fn new(index: usize, addr: &str) -> Self {
        let worker = WorkerState {
            addr: addr.to_owned(),
            span: format!("gateway.upstream.{index}"),
            resolved: RwLock::new(Arc::from([])),
            // Optimistic start: a worker is presumed up until a request
            // or probe says otherwise, so a fleet serves immediately.
            up: AtomicBool::new(true),
            answered: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            latency: Arc::new(Histogram::new()),
            last_error: Mutex::new(String::new()),
        };
        worker.resolve();
        worker
    }

    /// Looks the worker's name up again (a blocking lookup: never on the
    /// event loop). A lookup that finds nothing keeps the last answer.
    fn resolve(&self) {
        if let Some(found) = client::resolve(&self.addr).ok().filter(|f| !f.is_empty()) {
            *self.resolved.write().expect("resolved lock") = found.into();
        }
    }

    /// The addresses every connection to the worker tries in turn: the
    /// event loop's links and [`Router::connect`]'s blocking ones.
    fn socket_addrs(&self) -> Result<Arc<[SocketAddr]>, String> {
        let addrs = self.resolved.read().expect("resolved lock").clone();
        if addrs.is_empty() {
            return Err(format!("resolving {}: no address yet", self.addr));
        }
        Ok(addrs)
    }

    /// The worker's address.
    pub(crate) fn addr(&self) -> &str {
        &self.addr
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

/// One point request's walk down its failover chain, one attempt at a
/// time: the event loop sends each attempt and this judges it.
///
/// * Workers are tried in rendezvous order, down workers last (the
///   health belief may be stale, and a down worker beats no answer).
/// * A `< 500` answer (success **or** a worker-side 4xx) is final and
///   passes through — a 4xx is the worker's verdict on the request, not
///   a worker failure.
/// * A `5xx` answer counts as a worker failure and moves on, but leaves
///   the worker up (it is alive enough to answer).
/// * The staleness rule: when a *reused* link closed or reset before
///   the first response byte, the worker gets one retry on a fresh
///   link, counted in its `retries`. The loop's links are the only
///   connections the gateway reuses.
/// * Any other failure — connect, read, an expired deadline, a
///   malformed answer — is the worker's own: it marks the worker down
///   and moves on.
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
            Err(e) if reused && e.closed_early => {
                worker.retries.fetch_add(1, Ordering::Relaxed);
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
            .map(|(i, a)| WorkerState::new(i, a))
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

    /// Stale-link retries across all workers.
    pub fn retries(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.retries.load(Ordering::Relaxed))
            .sum()
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

    /// A fresh blocking connection to worker `i`, under the gateway's
    /// deadlines, over the addresses the loop's links use: probes,
    /// scrapes and grid sub-streams each open their own, and none is
    /// kept for reuse.
    pub(crate) fn connect(&self, i: usize) -> Result<Connection, String> {
        let worker = &self.workers[i];
        Connection::connect(worker.addr(), &worker.socket_addrs()?, self.timeouts)
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
        let answer = self
            .connect(i)
            .and_then(|mut conn| conn.request("GET", "/healthz", None));
        match answer {
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

    /// A router over two workers that are never contacted: the
    /// failover tests judge synthetic outcomes.
    fn two_workers() -> Router {
        Router::new(["127.0.0.1:1", "127.0.0.1:2"], Timeouts::default()).unwrap()
    }

    /// A key whose rendezvous owner is worker 0.
    fn owned_by_worker_0(router: &Router) -> u64 {
        (0..).find(|&k| router.route(k)[0] == 0).unwrap()
    }

    fn failed(message: &str, closed_early: bool) -> RequestError {
        RequestError {
            message: message.to_owned(),
            closed_early,
        }
    }

    #[test]
    fn forward_fails_over_from_a_dead_owner_and_marks_it_down() {
        let router = two_workers();
        let key = owned_by_worker_0(&router);
        let mut failover = Failover::new(&router, key);
        assert_eq!(failover.next(), Some((0, false)));
        let refused = failed("connecting: Connection refused (os error 111)", false);
        assert!(!failover.judge(&router, Err(&refused), false));
        let dead = &router.workers()[0];
        assert!(!dead.is_up());
        assert!(
            dead.last_error().contains("connect"),
            "{}",
            dead.last_error()
        );
        assert_eq!(failover.next(), Some((1, false)));
        assert!(failover.judge(&router, Ok(200), false));
        assert_eq!(router.failovers.load(Ordering::Relaxed), 1);
        assert_eq!(router.workers()[1].answered.load(Ordering::Relaxed), 1);
        // The down owner is demoted: its key's next chain starts live.
        assert_eq!(router.route(key), [1, 0]);
    }

    #[test]
    fn worker_4xx_passes_through_without_failover() {
        let router = two_workers();
        let mut failover = Failover::new(&router, 7);
        let (owner, _) = failover.next().unwrap();
        assert!(failover.judge(&router, Ok(418), false));
        let owner = &router.workers()[owner];
        assert!(owner.is_up());
        assert_eq!(owner.answered.load(Ordering::Relaxed), 1);
        assert_eq!(owner.failures.load(Ordering::Relaxed), 0);
        assert_eq!(router.failovers.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn worker_5xx_fails_over_but_leaves_the_worker_up() {
        let router = two_workers();
        let mut failover = Failover::new(&router, owned_by_worker_0(&router));
        assert!(!failover.judge(&router, Ok(500), false));
        let sick = &router.workers()[0];
        assert!(sick.is_up(), "5xx must not mark a live worker down");
        assert_eq!(sick.failures.load(Ordering::Relaxed), 1);
        assert_eq!(failover.next(), Some((1, false)));
        assert!(failover.judge(&router, Ok(200), false));
        assert_eq!(router.failovers.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn all_workers_down_is_a_502_naming_each() {
        let router = two_workers();
        let mut failover = Failover::new(&router, 1);
        while failover.next().is_some() {
            let refused = failed("Connection refused (os error 111)", false);
            assert!(!failover.judge(&router, Err(&refused), false));
        }
        let err = failover.exhausted();
        assert_eq!(err.status, 502);
        for worker in router.workers() {
            assert!(err.message.contains(worker.addr()), "{}", err.message);
        }
        assert_eq!(router.up_count(), 0);
    }

    #[test]
    fn a_stalled_reused_connection_fails_over_after_one_deadline() {
        let router = two_workers();
        let mut failover = Failover::new(&router, owned_by_worker_0(&router));
        // A deadline on a reused link is the worker's failure, not a
        // stale link: no second deadline on a retry, straight on.
        let deadline = failed("reading response: timed out", false);
        assert!(!failover.judge(&router, Err(&deadline), true));
        assert_eq!(failover.next(), Some((1, false)));
        assert_eq!(router.retries(), 0, "a deadline is no stale connection");
        assert!(!router.workers()[0].is_up());
    }

    #[test]
    fn only_a_reused_link_closing_early_earns_a_retry() {
        let router = two_workers();
        let mut failover = Failover::new(&router, owned_by_worker_0(&router));
        let closed = failed("connection closed before the response", true);
        assert!(!failover.judge(&router, Err(&closed), true));
        assert_eq!(failover.next(), Some((0, true)), "one retry, fresh");
        assert_eq!(router.retries(), 1);
        assert!(router.workers()[0].is_up());
        // The same failure on the fresh link is the worker's own.
        assert!(!failover.judge(&router, Err(&closed), false));
        assert_eq!(failover.next(), Some((1, false)));
        assert_eq!(router.retries(), 1);
        assert!(!router.workers()[0].is_up());
    }

    #[test]
    fn dead_worker_fails_fast_with_the_address_named() {
        let dead = refusing_addr();
        let router = Router::new([dead.clone()], Timeouts::default()).unwrap();
        assert!(!router.probe(0));
        let error = router.workers()[0].last_error();
        assert!(
            error.contains(&dead),
            "error does not name the worker: {error}"
        );
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
