//! The cluster gateway tier: a [`Router`] over the worker fleet inside
//! the node shell ([`mcdla_serve::node`]), exposing the single-node
//! endpoints at fleet scale — `POST /simulate` with retry + failover,
//! scatter-gather `POST /grid` (buffered and `?stream=1`), and the
//! `GET /cluster/stats` and `GET /cluster/history` aggregations.
//!
//! `POST /simulate` is forwarded by the event loop itself, over its own
//! non-blocking upstream connections, with no thread hand-off. Every
//! other route that talks to a backend — grids, `/cluster/*`, and
//! `?trace=1` forwards, which fetch the worker's sub-trace — detaches to
//! the bounded worker pool. Both share one admission queue (429 beyond
//! it); the shell's own routes answer on the loop thread.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mcdla_core::Scenario;
use mcdla_obs::{Span, TraceScope};
use mcdla_serve::accept::{LoopConfig, Reply, QUEUE_DEPTH};
use mcdla_serve::client::{encode_request, Timeouts};
use mcdla_serve::metrics::{Metric, Reading, Series};
use mcdla_serve::node::{
    self, BoundNode, Call, CellStream, Fast, Node, NodeHandle, Outcome, Route, Step, StreamOutcome,
    Tier,
};
use mcdla_serve::trace::{self, REQUEST_ID_HEADER};
use mcdla_serve::{ServeConfig, Server, ServerHandle, MAX_GRID_CELLS};
use serde::Value;

use crate::console::fleet_rings;
use crate::merge::{gather, relay, Scatter};
use crate::router::{Failover, Router, WorkerState};

/// Idle keep-alive client connections are dropped after this long
/// (same bound as the worker).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything `mcdla gateway` configures.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size: concurrent blocking gateway→fleet round trips
    /// (scatters, stats scrapes, traced forwards). Untraced
    /// `/simulate` forwards and client connection I/O are not bounded
    /// by this — the event loop multiplexes both.
    pub threads: usize,
    /// Worker addresses (`host:port`), in stable index order.
    pub backends: Vec<String>,
    /// Deadlines for gateway→worker requests.
    pub timeouts: Timeouts,
    /// Background health-probe period (`None` disables the prober;
    /// health is then tracked passively from request outcomes only).
    pub probe_interval: Option<Duration>,
    /// Telemetry sampling cadence in milliseconds. `None` defers to
    /// `MCDLA_SAMPLE_MS` (default 1s); `Some(0)` disables the sampler.
    pub sample_ms: Option<u64>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:7900".to_owned(),
            threads: 8,
            backends: Vec::new(),
            timeouts: Timeouts::default(),
            probe_interval: Some(Duration::from_secs(2)),
            sample_ms: None,
        }
    }
}

/// The gateway tier's state: the routing core.
#[derive(Debug)]
struct Fleet {
    router: Router,
}

/// A bound-but-not-yet-serving gateway.
#[derive(Debug)]
pub struct Gateway {
    bound: BoundNode<Fleet>,
    probe_interval: Option<Duration>,
}

/// Handle to a running gateway: resolved address, router view, clean
/// shutdown.
#[derive(Debug)]
pub struct GatewayHandle {
    running: NodeHandle<Fleet>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl Gateway {
    /// Binds the listener and builds the router over the backends.
    pub fn bind(config: &GatewayConfig) -> Result<Gateway, String> {
        let loop_config = LoopConfig {
            workers: config.threads,
            queue_depth: QUEUE_DEPTH,
            idle_timeout: READ_TIMEOUT,
            request_timeout: READ_TIMEOUT,
        };
        let router = Router::new(config.backends.iter().cloned(), config.timeouts)?;
        let bound = Node::bind(
            &config.addr,
            Fleet { router },
            loop_config,
            config.sample_ms,
        )?;
        Ok(Gateway {
            bound,
            probe_interval: config.probe_interval,
        })
    }

    /// The resolved listen address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.bound.local_addr()
    }

    /// Starts the event loop and worker pool (and the health prober) in
    /// background threads and returns a handle.
    pub fn spawn(self) -> std::io::Result<GatewayHandle> {
        let running = self.bound.spawn()?;
        let prober = match self.probe_interval {
            Some(interval) => Some(
                std::thread::Builder::new()
                    .name("mcdla-gateway-probe".to_owned())
                    .spawn({
                        let node = running.node.clone();
                        move || probe_loop(&node, interval)
                    })?,
            ),
            None => None,
        };
        Ok(GatewayHandle { running, prober })
    }

    /// Runs the gateway on background threads and parks the calling
    /// thread until they exit — the `mcdla gateway` entry point (it
    /// runs until the process is killed).
    pub fn run(self) -> std::io::Result<()> {
        self.spawn()?.join();
        Ok(())
    }
}

impl GatewayHandle {
    /// The resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.running.addr()
    }

    /// The routing core (topology + worker health).
    pub fn router(&self) -> &Router {
        &self.running.node.tier.router
    }

    /// Parks the calling thread until the event loop, worker pool and
    /// prober exit (the process is killed, or another thread shuts the
    /// node down).
    pub fn join(self) {
        self.running.join();
        if let Some(p) = self.prober {
            let _ = p.join();
        }
    }

    /// Stops the event loop and worker pool and joins every thread
    /// (including the prober). In-flight responses finish first, on the
    /// pool and on the loop alike (a loop forward's attempt may run to
    /// its deadline); idle keep-alive connections close immediately — the
    /// loop owns them, so no thread is parked in a blocking read anywhere.
    pub fn shutdown(self) {
        self.running.shutdown();
        if let Some(p) = self.prober {
            let _ = p.join();
        }
    }
}

/// The background health prober: probes every worker each `interval`,
/// waking often enough that shutdown never waits a full period.
fn probe_loop(node: &Node<Fleet>, interval: Duration) {
    let router = &node.tier.router;
    let tick = Duration::from_millis(50).min(interval);
    let mut last = Instant::now();
    // First probe immediately: a fleet spawned against a dead backend
    // should learn so before the first request.
    router.probe_all();
    while !node.shutting_down() {
        std::thread::sleep(tick);
        if last.elapsed() >= interval {
            last = Instant::now();
            router.probe_all();
            // Probes may take a while against black-holed workers; check
            // the flag right after rather than sleeping first.
        }
    }
}

/// An untraced `POST /simulate` the event loop forwards: the failover
/// walk, and the request id its 502 names.
#[derive(Debug)]
struct LoopForward {
    failover: Failover,
    rid: String,
}

/// Per-worker samples, labeled by worker address.
fn per_worker(n: &Node<Fleet>, read: fn(&WorkerState) -> f64) -> Reading {
    Reading::labeled(n.tier.router.workers().iter().map(|w| (w.addr(), read(w))))
}

impl Tier for Fleet {
    const SERVICE: &'static str = "mcdla-gateway";
    const TARGET: &'static str = "gateway";
    const PREFIX: &'static str = "mcdla_gateway_";
    const ENDPOINTS: &'static [&'static str] = &[
        "healthz",
        "cluster_stats",
        "metrics",
        "simulate",
        "grid",
        "debug",
    ];
    const ROUTES: &'static [Route] = &[
        ("GET", "/cluster/stats", "cluster_stats"),
        ("GET", "/cluster/history", "cluster_stats"),
        ("POST", "/simulate", "simulate"),
        ("POST", "/grid", "grid"),
    ];
    type Forward = LoopForward;

    fn metrics() -> Vec<Metric<Node<Self>>> {
        type M = Metric<Node<Fleet>>;
        vec![
            M::counter(
                "mcdla_gateway_failovers_total",
                "Requests or grid slices answered by a non-owner worker.",
                |n| Reading::value(n.tier.router.failovers.load(Ordering::Relaxed) as f64),
            )
            .stats("failovers")
            .series(Series::Each("fleet.failovers_per_s")),
            M::counter(
                "mcdla_gateway_retries_total",
                "Stale pooled-connection retries across all workers.",
                |n| Reading::value(n.tier.router.retries() as f64),
            )
            .stats("retries")
            .series(Series::Each("fleet.retries_per_s")),
            M::gauge(
                "mcdla_gateway_worker_up",
                "Health belief per worker (1 = up).",
                |n| per_worker(n, |w| f64::from(u8::from(w.is_up()))),
            )
            .labeled("worker")
            .series(Series::Each("fleet.workers_up")),
            M::counter(
                "mcdla_gateway_worker_answered_total",
                "Requests each worker answered for this gateway.",
                |n| per_worker(n, |w| w.answered.load(Ordering::Relaxed) as f64),
            )
            .labeled("worker"),
            M::counter(
                "mcdla_gateway_worker_failures_total",
                "Errors observed against each worker (connect/read failures and 5xx).",
                |n| per_worker(n, |w| w.failures.load(Ordering::Relaxed) as f64),
            )
            .labeled("worker"),
            M::histogram(
                "mcdla_gateway_upstream_seconds",
                "Gateway->worker round-trip latency per upstream worker, seconds.",
                "worker",
                |n| {
                    let workers = n.tier.router.workers().iter();
                    Reading::Histograms(
                        workers
                            .map(|w| (w.addr().to_owned(), w.latency.snapshot()))
                            .collect(),
                    )
                },
            ),
        ]
    }

    fn health(&self, fields: &mut Vec<(String, Value)>) {
        let workers = self.router.workers().len() as u64;
        fields.push(("workers".into(), Value::U64(workers)));
        let up = self.router.up_count() as u64;
        fields.push(("workers_up".into(), Value::U64(up)));
    }

    /// Validates an untraced `/simulate` (the same 400s a worker would
    /// answer) and hands it to the event loop to forward. A traced one
    /// takes the pool: its answer grafts the worker's sub-trace, fetched
    /// with a blocking call.
    fn fast(node: &Node<Self>, call: &Call) -> Option<Fast<LoopForward>> {
        if call.path != "/simulate" || call.traced {
            return None;
        }
        let key = match simulate_key(&call.request.body) {
            Ok(key) => key,
            Err(outcome) => return Some(Fast::Answer(outcome)),
        };
        let failover = {
            let _s = Span::enter("gateway.route");
            Failover::new(&node.tier.router, key)
        };
        let text = std::str::from_utf8(&call.request.body).expect("validated utf-8");
        let mut upstream = Vec::new();
        let rid = call.rid.as_str();
        let headers = [(REQUEST_ID_HEADER, rid)];
        encode_request(&mut upstream, "POST", "/simulate", &headers, Some(text));
        let rid = rid.to_owned();
        let state = LoopForward { failover, rid };
        Some(Fast::Forward { upstream, state })
    }

    /// Judges each attempt's reply under the failover policy and names
    /// the next worker to try; a worker's answer passes through
    /// byte-for-byte.
    fn forward(
        node: &Node<Self>,
        forward: &mut LoopForward,
        reply: Option<Reply>,
        trace: &mut TraceScope,
    ) -> Step {
        let router = &node.tier.router;
        let failover = &mut forward.failover;
        if let Some(reply) = reply {
            if let Some((worker, response)) = router.judge_reply(failover, reply, trace) {
                return Step::Answer(Outcome {
                    upstream: Some(worker),
                    ..Outcome::json(response.status, response.body)
                });
            }
        }
        match router.next_upstream(failover) {
            Some(upstream) => Step::Attempt(upstream),
            None => {
                let e = failover.exhausted();
                Step::Answer(Outcome::error_with_rid(e.status, &e.message, &forward.rid))
            }
        }
    }

    fn heavy(node: &Node<Self>, call: &Call) -> Outcome {
        let router = &node.tier.router;
        let pretty = |v: Value| Outcome::ok(serde::json::to_string_pretty(&v));
        match call.path {
            "/cluster/stats" => pretty(cluster_stats_value(node)),
            "/cluster/history" => pretty(cluster_history_value(node, call.query)),
            "/simulate" => simulate_endpoint(router, &call.request.body, &call.rid),
            _ => match node::grid_scenarios(&call.request.body, MAX_GRID_CELLS) {
                // Expand, partition by owner, scatter-gather, merge back
                // into single-node cell order.
                Ok(scenarios) => match gather(router, &scenarios) {
                    Ok(cells) => pretty(Value::Map(vec![
                        ("count".into(), Value::U64(cells.len() as u64)),
                        ("cells".into(), Value::Seq(cells)),
                    ])),
                    Err(e) => Outcome::error_with_rid(e.status, &e.message, &call.rid),
                },
                Err(outcome) => outcome,
            },
        }
    }

    /// Scatter-gather streaming: open one `?stream=1` sub-stream per
    /// owning worker (every worker starts computing immediately), then
    /// relay every sub-stream at once, forwarding each NDJSON line —
    /// verbatim bytes — as it arrives, in completion order across the
    /// fleet.
    ///
    /// * Worker unreachable **at open time** (before the gateway's 200
    ///   head): its slice fails over to the next replicas; if no worker
    ///   can take a slice, the whole request is a buffered 502.
    /// * Worker failure **mid-stream** (truncated sub-stream, short cell
    ///   count, or a non-200 sub-stream head), or a client that goes
    ///   away: the gateway closes every sub-stream at once, which
    ///   cancels the workers' outstanding cells, and ends its own
    ///   response without the terminal chunk.
    fn stream(node: &Node<Self>, scenarios: Vec<Scenario>, out: &mut CellStream) -> StreamOutcome {
        let router = &node.tier.router;
        // Open every sub-stream, failing slices over while nothing has
        // been written to the client yet.
        let opened = match Scatter::new(router, &scenarios).open((0..scenarios.len()).collect()) {
            Ok(opened) => opened,
            Err(e) => return StreamOutcome::Rejected(Outcome::error(e.status, &e.message)),
        };
        if out.open().is_err() {
            return StreamOutcome::Streamed { clean: false };
        }
        let out = Mutex::new(out);
        let subs = opened.into_iter().map(|sub| (sub, ()));
        let relayed = relay(router, subs, true, |(), mut line| {
            line.push('\n');
            out.lock()
                .expect("client stream lock")
                .lines(&[line])
                .map_err(|e| format!("client went away: {e}"))
        });
        let clean = relayed.iter().all(|(_, (), result)| result.is_ok());
        StreamOutcome::Streamed { clean }
    }

    /// Fetches the answering worker's recorded trace for `rid` and
    /// wraps it as the `upstream` block of a gateway trace:
    /// `[{worker, addr, trace}]`. A worker that cannot produce the trace
    /// yields `"trace": null` rather than failing the response.
    fn upstream_trace(&self, worker: usize, rid: &str) -> Value {
        let w = &self.router.workers()[worker];
        let trace = w
            .pool()
            .request("GET", &format!("/debug/trace/{rid}"), None)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| serde::json::parse(&r.body).ok())
            .unwrap_or(Value::Null);
        Value::Seq(vec![Value::Map(vec![
            ("worker".into(), Value::U64(worker as u64)),
            ("addr".into(), Value::Str(w.addr().to_owned())),
            ("trace".into(), trace),
        ])])
    }
}

/// A `/simulate` body's routing key, once it validates locally.
fn simulate_key(body: &[u8]) -> Result<u64, Outcome> {
    node::scenario(body).map(|scenario| mcdla_core::key_hash(&scenario))
}

/// A traced `POST /simulate` on a pool thread: validate locally, then
/// forward the client's body verbatim along the scenario key's failover
/// chain through the worker pools. A worker's 2xx/4xx answer passes
/// through byte-for-byte; worker-unreachable becomes a 502 naming the
/// workers.
fn simulate_endpoint(router: &Router, body: &[u8], rid: &str) -> Outcome {
    let key = match simulate_key(body) {
        Ok(key) => key,
        Err(outcome) => return outcome,
    };
    let text = std::str::from_utf8(body).expect("validated utf-8 above");
    match router.forward_with(
        key,
        "POST",
        "/simulate",
        &[(REQUEST_ID_HEADER, rid)],
        Some(text),
    ) {
        Ok((worker, response)) => Outcome {
            upstream: Some(worker),
            ..Outcome::json(response.status, response.body)
        },
        Err(e) => Outcome::error_with_rid(e.status, &e.message, rid),
    }
}

/// Scrapes `GET path` from every worker. Each entry holds `index`,
/// `addr`, the `fields` the caller adds, `up`, and then either `key`
/// with the parsed body (`null` when it does not parse) or `error`.
fn scrape(
    router: &Router,
    path: &str,
    key: &str,
    fields: impl Fn(&WorkerState) -> Vec<(String, Value)>,
) -> Vec<Value> {
    let mut entries = Vec::new();
    for (i, worker) in router.workers().iter().enumerate() {
        let mut entry = vec![
            ("index".into(), Value::U64(i as u64)),
            ("addr".into(), Value::Str(worker.addr().to_owned())),
        ];
        entry.extend(fields(worker));
        match worker.pool().request("GET", path, None) {
            Ok(response) if response.status == 200 => {
                worker.mark_up();
                let body = serde::json::parse(&response.body).unwrap_or(Value::Null);
                entry.push(("up".into(), Value::Bool(true)));
                entry.push((key.into(), body));
            }
            Ok(response) => {
                entry.push(("up".into(), Value::Bool(worker.is_up())));
                let error = format!("{key} answered HTTP {}", response.status);
                entry.push(("error".into(), Value::Str(error)));
            }
            Err(e) => {
                worker.mark_down(&e);
                entry.push(("up".into(), Value::Bool(false)));
                entry.push(("error".into(), Value::Str(e)));
            }
        }
        entries.push(Value::Map(entry));
    }
    entries
}

/// The scraped bodies of the workers that answered 200 (`null` where
/// the body did not parse).
fn scraped<'a>(entries: &'a [Value], key: &'a str) -> impl Iterator<Item = &'a Value> {
    entries.iter().filter_map(move |e| e.get(key))
}

/// `GET /cluster/history`: the gateway's own retained series plus one
/// `GET /metrics/history` scrape of every worker, with fleet-wide
/// aggregates. Workers sample on independent clocks, so the fleet view
/// aligns rings **from the tail** — sample `j` of the fleet series sums
/// the `j`-th-from-last sample of every reachable worker — and only
/// spans the window every reachable worker has retained. `?last=` is
/// forwarded to the workers; `?series=` filters only the gateway's own
/// block (the fleet aggregate always needs the store series).
fn cluster_history_value(node: &Node<Fleet>, query: Option<&str>) -> Value {
    let router = &node.tier.router;
    let path = match trace::history_query(query).1 {
        Some(n) => format!("/metrics/history?last={n}"),
        None => "/metrics/history".to_owned(),
    };
    let workers = scrape(router, &path, "history", |_| Vec::new());
    let histories: Vec<&Value> = scraped(&workers, "history")
        .filter(|h| **h != Value::Null)
        .collect();
    let (timestamps, [req, hits, misses, hit_rate]) = fleet_rings(&histories);
    let seq = |ring: Vec<f64>| Value::Seq(ring.into_iter().map(Value::F64).collect());
    Value::Map(vec![
        ("service".into(), Value::Str(Fleet::SERVICE.into())),
        ("gateway".into(), node.history_value(query)),
        (
            "fleet".into(),
            Value::Map(vec![
                ("workers".into(), Value::U64(router.workers().len() as u64)),
                (
                    "up".into(),
                    Value::U64(scraped(&workers, "history").count() as u64),
                ),
                ("samples".into(), Value::U64(timestamps.len() as u64)),
                (
                    "timestamps_ms".into(),
                    Value::Seq(timestamps.into_iter().map(Value::U64).collect()),
                ),
                (
                    "series".into(),
                    Value::Map(vec![
                        ("req_per_s".into(), seq(req)),
                        ("store.hits_per_s".into(), seq(hits)),
                        ("store.misses_per_s".into(), seq(misses)),
                        ("store.hit_rate".into(), seq(hit_rate)),
                    ]),
                ),
            ]),
        ),
        ("workers".into(), Value::Seq(workers)),
    ])
}

/// `GET /cluster/stats`: gateway counters plus one `GET /stats` scrape
/// of every worker, with fleet-wide store totals.
fn cluster_stats_value(node: &Node<Fleet>) -> Value {
    let router = &node.tier.router;
    let workers = scrape(router, "/stats", "stats", |worker| {
        vec![
            (
                "answered".into(),
                Value::U64(worker.answered.load(Ordering::Relaxed)),
            ),
            (
                "failures".into(),
                Value::U64(worker.failures.load(Ordering::Relaxed)),
            ),
        ]
    });
    let total = |field: &str| {
        let store = scraped(&workers, "stats").filter_map(|s| s.get("store"));
        Value::U64(store.filter_map(|s| s.get(field)?.as_u64()).sum())
    };
    Value::Map(vec![
        ("service".into(), Value::Str(Fleet::SERVICE.into())),
        ("uptime_seconds".into(), Value::F64(node.uptime())),
        ("build".into(), trace::build_value()),
        ("gateway".into(), Value::Map(node.stats_blocks())),
        (
            "fleet".into(),
            Value::Map(vec![
                ("workers".into(), Value::U64(router.workers().len() as u64)),
                (
                    "up".into(),
                    Value::U64(scraped(&workers, "stats").count() as u64),
                ),
                ("entries".into(), total("entries")),
                ("hits".into(), total("hits")),
                ("misses".into(), total("misses")),
                ("evictions".into(), total("evictions")),
            ]),
        ),
        ("workers".into(), Value::Seq(workers)),
    ])
}

/// A whole local fleet: `n` in-process workers on ephemeral loopback
/// ports plus a gateway routing across them. This is what
/// `mcdla cluster --workers N`, `cluster-bench`, and the integration
/// tests spawn.
#[derive(Debug)]
pub struct LocalFleet {
    /// The worker handles, in topology index order.
    pub workers: Vec<ServerHandle>,
    /// The gateway handle.
    pub gateway: GatewayHandle,
}

/// What [`spawn_local_fleet`] configures.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker count.
    pub workers: usize,
    /// Simulation worker-pool threads per worker node.
    pub worker_threads: usize,
    /// Result-store capacity per worker (`None` = unbounded).
    pub cache_cap: Option<usize>,
    /// Per-worker snapshot prefix: worker `i` persists to
    /// `{prefix}.w{i}.json`.
    pub snapshot_prefix: Option<std::path::PathBuf>,
    /// Gateway listen address (`127.0.0.1:0` for ephemeral).
    pub gateway_addr: String,
    /// Gateway worker-pool threads: concurrent blocking fleet round
    /// trips (grids, scrapes, traced forwards). Untraced `/simulate`
    /// forwards run on the gateway's event loop instead.
    pub gateway_threads: usize,
    /// Gateway→worker deadlines.
    pub timeouts: Timeouts,
    /// Gateway health-probe period.
    pub probe_interval: Option<Duration>,
    /// Telemetry sampling cadence for every node (worker and gateway),
    /// in milliseconds. `None` defers to `MCDLA_SAMPLE_MS`; `Some(0)`
    /// disables sampling fleet-wide.
    pub sample_ms: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 2,
            worker_threads: 4,
            cache_cap: None,
            snapshot_prefix: None,
            gateway_addr: "127.0.0.1:0".to_owned(),
            gateway_threads: 8,
            timeouts: Timeouts::default(),
            probe_interval: Some(Duration::from_secs(2)),
            sample_ms: None,
        }
    }
}

/// The per-worker snapshot path for a fleet prefix.
pub fn worker_snapshot_path(prefix: &std::path::Path, index: usize) -> std::path::PathBuf {
    let mut name = prefix.as_os_str().to_owned();
    name.push(format!(".w{index}.json"));
    std::path::PathBuf::from(name)
}

/// Spawns an in-process fleet: workers on ephemeral ports, then a
/// gateway over them.
pub fn spawn_local_fleet(config: &FleetConfig) -> Result<LocalFleet, String> {
    if config.workers == 0 {
        return Err("a fleet needs at least one worker (got `--workers 0`)".into());
    }
    let mut workers = Vec::with_capacity(config.workers);
    let mut backends = Vec::with_capacity(config.workers);
    for i in 0..config.workers {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: config.worker_threads,
            cache_cap: config.cache_cap,
            snapshot: config
                .snapshot_prefix
                .as_deref()
                .map(|prefix| worker_snapshot_path(prefix, i)),
            sample_ms: config.sample_ms,
            ..ServeConfig::default()
        })?;
        let handle = server
            .spawn()
            .map_err(|e| format!("spawning worker {i}: {e}"))?;
        backends.push(handle.addr().to_string());
        workers.push(handle);
    }
    let gateway = Gateway::bind(&GatewayConfig {
        addr: config.gateway_addr.clone(),
        threads: config.gateway_threads,
        backends,
        timeouts: config.timeouts,
        probe_interval: config.probe_interval,
        sample_ms: config.sample_ms,
    })?;
    let gateway = gateway
        .spawn()
        .map_err(|e| format!("spawning gateway: {e}"))?;
    Ok(LocalFleet { workers, gateway })
}

impl LocalFleet {
    /// The gateway's resolved address.
    pub fn gateway_addr(&self) -> SocketAddr {
        self.gateway.addr()
    }

    /// Worker addresses in topology order.
    pub fn worker_addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr().to_string()).collect()
    }

    /// Shuts down the gateway, then every worker.
    pub fn shutdown(self) {
        self.gateway.shutdown();
        for worker in self.workers {
            worker.shutdown();
        }
    }
}
