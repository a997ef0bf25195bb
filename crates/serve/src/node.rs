//! The node shell both tiers run in. The worker (`mcdla serve`) and the
//! gateway (`mcdla gateway`) are each a [`Tier`] — a route table, its
//! handlers, and a metric table — inside one [`Node`], which implements
//! the event loop's `Service` trait once and owns everything else:
//!
//! * node state: start time, shutdown flag, loop counters, per-endpoint
//!   request counters and latency histograms, the flight recorder, the
//!   slow-request threshold, and the history rings with their sampler;
//! * the request lifecycle, on the loop thread and the pool alike: the
//!   request id, the trace scope, one `catch_unwind` around every
//!   handler (fast, forwarded, heavy, or streamed), error counting, the
//!   `?trace=1` graft, the wide event, and the response write — plus
//!   the 429 shed, the wire-error answer, and the streamed-grid framing;
//! * the shared routes: `GET /healthz`, `GET /metrics`,
//!   `GET /metrics/history`, `GET /debug/requests`,
//!   `GET /debug/trace/<id>`, and the 404/405 fallbacks, along with
//!   body and grid parsing for the tiers' own routes.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdla_core::Scenario;
use mcdla_obs::log::LogValue;
use mcdla_obs::{
    rss_bytes, unix_ms, FlightRecorder, Histogram, History, Sampler, TraceRecord, TraceScope,
};
use serde::{Deserialize, Value};

use crate::accept::{
    spawn_event_loop, FastAnswer, Forward, Inline, LoopConfig, LoopHandle, LoopStats, Next, Reply,
    Service, Upstream,
};
use crate::http::{
    error_body, finish_chunked, query_flag, query_param, split_target, write_chunk,
    write_chunked_head_with, write_response_with, Request, WireError,
};
use crate::metrics::{self, Metric, MetricsBuilder, Reading, Series};
use crate::server::GridRequest;
use crate::trace::{self, REQUEST_ID_HEADER};

/// One route: `(method, path, endpoint label)`. A path ending in `/`
/// matches by prefix; the label (one of [`Tier::ENDPOINTS`]) is what
/// the route's requests count and time under.
pub type Route = (&'static str, &'static str, &'static str);

/// The routes every node answers itself.
const SHARED_ROUTES: &[Route] = &[
    ("GET", "/healthz", "healthz"),
    ("GET", "/metrics", "metrics"),
    ("GET", "/metrics/history", "metrics"),
    ("GET", "/debug/requests", "debug"),
    ("GET", "/debug/trace/", "debug"),
];

/// What a tier plugs into the shell. Handlers receive the whole node,
/// so they reach both the tier's state (`node.tier`) and the shell's.
pub trait Tier: Send + Sync + Sized + 'static {
    /// Service name in bodies and wide events (`mcdla-serve`).
    const SERVICE: &'static str;
    /// Log target of the tier's wide events (`serve`).
    const TARGET: &'static str;
    /// Name prefix of the shell's metric families (`mcdla_`).
    const PREFIX: &'static str;
    /// Endpoint labels in report order; `other` is appended for
    /// latency histograms, `errors` for request counters.
    const ENDPOINTS: &'static [&'static str];
    /// The tier's own routes.
    const ROUTES: &'static [Route];

    /// Per-request state of a forward the event loop runs for the tier
    /// ([`Fast::Forward`]); a tier that never forwards uses
    /// [`std::convert::Infallible`].
    type Forward;

    /// The tier's metric families (the shell declares its own).
    fn metrics() -> Vec<Metric<Node<Self>>>;

    /// Fields the tier adds to `GET /healthz`.
    fn health(&self, _fields: &mut Vec<(String, Value)>) {}

    /// Answers one of [`Tier::ROUTES`] on the loop thread, or hands the
    /// loop an upstream forward, or `None` to send it to the worker
    /// pool.
    fn fast(_node: &Node<Self>, _call: &Call) -> Option<Fast<Self::Forward>> {
        None
    }

    /// Drives a loop forward one attempt at a time: called once with no
    /// reply, then with the reply of each attempt it asked for. `trace`
    /// is the request's trace, detached from the loop thread.
    fn forward(
        node: &Node<Self>,
        forward: &mut Self::Forward,
        reply: Option<Reply>,
        trace: &mut TraceScope,
    ) -> Step;

    /// Answers one of [`Tier::ROUTES`] on a pool thread.
    fn heavy(node: &Node<Self>, call: &Call) -> Outcome;

    /// Streams a validated grid for `POST /grid?stream=1`.
    fn stream(node: &Node<Self>, scenarios: Vec<Scenario>, out: &mut CellStream) -> StreamOutcome;

    /// The `upstream` block a traced answer grafts when `worker`
    /// answered it.
    fn upstream_trace(&self, _worker: usize, _rid: &str) -> Value {
        Value::Null
    }

    /// Runs after a response that simulated `cells` new cells went out.
    fn computed(&self, _cells: usize) {}
}

/// A handler's answer.
#[derive(Debug)]
pub struct Outcome {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Response content type (JSON everywhere except `/metrics`).
    pub content_type: &'static str,
    /// Cells simulated, for answers served from a result store (`None`
    /// elsewhere): drives the wide event's cache disposition and the
    /// worker's snapshot rewrites.
    pub computed_cells: Option<usize>,
    /// The worker that answered a gateway forward (a traced answer
    /// grafts that worker's sub-trace).
    pub upstream: Option<usize>,
}

impl Outcome {
    /// A 200 JSON answer.
    pub fn ok(body: String) -> Self {
        Outcome::json(200, body)
    }

    /// A JSON answer with any status (gateway passthrough).
    pub fn json(status: u16, body: String) -> Self {
        Outcome {
            status,
            body,
            content_type: "application/json",
            computed_cells: None,
            upstream: None,
        }
    }

    /// A JSON error body.
    pub fn error(status: u16, message: &str) -> Self {
        Outcome::json(status, error_body(message))
    }

    /// An error body carrying the request id, so a client holding a 502
    /// can quote the id that `/debug/requests` will list.
    pub fn error_with_rid(status: u16, message: &str, rid: &str) -> Self {
        let body = trace::graft_json(&error_body(message), "request_id", Value::Str(rid.into()));
        Outcome::json(status, body)
    }
}

/// What a tier's loop-thread handler made of a request.
#[derive(Debug)]
pub enum Fast<F> {
    /// Answered inline.
    Answer(Outcome),
    /// Forwarded upstream by the event loop, which never blocks on it:
    /// the request bytes to send (the same on every attempt), and the
    /// tier's state for [`Tier::forward`].
    Forward {
        /// The serialized upstream request.
        upstream: Vec<u8>,
        /// The tier's per-forward state.
        state: F,
    },
}

/// What a loop forward does next.
#[derive(Debug)]
pub enum Step {
    /// Make this upstream attempt.
    Attempt(Upstream),
    /// Answer the client.
    Answer(Outcome),
}

/// A loop forward's shell state: the request id, the detached trace,
/// and the tier's own state.
#[derive(Debug)]
pub(crate) struct Forwarding<F> {
    rid: String,
    /// `None` once answered.
    scope: Option<TraceScope>,
    tier: F,
}

/// How `POST /grid?stream=1` ended.
#[derive(Debug)]
pub enum StreamOutcome {
    /// Rejected before the 200 head: answered as a buffered response.
    Rejected(Outcome),
    /// The head went out. `clean` is false when the stream broke
    /// mid-flight: the connection then closes without the terminal
    /// chunk, which is how the client learns the grid is incomplete.
    Streamed {
        /// Whether every cell went out.
        clean: bool,
    },
}

/// A chunked NDJSON answer in progress: a tier opens it (the 200 head)
/// once it can no longer fail the request as a whole, then writes one
/// line per cell, one chunk per line; the shell writes the terminal
/// chunk.
#[derive(Debug)]
pub struct CellStream<'a> {
    writer: &'a mut TcpStream,
    rid: &'a str,
    keep_alive: bool,
    bytes: u64,
    /// Cells simulated, for streams served from a result store.
    pub(crate) computed_cells: Option<usize>,
}

impl CellStream<'_> {
    /// Writes the 200 chunked head.
    pub fn open(&mut self) -> std::io::Result<()> {
        write_chunked_head_with(
            self.writer,
            200,
            &[(REQUEST_ID_HEADER, self.rid)],
            self.keep_alive,
        )
    }

    /// Writes cell lines (newline included), each framed as its own
    /// chunk, with one write: a batch costs one syscall here and one
    /// wakeup of the reader, however many lines it holds.
    pub fn lines(&mut self, lines: &[impl AsRef<[u8]>]) -> std::io::Result<()> {
        let mut chunks = Vec::new();
        for line in lines {
            write_chunk(&mut chunks, line.as_ref())?;
            self.bytes += line.as_ref().len() as u64;
        }
        self.writer.write_all(&chunks)?;
        self.writer.flush()
    }
}

/// How a request resolved against the route tables.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    Shared,
    Tier,
    /// The path exists for this other method (405).
    WrongMethod(&'static str),
    NotFound,
}

/// One request as handlers see it.
#[derive(Debug)]
pub struct Call<'a> {
    /// The parsed request.
    pub request: &'a Request,
    /// The target path (query stripped).
    pub path: &'a str,
    /// The raw query string.
    pub query: Option<&'a str>,
    /// The request id: propagated when well-formed, else generated.
    pub rid: String,
    /// Whether the client asked for the span tree (`?trace=1`).
    pub traced: bool,
    /// How long the request waited for a pool thread, in microseconds.
    queue_us: u64,
    endpoint: usize,
    resolved: Resolved,
    keep_alive: bool,
}

/// Parses a JSON body, answering 400 on invalid UTF-8 or JSON.
fn parse_body<T: Deserialize>(body: &[u8], what: &str) -> Result<T, Outcome> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Outcome::error(400, &format!("{what} body is not valid utf-8")))?;
    serde::json::from_str(text).map_err(|e| Outcome::error(400, &format!("bad {what} JSON: {e}")))
}

/// Parses and validates a `/simulate` body.
pub fn scenario(body: &[u8]) -> Result<Scenario, Outcome> {
    let scenario: Scenario = parse_body(body, "scenario")?;
    scenario
        .validate()
        .map_err(|msg| Outcome::error(400, &msg))?;
    Ok(scenario)
}

/// Parses and validates a grid body into runnable scenarios, bounded by
/// `max_cells`.
pub fn grid_scenarios(body: &[u8], max_cells: usize) -> Result<Vec<Scenario>, Outcome> {
    let request: GridRequest = parse_body(body, "grid")?;
    let scenarios = request
        .scenarios_bounded(max_cells)
        .map_err(|msg| Outcome::error(400, &msg))?;
    if let Some(msg) = scenarios.iter().find_map(|s| s.validate().err()) {
        return Err(Outcome::error(400, &msg));
    }
    Ok(scenarios)
}

/// Runs `f`, turning a panic into a 500 so it never takes the loop
/// thread or a pool worker down.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, Outcome> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|_| Outcome::error(500, "internal error handling the request"))
}

/// A sampler reading: when, and one [`Reading`] per metric family.
type Tick = (Instant, Vec<Reading>);

/// Completed request traces a node's flight recorder keeps.
const TRACE_CAP: usize = 1024;

/// Samples a node keeps per history series: ten minutes at the default
/// 1 s cadence.
const HISTORY_CAP: usize = 600;

/// A serving node: shell state around a tier (see the module docs).
pub struct Node<T> {
    /// The tier's own state.
    pub tier: T,
    started: Instant,
    shutdown: AtomicBool,
    loop_stats: Arc<LoopStats>,
    /// One counter per endpoint label, then `errors`.
    requests: Vec<AtomicU64>,
    /// One histogram per endpoint label, then `other`.
    latency: Vec<Histogram>,
    recorder: FlightRecorder,
    slow_ms: Option<u64>,
    metrics: Vec<Metric<Node<T>>>,
    history: History,
}

impl<T: Tier> std::fmt::Debug for Node<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("service", &T::SERVICE)
            .field("uptime", &self.started.elapsed())
            .finish()
    }
}

/// A bound node: listening, not yet serving.
#[derive(Debug)]
pub struct BoundNode<T: Tier> {
    listener: TcpListener,
    loop_config: LoopConfig,
    /// Resolved sampler cadence (`None` = sampling off).
    sample_ms: Option<u64>,
    /// The node's state.
    pub node: Arc<Node<T>>,
}

/// A running node.
#[derive(Debug)]
pub struct NodeHandle<T: Tier> {
    addr: SocketAddr,
    /// The node's state.
    pub node: Arc<Node<T>>,
    loops: LoopHandle,
    sampler: Option<Sampler>,
}

impl<T: Tier> Node<T> {
    /// Binds `addr` and builds a node around `tier`. `sample_ms`
    /// overrides `MCDLA_SAMPLE_MS` (`Some(0)` disables sampling).
    pub fn bind(
        addr: &str,
        tier: T,
        loop_config: LoopConfig,
        sample_ms: Option<u64>,
    ) -> Result<BoundNode<T>, String> {
        if loop_config.workers == 0 {
            return Err("thread count must be >= 1 (got `0`)".into());
        }
        let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        // Span recording is process-global and off by default (batch
        // sweeps skip the instrumentation); a serving process turns it
        // on for request traces and stage latency histograms.
        mcdla_obs::set_enabled(true);
        let sample_ms = match sample_ms {
            Some(0) => None,
            Some(n) => Some(n),
            None => mcdla_obs::sample_ms_from_env(),
        };
        let mut metrics = shell_metrics::<T>();
        metrics.extend(T::metrics());
        let mut node = Node {
            tier,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            loop_stats: Arc::new(LoopStats::default()),
            requests: (0..=T::ENDPOINTS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            latency: (0..=T::ENDPOINTS.len()).map(|_| Histogram::new()).collect(),
            recorder: FlightRecorder::new(TRACE_CAP),
            slow_ms: trace::slow_ms_from_env(),
            metrics,
            history: History::new(Vec::new(), 1, 0),
        };
        // The series set is whatever the metric table yields, so the
        // rings and every sample are cut from the same list.
        let reading = node.tick();
        let names = node.sample(&reading, &reading).into_iter().map(|(n, _)| n);
        node.history = History::new(names.collect(), HISTORY_CAP, sample_ms.unwrap_or(0));
        Ok(BoundNode {
            listener,
            loop_config,
            sample_ms,
            node: Arc::new(node),
        })
    }

    /// Seconds since the node started.
    pub fn uptime(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The node's flight recorder.
    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Whether shutdown has begun (background threads poll this).
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The metric-table entries of `/stats` (request and connection
    /// counters, plus any the tier keys).
    pub fn stats_blocks(&self) -> Vec<(String, Value)> {
        metrics::stats_blocks(&self.metrics, self)
    }

    /// One sampler reading: when, and every family.
    fn tick(&self) -> Tick {
        (
            Instant::now(),
            self.metrics.iter().map(|m| (m.read)(self)).collect(),
        )
    }

    /// One history sample: every series windowed between two ticks,
    /// plus the process's resident memory.
    fn sample(&self, prev: &Tick, cur: &Tick) -> Vec<(String, f64)> {
        let dt = cur.0.duration_since(prev.0).as_secs_f64();
        let mut values = metrics::series_values(&self.metrics, &prev.1, &cur.1, dt);
        values.push(("rss_bytes".into(), rss_bytes().unwrap_or(0) as f64));
        values
    }

    fn call<'a>(&self, request: &'a Request) -> Call<'a> {
        self.call_as(request, trace::request_trace_id(request))
    }

    /// [`Node::call`] for a request whose id is already known.
    fn call_as<'a>(&self, request: &'a Request, rid: String) -> Call<'a> {
        let (path, query) = split_target(&request.path);
        let routes = SHARED_ROUTES.iter().map(|r| (r, Resolved::Shared));
        let routes = routes.chain(T::ROUTES.iter().map(|r| (r, Resolved::Tier)));
        let mut label = None;
        let mut resolved = Resolved::NotFound;
        let matches = |p: &str| p == path || (p.ends_with('/') && path.starts_with(p));
        for (&(method, _, endpoint), kind) in routes.filter(|((_, p, _), _)| matches(p)) {
            label.get_or_insert(endpoint);
            if method == request.method {
                label = Some(endpoint);
                resolved = kind;
                break;
            }
            resolved = Resolved::WrongMethod(method);
        }
        let label = label.unwrap_or(if path.starts_with("/debug/") {
            "debug"
        } else {
            "other"
        });
        Call {
            request,
            path,
            query,
            rid,
            traced: query_flag(query, "trace"),
            queue_us: 0,
            endpoint: T::ENDPOINTS
                .iter()
                .position(|e| *e == label)
                .unwrap_or(T::ENDPOINTS.len()),
            resolved,
            keep_alive: request.keep_alive && !self.shutting_down(),
        }
    }

    fn count(&self, i: usize) {
        self.requests[i].fetch_add(1, Ordering::Relaxed);
    }

    fn count_error(&self) {
        self.count(T::ENDPOINTS.len());
    }

    /// Routes a request. On the loop thread a tier route may forward it
    /// upstream, or decline (`None`) to take the pool. Every request
    /// reaches the loop thread first, so a matched route counts toward
    /// its endpoint there, once, before its handler runs.
    fn route(&self, call: &Call, on_loop: bool) -> Option<Fast<T::Forward>> {
        if on_loop && matches!(call.resolved, Resolved::Shared | Resolved::Tier) {
            self.count(call.endpoint);
        }
        Some(Fast::Answer(match call.resolved {
            Resolved::Shared => self.shared(call),
            Resolved::Tier if on_loop => return T::fast(self, call),
            Resolved::Tier => T::heavy(self, call),
            Resolved::WrongMethod("GET") => Outcome::error(405, "use GET on this endpoint"),
            Resolved::WrongMethod(_) => {
                Outcome::error(405, "use POST with a JSON body on this endpoint")
            }
            Resolved::NotFound => Outcome::error(404, &format!("no such endpoint `{}`", call.path)),
        }))
    }

    fn shared(&self, call: &Call) -> Outcome {
        let pretty = |v: Value| Outcome::ok(serde::json::to_string_pretty(&v));
        match call.path {
            "/healthz" => {
                let mut fields = vec![
                    ("status".into(), Value::Str("ok".into())),
                    ("service".into(), Value::Str(T::SERVICE.into())),
                    ("uptime_seconds".into(), Value::F64(self.uptime())),
                    ("build".into(), trace::build_value()),
                ];
                self.tier.health(&mut fields);
                Outcome::ok(serde::json::to_string(&Value::Map(fields)))
            }
            "/metrics" => Outcome {
                content_type: metrics::CONTENT_TYPE,
                ..Outcome::ok(self.metrics_text())
            },
            "/metrics/history" => pretty(self.history_value(call.query)),
            "/debug/requests" => pretty(trace::debug_requests_value(
                T::SERVICE,
                &self.recorder,
                query_param(call.query, "sort"),
                query_param(call.query, "endpoint"),
                query_param(call.query, "limit"),
            )),
            path => {
                let id = path.trim_start_matches("/debug/trace/");
                match self.recorder.lookup(id) {
                    Some(rec) => pretty(trace::trace_value(T::SERVICE, &rec)),
                    None => {
                        Outcome::error(404, &format!("no trace recorded for request id `{id}`"))
                    }
                }
            }
        }
    }

    /// The `GET /metrics` exposition: build identity plus the table.
    fn metrics_text(&self) -> String {
        let mut b = MetricsBuilder::new();
        b.family(
            "mcdla_build_info",
            "Build metadata as labels (constant 1).",
            "gauge",
        );
        b.sample(
            "mcdla_build_info",
            &[
                ("version", mcdla_obs::build_version()),
                ("build", mcdla_obs::build_id()),
            ],
            1.0,
        );
        metrics::render(&mut b, &self.metrics, self);
        b.finish()
    }

    /// The `GET /metrics/history` body for a raw query (`series=`,
    /// `last=`).
    pub fn history_value(&self, query: Option<&str>) -> Value {
        let (filter, last) = trace::history_query(query);
        trace::history_value(T::SERVICE, &self.history.dump(filter.as_deref(), last))
    }

    /// Closes a request's trace: observes the endpoint latency and
    /// admits the record into the flight recorder.
    fn finish_trace(&self, scope: TraceScope, call: &Call, status: u16) -> Arc<TraceRecord> {
        let label = T::ENDPOINTS.get(call.endpoint).unwrap_or(&"other");
        let record = scope.finish(call.rid.clone(), label, status);
        self.latency[call.endpoint].observe(record.total_us as f64 / 1e6);
        self.recorder.record(record)
    }

    /// The response tail every buffered answer shares: error counting,
    /// trace finish, the `?trace=1` graft, the wide event (with `extra`
    /// fields), and the write. Returns whether the write succeeded.
    fn respond(
        &self,
        call: &Call,
        scope: TraceScope,
        outcome: Outcome,
        headers: &[(&str, &str)],
        extra: &[(&str, LogValue)],
        out: &mut impl Write,
    ) -> bool {
        if outcome.status >= 400 {
            self.count_error();
        }
        let record = self.finish_trace(scope, call, outcome.status);
        let ok = outcome.status < 400;
        let body = if call.traced && ok && outcome.content_type == "application/json" {
            let mut tv = trace::trace_value(T::SERVICE, &record);
            if let (Value::Map(entries), Some(worker)) = (&mut tv, outcome.upstream) {
                let upstream = self.tier.upstream_trace(worker, &call.rid);
                entries.push(("upstream".into(), upstream));
            }
            trace::graft_json(&outcome.body, "trace", tv)
        } else {
            outcome.body
        };
        let mut extra = extra.to_vec();
        if let Some(worker) = outcome.upstream {
            extra.push(("worker", (worker as u64).into()));
        }
        let cached = outcome.computed_cells.filter(|_| ok).map(|n| n == 0);
        self.wide_event(call, &record, cached, body.len() as u64, &extra);
        let mut headers = headers.to_vec();
        headers.push((REQUEST_ID_HEADER, &call.rid));
        write_response_with(
            out,
            outcome.status,
            outcome.content_type,
            &headers,
            &body,
            call.keep_alive,
        )
        .is_ok()
    }

    /// Emits the request's *wide event*: one flat JSON line carrying the
    /// whole request story — id, endpoint, status, cache disposition
    /// (where the answer came from a store), queue and total micros,
    /// response bytes, plus `extra` fields — at the level
    /// [`trace::wide_event_level`] picks.
    fn wide_event(
        &self,
        call: &Call,
        rec: &TraceRecord,
        cached: Option<bool>,
        bytes: u64,
        extra: &[(&str, LogValue)],
    ) {
        let level = trace::wide_event_level(self.slow_ms, rec.status, rec.total_us);
        if !mcdla_obs::log::log_enabled(level, T::TARGET) {
            return;
        }
        let cache = match cached {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "none",
        };
        let mut fields: Vec<(&str, LogValue)> = vec![
            ("id", rec.id.as_str().into()),
            ("service", T::SERVICE.into()),
            ("endpoint", rec.endpoint.as_str().into()),
            ("status", rec.status.into()),
            ("cache", cache.into()),
            ("queue_us", call.queue_us.into()),
            ("total_us", rec.total_us.into()),
            ("bytes", bytes.into()),
        ];
        fields.extend_from_slice(extra);
        mcdla_obs::log::log(level, T::TARGET, "request", &fields);
    }

    /// The 429 + `Retry-After` answer for a request the admission queue
    /// turned away, recorded like any other request.
    fn shed_answer(&self, request: &Request) -> FastAnswer {
        let call = self.call(request);
        let scope = TraceScope::begin();
        let outcome = Outcome::error(429, "request queue is full; retry shortly");
        let mut bytes = Vec::new();
        self.respond(
            &call,
            scope,
            outcome,
            &[("retry-after", "1")],
            &[],
            &mut bytes,
        );
        FastAnswer {
            bytes,
            keep_alive: call.keep_alive,
        }
    }

    /// `POST /grid?stream=1` on a pool thread: parse and validate, let
    /// the tier stream, then frame the end. Returns whether the
    /// connection stays open.
    fn stream(&self, call: &Call, scope: TraceScope, writer: &mut TcpStream) -> bool {
        let mut out = CellStream {
            writer,
            rid: &call.rid,
            keep_alive: call.keep_alive,
            bytes: 0,
            computed_cells: None,
        };
        let ended = guarded(
            || match grid_scenarios(&call.request.body, crate::MAX_STREAM_CELLS) {
                Ok(scenarios) => T::stream(self, scenarios, &mut out),
                Err(outcome) => StreamOutcome::Rejected(outcome),
            },
        );
        let clean = match ended {
            Ok(StreamOutcome::Streamed { clean }) => clean && finish_chunked(out.writer).is_ok(),
            Ok(StreamOutcome::Rejected(outcome)) => {
                let extra = [("stream", true.into())];
                return self.respond(call, scope, outcome, &[], &extra, out.writer)
                    && call.keep_alive;
            }
            // A panic after the 200 head cannot be answered; closing
            // without the terminal chunk is how the client learns the
            // stream died (the pool thread itself survives).
            Err(_) => {
                self.count_error();
                let record = self.finish_trace(scope, call, 500);
                let extra = [("stream", true.into()), ("panic", true.into())];
                self.wide_event(call, &record, None, 0, &extra);
                return false;
            }
        };
        let record = self.finish_trace(scope, call, 200);
        let extra = [("stream", true.into()), ("clean", clean.into())];
        let cached = out.computed_cells.map(|n| n == 0);
        self.wide_event(call, &record, cached, out.bytes, &extra);
        if let Some(cells @ 1..) = out.computed_cells {
            self.tier.computed(cells);
        }
        let _ = out.writer.flush();
        clean && call.keep_alive
    }
}

impl<T: Tier> Service for Node<T> {
    type Forward = Forwarding<T::Forward>;

    fn fast(&self, request: Request) -> Inline<Self::Forward> {
        let call = self.call(&request);
        let mut scope = TraceScope::begin();
        let fast = match guarded(|| self.route(&call, true)) {
            Ok(Some(fast)) => fast,
            Ok(None) => return Inline::Pool(request),
            Err(outcome) => Fast::Answer(outcome),
        };
        match fast {
            Fast::Answer(outcome) => {
                let mut bytes = Vec::new();
                self.respond(&call, scope, outcome, &[], &[], &mut bytes);
                Inline::Answer(FastAnswer {
                    bytes,
                    keep_alive: call.keep_alive,
                })
            }
            Fast::Forward { upstream, state } => {
                // The loop serves other connections while this request
                // waits upstream: its trace must not hold the thread.
                scope.detach();
                let state = Forwarding {
                    rid: call.rid,
                    scope: Some(scope),
                    tier: state,
                };
                Inline::Forward(Forward {
                    request,
                    upstream,
                    state,
                })
            }
        }
    }

    fn forward(&self, request: &Request, fwd: &mut Self::Forward, reply: Option<Reply>) -> Next {
        let scope = fwd
            .scope
            .as_mut()
            .expect("a forward's trace is open until it answers");
        let tier = &mut fwd.tier;
        let step = guarded(|| T::forward(self, tier, reply, scope)).unwrap_or_else(Step::Answer);
        let outcome = match step {
            Step::Attempt(upstream) => return Next::Attempt(upstream),
            Step::Answer(outcome) => outcome,
        };
        let call = self.call_as(request, std::mem::take(&mut fwd.rid));
        let scope = fwd.scope.take().expect("open until now");
        let mut bytes = Vec::new();
        self.respond(&call, scope, outcome, &[], &[], &mut bytes);
        Next::Answer(FastAnswer {
            bytes,
            keep_alive: call.keep_alive,
        })
    }

    fn handle(&self, request: &Request, writer: &mut TcpStream, queued: Duration) -> bool {
        let call = Call {
            queue_us: queued.as_micros().min(u128::from(u64::MAX)) as u64,
            ..self.call(request)
        };
        let scope = TraceScope::begin();
        if request.method == "POST" && call.path == "/grid" && query_flag(call.query, "stream") {
            return self.stream(&call, scope, writer);
        }
        let outcome = match guarded(|| self.route(&call, false)) {
            Ok(Some(Fast::Answer(outcome))) | Err(outcome) => outcome,
            Ok(_) => unreachable!("pool routes always answer"),
        };
        let computed = outcome.computed_cells;
        let wrote = self.respond(&call, scope, outcome, &[], &[], writer);
        if let Some(cells @ 1..) = computed {
            self.tier.computed(cells);
        }
        wrote && call.keep_alive
    }

    fn shed(&self, request: &Request) -> FastAnswer {
        self.shed_answer(request)
    }

    fn wire_error(&self, error: &WireError) -> Vec<u8> {
        self.count_error();
        trace::wire_error_answer(T::TARGET, T::SERVICE, error)
    }
}

/// The families every node exports, named with the tier's prefix.
fn shell_metrics<T: Tier>() -> Vec<Metric<Node<T>>> {
    let p = T::PREFIX;
    vec![
        Metric::gauge(
            format!("{p}up"),
            "Whether this node is serving.",
            |_: &Node<T>| Reading::value(1.0),
        ),
        Metric::gauge(
            format!("{p}uptime_seconds"),
            "Seconds since this node started.",
            |n: &Node<T>| Reading::value(n.uptime()),
        )
        .series(Series::Each("uptime_seconds")),
        Metric::counter(
            format!("{p}requests_total"),
            "Requests handled, by endpoint (`errors` counts 4xx/5xx answers).",
            |n: &Node<T>| {
                let labels = T::ENDPOINTS.iter().copied().chain(["errors"]);
                Reading::labeled(
                    labels
                        .zip(&n.requests)
                        .map(|(l, c)| (l, c.load(Ordering::Relaxed) as f64)),
                )
            },
        )
        .labeled("endpoint")
        .stats("requests")
        .series(Series::Only("errors", "err_per_s")),
        Metric::gauge(
            format!("{p}open_connections"),
            "Connections attached to the event loop right now.",
            |n: &Node<T>| Reading::value(n.loop_stats.open() as f64),
        )
        .stats("connections.open")
        .series(Series::Each("conns.open")),
        Metric::counter(
            format!("{p}accepted_connections_total"),
            "Connections accepted since start.",
            |n: &Node<T>| Reading::value(n.loop_stats.accepted() as f64),
        )
        .stats("connections.accepted"),
        Metric::counter(
            format!("{p}requests_shed_total"),
            "Requests answered 429 because the admission queue was full.",
            |n: &Node<T>| Reading::value(n.loop_stats.shed() as f64),
        )
        .stats("connections.shed")
        .series(Series::Each("conns.shed_per_s")),
        Metric::counter(
            format!("{p}request_timeouts_total"),
            "Requests answered 408 after stalling mid-head or mid-body.",
            |n: &Node<T>| Reading::value(n.loop_stats.request_timeouts() as f64),
        )
        .stats("connections.request_timeouts")
        .series(Series::Each("conns.timeouts_per_s")),
        Metric::counter(
            format!("{p}idle_connections_closed_total"),
            "Idle keep-alive connections closed silently.",
            |n: &Node<T>| Reading::value(n.loop_stats.idle_closed() as f64),
        )
        .stats("connections.idle_closed"),
        Metric::histogram(
            format!("{p}request_seconds"),
            "Request latency by endpoint, seconds.",
            "endpoint",
            |n: &Node<T>| {
                let labels = T::ENDPOINTS.iter().copied().chain(["other"]);
                Reading::Histograms(
                    labels
                        .zip(&n.latency)
                        .map(|(l, h)| (l.to_owned(), h.snapshot()))
                        .collect(),
                )
            },
        )
        .series(Series::Latency("req_per_s")),
    ]
}

impl<T: Tier> BoundNode<T> {
    /// The resolved listen address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the event loop, the worker pool, and the sampler.
    pub fn spawn(self) -> std::io::Result<NodeHandle<T>> {
        let addr = self.listener.local_addr()?;
        let loops = spawn_event_loop(
            self.listener,
            self.node.clone(),
            &self.loop_config,
            self.node.loop_stats.clone(),
        )?;
        let sampler = self.sample_ms.map(|interval_ms| {
            let node = self.node.clone();
            let mut previous = node.tick();
            Sampler::spawn(interval_ms, move || {
                let current = node.tick();
                let sample = node.sample(&previous, &current);
                // Values are picked by name, so a sample can never
                // disagree with the rings in arity.
                let values: Vec<f64> = (node.history.names().iter())
                    .map(|name| sample.iter().find(|(n, _)| n == name).map_or(0.0, |s| s.1))
                    .collect();
                node.history.record(unix_ms(), &values);
                previous = current;
            })
        });
        Ok(NodeHandle {
            addr,
            node: self.node,
            loops,
            sampler,
        })
    }
}

impl<T: Tier> NodeHandle<T> {
    /// The resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the sampler, the event loop, and the worker pool, joining
    /// every thread. In-flight responses finish first, on the pool and on
    /// the loop alike (a loop forward's attempt may run to its deadline);
    /// idle keep-alive connections close immediately.
    pub fn shutdown(self) {
        self.node.shutdown.store(true, Ordering::SeqCst);
        if let Some(sampler) = self.sampler {
            sampler.stop();
        }
        self.loops.shutdown();
    }

    /// Parks the caller until the loops exit (foreground servers).
    pub fn join(self) {
        self.loops.join();
    }
}
