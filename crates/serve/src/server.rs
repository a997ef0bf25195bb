//! The `mcdla-serve` worker tier: the result store behind the node
//! shell ([`crate::node`]). Cache hits answer on the event-loop
//! thread; simulation and streaming run on the bounded worker pool.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mcdla_accel::DeviceGeneration;
use mcdla_core::{
    FabricTopology, Overrides, Provenance, ResultStore, Runner, Scenario, ScenarioGrid, StageCache,
    SystemDesign,
};
use mcdla_dnn::Benchmark;
use mcdla_obs::Span;
use mcdla_parallel::ParallelStrategy;
use serde::{Deserialize, Serialize, Value};

use crate::accept::{LoopConfig, QUEUE_DEPTH};
use crate::metrics::{Metric, Reading, Series};
use crate::node::{
    self, BoundNode, Call, CellStream, Node, NodeHandle, Outcome, Route, StreamOutcome, Tier,
};

/// Largest grid one buffered `POST /grid` request may expand to.
pub const MAX_GRID_CELLS: usize = 10_000;

/// Largest grid one streamed `POST /grid?stream=1` request may expand
/// to. Streamed responses never buffer the grid — each cell leaves the
/// process as soon as a worker finishes it — so the bound is an order of
/// magnitude looser than [`MAX_GRID_CELLS`] and exists only to stop one
/// request monopolizing the simulation pool forever.
pub(crate) const MAX_STREAM_CELLS: usize = 100_000;

/// Idle keep-alive connections are dropped after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Serialized `/simulate` hit responses kept around (bodies are
/// deterministic per scenario, so re-serializing a resident report is
/// pure waste on the hot path).
const RESPONSE_CACHE_CAP: usize = 1024;

/// Everything `mcdla serve` configures.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size: how many heavy (simulating/streaming)
    /// requests run concurrently. Connection I/O is not bounded by
    /// this — the event loop multiplexes every connection.
    pub threads: usize,
    /// Result-store capacity (`None` = unbounded).
    pub cache_cap: Option<usize>,
    /// Snapshot path: loaded (if present) at startup, rewritten after
    /// every request that simulated at least one new cell.
    pub snapshot: Option<PathBuf>,
    /// Admission-queue bound: heavy requests waiting beyond the worker
    /// pool; the next one is answered 429 + `Retry-After`.
    pub queue_depth: usize,
    /// Idle keep-alive connections close silently after this long.
    pub idle_timeout: Duration,
    /// Connections stalled mid-request answer 408 after this long.
    pub request_timeout: Duration,
    /// Telemetry-sampler cadence override: `None` reads
    /// `MCDLA_SAMPLE_MS` (default 1 s), `Some(0)` disables sampling,
    /// `Some(n)` ticks every `n` ms. The override exists so benches can
    /// set a cadence in-process without racing on env vars.
    pub sample_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_owned(),
            threads: 4,
            cache_cap: None,
            snapshot: None,
            queue_depth: QUEUE_DEPTH,
            idle_timeout: READ_TIMEOUT,
            request_timeout: READ_TIMEOUT,
            sample_ms: None,
        }
    }
}

/// The worker tier's state: the store and what serves from it.
#[derive(Debug)]
struct Worker {
    store: Arc<ResultStore>,
    runner: Runner,
    snapshot: Option<PathBuf>,
    /// Serializes snapshot writes from concurrent handlers.
    snapshot_write: Mutex<()>,
    /// Serialized response bodies for `/simulate` cache hits, keyed by
    /// scenario. Only consulted *after* `store.get` confirms residency
    /// (so hit accounting is untouched), and reports are deterministic
    /// per scenario, so a cached body is byte-identical to a fresh one.
    sim_responses: StageCache<Scenario, Arc<str>>,
}

impl Worker {
    /// Rewrites the snapshot file (atomic temp+rename in the store), so
    /// a `kill -9` at any moment leaves a loadable file behind.
    fn persist_snapshot(&self) {
        let Some(path) = &self.snapshot else { return };
        let _guard = self.snapshot_write.lock().expect("snapshot write lock");
        if let Err(e) = self.store.save(path) {
            mcdla_obs::log::error(
                "serve",
                "snapshot_write_failed",
                &[
                    ("path", path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }
}

/// A bound-but-not-yet-serving server. [`Server::bind`] resolves the
/// address, builds (and optionally warm-loads) the store; [`Server::run`]
/// or [`Server::spawn`] starts the event loop and worker pool.
#[derive(Debug)]
pub struct Server {
    bound: BoundNode<Worker>,
}

/// Handle to a running server: its resolved address, a shared view of
/// the store, and a clean shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    running: NodeHandle<Worker>,
}

impl Server {
    /// Binds the listener and prepares the store (loading the snapshot
    /// when the configured file exists).
    pub fn bind(config: &ServeConfig) -> Result<Server, String> {
        let store = Arc::new(match config.cache_cap {
            Some(0) => return Err("cache capacity must be >= 1 (got `0`)".into()),
            Some(cap) => ResultStore::bounded(cap),
            None => ResultStore::unbounded(),
        });
        if let Some(path) = config.snapshot.as_deref().filter(|p| p.exists()) {
            let loaded = store.load(path)?;
            let resident = store.len();
            mcdla_obs::log::info(
                "serve",
                "snapshot_warmed",
                &[
                    ("cells", loaded.into()),
                    ("path", path.display().to_string().into()),
                ],
            );
            if resident < loaded {
                // The file outgrew this store's capacity (e.g. it was
                // written unbounded and we restarted with --cache-cap):
                // compact it now so evicted cells are dropped once
                // instead of being re-parsed on every restart.
                match store.save(path) {
                    Ok(()) => mcdla_obs::log::info(
                        "serve",
                        "snapshot_compacted",
                        &[
                            ("cells", resident.into()),
                            ("dropped", (loaded - resident).into()),
                        ],
                    ),
                    Err(e) => mcdla_obs::log::error(
                        "serve",
                        "snapshot_compact_failed",
                        &[
                            ("path", path.display().to_string().into()),
                            ("error", e.to_string().into()),
                        ],
                    ),
                }
            }
        }
        // Simulation threads follow the batch runner's default
        // (MCDLA_THREADS or machine parallelism) — the event loop's
        // worker pool is a separate resource.
        let sim_threads = Runner::new().threads();
        let worker = Worker {
            runner: Runner::with_store(sim_threads, store.clone()),
            store,
            snapshot: config.snapshot.clone(),
            snapshot_write: Mutex::new(()),
            sim_responses: StageCache::bounded(RESPONSE_CACHE_CAP),
        };
        let loop_config = LoopConfig {
            workers: config.threads,
            queue_depth: config.queue_depth,
            idle_timeout: config.idle_timeout,
            request_timeout: config.request_timeout,
        };
        let bound = Node::bind(&config.addr, worker, loop_config, config.sample_ms)?;
        Ok(Server { bound })
    }

    /// The resolved listen address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.bound.local_addr()
    }

    /// Starts the event loop and worker pool in background threads and
    /// returns a handle; the caller keeps running (tests, `mcdla query`
    /// probes, embedded servers).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            running: self.bound.spawn()?,
        })
    }

    /// Runs the server on background threads and parks the calling
    /// thread until they exit — the `mcdla serve` entry point (it runs
    /// until the process is killed).
    pub fn run(self) -> std::io::Result<()> {
        self.spawn()?.running.join();
        Ok(())
    }
}

impl ServerHandle {
    /// The resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.running.addr()
    }

    /// The running server's store.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.running.node.tier.store
    }

    /// Stops the event loop and worker pool, flushes a final snapshot,
    /// and joins every thread. In-flight responses finish first; idle
    /// keep-alive connections close immediately (the loop owns them —
    /// no thread is parked in a blocking read anywhere).
    pub fn shutdown(self) {
        let node = self.running.node.clone();
        self.running.shutdown();
        node.tier.persist_snapshot();
    }
}

/// Store counters as one unlabeled sample.
fn store_value(n: &Node<Worker>, read: fn(&ResultStore) -> u64) -> Reading {
    Reading::value(read(&n.tier.store) as f64)
}

/// Per-stage memo-table counters, labeled by stage.
fn stage_values(read: fn(&mcdla_core::StageStats) -> u64) -> Reading {
    Reading::labeled(
        mcdla_core::stages::stage_stats()
            .iter()
            .map(|s| (&s.stage, read(s) as f64)),
    )
}

impl Tier for Worker {
    const SERVICE: &'static str = "mcdla-serve";
    const TARGET: &'static str = "serve";
    const PREFIX: &'static str = "mcdla_";
    const ENDPOINTS: &'static [&'static str] =
        &["healthz", "stats", "metrics", "simulate", "grid", "debug"];
    const ROUTES: &'static [Route] = &[
        ("GET", "/stats", "stats"),
        ("POST", "/simulate", "simulate"),
        ("POST", "/grid", "grid"),
    ];

    fn metrics() -> Vec<Metric<Node<Self>>> {
        type M = Metric<Node<Worker>>;
        vec![
            M::counter(
                "mcdla_store_hits_total",
                "Requests answered from the result cache (including coalesced waiters).",
                |n| store_value(n, ResultStore::hits),
            )
            .series(Series::Each("store.hits_per_s"))
            .series(Series::HitRate(
                "store.hit_rate",
                "mcdla_store_misses_total",
            )),
            M::counter(
                "mcdla_store_misses_total",
                "Cells actually simulated.",
                |n| store_value(n, ResultStore::misses),
            )
            .series(Series::Each("store.misses_per_s")),
            M::counter(
                "mcdla_store_evictions_total",
                "Entries evicted to stay within the capacity bound.",
                |n| store_value(n, ResultStore::evictions),
            )
            .series(Series::Each("store.evictions_per_s")),
            M::counter(
                "mcdla_store_dedup_waits_total",
                "Requests that coalesced onto another caller's in-flight simulation.",
                |n| store_value(n, ResultStore::dedup_waits),
            ),
            M::gauge(
                "mcdla_store_in_flight",
                "Simulations executing right now.",
                |n| Reading::value(n.tier.store.stats().in_flight as f64),
            ),
            M::gauge(
                "mcdla_store_entries",
                "Distinct cells currently resident.",
                |n| Reading::value(n.tier.store.len() as f64),
            )
            .series(Series::Each("store.entries")),
            M::gauge(
                "mcdla_store_capacity",
                "Configured result-store capacity bound.",
                |n| Reading::labeled(n.tier.store.capacity().map(|c| ("", c as f64))),
            ),
            M::counter(
                "mcdla_stage_hits_total",
                "Staged-engine memo-table lookups answered from the table, by stage.",
                |_| stage_values(|s| s.hits),
            )
            .labeled("stage")
            .series(Series::HitRate(
                "stage.{}.hit_rate",
                "mcdla_stage_misses_total",
            )),
            M::counter(
                "mcdla_stage_misses_total",
                "Staged-engine artifacts actually built, by stage.",
                |_| stage_values(|s| s.misses),
            )
            .labeled("stage"),
            M::counter(
                "mcdla_stage_evictions_total",
                "Staged-engine memo entries evicted to stay within each table's bound.",
                |_| stage_values(|s| s.evictions),
            )
            .labeled("stage"),
            M::gauge(
                "mcdla_stage_entries",
                "Staged-engine artifacts currently resident, by stage.",
                |_| stage_values(|s| s.entries),
            )
            .labeled("stage"),
            M::histogram(
                "mcdla_stage_seconds",
                "Staged-engine section latency (lookup plus compute on miss), by stage, seconds.",
                "stage",
                |_| {
                    let stages = mcdla_core::stages::stage_latency().into_iter();
                    Reading::Histograms(stages.map(|(s, h)| (s.to_owned(), h)).collect())
                },
            ),
        ]
    }

    /// Answers inline when nothing about the request needs the pool:
    /// `/stats`, malformed `/simulate` bodies, and resident cache hits.
    /// A `/simulate` miss and every `/grid` take the pool.
    fn fast(node: &Node<Self>, call: &Call) -> Option<Outcome> {
        match call.path {
            "/stats" => Some(Outcome::ok(serde::json::to_string_pretty(&stats_value(
                node,
            )))),
            "/simulate" => {
                let scenario = match node::scenario(&call.request.body) {
                    Ok(s) => s,
                    Err(outcome) => return Some(outcome),
                };
                node.tier.cached_simulate(scenario, call.traced)
            }
            _ => None,
        }
    }

    fn heavy(node: &Node<Self>, call: &Call) -> Outcome {
        let worker = &node.tier;
        if call.path == "/simulate" {
            return match node::scenario(&call.request.body) {
                Ok(scenario) => worker.simulate(scenario),
                Err(outcome) => outcome,
            };
        }
        match node::grid_scenarios(&call.request.body, MAX_GRID_CELLS) {
            Ok(scenarios) => worker.grid(&scenarios),
            Err(outcome) => outcome,
        }
    }

    /// Streams a grid as chunked NDJSON: one [`cell_value`] object per
    /// line, one line per chunk, written **as workers finish**
    /// (completion order). The cells already finished when a write goes
    /// out ride in that write. Cells are memoized through the
    /// same shared store as every other endpoint, so streamed payloads
    /// are byte-identical to the buffered `/grid` cells for the same
    /// scenarios.
    fn stream(node: &Node<Self>, scenarios: Vec<Scenario>, out: &mut CellStream) -> StreamOutcome {
        let runner = &node.tier.runner;
        out.computed_cells = Some(0);
        if out.open().is_err() {
            return StreamOutcome::Streamed { clean: false };
        }
        let mut computed = 0;
        let buffer = 2 * runner.threads();
        let mut cells = runner.run_grid_streaming(scenarios, buffer);
        while let Some(first) = cells.next() {
            // At most a channel's worth of ready cells: memory stays flat.
            let more = std::iter::from_fn(|| cells.try_next()).take(buffer);
            let ready = std::iter::once(first).chain(more);
            let lines: Vec<String> = ready
                .map(|run| {
                    computed += usize::from(!run.cached);
                    let cell = cell_value(&run.scenario, &run.report, run.cached);
                    let mut line = serde::json::to_string(&cell);
                    line.push('\n');
                    line
                })
                .collect();
            out.computed_cells = Some(computed);
            if out.lines(&lines).is_err() {
                // The client went away mid-stream: dropping the stream
                // cancels the remaining cells; close without the terminator.
                return StreamOutcome::Streamed { clean: false };
            }
        }
        StreamOutcome::Streamed { clean: true }
    }

    fn computed(&self, _cells: usize) {
        self.persist_snapshot();
    }
}

/// The worker's `GET /stats` body.
fn stats_value(node: &Node<Worker>) -> Value {
    let worker = &node.tier;
    let mut fields = vec![
        ("service".into(), Value::Str(Worker::SERVICE.into())),
        ("uptime_seconds".into(), Value::F64(node.uptime())),
        ("build".into(), crate::trace::build_value()),
        (
            "simulation_threads".into(),
            Value::U64(worker.runner.threads() as u64),
        ),
        ("store".into(), worker.store.stats().to_value()),
    ];
    fields.extend(node.stats_blocks());
    fields.push((
        "recorder".into(),
        Value::Map(vec![
            (
                "capacity".into(),
                Value::U64(node.recorder().capacity() as u64),
            ),
            ("recorded".into(), Value::U64(node.recorder().len() as u64)),
        ]),
    ));
    Value::Map(fields)
}

/// One result cell as the wire represents it (shared by `/simulate`,
/// `/grid`, and the batch `mcdla simulate` subcommand, which is what
/// makes served and batch output diffable).
pub fn cell_value(
    scenario: &Scenario,
    report: &mcdla_core::IterationReport,
    cached: bool,
) -> Value {
    Value::Map(vec![
        ("scenario".into(), scenario.to_value()),
        (
            "digest".into(),
            Value::Str(format!("{:016x}", scenario.digest())),
        ),
        ("cached".into(), Value::Bool(cached)),
        ("report".into(), report.to_value()),
    ])
}

impl Worker {
    /// A resident cell's `/simulate` answer, or `None` on a miss. The
    /// span matches [`Worker::simulate`]'s so traced hits and misses
    /// reconcile against the same span name.
    fn cached_simulate(&self, scenario: Scenario, traced: bool) -> Option<Outcome> {
        let report = {
            let _s = Span::enter("store.get_or_compute");
            self.store.get(&scenario)
        }?;
        let encode = || serde::json::to_string_pretty(&cell_value(&scenario, &report, true));
        // Traced responses graft a per-request span tree: never from
        // the response cache.
        let body = if traced {
            encode()
        } else if let Some(cached) = self.sim_responses.get(&scenario) {
            cached.to_string()
        } else {
            let body = encode();
            self.sim_responses
                .insert(scenario, Arc::from(body.as_str()));
            body
        };
        Some(Outcome {
            computed_cells: Some(0),
            ..Outcome::ok(body)
        })
    }

    fn simulate(&self, scenario: Scenario) -> Outcome {
        let fetched = {
            let _s = Span::enter("store.get_or_compute");
            self.store.get_or_compute(scenario, || scenario.simulate())
        };
        let computed = fetched.provenance == Provenance::Computed;
        Outcome {
            computed_cells: Some(usize::from(computed)),
            ..Outcome::ok(serde::json::to_string_pretty(&cell_value(
                &scenario,
                &fetched.report,
                !computed,
            )))
        }
    }

    fn grid(&self, scenarios: &[Scenario]) -> Outcome {
        let runs = self.runner.run_grid_timed(scenarios);
        let cells: Vec<Value> = runs
            .iter()
            .map(|t| cell_value(&t.scenario, &t.report, t.cached))
            .collect();
        Outcome {
            computed_cells: Some(runs.iter().filter(|t| !t.cached).count()),
            ..Outcome::ok(serde::json::to_string_pretty(&Value::Map(vec![
                ("count".into(), Value::U64(runs.len() as u64)),
                ("cells".into(), Value::Seq(cells)),
            ])))
        }
    }
}

/// The `POST /grid` request: cartesian axes, each optional, defaulting
/// to the paper's §V matrix axis (all designs, all benchmarks, both
/// strategies, paper-default knobs).
#[derive(Debug, Default, Deserialize, Serialize)]
pub(crate) struct GridRequest {
    /// System-design axis.
    pub designs: Option<Vec<SystemDesign>>,
    /// Benchmark axis.
    pub benchmarks: Option<Vec<Benchmark>>,
    /// Parallelization-strategy axis.
    pub strategies: Option<Vec<ParallelStrategy>>,
    /// Device-count axis.
    pub devices: Option<Vec<usize>>,
    /// Global-batch axis.
    pub batches: Option<Vec<u64>>,
    /// Device-generation axis.
    pub generations: Option<Vec<DeviceGeneration>>,
    /// Overrides axis.
    pub overrides: Option<Vec<Overrides>>,
    /// Fabric-topology axis; `null` entries select the analytical
    /// collective model, names select a routed flow-level fabric
    /// (`[null, "Ring"]` mixes both in one grid).
    pub topologies: Option<Vec<Option<FabricTopology>>>,
    /// An **explicit** cell list instead of cartesian axes — the form the
    /// `mcdla-cluster` gateway scatters with, since a consistent-hash
    /// partition of a grid is not itself a cartesian product. Mutually
    /// exclusive with every axis field; cells run in list order.
    pub cells: Option<Vec<Scenario>>,
}

impl GridRequest {
    /// Expands the request into concrete scenarios, bounded by
    /// [`MAX_GRID_CELLS`] (the buffered `POST /grid` limit).
    #[cfg(test)]
    pub(crate) fn scenarios(&self) -> Result<Vec<Scenario>, String> {
        self.scenarios_bounded(MAX_GRID_CELLS)
    }

    /// Expands the request into concrete scenarios, rejecting grids over
    /// `max_cells` (streamed requests use [`MAX_STREAM_CELLS`]).
    pub(crate) fn scenarios_bounded(&self, max_cells: usize) -> Result<Vec<Scenario>, String> {
        if let Some(cells) = &self.cells {
            if self.designs.is_some()
                || self.benchmarks.is_some()
                || self.strategies.is_some()
                || self.devices.is_some()
                || self.batches.is_some()
                || self.generations.is_some()
                || self.overrides.is_some()
                || self.topologies.is_some()
            {
                return Err("`cells` cannot be combined with axis fields".into());
            }
            if cells.is_empty() {
                return Err("`cells` must name at least one scenario".into());
            }
            if cells.len() > max_cells {
                return Err(format!(
                    "grid names {} cells; the limit is {max_cells}",
                    cells.len()
                ));
            }
            return Ok(cells.clone());
        }
        let mut grid = ScenarioGrid::paper_default();
        if let Some(designs) = &self.designs {
            grid = grid.designs(designs);
        }
        if let Some(benchmarks) = &self.benchmarks {
            grid = grid.benchmarks(benchmarks);
        }
        if let Some(strategies) = &self.strategies {
            grid = grid.strategies(strategies);
        }
        if let Some(devices) = &self.devices {
            if devices.contains(&0) {
                return Err("device counts must be >= 1".into());
            }
            grid = grid.device_counts(devices);
        }
        if let Some(batches) = &self.batches {
            if batches.contains(&0) {
                return Err("batch sizes must be >= 1".into());
            }
            grid = grid.batches(batches);
        }
        if let Some(generations) = &self.generations {
            grid = grid.generations(generations);
        }
        if let Some(overrides) = &self.overrides {
            grid = grid.overrides(overrides);
        }
        if let Some(topologies) = &self.topologies {
            grid = grid.topology_axis(topologies);
        }
        if grid.is_empty() {
            return Err("grid expands to zero cells (an axis is empty)".into());
        }
        if grid.len() > max_cells {
            return Err(format!(
                "grid expands to {} cells; the limit is {max_cells}",
                grid.len()
            ));
        }
        Ok(grid.scenarios())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_request_defaults_to_the_paper_matrix() {
        let req: GridRequest = serde::json::from_str("{}").unwrap();
        assert_eq!(req.scenarios().unwrap().len(), 6 * 8 * 2);
    }

    #[test]
    fn grid_request_restricts_axes() {
        let req: GridRequest = serde::json::from_str(
            r#"{"designs": ["DcDla", "McDlaBwAware"],
                "benchmarks": ["AlexNet"],
                "strategies": ["DataParallel"],
                "batches": [128, 512]}"#,
        )
        .unwrap();
        assert_eq!(req.scenarios().unwrap().len(), 2 * 2);
    }

    #[test]
    fn grid_request_opens_the_topology_axis() {
        // `null` keeps the analytical model; names (wire or label, any
        // case) select routed fabrics — so one grid can hold both.
        let req: GridRequest = serde::json::from_str(
            r#"{"benchmarks": ["AlexNet"],
                "designs": ["DcDla"],
                "strategies": ["DataParallel"],
                "topologies": [null, "Ring", "pooled-switch"]}"#,
        )
        .unwrap();
        let cells = req.scenarios().unwrap();
        assert_eq!(cells.len(), 3);
        let topologies: Vec<_> = cells.iter().map(|s| s.topology).collect();
        assert_eq!(
            topologies,
            vec![
                None,
                Some(FabricTopology::Ring),
                Some(FabricTopology::PooledSwitch)
            ]
        );
        // An unknown fabric answers with the accepted list.
        let err = serde::json::from_str::<GridRequest>(r#"{"topologies": ["torus"]}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("pooled-switch"), "{err}");
    }

    #[test]
    fn grid_request_rejects_hostile_axes() {
        let zero: GridRequest = serde::json::from_str(r#"{"batches": [0]}"#).unwrap();
        assert!(zero.scenarios().is_err());
        let empty: GridRequest = serde::json::from_str(r#"{"designs": []}"#).unwrap();
        assert!(empty.scenarios().unwrap_err().contains("zero cells"));
        let huge: GridRequest = serde::json::from_str(
            r#"{"batches": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,
                17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,
                41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,
                65,66,67,68,69,70,71,72,73,74,75,76,77,78,79,80,81,82,83,84,85,86,87,88,
                89,90,91,92,93,94,95,96,97,98,99,100,101,102,103,104,105]}"#,
        )
        .unwrap();
        assert!(huge.scenarios().unwrap_err().contains("limit"));
    }

    #[test]
    fn zero_threads_and_zero_capacity_are_clear_errors() {
        let err = Server::bind(&ServeConfig {
            threads: 0,
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("thread count must be >= 1"), "{err}");
        let err = Server::bind(&ServeConfig {
            cache_cap: Some(0),
            ..ServeConfig::default()
        })
        .unwrap_err();
        assert!(err.contains("capacity must be >= 1"), "{err}");
    }
}
