//! Layer probes for traced runs: after the workload's main phase the
//! benchmark calls each layer's public functions itself, on seeded
//! inputs, inside spans, and derives the per-layer timings from those
//! spans. Counts and ratios come from the workload's own traffic
//! instead (see the workload modules).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdla_cluster::{spawn_local_fleet, FleetConfig, LocalFleet};
use mcdla_core::{stages, FabricTopology, IterationReport, ResultStore, Scenario};
use mcdla_interconnect::{CollectiveKind, CollectiveModel, FabricSpec, RingShape, RoutedFabric};
use mcdla_obs::{FlightRecorder, Histogram, History, Span, TraceScope};
use mcdla_serve::client::{self, Connection};
use mcdla_serve::ServerHandle;
use mcdla_sim::Bytes;

use crate::gen::{analytical_cell, Rng};
use crate::report::{Outcome, Tally};
use crate::stats::{median, quantile, ratio};
use crate::trace::{Recorder, Tracer};

/// Sum of every stage table's misses so far.
pub fn stage_misses() -> u64 {
    stages::stage_stats().iter().map(|s| s.misses).sum()
}

/// `stages::simulate` on `cells`, each call a span named `name`; returns
/// per-call microseconds split by whether any stage missed.
fn simulate_split(
    rec: &mut Recorder,
    name: &'static str,
    cells: &[Scenario],
) -> (Vec<f64>, Vec<f64>) {
    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    for (i, cell) in cells.iter().enumerate() {
        let before = stage_misses();
        let t = Instant::now();
        rec.span(name, i as u64, || black_box(stages::simulate(cell)));
        let us = t.elapsed().as_secs_f64() * 1e6;
        if stage_misses() > before {
            cold.push(us);
        } else {
            warm.push(us);
        }
    }
    (warm, cold)
}

/// Engine probe: `natural` cells straight from the workload's generator
/// (warm or cold as the workload would meet them), then cells forced
/// cold with device counts no workload generates, then those again,
/// now warm. Returns the natural cells' p50 in microseconds.
pub fn engine(rec: &mut Recorder, out: &mut Outcome, seed: u64, natural: &[Scenario]) -> f64 {
    let (w, c) = simulate_split(rec, "core.engine.simulate", natural);
    let natural_p50 = median(&[w, c].concat());
    let mut rng = Rng::derive(seed, "probe.engine");
    let forced: Vec<Scenario> = (0..48)
        .map(|i| {
            let mut cell =
                analytical_cell(&mut rng, 64).with_devices(9 + 2 * (i % 24) + 2 * (i / 24));
            if cell.devices.is_some_and(|d| d.is_power_of_two()) {
                cell = cell.with_devices(cell.devices.unwrap() + 1);
            }
            let b = cell.batch.unwrap_or(mcdla_core::PAPER_DEFAULT_BATCH);
            cell.with_batch(b.max(64))
        })
        .collect();
    let (mut warm, cold) = simulate_split(rec, "core.engine.simulate_cold", &forced);
    let (again, _) = simulate_split(rec, "core.engine.simulate_warm", &forced);
    warm.extend(again);
    out.set(
        "core.engine.simulate_warm_us_p50",
        median(&warm),
        warm.len(),
    );
    out.set(
        "core.engine.simulate_cold_us_p50",
        median(&cold),
        cold.len(),
    );
    natural_p50
}

/// Flow-solver and fabric-build probe on seeded 16-64 device fabrics.
pub fn flow(rec: &mut Recorder, out: &mut Outcome, seed: u64) {
    let mut rng = Rng::derive(seed, "probe.flow");
    let model = CollectiveModel::with_link_bandwidth(50.0);
    let (mut builds, mut solves) = (Vec::new(), Vec::new());
    let mut flows = 0usize;
    for i in 0..12u64 {
        let devices = 16 + rng.below(49);
        let spec = FabricSpec {
            devices,
            planes: vec![RingShape::device_ring(devices); 3],
            plane_gbs: 50.0,
            backplane: 8,
            escape_gbs: 8.0,
        };
        let kind = rng.pick(&FabricTopology::ALL);
        let t = Instant::now();
        let fabric = rec.span("interconnect.fabric.build", i, || {
            RoutedFabric::build(kind, &spec)
        });
        builds.push(t.elapsed().as_secs_f64() * 1e6);
        for coll in [CollectiveKind::AllReduce, CollectiveKind::AllGather] {
            for mb in [1u64, 4, 16, 64] {
                let t = Instant::now();
                rec.span("sim.flow.solve", i, || {
                    black_box(fabric.collective_time(&model, coll, Bytes::new(mb << 20)))
                });
                solves.push(t.elapsed().as_secs_f64() * 1e6);
                flows += fabric.flows_per_collective();
            }
        }
    }
    let total_us: f64 = solves.iter().sum();
    out.set(
        "sim.flow.flows_per_solve",
        ratio(flows as f64, solves.len() as f64),
        solves.len(),
    );
    out.set("sim.flow.solve_us_p50", median(&solves), solves.len());
    out.set(
        "sim.flow.solve_us_p99",
        quantile(&solves, 0.99),
        solves.len(),
    );
    out.set(
        "sim.flow.ns_per_flow",
        ratio(total_us * 1e3, flows as f64),
        flows,
    );
    out.set(
        "interconnect.fabric.build_us_p50",
        median(&builds),
        builds.len(),
    );
}

/// Store probe: gets of resident cells on the workload's own store,
/// inserts into a fresh store of the same capacity, and snapshot saves
/// of the workload's store. Returns the insert and save p50s (us, ms).
pub fn store(
    rec: &mut Recorder,
    out: &mut Outcome,
    store: &ResultStore,
    resident: &[(Scenario, IterationReport)],
    scratch: &Path,
) -> (f64, f64) {
    let mut gets = Vec::new();
    let mut tally = Tally::default();
    for (i, (cell, report)) in resident.iter().cycle().take(4000).enumerate() {
        let t = Instant::now();
        let got = rec.span("core.store.get", i as u64, || store.get(cell));
        gets.push(t.elapsed().as_secs_f64() * 1e6);
        tally.check(got.as_ref() == Some(report), || {
            format!("store probe: {} not resident or changed", cell.label())
        });
    }
    out.tally.absorb(tally);
    let fresh = match store.capacity() {
        Some(cap) => ResultStore::bounded(cap),
        None => ResultStore::unbounded(),
    };
    let mut inserts = Vec::new();
    for (i, (cell, report)) in resident.iter().take(4000).enumerate() {
        let t = Instant::now();
        rec.span("core.store.insert", i as u64, || {
            fresh.insert(*cell, report.clone())
        });
        inserts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let path = scratch.join("probe-snapshot.json");
    let mut saves = Vec::new();
    // Three saves, or fewer when the store is large enough that one
    // takes most of a second.
    for i in 0..3 {
        if saves.iter().sum::<f64>() > 1000.0 {
            break;
        }
        let t = Instant::now();
        let saved = rec.span("core.store.save", i, || store.save(&path));
        saves.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = saved {
            out.tally.fail(format!("snapshot save failed: {e}"));
        }
    }
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    let (insert_p50, save_p50) = (median(&inserts), median(&saves));
    out.set("core.store.get_us_p50", median(&gets), gets.len());
    out.set("core.store.insert_us_p50", insert_p50, inserts.len());
    out.set("core.store.snapshot_save_ms_p50", save_p50, saves.len());
    out.set("core.store.snapshot_bytes", bytes as f64, 1);
    (insert_p50, save_p50)
}

/// Wire decode/encode probe: the worker's per-request parse and
/// validate, and the cell encoding it answers with.
pub fn wire(rec: &mut Recorder, out: &mut Outcome, resident: &[(Scenario, IterationReport)]) {
    let bodies: Vec<String> = resident
        .iter()
        .take(1000)
        .map(|(c, _)| serde::json::to_string(c))
        .collect();
    let mut decode = Vec::new();
    let mut tally = Tally::default();
    for (i, (body, (cell, _))) in bodies.iter().zip(resident).enumerate() {
        let t = Instant::now();
        let parsed = rec.span("serve.decode", i as u64, || {
            serde::json::from_str::<Scenario>(body).map(|s| (s.validate(), s))
        });
        decode.push(t.elapsed().as_secs_f64() * 1e6);
        tally.check(matches!(&parsed, Ok((Ok(()), s)) if s == cell), || {
            format!("decode probe: {body} did not round-trip")
        });
    }
    out.tally.absorb(tally);
    let mut encode = Vec::new();
    for (i, (cell, report)) in resident.iter().take(1000).enumerate() {
        let t = Instant::now();
        rec.span("serve.encode", i as u64, || {
            black_box(serde::json::to_string_pretty(&mcdla_serve::cell_value(
                cell, report, true,
            )))
        });
        encode.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("serve.decode_us_p50", median(&decode), decode.len());
    out.set("serve.encode_us_p50", median(&encode), encode.len());
}

/// Wire-level counters of the servers a run talked to, summed.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeCounters {
    pub hits: u64,
    pub misses: u64,
    pub retries: u64,
    pub shed: u64,
    pub timeouts: u64,
}

impl ServeCounters {
    /// Adds one running worker: its store counters and the loop
    /// counters its `GET /stats` reports.
    pub fn add_worker(&mut self, worker: &ServerHandle) {
        self.hits += worker.store().hits();
        self.misses += worker.store().misses();
        let stats = client::request_once(&worker.addr().to_string(), "GET", "/stats", None)
            .ok()
            .and_then(|r| serde::json::parse(&r.body).ok());
        let conn = |key: &str| {
            stats
                .as_ref()
                .and_then(|v| v.get("connections")?.get(key)?.as_u64())
                .unwrap_or(0)
        };
        self.shed += conn("shed");
        self.timeouts += conn("request_timeouts");
    }

    pub fn add_fleet(&mut self, fleet: &LocalFleet) {
        self.retries += fleet.gateway.router().retries();
        for w in &fleet.workers {
            self.add_worker(w);
        }
    }

    pub fn emit(&self, out: &mut Outcome) {
        out.set("serve.shed", self.shed as f64, 1);
        out.set("serve.timeouts", self.timeouts as f64, 1);
        out.set("cluster.retries", self.retries as f64, 1);
        let answered = (self.hits + self.misses) as usize;
        out.set(
            "cluster.fleet_hit_ratio",
            ratio(self.hits as f64, answered as f64),
            answered,
        );
    }
}

/// Round-trip probe on a fresh two-worker fleet: each cached cell is
/// asked of its owning worker directly and then through the gateway,
/// back to back, so the difference is the gateway's own time. Returns
/// `(worker RTT p50, gateway self p50)` in microseconds.
pub fn fleet(
    rec: &mut Recorder,
    out: &mut Outcome,
    seed: u64,
    counters: &mut ServeCounters,
) -> (f64, f64) {
    let fleet = match spawn_local_fleet(&FleetConfig {
        probe_interval: None,
        ..FleetConfig::default()
    }) {
        Ok(f) => f,
        Err(e) => {
            out.tally.fail(format!("probe fleet did not start: {e}"));
            return (f64::NAN, f64::NAN);
        }
    };
    let result = fleet_rtts(rec, out, seed, &fleet);
    counters.add_fleet(&fleet);
    fleet.shutdown();
    result
}

fn fleet_rtts(rec: &mut Recorder, out: &mut Outcome, seed: u64, fleet: &LocalFleet) -> (f64, f64) {
    let mut rng = Rng::derive(seed, "probe.fleet");
    let cells: Vec<Scenario> = (0..64).map(|_| analytical_cell(&mut rng, 64)).collect();
    let bodies: Vec<String> = cells.iter().map(serde::json::to_string).collect();
    let workers = fleet.worker_addrs();
    let topology = match mcdla_cluster::Topology::new(workers.clone()) {
        Ok(t) => t,
        Err(e) => {
            out.tally.fail(format!("probe topology: {e}"));
            return (f64::NAN, f64::NAN);
        }
    };
    let owners: Vec<usize> = cells.iter().map(|c| topology.owner_of(c)).collect();
    out.set(
        "cluster.route_ns",
        route_cost(rec, &topology, &cells),
        cells.len() * 1000,
    );
    let direct: Result<Vec<Connection>, String> =
        workers.iter().map(|a| Connection::open(a)).collect();
    let gateway = Connection::open(&fleet.gateway_addr().to_string());
    let (Ok(mut direct), Ok(mut gateway)) = (direct, gateway) else {
        out.tally.fail("probe fleet: connect failed".into());
        return (f64::NAN, f64::NAN);
    };
    let mut tally = Tally::default();
    for body in &bodies {
        let r = gateway.request("POST", "/simulate", Some(body));
        tally.check(r.is_ok_and(|r| r.status == 200), || {
            "probe fleet warm-up failed".into()
        });
    }
    let (mut worker_rtt, mut gateway_self) = (Vec::new(), Vec::new());
    for i in 0..2000u64 {
        let k = rng.below(cells.len());
        let t = Instant::now();
        let a = rec.span("serve.worker_rtt", i, || {
            direct[owners[k]].request("POST", "/simulate", Some(&bodies[k]))
        });
        let d = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let b = rec.span("cluster.gateway_rtt", i, || {
            gateway.request("POST", "/simulate", Some(&bodies[k]))
        });
        let g = t.elapsed().as_secs_f64() * 1e6;
        let same = matches!((&a, &b), (Ok(a), Ok(b))
            if a.status == 200 && a.body == b.body && a.body.contains("\"cached\": true"));
        tally.check(same, || {
            format!(
                "probe fleet: direct and gateway answers differ for {}",
                bodies[k]
            )
        });
        worker_rtt.push(d);
        gateway_self.push(g - d);
    }
    out.tally.absorb(tally);
    let (w, g) = (median(&worker_rtt), median(&gateway_self));
    out.set("serve.worker_rtt_us_p50", w, worker_rtt.len());
    out.set("cluster.gateway_self_us_p50", g, gateway_self.len());
    (w, g)
}

/// `Topology::owner_of` in nanoseconds per call, median of spans of
/// 1000 calls each.
fn route_cost(rec: &mut Recorder, topology: &mcdla_cluster::Topology, cells: &[Scenario]) -> f64 {
    let mut per_call = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let t = Instant::now();
        rec.span("cluster.route", i as u64, || {
            for _ in 0..1000 {
                black_box(topology.owner_of(black_box(cell)));
            }
        });
        per_call.push(t.elapsed().as_secs_f64() * 1e9 / 1000.0);
    }
    median(&per_call)
}

/// Nanoseconds per call of `op`, median over 5 spans of `n` calls.
fn ns_per_op(
    rec: &mut Recorder,
    name: &'static str,
    n: u64,
    mut op: impl FnMut(u64),
) -> (f64, usize) {
    let mut reps = Vec::new();
    for r in 0..5 {
        let t = Instant::now();
        rec.span(name, r, || {
            for i in 0..n {
                op(i);
            }
        });
        reps.push(t.elapsed().as_secs_f64() * 1e9 / n as f64);
    }
    (median(&reps), reps.len() * n as usize)
}

/// Per-call costs of the observability primitives every served request
/// pays.
pub fn obs(rec: &mut Recorder, out: &mut Outcome) {
    let was_enabled = mcdla_obs::enabled();
    mcdla_obs::set_enabled(true);
    // Spans live inside a request trace; a trace holds a few of them, so
    // the scope is reopened every 64 spans, outside the timed part.
    let mut reps = Vec::new();
    for r in 0..5 {
        let mut timed = Duration::ZERO;
        rec.span("obs.span", r, || {
            for _ in 0..1_000 {
                let scope = TraceScope::begin();
                let t = Instant::now();
                for _ in 0..64 {
                    drop(black_box(Span::enter("probe.span")));
                }
                timed += t.elapsed();
                black_box(scope.finish(String::new(), "probe", 200));
            }
        });
        reps.push(timed.as_secs_f64() * 1e9 / 64_000.0);
    }
    let (v, n) = (median(&reps), 5 * 64_000);
    out.set("obs.span_ns", v, n);
    mcdla_obs::set_enabled(false);
    let (v, n) = ns_per_op(rec, "obs.span_disabled", 1_000_000, |_| {
        drop(black_box(Span::enter("probe.span")));
    });
    out.set("obs.span_disabled_ns", v, n);
    mcdla_obs::set_enabled(was_enabled);

    let hist = Arc::new(Histogram::new());
    let (v, n) = ns_per_op(rec, "obs.hist_observe", 1_000_000, |i| {
        hist.observe(black_box(1e-6 * (1 + i % 5000) as f64));
    });
    out.set("obs.hist_observe_ns", v, n);

    let recorder = FlightRecorder::new(1024);
    let template = {
        mcdla_obs::set_enabled(true);
        let scope = TraceScope::begin();
        let spans = [Span::enter("a"), Span::enter("b")];
        drop(spans);
        let t = scope.finish("0123456789abcdef".into(), "simulate", 200);
        mcdla_obs::set_enabled(was_enabled);
        t
    };
    for _ in 0..1024 {
        recorder.record(template.clone());
    }
    let mut batch: Vec<_> = (0..20_000).map(|_| template.clone()).collect();
    let (v, n) = ns_per_op(rec, "obs.recorder_record", 4_000, |_| {
        if let Some(t) = batch.pop() {
            black_box(recorder.record(t));
        }
    });
    out.set("obs.recorder_record_ns", v, n);

    let (v, n) = ns_per_op(rec, "obs.log_filtered", 1_000_000, |i| {
        mcdla_obs::log::debug("perfbench", "probe", &[("i", i.into())]);
    });
    out.set("obs.log_filtered_ns", v, n);

    let names: Vec<String> = (0..40).map(|i| format!("series{i}")).collect();
    let history = History::new(names, 600, 1000);
    let values = vec![1.5f64; 40];
    let (v, n) = ns_per_op(rec, "obs.history_record", 200_000, |i| {
        history.record(i, black_box(&values));
    });
    out.set("obs.history_record_ns", v, n);
}

/// Runs every probe that does not depend on the workload's own state.
pub fn common(
    tracer: &Tracer,
    out: &mut Outcome,
    seed: u64,
    counters: &mut ServeCounters,
) -> (f64, f64) {
    let mut rec = tracer.recorder();
    flow(&mut rec, out, seed);
    obs(&mut rec, out);
    fleet(&mut rec, out, seed, counters)
}
