//! The `serve_read` and `serve_write` workloads: closed loops of
//! keep-alive `POST /simulate` clients, one connection per thread and at
//! most `nproc` of them, against servers running in this process.
//!
//! * `req_per_s`: completed requests per second; every request answers
//!   one cell, so `cells_per_s` is the same count;
//! * `hit_*`/`miss_*`: client round-trip times of answers with
//!   `"cached": true` and `"cached": false`. `serve_read` sends only
//!   hits, so its misses are the warm-up fill's requests (during
//!   set-up).

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcdla_cluster::{spawn_local_fleet, FleetConfig, LocalFleet};
use mcdla_core::{stages, IterationReport, ResultStore, Scenario, StoreStats};
use mcdla_serve::client::{Connection, Response};
use mcdla_serve::{ServeConfig, Server, ServerHandle};
use serde::Value;

use crate::gen::{analytical_cell, Rng, Zipf};
use crate::grid::{emit_stages, finish_trace, loop_remainder, overhead, stage_map, SETUPS};
use crate::probe::{self, ServeCounters};
use crate::report::{peak_rss_mb, HostClock, Outcome, Tally};
use crate::stats::{iqm, median, ratio, PerChunk};
use crate::trace::Tracer;
use crate::Config;

/// Tracing toggles every `WINDOW` so the traced run can price itself.
const WINDOW: Duration = Duration::from_millis(500);

/// The two bodies a correct server may answer for a cell.
#[derive(Debug, Clone)]
pub struct Expected {
    pub report: IterationReport,
    pub hit: String,
    pub miss: String,
}

impl Expected {
    /// The in-process reference: `cell_value(Scenario::simulate)`,
    /// encoded as the worker encodes it.
    pub fn of(cell: &Scenario) -> Expected {
        let report = cell.simulate();
        let body =
            |cached| serde::json::to_string_pretty(&mcdla_serve::cell_value(cell, &report, cached));
        Expected {
            hit: body(true),
            miss: body(false),
            report,
        }
    }
}

/// How a response compares with the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Hit,
    Miss,
    Wrong(String),
}

pub fn judge(resp: &Result<Response, String>, expected: &Expected) -> Verdict {
    match resp {
        Err(e) => Verdict::Wrong(format!("request failed: {e}")),
        Ok(r) if r.status != 200 => Verdict::Wrong(format!("status {}: {}", r.status, r.body)),
        Ok(r) if r.body == expected.hit => Verdict::Hit,
        Ok(r) if r.body == expected.miss => Verdict::Miss,
        Ok(r) => Verdict::Wrong(format!(
            "body differs from the in-process answer: {}",
            r.body
        )),
    }
}

/// `n` distinct seeded cells of up to 64 devices, not in `exclude`.
fn distinct_cells(rng: &mut Rng, n: usize, exclude: &HashSet<Scenario>) -> Vec<Scenario> {
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let cell = analytical_cell(rng, 64);
        if seen.insert(cell) {
            out.push(cell);
        }
    }
    out
}

/// What one client thread measured.
#[derive(Debug, Default)]
pub struct ClientResult {
    pub hit_us: Vec<f64>,
    /// The window each hit completed in, parallel to `hit_us`.
    pub hit_window: Vec<usize>,
    pub miss_us: Vec<f64>,
    pub tally: Tally,
    /// Completed requests per window.
    pub per_window: Vec<u64>,
}

impl ClientResult {
    fn merge(results: Vec<ClientResult>) -> ClientResult {
        let mut all = ClientResult::default();
        for r in results {
            all.hit_us.extend(r.hit_us);
            all.hit_window.extend(r.hit_window);
            all.miss_us.extend(r.miss_us);
            all.tally.attempted += r.tally.attempted;
            all.tally.failed += r.tally.failed;
            all.tally.failures.extend(r.tally.failures);
            if all.per_window.len() < r.per_window.len() {
                all.per_window.resize(r.per_window.len(), 0);
            }
            for (a, b) in all.per_window.iter_mut().zip(r.per_window) {
                *a += b;
            }
        }
        all
    }

    fn record(&mut self, verdict: Verdict, us: f64, started: Instant) {
        let window = (started.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if self.per_window.len() <= window {
            self.per_window.resize(window + 1, 0);
        }
        self.per_window[window] += 1;
        match verdict {
            Verdict::Hit => {
                self.hit_us.push(us);
                self.hit_window.push(window);
            }
            Verdict::Miss => self.miss_us.push(us),
            Verdict::Wrong(_) => {}
        }
        let ok = !matches!(verdict, Verdict::Wrong(_));
        self.tally.check(ok, || match verdict {
            Verdict::Wrong(w) => w,
            _ => unreachable!(),
        });
    }

    /// Per-window samples of the complete windows: request rates over
    /// steal-adjusted window time, and hit latency percentiles.
    fn windows(&self, steal: &[f64]) -> PerChunk {
        let mut chunks = PerChunk::default();
        let mut hits: Vec<Vec<f64>> = vec![Vec::new(); steal.len()];
        for (&w, &us) in self.hit_window.iter().zip(&self.hit_us) {
            if let Some(h) = hits.get_mut(w) {
                h.push(us);
            }
        }
        for (w, (&stolen, h)) in steal.iter().zip(&hits).enumerate() {
            let done = self.per_window.get(w).copied().unwrap_or(0) as f64;
            chunks
                .req_rate
                .push(done / (WINDOW.as_secs_f64() * (1.0 - stolen)));
            chunks.add_hits(h);
        }
        chunks.rate = chunks.req_rate.clone();
        chunks
    }
}

/// Sends every cell once from `threads` connections, each expected to
/// be a miss; returns the client results.
fn fill(addr: &str, threads: usize, bodies: &[String], expected: &[Expected]) -> ClientResult {
    let started = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut res = ClientResult::default();
                    let mut conn = match Connection::open(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            res.tally.check(false, || format!("fill connect: {e}"));
                            return res;
                        }
                    };
                    for k in (t..bodies.len()).step_by(threads) {
                        let t0 = Instant::now();
                        let resp = conn.request("POST", "/simulate", Some(&bodies[k]));
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        let verdict = match judge(&resp, &expected[k]) {
                            Verdict::Hit => {
                                Verdict::Wrong(format!("fill answered from cache: {}", bodies[k]))
                            }
                            v => v,
                        };
                        res.record(verdict, us, started);
                    }
                    res
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fill client panicked"))
            .collect()
    });
    ClientResult::merge(results)
}

/// Marks the measured phase's windows until `seconds` have passed:
/// toggles tracing (odd windows traced, when `traced`) and returns the
/// steal share of each complete window.
fn run_windows(tracer: &Tracer, traced: bool, started: Instant, seconds: f64) -> Vec<f64> {
    let mut steal = Vec::new();
    let mut clock = HostClock::start();
    let mut current = 0;
    while started.elapsed().as_secs_f64() < seconds {
        let window = (started.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        if window != current {
            steal.push(clock.steal_share());
            clock = HostClock::start();
            current = window;
        }
        tracer.set_on(traced && window % 2 == 1);
        std::thread::sleep(Duration::from_millis(2));
    }
    tracer.set_on(false);
    steal
}

/// The tracing-overhead estimate from per-window request counts
/// (windows alternate untraced, traced).
fn window_overhead(out: &mut Outcome, per_window: &[u64]) {
    let chunks: Vec<(bool, f64)> = per_window
        .iter()
        .enumerate()
        // The last window is partial.
        .take(per_window.len().saturating_sub(1))
        .map(|(w, &n)| (w % 2 == 1, 1.0 / n.max(1) as f64))
        .collect();
    overhead(out, &chunks);
}

/// One request inside the benchmark's spans. Sampled requests (one in
/// four, while tracing is on) carry a request id the servers echo and
/// record.
fn traced_request(
    rec: &mut crate::trace::Recorder,
    conn: &mut Connection,
    body: &str,
    expected: &Expected,
    req: u64,
) -> (Verdict, f64) {
    let sampled = rec.tracing() && req.is_multiple_of(4);
    let t0 = Instant::now();
    let (resp, verdict) = if sampled {
        rec.begin("client.request", req);
        let id = format!("pb-{req:x}");
        let resp = rec.span("client.roundtrip", req, || {
            conn.request_with(
                "POST",
                "/simulate",
                &[("X-Mcdla-Request-Id", &id)],
                Some(body),
            )
        });
        let verdict = rec.span("check.body", req, || judge(&resp, expected));
        rec.end();
        (resp, verdict)
    } else {
        let resp = conn.request("POST", "/simulate", Some(body));
        let verdict = judge(&resp, expected);
        (resp, verdict)
    };
    drop(resp);
    (verdict, t0.elapsed().as_secs_f64() * 1e6)
}

/// The `serve_read` closed loop: each thread sends Zipf-ranked cells of
/// the working set over its own keep-alive connection until `seconds`
/// have passed.
pub fn read_loop(
    addr: &str,
    cfg: &Config,
    tracer: &Tracer,
    bodies: &[String],
    expected: &[Expected],
) -> (ClientResult, Vec<f64>) {
    let started = Instant::now();
    let zipf = Zipf::new(bodies.len(), 0.99);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.nproc)
            .map(|t| {
                let zipf = &zipf;
                scope.spawn(move || {
                    let mut rng = cfg.rng(&format!("serve_read.client{t}"));
                    let mut res = ClientResult::default();
                    let mut rec = tracer.recorder();
                    let mut conn = match Connection::open(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            res.tally.check(false, || format!("connect: {e}"));
                            return res;
                        }
                    };
                    let mut n = 0u64;
                    while started.elapsed().as_secs_f64() < cfg.seconds {
                        let k = zipf.sample(&mut rng);
                        let req = (t as u64) << 40 | n;
                        let (verdict, us) =
                            traced_request(&mut rec, &mut conn, &bodies[k], &expected[k], req);
                        res.record(verdict, us, started);
                        n += 1;
                    }
                    res
                })
            })
            .collect();
        let steal = run_windows(tracer, cfg.traced, started, cfg.seconds);
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect();
        (results, steal)
    });
    (ClientResult::merge(results.0), results.1)
}

fn sum_store(stats: &[StoreStats]) -> (u64, u64, u64, u64) {
    stats.iter().fold((0, 0, 0, 0), |a, s| {
        (
            a.0 + s.hits,
            a.1 + s.misses,
            a.2 + s.evictions,
            a.3 + s.dedup_waits,
        )
    })
}

fn emit_store(out: &mut Outcome, before: &[StoreStats], after: &[StoreStats]) {
    let (h0, m0, e0, d0) = sum_store(before);
    let (h1, m1, e1, d1) = sum_store(after);
    let lookups = (h1 - h0 + m1 - m0) as usize;
    out.set(
        "core.store.hit_ratio",
        ratio((h1 - h0) as f64, lookups as f64),
        lookups,
    );
    out.set("core.store.evictions", (e1 - e0) as f64, 1);
    out.set("core.store.dedup_waits", (d1 - d0) as f64, 1);
    // No batch runner and no routed cell in the serving workloads.
    out.set("core.runner.busy_frac", 0.0, 0);
    out.set("core.runner.store_hit_ratio", 0.0, 0);
    out.set("sim.flow.solves", 0.0, 1);
}

pub fn run_read(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let working_set = if cfg.small { 64 } else { 2048 };
    let mut rng = cfg.rng("serve_read.cells");
    let cells = distinct_cells(&mut rng, working_set, &HashSet::new());
    let bodies: Vec<String> = cells.iter().map(serde::json::to_string).collect();

    // Set up `SETUPS` times: a fresh two-worker fleet behind a gateway,
    // then the whole working set sent once through the gateway (every
    // request a miss). The in-process reference answers are computed
    // once, in the first set-up.
    let mut expected: Vec<Expected> = Vec::new();
    let mut setups = Vec::new();
    let mut fills = ClientResult::default();
    let mut fill_chunks = PerChunk::default();
    let mut fleet: Option<LocalFleet> = None;
    for rep in 0..SETUPS {
        let t = Instant::now();
        if rep == 0 {
            expected = cells.iter().map(Expected::of).collect();
        }
        let f = match spawn_local_fleet(&FleetConfig::default()) {
            Ok(f) => f,
            Err(e) => {
                out.tally.fail(format!("fleet did not start: {e}"));
                return out;
            }
        };
        let filled = fill(&f.gateway_addr().to_string(), cfg.nproc, &bodies, &expected);
        setups.push(t.elapsed().as_secs_f64());
        let ms: Vec<f64> = filled.miss_us.iter().map(|us| us / 1e3).collect();
        fill_chunks.add_misses(&ms);
        fills = ClientResult::merge(vec![fills, filled]);
        if let Some(old) = fleet.replace(f) {
            old.shutdown();
        }
    }
    let fleet = fleet.expect("set up at least once");
    out.set("setup_s", iqm(&setups), setups.len());
    out.tally.absorb(std::mem::take(&mut fills.tally));

    let tracer = Tracer::new(false);
    let stores =
        || -> Vec<StoreStats> { fleet.workers.iter().map(|w| w.store().stats()).collect() };
    let (stages0, store0) = (stages::stage_stats(), stores());
    let (res, steal) = read_loop(
        &fleet.gateway_addr().to_string(),
        cfg,
        &tracer,
        &bodies,
        &expected,
    );
    let (stages1, store1) = (stages::stage_stats(), stores());
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    let requests = (res.hit_us.len() + res.miss_us.len()) as f64;
    let mut chunks = res.windows(&steal);
    chunks.miss_p50_ms = fill_chunks.miss_p50_ms;
    chunks.miss_p90_ms = fill_chunks.miss_p90_ms;
    chunks.emit(
        &mut out,
        requests as usize,
        requests as usize,
        fills.miss_us.len(),
    );
    out.note(
        "traffic",
        Value::Map(vec![
            ("requests".into(), Value::U64(requests as u64)),
            ("working_set".into(), Value::U64(working_set as u64)),
            (
                "hit_share".into(),
                Value::F64(ratio(res.hit_us.len() as f64, requests)),
            ),
            (
                "repeat_share".into(),
                Value::F64(ratio(requests - working_set as f64, requests)),
            ),
            ("routed_share".into(), Value::F64(0.0)),
            ("fill_misses".into(), Value::U64(fills.miss_us.len() as u64)),
            ("steal_share".into(), Value::F64(stats_mean(&steal))),
            ("stage_distinct_keys".into(), stage_map(&stages0, &stages1)),
        ]),
    );
    let e2e_hit = median(&res.hit_us);
    let per_window = res.per_window.clone();
    out.tally.absorb(res.tally);

    let mut counters = ServeCounters::default();
    counters.add_fleet(&fleet);
    // The store probe reads worker 0's store: the working-set cells it owns.
    let store0_handle = Arc::clone(fleet.workers[0].store());
    fleet.shutdown();

    if cfg.traced {
        emit_stages(&mut out, &stages0, &stages1);
        emit_store(&mut out, &store0, &store1);
        window_overhead(&mut out, &per_window);
        let resident: Vec<(Scenario, IterationReport)> = cells
            .iter()
            .zip(&expected)
            .filter(|(c, _)| store0_handle.contains(c))
            .map(|(c, e)| (*c, e.report.clone()))
            .collect();
        layer_probes(
            cfg,
            &tracer,
            &mut out,
            &store0_handle,
            &resident,
            &mut rng,
            &mut counters,
        );
        // A loaded hit is the gateway's own time plus a worker round
        // trip; the rest is queueing under load.
        let explained =
            metric(&out, "cluster.gateway_self_us_p50") + metric(&out, "serve.worker_rtt_us_p50");
        out.set("trace.unexplained_frac", (e2e_hit - explained) / e2e_hit, 1);
        finish_trace(cfg, &tracer, &mut out);
    }
    out
}

fn stats_mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics.get(name).map_or(f64::NAN, |m| m.value)
}

/// Probes shared by both serving workloads. Returns the engine's p50 on
/// fresh cells of the workload's generator (us) and the snapshot save
/// p50 (ms).
fn layer_probes(
    cfg: &Config,
    tracer: &Tracer,
    out: &mut Outcome,
    store: &ResultStore,
    resident: &[(Scenario, IterationReport)],
    rng: &mut Rng,
    counters: &mut ServeCounters,
) -> (f64, f64) {
    tracer.set_on(true);
    let mut rec = tracer.recorder();
    let exclude: HashSet<Scenario> = resident.iter().map(|(c, _)| *c).collect();
    let natural = distinct_cells(rng, if cfg.small { 4 } else { 48 }, &exclude);
    let engine_p50 = probe::engine(&mut rec, out, cfg.seed, &natural);
    let (_, save_p50) = probe::store(&mut rec, out, store, resident, &cfg.scratch());
    probe::wire(&mut rec, out, resident);
    drop(rec);
    let (worker_rtt, _) = probe::common(tracer, out, cfg.seed, counters);
    counters.emit(out);
    loop_remainder(out, worker_rtt);
    (engine_p50, save_p50)
}

/// `n` distinct cells that differ from a preloaded cell only in the
/// compression ratio. Compression enters only the uncached assembly
/// stage, so a fresh cell's miss costs the same small engine run every
/// time and the write path dominates.
fn fresh_variants(rng: &mut Rng, preload: &[Scenario], n: usize) -> Vec<Scenario> {
    let mut seen: HashSet<Scenario> = preload.iter().copied().collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let base = preload[rng.below(preload.len())];
        let cell = Scenario {
            overrides: mcdla_core::Overrides {
                compression: Some(1.0 + rng.below(300) as f64 / 100.0),
                ..base.overrides
            },
            ..base
        };
        if seen.insert(cell) {
            out.push(cell);
        }
    }
    out
}

/// One `serve_write` request as sent, judged after the run.
struct Sent {
    cell: usize,
    fresh: bool,
    /// The status and an FNV-1a digest of the body, or the error; the
    /// bodies themselves are not kept.
    answer: Result<(u16, u64), String>,
    us: f64,
    window: usize,
}

/// FNV-1a over a response body: equal digests stand for equal bodies.
fn body_digest(body: &str) -> u64 {
    body.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn run_write(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (preload_n, fresh_n) = if cfg.small { (50, 400) } else { (1000, 20_000) };
    let mut rng = cfg.rng("serve_write.cells");
    let preload = distinct_cells(&mut rng, preload_n, &HashSet::new());
    let fresh = fresh_variants(&mut rng, &preload, fresh_n);
    let all: Vec<Scenario> = preload.iter().chain(&fresh).copied().collect();
    let bodies: Vec<String> = all.iter().map(serde::json::to_string).collect();
    let scratch = cfg.scratch();
    let pristine = scratch.join("preload.json");
    let live = scratch.join("serve_write.json");

    // Set up `SETUPS` times: a worker with `snapshot` set boots from a
    // snapshot holding the preloaded cells. The snapshot itself is
    // simulated and written once, in the first set-up.
    let mut setups = Vec::new();
    let mut server: Option<ServerHandle> = None;
    for rep in 0..SETUPS {
        let t = Instant::now();
        let booted = (|| -> Result<ServerHandle, String> {
            if rep == 0 {
                let store = ResultStore::unbounded();
                for cell in &preload {
                    store.insert(*cell, cell.simulate());
                }
                store
                    .save(&pristine)
                    .map_err(|e| format!("writing preload: {e}"))?;
            }
            std::fs::copy(&pristine, &live).map_err(|e| format!("copying preload: {e}"))?;
            Server::bind(&ServeConfig {
                addr: "127.0.0.1:0".into(),
                snapshot: Some(live.clone()),
                ..ServeConfig::default()
            })?
            .spawn()
            .map_err(|e| format!("spawning worker: {e}"))
        })();
        setups.push(t.elapsed().as_secs_f64());
        match booted {
            Ok(s) => {
                if let Some(old) = server.replace(s) {
                    old.shutdown();
                }
            }
            Err(e) => {
                out.tally.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let server = server.expect("set up at least once");
    out.set("setup_s", iqm(&setups), setups.len());
    out.tally.check(server.store().len() == preload_n, || {
        format!(
            "worker booted with {} cells, expected {preload_n}",
            server.store().len()
        )
    });

    let tracer = Tracer::new(false);
    let store = Arc::clone(server.store());
    let (stages0, store0) = (stages::stage_stats(), vec![store.stats()]);
    let (sent, steal) = write_loop(&server.addr().to_string(), cfg, &tracer, &bodies, preload_n);
    let (stages1, store1) = (stages::stage_stats(), vec![store.stats()]);
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    let mut counters = ServeCounters::default();
    counters.add_worker(&server);
    // Shutdown flushes a final snapshot.
    server.shutdown();

    // Judge every answer against the in-process reference.
    let mut expected: Vec<Option<Expected>> = vec![None; all.len()];
    let mut digests: Vec<Option<(u64, u64)>> = vec![None; all.len()];
    let mut res = ClientResult::default();
    let mut acked: Vec<usize> = Vec::new();
    for s in &sent {
        let (hit, miss) = *digests[s.cell].get_or_insert_with(|| {
            let exp = expected[s.cell].get_or_insert_with(|| Expected::of(&all[s.cell]));
            (body_digest(&exp.hit), body_digest(&exp.miss))
        });
        let label = || all[s.cell].label();
        let verdict = match (&s.answer, s.fresh) {
            (Err(e), _) => Verdict::Wrong(format!("request for {} failed: {e}", label())),
            (Ok((status, _)), _) if *status != 200 => {
                Verdict::Wrong(format!("status {status} for {}", label()))
            }
            (Ok((_, d)), false) if *d == hit => Verdict::Hit,
            (Ok((_, d)), true) if *d == miss => Verdict::Miss,
            (Ok((_, d)), true) if *d == hit => {
                Verdict::Wrong(format!("fresh cell answered from cache: {}", label()))
            }
            (Ok((_, d)), false) if *d == miss => {
                Verdict::Wrong(format!("re-read simulated again: {}", label()))
            }
            _ => Verdict::Wrong(format!(
                "body differs from the in-process answer for {}",
                label()
            )),
        };
        if s.fresh && verdict == Verdict::Miss {
            acked.push(s.cell);
        }
        if res.per_window.len() <= s.window {
            res.per_window.resize(s.window + 1, 0);
        }
        res.per_window[s.window] += 1;
        match verdict {
            Verdict::Hit => {
                res.hit_us.push(s.us);
                res.hit_window.push(s.window);
            }
            Verdict::Miss => res.miss_us.push(s.us),
            Verdict::Wrong(w) => res.tally.check(false, || w),
        }
    }
    res.tally.attempted += (res.hit_us.len() + res.miss_us.len()) as u64;
    // Rates and hits per window; the single writer makes too few
    // misses for per-window percentiles, so those cover the whole run.
    let done = res.hit_us.len() + res.miss_us.len();
    let mut chunks = res.windows(&steal);
    let miss_ms: Vec<f64> = res.miss_us.iter().map(|us| us / 1e3).collect();
    chunks.pool_misses_if_sparse(&miss_ms);
    chunks.emit(&mut out, done, done, miss_ms.len());
    out.tally.absorb(std::mem::take(&mut res.tally));
    verify_snapshot(&mut out, &live, &all, &mut expected, &acked, preload_n);

    let requests = (res.hit_us.len() + res.miss_us.len()) as f64;
    out.note(
        "traffic",
        Value::Map(vec![
            ("requests".into(), Value::U64(requests as u64)),
            ("preloaded".into(), Value::U64(preload_n as u64)),
            (
                "hit_share".into(),
                Value::F64(ratio(res.hit_us.len() as f64, requests)),
            ),
            (
                "repeat_share".into(),
                Value::F64(ratio(res.hit_us.len() as f64, requests)),
            ),
            ("routed_share".into(), Value::F64(0.0)),
            ("acknowledged_fresh".into(), Value::U64(acked.len() as u64)),
            ("stage_distinct_keys".into(), stage_map(&stages0, &stages1)),
        ]),
    );

    if cfg.traced {
        emit_stages(&mut out, &stages0, &stages1);
        emit_store(&mut out, &store0, &store1);
        window_overhead(&mut out, &res.per_window);
        let resident: Vec<(Scenario, IterationReport)> = all
            .iter()
            .zip(&expected)
            .filter_map(|(c, e)| Some((*c, e.as_ref()?.report.clone())))
            .filter(|(c, _)| store.contains(c))
            .chain(preload.iter().take(1000).map(|c| (*c, c.simulate())))
            .collect();
        let (engine_p50, save_ms) = layer_probes(
            cfg,
            &tracer,
            &mut out,
            &store,
            &resident,
            &mut rng,
            &mut counters,
        );
        // The worker rewrites the snapshot after answering a miss, so
        // the writer's next miss waits for that rewrite: a miss is one
        // snapshot rewrite, one worker round trip and one engine run.
        let e2e = median(&res.miss_us);
        let explained = save_ms * 1e3 + metric(&out, "serve.worker_rtt_us_p50") + engine_p50;
        out.set(
            "trace.unexplained_frac",
            (e2e - explained) / e2e,
            res.miss_us.len(),
        );
        finish_trace(cfg, &tracer, &mut out);
    }
    out
}

/// After the worker shut down, its snapshot must hold every preloaded
/// and every acknowledged cell, bit-identical to the reference.
fn verify_snapshot(
    out: &mut Outcome,
    path: &Path,
    all: &[Scenario],
    expected: &mut [Option<Expected>],
    acked: &[usize],
    preload_n: usize,
) {
    let reloaded = ResultStore::unbounded();
    if let Err(e) = reloaded.load(path) {
        out.tally.fail(format!("reloading the snapshot: {e}"));
        return;
    }
    for i in (0..preload_n).step_by(16).chain(acked.iter().copied()) {
        let exp = expected[i].get_or_insert_with(|| Expected::of(&all[i]));
        let got = reloaded.get(&all[i]);
        out.tally.check(got.as_ref() == Some(&exp.report), || {
            format!(
                "snapshot lost or changed acknowledged cell {}",
                all[i].label()
            )
        });
    }
}

/// The `serve_write` closed loop. Half the connections write: each
/// sends fresh cells (miss, insert, snapshot rewrite) back to back. The
/// other half read: each re-reads cells a writer already had
/// acknowledged (preloaded ones until then). A single connection
/// alternates the two.
fn write_loop(
    addr: &str,
    cfg: &Config,
    tracer: &Tracer,
    bodies: &[String],
    preload_n: usize,
) -> (Vec<Sent>, Vec<f64>) {
    let started = Instant::now();
    let next_fresh = AtomicUsize::new(preload_n);
    let acked: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.nproc)
            .map(|t| {
                let (next_fresh, acked) = (&next_fresh, &acked);
                scope.spawn(move || {
                    let mut rng = cfg.rng(&format!("serve_write.client{t}"));
                    let mut rec = tracer.recorder();
                    let mut sent = Vec::new();
                    let Ok(mut conn) = Connection::open(addr) else {
                        return sent;
                    };
                    let mut n = 0u64;
                    while started.elapsed().as_secs_f64() < cfg.seconds {
                        let fresh = if cfg.nproc == 1 {
                            n.is_multiple_of(2)
                        } else {
                            t % 2 == 0
                        };
                        let cell = if fresh {
                            next_fresh.fetch_add(1, Ordering::Relaxed)
                        } else {
                            let acked = acked.lock().expect("ack list poisoned");
                            if acked.is_empty() {
                                rng.below(preload_n)
                            } else {
                                acked[rng.below(acked.len())]
                            }
                        };
                        let Some(body) = bodies.get(cell) else { break };
                        let req = (t as u64) << 40 | n;
                        let t0 = Instant::now();
                        rec.begin("client.request", req);
                        let resp = rec.span("client.roundtrip", req, || {
                            conn.request("POST", "/simulate", Some(body))
                        });
                        rec.end();
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        if fresh && resp.as_ref().is_ok_and(|r| r.status == 200) {
                            acked.lock().expect("ack list poisoned").push(cell);
                        }
                        let answer = resp.map(|r| (r.status, body_digest(&r.body)));
                        let window =
                            (started.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                        sent.push(Sent {
                            cell,
                            fresh,
                            answer,
                            us,
                            window,
                        });
                        n += 1;
                    }
                    sent
                })
            })
            .collect();
        let steal = run_windows(tracer, cfg.traced, started, cfg.seconds);
        let sent: Vec<Vec<Sent>> = handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect();
        (sent, steal)
    });
    (results.0.into_iter().flatten().collect(), results.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wrong body from a real worker counts as a failed operation.
    #[test]
    fn wrong_body_is_a_failure() {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .unwrap()
        .spawn()
        .unwrap();
        let cell = analytical_cell(&mut Rng::new(5), 8);
        let body = serde::json::to_string(&cell);
        let right = Expected::of(&cell);
        let mut wrong = right.clone();
        wrong.hit = wrong
            .hit
            .replacen("\"cached\": true", "\"cached\": true ", 1);
        wrong.miss = wrong.miss.replace("\"digest\"", "\"digest \"");
        let cfg = Config {
            workload: crate::Workload::ServeRead,
            seed: 1,
            seconds: 0.3,
            traced: false,
            nproc: 1,
            dir: concat!(env!("CARGO_MANIFEST_DIR"), "/.bench_run").into(),
            small: true,
            part: None,
        };
        let tracer = Tracer::new(false);
        let addr = server.addr().to_string();
        let first = fill(
            &addr,
            1,
            std::slice::from_ref(&body),
            std::slice::from_ref(&right),
        );
        assert_eq!((first.tally.failed, first.miss_us.len()), (0, 1));
        let (good, _) = read_loop(
            &addr,
            &cfg,
            &tracer,
            std::slice::from_ref(&body),
            std::slice::from_ref(&right),
        );
        assert!(good.tally.attempted > 0);
        assert_eq!(good.tally.failed, 0);
        let (bad, _) = read_loop(
            &addr,
            &cfg,
            &tracer,
            std::slice::from_ref(&body),
            std::slice::from_ref(&wrong),
        );
        assert!(bad.tally.failed > 0);
        assert_eq!(bad.tally.failed, bad.tally.attempted);
        assert!(bad.hit_us.is_empty());
        server.shutdown();
    }
}
