//! The `sweep` and `fabric` workloads: design-space grids streamed
//! through `Runner::run_grid_streaming`, the way `mcdla sweep` runs
//! them, followed by point queries of cells the grid just produced.
//!
//! * `cells_per_s`: grid cells yielded per second of grid time;
//! * `miss_p50_ms`/`miss_p90_ms`: the runner's own per-cell wall time of
//!   the cells it simulated;
//! * `req_per_s`, `hit_p50_us`/`hit_p99_us`: `Runner::run` point
//!   queries of resident cells, each answered from the store.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcdla_core::{stages, IterationReport, ResultStore, Runner, Scenario, StageStats, TimedRun};
use serde::Value;

use crate::gen::{CellKind, CellStream};
use crate::probe::{self, ServeCounters};
use crate::report::{peak_rss_mb, HostClock, Outcome, STAGES};
use crate::stats::{iqm, median, ratio, PerChunk};
use crate::trace::{self, Tracer};
use crate::{Config, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Sizes of one grid workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    kind: CellKind,
    /// Cells per `run_grid_streaming` call.
    batch: usize,
    /// Cells generated, validated and labelled during set-up (the
    /// sweep's plan).
    plan: usize,
    /// Share of cells that repeat one of the last `window` cells.
    repeat_share: f64,
    window: usize,
    /// Point queries after each grid.
    queries: usize,
    /// Result-store capacity.
    store_cap: usize,
    /// One in `check_every` cells is re-simulated monolithically.
    check_every: u64,
    check_budget: Duration,
}

fn shape(cfg: &Config) -> Shape {
    let small = |big: usize, little: usize| if cfg.small { little } else { big };
    match cfg.workload {
        Workload::Fabric => Shape {
            kind: CellKind::Fabric,
            batch: small(64, 8),
            plan: small(32_768, 16),
            repeat_share: 0.05,
            window: 256,
            queries: 1024,
            store_cap: 16_384,
            check_every: 16,
            check_budget: Duration::from_secs(1),
        },
        _ => Shape {
            kind: CellKind::Sweep,
            batch: small(4096, 256),
            plan: small(32_768, 512),
            repeat_share: 0.1,
            window: 4096,
            queries: 1024,
            store_cap: 16_384,
            check_every: 512,
            check_budget: Duration::from_secs(1),
        },
    }
}

/// The workload's state once set up.
struct Setup {
    runner: Runner,
    stream: CellStream,
    planned: Vec<(Scenario, bool)>,
}

fn set_up(cfg: &Config, shape: &Shape) -> Result<Setup, String> {
    let runner = Runner::with_store(cfg.nproc, Arc::new(ResultStore::bounded(shape.store_cap)));
    let mut stream = CellStream::new(
        cfg.rng(cfg.workload.name()),
        shape.kind,
        shape.repeat_share,
        shape.window,
    );
    let planned: Vec<(Scenario, bool)> = (0..shape.plan).map(|_| stream.next_cell()).collect();
    for (cell, _) in &planned {
        let label = cell.label();
        cell.validate()
            .map_err(|e| format!("generated cell {label}: {e}"))?;
    }
    Ok(Setup {
        runner,
        stream,
        planned,
    })
}

fn stage_delta(before: &[StageStats], after: &[StageStats]) -> Vec<(u64, u64, u64)> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| {
            (
                a.hits - b.hits,
                a.misses - b.misses,
                a.evictions - b.evictions,
            )
        })
        .collect()
}

/// Emits the `core.stages.*` metrics from a stage-counter delta.
pub fn emit_stages(out: &mut Outcome, before: &[StageStats], after: &[StageStats]) {
    let delta = stage_delta(before, after);
    let mut evictions = 0;
    for (name, (hits, misses, evicted)) in STAGES.iter().zip(delta) {
        let lookups = (hits + misses) as usize;
        out.set(
            &format!("core.stages.{name}.hit_ratio"),
            ratio(hits as f64, lookups as f64),
            lookups,
        );
        out.set(&format!("core.stages.{name}.misses"), misses as f64, 1);
        evictions += evicted;
    }
    out.set("core.stages.evictions", evictions as f64, 1);
}

pub fn run(cfg: &Config) -> Outcome {
    let shape = shape(cfg);
    let mut out = Outcome::default();

    // Set up `SETUPS` times from scratch; their interquartile mean is
    // `setup_s` and the last set-up is the one measured. Stage caches start empty: every
    // `mcdla sweep` pays for filling them.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = set_up(cfg, &shape);
        setups.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let Some(Ok(Setup {
        runner,
        mut stream,
        planned,
    })) = kept
    else {
        out.tally.fail("set-up failed".into());
        return out;
    };
    out.set("setup_s", iqm(&setups), setups.len());

    let tracer = Tracer::new(false);
    let mut rec = tracer.recorder();
    let mut planned = planned.into_iter();
    let mut next_batch = |n: usize| -> Vec<(Scenario, bool)> {
        (0..n)
            .map(|_| planned.next().unwrap_or_else(|| stream.next_cell()))
            .collect()
    };
    let mut check_rng = cfg.rng("check");
    let mut to_check: Vec<(Scenario, IterationReport)> = Vec::new();
    let mut anchors: Vec<(Scenario, IterationReport)> = Vec::new();
    let mut last_grid: Vec<TimedRun> = Vec::new();
    let (mut cells, mut cached, mut repeats, mut routed) = (0usize, 0usize, 0usize, 0usize);
    let mut miss_ms: Vec<f64> = Vec::new();
    let (mut grid_time, mut busy) = (0.0f64, 0.0f64);
    let (mut queries, mut query_misses) = (0usize, 0usize);
    // Each grid is one sample of every end-to-end metric; the run
    // reports their interquartile means, which a burst of host noise
    // does not move.
    let mut per_grid = PerChunk::default();
    // (traced?, seconds per cell) of each grid, for the tracing overhead.
    let mut per_cell: Vec<(bool, f64)> = Vec::new();

    let store = Arc::clone(runner.store());
    let stages0 = stages::stage_stats();
    let store0 = store.stats();
    let main = HostClock::start();
    let mut grid_no = 0u64;
    while main.wall_s() < cfg.seconds {
        let batch = next_batch(shape.batch);
        repeats += batch.iter().filter(|(_, r)| *r).count();
        routed += batch.iter().filter(|(c, _)| c.topology.is_some()).count();
        let scenarios: Vec<Scenario> = batch.iter().map(|(c, _)| *c).collect();
        // Alternate traced and untraced grids so the traced run can
        // price its own tracing.
        let traced_grid = cfg.traced && grid_no % 2 == 1;
        tracer.set_on(traced_grid);
        let clock = HostClock::start();
        let got: Vec<TimedRun> = rec.span("runner.grid", grid_no, || {
            runner.run_grid_streaming(scenarios, 256).collect()
        });
        let dt = clock.wall_s();
        grid_time += dt;
        per_cell.push((traced_grid, dt / got.len().max(1) as f64));
        per_grid
            .rate
            .push(got.len() as f64 / (dt * (1.0 - clock.steal_share())));
        cells += got.len();
        let mut grid_miss_ms = Vec::new();
        for r in &got {
            if r.cached {
                cached += 1;
            } else {
                grid_miss_ms.push(r.wall.as_secs_f64() * 1e3);
                busy += r.wall.as_secs_f64();
            }
            if r.scenario.topology.is_some() && r.scenario.devices.is_some_and(|d| d <= 8) {
                anchors.push((r.scenario, r.report.clone()));
            } else if check_rng.below(shape.check_every as usize) == 0 {
                to_check.push((r.scenario, r.report.clone()));
            }
        }

        per_grid.add_misses(&grid_miss_ms);
        miss_ms.extend(grid_miss_ms);

        // Point queries of cells this grid produced: each must come
        // back from the store, bit-identical to the grid's answer.
        let mut hit_us = Vec::with_capacity(shape.queries);
        let t = Instant::now();
        for q in 0..shape.queries {
            let r = &got[check_rng.below(got.len())];
            let misses = store.misses();
            let t = Instant::now();
            let report = rec.span("runner.run", grid_no << 16 | q as u64, || {
                runner.run(r.scenario)
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            if store.misses() == misses {
                hit_us.push(us);
            } else {
                query_misses += 1;
            }
            out.tally.check(report == r.report, || {
                format!("point query changed {}", r.scenario.label())
            });
        }
        per_grid
            .req_rate
            .push(shape.queries as f64 / t.elapsed().as_secs_f64());
        queries += hit_us.len();
        per_grid.add_hits(&hit_us);
        out.tally.attempted += got.len() as u64;
        last_grid = got;
        grid_no += 1;
    }
    tracer.set_on(false);
    let stages1 = stages::stage_stats();
    let store1 = store.stats();
    let steal = main.steal_share();
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    per_grid.pool_misses_if_sparse(&miss_ms);
    per_grid.emit(&mut out, cells, queries, miss_ms.len());

    // Correctness: a seeded sample is bit-identical to the monolithic
    // engine, and single-backplane routed rings price like the
    // analytical fabric.
    tracer.set_on(cfg.traced);
    let started = Instant::now();
    let mut checked = 0usize;
    for (cell, report) in &to_check {
        if started.elapsed() > shape.check_budget {
            break;
        }
        let mono = rec.span("check.monolithic", checked as u64, || {
            cell.simulate_monolithic()
        });
        out.tally.check(&mono == report, || {
            format!("staged != monolithic for {}", cell.label())
        });
        checked += 1;
    }
    let mut worst_anchor = 0.0f64;
    for (cell, report) in &anchors {
        let analytical = Scenario {
            topology: None,
            ..*cell
        };
        let a = rec
            .span("check.anchor", 0, || analytical.simulate())
            .iteration_time
            .as_secs_f64();
        let rel = (report.iteration_time.as_secs_f64() - a).abs() / a;
        worst_anchor = worst_anchor.max(rel);
        out.tally.check(rel <= 1e-6, || {
            format!("routed ring off analytical by {rel:e} for {}", cell.label())
        });
    }

    let store_hits = store1.hits - store0.hits;
    let store_lookups = (store_hits + store1.misses - store0.misses) as usize;
    out.note(
        "traffic",
        Value::Map(vec![
            ("cells".into(), Value::U64(cells as u64)),
            ("grids".into(), Value::U64(grid_no)),
            (
                "repeat_share".into(),
                Value::F64(ratio(repeats as f64, cells as f64)),
            ),
            (
                "routed_share".into(),
                Value::F64(ratio(routed as f64, cells as f64)),
            ),
            ("anchor_cells".into(), Value::U64(anchors.len() as u64)),
            (
                "grid_hit_share".into(),
                Value::F64(ratio(cached as f64, cells as f64)),
            ),
            ("query_miss_count".into(), Value::U64(query_misses as u64)),
            ("stage_distinct_keys".into(), stage_map(&stages0, &stages1)),
            ("checked_monolithic".into(), Value::U64(checked as u64)),
            ("steal_share".into(), Value::F64(steal)),
            ("worst_anchor_rel_err".into(), Value::F64(worst_anchor)),
        ]),
    );

    if cfg.traced {
        emit_stages(&mut out, &stages0, &stages1);
        out.set(
            "core.runner.busy_frac",
            busy / (grid_time * runner.threads() as f64),
            miss_ms.len(),
        );
        // Every collective-table miss of a routed cell is one flow solve
        // (`RoutedFabric::collective_time`); only `fabric` routes cells.
        let collective = STAGES
            .iter()
            .position(|s| *s == "collective")
            .expect("a stage table");
        let solves = if routed > 0 {
            stages1[collective].misses - stages0[collective].misses
        } else {
            0
        };
        out.set("sim.flow.solves", solves as f64, 1);
        out.set(
            "core.runner.store_hit_ratio",
            ratio(cached as f64, cells as f64),
            cells,
        );
        out.set(
            "core.store.hit_ratio",
            ratio(store_hits as f64, store_lookups as f64),
            store_lookups,
        );
        out.set(
            "core.store.evictions",
            (store1.evictions - store0.evictions) as f64,
            1,
        );
        out.set(
            "core.store.dedup_waits",
            (store1.dedup_waits - store0.dedup_waits) as f64,
            1,
        );
        overhead(&mut out, &per_cell);

        // Layer probes, on cells the workload would meet next.
        tracer.set_on(true);
        let natural: Vec<Scenario> = (0..if cfg.small { 4 } else { 48 })
            .map(|_| stream.next_cell().0)
            .collect();
        let engine_p50 = probe::engine(&mut rec, &mut out, cfg.seed, &natural);
        let recent: Vec<(Scenario, IterationReport)> = last_grid
            .iter()
            .map(|r| (r.scenario, r.report.clone()))
            .collect();
        let resident = store_sample(&store, [&recent, &to_check, &anchors]);
        let (insert_p50, _) = probe::store(&mut rec, &mut out, &store, &resident, &cfg.scratch());
        probe::wire(&mut rec, &mut out, &resident);
        drop(rec);
        let mut counters = ServeCounters::default();
        let (worker_rtt, _) = probe::common(&tracer, &mut out, cfg.seed, &mut counters);
        counters.emit(&mut out);
        loop_remainder(&mut out, worker_rtt);
        // A simulated grid cell is the engine plus a store insert.
        let e2e = median(&miss_ms) * 1e3;
        out.set(
            "trace.unexplained_frac",
            (e2e - engine_p50 - insert_p50) / e2e,
            miss_ms.len(),
        );
        finish_trace(cfg, &tracer, &mut out);
    }
    out
}

/// Stage misses per table (distinct keys built, for a fresh process).
pub fn stage_map(before: &[StageStats], after: &[StageStats]) -> Value {
    Value::Map(
        STAGES
            .iter()
            .zip(stage_delta(before, after))
            .map(|(n, (_, misses, _))| (n.to_string(), Value::U64(misses)))
            .collect(),
    )
}

/// Up to 1000 distinct resident `(cell, report)` pairs for the store
/// probes, most recent first.
fn store_sample(
    store: &ResultStore,
    sources: [&[(Scenario, IterationReport)]; 3],
) -> Vec<(Scenario, IterationReport)> {
    let mut seen = std::collections::HashSet::new();
    sources
        .into_iter()
        .flat_map(|s| s.iter().rev())
        .filter(|(c, _)| store.contains(c) && seen.insert(*c))
        .take(1000)
        .cloned()
        .collect()
}

/// `trace.overhead_frac` from alternating untraced/traced chunks: the
/// median over adjacent pairs of traced over untraced time per op, less 1.
pub fn overhead(out: &mut Outcome, chunks: &[(bool, f64)]) {
    let pairs: Vec<f64> = chunks
        .chunks_exact(2)
        .filter(|p| !p[0].0 && p[1].0 && p[0].1 > 0.0)
        .map(|p| p[1].1 / p[0].1 - 1.0)
        .collect();
    out.set("trace.overhead_frac", median(&pairs), pairs.len());
}

/// Worker round trip minus the parts the probes priced separately.
pub fn loop_remainder(out: &mut Outcome, worker_rtt: f64) {
    let part = |name: &str| out.metrics.get(name).map_or(f64::NAN, |m| m.value);
    let rest = worker_rtt
        - part("serve.decode_us_p50")
        - part("core.store.get_us_p50")
        - part("serve.encode_us_p50");
    out.set("serve.loop_remainder_us", rest, 1);
}

/// Writes the run's spans and records per-layer self times.
pub fn finish_trace(cfg: &Config, tracer: &Tracer, out: &mut Outcome) {
    let spans = tracer.spans();
    let path = cfg.trace_path();
    if let Err(e) = tracer.write_ndjson(&path) {
        out.tally.fail(format!("writing {}: {e}", path.display()));
    }
    let selfs = trace::self_times(&spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Value::Map(vec![
                    ("count".into(), Value::U64(t.count)),
                    ("self_ms".into(), Value::F64(t.self_ns as f64 / 1e6)),
                    ("total_ms".into(), Value::F64(t.total_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    out.note("self_time", Value::Map(selfs));
    out.note("trace_file", Value::Str(path.display().to_string()));
}
