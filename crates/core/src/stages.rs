//! The staged scenario pipeline: sub-cell memoization over the engine's
//! stage artifacts.
//!
//! [`Scenario::simulate`](crate::Scenario::simulate) runs through four
//! explicit stages, each backed by a process-global
//! [`StageCache`] (the [`ResultStore`](crate::ResultStore)
//! machinery — one lock per table, capacity bound, LRU eviction,
//! single-flight — generic over key and value):
//!
//! 1. **Fabric summary** — the [`CommFabric`] the
//!    configuration synchronizes over (analytical, or flow-routed when
//!    the `topology` axis is set), keyed by `(design, devices,
//!    generation, device model, pcie_gen4, topology)`: every input the
//!    fabric derivation reads. A mega-grid sweeping batch over a few
//!    designs touches this a handful of times, not once per cell.
//! 2. **Layer timing** — the dnn-zoo walk and per-layer compute times,
//!    split into four sub-tables keyed by exactly the axes each depends
//!    on: the network topology (`benchmark`), the per-layer
//!    forward/backward durations (`benchmark × device × worker batch`),
//!    the bucket-fused worker plan (`benchmark × strategy × devices ×
//!    global batch`, with the batch axis *normalized away* for
//!    batch-invariant data-parallel plans), and the overlay schedule
//!    (`benchmark × virt batch × virtualizing?`).
//! 3. **Collective cost** — memoized for routed cells only. An
//!    analytical cell (`topology` unset) prices each fused sync op
//!    inline during assembly, as the monolithic path does: the closed
//!    form over a few rings is cheaper than a locked lookup. A routed
//!    cell's ops are flow solves, so two tables amortize them. The
//!    `collective` table holds one collective's latency, keyed by
//!    `(fabric summary, kind, gradient bytes)`; data-parallel dW buckets
//!    are batch-invariant, so a batch sweep hits it after the first cell
//!    per fabric. The `sync` table above it holds a plan's whole fused
//!    sync-op cost vector, keyed by `(fabric summary, worker plan)` —
//!    one lookup per cell instead of one per op, with misses reading
//!    through the per-op table. Both paths price an op with the same
//!    function the monolithic path uses, so reports stay bit-identical.
//! 4. **Report assembly** — the lean event-loop replay
//!    ([`assemble`](crate::IterationSim)), uncached: per-cell knobs
//!    (compression, pinned-budget overrides) enter only here.
//!
//! Keys are derived purely from scenario axes, which is sound because
//! every [`SystemConfig`](crate::SystemConfig) field a stage reads is a function of those
//! axes (the data type never varies across scenarios, and the device
//! config depends only on the generation/model overrides). Each table is
//! bounded by a fixed entry count (`docs/engine.md` lists them), and
//! every hit/miss/eviction is reported through
//! [`StoreStats::stages`](crate::StoreStats), `GET /stats`,
//! `GET /metrics`, and the sweep summary.

use std::sync::{Arc, OnceLock};

use mcdla_accel::{AccelTimingModel, DeviceGeneration};
use mcdla_dnn::{Benchmark, Network};
use mcdla_interconnect::{CollectiveKind, FabricTopology};
use mcdla_obs::{Histogram, HistogramSnapshot, Span};
use mcdla_parallel::{ParallelStrategy, SyncOp, WorkerPlan};
use mcdla_sim::SimDuration;
use mcdla_vmem::{VirtPolicy, VirtSchedule};

use crate::design::SystemDesign;
use crate::engine::{
    assemble, build_fabric, layer_timings, price_collective, xfer_table, CommFabric, NetShape,
    PlanArt, SchedArt,
};
use crate::report::IterationReport;
use crate::scenario::{DeviceModel, Scenario};
use crate::store::{StageCache, StageStats};
use crate::virt_path::VirtPath;

/// The device-identity axes: the device config is a pure function of
/// these two overrides (every design uses the same calibrated baseline).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct DeviceKey {
    generation: Option<DeviceGeneration>,
    model: Option<DeviceModel>,
}

/// Stage-1 key: everything the fabric derivation reads. The topology
/// axis selects between the analytical and the flow-level routed
/// fabric, so the summary must key on it.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct FabricKey {
    design: SystemDesign,
    devices: usize,
    device: DeviceKey,
    pcie_gen4: bool,
    topology: Option<FabricTopology>,
}

/// Per-layer timing key: the device and the per-device batch.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct TimingKey {
    benchmark: Benchmark,
    device: DeviceKey,
    worker_batch: u64,
}

/// Worker-plan key: design-independent (the plan partitions work, not
/// hardware). `global_batch` is *normalized to zero* for data-parallel
/// plans: their artifact is provably batch-invariant ([`PlanArt`] is
/// batch-free and data-parallel sync ops carry weight bytes), so a
/// batch sweep shares one plan per `(benchmark, devices)` instead of
/// missing on every batch.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    benchmark: Benchmark,
    strategy: ParallelStrategy,
    devices: usize,
    global_batch: u64,
}

impl PlanKey {
    fn of(benchmark: Benchmark, strategy: ParallelStrategy, devices: usize, batch: u64) -> PlanKey {
        let global_batch = match strategy {
            // Model-parallel sync ops carry activation bytes at the
            // global batch — genuinely batch-dependent.
            ParallelStrategy::ModelParallel => batch,
            ParallelStrategy::DataParallel => 0,
        };
        PlanKey {
            benchmark,
            strategy,
            devices,
            global_batch,
        }
    }
}

/// Overlay-schedule key: designs split only into virtualizing and not.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct SchedKey {
    benchmark: Benchmark,
    virt_batch: u64,
    virtualizes: bool,
}

/// Stage-3 key: the fabric identity plus the collective's shape.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct CollKey {
    fabric: FabricKey,
    kind: CollectiveKind,
    bytes: u64,
}

/// Key for a plan's whole sync-op cost vector: the fabric the
/// collectives run over plus the plan whose fused op list they price.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct SyncKey {
    fabric: FabricKey,
    plan: PlanKey,
}

/// Fabric artifact: the communication fabric plus the design's
/// virtualization data path.
struct FabricArt {
    fabric: Arc<dyn CommFabric>,
    virt: Option<VirtPath>,
}

/// Network topology artifact: the built network and its packed
/// input/consumer lists.
struct NetTopo {
    net: Network,
    shape: NetShape,
}

impl NetTopo {
    fn build(benchmark: Benchmark) -> NetTopo {
        let net = benchmark.build();
        let shape = NetShape::of(&net);
        NetTopo { net, shape }
    }
}

/// The process-global stage tables. One set per process: the staged
/// pipeline is deterministic and scenario-keyed, so sharing across
/// stores, runners, and serve handlers is free extra hit rate.
struct StagePipeline {
    fabrics: StageCache<FabricKey, Arc<FabricArt>>,
    networks: StageCache<Benchmark, Arc<NetTopo>>,
    timings: StageCache<TimingKey, Arc<Vec<(SimDuration, SimDuration)>>>,
    plans: StageCache<PlanKey, Arc<PlanArt>>,
    schedules: StageCache<SchedKey, Arc<SchedArt>>,
    collectives: StageCache<CollKey, SimDuration>,
    syncs: StageCache<SyncKey, Arc<Vec<SimDuration>>>,
    hists: StageHists,
}

/// Latency histograms per pipeline section (lookup + compute-on-miss
/// per stage table, plus the uncached assembly replay). Pre-registered
/// `Arc<Histogram>` handles so the hot path never touches a map or
/// lock; observation is gated behind `mcdla_obs::enabled()` by the
/// `Span` guards, so batch sweeps pay one atomic load per section.
struct StageHists {
    fabric: Arc<Histogram>,
    network: Arc<Histogram>,
    layer_timing: Arc<Histogram>,
    plan: Arc<Histogram>,
    schedule: Arc<Histogram>,
    sync: Arc<Histogram>,
    assemble: Arc<Histogram>,
}

impl StageHists {
    fn new() -> StageHists {
        StageHists {
            fabric: Arc::new(Histogram::new()),
            network: Arc::new(Histogram::new()),
            layer_timing: Arc::new(Histogram::new()),
            plan: Arc::new(Histogram::new()),
            schedule: Arc::new(Histogram::new()),
            sync: Arc::new(Histogram::new()),
            assemble: Arc::new(Histogram::new()),
        }
    }
}

/// Entry bounds of the stage tables, in [`stage_stats`] order. Only
/// routed cells fill the `collective` and `sync` tables.
const FABRIC_CAP: usize = 4096;
const NETWORK_CAP: usize = 64;
const TIMING_CAP: usize = 8192;
const PLAN_CAP: usize = 8192;
const SCHEDULE_CAP: usize = 8192;
const COLLECTIVE_CAP: usize = 65536;
const SYNC_CAP: usize = 8192;

impl StagePipeline {
    fn new() -> StagePipeline {
        StagePipeline {
            fabrics: StageCache::bounded(FABRIC_CAP),
            networks: StageCache::bounded(NETWORK_CAP),
            timings: StageCache::bounded(TIMING_CAP),
            plans: StageCache::bounded(PLAN_CAP),
            schedules: StageCache::bounded(SCHEDULE_CAP),
            collectives: StageCache::bounded(COLLECTIVE_CAP),
            syncs: StageCache::bounded(SYNC_CAP),
            hists: StageHists::new(),
        }
    }

    /// A pipeline with every table bounded to `cap` entries.
    #[cfg(test)]
    fn with_cap(cap: usize) -> StagePipeline {
        StagePipeline {
            fabrics: StageCache::bounded(cap),
            networks: StageCache::bounded(cap),
            timings: StageCache::bounded(cap),
            plans: StageCache::bounded(cap),
            schedules: StageCache::bounded(cap),
            collectives: StageCache::bounded(cap),
            syncs: StageCache::bounded(cap),
            hists: StageHists::new(),
        }
    }

    /// Counters for every table, in [`stage_stats`] order.
    fn stats(&self) -> Vec<StageStats> {
        vec![
            self.fabrics.stats("fabric"),
            self.networks.stats("network"),
            self.timings.stats("layer_timing"),
            self.plans.stats("plan"),
            self.schedules.stats("schedule"),
            self.collectives.stats("collective"),
            self.syncs.stats("sync"),
        ]
    }
}

fn pipeline() -> &'static StagePipeline {
    static PIPELINE: OnceLock<StagePipeline> = OnceLock::new();
    PIPELINE.get_or_init(StagePipeline::new)
}

/// Latency snapshots per pipeline section, in fixed display order:
/// the six spanned stage tables (per-op `collective` lookups run
/// inside the `sync` section and are not timed individually; `sync`
/// sees routed cells only, since an analytical cell prices its
/// collectives inside `assemble`) plus the uncached `assemble` replay.
/// Feeds the `mcdla_stage_seconds` Prometheus family on `GET /metrics`.
/// Populated only while span recording is enabled
/// (`mcdla_obs::set_enabled`, flipped on by the servers) — batch sweeps
/// leave these empty by design.
pub fn stage_latency() -> Vec<(&'static str, HistogramSnapshot)> {
    let h = &pipeline().hists;
    vec![
        ("fabric", h.fabric.snapshot()),
        ("network", h.network.snapshot()),
        ("layer_timing", h.layer_timing.snapshot()),
        ("plan", h.plan.snapshot()),
        ("schedule", h.schedule.snapshot()),
        ("sync", h.sync.snapshot()),
        ("assemble", h.assemble.snapshot()),
    ]
}

/// Counters for every stage table, in fixed display order. Feeds
/// [`StoreStats::stages`](crate::StoreStats), `GET /stats`,
/// `GET /metrics`, and the sweep summary.
pub fn stage_stats() -> Vec<StageStats> {
    pipeline().stats()
}

/// Simulates one cell through the staged pipeline. Bit-identical to
/// [`Scenario::simulate_monolithic`](crate::Scenario::simulate_monolithic):
/// the stages cache exactly the artifacts the monolithic path builds
/// fresh, and [`assemble`](crate::IterationSim) replays the identical
/// event loop over them.
pub fn simulate(scenario: &Scenario) -> IterationReport {
    simulate_in(pipeline(), scenario)
}

/// [`simulate`] over the tables of `p`.
fn simulate_in(p: &StagePipeline, scenario: &Scenario) -> IterationReport {
    let _engine = Span::enter("engine.simulate");
    let cfg = scenario.config();
    let device = DeviceKey {
        generation: scenario.generation,
        model: scenario.overrides.device_model,
    };

    let (topo, _) = {
        let _s = Span::enter_timed("stage.network", &p.hists.network);
        p.networks.get_or_compute(scenario.benchmark, || {
            Arc::new(NetTopo::build(scenario.benchmark))
        })
    };

    // The per-worker (and overlay) batch is a closed-form function of
    // the axes — computed here rather than stored in the plan artifact,
    // which keeps the artifact batch-invariant for data parallelism.
    let worker_batch = match scenario.strategy {
        ParallelStrategy::DataParallel => cfg.global_batch / cfg.devices as u64,
        ParallelStrategy::ModelParallel => cfg.global_batch,
    };

    let plan_key = PlanKey::of(
        scenario.benchmark,
        scenario.strategy,
        cfg.devices,
        cfg.global_batch,
    );
    let (plan, _) = {
        let _s = Span::enter_timed("stage.plan", &p.hists.plan);
        p.plans.get_or_compute(plan_key, || {
            let plan = WorkerPlan::plan(
                &topo.net,
                scenario.strategy,
                cfg.devices,
                cfg.global_batch,
                cfg.dtype,
            );
            Arc::new(PlanArt::build(&plan, topo.net.layers().len(), &cfg))
        })
    };

    let timing_key = TimingKey {
        benchmark: scenario.benchmark,
        device,
        worker_batch,
    };
    let (timings, _) = {
        let _s = Span::enter_timed("stage.layer_timing", &p.hists.layer_timing);
        p.timings.get_or_compute(timing_key, || {
            let timing = AccelTimingModel::new(cfg.device.clone(), cfg.dtype);
            Arc::new(layer_timings(&timing, &topo.net, worker_batch))
        })
    };

    let virtualizes = cfg.design.virtualizes();
    let sched_key = SchedKey {
        benchmark: scenario.benchmark,
        virt_batch: worker_batch,
        virtualizes,
    };
    let (sched, _) = {
        let _s = Span::enter_timed("stage.schedule", &p.hists.schedule);
        p.schedules.get_or_compute(sched_key, || {
            let policy = if virtualizes {
                VirtPolicy::paper_default()
            } else {
                VirtPolicy::disabled()
            };
            let schedule = VirtSchedule::analyze(&topo.net, worker_batch, cfg.dtype, policy);
            Arc::new(SchedArt::build(
                &schedule,
                &topo.net,
                worker_batch,
                cfg.dtype,
            ))
        })
    };

    let fabric_key = FabricKey {
        design: scenario.design,
        devices: cfg.devices,
        device,
        pcie_gen4: scenario.overrides.pcie_gen4,
        topology: scenario.topology,
    };
    let (fabric, _) = {
        let _s = Span::enter_timed("stage.fabric", &p.hists.fabric);
        p.fabrics.get_or_compute(fabric_key, || {
            Arc::new(FabricArt {
                fabric: build_fabric(&cfg),
                virt: VirtPath::from_config(&cfg),
            })
        })
    };
    let fabric = &*fabric;
    let virt = fabric.virt.as_ref();

    // The overlay-transfer table depends on the schedule's virt batch,
    // so a batch sweep can never reuse it across cells — computing it
    // inline is cheaper than a table that would miss every time.
    let xfer = xfer_table(&sched, plan.stash_scale, cfg.compression_ratio, virt);

    // An analytical cell prices its sync ops inline, as the monolithic
    // path does: the closed form over a few rings costs less than a
    // locked table lookup. Only a routed cell, whose ops are flow
    // solves, goes through the `sync` table and, on a miss, the per-op
    // `collective` table.
    let price = |op: &SyncOp| price_collective(&*fabric.fabric, plan.workers, op.kind, op.bytes);
    let routed = fabric_key.topology.map(|_| {
        let _s = Span::enter_timed("stage.sync", &p.hists.sync);
        let key = SyncKey {
            fabric: fabric_key,
            plan: plan_key,
        };
        p.syncs
            .get_or_compute(key, || {
                Arc::new(
                    plan.fused
                        .iter()
                        .map(|op| {
                            let key = CollKey {
                                fabric: fabric_key,
                                kind: op.kind,
                                bytes: op.bytes,
                            };
                            p.collectives.get_or_compute(key, || price(op)).0
                        })
                        .collect(),
                )
            })
            .0
    });
    let collective = |oi: usize| match &routed {
        Some(sync) => sync[oi],
        None => price(&plan.fused[oi]),
    };

    let _s = Span::enter_timed("engine.assemble", &p.hists.assemble);
    assemble(
        &cfg,
        &topo.net,
        &topo.shape,
        &timings,
        &plan,
        &sched,
        &xfer,
        virt,
        &collective,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdla_parallel::ParallelStrategy;

    #[test]
    fn staged_matches_monolithic_on_a_paper_cell() {
        let cell = Scenario::new(
            SystemDesign::McDlaBwAware,
            Benchmark::GoogLeNet,
            ParallelStrategy::DataParallel,
        );
        assert_eq!(simulate(&cell), cell.simulate_monolithic());
        // Second pass: every stage is warm, result unchanged.
        assert_eq!(simulate(&cell), cell.simulate_monolithic());
    }

    #[test]
    fn stage_tables_amortize_across_designs() {
        // Two designs at the same batch share network, plan, timing and
        // schedule artifacts; only fabric splits.
        let before: u64 = stage_stats().iter().map(|s| s.misses).sum();
        let batch = 4096;
        for design in [SystemDesign::DcDla, SystemDesign::McDlaLocal] {
            let cell = Scenario::new(design, Benchmark::AlexNet, ParallelStrategy::DataParallel)
                .with_batch(batch);
            assert_eq!(simulate(&cell), cell.simulate_monolithic());
        }
        let stats = stage_stats();
        let after: u64 = stats.iter().map(|s| s.misses).sum();
        let hits_after: u64 = stats.iter().map(|s| s.hits).sum();
        assert!(
            after > before,
            "fresh axes must populate the tables: {stats:?}"
        );
        assert!(hits_after > 0, "shared artifacts must hit: {stats:?}");
    }

    #[test]
    fn staged_matches_monolithic_across_a_batch_grid() {
        // The batch-invariant plan key must be *identity-preserving*:
        // serving one data-parallel plan artifact to every batch in a
        // sweep may never change a single report bit. Pin staged ==
        // monolithic over a batch grid on both strategies.
        for strategy in [
            ParallelStrategy::DataParallel,
            ParallelStrategy::ModelParallel,
        ] {
            for batch in [64u64, 128, 512, 1024, 4096] {
                let cell = Scenario::new(SystemDesign::DcDla, Benchmark::GoogLeNet, strategy)
                    .with_batch(batch);
                assert_eq!(
                    simulate(&cell),
                    cell.simulate_monolithic(),
                    "{strategy:?}/batch{batch}"
                );
            }
        }
    }

    #[test]
    fn data_parallel_plans_are_shared_across_batches() {
        // A data-parallel batch sweep normalizes the plan key, so after
        // the first cell the plan (and, for the routed copy, sync) tables
        // must hit, not miss. A private pipeline keeps tests running in
        // parallel out of the counters.
        let p = StagePipeline::new();
        let misses = || p.plans.stats("plan").misses + p.syncs.stats("sync").misses;
        let warm = Scenario::new(
            SystemDesign::McDlaStar,
            Benchmark::ResNet,
            ParallelStrategy::DataParallel,
        );
        let cells = [warm, warm.with_topology(FabricTopology::Ring)];
        for cell in cells {
            let _ = simulate_in(&p, &cell.with_batch(256));
        }
        let misses_before = misses();
        for batch in [64u64, 128, 1024, 2048] {
            for cell in cells {
                let _ = simulate_in(&p, &cell.with_batch(batch));
            }
        }
        let misses_after = misses();
        assert_eq!(
            misses_before, misses_after,
            "data-parallel plan/sync artifacts must be batch-invariant"
        );
        assert_eq!(
            p.syncs.stats("sync").hits,
            4,
            "the routed copy reuses its sync vector"
        );
    }

    #[test]
    fn analytical_cells_skip_the_sync_tables() {
        // An analytical cell prices its collectives inline, so it may
        // never touch the `sync` or `collective` table, on any pricing
        // path: silent (1 device), backplane rings (2-8 devices), the
        // MC-DLA scale-out plane and the DC/HC-DLA PCIe rings (64
        // devices). A routed cell still goes through both.
        let p = StagePipeline::new();
        let lookups = |s: StageStats| s.hits + s.misses;
        let mut cells = Vec::new();
        for strategy in ParallelStrategy::ALL {
            let cell = |design| Scenario::new(design, Benchmark::AlexNet, strategy);
            cells.push(cell(SystemDesign::McDlaBwAware).with_devices(1));
            for devices in [2, 4, 8] {
                for design in SystemDesign::ALL {
                    cells.push(cell(design).with_devices(devices));
                }
            }
            cells.push(cell(SystemDesign::McDlaBwAware).with_devices(16));
            cells.push(cell(SystemDesign::DcDla).with_devices(64));
            cells.push(cell(SystemDesign::HcDla).with_devices(64));
        }
        for cell in &cells {
            assert_eq!(
                simulate_in(&p, cell),
                cell.simulate_monolithic(),
                "{cell:?}"
            );
        }
        assert_eq!(lookups(p.syncs.stats("sync")), 0, "analytical sync lookups");
        assert_eq!(
            lookups(p.collectives.stats("collective")),
            0,
            "analytical collective lookups"
        );

        let routed = Scenario::new(
            SystemDesign::McDlaBwAware,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        )
        .with_devices(16)
        .with_topology(FabricTopology::Ring);
        assert_eq!(simulate_in(&p, &routed), routed.simulate_monolithic());
        let (sync, coll) = (p.syncs.stats("sync"), p.collectives.stats("collective"));
        assert_eq!((sync.hits, sync.misses), (0, 1), "{sync:?}");
        assert!(coll.misses > 0, "{coll:?}");
        let _ = simulate_in(&p, &routed);
        let (sync, again) = (p.syncs.stats("sync"), p.collectives.stats("collective"));
        assert_eq!((sync.hits, sync.misses), (1, 1), "{sync:?}");
        assert_eq!(lookups(again), lookups(coll), "a sync hit reads no op");
    }

    #[test]
    fn staged_matches_monolithic_with_every_table_capped_at_one() {
        // Each table holds one entry, so every new key evicts the last.
        // The cells span analytical pricing (1 to 4,096 devices), routed
        // fabrics (2 to 64 devices on all five topologies), both
        // strategies and two benchmarks, so every table sees more than
        // one key; two interleaved passes re-simulate each cell after
        // its artifacts were evicted.
        let p = StagePipeline::with_cap(1);
        let mut cells = Vec::new();
        for strategy in ParallelStrategy::ALL {
            for benchmark in [Benchmark::AlexNet, Benchmark::GoogLeNet] {
                let cell = |design| Scenario::new(design, benchmark, strategy);
                for devices in [1, 2, 8, 64, 4096] {
                    for design in [SystemDesign::DcDla, SystemDesign::McDlaBwAware] {
                        let batch = 512.max(devices as u64);
                        cells.push(cell(design).with_devices(devices).with_batch(batch));
                    }
                }
                for (topology, design) in FabricTopology::ALL.into_iter().zip(SystemDesign::ALL) {
                    for devices in [2, 16, 64] {
                        cells.push(cell(design).with_devices(devices).with_topology(topology));
                    }
                }
            }
        }
        for cell in cells.iter().chain(&cells) {
            assert_eq!(
                simulate_in(&p, cell),
                cell.simulate_monolithic(),
                "{cell:?}"
            );
        }
        for table in p.stats() {
            assert_eq!(table.entries, 1, "{table:?}");
            assert!(table.evictions > 0, "{table:?}");
        }
    }

    #[test]
    fn topology_splits_the_fabric_key() {
        // Same design, different topology: the staged path must not
        // serve the analytical fabric's sync costs to a flow-routed
        // cell (or vice versa) — and both must match their monolithic
        // reference.
        let base = Scenario::new(
            SystemDesign::DcDla,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        )
        .with_devices(64)
        .with_batch(512);
        let routed = base.with_topology(FabricTopology::Ring);
        let a = simulate(&base);
        let r = simulate(&routed);
        assert_eq!(a, base.simulate_monolithic());
        assert_eq!(r, routed.simulate_monolithic());
        // The two fabrics genuinely price differently at this scale
        // (the analytical model throttles every hop to the PCIe share;
        // the flow fabric only throttles the escape crossings), so a
        // shared cache entry would be observable.
        assert_ne!(
            r.sync_busy, a.sync_busy,
            "flow-routed and analytical cells must not share sync costs"
        );
    }

    #[test]
    fn stage_stats_lists_every_stage_once() {
        let names: Vec<String> = stage_stats().into_iter().map(|s| s.stage).collect();
        assert_eq!(
            names,
            [
                "fabric",
                "network",
                "layer_timing",
                "plan",
                "schedule",
                "collective",
                "sync"
            ]
        );
    }

    #[test]
    fn stage_tables_keep_their_fixed_capacities() {
        let caps: Vec<Option<u64>> = stage_stats().into_iter().map(|s| s.capacity).collect();
        let expected = [4096, 64, 8192, 8192, 8192, 65536, 8192].map(Some);
        assert_eq!(caps, expected);
    }
}
