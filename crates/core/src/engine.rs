//! The training-iteration simulator.
//!
//! Simulates one iteration (forward + backward propagation) of a network on
//! one system design point, with the three overlapped activities the paper
//! breaks out in Fig. 11 running on separate per-device engines:
//!
//! * **computation** — the PE array executes layers in topological order
//!   (reverse order for backpropagation);
//! * **synchronization** — the protocol engine runs ring collectives; for
//!   model-parallel training the boundary collectives *block* the next
//!   layer, for data-parallel training the dW all-reduces overlap freely;
//! * **memory virtualization** — the DMA unit offloads every scheduled
//!   stash after its last forward use and prefetches it (with lookahead)
//!   before its backward use; forward compute stalls when the
//!   pinned-buffer budget of in-flight offloads is exhausted (the vDNN
//!   behavior).
//!
//! All devices execute the same schedule in lock-step, so shared-channel
//! contention reduces to the static division computed by
//! [`VirtPath`] (validated against the fluid-flow solver
//! in that module's tests), and simulating one representative device yields
//! the node-level timeline.
//!
//! # Staging
//!
//! The simulation is organized as a staged pipeline: the expensive
//! network-, plan-, schedule-, and fabric-dependent preparation is
//! captured in plain-data **artifacts** ([`PlanArt`], [`SchedArt`],
//! the [`CommFabric`] from [`build_fabric`], the consumer lists, and the
//! per-layer timing table), and a lean, uncached [`assemble`] pass
//! replays the event loop over them. [`IterationSim::run`] builds every
//! artifact from scratch — the monolithic reference path — while
//! [`crate::stages`] memoizes each artifact in a
//! [`StageCache`](crate::StageCache) keyed by exactly the scenario axes
//! it depends on, so a mega-grid that varies one knob rebuilds only the
//! artifacts that knob actually touches.

use std::sync::Arc;

use mcdla_accel::AccelTimingModel;
use mcdla_dnn::{DataType, Network};
use mcdla_interconnect::{
    CollectiveKind, CollectiveModel, FabricSpec, FabricTopology, RingShape, RoutedFabric,
};
use mcdla_parallel::{ParallelStrategy, SyncOp, SyncTrigger, WorkerPlan};
use mcdla_sim::{Bytes, FifoEngine, SimDuration, SimTime};
use mcdla_vmem::{Disposition, VirtPolicy, VirtSchedule};

use crate::design::{SystemConfig, SystemDesign, BACKPLANE_DEVICES};
use crate::report::IterationReport;
use crate::virt_path::VirtPath;

/// Simulator for one (design, network, strategy) combination.
///
/// # Examples
///
/// ```
/// use mcdla_core::{IterationSim, SystemConfig, SystemDesign};
/// use mcdla_dnn::Benchmark;
/// use mcdla_parallel::ParallelStrategy;
///
/// let net = Benchmark::AlexNet.build();
/// let dc = IterationSim::new(SystemConfig::new(SystemDesign::DcDla), &net,
///     ParallelStrategy::DataParallel).run();
/// let mc = IterationSim::new(SystemConfig::new(SystemDesign::McDlaBwAware), &net,
///     ParallelStrategy::DataParallel).run();
/// assert!(mc.iteration_time < dc.iteration_time);
/// ```
#[derive(Debug)]
pub struct IterationSim<'a> {
    cfg: SystemConfig,
    net: &'a Network,
    plan: WorkerPlan,
    schedule: VirtSchedule,
    timing: AccelTimingModel,
    fabric: Arc<dyn CommFabric>,
    virt: Option<VirtPath>,
}

impl<'a> IterationSim<'a> {
    /// Prepares a simulation with the paper's default overlay policy.
    pub fn new(cfg: SystemConfig, net: &'a Network, strategy: ParallelStrategy) -> Self {
        let policy = if cfg.design.virtualizes() {
            VirtPolicy::paper_default()
        } else {
            VirtPolicy::disabled()
        };
        IterationSim::with_policy(cfg, net, strategy, policy)
    }

    /// Prepares a simulation with an explicit overlay policy (ablations;
    /// the oracle design always ignores the policy and disables overlay).
    pub(crate) fn with_policy(
        cfg: SystemConfig,
        net: &'a Network,
        strategy: ParallelStrategy,
        policy: VirtPolicy,
    ) -> Self {
        let plan = WorkerPlan::plan(net, strategy, cfg.devices, cfg.global_batch, cfg.dtype);
        let policy = if cfg.design.virtualizes() {
            policy
        } else {
            VirtPolicy::disabled()
        };
        let schedule = VirtSchedule::analyze(net, plan.virt_batch(), cfg.dtype, policy);
        let timing = AccelTimingModel::new(cfg.device.clone(), cfg.dtype);
        let fabric = build_fabric(&cfg);
        let virt = VirtPath::from_config(&cfg);
        IterationSim {
            cfg,
            net,
            plan,
            schedule,
            timing,
            fabric,
            virt,
        }
    }

    /// Duration of one collective under this design's fabric.
    pub(crate) fn collective_time(&self, kind: CollectiveKind, bytes: u64) -> SimDuration {
        price_collective(&*self.fabric, self.plan.workers, kind, bytes)
    }

    /// Runs the iteration and produces the report: builds every stage
    /// artifact from scratch, then assembles. This is the monolithic
    /// reference the staged pipeline ([`crate::stages`]) must match
    /// bit-for-bit.
    pub fn run(&self) -> IterationReport {
        let shape = NetShape::of(self.net);
        let timings = layer_timings(&self.timing, self.net, self.plan.worker_batch);
        let plan_art = PlanArt::build(&self.plan, self.net.layers().len(), &self.cfg);
        let sched_art = SchedArt::build(
            &self.schedule,
            self.net,
            self.plan.virt_batch(),
            self.cfg.dtype,
        );
        let xfer = xfer_table(
            &sched_art,
            plan_art.stash_scale,
            self.cfg.compression_ratio,
            self.virt.as_ref(),
        );
        assemble(
            &self.cfg,
            self.net,
            &shape,
            &timings,
            &plan_art,
            &sched_art,
            &xfer,
            self.virt.as_ref(),
            &|oi| {
                let op = &plan_art.fused[oi];
                self.collective_time(op.kind, op.bytes)
            },
        )
    }
}

/// Compressed sparse rows: per-layer `u32` index lists packed into two
/// flat arrays. The artifact builders run once per stage-cache miss but
/// a mega-grid makes millions of misses, and a `Vec<Vec<u32>>` costs one
/// allocation per layer; this costs two per artifact and keeps the
/// assembly loop's reads contiguous.
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
    /// Row boundaries: row `l` spans `idx[off[l]..off[l + 1]]`.
    off: Vec<u32>,
    idx: Vec<u32>,
}

impl Csr {
    /// Packs `(row, value)` pairs, preserving each row's pair order
    /// (the counting sort below is stable).
    fn from_pairs(rows: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut off = vec![0u32; rows + 1];
        for &(r, _) in pairs {
            off[r as usize + 1] += 1;
        }
        for i in 0..rows {
            off[i + 1] += off[i];
        }
        let mut idx = vec![0u32; pairs.len()];
        let mut cursor: Vec<u32> = off[..rows].to_vec();
        for &(r, v) in pairs {
            let c = &mut cursor[r as usize];
            idx[*c as usize] = v;
            *c += 1;
        }
        Csr { off, idx }
    }

    pub(crate) fn row(&self, l: usize) -> &[u32] {
        &self.idx[self.off[l] as usize..self.off[l + 1] as usize]
    }
}

/// Stage-2 artifact (network shape): per-layer input lists (so the
/// assembly loop never walks the full `Layer` structs) and their
/// transpose — `consumers.row(l)` lists the layers that read layer `l`'s
/// output, the backward-pass dependency fan-in.
#[derive(Debug, Clone)]
pub(crate) struct NetShape {
    pub inputs: Csr,
    pub consumers: Csr,
}

impl NetShape {
    pub(crate) fn of(net: &Network) -> NetShape {
        let n = net.layers().len();
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        let mut bwd: Vec<(u32, u32)> = Vec::new();
        for layer in net.layers() {
            let l = layer.id().index() as u32;
            for &p in layer.inputs() {
                fwd.push((l, p.index() as u32));
                bwd.push((p.index() as u32, l));
            }
        }
        NetShape {
            inputs: Csr::from_pairs(n, &fwd),
            consumers: Csr::from_pairs(n, &bwd),
        }
    }
}

/// Stage-2 artifact (layer timing): per-layer `(forward, backward)`
/// durations at `worker_batch`, **unscaled** — [`assemble`] applies
/// `macs_scale` exactly where the monolithic loop did, so caching the
/// table cannot perturb a single float operation. A layer's recompute
/// cost equals its forward time, so the pair covers all three uses.
pub(crate) fn layer_timings(
    timing: &AccelTimingModel,
    net: &Network,
    worker_batch: u64,
) -> Vec<(SimDuration, SimDuration)> {
    net.layers()
        .iter()
        .map(|l| {
            (
                timing.forward_time(l, worker_batch),
                timing.backward_time(l, worker_batch),
            )
        })
        .collect()
}

/// Stage-2 artifact (worker plan): the plan scalars [`assemble`] reads,
/// the bucket-fused sync schedule, and per-trigger-layer indices into it.
///
/// Deliberately batch-free: the per-worker batch is a closed-form
/// function of the scenario axes (`global_batch / devices` for data
/// parallelism, `global_batch` for model parallelism), and data-parallel
/// sync ops carry *weight* bytes — so one cached artifact serves a whole
/// batch sweep (the stage key drops the batch axis for data-parallel
/// plans).
#[derive(Debug, Clone)]
pub(crate) struct PlanArt {
    pub strategy: ParallelStrategy,
    pub workers: usize,
    pub macs_scale: f64,
    pub weight_scale: f64,
    pub stash_scale: f64,
    pub total_sync_bytes: u64,
    /// Data-parallel dW all-reduces fused into the paper's 8 MB buckets.
    pub fused: Vec<SyncOp>,
    /// Per-layer indices into `fused` triggered after the forward pass.
    pub fwd_ops: Csr,
    /// Per-layer indices into `fused` triggered after the backward pass.
    pub bwd_ops: Csr,
}

impl PlanArt {
    pub(crate) fn build(plan: &WorkerPlan, layers: usize, cfg: &SystemConfig) -> PlanArt {
        let fused = plan.fuse_buckets(cfg.sync_bucket_bytes);
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        let mut bwd: Vec<(u32, u32)> = Vec::new();
        for (i, op) in fused.iter().enumerate() {
            match op.trigger {
                SyncTrigger::AfterForward(l) => fwd.push((l.index() as u32, i as u32)),
                SyncTrigger::AfterBackward(l) => bwd.push((l.index() as u32, i as u32)),
            }
        }
        let fwd_ops = Csr::from_pairs(layers, &fwd);
        let bwd_ops = Csr::from_pairs(layers, &bwd);
        PlanArt {
            strategy: plan.strategy,
            workers: plan.workers,
            macs_scale: plan.macs_scale,
            weight_scale: plan.weight_scale,
            stash_scale: plan.stash_scale,
            total_sync_bytes: plan.total_sync_bytes(),
            fused,
            fwd_ops,
            bwd_ops,
        }
    }
}

/// Stage-2 artifact (overlay schedule): per-layer dispositions and stash
/// sizes, offload lists indexed by trigger layer, and the virtualized
/// footprint the pinned-buffer budget derives from.
#[derive(Debug, Clone)]
pub(crate) struct SchedArt {
    pub disposition: Vec<Disposition>,
    pub stash_bytes: Vec<u64>,
    /// `offloads.row(l)` = layers whose stash leaves device memory after
    /// layer `l`'s forward pass (its last forward consumer), in the
    /// schedule's launch order.
    pub offloads: Csr,
    /// `footprint(virt_batch, dtype).total_virtualized()`.
    pub total_virtualized: u64,
}

impl SchedArt {
    pub(crate) fn build(
        schedule: &VirtSchedule,
        net: &Network,
        virt_batch: u64,
        dtype: DataType,
    ) -> SchedArt {
        let entries = schedule.entries();
        // Same partition as `VirtSchedule::offloads_by_trigger`, packed
        // flat: entry order is schedule order within each trigger.
        let pairs: Vec<(u32, u32)> = entries
            .iter()
            .filter(|e| e.disposition == Disposition::Offload)
            .map(|e| (e.offload_after.index() as u32, e.layer.index() as u32))
            .collect();
        let offloads = Csr::from_pairs(entries.len(), &pairs);
        SchedArt {
            disposition: entries.iter().map(|e| e.disposition).collect(),
            stash_bytes: entries.iter().map(|e| e.stash_bytes).collect(),
            offloads,
            total_virtualized: net.footprint(virt_batch, dtype).total_virtualized(),
        }
    }
}

/// Stage-2 artifact (overlay transfers): effective bytes and DMA
/// duration per offloaded stash (slice scaling and cDMA-style
/// compression applied), `(0, ZERO)` for layers that stay resident.
/// Each stash crosses the channel twice (offload + prefetch) at the
/// same cost, so one precomputed pair serves both passes. Empty when
/// the design has no virtualization path.
pub(crate) fn xfer_table(
    sched: &SchedArt,
    stash_scale: f64,
    compression_ratio: f64,
    virt: Option<&VirtPath>,
) -> Vec<(u64, SimDuration)> {
    let Some(vp) = virt else {
        return Vec::new();
    };
    let bw = vp.bandwidth();
    sched
        .disposition
        .iter()
        .zip(&sched.stash_bytes)
        .map(|(&disp, &stash)| {
            if disp == Disposition::Offload {
                let bytes = (stash as f64 * stash_scale / compression_ratio).round() as u64;
                (bytes, vp.op_latency + bw.transfer_time(Bytes::new(bytes)))
            } else {
                (0, SimDuration::ZERO)
            }
        })
        .collect()
}

/// The boundary behind which the engine prices communication.
///
/// Two implementations exist: [`AnalyticalFabric`] — the closed-form
/// ring-algorithm model the paper's numbers come from (the fast path,
/// selected when [`SystemConfig::topology`] is unset) — and
/// [`FlowFabric`], which realizes every collective as routed flows on a
/// concrete [`FabricTopology`] with max-min fair link sharing, so
/// congestion and route contention (invisible to the closed form) price
/// themselves. Both answer the same two questions: which logical rings
/// the collectives run over, and what one collective costs.
pub trait CommFabric: std::fmt::Debug + Send + Sync {
    /// Ring shapes the collectives run over (empty = no fabric: a
    /// single-device configuration never synchronizes).
    fn ring_shapes(&self) -> &[RingShape];

    /// Duration of one `kind` collective moving `size` payload bytes.
    fn collective_time(&self, kind: CollectiveKind, size: Bytes) -> SimDuration;

    /// The concrete topology flows are routed over, if any (`None` for
    /// the analytical model).
    fn topology(&self) -> Option<FabricTopology> {
        None
    }
}

/// The closed-form fabric: [`CollectiveModel::striped_latency`] over the
/// design's ring set at the effective duplex link rate. Selected when no
/// [`FabricTopology`] is requested; bit-identical to the pre-refactor
/// engine.
#[derive(Debug, Clone)]
pub struct AnalyticalFabric {
    rings: Vec<RingShape>,
    model: CollectiveModel,
}

impl CommFabric for AnalyticalFabric {
    fn ring_shapes(&self) -> &[RingShape] {
        &self.rings
    }

    fn collective_time(&self, kind: CollectiveKind, size: Bytes) -> SimDuration {
        self.model.striped_latency(kind, size, &self.rings)
    }
}

/// The flow-level fabric: collectives become timed flow batches routed
/// hop-by-hop over a concrete [`FabricTopology`] and drained under
/// max-min fair link sharing ([`RoutedFabric`]).
///
/// The topology knob asks "what if this design's collective plane were
/// wired as X?", so the plane links run at the device's native duplex
/// rate and *contention on the realized routes* — not the analytical
/// scale-out throttle — prices the fabric. Within one backplane the
/// routes are exactly the design's rings on dedicated links, which is
/// why the flow answer agrees with [`AnalyticalFabric`] to within
/// byte-rounding there; past it, ring/line topologies escape between
/// backplanes over the shared host-PCIe uplink share while switched
/// topologies keep dedicated lanes — the §VI cliff.
#[derive(Debug, Clone)]
pub struct FlowFabric {
    routed: RoutedFabric,
    model: CollectiveModel,
}

impl CommFabric for FlowFabric {
    fn ring_shapes(&self) -> &[RingShape] {
        self.routed.ring_shapes()
    }

    fn collective_time(&self, kind: CollectiveKind, size: Bytes) -> SimDuration {
        self.routed.collective_time(&self.model, kind, size)
    }

    fn topology(&self) -> Option<FabricTopology> {
        Some(self.routed.kind())
    }
}

/// Duration of one `kind` collective of `bytes` for a plan of `workers`
/// workers over `fabric`: zero when the fabric has no rings or fewer
/// than two workers share the model, else
/// [`CommFabric::collective_time`]. The one pricing rule behind the
/// monolithic path and both staged paths, so they cannot disagree.
pub(crate) fn price_collective(
    fabric: &dyn CommFabric,
    workers: usize,
    kind: CollectiveKind,
    bytes: u64,
) -> SimDuration {
    if fabric.ring_shapes().is_empty() || workers < 2 {
        return SimDuration::ZERO;
    }
    fabric.collective_time(kind, Bytes::new(bytes))
}

/// Builds the fabric a configuration synchronizes over:
/// [`AnalyticalFabric`] when `cfg.topology` is unset, otherwise a
/// [`FlowFabric`] realizing the design's ring planes on the requested
/// topology.
pub(crate) fn build_fabric(cfg: &SystemConfig) -> Arc<dyn CommFabric> {
    let (rings, duplex_gbs) = comm_fabric(cfg);
    match cfg.topology {
        None => Arc::new(AnalyticalFabric {
            model: CollectiveModel::with_link_bandwidth(duplex_gbs),
            rings,
        }),
        Some(kind) => {
            let plane_gbs = 2.0 * cfg.device.link_bandwidth_gbs;
            let spec = FabricSpec {
                devices: cfg.devices,
                planes: rings,
                plane_gbs,
                backplane: BACKPLANE_DEVICES,
                escape_gbs: 2.0 * cfg.host.pcie.x16_gbs() / cfg.devices_per_switch() as f64,
            };
            Arc::new(FlowFabric {
                model: CollectiveModel::with_link_bandwidth(plane_gbs),
                routed: RoutedFabric::build(kind, &spec),
            })
        }
    }
}

/// Stage-4: replays the iteration event loop over prebuilt artifacts.
/// Cheap and uncached — per-cell knobs (compression ratio, pinned-budget
/// override, pipeline fraction) enter only here, and every float
/// operation retains the monolithic loop's exact order, so the report is
/// bit-identical whether the artifacts were built fresh or served from a
/// stage cache. `collective(oi)` answers the cost of `plan.fused[oi]`
/// (an index, so callers can serve it from a per-plan vector).
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    cfg: &SystemConfig,
    net: &Network,
    shape: &NetShape,
    timings: &[(SimDuration, SimDuration)],
    plan: &PlanArt,
    sched: &SchedArt,
    xfer: &[(u64, SimDuration)],
    virt: Option<&VirtPath>,
    collective: &dyn Fn(usize) -> SimDuration,
) -> IterationReport {
    let n = net.layers().len();
    let mut compute = FifoEngine::new();
    let mut comm = FifoEngine::new();
    let mut dma_out = FifoEngine::new();
    let mut dma_in = FifoEngine::new();

    let budget = if let Some(b) = cfg.pinned_budget_bytes {
        b
    } else {
        let resident =
            (sched.total_virtualized as f64 * plan.weight_scale.max(plan.stash_scale)) as u64;
        cfg.device
            .memory_capacity_bytes
            .saturating_sub(resident)
            .max(1 << 30)
    };

    // One arena for the five per-layer time vectors: separate mallocs
    // add up at mega-grid rates. The `*_sync_end` slices are
    // blocking-collective gates; `SimTime::ZERO` = none (a max against
    // zero is a no-op, so the sentinel is exact).
    let mut times = vec![SimTime::ZERO; 5 * n];
    let (fwd_end, rest) = times.split_at_mut(n);
    let (fwd_sync_end, rest) = rest.split_at_mut(n);
    let (bwd_start, rest) = rest.split_at_mut(n);
    let (bwd_end, bwd_sync_end) = rest.split_at_mut(n);
    bwd_start.fill(SimTime::MAX);
    let mut offload_end = vec![None::<SimTime>; n];
    let mut window = OffloadWindow::new(); // in-flight offloads
    let mut stall_total = SimDuration::ZERO;
    let mut virt_bytes = 0u64;

    // ---------- forward propagation ----------
    for l in 0..n {
        let mut ready = SimTime::ZERO;
        for &p in shape.inputs.row(l) {
            let p = p as usize;
            ready = ready.max(fwd_end[p]).max(fwd_sync_end[p]);
        }
        // Pinned-buffer stall: wait until in-flight offload bytes fit.
        let ready_mem = window.earliest_under_budget(ready, budget);
        stall_total += ready_mem.saturating_since(ready);
        let dur = timings[l].0 * plan.macs_scale;
        let c = compute.submit(ready_mem, dur);
        fwd_end[l] = c.end;
        // Launch the offloads whose last forward consumer just ran.
        for &e in sched.offloads.row(l) {
            let e = e as usize;
            let (bytes, dma) = xfer[e];
            let t = dma_out.submit(c.end, dma);
            offload_end[e] = Some(t.end);
            window.push(t.end, bytes);
            virt_bytes += bytes;
        }
        // Launch forward collectives (model-parallel all-gathers).
        for &oi in plan.fwd_ops.row(l) {
            let op = &plan.fused[oi as usize];
            let d = collective(oi as usize);
            let s = comm.submit(c.end, d);
            if op.blocking {
                let exposed = d * (1.0 - cfg.boundary_pipeline_fraction);
                let gate = s.start + exposed;
                fwd_sync_end[l] = fwd_sync_end[l].max(gate);
            }
        }
    }
    let mut fwd_complete = SimTime::ZERO;
    for l in 0..n {
        fwd_complete = fwd_complete.max(fwd_end[l]).max(fwd_sync_end[l]);
    }

    // ---------- backward propagation ----------
    let look = cfg.prefetch_lookahead;
    for l in (0..n).rev() {
        // Prefetch this layer's stash with lookahead.
        let mut prefetch_ready = SimTime::ZERO;
        if sched.disposition[l] == Disposition::Offload {
            // Lookahead 0 is the just-in-time (vDNN-minimal) case: the
            // prefetch is enqueued only when the next backward layer
            // completes; lookahead k enqueues when the k-th-later
            // backward layer *starts*.
            let enq = if look == 0 {
                if l + 1 >= n {
                    fwd_complete
                } else {
                    bwd_end[l + 1].max(fwd_complete)
                }
            } else if l + look >= n {
                fwd_complete
            } else {
                bwd_start[l + look].max(fwd_complete)
            };
            let avail = offload_end[l].unwrap_or(fwd_complete);
            let (bytes, dma) = xfer[l];
            let t = dma_in.submit(enq.max(avail), dma);
            prefetch_ready = t.end;
            virt_bytes += bytes;
        }
        // Dependencies: all consumers' backward passes (and their
        // blocking boundary collectives).
        let mut ready = fwd_complete;
        for &c in shape.consumers.row(l) {
            let c = c as usize;
            ready = ready.max(bwd_end[c]).max(bwd_sync_end[c]);
        }
        ready = ready.max(prefetch_ready);
        // Recomputed layers pay their forward pass again (footnote 4).
        let mut dur = timings[l].1 * plan.macs_scale;
        if sched.disposition[l] == Disposition::Recompute {
            dur += timings[l].0 * plan.macs_scale;
        }
        let c = compute.submit(ready, dur);
        bwd_start[l] = c.start;
        bwd_end[l] = c.end;
        // Launch backward collectives (dX all-reduce / dW buckets).
        // Blocking boundary collectives gate the producers' backward
        // passes, minus the chunk-pipelined fraction the framework
        // hides behind dependent compute.
        for &oi in plan.bwd_ops.row(l) {
            let op = &plan.fused[oi as usize];
            let d = collective(oi as usize);
            let s = comm.submit(c.end, d);
            if op.blocking {
                let exposed = d * (1.0 - cfg.boundary_pipeline_fraction);
                let gate = s.start + exposed;
                bwd_sync_end[l] = bwd_sync_end[l].max(gate);
            }
        }
    }

    // Weight update barrier: every engine drained.
    let iteration_end = compute
        .free_at()
        .max(comm.free_at())
        .max(dma_in.free_at())
        .max(dma_out.free_at());
    let iteration_time = iteration_end - SimTime::ZERO;

    // Fig. 12 CPU memory-bandwidth accounting.
    let (avg_gbs, max_gbs) = match virt {
        Some(vp) if vp.touches_host && virt_bytes > 0 => {
            let per_socket_bytes = virt_bytes as f64 * cfg.devices_per_socket() as f64;
            let avg = per_socket_bytes / iteration_time.as_secs_f64() / 1e9;
            (avg, vp.socket_peak_gbs)
        }
        _ => (0.0, 0.0),
    };

    IterationReport {
        design: cfg.design,
        benchmark: net.name().to_owned(),
        strategy: plan.strategy,
        devices: cfg.devices,
        global_batch: cfg.global_batch,
        iteration_time,
        compute_busy: compute.busy_time(),
        sync_busy: comm.busy_time(),
        virt_busy: dma_out.busy_time() + dma_in.busy_time(),
        memory_stall: stall_total,
        virt_bytes: Bytes::new(virt_bytes),
        sync_bytes: Bytes::new(plan.total_sync_bytes),
        cpu_socket_avg_gbs: avg_gbs,
        cpu_socket_max_gbs: max_gbs,
    }
}

/// The communication fabric a configuration synchronizes over: its ring
/// set and the effective per-link **duplex** bandwidth in GB/s.
///
/// Ring collectives exploit both directions of each duplex link (NCCL
/// splits every physical ring into two counter-rotating logical rings),
/// matching the paper's (N/2) x (2B) = 150 GB/s aggregate communication
/// bandwidth formula (§III-B). Within one backplane that is the whole
/// story; beyond [`BACKPLANE_DEVICES`] the fabric depends on the design:
///
/// * **memory-centric** designs ride the Fig. 15 pooled switch plane
///   ([`SystemConfig::scale_out_plane`]): every ring step crosses the
///   switch (2 hops), and the per-ring rate is what the plane's bisection
///   bandwidth sustains — the switched fabric erases the star/ring
///   attachment asymmetry for collectives (the designs keep their
///   distinct *virtualization* paths in [`VirtPath`]);
/// * **DC-DLA** (and its oracle) crosses backplanes over the host PCIe
///   interface: rings pay switch hops *and* are throttled to the shared
///   PCIe uplink rate — the §VI motivation for NVSwitch-class planes;
/// * **HC-DLA** keeps its single device ring at link rate, with switch
///   hops between backplanes (its host links are spoken for by
///   virtualization traffic).
fn comm_fabric(cfg: &SystemConfig) -> (Vec<RingShape>, f64) {
    let n = cfg.devices;
    let duplex = 2.0 * cfg.device.link_bandwidth_gbs;
    if n <= BACKPLANE_DEVICES {
        return (backplane_ring_shapes(cfg), duplex);
    }
    if let Some(plane) = cfg.scale_out_plane() {
        let rings = plane.ring_shapes();
        let per_direction = plane.collective_ring_share_gbs(rings.len());
        return (rings, 2.0 * per_direction);
    }
    let (ring_count, per_direction) = match cfg.design {
        SystemDesign::DcDla | SystemDesign::DcDlaOracle => {
            // One shared PCIe uplink per device carries *all* rings'
            // cross-backplane traffic, so its share is divided across
            // the ring set (unlike the backplane case, where each ring
            // owns two dedicated device-side links).
            let rings = 3;
            let pcie_share = cfg.host.pcie.x16_gbs() / cfg.devices_per_switch() as f64;
            let per_ring = pcie_share / rings as f64;
            (rings, per_ring.min(cfg.device.link_bandwidth_gbs))
        }
        SystemDesign::HcDla => (1, cfg.device.link_bandwidth_gbs),
        _ => unreachable!("memory-centric designs scale out on the pooled plane"),
    };
    let shapes = vec![
        RingShape {
            participants: n,
            hops: 2 * n,
        };
        ring_count
    ];
    (shapes, 2.0 * per_direction)
}

/// Ring sets per design for `cfg.devices` participants within one
/// backplane (the Fig. 5/7 layouts, generalized to n devices).
fn backplane_ring_shapes(cfg: &SystemConfig) -> Vec<RingShape> {
    let n = cfg.devices;
    if n < 2 {
        return Vec::new();
    }
    match cfg.design {
        SystemDesign::DcDla | SystemDesign::DcDlaOracle => {
            vec![RingShape::device_ring(n); 3]
        }
        SystemDesign::HcDla => vec![RingShape::device_ring(n)],
        SystemDesign::McDlaStar => vec![
            // Fig. 7(b)'s 8/12/20 hop counts, generalized to n devices.
            RingShape {
                participants: n,
                hops: n,
            },
            RingShape {
                participants: n,
                hops: n + n / 2,
            },
            RingShape {
                participants: n,
                hops: n + 3 * (n / 2),
            },
        ],
        SystemDesign::McDlaLocal | SystemDesign::McDlaBwAware => {
            vec![
                RingShape {
                    participants: n,
                    hops: 2 * n,
                };
                3
            ]
        }
    }
}

/// In-flight offload tracker for the pinned-buffer stall model.
///
/// The offload DMA engine is FIFO, so completion times arrive in
/// non-decreasing order and the outstanding bytes at any instant fall
/// monotonically as offloads retire: with prefix byte sums, the
/// "earliest time the outstanding bytes fit the budget" query is
/// `max(ready, ends[k - 1])` for the first `k` whose retirement frees
/// enough bytes. Prefix sums over `u64` are exact, so the answer is
/// bit-identical to the scan over all pending offloads it replaced.
struct OffloadWindow {
    /// Offload completion times, non-decreasing (FIFO engine).
    ends: Vec<SimTime>,
    /// `prefix[i]` = total bytes of offloads `0..i` (`prefix[0] == 0`).
    prefix: Vec<u64>,
    /// Cached fit point: first index with `prefix[fit] >= need` from
    /// the previous query.
    fit: usize,
}

impl OffloadWindow {
    fn new() -> Self {
        OffloadWindow {
            ends: Vec::new(),
            prefix: vec![0],
            fit: 0,
        }
    }

    fn push(&mut self, end: SimTime, bytes: u64) {
        debug_assert!(
            self.ends.last().is_none_or(|&e| e <= end),
            "offload completions must be FIFO-ordered"
        );
        self.ends.push(end);
        self.prefix.push(self.prefix[self.ends.len() - 1] + bytes);
    }

    /// Earliest `t >= ready` at which the bytes of offloads still in
    /// flight (ending strictly after `t`) drop to the budget.
    fn earliest_under_budget(&mut self, ready: SimTime, budget: u64) -> SimTime {
        let total = self.prefix[self.ends.len()];
        // Everything ever offloaded fits at once: no search needed.
        if total <= budget {
            return ready;
        }
        // Outstanding bytes at `t` are `total - prefix[k(t)]` where
        // `k(t)` counts retirements; they fit once `prefix[k] >= need`,
        // and the k-th offload retires at `ends[k - 1]`. The assembly
        // loop queries with one fixed budget while `total` only grows,
        // so `need` is non-decreasing across calls and the cached fit
        // point only moves forward (amortized O(1)); any other query
        // pattern falls back to a binary search.
        let need = total - budget;
        if self.fit > 0 && self.prefix[self.fit - 1] >= need {
            self.fit = self.prefix.partition_point(|&p| p < need);
        } else {
            while self.prefix[self.fit] < need {
                self.fit += 1;
            }
        }
        ready.max(self.ends[self.fit - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdla_dnn::Benchmark;

    fn run(design: SystemDesign, bm: Benchmark, strategy: ParallelStrategy) -> IterationReport {
        let net = bm.build();
        IterationSim::new(SystemConfig::new(design), &net, strategy).run()
    }

    #[test]
    fn oracle_is_fastest_and_dc_is_slowest() {
        for strategy in ParallelStrategy::ALL {
            for bm in [Benchmark::AlexNet, Benchmark::RnnGru] {
                let dc = run(SystemDesign::DcDla, bm, strategy);
                let mc = run(SystemDesign::McDlaBwAware, bm, strategy);
                let oracle = run(SystemDesign::DcDlaOracle, bm, strategy);
                assert!(
                    oracle.iteration_time <= mc.iteration_time,
                    "{bm}/{strategy}: oracle slower than MC"
                );
                assert!(
                    mc.iteration_time < dc.iteration_time,
                    "{bm}/{strategy}: MC not faster than DC"
                );
            }
        }
    }

    #[test]
    fn design_ordering_on_data_parallel_cnn() {
        // §V-B claims, per workload: DC-DLA is slowest, the oracle fastest,
        // MC-DLA(B) >= MC-DLA(L) >= MC-DLA(S), and MC-DLA(B) beats HC-DLA.
        // (HC-DLA vs MC-DLA(S) has no fixed per-workload order — HC's
        // 75 GB/s virtualization can beat the star's 50 GB/s on virt-bound
        // data-parallel runs; the paper's ordering is on harmonic means.)
        let perf = |d| run(d, Benchmark::VggE, ParallelStrategy::DataParallel).performance();
        let dc = perf(SystemDesign::DcDla);
        let hc = perf(SystemDesign::HcDla);
        let s = perf(SystemDesign::McDlaStar);
        let l = perf(SystemDesign::McDlaLocal);
        let b = perf(SystemDesign::McDlaBwAware);
        let o = perf(SystemDesign::DcDlaOracle);
        assert!(
            dc < hc && dc < s && dc < l && dc < b,
            "DC-DLA must be slowest"
        );
        assert!(o >= b && o >= hc, "oracle must be fastest");
        assert!(b >= l * 0.999 && l >= s * 0.999, "MC(B) >= MC(L) >= MC(S)");
        assert!(b > hc, "MC-DLA(B) must beat HC-DLA");
    }

    #[test]
    fn oracle_moves_no_virt_bytes() {
        let r = run(
            SystemDesign::DcDlaOracle,
            Benchmark::VggE,
            ParallelStrategy::DataParallel,
        );
        assert_eq!(r.virt_bytes, Bytes::ZERO);
        assert_eq!(r.virt_busy, SimDuration::ZERO);
        assert_eq!(r.cpu_socket_avg_gbs, 0.0);
    }

    #[test]
    fn mc_designs_use_no_cpu_bandwidth() {
        for d in [
            SystemDesign::McDlaStar,
            SystemDesign::McDlaLocal,
            SystemDesign::McDlaBwAware,
        ] {
            let r = run(d, Benchmark::GoogLeNet, ParallelStrategy::DataParallel);
            assert_eq!(r.cpu_socket_avg_gbs, 0.0, "{d}");
            assert_eq!(r.cpu_socket_max_gbs, 0.0, "{d}");
            assert!(r.virt_bytes.as_u64() > 0, "{d} still virtualizes");
        }
    }

    #[test]
    fn hc_dla_draws_heavily_on_cpu_memory() {
        // §V-A: HC-DLA can consume up to its provisioned 300 GB/s/socket.
        let r = run(
            SystemDesign::HcDla,
            Benchmark::VggE,
            ParallelStrategy::DataParallel,
        );
        assert_eq!(r.cpu_socket_max_gbs, 300.0);
        assert!(r.cpu_socket_avg_gbs > 50.0, "avg {}", r.cpu_socket_avg_gbs);
        let dc = run(
            SystemDesign::DcDla,
            Benchmark::VggE,
            ParallelStrategy::DataParallel,
        );
        assert!(dc.cpu_socket_max_gbs <= 32.0);
    }

    #[test]
    fn dc_dla_is_virtualization_bound_on_cnns() {
        // Fig. 11(a): memory virtualization dominates DC-DLA's bars on
        // 14 of 16 training runs.
        let r = run(
            SystemDesign::DcDla,
            Benchmark::VggE,
            ParallelStrategy::DataParallel,
        );
        assert!(r.virt_busy > r.compute_busy);
        assert!(r.virt_busy > r.sync_busy);
    }

    #[test]
    fn mc_b_spends_less_time_virtualizing_than_dc() {
        let dc = run(
            SystemDesign::DcDla,
            Benchmark::ResNet,
            ParallelStrategy::DataParallel,
        );
        let mc = run(
            SystemDesign::McDlaBwAware,
            Benchmark::ResNet,
            ParallelStrategy::DataParallel,
        );
        // Same bytes, ~19x the bandwidth.
        assert_eq!(dc.virt_bytes, mc.virt_bytes);
        assert!(mc.virt_busy.as_secs_f64() < dc.virt_busy.as_secs_f64() / 10.0);
    }

    #[test]
    fn model_parallel_synchronizes_more_than_data_parallel() {
        let dp = run(
            SystemDesign::DcDla,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        );
        let mp = run(
            SystemDesign::DcDla,
            Benchmark::AlexNet,
            ParallelStrategy::ModelParallel,
        );
        assert!(mp.sync_busy > dp.sync_busy);
        assert!(mp.sync_bytes > dp.sync_bytes);
    }

    #[test]
    fn single_device_has_no_sync() {
        let net = Benchmark::AlexNet.build();
        let cfg = SystemConfig::new(SystemDesign::DcDla).with_devices(1);
        let r = IterationSim::new(cfg, &net, ParallelStrategy::DataParallel).run();
        assert_eq!(r.sync_busy, SimDuration::ZERO);
        assert!(r.virt_busy > SimDuration::ZERO);
    }

    #[test]
    fn compression_reduces_dc_iteration_time() {
        let net = Benchmark::VggE.build();
        let base = IterationSim::new(
            SystemConfig::new(SystemDesign::DcDla),
            &net,
            ParallelStrategy::DataParallel,
        )
        .run();
        let cdma = IterationSim::new(
            SystemConfig::new(SystemDesign::DcDla).with_compression(2.6),
            &net,
            ParallelStrategy::DataParallel,
        )
        .run();
        assert!(cdma.iteration_time < base.iteration_time);
        let ratio = base.virt_bytes.as_f64() / cdma.virt_bytes.as_f64();
        assert!((ratio - 2.6).abs() < 0.01, "traffic ratio {ratio}");
    }

    #[test]
    fn backplane_fabric_is_unchanged_by_the_scale_out_path() {
        // Paper-default cells (n <= 8) must see exactly the pre-scale-out
        // fabric: per-design ring sets at full duplex link rate.
        for design in SystemDesign::ALL {
            let cfg = SystemConfig::new(design);
            let (rings, duplex) = comm_fabric(&cfg);
            assert_eq!(rings, backplane_ring_shapes(&cfg), "{design}");
            assert_eq!(duplex, 2.0 * cfg.device.link_bandwidth_gbs, "{design}");
        }
    }

    #[test]
    fn scale_out_fabric_routes_per_design() {
        // MC designs ride the pooled plane: 3 switch-crossing rings at
        // full link rate, regardless of attachment flavor.
        for d in [
            SystemDesign::McDlaStar,
            SystemDesign::McDlaLocal,
            SystemDesign::McDlaBwAware,
        ] {
            let cfg = SystemConfig::new(d).with_devices(32);
            let (rings, duplex) = comm_fabric(&cfg);
            assert_eq!(rings.len(), 3, "{d}");
            for r in &rings {
                assert_eq!(r.participants, 32, "{d}");
                assert_eq!(r.hops, 64, "{d}");
            }
            assert_eq!(duplex, 50.0, "{d}");
        }
        // DC-DLA crosses backplanes over shared PCIe: same ring count,
        // switch hops, throttled to the 8 GB/s uplink share.
        let dc = SystemConfig::new(SystemDesign::DcDla).with_devices(32);
        let (rings, duplex) = comm_fabric(&dc);
        assert_eq!(rings.len(), 3);
        assert_eq!(rings[0].hops, 64);
        // 2 x (16 GB/s x16 / 2 devices per switch) / 3 rings sharing
        // the one uplink: aggregate injection equals the uplink share.
        assert!((duplex - 16.0 / 3.0).abs() < 1e-12, "duplex {duplex}");
        assert!((3.0 * duplex - 16.0).abs() < 1e-9);
        // HC-DLA keeps its single link-rate ring.
        let hc = SystemConfig::new(SystemDesign::HcDla).with_devices(32);
        let (rings, duplex) = comm_fabric(&hc);
        assert_eq!(rings.len(), 1);
        assert_eq!(duplex, 50.0);
    }

    #[test]
    fn scale_out_grows_sync_and_preserves_the_mc_advantage() {
        // Fixed global batch, growing device count: synchronization cost
        // must rise monotonically, and MC-DLA(B) must beat DC-DLA at
        // every scale (the whole point of the pooled fabric).
        let net = Benchmark::VggE.build();
        let mut prev_sync = (SimDuration::ZERO, SimDuration::ZERO);
        for devices in [8usize, 16, 64, 256] {
            let dc = IterationSim::new(
                SystemConfig::new(SystemDesign::DcDla).with_devices(devices),
                &net,
                ParallelStrategy::DataParallel,
            )
            .run();
            let mc = IterationSim::new(
                SystemConfig::new(SystemDesign::McDlaBwAware).with_devices(devices),
                &net,
                ParallelStrategy::DataParallel,
            )
            .run();
            assert!(
                mc.iteration_time < dc.iteration_time,
                "{devices} devices: MC {:?} not faster than DC {:?}",
                mc.iteration_time,
                dc.iteration_time
            );
            assert!(dc.sync_busy >= prev_sync.0, "{devices}: DC sync shrank");
            assert!(mc.sync_busy >= prev_sync.1, "{devices}: MC sync shrank");
            prev_sync = (dc.sync_busy, mc.sync_busy);
        }
    }

    #[test]
    fn flow_fabric_agrees_with_analytical_inside_one_backplane() {
        // Acceptance: iteration times under the flow-routed Ring fabric
        // agree with the analytical model within 1% at <= 8 devices —
        // there the realized routes are exactly the design's rings on
        // dedicated links, so only byte-rounding separates the two.
        let net = Benchmark::AlexNet.build();
        for design in SystemDesign::ALL {
            for devices in [2usize, 4, 8] {
                let analytic = IterationSim::new(
                    SystemConfig::new(design).with_devices(devices),
                    &net,
                    ParallelStrategy::DataParallel,
                )
                .run();
                let flow = IterationSim::new(
                    SystemConfig::new(design)
                        .with_devices(devices)
                        .with_topology(FabricTopology::Ring),
                    &net,
                    ParallelStrategy::DataParallel,
                )
                .run();
                let a = analytic.iteration_time.as_secs_f64();
                let f = flow.iteration_time.as_secs_f64();
                let rel = (f - a).abs() / a;
                assert!(
                    rel < 0.01,
                    "{design}/{devices}dev: flow {f} vs analytic {a} (rel {rel})"
                );
            }
        }
    }

    #[test]
    fn pooled_switch_dodges_the_host_pcie_cliff_at_scale() {
        // Acceptance: the SS VI cliff shape under the flow fabric. Past
        // one backplane a ring topology escapes between chassis over the
        // shared host-PCIe uplink share, so its sync cost blows up with
        // scale; a pooled switch keeps dedicated per-plane lanes and
        // stays flat. The cliff shape: near-parity inside one backplane,
        // a severalfold gap at 64+ devices.
        let net = Benchmark::VggE.build();
        let sync_with = |topology: FabricTopology, devices: usize| {
            IterationSim::new(
                SystemConfig::new(SystemDesign::DcDla)
                    .with_devices(devices)
                    .with_topology(topology),
                &net,
                ParallelStrategy::DataParallel,
            )
            .run()
            .sync_busy
            .as_secs_f64()
        };
        let ratio = |devices| {
            sync_with(FabricTopology::Ring, devices)
                / sync_with(FabricTopology::PooledSwitch, devices)
        };
        let flat = ratio(8);
        assert!(
            flat < 1.5,
            "8 devices: ring/pooled = {flat}, expected near-parity inside one backplane"
        );
        for devices in [64usize, 128] {
            let cliff = ratio(devices);
            assert!(
                cliff > 3.0,
                "{devices} devices: ring/pooled = {cliff}, no cliff"
            );
            assert!(
                cliff > 2.0 * flat,
                "{devices} devices: cliff {cliff} must tower over backplane parity {flat}"
            );
        }
    }

    #[test]
    fn fabric_selection_follows_the_topology_knob() {
        let cfg = SystemConfig::new(SystemDesign::McDlaBwAware);
        let analytic = build_fabric(&cfg);
        assert_eq!(analytic.topology(), None);
        let routed = build_fabric(&cfg.clone().with_topology(FabricTopology::FatTree));
        assert_eq!(routed.topology(), Some(FabricTopology::FatTree));
        // Same logical ring set either way: the topology realizes the
        // design's planes, it does not change how many there are.
        assert_eq!(analytic.ring_shapes().len(), routed.ring_shapes().len());
    }

    #[test]
    fn budget_helper_finds_earliest_fit() {
        let t = SimTime::from_us;
        let mut w = OffloadWindow::new();
        w.push(t(10), 100);
        w.push(t(20), 100);
        w.push(t(30), 100);
        // Budget 300: fits immediately.
        assert_eq!(w.earliest_under_budget(t(1), 300), t(1));
        // Budget 150: wait until two complete (outstanding after t=20 is 100).
        assert_eq!(w.earliest_under_budget(t(1), 150), t(20));
        // Budget 0: wait for all.
        assert_eq!(w.earliest_under_budget(t(1), 0), t(30));
        // Ready already past everything.
        assert_eq!(w.earliest_under_budget(t(99), 0), t(99));
    }

    #[test]
    fn budget_window_matches_the_scan_it_replaced() {
        // Reference: the O(pending) scan the prefix-sum window replaced.
        fn scan(pending: &[(SimTime, u64)], ready: SimTime, budget: u64) -> SimTime {
            let outstanding = |t: SimTime| -> u64 {
                pending
                    .iter()
                    .filter(|(e, _)| *e > t)
                    .map(|(_, b)| *b)
                    .sum()
            };
            if outstanding(ready) <= budget {
                return ready;
            }
            let mut ends: Vec<SimTime> = pending
                .iter()
                .filter(|(e, _)| *e > ready)
                .map(|(e, _)| *e)
                .collect();
            ends.sort_unstable();
            for e in ends {
                if outstanding(e) <= budget {
                    return e;
                }
            }
            pending.iter().map(|(e, _)| *e).fold(ready, SimTime::max)
        }
        let t = SimTime::from_us;
        // FIFO-ordered pending sets, including duplicate ends and
        // zero-byte transfers (a rounded-down compressed stash).
        let sets: Vec<Vec<(SimTime, u64)>> = vec![
            vec![],
            vec![(t(5), 10)],
            vec![(t(5), 10), (t(5), 20), (t(7), 0), (t(9), 5)],
            (0..50).map(|i| (t(3 * i + 1), (i % 7) * 11)).collect(),
        ];
        for pending in &sets {
            let mut w = OffloadWindow::new();
            for &(e, b) in pending {
                w.push(e, b);
            }
            for ready_us in 0..40 {
                for budget in [0u64, 1, 5, 10, 25, 30, 100, 500, u64::MAX] {
                    let ready = t(ready_us);
                    assert_eq!(
                        w.earliest_under_budget(ready, budget),
                        scan(pending, ready, budget),
                        "pending {pending:?} ready {ready_us} budget {budget}"
                    );
                }
            }
        }
    }
}
