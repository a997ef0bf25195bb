//! The scenario subsystem: data-driven experiment specification and a
//! parallel, memoizing grid runner.
//!
//! Everything §V evaluates is a point in one configuration space:
//! *(design, benchmark, strategy, device count, batch, device generation,
//! overrides)*. A [`Scenario`] captures that point as a small,
//! serde-serializable value; a [`ScenarioGrid`] spans a cartesian product
//! of them; and a [`Runner`] executes any set of scenarios across worker
//! threads with a memoized result cache keyed by the scenario hash, so
//! overlapping figure/table grids (Fig. 11 and Fig. 13 share all 96
//! default cells, the §V-B studies share their baselines, ...) never
//! re-simulate a cell.
//!
//! Adding a new experiment is a data change — describe the cells, hand
//! them to the runner — not a new binary.
//!
//! # Examples
//!
//! ```
//! use mcdla_core::{Runner, Scenario, ScenarioGrid, SystemDesign};
//! use mcdla_dnn::Benchmark;
//! use mcdla_parallel::ParallelStrategy;
//!
//! let grid = ScenarioGrid::paper_default();
//! assert_eq!(grid.len(), 6 * 8 * 2); // designs x benchmarks x strategies
//!
//! let runner = Runner::with_threads(2);
//! let one = Scenario::new(
//!     SystemDesign::McDlaBwAware,
//!     Benchmark::AlexNet,
//!     ParallelStrategy::DataParallel,
//! );
//! let first = runner.run(one);
//! let again = runner.run(one); // memoized: no second simulation
//! assert_eq!(first, again);
//! assert_eq!(runner.cache_hits(), 1);
//! ```

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mcdla_accel::{DeviceConfig, DeviceGeneration};
use mcdla_dnn::Benchmark;
use mcdla_interconnect::FabricTopology;
use mcdla_parallel::ParallelStrategy;
use serde::{Deserialize, Serialize};

use crate::design::{SystemConfig, SystemDesign, PAPER_DEFAULT_BATCH, PAPER_DEFAULT_DEVICES};
use crate::engine::IterationSim;
use crate::report::IterationReport;
use crate::store::{Provenance, ResultStore};

/// Named device-node models for the §V-B sensitivity studies.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceModel {
    /// The §V-B "faster device-node such as TPUv2" study.
    TpuV2Like,
    /// The §V-B "DGX-2-class node" study.
    Dgx2Like,
}

impl DeviceModel {
    /// The device configuration this model names.
    pub(crate) fn device_config(self) -> DeviceConfig {
        match self {
            DeviceModel::TpuV2Like => DeviceConfig::tpu_v2_like(),
            DeviceModel::Dgx2Like => DeviceConfig::dgx2_like(),
        }
    }
}

/// Optional departures from the paper-default configuration of a cell.
#[derive(Debug, Copy, Clone, Default, Serialize)]
pub struct Overrides {
    /// Upgrade the host interface to PCIe gen4 (§V-B).
    pub pcie_gen4: bool,
    /// Swap the device-node for a named faster model (§V-B). The
    /// calibration factor is preserved, as in the paper's study.
    pub device_model: Option<DeviceModel>,
    /// cDMA-style activation-compression ratio on overlay traffic
    /// (§V-B uses 2.6). Must be finite and `>= 1`.
    pub compression: Option<f64>,
}

// Hand-written (not derived) so wire payloads may omit any field — or
// the whole object: a sparse `{"design","benchmark","strategy"}`
// scenario is a valid `POST /simulate` body. Unknown keys are rejected
// by name: with every field optional, a typo'd knob would otherwise be
// silently dropped and the cell simulated without it.
impl serde::Deserialize for Overrides {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        const FIELDS: [&str; 3] = ["pcie_gen4", "device_model", "compression"];
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", "Overrides"))?;
        if let Some((unknown, _)) = map.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
            return Err(serde::Error::custom(format!(
                "unknown Overrides field `{unknown}` (known fields, all optional: {})",
                FIELDS.join(", ")
            )));
        }
        Ok(Overrides {
            pcie_gen4: serde::__field::<Option<bool>>(map, "pcie_gen4")?.unwrap_or(false),
            device_model: serde::__field(map, "device_model")?,
            compression: serde::__field(map, "compression")?,
        })
    }

    fn from_missing_field(_field: &str) -> Result<Self, serde::Error> {
        Ok(Overrides::default())
    }
}

// Equality and hashing go through `f64::to_bits` so they stay mutually
// consistent for *any* value of the public `compression` field — even a
// hand-constructed NaN (which `Scenario::with_compression` rejects, but
// the struct literal cannot) keys the memo cache coherently instead of
// failing `cache.get` after `cache.insert`.
impl PartialEq for Overrides {
    fn eq(&self, other: &Self) -> bool {
        self.pcie_gen4 == other.pcie_gen4
            && self.device_model == other.device_model
            && self.compression.map(f64::to_bits) == other.compression.map(f64::to_bits)
    }
}

impl Eq for Overrides {}

impl Hash for Overrides {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pcie_gen4.hash(state);
        self.device_model.hash(state);
        self.compression.map(f64::to_bits).hash(state);
    }
}

/// One fully specified simulation cell: which design runs which workload
/// under which knobs.
///
/// A scenario is plain data — `Copy`, hashable, serde-serializable — so
/// grids can be generated, diffed, cached, and shipped as JSON. On the
/// wire **every** field is optional: an omitted field takes the paper
/// default (see [`Scenario::default`]), so `{}` is a valid
/// `POST /simulate` body naming the headline MC-DLA(B)/AlexNet/
/// data-parallel cell.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// System design point.
    pub design: SystemDesign,
    /// Workload.
    pub benchmark: Benchmark,
    /// Parallelization strategy.
    pub strategy: ParallelStrategy,
    /// Device-node count; `None` means the paper default (8).
    pub devices: Option<usize>,
    /// Global batch; `None` means the paper default (512).
    pub batch: Option<u64>,
    /// Historical accelerator generation standing in for the device
    /// (Fig. 2); `None` means the calibrated Table II device.
    pub generation: Option<DeviceGeneration>,
    /// Sensitivity-study overrides.
    pub overrides: Overrides,
    /// Concrete topology to route collectives over as flow batches;
    /// `None` means the analytical fabric model (the paper's numbers).
    pub topology: Option<FabricTopology>,
}

// Hand-written (not derived) so the canonical encoding — and therefore
// [`Scenario::digest`] — is unchanged for every pre-topology cell: the
// `topology` key is emitted only when set. A derived impl would append
// `"topology":null` to all 96 golden-grid cells and silently re-key
// every published digest.
impl serde::Serialize for Scenario {
    fn to_value(&self) -> serde::Value {
        let mut map = vec![
            ("design".to_string(), self.design.to_value()),
            ("benchmark".to_string(), self.benchmark.to_value()),
            ("strategy".to_string(), self.strategy.to_value()),
            ("devices".to_string(), self.devices.to_value()),
            ("batch".to_string(), self.batch.to_value()),
            ("generation".to_string(), self.generation.to_value()),
            ("overrides".to_string(), self.overrides.to_value()),
        ];
        if let Some(topology) = self.topology {
            map.push(("topology".to_string(), topology.to_value()));
        }
        serde::Value::Map(map)
    }
}

impl Default for Scenario {
    /// The paper's headline cell: the proposed MC-DLA(B) design running
    /// AlexNet data-parallel with every knob at its §IV default. These
    /// are also the wire defaults for omitted `POST /simulate` fields.
    fn default() -> Self {
        Scenario::new(
            SystemDesign::McDlaBwAware,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        )
    }
}

// Hand-written (not derived) so sparse wire payloads work: every
// top-level field may be omitted and takes its paper default —
// `{"benchmark":"AlexNet","design":"McDlaBwAware"}` no longer fails
// with "missing field `strategy`". Because every field is optional, a
// misspelled key would otherwise silently produce the default headline
// cell, so unknown keys are rejected by name. Validation stays in
// `Scenario::validate`, which callers run on every deserialized cell.
impl serde::Deserialize for Scenario {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        const FIELDS: [&str; 8] = [
            "design",
            "benchmark",
            "strategy",
            "devices",
            "batch",
            "generation",
            "overrides",
            "topology",
        ];
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", "Scenario"))?;
        if let Some((unknown, _)) = map.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
            return Err(serde::Error::custom(format!(
                "unknown Scenario field `{unknown}` (known fields, all optional: {})",
                FIELDS.join(", ")
            )));
        }
        let default = Scenario::default();
        Ok(Scenario {
            design: serde::__field::<Option<SystemDesign>>(map, "design")?
                .unwrap_or(default.design),
            benchmark: serde::__field::<Option<Benchmark>>(map, "benchmark")?
                .unwrap_or(default.benchmark),
            strategy: serde::__field::<Option<ParallelStrategy>>(map, "strategy")?
                .unwrap_or(default.strategy),
            devices: serde::__field(map, "devices")?,
            batch: serde::__field(map, "batch")?,
            generation: serde::__field(map, "generation")?,
            overrides: serde::__field(map, "overrides")?,
            topology: serde::__field(map, "topology")?,
        })
    }
}

impl Scenario {
    /// A paper-default cell for the given design, workload and strategy.
    pub fn new(design: SystemDesign, benchmark: Benchmark, strategy: ParallelStrategy) -> Self {
        Scenario {
            design,
            benchmark,
            strategy,
            devices: None,
            batch: None,
            generation: None,
            overrides: Overrides::default(),
            topology: None,
        }
    }

    /// Returns the scenario with a device count (§V-D scaling).
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = Some(devices);
        self
    }

    /// Returns the scenario with a global batch size (Fig. 14).
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Returns the scenario on a historical device generation (Fig. 2).
    pub fn with_generation(mut self, generation: DeviceGeneration) -> Self {
        self.generation = Some(generation);
        self
    }

    /// Returns the scenario with collectives routed as flow batches over
    /// a concrete topology instead of the analytical fabric model.
    pub fn with_topology(mut self, topology: FabricTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Returns the scenario with a PCIe gen4 host interface (§V-B).
    pub fn with_pcie_gen4(mut self) -> Self {
        self.overrides.pcie_gen4 = true;
        self
    }

    /// Returns the scenario on a named faster device model (§V-B).
    pub fn with_device_model(mut self, model: DeviceModel) -> Self {
        self.overrides.device_model = Some(model);
        self
    }

    /// Returns the scenario with activation compression at `ratio` (§V-B).
    ///
    /// # Panics
    ///
    /// Panics unless `ratio` is finite and `>= 1`.
    pub fn with_compression(mut self, ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio >= 1.0,
            "compression ratio must be finite and >= 1, got {ratio}"
        );
        self.overrides.compression = Some(ratio);
        self
    }

    /// Checks the knobs a *deserialized* scenario may carry (builder
    /// methods and the CLI already reject these, but wire payloads can
    /// say anything). `Err` names the first offending field; the limits
    /// keep one hostile request from panicking — or monopolizing — a
    /// serving thread.
    pub fn validate(&self) -> Result<(), String> {
        // Flow-routed cells share this bound. At 65,536 devices (release
        // build, 2-core host) a routed fabric builds in 0.09-1.4 s, one
        // all-reduce over its 196,608 flows solves in 0.10-0.17 s, and
        // the slowest cold cell through the staged engine took 8.1 s
        // (MC-DLA(B)/GoogLeNet/model-parallel on a ring).
        const MAX_DEVICES: usize = 65_536;
        const MAX_BATCH: u64 = 1 << 24;
        match self.devices {
            Some(0) => return Err("devices must be >= 1".into()),
            Some(d) if d > MAX_DEVICES => {
                return Err(format!("devices must be <= {MAX_DEVICES} (got {d})"));
            }
            _ => {}
        }
        match self.batch {
            Some(0) => return Err("batch must be >= 1".into()),
            Some(b) if b > MAX_BATCH => {
                return Err(format!("batch must be <= {MAX_BATCH} (got {b})"));
            }
            _ => {}
        }
        if let Some(ratio) = self.overrides.compression {
            if !(ratio.is_finite() && ratio >= 1.0) {
                return Err(format!(
                    "compression ratio must be finite and >= 1 (got {ratio})"
                ));
            }
        }
        // Knob *combinations* can be nonsensical even when each knob is
        // individually in range: a data-parallel batch smaller than the
        // device count leaves workers with nothing to compute (and used
        // to panic deep inside the worker planner on the wire path).
        let devices = self.devices.unwrap_or(PAPER_DEFAULT_DEVICES);
        let batch = self.batch.unwrap_or(PAPER_DEFAULT_BATCH);
        if self.strategy == ParallelStrategy::DataParallel && batch < devices as u64 {
            return Err(format!(
                "data-parallel batch {batch} cannot cover {devices} devices \
                 (batch must be >= the device count)"
            ));
        }
        Ok(())
    }

    /// Materializes the [`SystemConfig`] this scenario describes.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::new(self.design);
        if let Some(devices) = self.devices {
            cfg = cfg.with_devices(devices);
        }
        if let Some(batch) = self.batch {
            cfg = cfg.with_batch(batch);
        }
        if let Some(generation) = self.generation {
            // Generations already encode sustained throughput, so they
            // replace the calibrated Table II device wholesale (Fig. 2).
            cfg.device = generation.device_config();
        }
        if self.overrides.pcie_gen4 {
            cfg = cfg.with_pcie_gen4();
        }
        if let Some(model) = self.overrides.device_model {
            cfg = cfg.with_device(model.device_config());
        }
        if let Some(ratio) = self.overrides.compression {
            cfg = cfg.with_compression(ratio);
        }
        if let Some(topology) = self.topology {
            cfg = cfg.with_topology(topology);
        }
        cfg
    }

    /// Simulates this cell through the staged pipeline
    /// ([`crate::stages`]): per-stage artifacts (fabric summary, layer
    /// timings, worker plan, overlay schedule, and a routed cell's
    /// collective costs) are memoized process-wide, and only the cheap
    /// report assembly runs per call. Bit-identical to
    /// [`simulate_monolithic`](Scenario::simulate_monolithic).
    pub fn simulate(&self) -> IterationReport {
        crate::stages::simulate(self)
    }

    /// Simulates this cell from scratch — every stage artifact rebuilt,
    /// no table touched. The reference the staged pipeline is pinned
    /// against (and the baseline `mcdla stage-bench` measures).
    pub fn simulate_monolithic(&self) -> IterationReport {
        let net = self.benchmark.build();
        IterationSim::new(self.config(), &net, self.strategy).run()
    }

    /// A human-readable cell label — `design/benchmark/strategy`, plus
    /// any non-default knobs — the string `mcdla sweep --filter`
    /// matches against.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcdla_core::{Scenario, SystemDesign};
    /// use mcdla_dnn::Benchmark;
    /// use mcdla_parallel::ParallelStrategy;
    ///
    /// let s = Scenario::new(
    ///     SystemDesign::McDlaBwAware,
    ///     Benchmark::AlexNet,
    ///     ParallelStrategy::DataParallel,
    /// )
    /// .with_batch(128);
    /// assert_eq!(s.label(), "MC-DLA(B)/AlexNet/data-parallel/batch128");
    /// ```
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}",
            self.design.name(),
            self.benchmark.name(),
            self.strategy
        );
        if let Some(devices) = self.devices {
            label.push_str(&format!("/dev{devices}"));
        }
        if let Some(batch) = self.batch {
            label.push_str(&format!("/batch{batch}"));
        }
        if let Some(generation) = self.generation {
            label.push_str(&format!("/{generation:?}"));
        }
        if self.overrides.pcie_gen4 {
            label.push_str("/pcie4");
        }
        if let Some(model) = self.overrides.device_model {
            label.push_str(&format!("/{model:?}"));
        }
        if let Some(ratio) = self.overrides.compression {
            label.push_str(&format!("/comp{ratio}"));
        }
        if let Some(topology) = self.topology {
            label.push_str(&format!("/{topology}"));
        }
        label
    }

    /// A stable 64-bit digest of the scenario (FNV-1a over its canonical
    /// JSON encoding) — identical across processes and runs, unlike
    /// `Hash`, so it can name cells in emitted artifacts.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in serde::json::to_string(self).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// A cartesian product of scenario axes, expanded in a deterministic
/// order (benchmark-major, then design, strategy, devices, batch,
/// generation, topology, overrides).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioGrid {
    designs: Vec<SystemDesign>,
    benchmarks: Vec<Benchmark>,
    strategies: Vec<ParallelStrategy>,
    devices: Vec<Option<usize>>,
    batches: Vec<Option<u64>>,
    generations: Vec<Option<DeviceGeneration>>,
    overrides: Vec<Overrides>,
    topologies: Vec<Option<FabricTopology>>,
}

// Hand-written so pre-topology grid payloads (snapshots, scripted
// clients) keep deserializing: a missing `topologies` axis means the
// analytical default, exactly as before the axis existed. The seven
// original axes stay required, as under the derived impl.
impl serde::Deserialize for ScenarioGrid {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", "ScenarioGrid"))?;
        Ok(ScenarioGrid {
            designs: serde::__field(map, "designs")?,
            benchmarks: serde::__field(map, "benchmarks")?,
            strategies: serde::__field(map, "strategies")?,
            devices: serde::__field(map, "devices")?,
            batches: serde::__field(map, "batches")?,
            generations: serde::__field(map, "generations")?,
            overrides: serde::__field(map, "overrides")?,
            topologies: serde::__field::<Option<Vec<Option<FabricTopology>>>>(map, "topologies")?
                .unwrap_or_else(|| vec![None]),
        })
    }
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl ScenarioGrid {
    /// The §V default grid: all six designs, all eight workloads, both
    /// strategies, paper-default knobs — the Fig. 11/13 matrix.
    pub fn paper_default() -> Self {
        ScenarioGrid {
            designs: SystemDesign::ALL.to_vec(),
            benchmarks: Benchmark::ALL.to_vec(),
            strategies: ParallelStrategy::ALL.to_vec(),
            devices: vec![None],
            batches: vec![None],
            generations: vec![None],
            overrides: vec![Overrides::default()],
            topologies: vec![None],
        }
    }

    /// Restricts the design axis.
    pub fn designs(mut self, designs: &[SystemDesign]) -> Self {
        self.designs = designs.to_vec();
        self
    }

    /// Restricts the benchmark axis.
    pub fn benchmarks(mut self, benchmarks: &[Benchmark]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Restricts the strategy axis.
    pub fn strategies(mut self, strategies: &[ParallelStrategy]) -> Self {
        self.strategies = strategies.to_vec();
        self
    }

    /// Sweeps the device-count axis (§V-D).
    pub fn device_counts(mut self, counts: &[usize]) -> Self {
        self.devices = counts.iter().map(|d| Some(*d)).collect();
        self
    }

    /// Sweeps the global-batch axis (Fig. 14).
    pub fn batches(mut self, batches: &[u64]) -> Self {
        self.batches = batches.iter().map(|b| Some(*b)).collect();
        self
    }

    /// Appends device counts to the existing axis, keeping whatever is
    /// already there (the paper default, unless [`ScenarioGrid::device_counts`]
    /// replaced it).
    pub fn extend_device_counts(mut self, counts: &[usize]) -> Self {
        self.devices.extend(counts.iter().map(|d| Some(*d)));
        self
    }

    /// Appends global batches to the existing axis, keeping whatever is
    /// already there (the paper default, unless [`ScenarioGrid::batches`]
    /// replaced it).
    pub fn extend_batches(mut self, batches: &[u64]) -> Self {
        self.batches.extend(batches.iter().map(|b| Some(*b)));
        self
    }

    /// Sweeps the device-generation axis (Fig. 2).
    pub fn generations(mut self, generations: &[DeviceGeneration]) -> Self {
        self.generations = generations.iter().map(|g| Some(*g)).collect();
        self
    }

    /// Sweeps the overrides axis (§V-B studies).
    pub fn overrides(mut self, overrides: &[Overrides]) -> Self {
        self.overrides = overrides.to_vec();
        self
    }

    /// Appends topologies to the existing axis, keeping whatever is
    /// already there (the analytical default plus any earlier
    /// extensions).
    pub fn extend_topologies(mut self, topologies: &[FabricTopology]) -> Self {
        self.topologies.extend(topologies.iter().map(|t| Some(*t)));
        self
    }

    /// Sets the topology axis verbatim, `None` entries selecting the
    /// analytical model — the shape the wire `topologies` axis uses
    /// (`[null, "Ring"]` mixes both fabrics in one grid).
    pub fn topology_axis(mut self, topologies: &[Option<FabricTopology>]) -> Self {
        self.topologies = topologies.to_vec();
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.designs.len()
            * self.benchmarks.len()
            * self.strategies.len()
            * self.devices.len()
            * self.batches.len()
            * self.generations.len()
            * self.overrides.len()
            * self.topologies.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the product into concrete scenarios.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &benchmark in &self.benchmarks {
            for &design in &self.designs {
                for &strategy in &self.strategies {
                    for &devices in &self.devices {
                        for &batch in &self.batches {
                            for &generation in &self.generations {
                                for &topology in &self.topologies {
                                    for &overrides in &self.overrides {
                                        out.push(Scenario {
                                            design,
                                            benchmark,
                                            strategy,
                                            devices,
                                            batch,
                                            generation,
                                            overrides,
                                            topology,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One grid cell's execution record, as produced by
/// [`Runner::run_grid_timed`] and [`Runner::run_grid_streaming`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRun {
    /// The cell that ran.
    pub scenario: Scenario,
    /// Its simulation result.
    pub report: IterationReport,
    /// Wall-clock time this cell cost *this* call (zero-ish for memoized
    /// cells).
    pub wall: Duration,
    /// True when the result came from the memo cache.
    pub cached: bool,
}

/// Executes scenarios across worker threads, memoizing through a shared
/// [`ResultStore`].
///
/// The simulator is a pure function of the scenario, so the runner
/// deduplicates cells (within a grid *and* across calls, via the store's
/// cache and single-flight layers) and fans fresh cells out to `threads`
/// workers. Results are bit-identical to serial execution regardless of
/// thread count — the engine carries no shared mutable state — which
/// `tests/scenario_runner.rs` pins.
///
/// A runner built with [`Runner::new`]/[`Runner::with_threads`] owns an
/// unbounded private store (the original batch behaviour);
/// [`Runner::with_store`] shares a caller-provided store, which is how
/// `mcdla-serve` makes its HTTP handlers and batch grids hit one cache.
///
/// The thread count defaults to the `MCDLA_THREADS` environment variable
/// when set, else the machine's available parallelism.
#[derive(Debug)]
pub struct Runner {
    threads: usize,
    store: Arc<ResultStore>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A runner with the default thread count (`MCDLA_THREADS` or the
    /// machine's available parallelism).
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// A runner with an explicit worker-thread count (clamped to >= 1)
    /// and a private unbounded store.
    pub fn with_threads(threads: usize) -> Self {
        Self::with_store(threads, Arc::new(ResultStore::unbounded()))
    }

    /// A runner memoizing through a shared, caller-owned store (which
    /// may be capacity-bounded and/or snapshot-warmed).
    pub fn with_store(threads: usize, store: Arc<ResultStore>) -> Self {
        Runner {
            threads: threads.max(1),
            store,
        }
    }

    /// Worker threads used by [`Runner::run_grid`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The result store this runner memoizes through.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.store
    }

    /// Cells served from the memo cache so far (including requests
    /// coalesced onto another caller's in-flight simulation).
    pub fn cache_hits(&self) -> usize {
        self.store.hits() as usize
    }

    /// Cells actually simulated so far.
    pub fn cache_misses(&self) -> usize {
        self.store.misses() as usize
    }

    /// Cells evicted from a capacity-bounded store so far.
    pub fn cache_evictions(&self) -> usize {
        self.store.evictions() as usize
    }

    /// Distinct cells currently memoized.
    pub fn cache_len(&self) -> usize {
        self.store.len()
    }

    /// Runs one cell, memoized and single-flighted through the store.
    pub fn run(&self, scenario: Scenario) -> IterationReport {
        self.store
            .get_or_compute(scenario, || scenario.simulate())
            .report
    }

    /// Runs a batch of cells, deduplicated and fanned out across the
    /// runner's worker threads; the result order matches the input order.
    pub fn run_grid(&self, scenarios: &[Scenario]) -> Vec<IterationReport> {
        self.run_grid_timed(scenarios)
            .into_iter()
            .map(|t| t.report)
            .collect()
    }

    /// Like [`Runner::run_grid`], additionally reporting per-cell
    /// wall-clock cost and cache provenance (the `mcdla sweep` payload).
    ///
    /// This is [`Runner::run_grid_streaming`] collected back into input
    /// order, so a batch grid and a streamed grid run on one executor.
    /// Every cell goes through [`ResultStore::get_or_compute`], so
    /// repeats within the batch, cells cached by earlier calls, and
    /// cells another thread (or another process sharing the store) is
    /// already simulating are all served without re-simulating.
    pub fn run_grid_timed(&self, scenarios: &[Scenario]) -> Vec<TimedRun> {
        let mut slots: Vec<Option<TimedRun>> = vec![None; scenarios.len()];
        let mut stream = self.run_grid_streaming(scenarios.to_vec(), self.threads);
        while let Some((i, run)) = stream.next_indexed() {
            slots[i] = Some(run);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("the stream yields every cell"))
            .collect()
    }

    /// Streams a grid: cells flow out of a **bounded** channel as workers
    /// finish, so a 5,000-cell sweep never materializes a whole-grid
    /// `Vec<TimedRun>` — peak buffering is `buffer` cells plus one
    /// in-flight cell per worker.
    ///
    /// Workers steal cells from a shared index and memoize through the
    /// runner's [`ResultStore`]; cells come out in completion order, not
    /// input order ([`Runner::run_grid_timed`] restores input order). A
    /// full channel applies backpressure to the workers; dropping the
    /// stream early cancels the remaining work (workers exit on the
    /// closed channel).
    ///
    /// # Panics
    ///
    /// A worker that panics mid-simulation (after the store's
    /// single-flight layer has handed its cell to a retrying waiter) has
    /// its panic re-raised on the consuming thread once the stream
    /// drains.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcdla_core::{Runner, ScenarioGrid};
    ///
    /// let runner = Runner::with_threads(2);
    /// let cells = ScenarioGrid::paper_default()
    ///     .benchmarks(&[mcdla_dnn::Benchmark::AlexNet])
    ///     .scenarios();
    /// let n = cells.len();
    /// assert_eq!(runner.run_grid_streaming(cells, 4).count(), n);
    /// ```
    pub fn run_grid_streaming(&self, scenarios: Vec<Scenario>, buffer: usize) -> GridStream {
        let (tx, rx) = std::sync::mpsc::sync_channel(buffer.max(1));
        let cells = Arc::new(scenarios);
        let next = Arc::new(AtomicUsize::new(0));
        let workers = (0..self.threads.min(cells.len()).max(1))
            .map(|i| {
                let tx = tx.clone();
                let cells = Arc::clone(&cells);
                let next = Arc::clone(&next);
                let store = Arc::clone(&self.store);
                std::thread::Builder::new()
                    .name(format!("mcdla-grid-stream-{i}"))
                    .spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(s) = cells.get(i) else { break };
                        // A closed channel means the consumer dropped the
                        // stream: stop stealing cells.
                        if tx.send((i, timed_cell(&store, s))).is_err() {
                            break;
                        }
                    })
                    .expect("spawn grid-stream worker")
            })
            .collect();
        GridStream {
            rx: Some(rx),
            workers,
        }
    }
}

/// Runs one cell through a store, timing it and tagging provenance.
fn timed_cell(store: &ResultStore, s: &Scenario) -> TimedRun {
    let start = Instant::now();
    let fetched = store.get_or_compute(*s, || s.simulate());
    let computed = fetched.provenance == Provenance::Computed;
    TimedRun {
        scenario: *s,
        report: fetched.report,
        wall: if computed {
            start.elapsed()
        } else {
            Duration::ZERO
        },
        cached: !computed,
    }
}

/// The live output of [`Runner::run_grid_streaming`]: an iterator of
/// [`TimedRun`] cells in completion order, backed by worker threads and a
/// bounded channel.
///
/// Dropping the stream before exhaustion cancels the remaining cells (in
/// addition to closing the channel, the drop joins the workers, so no
/// simulation outlives the stream).
#[derive(Debug)]
pub struct GridStream {
    /// Each finished cell with its index in the input list.
    rx: Option<std::sync::mpsc::Receiver<(usize, TimedRun)>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl GridStream {
    /// The next finished cell and its input index.
    fn next_indexed(&mut self) -> Option<(usize, TimedRun)> {
        match self.rx.as_ref()?.recv() {
            Ok(cell) => Some(cell),
            Err(_) => {
                // Every sender is gone: the grid is drained (or a worker
                // died — surface its panic instead of silence).
                self.join_workers();
                None
            }
        }
    }

    /// The next finished cell if one is ready now, without blocking;
    /// `None` when no cell is waiting. A later [`Iterator::next`] still
    /// ends the stream (and re-raises a worker panic) as usual.
    pub fn try_next(&mut self) -> Option<TimedRun> {
        let (_, run) = self.rx.as_ref()?.try_recv().ok()?;
        Some(run)
    }

    /// Joins the worker pool, re-raising the first worker panic.
    fn join_workers(&mut self) {
        self.rx = None;
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for w in self.workers.drain(..) {
            if let Err(p) = w.join() {
                panic.get_or_insert(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    }
}

impl Iterator for GridStream {
    type Item = TimedRun;

    fn next(&mut self) -> Option<TimedRun> {
        self.next_indexed().map(|(_, run)| run)
    }
}

impl Drop for GridStream {
    fn drop(&mut self) {
        // Close the channel first so workers blocked on a full buffer
        // observe the disconnect and exit; never double-panic in drop.
        self.rx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn default_threads() -> usize {
    threads_from(std::env::var("MCDLA_THREADS").ok().as_deref())
}

/// Resolves a thread count from an `MCDLA_THREADS`-style value, falling
/// back to the machine's available parallelism (kept separate from the
/// environment read so tests never have to mutate process-global state).
fn threads_from(env_value: Option<&str>) -> usize {
    if let Some(v) = env_value {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-wide runner the [`crate::experiment`] helpers share, so
/// every figure/table reuses previously simulated cells.
pub fn global_runner() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(Runner::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Scenario {
        Scenario::new(
            SystemDesign::DcDla,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        )
    }

    #[test]
    fn config_matches_hand_built() {
        let s = cell().with_devices(4).with_batch(128).with_pcie_gen4();
        let by_hand = SystemConfig::new(SystemDesign::DcDla)
            .with_devices(4)
            .with_batch(128)
            .with_pcie_gen4();
        assert_eq!(s.config(), by_hand);
    }

    #[test]
    fn generation_replaces_the_calibrated_device() {
        let s = cell()
            .with_devices(1)
            .with_generation(DeviceGeneration::Volta);
        let cfg = s.config();
        assert_eq!(cfg.device, DeviceGeneration::Volta.device_config());
        assert_eq!(cfg.devices, 1);
    }

    #[test]
    fn device_model_preserves_calibration() {
        let cfg = cell().with_device_model(DeviceModel::TpuV2Like).config();
        assert_eq!(cfg.device.name, "tpuv2-like");
        // SystemConfig::new calibrates sustained_efficiency to 0.75 and
        // with_device preserves it.
        assert_eq!(cfg.device.sustained_efficiency, 0.75);
    }

    #[test]
    #[should_panic(expected = "compression ratio")]
    fn rejects_sub_unity_compression() {
        let _ = cell().with_compression(0.5);
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let a = cell();
        assert_eq!(a.digest(), a.digest());
        assert_ne!(a.digest(), a.with_batch(128).digest());
        assert_ne!(a.digest(), a.with_pcie_gen4().digest());
    }

    #[test]
    fn grid_len_matches_expansion() {
        let grid = ScenarioGrid::paper_default()
            .designs(&[SystemDesign::DcDla, SystemDesign::McDlaBwAware])
            .benchmarks(&[Benchmark::AlexNet])
            .batches(&[128, 512])
            .device_counts(&[2, 4, 8]);
        assert_eq!(grid.len(), 2 * 2 * 2 * 3);
        assert_eq!(grid.scenarios().len(), grid.len());
    }

    #[test]
    fn threads_from_parses_env_values() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 7 ")), 7);
        // Garbage and zero fall back to machine parallelism (>= 1).
        assert!(threads_from(Some("0")) >= 1);
        assert!(threads_from(Some("abc")) >= 1);
        assert!(threads_from(None) >= 1);
    }

    #[test]
    fn hostile_compression_values_still_key_the_cache_coherently() {
        // `with_compression` rejects NaN, but the public field cannot;
        // equality/hashing must stay consistent so the memo cache never
        // loses an inserted entry.
        let mut a = cell();
        a.overrides.compression = Some(f64::NAN);
        assert_eq!(a, a);
        let grid_cells = [a, a];
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(grid_cells[0]));
        assert!(!seen.insert(grid_cells[1]));
    }

    #[test]
    fn extend_keeps_the_default_axis_values() {
        let grid = ScenarioGrid::paper_default()
            .extend_batches(&[128])
            .extend_device_counts(&[4]);
        // Default (None) + the extension on both axes.
        assert_eq!(grid.len(), 6 * 8 * 2 * 2 * 2);
        let cells = grid.scenarios();
        assert!(cells.iter().any(|s| s.batch.is_none()));
        assert!(cells.iter().any(|s| s.batch == Some(128)));
        assert!(cells.iter().any(|s| s.devices.is_none()));
        assert!(cells.iter().any(|s| s.devices == Some(4)));
    }

    #[test]
    fn sparse_wire_scenarios_take_paper_defaults() {
        // Every top-level field is optional on the wire.
        let sparse: Scenario =
            serde::json::from_str(r#"{"benchmark":"AlexNet","design":"McDlaBwAware"}"#).unwrap();
        assert_eq!(sparse.strategy, ParallelStrategy::DataParallel);
        assert_eq!(sparse.devices, None);
        assert_eq!(sparse.batch, None);
        assert!(sparse.validate().is_ok());
        let empty: Scenario = serde::json::from_str("{}").unwrap();
        assert_eq!(empty, Scenario::default());
        assert_eq!(empty.design, SystemDesign::McDlaBwAware);
        assert_eq!(empty.benchmark, Benchmark::AlexNet);
        // Present-but-wrong fields still error.
        assert!(serde::json::from_str::<Scenario>(r#"{"devices":"many"}"#).is_err());
        // With every field optional, a typo'd key must be rejected, not
        // silently resolved to the default cell.
        let err = serde::json::from_str::<Scenario>(r#"{"benchmrk":"GoogLeNet"}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown Scenario field `benchmrk`"), "{err}");
        assert!(err.contains("benchmark"), "{err}");
        // Same inside the nested overrides object: a misspelled knob
        // must not be silently dropped from the simulated cell.
        let err = serde::json::from_str::<Scenario>(r#"{"overrides":{"compresssion":2.6}}"#)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown Overrides field `compresssion`"),
            "{err}"
        );
        assert!(err.contains("compression"), "{err}");
    }

    #[test]
    fn wire_enums_accept_paper_labels_case_insensitively() {
        let aliased: Scenario = serde::json::from_str(
            r#"{"design":"mc-dla(b)","strategy":"Data-Parallel","generation":"tpuv2"}"#,
        )
        .unwrap();
        assert_eq!(aliased.design, SystemDesign::McDlaBwAware);
        assert_eq!(aliased.strategy, ParallelStrategy::DataParallel);
        assert_eq!(aliased.generation, Some(DeviceGeneration::TpuV2));
        // Aliases key the cache identically to wire names.
        let canonical: Scenario =
            serde::json::from_str(r#"{"design":"McDlaBwAware","generation":"TpuV2"}"#).unwrap();
        assert_eq!(aliased, canonical);
        assert_eq!(aliased.digest(), canonical.digest());
    }

    #[test]
    fn unknown_enum_values_list_the_accepted_names() {
        let err = serde::json::from_str::<Scenario>(r#"{"design":"mcdla"}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown SystemDesign `mcdla`"), "{err}");
        assert!(err.contains("McDlaBwAware"), "{err}");
        assert!(err.contains("MC-DLA(B)"), "{err}");
        let err = serde::json::from_str::<Scenario>(r#"{"strategy":"dp"}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("DataParallel"), "{err}");
        assert!(err.contains("data-parallel"), "{err}");
        let err = serde::json::from_str::<Scenario>(r#"{"generation":"Ampere"}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("Kepler"), "{err}");
        assert!(err.contains("TpuV2"), "{err}");
    }

    #[test]
    fn grid_expansion_is_deterministic() {
        let grid = ScenarioGrid::paper_default();
        assert_eq!(grid.scenarios(), grid.scenarios());
    }

    #[test]
    fn labels_are_unique_across_all_axes() {
        // `sweep --filter` addresses cells by label, so two distinct
        // scenarios must never share one. Span every axis — including
        // the topology axis — and check pairwise by map insertion.
        let override_variants = [
            Overrides::default(),
            Overrides {
                pcie_gen4: true,
                ..Overrides::default()
            },
            Overrides {
                device_model: Some(DeviceModel::TpuV2Like),
                ..Overrides::default()
            },
            Overrides {
                device_model: Some(DeviceModel::Dgx2Like),
                ..Overrides::default()
            },
            Overrides {
                compression: Some(2.6),
                ..Overrides::default()
            },
        ];
        let mut generations = vec![None];
        generations.extend(DeviceGeneration::ALL.iter().map(|g| Some(*g)));
        let mut topologies = vec![None];
        topologies.extend(FabricTopology::ALL.iter().map(|t| Some(*t)));
        let mut seen: std::collections::HashMap<String, Scenario> =
            std::collections::HashMap::new();
        for design in SystemDesign::ALL {
            for &benchmark in &[Benchmark::AlexNet, Benchmark::VggE] {
                for strategy in ParallelStrategy::ALL {
                    for devices in [None, Some(2), Some(64)] {
                        for batch in [None, Some(128)] {
                            for &generation in &generations {
                                for &topology in &topologies {
                                    for overrides in override_variants {
                                        let s = Scenario {
                                            design,
                                            benchmark,
                                            strategy,
                                            devices,
                                            batch,
                                            generation,
                                            overrides,
                                            topology,
                                        };
                                        if let Some(dup) = seen.insert(s.label(), s) {
                                            panic!(
                                                "label collision `{}`: {dup:?} vs {s:?}",
                                                s.label()
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn topology_round_trips_on_the_wire() {
        let s: Scenario = serde::json::from_str(r#"{"topology":"pooled-switch"}"#).unwrap();
        assert_eq!(s.topology, Some(FabricTopology::PooledSwitch));
        // Wire names and labels alias the same cell, case-insensitively.
        let canonical: Scenario = serde::json::from_str(r#"{"topology":"PooledSwitch"}"#).unwrap();
        assert_eq!(s, canonical);
        // Unknown topologies are rejected with the accepted names.
        let err = serde::json::from_str::<Scenario>(r#"{"topology":"torus"}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown FabricTopology `torus`"), "{err}");
        assert!(err.contains("pooled-switch"), "{err}");
        assert!(err.contains("FatTree"), "{err}");
        // Round trip through the canonical encoding.
        let json = serde::json::to_string(&s);
        let back: Scenario = serde::json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn topology_unset_keeps_the_pre_axis_encoding() {
        // The canonical encoding — and therefore every published digest
        // — must not change for pre-topology cells: the key is emitted
        // only when set.
        let json = serde::json::to_string(&cell());
        assert!(!json.contains("topology"), "{json}");
        assert_ne!(
            cell().digest(),
            cell().with_topology(FabricTopology::Ring).digest()
        );
        // Each topology keys its own cell.
        let digests: std::collections::HashSet<u64> = FabricTopology::ALL
            .iter()
            .map(|t| cell().with_topology(*t).digest())
            .collect();
        assert_eq!(digests.len(), FabricTopology::ALL.len());
    }

    #[test]
    fn validate_bounds_flow_routed_device_counts() {
        // Routed cells take the analytical device bound: the wire must
        // not be able to stall a serving thread with a mega-fabric.
        let mut s = cell()
            .with_devices(65_536)
            .with_batch(1 << 20)
            .with_topology(FabricTopology::Mesh);
        s.strategy = ParallelStrategy::ModelParallel;
        assert!(s.validate().is_ok());
        s.devices = Some(65_537);
        let err = s.validate().unwrap_err();
        assert!(err.contains("devices must be <= 65536"), "{err}");
        s.topology = None;
        assert_eq!(s.validate().unwrap_err(), err);
    }

    #[test]
    fn grid_topology_axis_expands_and_deserializes() {
        let grid = ScenarioGrid::paper_default()
            .designs(&[SystemDesign::DcDla])
            .benchmarks(&[Benchmark::AlexNet])
            .extend_topologies(&[FabricTopology::Ring, FabricTopology::FatTree]);
        // Default (analytical) + the two extensions.
        assert_eq!(grid.len(), 2 * 3);
        let cells = grid.scenarios();
        assert!(cells.iter().any(|s| s.topology.is_none()));
        assert!(cells
            .iter()
            .any(|s| s.topology == Some(FabricTopology::FatTree)));
        // Pre-topology grid payloads still deserialize (missing axis =
        // analytical default), and the new axis round-trips.
        let legacy = r#"{"designs":["DcDla"],"benchmarks":["AlexNet"],
            "strategies":["DataParallel"],"devices":[null],"batches":[null],
            "generations":[null],"overrides":[{}]}"#;
        let parsed: ScenarioGrid = serde::json::from_str(legacy).unwrap();
        assert_eq!(parsed.topologies, vec![None]);
        let json = serde::json::to_string(&grid);
        let back: ScenarioGrid = serde::json::from_str(&json).unwrap();
        assert_eq!(back, grid);
    }

    #[test]
    fn runner_dedupes_within_a_batch() {
        let runner = Runner::with_threads(2);
        let s = cell();
        let out = runner.run_grid(&[s, s, s]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[1]);
        assert_eq!(runner.cache_misses(), 1);
        assert_eq!(runner.cache_hits(), 2);
    }

    #[test]
    fn validate_rejects_nonsensical_batch_device_combinations() {
        // Individually fine knobs, nonsensical together: DP batch < devices.
        let s = cell().with_devices(256).with_batch(64);
        assert!(s.validate().unwrap_err().contains("cannot cover"));
        // The default batch (512) cannot cover 1024 devices either.
        assert!(cell().with_devices(1024).validate().is_err());
        // Model-parallel replicates the batch, so the combination is fine.
        let mut mp = s;
        mp.strategy = ParallelStrategy::ModelParallel;
        assert!(mp.validate().is_ok());
        // Paper-default and scale-out-sane cells pass.
        assert!(cell().validate().is_ok());
        assert!(cell().with_devices(256).validate().is_ok());
    }

    #[test]
    fn streaming_matches_batch_cell_for_cell() {
        let grid = ScenarioGrid::paper_default()
            .designs(&[SystemDesign::DcDla, SystemDesign::McDlaBwAware])
            .benchmarks(&[Benchmark::AlexNet])
            .device_counts(&[8, 16]);
        let cells = grid.scenarios();
        let batch = Runner::with_threads(2).run_grid_timed(&cells);
        let streamed: Vec<TimedRun> = Runner::with_threads(2)
            .run_grid_streaming(cells.clone(), 2)
            .collect();
        assert_eq!(streamed.len(), batch.len());
        // Completion order may differ; reports must match per scenario.
        for b in &batch {
            let s = streamed
                .iter()
                .find(|t| t.scenario == b.scenario)
                .expect("every batch cell streams");
            assert_eq!(s.report, b.report);
            assert_eq!(s.cached, b.cached);
        }
    }

    #[test]
    fn dropping_a_stream_cancels_cleanly() {
        let runner = Runner::with_threads(2);
        let cells = ScenarioGrid::paper_default().scenarios();
        let mut stream = runner.run_grid_streaming(cells, 1);
        // Take two cells, then drop with most of the grid unconsumed:
        // workers must unblock from the full channel and exit.
        assert!(stream.next().is_some());
        assert!(stream.next().is_some());
        drop(stream);
        // The runner (and its store) remain usable.
        let _ = runner.run(cell());
        assert!(runner.cache_misses() >= 1);
    }

    #[test]
    fn streaming_memoizes_through_the_shared_store() {
        let store = Arc::new(ResultStore::unbounded());
        let runner = Runner::with_store(2, store.clone());
        let s = cell();
        let first: Vec<TimedRun> = runner.run_grid_streaming(vec![s], 4).collect();
        assert!(!first[0].cached);
        let second: Vec<TimedRun> = runner.run_grid_streaming(vec![s], 4).collect();
        assert!(second[0].cached);
        assert_eq!(second[0].wall, Duration::ZERO);
        assert_eq!(store.misses(), 1);
    }

    #[test]
    fn timed_runs_flag_cache_provenance() {
        let runner = Runner::with_threads(1);
        let s = cell();
        let first = runner.run_grid_timed(&[s]);
        assert!(!first[0].cached);
        let second = runner.run_grid_timed(&[s]);
        assert!(second[0].cached);
        assert_eq!(second[0].wall, Duration::ZERO);
        assert_eq!(first[0].report, second[0].report);
    }
}
