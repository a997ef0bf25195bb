//! The shared scenario-result store: a capacity-bounded, LRU-evicting
//! map from [`Scenario`] to [`IterationReport`] with single-flight
//! deduplication and JSON snapshot/restore — plus the generic
//! [`StageCache`] the staged engine's per-stage memo tables (see
//! [`crate::stages`]) are built on.
//!
//! [`Runner`](crate::Runner) memoizes through a [`ResultStore`], and the
//! `mcdla-serve` service shares the *same* store between its HTTP
//! handlers and any embedded batch work, so a cell simulated anywhere is
//! a cache hit everywhere. The store is built for long-lived,
//! many-caller processes:
//!
//! * **One lock per table** — the entries, their recency order and the
//!   open flights sit behind one mutex, held for a hash probe and a
//!   recency update; computes run with no lock held.
//! * **Bounded** — an optional capacity triggers exact least-recently-used
//!   eviction, in the same critical section that installs the new entry:
//!   residency never exceeds the configured capacity — not transiently,
//!   not under concurrent inserts, not when a snapshot larger than the
//!   bound is restored — keeping a service's footprint flat no matter how
//!   many distinct cells it has ever served.
//! * **Single-flight** — concurrent requests for the same *uncomputed*
//!   cell trigger exactly one simulation; the extra callers block on the
//!   leader's flight and share its result.
//! * **Warmable** — the full contents serialize to a deterministic JSON
//!   snapshot and restore into a fresh store, so a restarted service
//!   answers its first requests from cache.
//!
//! All of the mechanics except snapshotting live in [`StageCache`],
//! which is generic over key and value; [`ResultStore`] is the
//! `Scenario` → `IterationReport` instantiation plus warm restore.
//!
//! # Examples
//!
//! ```
//! use mcdla_core::{Provenance, ResultStore, Scenario, SystemDesign};
//! use mcdla_dnn::Benchmark;
//! use mcdla_parallel::ParallelStrategy;
//!
//! let store = ResultStore::unbounded();
//! let cell = Scenario::new(
//!     SystemDesign::DcDla,
//!     Benchmark::AlexNet,
//!     ParallelStrategy::DataParallel,
//! );
//! let first = store.get_or_compute(cell, || cell.simulate());
//! assert_eq!(first.provenance, Provenance::Computed);
//! let again = store.get_or_compute(cell, || cell.simulate());
//! assert_eq!(again.provenance, Provenance::Cached);
//! assert_eq!(first.report, again.report);
//!
//! // Snapshot and warm a second store.
//! let snapshot = store.snapshot_json();
//! let warmed = ResultStore::unbounded();
//! assert_eq!(warmed.restore_json(&snapshot), Ok(1));
//! assert_eq!(warmed.get(&cell).as_ref(), Some(&first.report));
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use crate::report::IterationReport;
use crate::scenario::Scenario;

/// The canonical 64-bit hash of a scenario, which the `mcdla-cluster`
/// gateway routes by. `DefaultHasher::new()` uses fixed keys, so the
/// hash is stable across processes and runs: any gateway (or a
/// restarted one) sends a scenario to the same worker.
pub fn key_hash(scenario: &Scenario) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    scenario.hash(&mut hasher);
    hasher.finish()
}

/// Where a [`Fetched`] report came from.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// This call ran the simulation (a cache miss; it led the flight).
    Computed,
    /// Another in-flight call was already simulating the cell; this call
    /// waited and shares its result.
    Coalesced,
    /// Served straight from the cache.
    Cached,
}

/// A report plus how the store obtained it.
#[derive(Debug, Clone, PartialEq)]
pub struct Fetched {
    /// The simulation result.
    pub report: IterationReport,
    /// Cache/flight provenance of this particular call.
    pub provenance: Provenance,
}

/// Counters for one staged-engine memo table, serialized into
/// [`StoreStats::stages`] (and from there into `GET /stats`,
/// `GET /metrics`, and the sweep summary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStats {
    /// Stage name (`fabric`, `network`, `layer_timing`, `plan`,
    /// `schedule`, `collective`, `sync`).
    pub stage: String,
    /// Lookups answered from the table (including coalesced waiters).
    pub hits: u64,
    /// Artifacts actually built.
    pub misses: u64,
    /// Artifacts evicted to stay within the table's capacity.
    pub evictions: u64,
    /// Artifacts currently resident.
    pub entries: u64,
    /// Capacity bound, if any.
    pub capacity: Option<u64>,
    /// `hits / (hits + misses)`, or 0 before any traffic.
    pub hit_rate: f64,
}

/// A point-in-time snapshot of the store's counters, serializable into
/// `mcdla sweep` payloads and the service's `GET /stats` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Requests answered from the cache (including coalesced waiters).
    pub hits: u64,
    /// Cells actually simulated.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Requests that blocked on another caller's in-flight simulation.
    pub dedup_waits: u64,
    /// Simulations currently executing.
    pub in_flight: u64,
    /// Distinct cells currently resident.
    pub entries: u64,
    /// Capacity bound, if any.
    pub capacity: Option<u64>,
    /// Entries loaded from a snapshot rather than simulated here.
    pub warm_loaded: u64,
    /// `hits / (hits + misses)`, or 0 before any traffic.
    pub hit_rate: f64,
    /// Counters for the staged engine's per-stage memo tables. The
    /// tables are process-global (every store in the process shares
    /// them), so these are process totals, not per-store.
    pub stages: Vec<StageStats>,
}

/// `hits / (hits + misses)`, or 0 before any traffic.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

enum FlightState<V> {
    Pending,
    Done(V),
    /// The leader panicked; waiters retry (one becomes the new leader).
    Failed,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        }
    }

    /// Blocks until the flight lands; `None` means the leader failed.
    fn wait(&self) -> Option<V> {
        let mut state = self.state.lock().expect("flight lock");
        while matches!(*state, FlightState::Pending) {
            state = self.done.wait(state).expect("flight wait");
        }
        match &*state {
            FlightState::Done(value) => Some(value.clone()),
            FlightState::Failed => None,
            FlightState::Pending => unreachable!("wait loop exits only on a terminal state"),
        }
    }

    fn land(&self, state: FlightState<V>) {
        *self.state.lock().expect("flight lock") = state;
        self.done.notify_all();
    }
}

/// Everything a [`StageCache`] guards with its one lock.
struct Table<K, V> {
    cells: HashMap<K, Entry<V>>,
    /// Recency index: `last_used` tick → key, mirroring `cells` exactly
    /// (ticks are unique). Its first entry is the LRU victim, so
    /// eviction is `O(log n)` — a mega-grid sweep overflows a bounded
    /// table on nearly every insert, so eviction sits on the hot path.
    by_tick: BTreeMap<u64, K>,
    flights: HashMap<K, Arc<Flight<V>>>,
    /// Monotonic LRU clock.
    tick: u64,
}

impl<K: Copy + Eq + Hash, V> Table<K, V> {
    /// Marks an entry most recently used, keeping the index in sync.
    fn touch(&mut self, key: &K) -> Option<&mut Entry<V>> {
        let entry = self.cells.get_mut(key)?;
        self.tick += 1;
        self.by_tick.remove(&entry.last_used);
        entry.last_used = self.tick;
        self.by_tick.insert(self.tick, *key);
        Some(entry)
    }

    /// Installs `key → value` as the most recently used entry. A new key
    /// in a full table first evicts the least-recently-used entry, so the
    /// bound holds whenever the lock is free. Returns whether it evicted.
    fn install(&mut self, key: K, value: V, capacity: Option<usize>) -> bool {
        if let Some(entry) = self.touch(&key) {
            entry.value = value;
            return false;
        }
        let full = capacity.is_some_and(|cap| self.cells.len() >= cap);
        if full {
            let (_, victim) = self
                .by_tick
                .pop_first()
                .expect("a full table has a least-recently-used entry");
            self.cells.remove(&victim);
        }
        self.tick += 1;
        self.cells.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        self.by_tick.insert(self.tick, key);
        full
    }
}

/// A capacity-bounded, LRU-evicting, single-flight memo table under one
/// lock — the machinery behind [`ResultStore`], generic over key and
/// value so the staged engine's per-stage tables (fabrics, layer
/// timings, collective costs; see [`crate::stages`]) reuse the
/// identical concurrency and bounding semantics.
///
/// # Examples
///
/// ```
/// use mcdla_core::{Provenance, StageCache};
///
/// let cache: StageCache<u64, u64> = StageCache::bounded(2);
/// let (v, p) = cache.get_or_compute(7, || 49);
/// assert_eq!((v, p), (49, Provenance::Computed));
/// let (v, p) = cache.get_or_compute(7, || unreachable!("cached"));
/// assert_eq!((v, p), (49, Provenance::Cached));
/// ```
pub struct StageCache<K, V> {
    table: Mutex<Table<K, V>>,
    /// Capacity bound (`None` = unbounded).
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    dedup_waits: AtomicU64,
    in_flight: AtomicU64,
}

impl<K: Copy + Eq + Hash, V: Clone> fmt::Debug for StageCache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.len())
            .finish()
    }
}

impl<K: Copy + Eq + Hash, V: Clone> Default for StageCache<K, V> {
    fn default() -> Self {
        Self::new(None)
    }
}

impl<K: Copy + Eq + Hash, V: Clone> StageCache<K, V> {
    /// A table bounded to at most `capacity` entries (LRU-evicting).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a table that can hold nothing
    /// cannot satisfy `get_or_compute`.
    pub fn bounded(capacity: usize) -> Self {
        Self::new(Some(capacity))
    }

    /// A table bounded to `capacity` entries, or unbounded for `None`.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is `Some(0)`.
    fn new(capacity: Option<usize>) -> Self {
        assert!(
            capacity != Some(0),
            "cache capacity must be >= 1 (leave it unbounded instead)"
        );
        StageCache {
            table: Mutex::new(Table {
                cells: HashMap::new(),
                by_tick: BTreeMap::new(),
                flights: HashMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().expect("cache table lock")
    }

    /// Lookups answered from the table (including coalesced waiters).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Values actually computed through this table.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within capacity.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Lookups that blocked on another caller's in-flight compute.
    pub(crate) fn dedup_waits(&self) -> u64 {
        self.dedup_waits.load(Ordering::Relaxed)
    }

    /// Computes currently executing.
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Capacity bound, if any.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Distinct entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().cells.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This table's counters under a stage name, for
    /// [`StoreStats::stages`].
    pub fn stats(&self, stage: &str) -> StageStats {
        let hits = self.hits();
        let misses = self.misses();
        StageStats {
            stage: stage.to_owned(),
            hits,
            misses,
            evictions: self.evictions(),
            entries: self.len() as u64,
            capacity: self.capacity.map(|c| c as u64),
            hit_rate: hit_rate(hits, misses),
        }
    }

    /// Looks up a key, counting a hit (and refreshing its recency) on
    /// success. Absence is *not* counted as a miss — misses count actual
    /// computes.
    pub fn get(&self, key: &K) -> Option<V> {
        let value = self.lock().touch(key)?.value.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// True when the key is resident (no counter or recency effects).
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.lock().cells.contains_key(key)
    }

    /// Inserts a value directly (evicting when at capacity, in the same
    /// critical section, so the bound holds at every observable point).
    /// Normal traffic goes through [`StageCache::get_or_compute`].
    pub fn insert(&self, key: K, value: V) {
        if self.lock().install(key, value, self.capacity) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The table's workhorse: returns the key's value, computing it via
    /// `compute` only if no cached copy exists and no other caller is
    /// already computing it (single-flight).
    ///
    /// `compute` runs with **no locks held**, so slow computes never
    /// block unrelated keys. If the leading caller panics, its waiters
    /// wake and retry (one becomes the new leader); the panic propagates
    /// to the leader's thread as usual.
    pub fn get_or_compute(&self, key: K, compute: impl Fn() -> V) -> (V, Provenance) {
        loop {
            let lead_or_wait = {
                let mut table = self.lock();
                if let Some(entry) = table.touch(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (entry.value.clone(), Provenance::Cached);
                }
                match table.flights.get(&key) {
                    Some(flight) => Err(flight.clone()),
                    None => {
                        let flight = Arc::new(Flight::new());
                        table.flights.insert(key, flight.clone());
                        self.in_flight.fetch_add(1, Ordering::Relaxed);
                        Ok(flight)
                    }
                }
            };
            match lead_or_wait {
                Err(flight) => {
                    self.dedup_waits.fetch_add(1, Ordering::Relaxed);
                    match flight.wait() {
                        Some(value) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return (value, Provenance::Coalesced);
                        }
                        // Leader failed; loop around and try again.
                        None => continue,
                    }
                }
                Ok(flight) => {
                    let guard = FlightGuard {
                        cache: self,
                        key,
                        flight,
                        landed: false,
                    };
                    let value = compute();
                    guard.land(value.clone());
                    return (value, Provenance::Computed);
                }
            }
        }
    }
}

/// The bounded, warmable scenario→report store: a
/// [`StageCache<Scenario, IterationReport>`] plus JSON snapshot/restore.
pub struct ResultStore {
    inner: StageCache<Scenario, IterationReport>,
    warm_loaded: AtomicU64,
}

impl fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("capacity", &self.inner.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ResultStore {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl ResultStore {
    /// A store with no capacity bound (the batch-`Runner` default).
    pub fn unbounded() -> Self {
        Self::new(None)
    }

    /// A store bounded to at most `capacity` entries (LRU-evicting).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a store that can hold nothing
    /// cannot satisfy `get_or_compute`.
    pub fn bounded(capacity: usize) -> Self {
        Self::new(Some(capacity))
    }

    fn new(capacity: Option<usize>) -> Self {
        ResultStore {
            inner: StageCache::new(capacity),
            warm_loaded: AtomicU64::new(0),
        }
    }

    /// Requests answered from the cache (including coalesced waiters).
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Cells actually simulated through this store.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Entries evicted to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions()
    }

    /// Requests that blocked on another caller's in-flight simulation.
    pub fn dedup_waits(&self) -> u64 {
        self.inner.dedup_waits()
    }

    /// Entries loaded from snapshots.
    pub fn warm_loaded(&self) -> u64 {
        self.warm_loaded.load(Ordering::Relaxed)
    }

    /// Capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity()
    }

    /// Distinct cells currently resident.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no cells are resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// All counters at once, including the staged engine's per-stage
    /// table counters (process-global; see [`crate::stages`]).
    pub fn stats(&self) -> StoreStats {
        let hits = self.hits();
        let misses = self.misses();
        StoreStats {
            hits,
            misses,
            evictions: self.evictions(),
            dedup_waits: self.dedup_waits(),
            in_flight: self.inner.in_flight(),
            entries: self.len() as u64,
            capacity: self.capacity().map(|c| c as u64),
            warm_loaded: self.warm_loaded(),
            hit_rate: hit_rate(hits, misses),
            stages: crate::stages::stage_stats(),
        }
    }

    /// Looks up a cell, counting a hit (and refreshing its recency) on
    /// success. Absence is *not* counted as a miss — misses count actual
    /// simulations, matching the original `Runner` semantics.
    pub fn get(&self, scenario: &Scenario) -> Option<IterationReport> {
        self.inner.get(scenario)
    }

    /// True when the cell is resident (no counter or recency effects).
    pub fn contains(&self, scenario: &Scenario) -> bool {
        self.inner.contains(scenario)
    }

    /// Inserts a result directly (evicting when at capacity, so the
    /// bound holds at every observable point). Used by snapshot
    /// restore; normal traffic goes through
    /// [`ResultStore::get_or_compute`].
    pub fn insert(&self, scenario: Scenario, report: IterationReport) {
        self.inner.insert(scenario, report);
    }

    /// The store's workhorse: returns the cell's report, simulating it
    /// via `simulate` only if no cached copy exists and no other caller
    /// is already computing it (single-flight).
    ///
    /// `simulate` runs with **no locks held**, so slow simulations never
    /// block unrelated cells. If the leading caller panics, its waiters
    /// wake and retry (one becomes the new leader); the panic propagates
    /// to the leader's thread as usual.
    pub fn get_or_compute(
        &self,
        scenario: Scenario,
        simulate: impl Fn() -> IterationReport,
    ) -> Fetched {
        let (report, provenance) = self.inner.get_or_compute(scenario, simulate);
        Fetched { report, provenance }
    }

    /// Serializes the resident cells to deterministic JSON (sorted by
    /// scenario digest) for `--snapshot` warm restarts. Only resident
    /// cells are written — evicted entries are never rewritten, so a
    /// bounded store's snapshot never outgrows its capacity.
    pub fn snapshot_json(&self) -> String {
        let mut cells: Vec<SnapshotCell> = self
            .inner
            .lock()
            .cells
            .iter()
            .map(|(s, e)| SnapshotCell {
                scenario: *s,
                report: e.value.clone(),
            })
            .collect();
        cells.sort_by_key(|c| c.scenario.digest());
        serde::json::to_string_pretty(&Snapshot {
            version: SNAPSHOT_VERSION,
            capacity: self.capacity().map(|c| c as u64),
            cells,
        })
    }

    /// Restores cells from [`ResultStore::snapshot_json`] text (version
    /// 1 or 2), returning how many cells the snapshot held. Loaded cells
    /// count as `warm_loaded`, not as hits or misses. The *receiving*
    /// store's capacity governs (the snapshot's recorded capacity is
    /// informational): restoring a snapshot larger than the bound evicts
    /// down oldest-first — the earliest cells in snapshot order go, the
    /// bound is never exceeded, not even mid-restore.
    pub fn restore_json(&self, text: &str) -> Result<usize, String> {
        let snapshot: Snapshot =
            serde::json::from_str(text).map_err(|e| format!("invalid snapshot: {e}"))?;
        if !SUPPORTED_SNAPSHOT_VERSIONS.contains(&snapshot.version) {
            return Err(format!(
                "snapshot version {} unsupported (expected one of {SUPPORTED_SNAPSHOT_VERSIONS:?})",
                snapshot.version
            ));
        }
        let n = snapshot.cells.len();
        for cell in snapshot.cells {
            self.insert(cell.scenario, cell.report);
        }
        self.warm_loaded.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// Writes a snapshot to `path` atomically (temp file + rename), so a
    /// concurrent reader or a mid-write crash never sees a torn file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = self.snapshot_json();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a snapshot file written by [`ResultStore::save`], returning
    /// how many cells it restored.
    pub fn load(&self, path: &Path) -> Result<usize, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading snapshot {}: {e}", path.display()))?;
        self.restore_json(&text)
    }
}

/// Written snapshot format. Version 2 records the writing store's
/// capacity alongside the cells; version 1 (cells only) still restores.
const SNAPSHOT_VERSION: u32 = 2;

/// Versions [`ResultStore::restore_json`] accepts.
const SUPPORTED_SNAPSHOT_VERSIONS: [u32; 2] = [1, 2];

#[derive(Serialize, Deserialize)]
struct SnapshotCell {
    scenario: Scenario,
    report: IterationReport,
}

#[derive(Serialize, Deserialize)]
struct Snapshot {
    version: u32,
    /// Capacity of the store that wrote the snapshot (informational;
    /// absent in version-1 files, `null` for unbounded writers).
    capacity: Option<u64>,
    cells: Vec<SnapshotCell>,
}

/// Cleans up a leader's flight however `compute` exits: on a normal
/// landing the result is cached and waiters get `Done`; if the closure
/// panics, `Drop` marks the flight `Failed` so waiters retry instead of
/// hanging.
struct FlightGuard<'a, K: Copy + Eq + Hash, V: Clone> {
    cache: &'a StageCache<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    landed: bool,
}

impl<K: Copy + Eq + Hash, V: Clone> FlightGuard<'_, K, V> {
    fn land(mut self, value: V) {
        self.landed = true;
        // Install and flight removal share one critical section, so a
        // later caller sees either the open flight or the entry.
        let evicted = {
            let mut table = self.cache.lock();
            table.flights.remove(&self.key);
            table.install(self.key, value.clone(), self.cache.capacity)
        };
        if evicted {
            self.cache.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.cache.misses.fetch_add(1, Ordering::Relaxed);
        self.cache.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.flight.land(FlightState::Done(value));
    }
}

impl<K: Copy + Eq + Hash, V: Clone> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.landed {
            return;
        }
        self.cache.lock().flights.remove(&self.key);
        self.cache.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.flight.land(FlightState::Failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SystemDesign;
    use mcdla_dnn::Benchmark;
    use mcdla_interconnect::FabricTopology;
    use mcdla_parallel::ParallelStrategy;
    use mcdla_sim::{Bytes, SimDuration};

    fn cell(batch: u64) -> Scenario {
        Scenario::new(
            SystemDesign::DcDla,
            Benchmark::AlexNet,
            ParallelStrategy::DataParallel,
        )
        .with_batch(batch)
    }

    /// A distinguishable dummy report (no need to run the simulator for
    /// store-mechanics tests).
    fn report(tag: u64) -> IterationReport {
        IterationReport {
            design: SystemDesign::DcDla,
            benchmark: format!("dummy-{tag}"),
            strategy: ParallelStrategy::DataParallel,
            devices: 8,
            global_batch: tag,
            iteration_time: SimDuration::from_us(tag.max(1)),
            compute_busy: SimDuration::ZERO,
            sync_busy: SimDuration::ZERO,
            virt_busy: SimDuration::ZERO,
            memory_stall: SimDuration::ZERO,
            virt_bytes: Bytes::ZERO,
            sync_bytes: Bytes::ZERO,
            cpu_socket_avg_gbs: 0.0,
            cpu_socket_max_gbs: 0.0,
        }
    }

    #[test]
    fn hit_miss_and_provenance() {
        let store = ResultStore::unbounded();
        let first = store.get_or_compute(cell(1), || report(1));
        assert_eq!(first.provenance, Provenance::Computed);
        let second = store.get_or_compute(cell(1), || panic!("must not recompute"));
        assert_eq!(second.provenance, Provenance::Cached);
        assert_eq!(first.report, second.report);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let store = ResultStore::bounded(2);
        store.insert(cell(1), report(1));
        store.insert(cell(2), report(2));
        // Touch cell 1 so cell 2 is now the least recently used.
        assert!(store.get(&cell(1)).is_some());
        store.insert(cell(3), report(3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(store.contains(&cell(1)), "recently used survives");
        assert!(!store.contains(&cell(2)), "LRU entry evicted");
        assert!(store.contains(&cell(3)));
    }

    #[test]
    fn capacity_bounds_hold_under_churn() {
        let store = ResultStore::bounded(4);
        for i in 0..100 {
            store.insert(cell(i), report(i));
        }
        assert_eq!(store.len(), 4, "the bound fills to exactly capacity");
        assert_eq!(store.evictions() + store.len() as u64, 100);
    }

    #[test]
    fn bound_is_global_even_when_capacity_is_below_the_shard_count() {
        let store = ResultStore::bounded(4);
        for i in 0..100 {
            store.insert(cell(i), report(i));
        }
        assert_eq!(store.len(), 4, "capacity is one table-wide budget");
        assert_eq!(store.evictions(), 96);
        // The four newest inserts survive (inserts are the only recency
        // signal here, so eviction goes strictly oldest-first).
        for i in 96..100 {
            assert!(store.contains(&cell(i)), "cell {i} should be resident");
        }
    }

    #[test]
    fn concurrent_inserts_never_overshoot_the_bound() {
        let store = ResultStore::bounded(8);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..200 {
                        store.insert(cell(t * 1000 + i), report(i));
                        let resident = store.len();
                        assert!(resident <= 8, "observed {resident} resident > capacity 8");
                    }
                });
            }
        });
        assert!(store.len() <= 8);
        assert_eq!(store.evictions() + store.len() as u64, 800);
    }

    #[test]
    fn stats_report_shard_occupancy_and_hit_rate() {
        let store = ResultStore::unbounded();
        let zero = store.stats();
        assert_eq!(zero.hit_rate, 0.0);
        for i in 0..8 {
            store.insert(cell(i), report(i));
        }
        let _ = store.get_or_compute(cell(0), || panic!("cached"));
        let _ = store.get_or_compute(cell(100), || report(100));
        let stats = store.stats();
        assert_eq!(stats.entries, 9);
        assert!((stats.hit_rate - 0.5).abs() < 1e-12, "{stats:?}");
    }

    #[test]
    fn store_stats_carry_the_stage_tables() {
        let store = ResultStore::unbounded();
        // Run one analytical and one routed cell through the staged
        // engine so every stage table exists and has seen traffic: only
        // a routed cell consults the `sync` and `collective` tables.
        let routed = cell(512)
            .with_devices(16)
            .with_topology(FabricTopology::Ring);
        for c in [cell(512), routed] {
            let _ = store.get_or_compute(c, || c.simulate());
        }
        let stats = store.stats();
        let names: Vec<&str> = stats.stages.iter().map(|s| s.stage.as_str()).collect();
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
            ],
            "stage list is fixed and ordered"
        );
        for stage in &stats.stages {
            assert!(
                stage.hits + stage.misses > 0,
                "stage {} saw no traffic: {stage:?}",
                stage.stage
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_is_rejected() {
        let _ = ResultStore::bounded(0);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_stage_cache_capacity_is_rejected() {
        let _: StageCache<u64, u64> = StageCache::bounded(0);
    }

    #[test]
    fn stage_cache_tracks_hits_misses_and_evictions() {
        let cache: StageCache<u64, u64> = StageCache::bounded(2);
        assert_eq!(cache.get_or_compute(1, || 10), (10, Provenance::Computed));
        assert_eq!(cache.get_or_compute(1, || 99), (10, Provenance::Cached));
        assert_eq!(cache.get_or_compute(2, || 20), (20, Provenance::Computed));
        // Touch 1 so 2 is the LRU victim.
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get_or_compute(3, || 30), (30, Provenance::Computed));
        assert!(cache.contains(&1) && cache.contains(&3) && !cache.contains(&2));
        let stats = cache.stats("test");
        assert_eq!(stats.stage, "test");
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 3, 1));
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, Some(2));
        assert!((stats.hit_rate - 0.4).abs() < 1e-12);
    }

    #[test]
    fn single_flight_coalesces_concurrent_computes() {
        use std::sync::atomic::AtomicUsize;
        let store = ResultStore::unbounded();
        let computes = AtomicUsize::new(0);
        let n = 8;
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    store.get_or_compute(cell(7), || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for every
                        // sibling to pile onto it.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        report(7)
                    })
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "exactly one simulation for {n} concurrent requests"
        );
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), (n - 1) as u64);
    }

    #[test]
    fn failed_leader_wakes_waiters_and_retries() {
        use std::sync::atomic::AtomicUsize;
        let store = ResultStore::unbounded();
        let attempts = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // Leader panics mid-flight.
            let leader = scope.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    store.get_or_compute(cell(9), || {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        panic!("simulated failure");
                    })
                }));
                assert!(result.is_err(), "leader's panic propagates");
            });
            // Waiter arrives while the doomed flight is open, then takes
            // over after it fails.
            std::thread::sleep(std::time::Duration::from_millis(10));
            let waiter = scope.spawn(|| {
                store.get_or_compute(cell(9), || {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    report(9)
                })
            });
            leader.join().unwrap();
            let fetched = waiter.join().unwrap();
            assert_eq!(fetched.report, report(9));
        });
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "panicked + retried");
        assert!(store.contains(&cell(9)));
    }

    #[test]
    fn snapshot_round_trips_bit_identical() {
        let store = ResultStore::unbounded();
        for i in 0..10 {
            store.insert(cell(i), report(i));
        }
        let json = store.snapshot_json();
        // Deterministic: same contents, same bytes.
        assert_eq!(json, store.snapshot_json());

        let warmed = ResultStore::unbounded();
        assert_eq!(warmed.restore_json(&json), Ok(10));
        assert_eq!(warmed.warm_loaded(), 10);
        assert_eq!(warmed.hits(), 0, "warm loads are not hits");
        assert_eq!(warmed.misses(), 0, "warm loads are not misses");
        for i in 0..10 {
            assert_eq!(warmed.get(&cell(i)), Some(report(i)));
        }
        // And the warmed store snapshots to the same bytes.
        assert_eq!(warmed.snapshot_json(), json);
    }

    #[test]
    fn restore_rejects_garbage_and_wrong_versions() {
        let store = ResultStore::unbounded();
        assert!(store.restore_json("not json").is_err());
        assert!(store.restore_json("{\"cells\": []}").is_err());
        assert!(store
            .restore_json("{\"version\": 99, \"cells\": []}")
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn restore_respects_capacity() {
        let donor = ResultStore::unbounded();
        for i in 0..20 {
            donor.insert(cell(i), report(i));
        }
        let small = ResultStore::bounded(4);
        assert_eq!(small.restore_json(&donor.snapshot_json()), Ok(20));
        assert_eq!(small.len(), 4);
        assert_eq!(small.evictions(), 16);
    }

    #[test]
    fn restore_accepts_version_1_snapshots() {
        // A pre-versioning (v1) file has no capacity field; it must keep
        // restoring after the format bump.
        let donor = ResultStore::unbounded();
        donor.insert(cell(1), report(1));
        let v2 = donor.snapshot_json();
        assert!(v2.contains("\"version\": 2"), "{v2}");
        assert!(v2.contains("\"capacity\": null"), "{v2}");
        let v1 = v2
            .replace("\"version\": 2", "\"version\": 1")
            .replace("  \"capacity\": null,\n", "");
        let warmed = ResultStore::unbounded();
        assert_eq!(warmed.restore_json(&v1), Ok(1));
        assert_eq!(warmed.get(&cell(1)), Some(report(1)));
    }

    #[test]
    fn bounded_snapshots_record_their_capacity() {
        let store = ResultStore::bounded(7);
        store.insert(cell(1), report(1));
        assert!(store.snapshot_json().contains("\"capacity\": 7"));
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "mcdla-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        let store = ResultStore::unbounded();
        store.insert(cell(1), report(1));
        store.save(&path).unwrap();
        let warmed = ResultStore::unbounded();
        assert_eq!(warmed.load(&path), Ok(1));
        assert_eq!(warmed.get(&cell(1)), Some(report(1)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
