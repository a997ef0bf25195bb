//! Route-aware flow-level fabrics: concrete topologies whose collectives
//! are priced by max-min fair sharing over explicit link routes.
//!
//! The analytical [`CollectiveModel`](crate::CollectiveModel) prices a ring
//! collective as `steps × t_step + wire_bytes / B` — exact for dedicated
//! per-hop links, blind to contention. A [`RoutedFabric`] instead *wires*
//! the interconnect as an explicit node/link graph, computes shortest-path
//! routes (deterministic BFS), and drives each collective as a batch of
//! timed flows through a [`mcdla_sim::FlowNetwork`]: one flow per logical
//! ring hop, each occupying the channel list of its route, all sharing
//! links max-min fairly. On uncontended topologies the flow price collapses
//! to the analytical formula (same `B`, same wire bytes); on contended ones
//! (host-PCIe escape channels between backplane islands) the shared links
//! throttle the drain and reproduce the paper's §VI scale-out cliff.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use serde::Serialize;

use mcdla_sim::{Bandwidth, Bytes, ChannelId, FlowNetwork, SimDuration, SimTime};

use crate::collective::{CollectiveKind, CollectiveModel};
use crate::ring::RingShape;

/// The fabric shapes the `topology` scenario knob selects.
///
/// `Ring`, `Line`, and `Mesh` wire device-nodes directly; beyond one
/// backplane island their inter-island hops ride shared host-PCIe escape
/// channels (the §VI cliff). `PooledSwitch` and `FatTree` are switched
/// fabrics whose per-plane bandwidth holds at any scale.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum FabricTopology {
    /// The design's native ring planes realized as a device cycle with
    /// dedicated per-plane links inside each backplane island.
    Ring,
    /// A device chain (no wrap link): the ring's wrap hop routes back
    /// through every reverse link of the line.
    Line,
    /// A `⌈√n⌉`-wide 2-D grid; the collective ring snakes row by row.
    Mesh,
    /// The Fig. 15 NVSwitch-class star: every device hangs its collective
    /// links off one pooled switch plane.
    PooledSwitch,
    /// Two-level tree: one edge switch per backplane pod, fat trunks
    /// (pod-width capacity) to a core switch.
    FatTree,
}

impl FabricTopology {
    /// All five topologies, in documentation order.
    pub const ALL: [FabricTopology; 5] = [
        FabricTopology::Ring,
        FabricTopology::Line,
        FabricTopology::Mesh,
        FabricTopology::PooledSwitch,
        FabricTopology::FatTree,
    ];

    /// The wire (serde) name of this topology — the PascalCase variant
    /// identifier the derived `Serialize` emits.
    pub fn wire_name(self) -> &'static str {
        match self {
            FabricTopology::Ring => "Ring",
            FabricTopology::Line => "Line",
            FabricTopology::Mesh => "Mesh",
            FabricTopology::PooledSwitch => "PooledSwitch",
            FabricTopology::FatTree => "FatTree",
        }
    }

    /// The human label used in scenario labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            FabricTopology::Ring => "ring",
            FabricTopology::Line => "line",
            FabricTopology::Mesh => "mesh",
            FabricTopology::PooledSwitch => "pooled-switch",
            FabricTopology::FatTree => "fat-tree",
        }
    }
}

impl fmt::Display for FabricTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accepts either the serde wire name (`PooledSwitch`) or the label
/// (`pooled-switch`), in any case; an unknown name answers with the full
/// accepted list. This is what CLI flags like `--topologies` parse with.
impl std::str::FromStr for FabricTopology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        FabricTopology::ALL
            .iter()
            .copied()
            .find(|t| s.eq_ignore_ascii_case(t.wire_name()) || s.eq_ignore_ascii_case(t.name()))
            .ok_or_else(|| {
                let accepted: Vec<String> = FabricTopology::ALL
                    .iter()
                    .map(|t| format!("{} / {}", t.wire_name(), t.name()))
                    .collect();
                format!(
                    "unknown FabricTopology `{s}` (accepted, case-insensitive: {})",
                    accepted.join(", ")
                )
            })
    }
}

// Hand-written (not derived) so wire payloads get the same lenient
// names-plus-labels parsing as the CLI.
impl serde::Deserialize for FabricTopology {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::expected("string", "FabricTopology"))?;
        s.parse().map_err(serde::Error::custom)
    }
}

/// Everything a [`RoutedFabric`] needs to know about the system it wires.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSpec {
    /// Device-node count.
    pub devices: usize,
    /// The design's logical collective planes (participants + analytical
    /// hop counts); the fabric realizes one ring per plane.
    pub planes: Vec<RingShape>,
    /// Per-plane, per-direction collective bandwidth in GB/s — the `B` the
    /// analytical model would use.
    pub plane_gbs: f64,
    /// Devices per backplane island; direct topologies cross island
    /// boundaries over shared escape channels.
    pub backplane: usize,
    /// Escape-channel bandwidth between adjacent islands in GB/s (the
    /// host-PCIe share), shared by every plane crossing that boundary.
    pub escape_gbs: f64,
}

/// A concrete topology with shortest-path routes and flow-level collective
/// pricing.
///
/// The fabric keeps only what pricing reads: link capacities, the ring
/// shapes, and ring 0's routes. Links are numbered as they are wired:
/// `planes × stride` per-plane lanes first (plane `k`'s copy of lane `l`
/// is link `l + k·stride`), then the links every plane shares. Every
/// plane follows the same node path, so plane `k` rides lane
/// `l + k·stride` wherever ring 0 rides lane `l`, and the same shared
/// links as ring 0.
#[derive(Debug, Clone)]
pub struct RoutedFabric {
    kind: FabricTopology,
    rings: Vec<RingShape>,
    /// Plane 0's lane capacities as `(links, capacity)` runs.
    lanes: Vec<(usize, Bandwidth)>,
    /// The shared links' capacities as `(links, capacity)` runs.
    shared: Vec<(usize, Bandwidth)>,
    stride: usize,
    /// Ring 0's routes as link ids, hop after hop; each hop's last link
    /// is tagged with [`HOP_END`].
    routes: Vec<u32>,
}

/// Tags the last link of a hop in [`RoutedFabric`]'s routes.
const HOP_END: u32 = 1 << 31;

/// `(links, capacity)` runs of equal bandwidth, in link-id order.
fn capacity_runs(gbs: &[f64]) -> Vec<(usize, Bandwidth)> {
    gbs.chunk_by(|a, b| a == b)
        .map(|run| (run.len(), Bandwidth::gb_per_sec(run[0])))
        .collect()
}

/// The wired graph of one fabric, in the numbering [`RoutedFabric`]
/// documents: node ids (devices first, then switches), and each link's
/// endpoints and bandwidth in link-id order.
#[derive(Default)]
struct Wiring {
    nodes: usize,
    links: Vec<(usize, usize)>,
    gbs: Vec<f64>,
    stride: usize,
}

impl Wiring {
    fn add_node(&mut self) -> usize {
        self.nodes += 1;
        self.nodes - 1
    }

    fn add_duplex_link(&mut self, a: usize, b: usize, gbs: f64) {
        self.links.extend([(a, b), (b, a)]);
        self.gbs.extend([gbs, gbs]);
    }

    /// Ends plane 0's lanes and copies them for planes `1..planes`.
    fn replicate_lanes(&mut self, planes: usize) {
        self.stride = self.links.len();
        for _ in 1..planes {
            self.links.extend_from_within(..self.stride);
            self.gbs.extend_from_within(..self.stride);
        }
    }

    /// The `kind` fabric for `spec` (at least 2 devices and one plane).
    fn new(kind: FabricTopology, spec: &FabricSpec) -> Wiring {
        let n = spec.devices;
        let planes = spec.planes.len();
        let bp = spec.backplane;
        let islands = n.div_ceil(bp);
        let mut w = Wiring {
            nodes: n,
            ..Wiring::default()
        };
        match kind {
            FabricTopology::Ring | FabricTopology::Line => {
                // Dedicated per-plane neighbor links inside an island.
                for i in 0..n {
                    let j = (i + 1) % n;
                    if kind == FabricTopology::Line && j == 0 {
                        continue; // no wrap link on a line
                    }
                    if n == 2 && i == 1 {
                        continue; // the first duplex pair already covers both directions
                    }
                    if i / bp == j / bp {
                        w.add_duplex_link(i, j, spec.plane_gbs);
                    }
                }
                w.replicate_lanes(planes);
                // Shared escape channels across island boundaries (one
                // switch per boundary, shared by all planes).
                if islands > 1 {
                    let boundaries = if kind == FabricTopology::Line {
                        islands - 1
                    } else {
                        islands
                    };
                    for b in 0..boundaries {
                        let i = ((b + 1) * bp).min(n) - 1;
                        let j = ((b + 1) % islands) * bp;
                        let x = w.add_node();
                        w.add_duplex_link(i, x, spec.escape_gbs);
                        w.add_duplex_link(x, j, spec.escape_gbs);
                    }
                }
            }
            FabricTopology::Mesh => {
                let wide = mesh_width(n);
                for i in 0..n {
                    if (i + 1) % wide != 0 && i + 1 < n {
                        w.add_duplex_link(i, i + 1, spec.plane_gbs);
                    }
                    if i + wide < n {
                        w.add_duplex_link(i, i + wide, spec.plane_gbs);
                    }
                }
                w.replicate_lanes(planes);
            }
            FabricTopology::PooledSwitch => {
                let sw = w.add_node();
                for d in 0..n {
                    w.add_duplex_link(d, sw, spec.plane_gbs);
                }
                w.replicate_lanes(planes);
            }
            FabricTopology::FatTree => {
                let core = w.add_node();
                let edges: Vec<usize> = (0..islands).map(|_| w.add_node()).collect();
                for d in 0..n {
                    w.add_duplex_link(d, edges[d / bp], spec.plane_gbs);
                }
                w.replicate_lanes(planes);
                // One fat trunk per pod, pod-width capacity, shared by all
                // planes (a full-bisection tree).
                for &e in &edges {
                    w.add_duplex_link(e, core, spec.plane_gbs * bp as f64);
                }
            }
        }
        w
    }
}

fn mesh_width(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

/// The collective ring order over device indices: the device cycle,
/// except on a mesh, where the ring snakes row by row.
fn ring_order(kind: FabricTopology, n: usize) -> Vec<usize> {
    if kind != FabricTopology::Mesh {
        return (0..n).collect();
    }
    let w = mesh_width(n);
    let mut o = Vec::with_capacity(n);
    for r in 0..n.div_ceil(w) {
        let row = r * w..((r + 1) * w).min(n);
        if r % 2 == 0 {
            o.extend(row);
        } else {
            o.extend(row.rev());
        }
    }
    o
}

/// Deterministic BFS over a [`Wiring`]: each node's out-links are
/// explored in link-id order, so ties always break the same way, and
/// a by-destination index finds the last hop without scanning a
/// switch's whole out-list. Scratch state is reused across searches.
struct Router {
    out: Vec<Vec<usize>>,
    /// The lowest-id link for each `(src, dst)` pair.
    first_link: HashMap<(usize, usize), usize>,
    /// Search stamp per node: equal to `stamp` once seen this search.
    seen: Vec<u32>,
    /// The link a seen node was reached by.
    via: Vec<usize>,
    stamp: u32,
    queue: VecDeque<usize>,
}

impl Router {
    fn new(w: &Wiring) -> Router {
        let mut out = vec![Vec::new(); w.nodes];
        let mut first_link = HashMap::with_capacity(w.links.len());
        for (l, &(src, dst)) in w.links.iter().enumerate() {
            out[src].push(l);
            first_link.entry((src, dst)).or_insert(l);
        }
        Router {
            out,
            first_link,
            seen: vec![0; w.nodes],
            via: vec![0; w.nodes],
            stamp: 0,
            queue: VecDeque::new(),
        }
    }

    /// Appends to `route` the links of the shortest `src -> dst` path
    /// (`src != dst`), taking the lowest-id link between each node pair;
    /// `false` if `dst` is unreachable.
    ///
    /// BFS finishes through the first node, in discovery order, that
    /// links to `dst`, so the search stops as soon as it discovers one.
    fn route(&mut self, w: &Wiring, src: usize, dst: usize, route: &mut Vec<u32>) -> bool {
        self.stamp += 1;
        self.seen[src] = self.stamp;
        self.queue.clear();
        self.queue.push_back(src);
        let (mut cur, last) = 'search: {
            if let Some(&last) = self.first_link.get(&(src, dst)) {
                break 'search (src, last);
            }
            while let Some(u) = self.queue.pop_front() {
                for &l in &self.out[u] {
                    let v = w.links[l].1;
                    if self.seen[v] == self.stamp {
                        continue;
                    }
                    self.seen[v] = self.stamp;
                    self.via[v] = l;
                    if let Some(&last) = self.first_link.get(&(v, dst)) {
                        break 'search (v, last);
                    }
                    self.queue.push_back(v);
                }
            }
            return false;
        };
        let start = route.len();
        route.push(last as u32);
        while cur != src {
            route.push(self.via[cur] as u32);
            cur = w.links[self.via[cur]].0;
        }
        route[start..].reverse();
        true
    }
}

fn pipeline_steps(kind: CollectiveKind, participants: usize) -> f64 {
    match kind {
        CollectiveKind::AllGather => (participants - 1) as f64,
        CollectiveKind::AllReduce => 2.0 * (participants - 1) as f64,
        CollectiveKind::Broadcast => participants.saturating_sub(2) as f64,
    }
}

impl RoutedFabric {
    /// Builds the `kind` fabric for `spec`.
    ///
    /// Fabrics with fewer than 2 devices or no planes are empty (no rings);
    /// their collectives price to [`SimDuration::MAX`], matching
    /// [`CollectiveModel::striped_latency`] over an empty ring set.
    ///
    /// A zero bandwidth is accepted: its links carry nothing, and every
    /// collective whose routes cross one prices to [`SimDuration::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `spec.backplane` is zero, or if a wired link's bandwidth
    /// is negative or not finite.
    pub fn build(kind: FabricTopology, spec: &FabricSpec) -> RoutedFabric {
        assert!(spec.backplane >= 1, "backplane island must hold a device");
        let n = spec.devices;
        let mut fabric = RoutedFabric {
            kind,
            rings: Vec::new(),
            lanes: Vec::new(),
            shared: Vec::new(),
            stride: 0,
            routes: Vec::new(),
        };
        if n < 2 || spec.planes.is_empty() {
            return fabric;
        }
        let w = Wiring::new(kind, spec);
        assert!(
            w.links.len() <= HOP_END as usize,
            "link ids must stay below the hop tag"
        );
        fabric.stride = w.stride;
        fabric.lanes = capacity_runs(&w.gbs[..w.stride]);
        fabric.shared = capacity_runs(&w.gbs[spec.planes.len() * w.stride..]);
        // Route ring 0's hops; the other planes follow the same node
        // paths (see `lane`).
        let order = ring_order(kind, n);
        let mut router = Router::new(&w);
        for i in 0..n {
            let (u, v) = (order[i], order[(i + 1) % n]);
            assert!(
                router.route(&w, u, v, &mut fabric.routes),
                "fabric graph is connected"
            );
            *fabric
                .routes
                .last_mut()
                .expect("ring hops join distinct devices") |= HOP_END;
        }
        fabric.routes.shrink_to_fit();
        let realized = fabric.routes.len();
        fabric.rings = spec
            .planes
            .iter()
            .map(|plane| match kind {
                // The ring realizes the design's analytical planes: keep
                // their hop counts (memory-node relays included) so the
                // pipeline-fill term matches the analytical model exactly,
                // plus one extra wire hop per island crossing.
                FabricTopology::Ring => RingShape {
                    participants: plane.participants.min(n).max(2),
                    hops: plane.hops + realized.saturating_sub(n),
                },
                _ => RingShape {
                    participants: n,
                    hops: realized,
                },
            })
            .collect();
        fabric
    }

    /// The link plane `k` rides where ring 0 rides link `l`.
    fn lane(&self, l: u32, k: usize) -> usize {
        let l = (l & !HOP_END) as usize;
        if l < self.stride {
            l + k * self.stride
        } else {
            l
        }
    }

    /// Ring 0's route of each hop, as link ids.
    fn hops(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.routes.split_inclusive(|&l| l & HOP_END != 0)
    }

    /// Which topology this fabric realizes.
    pub fn kind(&self) -> FabricTopology {
        self.kind
    }

    /// The logical collective planes (participants + hop counts).
    pub fn ring_shapes(&self) -> &[RingShape] {
        &self.rings
    }

    /// Flows one collective opens (one per ring hop across all planes).
    pub fn flows_per_collective(&self) -> usize {
        self.rings.len() * self.hops().count()
    }

    /// Prices one collective of `size` bytes, striped evenly across the
    /// fabric's planes, as a timed flow batch.
    ///
    /// Per plane the cost is the analytical pipeline-fill term
    /// (`steps × t_step`, using `model`'s message size and hop latency)
    /// plus the *simulated* drain: every ring hop opens one flow of that
    /// ring's [`wire_bytes_per_link`](CollectiveModel::wire_bytes_per_link)
    /// over its route, all planes at once, and the plane's drain is its
    /// slowest flow under max-min fair sharing. The collective completes
    /// when its slowest plane does. On dedicated routes the drain is
    /// exactly `wire_bytes / B`, i.e. the analytical bandwidth term.
    ///
    /// Empty fabrics price to [`SimDuration::MAX`] (nothing can be
    /// exchanged), zero-byte collectives to zero.
    pub fn collective_time(
        &self,
        model: &CollectiveModel,
        kind: CollectiveKind,
        size: Bytes,
    ) -> SimDuration {
        if self.rings.is_empty() {
            return SimDuration::MAX;
        }
        if size.is_zero() {
            return SimDuration::ZERO;
        }
        let share = Bytes::new(size.as_u64().div_ceil(self.rings.len() as u64));
        // One channel per link, in link-id order.
        let mut net = FlowNetwork::new();
        let mut chan: Vec<ChannelId> = Vec::new();
        let lanes = self
            .lanes
            .iter()
            .cycle()
            .take(self.rings.len() * self.lanes.len());
        for &(links, cap) in lanes.chain(&self.shared) {
            chan.extend((0..links).map(|_| net.add_channel("", cap)));
        }
        let mut batch = Vec::new();
        let mut ring_of = Vec::new();
        for (k, &shape) in self.rings.iter().enumerate() {
            if shape.participants < 2 {
                continue;
            }
            let wire = model.wire_bytes_per_link(kind, share, shape);
            if wire.is_zero() {
                continue;
            }
            for route in self.hops() {
                batch.push((route.iter().map(|&c| chan[self.lane(c, k)]).collect(), wire));
                ring_of.push(k);
            }
        }
        if batch.is_empty() {
            return SimDuration::ZERO;
        }
        let ids = net
            .open_flows(SimTime::ZERO, batch)
            .expect("fabric routes are valid");
        let Some(done) = net.drain_all() else {
            return SimDuration::MAX; // a starved (zero-capacity) route
        };
        let mut drain = vec![SimDuration::ZERO; self.rings.len()];
        for (t, id) in done {
            // Ids are issued in batch order, so the search finds the entry.
            let r = ring_of[ids.binary_search(&id).expect("opened flow")];
            drain[r] = drain[r].max(SimDuration::from_secs_f64(t.as_secs_f64()));
        }
        let b = model.link_bandwidth_gbs * 1e9;
        let mut total = SimDuration::ZERO;
        for (r, shape) in self.rings.iter().enumerate() {
            if shape.participants < 2 {
                continue;
            }
            let t_step =
                shape.hops_per_step() * (model.hop_latency_secs + model.message_bytes as f64 / b);
            let fill =
                SimDuration::from_secs_f64(pipeline_steps(kind, shape.participants) * t_step);
            total = total.max(fill + drain[r]);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NodeId, NodeKind, Topology};

    fn spec(devices: usize, plane_gbs: f64, escape_gbs: f64) -> FabricSpec {
        FabricSpec {
            devices,
            planes: vec![RingShape::device_ring(devices); 3],
            plane_gbs,
            backplane: 8,
            escape_gbs,
        }
    }

    fn rel_err(a: SimDuration, b: SimDuration) -> f64 {
        (a.as_secs_f64() - b.as_secs_f64()).abs() / b.as_secs_f64().max(1e-30)
    }

    #[test]
    fn ring_matches_analytical_inside_one_backplane() {
        // Dedicated per-plane channels: the flow drain is exactly the
        // analytical bandwidth term, for every collective kind and size.
        let model = CollectiveModel::with_link_bandwidth(50.0);
        for devices in [2usize, 4, 8] {
            let fab = RoutedFabric::build(FabricTopology::Ring, &spec(devices, 50.0, 8.0));
            for kind in CollectiveKind::ALL {
                for size in [Bytes::from_kib(64), Bytes::from_mib(8), Bytes::from_mib(64)] {
                    let flow = fab.collective_time(&model, kind, size);
                    let analytic = model.striped_latency(kind, size, fab.ring_shapes());
                    assert!(
                        rel_err(flow, analytic) < 1e-4,
                        "{kind} at {devices} devices: flow {flow} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_keeps_analytic_plane_hops() {
        // MC-DLA star planes carry memory-node relays (hops > devices);
        // the realized ring must keep those hop counts for the fill term.
        let planes = vec![
            RingShape {
                participants: 8,
                hops: 8,
            },
            RingShape {
                participants: 8,
                hops: 12,
            },
            RingShape {
                participants: 8,
                hops: 20,
            },
        ];
        let fab = RoutedFabric::build(
            FabricTopology::Ring,
            &FabricSpec {
                devices: 8,
                planes: planes.clone(),
                plane_gbs: 50.0,
                backplane: 8,
                escape_gbs: 8.0,
            },
        );
        assert_eq!(fab.ring_shapes(), planes.as_slice());
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let flow = fab.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8));
        let analytic =
            model.striped_latency(CollectiveKind::AllReduce, Bytes::from_mib(8), &planes);
        assert!(rel_err(flow, analytic) < 1e-6);
    }

    #[test]
    fn escape_channels_throttle_the_ring_at_scale() {
        // 64 devices = 8 islands; every plane's island crossings share one
        // thin escape channel per boundary, so the ring collapses while the
        // pooled switch holds the per-plane rate — the §VI cliff.
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let size = Bytes::from_mib(8);
        let ring = RoutedFabric::build(FabricTopology::Ring, &spec(64, 50.0, 4.0));
        let pooled = RoutedFabric::build(FabricTopology::PooledSwitch, &spec(64, 50.0, 4.0));
        let t_ring = ring.collective_time(&model, CollectiveKind::AllReduce, size);
        let t_pooled = pooled.collective_time(&model, CollectiveKind::AllReduce, size);
        assert!(
            t_ring.as_secs_f64() > 3.0 * t_pooled.as_secs_f64(),
            "ring {t_ring} should cliff vs pooled {t_pooled}"
        );
    }

    #[test]
    fn pooled_switch_is_dedicated_at_any_scale() {
        // Star routes give every plane its own up/down lane per device, so
        // the flow price stays at the analytical 2n-hop ring price.
        let model = CollectiveModel::with_link_bandwidth(50.0);
        for devices in [8usize, 64] {
            let fab = RoutedFabric::build(FabricTopology::PooledSwitch, &spec(devices, 50.0, 4.0));
            for s in fab.ring_shapes() {
                assert_eq!(
                    (s.participants, s.hops),
                    (devices, 2 * devices),
                    "star rings traverse up+down per step"
                );
            }
            let flow = fab.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8));
            let analytic = model.striped_latency(
                CollectiveKind::AllReduce,
                Bytes::from_mib(8),
                fab.ring_shapes(),
            );
            assert!(rel_err(flow, analytic) < 1e-6);
        }
    }

    #[test]
    fn line_pays_for_the_wrap_hop() {
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let ring = RoutedFabric::build(FabricTopology::Ring, &spec(8, 50.0, 8.0));
        let line = RoutedFabric::build(FabricTopology::Line, &spec(8, 50.0, 8.0));
        let t_ring = ring.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8));
        let t_line = line.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8));
        assert!(t_line > t_ring, "line {t_line} vs ring {t_ring}");
    }

    #[test]
    fn every_topology_builds_and_prices() {
        let model = CollectiveModel::with_link_bandwidth(50.0);
        for kind in FabricTopology::ALL {
            for devices in [2usize, 5, 8, 16, 64] {
                let fab = RoutedFabric::build(kind, &spec(devices, 50.0, 4.0));
                assert_eq!(fab.ring_shapes().len(), 3, "{kind} at {devices}");
                let t = fab.collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(1));
                assert!(
                    t > SimDuration::ZERO && t < SimDuration::MAX,
                    "{kind} at {devices}: {t}"
                );
                assert!(fab.flows_per_collective() >= 3 * devices);
            }
        }
    }

    #[test]
    fn fat_tree_tracks_pooled_switch() {
        // Fat trunks keep cross-pod hops unthrottled; the tree prices within
        // a small factor of the star (extra hops, no contention).
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let pooled = RoutedFabric::build(FabricTopology::PooledSwitch, &spec(64, 50.0, 4.0));
        let tree = RoutedFabric::build(FabricTopology::FatTree, &spec(64, 50.0, 4.0));
        let tp = pooled
            .collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8))
            .as_secs_f64();
        let tt = tree
            .collective_time(&model, CollectiveKind::AllReduce, Bytes::from_mib(8))
            .as_secs_f64();
        assert!(tt < 2.0 * tp, "tree {tt} vs pooled {tp}");
    }

    #[test]
    fn degenerate_fabrics_are_empty() {
        let fab = RoutedFabric::build(FabricTopology::Ring, &spec(1, 50.0, 8.0));
        assert!(fab.ring_shapes().is_empty());
        assert_eq!(
            fab.collective_time(
                &CollectiveModel::paper_fig9(),
                CollectiveKind::AllReduce,
                Bytes::from_mib(1)
            ),
            SimDuration::MAX
        );
        let fab = RoutedFabric::build(FabricTopology::Mesh, &spec(4, 50.0, 8.0));
        assert_eq!(
            fab.collective_time(
                &CollectiveModel::paper_fig9(),
                CollectiveKind::AllReduce,
                Bytes::ZERO
            ),
            SimDuration::ZERO
        );
    }

    #[test]
    fn topology_serde_accepts_wire_names_and_labels() {
        for t in FabricTopology::ALL {
            let v = serde::Value::Str(t.wire_name().to_owned());
            assert_eq!(serde::Deserialize::from_value(&v), Ok(t));
            let v = serde::Value::Str(t.name().to_uppercase());
            assert_eq!(serde::Deserialize::from_value(&v), Ok(t));
        }
        let bad = serde::Value::Str("torus".into());
        let err = <FabricTopology as serde::Deserialize>::from_value(&bad).unwrap_err();
        let msg = err.to_string();
        for t in FabricTopology::ALL {
            assert!(msg.contains(t.wire_name()), "{msg}");
            assert!(msg.contains(t.name()), "{msg}");
        }
    }

    #[test]
    fn routes_are_shortest_and_deterministic() {
        let w = Wiring::new(FabricTopology::PooledSwitch, &spec(4, 50.0, 4.0));
        let mut router = Router::new(&w);
        let (mut first, mut again) = (Vec::new(), Vec::new());
        assert!(router.route(&w, 0, 3, &mut first));
        assert_eq!(first.len(), 2, "device-switch-device");
        assert!(router.route(&w, 0, 3, &mut again));
        assert_eq!(first, again);
    }

    /// BFS shortest node path (inclusive), exploring each node's links
    /// in link-id order with `Topology::links_from`.
    fn shortest_node_path(t: &Topology, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut parent: Vec<Option<NodeId>> = vec![None; t.nodes().len()];
        let mut seen = vec![false; t.nodes().len()];
        seen[src.index()] = true;
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            for l in t.links_from(u) {
                let v = l.dst();
                if seen[v.index()] {
                    continue;
                }
                seen[v.index()] = true;
                parent[v.index()] = Some(u);
                if v == dst {
                    let mut path = vec![dst];
                    while let Some(p) = parent[path.last().unwrap().index()] {
                        path.push(p);
                    }
                    path.reverse();
                    return path;
                }
                queue.push_back(v);
            }
        }
        panic!("{dst} unreachable from {src}");
    }

    /// `[plane][hop] -> link ids` by BFS over a `Topology` of the same
    /// wiring, plane `k` taking parallel link `k` (mod count) between a
    /// node pair.
    fn topology_routes(kind: FabricTopology, spec: &FabricSpec) -> Vec<Vec<Vec<usize>>> {
        let w = Wiring::new(kind, spec);
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..w.nodes)
            .map(|i| t.add_node(NodeKind::Device, format!("N{i}")))
            .collect();
        for (&(a, b), &gbs) in w.links.iter().zip(&w.gbs) {
            t.add_link(nodes[a], nodes[b], gbs);
        }
        let n = spec.devices;
        let order = ring_order(kind, n);
        (0..spec.planes.len())
            .map(|k| {
                (0..n)
                    .map(|i| {
                        let path =
                            shortest_node_path(&t, nodes[order[i]], nodes[order[(i + 1) % n]]);
                        path.windows(2)
                            .map(|pair| {
                                let parallel = t.links_between(pair[0], pair[1]);
                                parallel[k % parallel.len()].index()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn compact_routes_expand_to_the_topology_routes() {
        for kind in FabricTopology::ALL {
            for devices in 2..=64 {
                for planes in [1, 3] {
                    let spec = FabricSpec {
                        planes: vec![RingShape::device_ring(devices); planes],
                        ..spec(devices, 50.0, 4.0)
                    };
                    let fab = RoutedFabric::build(kind, &spec);
                    let expanded: Vec<Vec<Vec<usize>>> = (0..planes)
                        .map(|k| {
                            fab.hops()
                                .map(|route| route.iter().map(|&c| fab.lane(c, k)).collect())
                                .collect()
                        })
                        .collect();
                    assert_eq!(
                        expanded,
                        topology_routes(kind, &spec),
                        "{kind} at {devices} devices, {planes} planes"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_capacity_routes_price_to_max() {
        // Past one island the ring crosses the (here dead) escape channels.
        let model = CollectiveModel::with_link_bandwidth(50.0);
        let size = Bytes::from_mib(1);
        let fab = RoutedFabric::build(FabricTopology::Ring, &spec(16, 50.0, 0.0));
        assert_eq!(
            fab.collective_time(&model, CollectiveKind::AllReduce, size),
            SimDuration::MAX
        );
        // Inside one island no escape channel is wired.
        let fab = RoutedFabric::build(FabricTopology::Ring, &spec(8, 50.0, 0.0));
        assert!(fab.collective_time(&model, CollectiveKind::AllReduce, size) < SimDuration::MAX);
    }
}
