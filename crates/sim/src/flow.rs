//! Fluid-flow bandwidth model with max-min fair sharing.
//!
//! Bulk DMA transfers in the simulated system traverse *paths* of shared
//! channels — a PCIe switch uplink shared by two GPUs, a CPU socket's DRAM
//! bandwidth shared by four devices, an NVLINK-class ring link shared between
//! collective traffic and memory-overlaying traffic. Rather than simulating
//! packets, each transfer is a *flow* whose instantaneous rate is the
//! [max-min fair](https://en.wikipedia.org/wiki/Max-min_fairness) allocation
//! across all channels on its path. Rates are piecewise constant between
//! flow arrivals/departures, so the network advances analytically from event
//! to event with no time-stepping error.
//!
//! This is the standard flow-level network abstraction; it reproduces the
//! bandwidth phenomena the paper cares about (per-device PCIe bandwidth
//! shrinking proportionally to the number of intra-node devices, socket
//! memory-bandwidth saturation in HC-DLA) without packet-level cost.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};
use crate::units::{Bandwidth, Bytes};

/// Identifies a channel within a [`FlowNetwork`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(usize);

impl ChannelId {
    /// Index into the network's channel table.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Identifies a flow within a [`FlowNetwork`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Channel {
    capacity: f64, // bytes/sec
    label: String,
    /// Total bytes that have traversed this channel.
    bytes_carried: f64,
}

#[derive(Debug, Clone)]
struct FlowState {
    path: Vec<ChannelId>,
    remaining: f64, // bytes
    rate: f64,      // bytes/sec, updated on every recompute
}

/// Errors returned by [`FlowNetwork`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// A flow path referenced a channel id not present in the network.
    UnknownChannel(ChannelId),
    /// A flow was opened with an empty path.
    EmptyPath,
    /// Time was advanced backwards.
    TimeRegression,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnknownChannel(id) => write!(f, "unknown channel {id}"),
            FlowError::EmptyPath => f.write_str("flow path must contain at least one channel"),
            FlowError::TimeRegression => f.write_str("network time may not move backwards"),
        }
    }
}

impl std::error::Error for FlowError {}

/// A network of capacity-limited channels carrying fluid flows.
///
/// # Examples
///
/// Two DMA transfers sharing one 16 GB/s PCIe uplink each progress at
/// 8 GB/s — the paper's "effective host–device communication bandwidth
/// allocated per device gets proportionally reduced" observation:
///
/// ```
/// use mcdla_sim::{Bandwidth, Bytes, FlowNetwork, SimTime};
///
/// let mut net = FlowNetwork::new();
/// let pcie = net.add_channel("pcie-switch", Bandwidth::gb_per_sec(16.0));
/// let a = net.open_flow(SimTime::ZERO, &[pcie], Bytes::from_gb(8)).unwrap();
/// let _b = net.open_flow(SimTime::ZERO, &[pcie], Bytes::from_gb(8)).unwrap();
///
/// let (t, done) = net.next_completion().unwrap();
/// assert_eq!(done, a); // FIFO tie-break: first-opened completes first
/// assert!((t.as_secs_f64() - 1.0).abs() < 1e-6); // 8 GB at 8 GB/s
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    channels: Vec<Channel>,
    flows: BTreeMap<FlowId, FlowState>,
    now: SimTime,
    next_flow: u64,
}

impl FlowNetwork {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        FlowNetwork::default()
    }

    /// Adds a channel with the given capacity and returns its id.
    pub fn add_channel(&mut self, label: impl Into<String>, capacity: Bandwidth) -> ChannelId {
        let id = ChannelId(self.channels.len());
        self.channels.push(Channel {
            capacity: capacity.as_bytes_per_sec(),
            label: label.into(),
            bytes_carried: 0.0,
        });
        id
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Current network time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured capacity of `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` does not belong to this network.
    pub fn capacity(&self, channel: ChannelId) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.channels[channel.index()].capacity)
    }

    /// Total bytes carried by `channel` so far (behind Figure 12's "avg" bars
    /// when divided by elapsed time).
    ///
    /// # Panics
    ///
    /// Panics if `channel` does not belong to this network.
    pub fn bytes_carried(&self, channel: ChannelId) -> Bytes {
        Bytes::new(self.channels[channel.index()].bytes_carried.round() as u64)
    }

    /// Label given to `channel` at creation.
    ///
    /// # Panics
    ///
    /// Panics if `channel` does not belong to this network.
    pub fn channel_label(&self, channel: ChannelId) -> &str {
        &self.channels[channel.index()].label
    }

    /// Opens a flow of `bytes` over `path`, starting at `at`.
    ///
    /// Advances the network to `at` first, then recomputes the max-min fair
    /// rate allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::EmptyPath`] for an empty path,
    /// [`FlowError::UnknownChannel`] for out-of-range channel ids, and
    /// [`FlowError::TimeRegression`] if `at` precedes the network clock.
    pub fn open_flow(
        &mut self,
        at: SimTime,
        path: &[ChannelId],
        bytes: Bytes,
    ) -> Result<FlowId, FlowError> {
        Ok(self.open_flows(at, [(path.to_vec(), bytes)])?[0])
    }

    /// Opens a batch of flows at the same instant with a **single** rate
    /// recompute, and returns their ids in input order.
    ///
    /// Equivalent to calling [`FlowNetwork::open_flow`] once per entry at the
    /// same `at` (rates are a pure function of the in-flight flow set, so one
    /// recompute at the end lands on the same allocation), but costs one
    /// progressive-filling pass instead of one per flow — the difference
    /// between O(n²) and O(n) when a collective opens thousands of per-hop
    /// flows at once.
    ///
    /// The whole batch is validated before any flow is admitted: on error the
    /// network is unchanged.
    ///
    /// # Errors
    ///
    /// Same as [`FlowNetwork::open_flow`].
    pub fn open_flows(
        &mut self,
        at: SimTime,
        batch: impl IntoIterator<Item = (Vec<ChannelId>, Bytes)>,
    ) -> Result<Vec<FlowId>, FlowError> {
        let batch: Vec<(Vec<ChannelId>, Bytes)> = batch.into_iter().collect();
        for (path, _) in &batch {
            if path.is_empty() {
                return Err(FlowError::EmptyPath);
            }
            for &c in path.iter() {
                if c.index() >= self.channels.len() {
                    return Err(FlowError::UnknownChannel(c));
                }
            }
        }
        self.advance_to(at)?;
        let mut ids = Vec::with_capacity(batch.len());
        for (path, bytes) in batch {
            let id = FlowId(self.next_flow);
            self.next_flow += 1;
            self.flows.insert(
                id,
                FlowState {
                    path,
                    remaining: bytes.as_f64(),
                    rate: 0.0,
                },
            );
            ids.push(id);
        }
        self.recompute_rates();
        Ok(ids)
    }

    /// Earliest `(time, flow)` completion among in-flight flows, if any flow
    /// can complete (a flow starved to zero rate never completes).
    ///
    /// Ties break toward the oldest flow id, keeping event order
    /// deterministic.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        self.flows
            .iter()
            .filter_map(|(&id, f)| Some((self.completion(f)?, id)))
            .min()
    }

    /// When `f` finishes at its current rate; `None` if it is starved.
    fn completion(&self, f: &FlowState) -> Option<SimTime> {
        if f.rate <= 0.0 {
            // A zero-byte flow completes immediately.
            return (f.remaining <= BYTE_EPSILON).then_some(self.now);
        }
        let secs = (f.remaining / f.rate).max(0.0);
        Some(self.now + SimDuration::from_secs_f64(secs))
    }

    /// The earliest completion tick and its cohort: every flow that
    /// finishes on that same tick, in flow-id order.
    fn next_cohort(&self) -> Option<(SimTime, Vec<FlowId>)> {
        let mut tick: Option<SimTime> = None;
        let mut cohort = Vec::new();
        for (&id, f) in &self.flows {
            let Some(t) = self.completion(f) else {
                continue;
            };
            if tick.is_some_and(|best| t > best) {
                continue;
            }
            if tick != Some(t) {
                tick = Some(t);
                cohort.clear();
            }
            cohort.push(id);
        }
        tick.map(|t| (t, cohort))
    }

    /// Drains to `t`, removes the cohort finishing there, and recomputes
    /// rates once for the survivors.
    fn retire(&mut self, t: SimTime, cohort: &[FlowId]) {
        self.drain(t);
        for id in cohort {
            self.flows.remove(id);
        }
        self.recompute_rates();
    }

    /// Advances the clock to `to`, draining bytes from in-flight flows, and
    /// returns the flows that completed (in completion order, each tick's
    /// cohort in flow-id order).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::TimeRegression`] if `to` precedes the clock.
    pub fn advance_to(&mut self, to: SimTime) -> Result<Vec<FlowId>, FlowError> {
        if to < self.now {
            return Err(FlowError::TimeRegression);
        }
        let mut completed = Vec::new();
        while let Some((t, cohort)) = self.next_cohort() {
            if t > to {
                break;
            }
            self.retire(t, &cohort);
            completed.extend(cohort);
        }
        self.drain(to);
        Ok(completed)
    }

    /// Instantaneous rate of `flow`; `None` once completed/unknown.
    pub fn flow_rate(&self, flow: FlowId) -> Option<Bandwidth> {
        self.flows
            .get(&flow)
            .map(|f| Bandwidth::bytes_per_sec(f.rate))
    }

    /// Runs the network until all flows complete, returning them in
    /// completion order. Flows starved at zero rate make this return `None`
    /// (the network cannot drain).
    ///
    /// Every flow that finishes on the same tick retires as one cohort,
    /// in flow-id order, with one rate recompute for the survivors: a
    /// symmetric collective of thousands of flows drains in a handful of
    /// recomputes instead of one per flow.
    pub fn drain_all(&mut self) -> Option<Vec<(SimTime, FlowId)>> {
        let mut done = Vec::with_capacity(self.flows.len());
        while !self.flows.is_empty() {
            let (t, cohort) = self.next_cohort()?;
            self.retire(t, &cohort);
            done.extend(cohort.into_iter().map(|id| (t, id)));
        }
        Some(done)
    }

    /// Moves bytes for elapsed time `self.now..t` at current rates.
    fn drain(&mut self, t: SimTime) {
        let dt = t.saturating_since(self.now).as_secs_f64();
        if dt > 0.0 {
            for f in self.flows.values_mut() {
                let moved = f.rate * dt;
                f.remaining = (f.remaining - moved).max(0.0);
                for &c in &f.path {
                    self.channels[c.index()].bytes_carried += moved;
                }
            }
        }
        self.now = self.now.max(t);
    }

    /// Progressive-filling max-min fairness.
    ///
    /// Repeatedly finds the most-constrained channel (smallest equal share
    /// for its unfrozen flows), freezes those flows at that share, removes
    /// the consumed capacity, and iterates.
    fn recompute_rates(&mut self) {
        let n_ch = self.channels.len();
        let mut residual: Vec<f64> = self.channels.iter().map(|c| c.capacity).collect();
        let mut load: Vec<usize> = vec![0; n_ch];
        let mut bottleneck: Vec<bool> = vec![false; n_ch];
        let mut unfrozen: Vec<&mut FlowState> = self.flows.values_mut().collect();
        for f in &unfrozen {
            for &c in &f.path {
                load[c.index()] += 1;
            }
        }
        while !unfrozen.is_empty() {
            // Bottleneck share across channels with load.
            let mut share = f64::INFINITY;
            for c in 0..n_ch {
                if load[c] > 0 {
                    share = share.min(residual[c].max(0.0) / load[c] as f64);
                }
            }
            if !share.is_finite() {
                break;
            }
            // Freeze every unfrozen flow crossing a bottleneck channel.
            for c in 0..n_ch {
                bottleneck[c] = load[c] > 0
                    && (residual[c].max(0.0) / load[c] as f64) <= share * (1.0 + RATE_EPSILON);
            }
            let before = unfrozen.len();
            unfrozen.retain_mut(|f| {
                if !f.path.iter().any(|c| bottleneck[c.index()]) {
                    return true;
                }
                f.rate = share;
                for &c in &f.path {
                    residual[c.index()] -= share;
                    load[c.index()] -= 1;
                }
                false
            });
            if unfrozen.len() == before {
                // No channel constrains the remaining flows (shouldn't happen
                // for non-empty paths); freeze them at the current share.
                for f in unfrozen.drain(..) {
                    f.rate = share;
                }
            }
        }
        for f in unfrozen {
            f.rate = 0.0;
        }
    }
}

const BYTE_EPSILON: f64 = 1e-6;
const RATE_EPSILON: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(x: f64) -> Bandwidth {
        Bandwidth::gb_per_sec(x)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("link", gb(25.0));
        let f = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_gb(50))
            .unwrap();
        assert!((net.flow_rate(f).unwrap().as_gb_per_sec() - 25.0).abs() < 1e-9);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("link", gb(16.0));
        let flows: Vec<_> = (0..4)
            .map(|_| {
                net.open_flow(SimTime::ZERO, &[c], Bytes::from_gb(4))
                    .unwrap()
            })
            .collect();
        for f in &flows {
            assert!((net.flow_rate(*f).unwrap().as_gb_per_sec() - 4.0).abs() < 1e-9);
        }
        // All complete at t=1s; completion order follows flow id.
        let done = net.drain_all().unwrap();
        assert_eq!(done.len(), 4);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
        assert_eq!(done.iter().map(|(_, id)| *id).collect::<Vec<_>>(), flows);
    }

    #[test]
    fn max_min_with_two_bottlenecks() {
        // Classic max-min example: flow A crosses both channels, flows B and
        // C cross one each. ch1 = 10, ch2 = 4.
        //   step 1: ch2 share = 4/2 = 2  -> A and C frozen at 2
        //   step 2: ch1 residual = 10-2 = 8, only B -> B = 8
        let mut net = FlowNetwork::new();
        let ch1 = net.add_channel("ch1", gb(10.0));
        let ch2 = net.add_channel("ch2", gb(4.0));
        let a = net
            .open_flow(SimTime::ZERO, &[ch1, ch2], Bytes::from_gb(100))
            .unwrap();
        let b = net
            .open_flow(SimTime::ZERO, &[ch1], Bytes::from_gb(100))
            .unwrap();
        let c = net
            .open_flow(SimTime::ZERO, &[ch2], Bytes::from_gb(100))
            .unwrap();
        assert!((net.flow_rate(a).unwrap().as_gb_per_sec() - 2.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap().as_gb_per_sec() - 8.0).abs() < 1e-9);
        assert!((net.flow_rate(c).unwrap().as_gb_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn departure_frees_bandwidth_for_survivors() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("link", gb(10.0));
        let a = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_gb(5))
            .unwrap();
        let b = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_gb(10))
            .unwrap();
        // Both run at 5 GB/s. A finishes at t=1; B then runs at 10 GB/s and
        // finishes its remaining 5 GB at t=1.5.
        let done = net.drain_all().unwrap();
        assert_eq!(done[0].1, a);
        assert!((done[0].0.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(done[1].1, b);
        assert!((done[1].0.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_slows_existing_flow() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("link", gb(10.0));
        let a = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_gb(10))
            .unwrap();
        // At t=0.5, A has 5 GB left; B arrives, both drop to 5 GB/s.
        let b = net
            .open_flow(SimTime::from_us(500_000), &[c], Bytes::from_gb(5))
            .unwrap();
        let done = net.drain_all().unwrap();
        // A: 5 GB at 5 GB/s => t = 0.5 + 1.0 = 1.5. B likewise.
        assert_eq!(done[0].1, a);
        assert!((done[0].0.as_secs_f64() - 1.5).abs() < 1e-6);
        assert_eq!(done[1].1, b);
        assert!((done[1].0.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_channel_starves_flow() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("dead", Bandwidth::ZERO);
        let _f = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_gb(1))
            .unwrap();
        assert_eq!(net.next_completion(), None);
        assert_eq!(net.drain_all(), None);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("link", gb(1.0));
        let f = net
            .open_flow(SimTime::from_ns(5), &[c], Bytes::ZERO)
            .unwrap();
        let (t, id) = net.next_completion().unwrap();
        assert_eq!((t, id), (SimTime::from_ns(5), f));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("link", gb(1.0));
        assert_eq!(
            net.open_flow(SimTime::ZERO, &[], Bytes::new(1)),
            Err(FlowError::EmptyPath)
        );
        assert_eq!(
            net.open_flow(SimTime::ZERO, &[ChannelId(99)], Bytes::new(1)),
            Err(FlowError::UnknownChannel(ChannelId(99)))
        );
        net.open_flow(SimTime::from_us(10), &[c], Bytes::new(1))
            .unwrap();
        assert_eq!(
            net.advance_to(SimTime::from_us(5)),
            Err(FlowError::TimeRegression)
        );
    }

    #[test]
    fn peak_rate_and_bytes_carried_accounting() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("socket-dram", gb(80.0));
        for _ in 0..4 {
            net.open_flow(SimTime::ZERO, &[c], Bytes::from_gb(20))
                .unwrap();
        }
        net.drain_all().unwrap();
        assert!((net.bytes_carried(c).as_gb() - 80.0).abs() < 1e-6);
        assert_eq!(net.channel_label(c), "socket-dram");
    }

    #[test]
    fn batch_open_matches_sequential_opens() {
        let mut seq = FlowNetwork::new();
        let mut bat = FlowNetwork::new();
        let cs: Vec<ChannelId> = (0..3)
            .map(|i| seq.add_channel(format!("l{i}"), gb(10.0)))
            .collect();
        let cb: Vec<ChannelId> = (0..3)
            .map(|i| bat.add_channel(format!("l{i}"), gb(10.0)))
            .collect();
        let specs: Vec<(Vec<usize>, u64)> =
            vec![(vec![0], 4), (vec![0, 1], 8), (vec![1, 2], 2), (vec![2], 6)];
        for (path, gbs) in &specs {
            let p: Vec<ChannelId> = path.iter().map(|&i| cs[i]).collect();
            seq.open_flow(SimTime::ZERO, &p, Bytes::from_gb(*gbs))
                .unwrap();
        }
        bat.open_flows(
            SimTime::ZERO,
            specs.iter().map(|(path, gbs)| {
                (
                    path.iter().map(|&i| cb[i]).collect::<Vec<_>>(),
                    Bytes::from_gb(*gbs),
                )
            }),
        )
        .unwrap();
        let ds = seq.drain_all().unwrap();
        let db = bat.drain_all().unwrap();
        assert_eq!(ds.len(), db.len());
        for ((ts, _), (tb, _)) in ds.iter().zip(&db) {
            assert!((ts.as_secs_f64() - tb.as_secs_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_open_is_all_or_nothing() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("link", gb(1.0));
        let err = net.open_flows(
            SimTime::ZERO,
            vec![(vec![c], Bytes::from_gb(1)), (vec![], Bytes::from_gb(1))],
        );
        assert_eq!(err, Err(FlowError::EmptyPath));
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn advance_collects_completions_in_order() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel("link", gb(1.0));
        let a = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_mb(500))
            .unwrap();
        let b = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_mb(1500))
            .unwrap();
        // Shares 0.5 GB/s each: A done at t=1s; then B alone at 1 GB/s, 1 GB
        // left, done at t=2s.
        let done = net.advance_to(SimTime::from_secs(3)).unwrap();
        assert_eq!(done, vec![a, b]);
        assert_eq!(net.active_flows(), 0);
        assert_eq!(net.now(), SimTime::from_secs(3));
    }

    #[test]
    fn advance_to_a_cohort_tick_returns_every_member() {
        // ch1 carries d, a and b; ch2 carries b and c. ch1 is the first
        // bottleneck (7.3/3 each), leaving c twice d's rate on ch2, so d
        // and c (twice d's bytes) finish on one tick. When d leaves, b
        // takes more of ch2 and c slows, so retiring d alone would leave
        // c a sub-byte residue that lands a tick later.
        let mut net = FlowNetwork::new();
        let ch1 = net.add_channel("ch1", gb(7.3));
        let ch2 = net.add_channel("ch2", gb(7.3));
        let bytes = 1_000_000_003;
        let d = net
            .open_flow(SimTime::ZERO, &[ch1], Bytes::new(bytes))
            .unwrap();
        let c = net
            .open_flow(SimTime::ZERO, &[ch2], Bytes::new(2 * bytes))
            .unwrap();
        for path in [vec![ch1], vec![ch1, ch2]] {
            net.open_flow(SimTime::ZERO, &path, Bytes::from_gb(10))
                .unwrap();
        }
        let (tick, first) = net.next_completion().unwrap();
        assert_eq!(first, d);
        assert_eq!(net.advance_to(tick).unwrap(), vec![d, c]);
        assert_eq!(net.now(), tick);
        assert_eq!(net.active_flows(), 2);
    }

    impl SimTime {
        fn from_secs(s: u64) -> SimTime {
            SimTime::from_ps(s * 1_000_000_000_000)
        }
    }
}
