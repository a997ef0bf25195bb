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

use std::fmt;

use crate::time::{SimDuration, SimTime};
use crate::units::{Bandwidth, Bytes};

/// Identifies a channel within a [`FlowNetwork`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(usize);

impl ChannelId {
    /// Index into the network's channel table.
    pub(crate) fn index(self) -> usize {
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

/// One channel: its capacity, what it has carried, and the state a rate
/// fill keeps for it.
#[derive(Debug, Clone)]
struct Channel {
    capacity: f64, // bytes/sec
    /// Total bytes that have traversed this channel.
    bytes_carried: f64,
    /// Capacity the current fill has not yet handed out.
    residual: f64,
    /// Unfrozen flows crossing the channel during a fill.
    load: u32,
    /// Sets the current fill round's share.
    bottleneck: bool,
    /// Listed in [`FlowNetwork`]'s `used`.
    used: bool,
}

/// One flow; its path is `paths[start..end]` of its network.
#[derive(Debug, Clone)]
struct Flow {
    start: u32,
    end: u32,
    remaining: f64, // bytes
    rate: f64,      // bytes/sec, updated on every recompute
}

impl Flow {
    fn path<'a>(&self, paths: &'a [u32]) -> &'a [u32] {
        &paths[self.start as usize..self.end as usize]
    }

    /// When the flow finishes at its current rate, from `now`; `None` if
    /// it is starved.
    fn completion(&self, now: SimTime) -> Option<SimTime> {
        if self.rate <= 0.0 {
            // A zero-byte flow completes immediately.
            return (self.remaining <= BYTE_EPSILON).then_some(now);
        }
        let secs = (self.remaining / self.rate).max(0.0);
        Some(now + SimDuration::from_secs_f64(secs))
    }
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
/// The state is flat: flows are indexed by id, every path sits in one
/// `u32` table at an offset, and each channel's capacity, accounting and
/// fill state share one entry. A rate fill scans only the channels that
/// in-flight flows cross, with scratch lists kept across fills.
/// [`FlowNetwork::clear`] empties the network but keeps every
/// allocation, so one network reused for many solves stops allocating
/// once it has held the largest.
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
/// let pcie = net.add_channel(Bandwidth::gb_per_sec(16.0));
/// let a = net.open_flow(SimTime::ZERO, &[pcie], Bytes::from_gb(8)).unwrap();
/// let b = net.open_flow(SimTime::ZERO, &[pcie], Bytes::from_gb(8)).unwrap();
///
/// // Both finish on one tick and retire as one cohort, in flow-id order.
/// let done = net.drain_all().unwrap();
/// assert_eq!(done.iter().map(|&(_, id)| id).collect::<Vec<_>>(), [a, b]);
/// assert!((done[0].0.as_secs_f64() - 1.0).abs() < 1e-6); // 8 GB at 8 GB/s
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    channels: Vec<Channel>,
    /// Every flow opened since the last clear; a flow's id is its index.
    flows: Vec<Flow>,
    /// The flows' paths as channel indices, back to back.
    paths: Vec<u32>,
    /// In-flight flows, in id order.
    live: Vec<u32>,
    /// In index order, every channel an in-flight flow crosses (and
    /// possibly some no flow crosses any more): the channels a fill scans.
    used: Vec<u32>,
    /// Fill scratch: the flows not yet frozen this fill, in id order.
    unfrozen: Vec<u32>,
    /// The flows finishing on the next completion tick, in id order.
    cohort: Vec<u32>,
    now: SimTime,
}

impl FlowNetwork {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        FlowNetwork::default()
    }

    /// Empties the network (channels, flows, and clock) but keeps its
    /// allocations. Ids issued before the call are void afterwards: the
    /// next channel and flow ids start from zero again, as in a new
    /// network.
    pub fn clear(&mut self) {
        self.channels.clear();
        self.flows.clear();
        self.paths.clear();
        self.live.clear();
        self.used.clear();
        self.now = SimTime::ZERO;
    }

    /// Adds a channel with the given capacity and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the network already holds `u32::MAX` channels.
    pub fn add_channel(&mut self, capacity: Bandwidth) -> ChannelId {
        let id = ChannelId(self.channels.len());
        assert!(id.0 < u32::MAX as usize, "channel ids fit in 32 bits");
        self.channels.push(Channel {
            capacity: capacity.as_bytes_per_sec(),
            bytes_carried: 0.0,
            residual: 0.0,
            load: 0,
            bottleneck: false,
            used: false,
        });
        id
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.live.len()
    }

    /// Current network time.
    #[cfg(test)]
    pub(crate) fn now(&self) -> SimTime {
        self.now
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
        Ok(self.open_flows(at, [(path.iter().copied(), bytes)])?[0])
    }

    /// Opens a batch of flows at the same instant with a **single** rate
    /// recompute, and returns their ids in input order.
    ///
    /// Equivalent to calling [`FlowNetwork::open_flow`] once per entry at the
    /// same `at` (rates are a pure function of the in-flight flow set, so one
    /// recompute at the end lands on the same allocation), but costs one
    /// progressive-filling pass instead of one per flow — the difference
    /// between O(n²) and O(n) when a collective opens thousands of per-hop
    /// flows at once. Each path is read straight into the network's path
    /// table.
    ///
    /// The batch is all or nothing: on error the flows and paths it had
    /// added are rolled back and the network is unchanged.
    ///
    /// # Errors
    ///
    /// Same as [`FlowNetwork::open_flow`].
    pub fn open_flows<P>(
        &mut self,
        at: SimTime,
        batch: impl IntoIterator<Item = (P, Bytes)>,
    ) -> Result<Vec<FlowId>, FlowError>
    where
        P: IntoIterator<Item = ChannelId>,
    {
        let (first, paths_len) = (self.flows.len(), self.paths.len());
        // The batch's flows stay out of `live` until it is admitted, so
        // advancing the clock drains only the flows already in flight.
        if let Err(e) = self
            .append(batch)
            .and_then(|()| self.advance_to(at).map(drop))
        {
            self.flows.truncate(first);
            self.paths.truncate(paths_len);
            return Err(e);
        }
        let mut grew = false;
        for &c in &self.paths[paths_len..] {
            let ch = &mut self.channels[c as usize];
            if !ch.used {
                ch.used = true;
                self.used.push(c);
                grew = true;
            }
        }
        if grew {
            self.used.sort_unstable();
        }
        let ids = first as u32..self.flows.len() as u32;
        self.live.extend(ids.clone());
        self.recompute_rates();
        Ok(ids.map(|f| FlowId(f.into())).collect())
    }

    /// Appends `batch`'s flows and paths, not yet in flight, checking
    /// every path.
    fn append<P>(&mut self, batch: impl IntoIterator<Item = (P, Bytes)>) -> Result<(), FlowError>
    where
        P: IntoIterator<Item = ChannelId>,
    {
        for (path, bytes) in batch {
            let start = self.paths.len();
            for c in path {
                if c.index() >= self.channels.len() {
                    return Err(FlowError::UnknownChannel(c));
                }
                self.paths.push(c.index() as u32);
            }
            if self.paths.len() == start {
                return Err(FlowError::EmptyPath);
            }
            let offset = |at: usize| u32::try_from(at).expect("path table fits 32-bit offsets");
            assert!(
                self.flows.len() < u32::MAX as usize,
                "flow ids fit in 32 bits"
            );
            self.flows.push(Flow {
                start: offset(start),
                end: offset(self.paths.len()),
                remaining: bytes.as_f64(),
                rate: 0.0,
            });
        }
        Ok(())
    }

    /// Earliest `(time, flow)` completion among in-flight flows, if any flow
    /// can complete (a flow starved to zero rate never completes).
    ///
    /// Ties break toward the oldest flow id, keeping event order
    /// deterministic.
    #[cfg(test)]
    pub(crate) fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        self.live
            .iter()
            .filter_map(|&f| {
                let t = self.flows[f as usize].completion(self.now)?;
                Some((t, FlowId(f.into())))
            })
            .min()
    }

    /// Finds the earliest completion tick and collects its cohort in
    /// `cohort`: every flow that finishes on that same tick, in flow-id
    /// order.
    fn next_cohort(&mut self) -> Option<SimTime> {
        let mut tick: Option<SimTime> = None;
        self.cohort.clear();
        for &f in &self.live {
            let Some(t) = self.flows[f as usize].completion(self.now) else {
                continue;
            };
            if tick.is_some_and(|best| t > best) {
                continue;
            }
            if tick != Some(t) {
                tick = Some(t);
                self.cohort.clear();
            }
            self.cohort.push(f);
        }
        tick
    }

    /// Drains to `t`, removes the cohort finishing there, and recomputes
    /// rates once for the survivors.
    fn retire(&mut self, t: SimTime) {
        self.drain(t);
        // Both lists are in id order.
        let mut done = self.cohort.iter().peekable();
        self.live.retain(|f| done.next_if_eq(&f).is_none());
        self.recompute_rates();
    }

    /// Advances the clock to `to`, draining bytes from in-flight flows, and
    /// returns the flows that completed (in completion order, each tick's
    /// cohort in flow-id order).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::TimeRegression`] if `to` precedes the clock.
    pub(crate) fn advance_to(&mut self, to: SimTime) -> Result<Vec<FlowId>, FlowError> {
        if to < self.now {
            return Err(FlowError::TimeRegression);
        }
        let mut completed = Vec::new();
        while let Some(t) = self.next_cohort() {
            if t > to {
                break;
            }
            self.retire(t);
            completed.extend(self.cohort.iter().map(|&f| FlowId(f.into())));
        }
        self.drain(to);
        Ok(completed)
    }

    /// Instantaneous rate of `flow`; `None` once completed/unknown.
    pub fn flow_rate(&self, flow: FlowId) -> Option<Bandwidth> {
        let f = u32::try_from(flow.0).ok()?;
        self.live
            .binary_search(&f)
            .ok()
            .map(|_| Bandwidth::bytes_per_sec(self.flows[f as usize].rate))
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
        let mut done = Vec::with_capacity(self.live.len());
        while !self.live.is_empty() {
            let t = self.next_cohort()?;
            self.retire(t);
            done.extend(self.cohort.iter().map(|&f| (t, FlowId(f.into()))));
        }
        Some(done)
    }

    /// Moves bytes for elapsed time `self.now..t` at current rates.
    fn drain(&mut self, t: SimTime) {
        let dt = t.saturating_since(self.now).as_secs_f64();
        if dt > 0.0 {
            for &f in &self.live {
                let f = &mut self.flows[f as usize];
                let moved = f.rate * dt;
                f.remaining = (f.remaining - moved).max(0.0);
                for &c in f.path(&self.paths) {
                    self.channels[c as usize].bytes_carried += moved;
                }
            }
        }
        self.now = self.now.max(t);
    }

    /// Progressive-filling max-min fairness.
    ///
    /// Repeatedly finds the most-constrained channel (smallest equal share
    /// for its unfrozen flows), freezes those flows at that share, removes
    /// the consumed capacity, and iterates. Flows freeze in id order, and
    /// each subtracts its share along its path in order.
    fn recompute_rates(&mut self) {
        let FlowNetwork {
            channels,
            flows,
            paths,
            live,
            used,
            unfrozen,
            ..
        } = self;
        for &c in used.iter() {
            channels[c as usize].load = 0;
        }
        for &f in live.iter() {
            for &c in flows[f as usize].path(paths) {
                channels[c as usize].load += 1;
            }
        }
        used.retain(|&c| {
            let ch = &mut channels[c as usize];
            ch.residual = ch.capacity;
            ch.used = ch.load > 0;
            ch.used
        });
        unfrozen.clear();
        unfrozen.extend_from_slice(live);
        while !unfrozen.is_empty() {
            // Bottleneck share across channels with load.
            let mut share = f64::INFINITY;
            for &c in used.iter() {
                let ch = &channels[c as usize];
                if ch.load > 0 {
                    share = share.min(ch.residual.max(0.0) / ch.load as f64);
                }
            }
            if !share.is_finite() {
                break;
            }
            // Freeze every unfrozen flow crossing a bottleneck channel.
            for &c in used.iter() {
                let ch = &mut channels[c as usize];
                ch.bottleneck = ch.load > 0
                    && (ch.residual.max(0.0) / ch.load as f64) <= share * (1.0 + RATE_EPSILON);
            }
            let before = unfrozen.len();
            unfrozen.retain(|&f| {
                let f = &mut flows[f as usize];
                let path = f.path(paths);
                if !path.iter().any(|&c| channels[c as usize].bottleneck) {
                    return true;
                }
                f.rate = share;
                for &c in path {
                    let ch = &mut channels[c as usize];
                    ch.residual -= share;
                    ch.load -= 1;
                }
                false
            });
            if unfrozen.len() == before {
                // No channel constrains the remaining flows (shouldn't happen
                // for non-empty paths); freeze them at the current share.
                for &f in unfrozen.iter() {
                    flows[f as usize].rate = share;
                }
                unfrozen.clear();
            }
        }
        for &f in unfrozen.iter() {
            flows[f as usize].rate = 0.0;
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
        let c = net.add_channel(gb(25.0));
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
        let c = net.add_channel(gb(16.0));
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
        let ch1 = net.add_channel(gb(10.0));
        let ch2 = net.add_channel(gb(4.0));
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
        let c = net.add_channel(gb(10.0));
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
        let c = net.add_channel(gb(10.0));
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
        let c = net.add_channel(Bandwidth::ZERO);
        let _f = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_gb(1))
            .unwrap();
        assert_eq!(net.next_completion(), None);
        assert_eq!(net.drain_all(), None);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(gb(1.0));
        let f = net
            .open_flow(SimTime::from_ns(5), &[c], Bytes::ZERO)
            .unwrap();
        let (t, id) = net.next_completion().unwrap();
        assert_eq!((t, id), (SimTime::from_ns(5), f));
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(gb(1.0));
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
        let c = net.add_channel(gb(80.0));
        for _ in 0..4 {
            net.open_flow(SimTime::ZERO, &[c], Bytes::from_gb(20))
                .unwrap();
        }
        net.drain_all().unwrap();
        assert!((net.bytes_carried(c).as_f64() - 80e9).abs() < 1e3);
    }

    #[test]
    fn batch_open_matches_sequential_opens() {
        let mut seq = FlowNetwork::new();
        let mut bat = FlowNetwork::new();
        let cs: Vec<ChannelId> = (0..3).map(|_| seq.add_channel(gb(10.0))).collect();
        let cb: Vec<ChannelId> = (0..3).map(|_| bat.add_channel(gb(10.0))).collect();
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
        let c = net.add_channel(gb(1.0));
        let err = net.open_flows(
            SimTime::ZERO,
            vec![(vec![c], Bytes::from_gb(1)), (vec![], Bytes::from_gb(1))],
        );
        assert_eq!(err, Err(FlowError::EmptyPath));
        assert_eq!(net.active_flows(), 0);
        // A second flow naming an unknown channel rolls back the first
        // flow's path and id too: the next flow is id 0 over its own path
        // alone, and the network drains as if the batch never came.
        let wide = net.add_channel(gb(4.0));
        let err = net.open_flows(
            SimTime::ZERO,
            vec![
                (vec![wide], Bytes::from_gb(1)),
                (vec![c, ChannelId(7)], Bytes::from_gb(1)),
            ],
        );
        assert_eq!(err, Err(FlowError::UnknownChannel(ChannelId(7))));
        assert_eq!(net.active_flows(), 0);
        let f = net
            .open_flow(SimTime::ZERO, &[c], Bytes::from_gb(1))
            .unwrap();
        assert_eq!(f, FlowId(0));
        assert_eq!(net.flow_rate(f), Some(gb(1.0)));
        let done = net.drain_all().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, f);
        assert!((done[0].0.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(net.bytes_carried(wide), Bytes::ZERO);
        assert_eq!(net.bytes_carried(c), Bytes::from_gb(1));
    }

    #[test]
    fn cleared_network_matches_a_fresh_one() {
        // Contended paths over five channels, several cohorts and a late
        // arrival: a network cleared after another batch (more channels,
        // more flows, a later clock) must give bit-identical rates and the
        // same completion ticks, ids and byte counts as a fresh network.
        let caps = [10.0, 4.0, 7.3, 7.3, 2.5];
        let specs: [(&[usize], u64); 6] = [
            (&[0, 1], 3),
            (&[0], 5),
            (&[1, 2], 2),
            (&[2, 3], 9),
            (&[3], 4),
            (&[4, 0, 2], 1),
        ];
        let run = |net: &mut FlowNetwork| {
            let chs: Vec<ChannelId> = caps.iter().map(|&g| net.add_channel(gb(g))).collect();
            let ids = net
                .open_flows(
                    SimTime::ZERO,
                    specs
                        .iter()
                        .map(|&(path, g)| (path.iter().map(|&i| chs[i]), Bytes::from_gb(g))),
                )
                .unwrap();
            let rates: Vec<_> = ids.iter().map(|&f| net.flow_rate(f).unwrap()).collect();
            let late = net
                .open_flow(
                    SimTime::from_us(300_000),
                    &[chs[1], chs[3]],
                    Bytes::from_gb(2),
                )
                .unwrap();
            let late_rate = net.flow_rate(late).unwrap();
            let done = net.drain_all().unwrap();
            let carried: Vec<_> = chs.iter().map(|&c| net.bytes_carried(c)).collect();
            (ids, rates, late_rate, done, carried)
        };
        let fresh = run(&mut FlowNetwork::new());
        let mut reused = FlowNetwork::new();
        for _ in 0..3 {
            let c = reused.add_channel(gb(1.0));
            let at = reused.now() + SimDuration::from_us(50);
            for _ in 0..4 {
                reused.open_flow(at, &[c, c], Bytes::from_gb(2)).unwrap();
            }
            reused
                .advance_to(at + SimDuration::from_us(900_000))
                .unwrap();
        }
        assert!(reused.active_flows() > 0);
        for _ in 0..2 {
            reused.clear();
            assert_eq!(reused.active_flows(), 0);
            assert_eq!(reused.now(), SimTime::ZERO);
            assert_eq!(run(&mut reused), fresh);
        }
    }

    #[test]
    fn advance_collects_completions_in_order() {
        let mut net = FlowNetwork::new();
        let c = net.add_channel(gb(1.0));
        let a = net
            .open_flow(SimTime::ZERO, &[c], Bytes::new(500_000_000))
            .unwrap();
        let b = net
            .open_flow(SimTime::ZERO, &[c], Bytes::new(1_500_000_000))
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
        let ch1 = net.add_channel(gb(7.3));
        let ch2 = net.add_channel(gb(7.3));
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
