//! Compile-time memory-overlaying schedule (§II-B, §IV).
//!
//! The DL framework analyzes the network DAG at compile time, derives each
//! feature map's data dependencies, and schedules software-managed overlay
//! operations: every non-cheap layer's input feature map **X** is offloaded
//! to the backing store after its **last forward use** and prefetched back
//! before its **backward use**. Layers with short computation time
//! (activations, pooling, ...) are *recomputed* during backpropagation
//! instead (footnote 4, the MXNet optimization), which removes their
//! overlay traffic.
//!
//! Following §IV, the default policy offloads unconditionally — the paper
//! uses the workloads "as microbenchmarks to stress test the system
//! interconnect" — but the policy is configurable for the §V-D scalability
//! study, which disables virtualization entirely.

use mcdla_dnn::{DataType, LayerId, LayerKind, Network};
use serde::{Deserialize, Serialize};

/// What happens to a layer's stashed activations between forward and
/// backward propagation.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Disposition {
    /// Offloaded to the backing store after last forward use, prefetched
    /// before backward use.
    Offload,
    /// Freed after forward use and recomputed during backpropagation
    /// (cheap layers).
    Recompute,
    /// Kept resident in device memory (virtualization disabled or tensor
    /// below the offload threshold).
    Resident,
}

/// Policy knobs for [`VirtSchedule::analyze`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtPolicy {
    /// Offload every eligible stash (the paper's stress-test policy). When
    /// false, everything is [`Disposition::Resident`] — the DC-DLA(O)
    /// oracle and the §V-D "virtualization disabled" runs.
    pub enabled: bool,
    /// Recompute cheap layers instead of offloading their inputs.
    pub recompute_cheap: bool,
    /// Stashes smaller than this stay resident (overlaying tiny tensors
    /// costs more latency than it saves memory).
    pub min_offload_bytes: u64,
}

impl VirtPolicy {
    /// The paper's §IV evaluation policy.
    pub fn paper_default() -> Self {
        VirtPolicy {
            enabled: true,
            recompute_cheap: true,
            min_offload_bytes: 0,
        }
    }

    /// Virtualization disabled (oracle / scalability study).
    pub fn disabled() -> Self {
        VirtPolicy {
            enabled: false,
            recompute_cheap: false,
            min_offload_bytes: 0,
        }
    }
}

impl Default for VirtPolicy {
    fn default() -> Self {
        VirtPolicy::paper_default()
    }
}

/// One layer's overlay decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VirtEntry {
    /// The layer whose stash this entry describes.
    pub layer: LayerId,
    /// Overlay decision.
    pub disposition: Disposition,
    /// Stash size in bytes (input feature map X, or gate activations for
    /// recurrent cells).
    pub stash_bytes: u64,
    /// The layer after whose forward pass the stash may leave device
    /// memory (its last forward consumer).
    pub offload_after: LayerId,
}

/// The complete overlay schedule for one network and batch size.
///
/// # Examples
///
/// ```
/// use mcdla_dnn::{Benchmark, DataType};
/// use mcdla_vmem::{Disposition, VirtPolicy, VirtSchedule};
///
/// let net = Benchmark::AlexNet.build();
/// let sched = VirtSchedule::analyze(&net, 64, DataType::F32, VirtPolicy::paper_default());
/// // Offload traffic exists, and prefetch mirrors it.
/// assert!(sched.offload_bytes() > 0);
/// assert_eq!(sched.offload_bytes(), sched.prefetch_bytes());
/// // Cheap layers (ReLU, pool, LRN) are recomputed, not offloaded.
/// assert!(sched.entries().iter().any(|e| e.disposition == Disposition::Recompute));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtSchedule {
    entries: Vec<VirtEntry>,
    batch: u64,
    dtype: DataType,
}

impl VirtSchedule {
    /// Derives the overlay schedule from the network DAG.
    pub fn analyze(net: &Network, batch: u64, dtype: DataType, policy: VirtPolicy) -> Self {
        let last_consumer = net.last_consumer();
        let entries = net
            .layers()
            .iter()
            .map(|l| {
                let stash = l.stash_bytes(batch, dtype);
                let is_input = matches!(l.kind(), LayerKind::Input);
                let disposition = if !policy.enabled || stash == 0 || is_input {
                    Disposition::Resident
                } else if l.is_cheap() && policy.recompute_cheap {
                    Disposition::Recompute
                } else if stash >= policy.min_offload_bytes {
                    Disposition::Offload
                } else {
                    Disposition::Resident
                };
                VirtEntry {
                    layer: l.id(),
                    disposition,
                    stash_bytes: stash,
                    // X of layer l is produced by l's inputs and last *used*
                    // in forward by l itself or a later sibling consumer of
                    // the same producer. Conservatively: X(l) is live until
                    // the last consumer of each of l's producers has run;
                    // for the linearized schedule we key on l's own forward
                    // completion or the last consumer of its producer,
                    // whichever is later.
                    offload_after: l
                        .inputs()
                        .iter()
                        .map(|p| last_consumer[p.index()])
                        .max()
                        .unwrap_or(l.id()),
                }
            })
            .collect();
        VirtSchedule {
            entries,
            batch,
            dtype,
        }
    }

    /// All entries in topological order.
    pub fn entries(&self) -> &[VirtEntry] {
        &self.entries
    }

    /// Batch size the schedule was derived for.
    pub(crate) fn batch(&self) -> u64 {
        self.batch
    }

    /// Element precision the schedule was derived for.
    pub(crate) fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Total bytes moved device → backing store per iteration.
    pub fn offload_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.disposition == Disposition::Offload)
            .map(|e| e.stash_bytes)
            .sum()
    }

    /// Total bytes moved backing store → device per iteration (every
    /// offloaded stash comes back for backpropagation).
    pub fn prefetch_bytes(&self) -> u64 {
        self.offload_bytes()
    }

    /// Number of layers resolved to recomputation.
    #[cfg(test)]
    pub(crate) fn recompute_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.disposition == Disposition::Recompute)
            .count()
    }

    /// Number of layers offloaded.
    #[cfg(test)]
    pub(crate) fn offload_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.disposition == Disposition::Offload)
            .count()
    }

    /// Offload operations grouped by trigger point: `result[i]` lists the
    /// entries whose stash leaves device memory once layer `i`'s forward
    /// pass completes. Used by the iteration engine to enqueue DMA work.
    pub(crate) fn offloads_by_trigger(&self) -> Vec<Vec<&VirtEntry>> {
        let mut by_trigger: Vec<Vec<&VirtEntry>> = vec![Vec::new(); self.entries.len()];
        for e in &self.entries {
            if e.disposition == Disposition::Offload {
                by_trigger[e.offload_after.index()].push(e);
            }
        }
        by_trigger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdla_dnn::Benchmark;

    fn sched(bm: Benchmark, batch: u64) -> (mcdla_dnn::Network, VirtSchedule) {
        let net = bm.build();
        let s = VirtSchedule::analyze(&net, batch, DataType::F32, VirtPolicy::paper_default());
        (net, s)
    }

    #[test]
    fn major_layers_offload_cheap_layers_recompute() {
        let (net, s) = sched(Benchmark::AlexNet, 64);
        for (l, e) in net.layers().iter().zip(s.entries()) {
            match l.kind() {
                LayerKind::Input => assert_eq!(e.disposition, Disposition::Resident),
                k if k.is_cheap() => assert_eq!(
                    e.disposition,
                    Disposition::Recompute,
                    "cheap layer {} should recompute",
                    l.name()
                ),
                _ => assert_eq!(
                    e.disposition,
                    Disposition::Offload,
                    "major layer {} should offload",
                    l.name()
                ),
            }
        }
    }

    #[test]
    fn offload_happens_after_last_forward_use() {
        let (net, s) = sched(Benchmark::GoogLeNet, 16);
        let last = net.last_consumer();
        for e in s.entries() {
            if e.disposition == Disposition::Offload {
                let l = net.layer(e.layer);
                for p in l.inputs() {
                    assert!(
                        e.offload_after >= last[p.index()],
                        "layer {} offloads X before its producer {p}'s last consumer",
                        l.name()
                    );
                }
                assert!(e.offload_after >= *l.inputs().iter().max().unwrap());
            }
        }
    }

    #[test]
    fn traffic_scales_with_batch() {
        let (_, s64) = sched(Benchmark::VggE, 64);
        let (_, s128) = sched(Benchmark::VggE, 128);
        assert_eq!(s128.offload_bytes(), 2 * s64.offload_bytes());
    }

    #[test]
    fn disabled_policy_moves_nothing() {
        let net = Benchmark::VggE.build();
        let s = VirtSchedule::analyze(&net, 64, DataType::F32, VirtPolicy::disabled());
        assert_eq!(s.offload_bytes(), 0);
        assert_eq!(s.offload_count(), 0);
        assert_eq!(s.recompute_count(), 0);
        assert!(s
            .entries()
            .iter()
            .all(|e| e.disposition == Disposition::Resident));
    }

    #[test]
    fn min_offload_threshold_keeps_small_tensors_resident() {
        let net = Benchmark::AlexNet.build();
        let policy = VirtPolicy {
            min_offload_bytes: 100 << 20, // 100 MiB
            ..VirtPolicy::paper_default()
        };
        let s = VirtSchedule::analyze(&net, 1, DataType::F32, policy);
        // At batch 1 every AlexNet stash is < 100 MiB.
        assert_eq!(s.offload_count(), 0);
        assert!(s
            .entries()
            .iter()
            .any(|e| e.disposition == Disposition::Resident));
    }

    #[test]
    fn rnn_offload_traffic_counts_gate_stashes() {
        let (net, s) = sched(Benchmark::RnnLstm2, 64);
        // Every unrolled timestep offloads its stash.
        assert_eq!(s.offload_count(), net.weighted_depth());
        let per_step = net.layers()[1].stash_bytes(64, DataType::F32);
        assert_eq!(s.offload_bytes(), per_step * net.weighted_depth() as u64);
    }

    #[test]
    fn offloads_by_trigger_partitions_all_offloads() {
        let (_, s) = sched(Benchmark::GoogLeNet, 8);
        let by_trigger = s.offloads_by_trigger();
        let total: usize = by_trigger.iter().map(Vec::len).sum();
        assert_eq!(total, s.offload_count());
        // Triggers only fire at or after the stash's own layer... producers
        // may sit earlier but never later than the trigger.
        for (trigger, entries) in by_trigger.iter().enumerate() {
            for e in entries {
                assert_eq!(e.offload_after.index(), trigger);
            }
        }
    }
}
