//! Device-memory residency replay — the O(N) → O(1) argument of §II-B.
//!
//! Replays one training iteration (forward then backward) against a
//! [`VirtSchedule`] and records the device-resident byte count at every
//! step. Without virtualization, every layer's stash stays resident until
//! its backward use, so the peak grows linearly with depth; with the
//! overlay schedule, stashes leave after their last forward use and the
//! peak collapses to weights + a constant working set.

use mcdla_dnn::{DataType, Network};
use serde::{Deserialize, Serialize};

use crate::schedule::{Disposition, VirtSchedule};

/// Resident-byte timeline of one iteration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResidencyProfile {
    /// Peak device-resident bytes over the iteration.
    pub peak_bytes: u64,
    /// Resident bytes after each step (forward steps then backward steps).
    pub timeline: Vec<u64>,
    /// Constant overhead held for the whole iteration (weights W + dW).
    pub static_bytes: u64,
}

impl ResidencyProfile {
    /// Replays `net` under `schedule`.
    pub fn replay(net: &Network, schedule: &VirtSchedule) -> Self {
        let batch = schedule.batch();
        let dtype = schedule.dtype();
        let static_bytes = 2 * net.total_weight_bytes(dtype); // W + dW
        let n = net.layers().len();

        // resident[l] = stash of layer l currently in device memory.
        let mut resident: Vec<u64> = vec![0; n];
        let mut timeline = Vec::with_capacity(2 * n);
        let offloads = schedule.offloads_by_trigger();

        // Forward: layer l's stash materializes when l runs; offloadable
        // stashes leave at their trigger layer.
        for l in 0..n {
            resident[l] = schedule.entries()[l].stash_bytes;
            // Recompute stashes are freed immediately after the layer runs
            // (nothing kept for backward).
            if schedule.entries()[l].disposition == Disposition::Recompute {
                resident[l] = 0;
            }
            for e in &offloads[l] {
                resident[e.layer.index()] = 0;
            }
            timeline.push(static_bytes + resident.iter().sum::<u64>());
        }
        // Backward: layer l's stash returns (prefetch or recompute) just
        // before its backward step and is freed right after.
        for l in (0..n).rev() {
            let e = &schedule.entries()[l];
            let temp = match e.disposition {
                Disposition::Offload | Disposition::Recompute => e.stash_bytes,
                Disposition::Resident => 0, // already counted in resident[]
            };
            timeline.push(static_bytes + resident.iter().sum::<u64>() + temp);
            resident[l] = 0;
        }
        let peak = timeline.iter().copied().max().unwrap_or(static_bytes);
        ResidencyProfile {
            peak_bytes: peak,
            timeline,
            static_bytes,
        }
        .with_batch_sanity(batch)
    }

    fn with_batch_sanity(self, _batch: u64) -> Self {
        self
    }

    /// Peak resident bytes excluding the static weights term.
    #[cfg(test)]
    pub(crate) fn peak_dynamic_bytes(&self) -> u64 {
        self.peak_bytes - self.static_bytes
    }
}

/// Convenience: peak residency of `net` with and without the paper-default
/// overlay schedule, at a batch size. Returns `(virtualized, resident)`.
pub fn peak_with_and_without_virtualization(
    net: &Network,
    batch: u64,
    dtype: DataType,
) -> (u64, u64) {
    use crate::schedule::VirtPolicy;
    let on = VirtSchedule::analyze(net, batch, dtype, VirtPolicy::paper_default());
    let off = VirtSchedule::analyze(net, batch, dtype, VirtPolicy::disabled());
    (
        ResidencyProfile::replay(net, &on).peak_bytes,
        ResidencyProfile::replay(net, &off).peak_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::VirtPolicy;
    use mcdla_dnn::{Application, Benchmark, RnnCellKind};

    #[test]
    fn virtualization_reduces_peak() {
        for bm in Benchmark::ALL {
            let net = bm.build();
            let (virt, resident) = peak_with_and_without_virtualization(&net, 64, DataType::F32);
            assert!(
                virt < resident,
                "{bm}: virtualized {virt} should be below resident {resident}"
            );
        }
    }

    #[test]
    fn virtualized_peak_is_depth_independent() {
        // §II-B: O(N) -> O(1). Two LSTMs differing only in depth must have
        // (nearly) identical virtualized dynamic peaks.
        let short = mcdla_dnn::zoo::rnn(
            Application::LanguageModeling,
            "short",
            RnnCellKind::Lstm,
            2048,
            10,
        );
        let long = mcdla_dnn::zoo::rnn(
            Application::LanguageModeling,
            "long",
            RnnCellKind::Lstm,
            2048,
            80,
        );
        let mk = |n: &mcdla_dnn::Network| {
            let s = VirtSchedule::analyze(n, 64, DataType::F32, VirtPolicy::paper_default());
            ResidencyProfile::replay(n, &s)
        };
        let ps = mk(&short);
        let pl = mk(&long);
        assert_eq!(ps.peak_dynamic_bytes(), pl.peak_dynamic_bytes());
        // Unvirtualized, the deeper net's dynamic peak is ~8x larger.
        let (_, r_short) = peak_with_and_without_virtualization(&short, 64, DataType::F32);
        let (_, r_long) = peak_with_and_without_virtualization(&long, 64, DataType::F32);
        let ds = r_short - ps.static_bytes;
        let dl = r_long - pl.static_bytes;
        assert!(dl > 7 * ds && dl < 9 * ds, "{ds} vs {dl}");
    }

    #[test]
    fn timeline_has_forward_and_backward_steps() {
        let net = Benchmark::AlexNet.build();
        let s = VirtSchedule::analyze(&net, 8, DataType::F32, VirtPolicy::paper_default());
        let p = ResidencyProfile::replay(&net, &s);
        assert_eq!(p.timeline.len(), 2 * net.layers().len());
        assert!(p.timeline.iter().all(|&b| b >= p.static_bytes));
        assert_eq!(p.peak_bytes, *p.timeline.iter().max().unwrap());
    }

    #[test]
    fn vgg_at_batch_512_exceeds_16gb_without_virtualization() {
        // The §V-E user-productivity argument: the unvirtualized footprint
        // exceeds any single device's memory.
        let net = Benchmark::VggE.build();
        let (virt, resident) = peak_with_and_without_virtualization(&net, 512, DataType::F32);
        let volta = 16u64 << 30;
        assert!(
            resident > volta,
            "unvirtualized {resident} should exceed 16 GiB"
        );
        assert!(virt < resident);
    }
}
