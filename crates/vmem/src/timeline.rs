//! The overlay timeline one training iteration issues for a `VirtSchedule`.
//!
//! Offloads leave device memory during the forward pass, in the trigger
//! order `VirtSchedule::offloads_by_trigger` groups them by; prefetches
//! bring each offloaded stash back during the backward pass, in reverse
//! layer order, as `ResidencyProfile::replay` does. The tests here pin both
//! orders and that every offloaded stash returns whole.

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use mcdla_dnn::{Benchmark, DataType, LayerId};

    use crate::schedule::{Disposition, VirtPolicy, VirtSchedule};

    /// One overlay transfer of `layer`'s stash, issued once `trigger`
    /// completes.
    struct Transfer {
        layer: LayerId,
        offload: bool,
        bytes: u64,
        trigger: LayerId,
    }

    fn sched(bm: Benchmark) -> VirtSchedule {
        VirtSchedule::analyze(&bm.build(), 64, DataType::F32, VirtPolicy::paper_default())
    }

    /// Every offload in forward trigger order, then every prefetch in
    /// reverse layer order.
    fn timeline(s: &VirtSchedule) -> Vec<Transfer> {
        let offloads = s
            .offloads_by_trigger()
            .into_iter()
            .flatten()
            .map(|e| Transfer {
                layer: e.layer,
                offload: true,
                bytes: e.stash_bytes,
                trigger: e.offload_after,
            });
        let prefetches = s
            .entries()
            .iter()
            .rev()
            .filter(|e| e.disposition == Disposition::Offload)
            .map(|e| Transfer {
                layer: e.layer,
                offload: false,
                bytes: e.stash_bytes,
                trigger: e.layer,
            });
        offloads.chain(prefetches).collect()
    }

    #[test]
    fn offloads_precede_prefetches_and_orders_hold() {
        let s = sched(Benchmark::VggE);
        let ops = timeline(&s);
        let first_prefetch = ops.iter().position(|o| !o.offload).expect("has prefetches");
        assert!(ops[..first_prefetch].iter().all(|o| o.offload));
        // Offload triggers are non-decreasing (forward order)...
        let offload_triggers: Vec<usize> = ops[..first_prefetch]
            .iter()
            .map(|o| o.trigger.index())
            .collect();
        assert!(offload_triggers.windows(2).all(|w| w[0] <= w[1]));
        // ...and prefetch triggers are non-increasing (backward order).
        let prefetch_triggers: Vec<usize> = ops[first_prefetch..]
            .iter()
            .map(|o| o.trigger.index())
            .collect();
        assert!(prefetch_triggers.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn every_offload_has_a_matching_prefetch() {
        let s = sched(Benchmark::ResNet);
        let mut out: BTreeMap<LayerId, u64> = BTreeMap::new();
        let mut back: BTreeMap<LayerId, u64> = BTreeMap::new();
        for o in timeline(&s) {
            let side = if o.offload { &mut out } else { &mut back };
            *side.entry(o.layer).or_default() += o.bytes;
        }
        assert_eq!(out, back);
        assert_eq!(out.values().sum::<u64>(), s.offload_bytes());
        assert_eq!(s.prefetch_bytes(), s.offload_bytes());
    }
}
