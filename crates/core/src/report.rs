//! Per-iteration simulation results.

use mcdla_sim::{Bytes, SimDuration};
use serde::{Deserialize, Serialize};

use crate::design::SystemDesign;
use mcdla_parallel::ParallelStrategy;

/// Everything measured from one simulated training iteration of one
/// design point — the raw material for Figs. 11, 12, 13 and 14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// Design point simulated.
    pub design: SystemDesign,
    /// Benchmark name.
    pub benchmark: String,
    /// Parallelization strategy.
    pub strategy: ParallelStrategy,
    /// Device count.
    pub devices: usize,
    /// Global batch size.
    pub global_batch: u64,
    /// End-to-end time of one training iteration.
    pub iteration_time: SimDuration,
    /// PE-array busy time (computation bar of Fig. 11), per device.
    pub compute_busy: SimDuration,
    /// Communication-engine busy time (synchronization bar of Fig. 11).
    pub sync_busy: SimDuration,
    /// DMA busy time, offload + prefetch (memory-virtualization bar of
    /// Fig. 11).
    pub virt_busy: SimDuration,
    /// Time forward compute stalled on the pinned-buffer budget.
    pub memory_stall: SimDuration,
    /// Overlay bytes moved per device per iteration (offload + prefetch).
    pub virt_bytes: Bytes,
    /// Logical synchronization payload per iteration.
    pub sync_bytes: Bytes,
    /// Average CPU DRAM draw per socket over the iteration in GB/s
    /// (Fig. 12 "avg"); zero for memory-centric designs.
    pub cpu_socket_avg_gbs: f64,
    /// Peak CPU DRAM draw per socket in GB/s (Fig. 12 "max").
    pub cpu_socket_max_gbs: f64,
}

impl IterationReport {
    /// Performance = 1 / iteration time (arbitrary units; Fig. 13
    /// normalizes per benchmark).
    pub fn performance(&self) -> f64 {
        let t = self.iteration_time.as_secs_f64();
        if t > 0.0 {
            1.0 / t
        } else {
            0.0
        }
    }

    /// Speedup of this report over a baseline report of the same workload.
    pub fn speedup_over(&self, baseline: &IterationReport) -> f64 {
        baseline.iteration_time.as_secs_f64() / self.iteration_time.as_secs_f64()
    }

    /// The three Fig. 11 stack components, in presentation order
    /// (computation, synchronization, memory virtualization), in seconds.
    pub fn breakdown_secs(&self) -> [f64; 3] {
        [
            self.compute_busy.as_secs_f64(),
            self.sync_busy.as_secs_f64(),
            self.virt_busy.as_secs_f64(),
        ]
    }

    /// Fraction of iteration time attributable to memory virtualization
    /// exposure (iteration time beyond the compute+sync critical path) —
    /// the Fig. 2 right-axis metric when compared against an oracle run.
    pub(crate) fn virtualization_overhead_vs(&self, oracle: &IterationReport) -> f64 {
        let t = self.iteration_time.as_secs_f64();
        let o = oracle.iteration_time.as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        ((t - o) / t).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::SystemDesign;
    use mcdla_sim::SimDuration;

    fn report(iter_us: u64, comp_us: u64, sync_us: u64, virt_us: u64) -> IterationReport {
        IterationReport {
            design: SystemDesign::DcDla,
            benchmark: "test".into(),
            strategy: ParallelStrategy::DataParallel,
            devices: 8,
            global_batch: 512,
            iteration_time: SimDuration::from_us(iter_us),
            compute_busy: SimDuration::from_us(comp_us),
            sync_busy: SimDuration::from_us(sync_us),
            virt_busy: SimDuration::from_us(virt_us),
            memory_stall: SimDuration::ZERO,
            virt_bytes: Bytes::ZERO,
            sync_bytes: Bytes::ZERO,
            cpu_socket_avg_gbs: 0.0,
            cpu_socket_max_gbs: 0.0,
        }
    }

    #[test]
    fn performance_is_reciprocal_time() {
        let r = report(1_000_000, 1, 1, 1); // 1 second
        assert!((r.performance() - 1.0).abs() < 1e-9);
        let twice = report(500_000, 1, 1, 1);
        assert!((twice.performance() - 2.0).abs() < 1e-9);
        assert!((twice.speedup_over(&r) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_order_matches_fig11() {
        let r = report(100, 10, 20, 30);
        let b = r.breakdown_secs();
        assert!((b[0] - 10e-6).abs() < 1e-12); // computation
        assert!((b[1] - 20e-6).abs() < 1e-12); // synchronization
        assert!((b[2] - 30e-6).abs() < 1e-12); // memory virtualization
    }

    #[test]
    fn overhead_vs_oracle() {
        let oracle = report(100, 100, 0, 0);
        let slow = report(400, 100, 0, 300);
        assert!((slow.virtualization_overhead_vs(&oracle) - 0.75).abs() < 1e-9);
        // An implausible faster-than-oracle run clamps at zero.
        let fast = report(50, 50, 0, 0);
        assert_eq!(fast.virtualization_overhead_vs(&oracle), 0.0);
    }
}
