//! # `mcdla-parallel` — parallel-training partitioners
//!
//! The parallelization substrate of §II-C (Fig. 3): given a network and a
//! worker count, produce the per-worker compute scaling and the
//! inter-device synchronization schedule for
//!
//! * **data-parallel** training — same model on every worker, batch split
//!   `1/p`; one dW all-reduce per physical weight tensor during
//!   backpropagation, fused into NCCL-style buckets (the paper's 8 MB
//!   target synchronization size), overlappable with compute;
//! * **model-parallel** training — same batch on every worker, channels
//!   split `1/p` (the Krizhevsky parallelization the paper adopts); an
//!   overlappable X all-gather after every weighted layer's forward pass
//!   (frameworks chunk-pipeline it with the consuming layer) and a blocking
//!   dX all-reduce after its backward pass.
//!
//! Model-parallel training therefore synchronizes far more often and with
//! larger payloads — exactly why Fig. 11(b)'s synchronization bars dwarf
//! Fig. 11(a)'s.
//!
//! # Examples
//!
//! ```
//! use mcdla_dnn::{Benchmark, DataType};
//! use mcdla_parallel::{ParallelStrategy, WorkerPlan};
//!
//! let net = Benchmark::AlexNet.build();
//! let dp = WorkerPlan::plan(&net, ParallelStrategy::DataParallel, 8, 512, DataType::F32);
//! let mp = WorkerPlan::plan(&net, ParallelStrategy::ModelParallel, 8, 512, DataType::F32);
//! // Data-parallel workers each see 1/8 of the batch...
//! assert_eq!(dp.worker_batch, 64);
//! // ...while model-parallel workers see the whole batch but 1/8 the MACs.
//! assert_eq!(mp.worker_batch, 512);
//! assert!((mp.macs_scale - 0.125).abs() < 1e-12);
//! // Model-parallel synchronizes more, and with bigger payloads.
//! assert!(mp.sync_ops.len() > dp.sync_ops.len());
//! assert!(mp.total_sync_bytes() > dp.total_sync_bytes());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use mcdla_dnn::{DataType, LayerId, Network};
use mcdla_interconnect::CollectiveKind;
use serde::{Deserialize, Serialize};

/// The two parallelization schemes of Fig. 3.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize)]
pub enum ParallelStrategy {
    /// Same model everywhere, batch split across workers.
    DataParallel,
    /// Same batch everywhere, model (output channels) split across workers.
    ModelParallel,
}

impl ParallelStrategy {
    /// Both strategies, in the paper's presentation order.
    pub const ALL: [ParallelStrategy; 2] = [
        ParallelStrategy::DataParallel,
        ParallelStrategy::ModelParallel,
    ];

    /// The wire (serde) name — the PascalCase variant identifier the
    /// derived `Serialize` emits.
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            ParallelStrategy::DataParallel => "DataParallel",
            ParallelStrategy::ModelParallel => "ModelParallel",
        }
    }

    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ParallelStrategy::DataParallel => "data-parallel",
            ParallelStrategy::ModelParallel => "model-parallel",
        }
    }
}

// Hand-written (not derived) so wire payloads may use either the wire
// name (`DataParallel`) or the human label (`data-parallel`), in any
// case, and an unknown name answers with the full accepted list.
impl serde::Deserialize for ParallelStrategy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::expected("string", "ParallelStrategy"))?;
        ParallelStrategy::ALL
            .iter()
            .copied()
            .find(|p| s.eq_ignore_ascii_case(p.wire_name()) || s.eq_ignore_ascii_case(p.name()))
            .ok_or_else(|| {
                let accepted: Vec<String> = ParallelStrategy::ALL
                    .iter()
                    .map(|p| format!("{} / {}", p.wire_name(), p.name()))
                    .collect();
                serde::Error::custom(format!(
                    "unknown ParallelStrategy `{s}` (accepted, case-insensitive: {})",
                    accepted.join(", ")
                ))
            })
    }
}

impl std::fmt::Display for ParallelStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// When a synchronization operation becomes ready to launch.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncTrigger {
    /// After the forward pass of the layer completes.
    AfterForward(LayerId),
    /// After the backward pass of the layer completes.
    AfterBackward(LayerId),
}

impl SyncTrigger {
    /// The layer this trigger is attached to.
    #[cfg(test)]
    pub(crate) fn layer(self) -> LayerId {
        match self {
            SyncTrigger::AfterForward(l) | SyncTrigger::AfterBackward(l) => l,
        }
    }

    /// True for forward-phase triggers.
    #[cfg(test)]
    pub(crate) fn is_forward(self) -> bool {
        matches!(self, SyncTrigger::AfterForward(_))
    }
}

/// One collective synchronization in the per-iteration schedule.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncOp {
    /// Which collective primitive runs (Fig. 4).
    pub kind: CollectiveKind,
    /// Logical payload size S in bytes (the full tensor being synchronized).
    pub bytes: u64,
    /// Launch point.
    pub trigger: SyncTrigger,
    /// Whether the next layer's compute must wait for this collective
    /// (model-parallel boundaries) or may overlap with it (data-parallel dW
    /// accumulation).
    pub blocking: bool,
}

/// Per-worker execution plan for one training iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerPlan {
    /// Parallelization scheme.
    pub strategy: ParallelStrategy,
    /// Number of workers p.
    pub workers: usize,
    /// Global mini-batch size.
    pub global_batch: u64,
    /// Batch size appearing in each worker's tensors (global/p for DP,
    /// global for MP).
    pub worker_batch: u64,
    /// Per-layer MAC multiplier relative to a full layer at `worker_batch`
    /// (1 for DP; 1/p for MP, whose workers own 1/p of each layer's output
    /// channels).
    pub macs_scale: f64,
    /// Fraction of each weight tensor held per worker (1 for DP, 1/p for
    /// MP).
    pub weight_scale: f64,
    /// Fraction of each activation stash held per worker, applied to a
    /// [`mcdla_dnn::Network`] overlay schedule analyzed at `worker_batch`.
    /// DP workers stash their whole (batch-split) feature maps (1.0); MP
    /// workers stash the 1/p channel slice they produced and re-materialize
    /// full tensors through the boundary collectives already in `sync_ops`
    /// (the re-gather rides the opposite ring direction of the blocking dX
    /// all-reduce).
    pub stash_scale: f64,
    /// Synchronization schedule, in trigger order (forward triggers in topo
    /// order, then backward triggers in reverse topo order).
    pub sync_ops: Vec<SyncOp>,
}

impl WorkerPlan {
    /// Builds the per-worker plan.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `global_batch < workers` for
    /// data-parallel training.
    pub fn plan(
        net: &Network,
        strategy: ParallelStrategy,
        workers: usize,
        global_batch: u64,
        dtype: DataType,
    ) -> WorkerPlan {
        assert!(workers > 0, "need at least one worker");
        match strategy {
            ParallelStrategy::DataParallel => {
                assert!(
                    global_batch >= workers as u64,
                    "data-parallel batch must cover all workers"
                );
                let worker_batch = global_batch / workers as u64;
                let mut sync_ops = Vec::new();
                if workers > 1 {
                    // One dW all-reduce per physical weight tensor. Backward
                    // runs in reverse topological order, so a shared-weight
                    // group's gradient is complete when its *first* member
                    // (lowest layer id) finishes backpropagation.
                    let mut groups_seen = std::collections::BTreeSet::new();
                    for l in net.layers() {
                        if l.has_weights() && groups_seen.insert(l.weight_group()) {
                            sync_ops.push(SyncOp {
                                kind: CollectiveKind::AllReduce,
                                bytes: l.weight_bytes(dtype),
                                trigger: SyncTrigger::AfterBackward(l.id()),
                                blocking: false,
                            });
                        }
                    }
                    // Emit in backward (reverse topological) trigger order.
                    sync_ops.reverse();
                }
                WorkerPlan {
                    strategy,
                    workers,
                    global_batch,
                    worker_batch,
                    macs_scale: 1.0,
                    weight_scale: 1.0,
                    stash_scale: 1.0,
                    sync_ops,
                }
            }
            ParallelStrategy::ModelParallel => {
                let p = workers as f64;
                let mut fwd = Vec::new();
                let mut bwd = Vec::new();
                if workers > 1 {
                    for l in net.layers() {
                        if !l.has_weights() {
                            continue;
                        }
                        // Forward: gather the full output feature map Y
                        // across the channel-split workers. Frameworks
                        // chunk-pipeline this gather with the consuming
                        // layer's compute (§V: "DL frameworks try to overlap
                        // computation time with synchronization"), so it is
                        // overlappable; only the backward dX reduction is a
                        // hard layer boundary.
                        fwd.push(SyncOp {
                            kind: CollectiveKind::AllGather,
                            bytes: l.output_bytes(global_batch, dtype),
                            trigger: SyncTrigger::AfterForward(l.id()),
                            blocking: false,
                        });
                        // Backward: each worker holds a partial sum of the
                        // full dX; reduce before the previous layer's
                        // backward pass.
                        bwd.push(SyncOp {
                            kind: CollectiveKind::AllReduce,
                            bytes: l.input_bytes(global_batch, dtype),
                            trigger: SyncTrigger::AfterBackward(l.id()),
                            blocking: true,
                        });
                    }
                }
                bwd.reverse();
                let mut sync_ops = fwd;
                sync_ops.extend(bwd);
                WorkerPlan {
                    strategy,
                    workers,
                    global_batch,
                    worker_batch: global_batch,
                    macs_scale: 1.0 / p,
                    weight_scale: 1.0 / p,
                    stash_scale: 1.0 / p,
                    sync_ops,
                }
            }
        }
    }

    /// Total logical synchronization payload per iteration.
    pub fn total_sync_bytes(&self) -> u64 {
        self.sync_ops.iter().map(|o| o.bytes).sum()
    }

    /// Fuses consecutive **non-blocking** sync ops of the same kind into
    /// buckets of at least `bucket_bytes` (NCCL-style fusion; the paper's
    /// Fig. 9 uses an 8 MB target synchronization size). The bucket fires at
    /// the trigger of its **last-contributing** op (all members' gradients
    /// must exist). Blocking ops are never fused.
    pub fn fuse_buckets(&self, bucket_bytes: u64) -> Vec<SyncOp> {
        let mut out: Vec<SyncOp> = Vec::new();
        let mut acc: Option<SyncOp> = None;
        for op in &self.sync_ops {
            if op.blocking {
                if let Some(a) = acc.take() {
                    out.push(a);
                }
                out.push(*op);
                continue;
            }
            match &mut acc {
                None => acc = Some(*op),
                Some(a) if a.kind == op.kind => {
                    a.bytes += op.bytes;
                    a.trigger = op.trigger; // fires when the last member is ready
                }
                Some(a) => {
                    out.push(*a);
                    acc = Some(*op);
                }
            }
            if let Some(a) = &acc {
                if a.bytes >= bucket_bytes {
                    out.push(*a);
                    acc = None;
                }
            }
        }
        if let Some(a) = acc {
            out.push(a);
        }
        out
    }

    /// Per-worker memory-virtualization batch: the batch size at which the
    /// overlay schedule should be analyzed for one worker.
    pub fn virt_batch(&self) -> u64 {
        self.worker_batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdla_dnn::Benchmark;

    const DT: DataType = DataType::F32;

    #[test]
    fn data_parallel_sync_volume_equals_weight_bytes() {
        let net = Benchmark::VggE.build();
        let plan = WorkerPlan::plan(&net, ParallelStrategy::DataParallel, 8, 512, DT);
        assert_eq!(plan.total_sync_bytes(), net.total_weight_bytes(DT));
        assert!(plan.sync_ops.iter().all(|o| !o.blocking));
        assert!(plan
            .sync_ops
            .iter()
            .all(|o| o.kind == CollectiveKind::AllReduce));
        assert!(plan.sync_ops.iter().all(|o| !o.trigger.is_forward()));
    }

    #[test]
    fn data_parallel_triggers_run_in_backward_order() {
        let net = Benchmark::AlexNet.build();
        let plan = WorkerPlan::plan(&net, ParallelStrategy::DataParallel, 8, 512, DT);
        let idx: Vec<usize> = plan
            .sync_ops
            .iter()
            .map(|o| o.trigger.layer().index())
            .collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(idx, sorted, "dW all-reduces should follow backprop order");
        assert_eq!(idx.len(), 8); // one per weighted layer
    }

    #[test]
    fn rnn_data_parallel_syncs_one_shared_tensor() {
        let net = Benchmark::RnnGru.build(); // 187 timesteps, shared weights
        let plan = WorkerPlan::plan(&net, ParallelStrategy::DataParallel, 8, 512, DT);
        assert_eq!(plan.sync_ops.len(), 1, "one dW all-reduce per weight group");
        assert_eq!(plan.total_sync_bytes(), net.total_weight_bytes(DT));
    }

    #[test]
    fn model_parallel_syncs_activations_every_layer() {
        let net = Benchmark::AlexNet.build();
        let plan = WorkerPlan::plan(&net, ParallelStrategy::ModelParallel, 8, 512, DT);
        // 8 weighted layers x (1 all-gather + 1 all-reduce).
        assert_eq!(plan.sync_ops.len(), 16);
        // Forward gathers chunk-pipeline with the consuming layer
        // (overlappable); backward dX reductions are hard boundaries.
        assert!(plan.sync_ops[..8].iter().all(|o| !o.blocking));
        assert!(plan.sync_ops[8..].iter().all(|o| o.blocking));
        let gathers = plan
            .sync_ops
            .iter()
            .filter(|o| o.kind == CollectiveKind::AllGather)
            .count();
        assert_eq!(gathers, 8);
        // Forward gathers precede backward reduces; backward is reversed.
        assert!(plan.sync_ops[..8].iter().all(|o| o.trigger.is_forward()));
        let bwd_idx: Vec<usize> = plan.sync_ops[8..]
            .iter()
            .map(|o| o.trigger.layer().index())
            .collect();
        let mut sorted = bwd_idx.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(bwd_idx, sorted);
    }

    #[test]
    fn model_parallel_moves_more_data_than_data_parallel_for_cnns() {
        // §II-C / Fig. 3: model-parallel synchronizes feature maps (large
        // for CNNs), data-parallel synchronizes weights.
        for bm in [Benchmark::AlexNet, Benchmark::GoogLeNet, Benchmark::ResNet] {
            let net = bm.build();
            let dp = WorkerPlan::plan(&net, ParallelStrategy::DataParallel, 8, 512, DT);
            let mp = WorkerPlan::plan(&net, ParallelStrategy::ModelParallel, 8, 512, DT);
            assert!(
                mp.total_sync_bytes() > dp.total_sync_bytes(),
                "{bm}: MP {} should exceed DP {}",
                mp.total_sync_bytes(),
                dp.total_sync_bytes()
            );
        }
    }

    #[test]
    fn single_worker_plans_have_no_sync() {
        let net = Benchmark::ResNet.build();
        for strategy in ParallelStrategy::ALL {
            let plan = WorkerPlan::plan(&net, strategy, 1, 512, DT);
            assert!(plan.sync_ops.is_empty());
            assert_eq!(plan.total_sync_bytes(), 0);
        }
    }

    #[test]
    fn bucket_fusion_preserves_volume_and_order() {
        let net = Benchmark::GoogLeNet.build();
        let plan = WorkerPlan::plan(&net, ParallelStrategy::DataParallel, 8, 512, DT);
        let fused = plan.fuse_buckets(8 << 20);
        assert!(fused.len() < plan.sync_ops.len());
        assert_eq!(
            fused.iter().map(|o| o.bytes).sum::<u64>(),
            plan.total_sync_bytes()
        );
        // All buckets except possibly the last reach the 8 MB target.
        for b in &fused[..fused.len() - 1] {
            assert!(b.bytes >= 8 << 20, "undersized bucket: {}", b.bytes);
        }
        // Triggers remain in backward order.
        let idx: Vec<usize> = fused.iter().map(|o| o.trigger.layer().index()).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(idx, sorted);
    }

    #[test]
    fn bucket_fusion_does_not_touch_blocking_ops() {
        let net = Benchmark::AlexNet.build();
        let plan = WorkerPlan::plan(&net, ParallelStrategy::ModelParallel, 8, 512, DT);
        let fused = plan.fuse_buckets(u64::MAX);
        // The 8 blocking backward reductions survive unfused; the 8
        // non-blocking forward gathers may coalesce (here into one).
        let blocking: Vec<_> = fused.iter().filter(|o| o.blocking).collect();
        assert_eq!(blocking.len(), 8, "blocking ops must not fuse");
        assert_eq!(
            fused.iter().map(|o| o.bytes).sum::<u64>(),
            plan.total_sync_bytes(),
            "fusion must preserve total volume"
        );
    }

    #[test]
    fn dp_batch_division() {
        let net = Benchmark::VggE.build();
        for (workers, expect) in [(1usize, 512u64), (2, 256), (4, 128), (8, 64)] {
            let plan = WorkerPlan::plan(&net, ParallelStrategy::DataParallel, workers, 512, DT);
            assert_eq!(plan.worker_batch, expect);
            assert_eq!(plan.virt_batch(), expect);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let net = Benchmark::AlexNet.build();
        let _ = WorkerPlan::plan(&net, ParallelStrategy::DataParallel, 0, 512, DT);
    }
}
