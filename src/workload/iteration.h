// Training-iteration DAG construction.
//
// Builds the operation graph of one training iteration under hybrid
// parallelism with a 1F1B pipeline schedule (§2/Fig. 2 of the paper):
//
//  - per-layer forward/backward compute ops chained in 1F1B program order
//    per pipeline stage replica;
//  - FSDP: per-layer parameter AllGather at iteration start (prefetched,
//    overlapping the first forward), optional backward re-gather, and a
//    per-layer gradient ReduceScatter phase that fires after the whole
//    pipeline schedule completes (the "Sync." region of Fig. 3);
//  - pipeline Send/Recv per microbatch at stage boundaries;
//  - optimizer-synchronization AllReduces (grad norm) along DP and PP,
//    then a per-GPU optimizer step;
//  - optional simulated TP AllReduces (default: folded into compute time)
//    and optional MoE expert-parallel AllToAll per layer.
#pragma once

#include <string>
#include <vector>

#include "collective/comm_group.h"
#include "collective/schedule.h"
#include "common/ids.h"
#include "common/units.h"
#include "workload/comm_volume.h"
#include "workload/compute_model.h"
#include "workload/model_config.h"
#include "workload/parallelism.h"

namespace opus::workload {

enum class OpKind {
  kCompute,     ///< runs for `duration` on every GPU in `gpus`
  kCollective,  ///< executes the same collective on every listed group
  kJoin,        ///< zero-cost synchronization point
};

struct Op {
  OpId id;
  OpKind kind = OpKind::kJoin;
  std::string label;

  // kCompute:
  std::vector<GpuId> gpus;
  TimeNs duration = 0;

  // kCollective:
  collective::CollectiveType ctype = collective::CollectiveType::kAllReduce;
  collective::ParallelismDim dim = collective::ParallelismDim::kOther;
  Bytes payload = 0;             ///< per-group payload (planner semantics)
  std::vector<int> group_indices;  ///< into IterationDag::groups

  // Metadata for tracing / debugging.
  int pp_stage = -1;
  int microbatch = -1;
  int layer = -1;

  std::vector<OpId> deps;
};

struct IterationDag {
  std::vector<Op> ops;
  std::vector<collective::CommGroup> groups;

  const Op& op(OpId id) const { return ops[static_cast<std::size_t>(id.value())]; }
  std::size_t size() const { return ops.size(); }

  /// Checks structural invariants: ids are dense, deps reference earlier
  /// ops (the builder emits a topological order), group indices valid,
  /// compute ops have GPUs and collective ops have groups.
  void validate() const;
};

/// Pipeline execution schedule.
enum class PipelineSchedule {
  k1F1B,   ///< one-forward-one-backward (the paper's traced schedule)
  kGpipe,  ///< all forwards, then all backwards (fewer PP/DP interleaves)
};

struct IterationOptions {
  PipelineSchedule pipeline_schedule = PipelineSchedule::k1F1B;
  /// Simulate TP AllReduce traffic over the scale-up fabric. When false the
  /// analytic TP communication time is folded into layer durations (the
  /// default: TP never touches the rails, and Fig. 3 hides it).
  bool simulate_tp_comm = false;
  /// Re-AllGather FSDP parameters before the backward pass. Off by default:
  /// TorchTitan disables reshard-after-forward when pipeline parallelism is
  /// enabled, which matches the traced pattern of Fig. 3(a) (AllGather only
  /// in the warm-up region).
  bool bwd_regather = false;
  /// Simulate MoE expert-parallel AllToAll per layer (requires ep > 1 and an
  /// MoE model).
  bool simulate_ep_comm = true;

  /// Field-wise equality (config/serde skips fields equal to the default).
  friend bool operator==(const IterationOptions&,
                         const IterationOptions&) = default;
};

/// Builds the DAG of one training iteration. `mapper` supplies the groups;
/// the returned DAG owns copies of every group it references. `nvlink_bw`
/// is the scale-up bandwidth that prices folded TP communication (the
/// experiment's ExperimentConfig::nvlink_bw, the same the cluster uses).
IterationDag build_training_iteration(const ModelConfig& model,
                                      const ParallelismConfig& par,
                                      const RankMapper& mapper,
                                      const ComputeModel& compute,
                                      Bandwidth nvlink_bw,
                                      const IterationOptions& options = {});

/// Number of layers hosted by pipeline stage `s` when `n_layers` does not
/// divide evenly (earlier stages take the remainder, TorchTitan-style).
int layers_of_stage(int n_layers, int pp, int stage);

/// Shifts every GPU rank in the DAG (compute ops and communication groups)
/// by `gpu_offset`. Used to place a job built with tenant-local ranks
/// 0..world-1 onto a node sub-range of a larger shared cluster; the offset
/// must be a whole number of nodes so rail locality (equal local ranks) is
/// preserved.
void offset_dag_gpus(IterationDag& dag, int gpu_offset);

}  // namespace opus::workload
