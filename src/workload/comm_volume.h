// Communication-volume formulas per parallelism axis (Table 2 of the paper).
//
// Conventions (matching the payload semantics in collective/planner.h and
// the per-call sizes TorchTitan's profiler reports, which Fig. 4(b) uses):
//  - AllGather volume   = total gathered bytes (what the group materializes)
//  - ReduceScatter      = per-rank input bytes (full gradient shard, fp32)
//  - AllReduce          = per-rank buffer bytes
//  - Send/Recv          = message bytes
//  - AllToAll           = per-rank send total
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "workload/model_config.h"
#include "workload/parallelism.h"

namespace opus::workload {

/// Per-call communication volumes for a given model + parallelism.
class CommVolumeModel {
 public:
  CommVolumeModel(const ModelConfig& model, const ParallelismConfig& par);

  /// Tokens processed per microbatch (per pipeline replica).
  std::int64_t tokens_per_microbatch() const;

  /// FSDP per-layer forward/backward AllGather: gathers the layer's
  /// TP-sharded bf16 parameters across the DP group.
  Bytes fsdp_allgather_per_layer() const;
  /// FSDP per-layer backward ReduceScatter: per-rank fp32 gradient input.
  Bytes fsdp_reducescatter_per_layer() const;
  /// Plain DP: per-bucket gradient AllReduce (bf16), whole model shard.
  Bytes dp_allreduce_per_layer() const;

  /// TP per-operator AllReduce of activations (no sequence parallelism).
  Bytes tp_allreduce_per_op() const;

  /// PP per-microbatch activation Send/Recv at a stage boundary.
  Bytes pp_sendrecv_per_microbatch() const;

  /// CP per-layer KV AllGather (ring attention approximated as AG).
  Bytes cp_allgather_per_layer() const;

  /// EP per-layer AllToAll: tokens routed to experts (top-k copies).
  Bytes ep_alltoall_per_layer() const;

  /// Optimizer-synchronization AllReduce (grad-norm / loss scalars).
  Bytes sync_allreduce() const { return 4 * 1024; }

  /// One embedding matrix (input embedding or output head): vocab x hidden
  /// parameters, TP-sharded, in parameter precision (for AllGather).
  Bytes embedding_half_ag() const;
  /// Same matrix in gradient precision (for ReduceScatter).
  Bytes embedding_half_rs() const;

  /// Extra FSDP AllGather bytes hosted by `stage`: the input embedding on
  /// stage 0, the output head on the last stage (both when pp == 1).
  Bytes embedding_ag_extra(int stage) const;
  /// Same for the backward ReduceScatter (fp32 gradients).
  Bytes embedding_rs_extra(int stage) const;

  /// Layers hosted by one pipeline stage.
  int layers_per_stage() const;

  const ModelConfig& model() const { return model_; }
  const ParallelismConfig& parallelism() const { return par_; }

 private:
  ModelConfig model_;
  ParallelismConfig par_;
};

/// One row of Table 2: the qualitative characteristics of a parallelism.
struct ParallelismTraits {
  std::string name;
  std::string memory_reduction;
  std::string compute_reduction;
  std::string communication;  ///< type and frequency
};

/// All rows of Table 2.
std::vector<ParallelismTraits> parallelism_traits_table();

}  // namespace opus::workload
