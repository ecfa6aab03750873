// Hybrid-parallelism configuration, rank mapping, and communication-group
// construction.
//
// Rank order follows the Megatron convention (fastest to slowest):
// TP -> CP -> DP -> PP. With TP*CP == gpus_per_node, tensor/context
// parallelism stays inside the scale-up domain and every scale-out group
// (DP, PP, EP) connects GPUs of equal local rank — i.e. lives on one rail,
// which is exactly the property rail-optimized fabrics exploit (Fig. 1).
#pragma once

#include <string>
#include <vector>

#include "collective/comm_group.h"
#include "common/ids.h"

namespace opus::workload {

struct ParallelismConfig {
  int tp = 1;  ///< tensor (+sequence) parallel degree
  int cp = 1;  ///< context parallel degree
  int dp = 1;  ///< data parallel (FSDP) degree
  int pp = 1;  ///< pipeline parallel degree
  int ep = 1;  ///< expert parallel degree; must divide dp
  bool fsdp = true;  ///< FSDP (AG/RS per layer) vs plain DP (AR per bucket)
  int n_microbatches = 8;
  int microbatch_size = 2;  ///< sequences per microbatch

  /// Field-wise equality (config/serde skips fields equal to the default).
  friend bool operator==(const ParallelismConfig&,
                         const ParallelismConfig&) = default;

  int world_size() const { return tp * cp * dp * pp; }

  /// Throws InvariantError when degrees are inconsistent.
  void validate() const;

  std::string to_string() const;
};

/// Coordinates of one rank in the parallelism grid.
struct RankCoords {
  int tp = 0;
  int cp = 0;
  int dp = 0;
  int pp = 0;
};

/// Maps global GPU ranks to parallelism coordinates and builds the
/// communication groups for every axis.
class RankMapper {
 public:
  RankMapper(ParallelismConfig cfg, int gpus_per_node);

  const ParallelismConfig& config() const { return cfg_; }
  int gpus_per_node() const { return gpus_per_node_; }
  int world_size() const { return cfg_.world_size(); }
  int n_nodes() const { return cfg_.world_size() / gpus_per_node_; }

  RankCoords coords(GpuId g) const;
  GpuId gpu(const RankCoords& c) const;
  int pp_stage(GpuId g) const { return coords(g).pp; }

  /// All groups of the given axis. Group ordering: members sorted by the
  /// varying coordinate, so ring order == dimension order.
  const std::vector<collective::CommGroup>& tp_groups() const { return tp_; }
  const std::vector<collective::CommGroup>& cp_groups() const { return cp_; }
  const std::vector<collective::CommGroup>& dp_groups() const { return dp_; }
  const std::vector<collective::CommGroup>& pp_groups() const { return pp_; }
  const std::vector<collective::CommGroup>& ep_groups() const { return ep_; }

  /// The group of the given axis containing `g`.
  const collective::CommGroup& group_of(collective::ParallelismDim dim,
                                        GpuId g) const;

  /// True iff every member of `group` has the same local rank (the group
  /// lives entirely on one rail).
  bool rail_local(const collective::CommGroup& group) const;

 private:
  void build_groups();

  ParallelismConfig cfg_;
  int gpus_per_node_;
  std::vector<collective::CommGroup> tp_, cp_, dp_, pp_, ep_;
};

/// Rule-of-thumb parallelism advisor reproducing Table 1 of the paper.
struct ParallelismAdvice {
  std::string model_size;   ///< "Small (<10B)" or "Large (>10B)"
  std::string compute;      ///< GPU-count band
  std::string practices;    ///< recommended strategies
};

/// Table 1 row for a model of `params` parameters trained on `n_gpus`.
ParallelismAdvice advise_parallelism(std::int64_t params, int n_gpus);

/// All rows of Table 1 (for the table-reproduction bench).
std::vector<ParallelismAdvice> parallelism_rule_table();

}  // namespace opus::workload
