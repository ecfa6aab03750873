#include "workload/comm_volume.h"

#include "common/error.h"

namespace opus::workload {

CommVolumeModel::CommVolumeModel(const ModelConfig& model,
                                 const ParallelismConfig& par)
    : model_(model), par_(par) {
  par_.validate();
  ensure(model_.n_layers >= par_.pp,
         "need at least one layer per pipeline stage");
}

std::int64_t CommVolumeModel::tokens_per_microbatch() const {
  return static_cast<std::int64_t>(par_.microbatch_size) * model_.seq_len;
}

int CommVolumeModel::layers_per_stage() const {
  // Ceiling: the largest stage, matching uneven TorchTitan-style splits.
  return (model_.n_layers + par_.pp - 1) / par_.pp;
}

Bytes CommVolumeModel::fsdp_allgather_per_layer() const {
  // Each GPU's TP shard of the layer, gathered in bf16 across the DP group.
  return model_.params_per_layer() / par_.tp * model_.dtype_bytes;
}

Bytes CommVolumeModel::fsdp_reducescatter_per_layer() const {
  // Full fp32 gradient of the GPU's TP shard (per-rank reduce-scatter input).
  return model_.params_per_layer() / par_.tp * model_.grad_dtype_bytes;
}

Bytes CommVolumeModel::dp_allreduce_per_layer() const {
  return model_.params_per_layer() / par_.tp * model_.dtype_bytes;
}

Bytes CommVolumeModel::tp_allreduce_per_op() const {
  // Activation tensor of one microbatch (full sequence, no SP sharding).
  return tokens_per_microbatch() * model_.activation_bytes_per_token();
}

Bytes CommVolumeModel::pp_sendrecv_per_microbatch() const {
  // Boundary activations travel unsharded between stages.
  return tokens_per_microbatch() * model_.activation_bytes_per_token();
}

Bytes CommVolumeModel::cp_allgather_per_layer() const {
  // KV tensors for the full sequence, sharded by CP before the gather.
  const Bytes kv_per_token =
      static_cast<Bytes>(2) * model_.kv_dim() * model_.dtype_bytes;
  return tokens_per_microbatch() * kv_per_token;
}

Bytes CommVolumeModel::ep_alltoall_per_layer() const {
  // Each token's hidden state is routed to experts_per_token experts.
  const int k = model_.moe() ? model_.experts_per_token : 1;
  return tokens_per_microbatch() * model_.activation_bytes_per_token() * k;
}

Bytes CommVolumeModel::embedding_half_ag() const {
  return static_cast<Bytes>(model_.vocab) * model_.hidden / par_.tp *
         model_.dtype_bytes;
}

Bytes CommVolumeModel::embedding_half_rs() const {
  return static_cast<Bytes>(model_.vocab) * model_.hidden / par_.tp *
         model_.grad_dtype_bytes;
}

Bytes CommVolumeModel::embedding_ag_extra(int stage) const {
  ensure(stage >= 0 && stage < par_.pp, "invalid stage");
  Bytes extra = 0;
  if (stage == 0) extra += embedding_half_ag();            // input embedding
  if (stage == par_.pp - 1) extra += embedding_half_ag();  // output head
  return extra;
}

Bytes CommVolumeModel::embedding_rs_extra(int stage) const {
  ensure(stage >= 0 && stage < par_.pp, "invalid stage");
  Bytes extra = 0;
  if (stage == 0) extra += embedding_half_rs();
  if (stage == par_.pp - 1) extra += embedding_half_rs();
  return extra;
}

std::vector<ParallelismTraits> parallelism_traits_table() {
  return {
      {"DP", "gbs/dp", "gbs/dp", "bwd AR per layer/per model"},
      {"FSDP", "gbs/dp, params/dp", "gbs/dp",
       "fwd AG, bwd RS per layer/model"},
      {"TP", "params/tp, grads/tp, optims/tp", "params/tp",
       "fwd bwd AR per operator"},
      {"TP & SP", "params/tp, grads/tp, optims/tp, activs/tp",
       "params/tp, activs/tp", "fwd bwd AG&RS per operator"},
      {"CP", "kv_cache/cp, seq/cp", "seq/cp", "fwd AG bwd RS per layer"},
      {"PP", "params/pp, grads/pp, optims/pp, activs/pp", "params/pp",
       "fwd bwd Send/Recv per microbatch"},
      {"EP", "experts/ep", "experts/ep", "fwd bwd AllToAll per layer"},
  };
}

}  // namespace opus::workload
