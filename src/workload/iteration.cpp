#include "workload/iteration.h"

#include <algorithm>
#include <map>
#include <queue>
#include <sstream>

#include "common/error.h"

namespace opus::workload {

int layers_of_stage(int n_layers, int pp, int stage) {
  ensure(pp >= 1 && stage >= 0 && stage < pp, "invalid pipeline stage");
  const int base = n_layers / pp;
  const int rem = n_layers % pp;
  return base + (stage < rem ? 1 : 0);
}

void IterationDag::validate() const {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    ensure(op.id.value() == static_cast<std::int32_t>(i),
           "DAG op ids must be dense and ordered");
    for (OpId d : op.deps) {
      ensure(d.valid() && static_cast<std::size_t>(d.value()) < ops.size(),
             "DAG dep references unknown op");
      ensure(d.value() != op.id.value(), "DAG op depends on itself");
    }
    if (op.kind == OpKind::kCompute) {
      ensure(!op.gpus.empty(), "compute op without GPUs");
      ensure(op.duration >= 0, "compute op with negative duration");
    }
    if (op.kind == OpKind::kCollective) {
      ensure(!op.group_indices.empty(), "collective op without groups");
      for (int gi : op.group_indices) {
        ensure(gi >= 0 && static_cast<std::size_t>(gi) < groups.size(),
               "collective op references unknown group");
      }
    }
  }
  // Acyclicity via Kahn's algorithm.
  std::vector<int> indegree(ops.size(), 0);
  std::vector<std::vector<int>> out(ops.size());
  for (const Op& op : ops) {
    indegree[static_cast<std::size_t>(op.id.value())] =
        static_cast<int>(op.deps.size());
    for (OpId d : op.deps) {
      out[static_cast<std::size_t>(d.value())].push_back(op.id.value());
    }
  }
  std::queue<int> q;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (indegree[i] == 0) q.push(static_cast<int>(i));
  }
  std::size_t visited = 0;
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    ++visited;
    for (int w : out[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(w)] == 0) q.push(w);
    }
  }
  ensure(visited == ops.size(), "DAG contains a dependency cycle");
}

namespace {

using collective::CollectiveType;
using collective::CommGroup;
using collective::ParallelismDim;

class DagBuilder {
 public:
  DagBuilder(const ModelConfig& model, const ParallelismConfig& par,
             const RankMapper& mapper, const ComputeModel& compute,
             Bandwidth nvlink_bw, const IterationOptions& opt)
      : model_(model),
        par_(par),
        mapper_(mapper),
        compute_(compute),
        nvlink_bw_(nvlink_bw),
        opt_(opt),
        vol_(model, par) {}

  IterationDag build();

 private:
  // ---- helpers -------------------------------------------------------------
  OpId new_op(OpKind kind, std::string label) {
    Op op;
    op.id = OpId{static_cast<std::int32_t>(dag_.ops.size())};
    op.kind = kind;
    op.label = std::move(label);
    dag_.ops.push_back(std::move(op));
    return dag_.ops.back().id;
  }
  Op& op(OpId id) { return dag_.ops[static_cast<std::size_t>(id.value())]; }
  void dep(OpId of, OpId on) { op(of).deps.push_back(on); }

  /// Copies a mapper group into the DAG (fresh dense id), memoized.
  int reg_group(const CommGroup& g) {
    auto it = group_index_.find(g.id);
    if (it != group_index_.end()) return it->second;
    CommGroup copy = g;
    copy.id = GroupId{static_cast<std::int32_t>(dag_.groups.size())};
    dag_.groups.push_back(std::move(copy));
    const int idx = static_cast<int>(dag_.groups.size() - 1);
    group_index_.emplace(g.id, idx);
    return idx;
  }
  /// Registers an ad-hoc pipeline pair group sending from -> to. The two
  /// orientations of one physical pair share a GroupId: they use the same
  /// circuits, and the control plane and window analysis treat them as one
  /// communication group.
  int reg_pair_group(GpuId from, GpuId to, const std::string& name) {
    const auto key = std::make_pair(from, to);
    auto it = pair_index_.find(key);
    if (it != pair_index_.end()) return it->second;
    GroupId shared_id;
    const auto reverse = pair_index_.find(std::make_pair(to, from));
    if (reverse != pair_index_.end()) {
      shared_id = dag_.groups[static_cast<std::size_t>(reverse->second)].id;
    } else {
      shared_id = GroupId{static_cast<std::int32_t>(dag_.groups.size())};
    }
    CommGroup g;
    g.id = shared_id;
    g.dim = ParallelismDim::kPP;
    g.ranks = {from, to};
    g.name = name;
    dag_.groups.push_back(std::move(g));
    const int idx = static_cast<int>(dag_.groups.size() - 1);
    pair_index_.emplace(key, idx);
    return idx;
  }

  std::vector<GpuId> replica_gpus(int d, int s) const {
    std::vector<GpuId> gpus;
    for (int c = 0; c < par_.cp; ++c)
      for (int t = 0; t < par_.tp; ++t)
        gpus.push_back(mapper_.gpu({t, c, d, s}));
    return gpus;
  }

  // ---- construction phases --------------------------------------------------
  void create_fsdp_allgathers();
  void create_compute_and_pp();
  void create_backward_regather();
  void create_gradient_reduction();
  void create_sync_and_optimizer();

  // ---- indices ---------------------------------------------------------------
  std::size_t fwd_idx(int d, int s, int m, int l) const {
    return ((static_cast<std::size_t>(d) * static_cast<std::size_t>(par_.pp) +
             static_cast<std::size_t>(s)) *
                static_cast<std::size_t>(par_.n_microbatches) +
            static_cast<std::size_t>(m)) *
               static_cast<std::size_t>(max_layers_) +
           static_cast<std::size_t>(l);
  }

  const ModelConfig& model_;
  const ParallelismConfig& par_;
  const RankMapper& mapper_;
  const ComputeModel& compute_;
  Bandwidth nvlink_bw_;
  const IterationOptions& opt_;
  CommVolumeModel vol_;

  IterationDag dag_;
  std::map<GroupId, int> group_index_;
  std::map<std::pair<GpuId, GpuId>, int> pair_index_;

  int max_layers_ = 0;
  std::vector<OpId> fwd_ops_, bwd_ops_;
  // ag_[s][l], agb_[s][l], red_[s][l] (RS or AR), per-stage.
  std::vector<std::vector<OpId>> ag_, agb_, red_;
  // sr_fwd_[d][m][boundary b: b -> b+1], sr_bwd_[d][m][b: b+1 -> b]
  std::vector<std::vector<std::vector<OpId>>> sr_fwd_, sr_bwd_;
  OpId schedule_end_;
  bool dp_active_ = false;
};

void DagBuilder::create_fsdp_allgathers() {
  if (!dp_active_ || !par_.fsdp) return;
  ag_.assign(static_cast<std::size_t>(par_.pp), {});
  for (int s = 0; s < par_.pp; ++s) {
    const int ls = layers_of_stage(model_.n_layers, par_.pp, s);
    ag_[static_cast<std::size_t>(s)].resize(static_cast<std::size_t>(ls));
    for (int l = 0; l < ls; ++l) {
      std::ostringstream label;
      label << "AG[s" << s << ",l" << l << "]";
      const OpId id = new_op(OpKind::kCollective, label.str());
      Op& o = op(id);
      o.ctype = CollectiveType::kAllGather;
      o.dim = ParallelismDim::kDP;
      o.payload = vol_.fsdp_allgather_per_layer();
      // The input embedding lives with stage 0's first layer, the output
      // head with the last stage's last layer.
      if (s == 0 && l == 0) o.payload += vol_.embedding_half_ag();
      if (s == par_.pp - 1 && l == ls - 1) o.payload += vol_.embedding_half_ag();
      o.pp_stage = s;
      o.layer = l;
      for (int c = 0; c < par_.cp; ++c)
        for (int t = 0; t < par_.tp; ++t) {
          const GpuId g = mapper_.gpu({t, c, 0, s});
          o.group_indices.push_back(
              reg_group(mapper_.group_of(ParallelismDim::kDP, g)));
        }
      if (l > 0) dep(id, ag_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l - 1)]);
      ag_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)] = id;
    }
  }
}

void DagBuilder::create_compute_and_pp() {
  const int M = par_.n_microbatches;
  const int pp = par_.pp;
  const int dp = par_.dp;
  max_layers_ = layers_of_stage(model_.n_layers, pp, 0);
  fwd_ops_.assign(static_cast<std::size_t>(dp) * pp * M * max_layers_, OpId{});
  bwd_ops_.assign(static_cast<std::size_t>(dp) * pp * M * max_layers_, OpId{});
  sr_fwd_.assign(static_cast<std::size_t>(dp), {});
  sr_bwd_.assign(static_cast<std::size_t>(dp), {});

  const TimeNs tp_folded =
      opt_.simulate_tp_comm ? 0
                            : compute_.layer_tp_comm(model_, par_, nvlink_bw_);
  const TimeNs fwd_t = compute_.layer_fwd(model_, par_) + tp_folded;
  const TimeNs bwd_t = compute_.layer_bwd(model_, par_) + tp_folded;
  // Output head on the last stage (vocab projection is a large matmul).
  const double head_flops = 2.0 * model_.vocab * model_.hidden *
                            static_cast<double>(vol_.tokens_per_microbatch()) /
                            par_.tp;
  const TimeNs head_t = static_cast<TimeNs>(
      head_flops / compute_.effective_flops() * kNsPerSec);

  // Create every compute op and Send/Recv shell first; wire deps as we go.
  for (int d = 0; d < dp; ++d) {
    sr_fwd_[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(M), {});
    sr_bwd_[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(M), {});
    for (int m = 0; m < M; ++m) {
      sr_fwd_[static_cast<std::size_t>(d)][static_cast<std::size_t>(m)].assign(
          static_cast<std::size_t>(std::max(pp - 1, 0)), OpId{});
      sr_bwd_[static_cast<std::size_t>(d)][static_cast<std::size_t>(m)].assign(
          static_cast<std::size_t>(std::max(pp - 1, 0)), OpId{});
    }
  }

  for (int d = 0; d < dp; ++d) {
    for (int s = 0; s < pp; ++s) {
      const int ls = layers_of_stage(model_.n_layers, pp, s);
      const auto gpus = replica_gpus(d, s);
      for (int m = 0; m < M; ++m) {
        for (int l = 0; l < ls; ++l) {
          std::ostringstream fl, bl;
          fl << "F[d" << d << ",s" << s << ",m" << m << ",l" << l << "]";
          bl << "B[d" << d << ",s" << s << ",m" << m << ",l" << l << "]";
          const OpId f = new_op(OpKind::kCompute, fl.str());
          op(f).gpus = gpus;
          op(f).duration = fwd_t + (s == pp - 1 && l == ls - 1 ? head_t : 0);
          op(f).pp_stage = s;
          op(f).microbatch = m;
          op(f).layer = l;
          fwd_ops_[fwd_idx(d, s, m, l)] = f;
          const OpId b = new_op(OpKind::kCompute, bl.str());
          op(b).gpus = gpus;
          op(b).duration = bwd_t + (s == pp - 1 && l == ls - 1 ? 2 * head_t : 0);
          op(b).pp_stage = s;
          op(b).microbatch = m;
          op(b).layer = l;
          bwd_ops_[fwd_idx(d, s, m, l)] = b;
        }
      }
      // Pipeline boundary Send/Recv shells out of this stage.
      if (s < pp - 1) {
        for (int m = 0; m < M; ++m) {
          // Activations forward s -> s+1 (one logical op, per (t,c) pairs).
          std::ostringstream sf;
          sf << "SRf[d" << d << ",m" << m << "," << s << "->" << (s + 1) << "]";
          const OpId f = new_op(OpKind::kCollective, sf.str());
          op(f).ctype = CollectiveType::kSendRecv;
          op(f).dim = ParallelismDim::kPP;
          op(f).payload = vol_.pp_sendrecv_per_microbatch();
          op(f).pp_stage = s;
          op(f).microbatch = m;
          for (int c = 0; c < par_.cp; ++c)
            for (int t = 0; t < par_.tp; ++t) {
              const GpuId a = mapper_.gpu({t, c, d, s});
              const GpuId b = mapper_.gpu({t, c, d, s + 1});
              std::ostringstream gn;
              gn << "pp-pair[t" << t << ",c" << c << ",d" << d << "," << s
                 << "-" << (s + 1) << "]";
              op(f).group_indices.push_back(reg_pair_group(a, b, gn.str()));
            }
          sr_fwd_[static_cast<std::size_t>(d)][static_cast<std::size_t>(m)]
                 [static_cast<std::size_t>(s)] = f;

          // Gradients backward s+1 -> s.
          std::ostringstream sb;
          sb << "SRb[d" << d << ",m" << m << "," << (s + 1) << "->" << s << "]";
          const OpId bop = new_op(OpKind::kCollective, sb.str());
          op(bop).ctype = CollectiveType::kSendRecv;
          op(bop).dim = ParallelismDim::kPP;
          op(bop).payload = vol_.pp_sendrecv_per_microbatch();
          op(bop).pp_stage = s + 1;
          op(bop).microbatch = m;
          for (int c = 0; c < par_.cp; ++c)
            for (int t = 0; t < par_.tp; ++t) {
              const GpuId a = mapper_.gpu({t, c, d, s + 1});
              const GpuId b = mapper_.gpu({t, c, d, s});
              std::ostringstream gn;
              gn << "pp-pair[t" << t << ",c" << c << ",d" << d << ","
                 << (s + 1) << "-" << s << "]";
              op(bop).group_indices.push_back(reg_pair_group(a, b, gn.str()));
            }
          sr_bwd_[static_cast<std::size_t>(d)][static_cast<std::size_t>(m)]
                 [static_cast<std::size_t>(s)] = bop;
        }
      }
    }
  }

  // Wire 1F1B program order + data dependencies.
  for (int d = 0; d < dp; ++d) {
    for (int s = 0; s < pp; ++s) {
      const int ls = layers_of_stage(model_.n_layers, pp, s);
      // Program slots: (is_fwd, microbatch).
      std::vector<std::pair<bool, int>> slots;
      if (opt_.pipeline_schedule == PipelineSchedule::kGpipe) {
        // GPipe: every forward, then every backward.
        for (int m = 0; m < M; ++m) slots.emplace_back(true, m);
        for (int m = 0; m < M; ++m) slots.emplace_back(false, m);
      } else {
        // 1F1B: warm-up forwards, steady alternation, cool-down backwards.
        const int warmup = std::min(pp - 1 - s, M);
        for (int m = 0; m < warmup; ++m) slots.emplace_back(true, m);
        for (int k = 0; k + warmup < M; ++k) {
          slots.emplace_back(true, warmup + k);
          slots.emplace_back(false, k);
        }
        for (int m = M - warmup; m < M; ++m) slots.emplace_back(false, m);
      }

      OpId prev_last{};
      for (const auto& [is_fwd, m] : slots) {
        OpId first, last;
        if (is_fwd) {
          first = fwd_ops_[fwd_idx(d, s, m, 0)];
          last = fwd_ops_[fwd_idx(d, s, m, ls - 1)];
          for (int l = 1; l < ls; ++l) {
            dep(fwd_ops_[fwd_idx(d, s, m, l)],
                fwd_ops_[fwd_idx(d, s, m, l - 1)]);
          }
          if (s > 0) {
            dep(first, sr_fwd_[static_cast<std::size_t>(d)]
                              [static_cast<std::size_t>(m)]
                              [static_cast<std::size_t>(s - 1)]);
          }
          if (dp_active_ && par_.fsdp && m == 0) {
            for (int l = 0; l < ls; ++l) {
              dep(fwd_ops_[fwd_idx(d, s, m, l)],
                  ag_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)]);
            }
          }
        } else {
          first = bwd_ops_[fwd_idx(d, s, m, ls - 1)];
          last = bwd_ops_[fwd_idx(d, s, m, 0)];
          for (int l = ls - 2; l >= 0; --l) {
            dep(bwd_ops_[fwd_idx(d, s, m, l)],
                bwd_ops_[fwd_idx(d, s, m, l + 1)]);
          }
          if (s < pp - 1) {
            dep(first, sr_bwd_[static_cast<std::size_t>(d)]
                              [static_cast<std::size_t>(m)]
                              [static_cast<std::size_t>(s)]);
          }
        }
        if (prev_last.valid()) dep(first, prev_last);
        prev_last = last;
      }

      // Sends depend on the producing compute.
      if (s < pp - 1) {
        for (int m = 0; m < M; ++m) {
          dep(sr_fwd_[static_cast<std::size_t>(d)][static_cast<std::size_t>(m)]
                     [static_cast<std::size_t>(s)],
              fwd_ops_[fwd_idx(d, s, m, ls - 1)]);
          dep(sr_bwd_[static_cast<std::size_t>(d)][static_cast<std::size_t>(m)]
                     [static_cast<std::size_t>(s)],
              bwd_ops_[fwd_idx(d, s + 1, m, 0)]);
        }
      }
    }
  }

  // The pipeline schedule is complete when every replica/stage finished its
  // last backward (the boundary into the "Sync." region of Fig. 3).
  schedule_end_ = new_op(OpKind::kJoin, "schedule_end");
  for (int d = 0; d < dp; ++d) {
    for (int s = 0; s < pp; ++s) {
      dep(schedule_end_, bwd_ops_[fwd_idx(d, s, M - 1, 0)]);
    }
  }
}

void DagBuilder::create_backward_regather() {
  if (!dp_active_ || !par_.fsdp || !opt_.bwd_regather) return;
  agb_.assign(static_cast<std::size_t>(par_.pp), {});
  for (int s = 0; s < par_.pp; ++s) {
    const int ls = layers_of_stage(model_.n_layers, par_.pp, s);
    agb_[static_cast<std::size_t>(s)].resize(static_cast<std::size_t>(ls));
    for (int l = ls - 1; l >= 0; --l) {
      std::ostringstream label;
      label << "AGb[s" << s << ",l" << l << "]";
      const OpId id = new_op(OpKind::kCollective, label.str());
      Op& o = op(id);
      o.ctype = CollectiveType::kAllGather;
      o.dim = ParallelismDim::kDP;
      o.payload = vol_.fsdp_allgather_per_layer();
      if (s == 0 && l == 0) o.payload += vol_.embedding_half_ag();
      if (s == par_.pp - 1 && l == ls - 1) o.payload += vol_.embedding_half_ag();
      o.pp_stage = s;
      o.layer = l;
      for (int c = 0; c < par_.cp; ++c)
        for (int t = 0; t < par_.tp; ++t) {
          const GpuId g = mapper_.gpu({t, c, 0, s});
          o.group_indices.push_back(
              reg_group(mapper_.group_of(ParallelismDim::kDP, g)));
        }
      if (l == ls - 1) {
        // Re-gather starts when microbatch 0's backward approaches.
        if (s < par_.pp - 1) {
          for (int d = 0; d < par_.dp; ++d) {
            dep(id, sr_bwd_[static_cast<std::size_t>(d)][0]
                           [static_cast<std::size_t>(s)]);
          }
        } else {
          for (int d = 0; d < par_.dp; ++d) {
            dep(id, fwd_ops_[fwd_idx(d, s, 0, ls - 1)]);
          }
        }
      } else {
        dep(id, agb_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l + 1)]);
      }
      agb_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)] = id;
    }
    // Backward compute of microbatch 0 waits for the re-gathered layer.
    for (int d = 0; d < par_.dp; ++d) {
      for (int l = 0; l < ls; ++l) {
        dep(bwd_ops_[fwd_idx(d, s, 0, l)],
            agb_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)]);
      }
    }
  }
}

void DagBuilder::create_gradient_reduction() {
  if (!dp_active_) return;
  red_.assign(static_cast<std::size_t>(par_.pp), {});
  for (int s = 0; s < par_.pp; ++s) {
    const int ls = layers_of_stage(model_.n_layers, par_.pp, s);
    red_[static_cast<std::size_t>(s)].resize(static_cast<std::size_t>(ls));
    for (int l = ls - 1; l >= 0; --l) {
      std::ostringstream label;
      label << (par_.fsdp ? "RS[s" : "AR[s") << s << ",l" << l << "]";
      const OpId id = new_op(OpKind::kCollective, label.str());
      Op& o = op(id);
      o.ctype = par_.fsdp ? CollectiveType::kReduceScatter
                          : CollectiveType::kAllReduce;
      o.dim = ParallelismDim::kDP;
      o.payload = par_.fsdp ? vol_.fsdp_reducescatter_per_layer()
                            : vol_.dp_allreduce_per_layer();
      if (s == 0 && l == 0) {
        o.payload += par_.fsdp ? vol_.embedding_half_rs()
                               : vol_.embedding_half_ag();
      }
      if (s == par_.pp - 1 && l == ls - 1) {
        o.payload += par_.fsdp ? vol_.embedding_half_rs()
                               : vol_.embedding_half_ag();
      }
      o.pp_stage = s;
      o.layer = l;
      for (int c = 0; c < par_.cp; ++c)
        for (int t = 0; t < par_.tp; ++t) {
          const GpuId g = mapper_.gpu({t, c, 0, s});
          o.group_indices.push_back(
              reg_group(mapper_.group_of(ParallelismDim::kDP, g)));
        }
      if (l == ls - 1) {
        // Per-stage gradient finalization: the stage's reduce-scatter chain
        // starts once its own last-microbatch backward (and its final
        // gradient send toward the previous stage) completed. Stages finish
        // at different times, so each stage's DP reduction forms its own
        // phase on the rail (the separated ReduceScatter bursts whose
        // preceding window dominates Fig. 4).
        const int M = par_.n_microbatches;
        for (int d = 0; d < par_.dp; ++d) {
          dep(id, bwd_ops_[fwd_idx(d, s, M - 1, 0)]);
          if (s > 0) {
            dep(id, sr_bwd_[static_cast<std::size_t>(d)]
                           [static_cast<std::size_t>(M - 1)]
                           [static_cast<std::size_t>(s - 1)]);
          }
        }
      } else {
        dep(id, red_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l + 1)]);
      }
      red_[static_cast<std::size_t>(s)][static_cast<std::size_t>(l)] = id;
    }
  }
}

void DagBuilder::create_sync_and_optimizer() {
  // Join on gradient reduction (or the schedule itself when dp == 1).
  const OpId grads_done = new_op(OpKind::kJoin, "grads_done");
  if (dp_active_) {
    for (int s = 0; s < par_.pp; ++s) {
      dep(grads_done, red_[static_cast<std::size_t>(s)][0]);
    }
  } else {
    dep(grads_done, schedule_end_);
  }

  // Grad-norm synchronization AllReduces (<1MB, Fig. 4b's smallest class):
  // one along DP, then one along PP.
  OpId last_sync = grads_done;
  if (dp_active_) {
    const OpId sdp = new_op(OpKind::kCollective, "sync-AR[dp]");
    Op& o = op(sdp);
    o.ctype = CollectiveType::kAllReduce;
    o.dim = ParallelismDim::kDP;
    o.payload = vol_.sync_allreduce();
    for (const auto& g : mapper_.dp_groups()) {
      o.group_indices.push_back(reg_group(g));
    }
    dep(sdp, last_sync);
    last_sync = sdp;
  }
  if (par_.pp > 1) {
    const OpId spp = new_op(OpKind::kCollective, "sync-AR[pp]");
    Op& o = op(spp);
    o.ctype = CollectiveType::kAllReduce;
    o.dim = ParallelismDim::kPP;
    o.payload = vol_.sync_allreduce();
    for (const auto& g : mapper_.pp_groups()) {
      o.group_indices.push_back(reg_group(g));
    }
    dep(spp, last_sync);
    last_sync = spp;
  }

  // Optimizer step per stage replica.
  const OpId end = new_op(OpKind::kJoin, "iteration_end");
  for (int d = 0; d < par_.dp; ++d) {
    for (int s = 0; s < par_.pp; ++s) {
      std::ostringstream label;
      label << "optimizer[d" << d << ",s" << s << "]";
      const OpId o = new_op(OpKind::kCompute, label.str());
      op(o).gpus = replica_gpus(d, s);
      op(o).duration = compute_.optimizer_step(model_, par_);
      op(o).pp_stage = s;
      dep(o, last_sync);
      dep(end, o);
    }
  }
}

IterationDag DagBuilder::build() {
  par_.validate();
  ensure(mapper_.config().world_size() == par_.world_size(),
         "mapper and parallelism config disagree");
  dp_active_ = par_.dp > 1;

  create_fsdp_allgathers();
  create_compute_and_pp();

  // Lazy DTensor semantics (§3.1): a non-first stage's first AllGather only
  // starts once the stage receives its first activation from upstream.
  if (dp_active_ && par_.fsdp) {
    for (int s = 1; s < par_.pp; ++s) {
      for (int d = 0; d < par_.dp; ++d) {
        dep(ag_[static_cast<std::size_t>(s)][0],
            sr_fwd_[static_cast<std::size_t>(d)][0]
                   [static_cast<std::size_t>(s - 1)]);
      }
    }
  }

  create_backward_regather();

  // Optional simulated TP AllReduces around each layer.
  if (opt_.simulate_tp_comm && par_.tp > 1) {
    for (int d = 0; d < par_.dp; ++d) {
      for (int s = 0; s < par_.pp; ++s) {
        const int ls = layers_of_stage(model_.n_layers, par_.pp, s);
        for (int m = 0; m < par_.n_microbatches; ++m) {
          for (int l = 0; l < ls; ++l) {
            for (bool fwd : {true, false}) {
              std::ostringstream label;
              label << "TPAR" << (fwd ? "f" : "b") << "[d" << d << ",s" << s
                    << ",m" << m << ",l" << l << "]";
              const OpId id = new_op(OpKind::kCollective, label.str());
              Op& o = op(id);
              o.ctype = CollectiveType::kAllReduce;
              o.dim = ParallelismDim::kTP;
              o.payload = 2 * vol_.tp_allreduce_per_op();  // two ARs merged
              o.pp_stage = s;
              o.microbatch = m;
              o.layer = l;
              for (int c = 0; c < par_.cp; ++c) {
                const GpuId g = mapper_.gpu({0, c, d, s});
                o.group_indices.push_back(
                    reg_group(mapper_.group_of(ParallelismDim::kTP, g)));
              }
              const OpId comp = fwd ? fwd_ops_[fwd_idx(d, s, m, l)]
                                    : bwd_ops_[fwd_idx(d, s, m, l)];
              dep(id, comp);
              // The next layer's compute waits on this AR.
              if (fwd && l + 1 < ls) {
                dep(fwd_ops_[fwd_idx(d, s, m, l + 1)], id);
              }
              if (!fwd && l - 1 >= 0) {
                dep(bwd_ops_[fwd_idx(d, s, m, l - 1)], id);
              }
            }
          }
        }
      }
    }
  }

  // Optional MoE expert-parallel AllToAll per layer per microbatch.
  if (opt_.simulate_ep_comm && par_.ep > 1 && model_.moe()) {
    for (int s = 0; s < par_.pp; ++s) {
      const int ls = layers_of_stage(model_.n_layers, par_.pp, s);
      for (int d0 = 0; d0 < par_.dp; d0 += par_.ep) {
        for (int m = 0; m < par_.n_microbatches; ++m) {
          for (int l = 0; l < ls; ++l) {
            for (bool fwd : {true, false}) {
              std::ostringstream label;
              label << "EPA2A" << (fwd ? "f" : "b") << "[s" << s << ",d" << d0
                    << ",m" << m << ",l" << l << "]";
              const OpId id = new_op(OpKind::kCollective, label.str());
              Op& o = op(id);
              o.ctype = CollectiveType::kAllToAll;
              o.dim = ParallelismDim::kEP;
              o.payload = 2 * vol_.ep_alltoall_per_layer();  // dispatch+combine
              o.pp_stage = s;
              o.microbatch = m;
              o.layer = l;
              for (int c = 0; c < par_.cp; ++c)
                for (int t = 0; t < par_.tp; ++t) {
                  const GpuId g = mapper_.gpu({t, c, d0, s});
                  o.group_indices.push_back(
                      reg_group(mapper_.group_of(ParallelismDim::kEP, g)));
                }
              for (int e = 0; e < par_.ep; ++e) {
                const int d = d0 + e;
                const OpId comp = fwd ? fwd_ops_[fwd_idx(d, s, m, l)]
                                      : bwd_ops_[fwd_idx(d, s, m, l)];
                dep(id, comp);
                if (fwd && l + 1 < ls) {
                  dep(fwd_ops_[fwd_idx(d, s, m, l + 1)], id);
                }
                if (!fwd && l - 1 >= 0) {
                  dep(bwd_ops_[fwd_idx(d, s, m, l - 1)], id);
                }
              }
            }
          }
        }
      }
    }
  }

  create_gradient_reduction();
  create_sync_and_optimizer();

  dag_.validate();
  return std::move(dag_);
}

}  // namespace

IterationDag build_training_iteration(const ModelConfig& model,
                                      const ParallelismConfig& par,
                                      const RankMapper& mapper,
                                      const ComputeModel& compute,
                                      Bandwidth nvlink_bw,
                                      const IterationOptions& options) {
  DagBuilder builder(model, par, mapper, compute, nvlink_bw, options);
  return builder.build();
}

void offset_dag_gpus(IterationDag& dag, int gpu_offset) {
  ensure(gpu_offset >= 0, "offset_dag_gpus: offset must be non-negative");
  if (gpu_offset == 0) return;
  for (Op& op : dag.ops) {
    for (GpuId& g : op.gpus) g = GpuId{g.value() + gpu_offset};
  }
  for (collective::CommGroup& group : dag.groups) {
    for (GpuId& r : group.ranks) r = GpuId{r.value() + gpu_offset};
  }
}

}  // namespace opus::workload
