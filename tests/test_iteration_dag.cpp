// Tests for the 1F1B training-iteration DAG builder: structure, dependency
// correctness, phase ordering, and option handling.
#include <gtest/gtest.h>

#include <set>

#include "workload/iteration.h"

namespace opus::workload {
namespace {

using collective::CollectiveType;
using collective::ParallelismDim;

struct DagFixture {
  DagFixture(ParallelismConfig p, ModelConfig m = ModelConfig::llama3_8b(),
             IterationOptions opts = {})
      : par(p),
        model(std::move(m)),
        mapper(par, gpn(p)),
        compute(GpuSpec::a100(), 0.35, true),
        dag(build_training_iteration(model, par, mapper, compute,
                                     Bandwidth::gbps(2400), opts)) {}

  static int gpn(const ParallelismConfig& p) {
    return std::min(p.tp * p.cp, p.world_size());
  }

  int count_collectives(CollectiveType type) const {
    int n = 0;
    for (const auto& op : dag.ops) {
      if (op.kind == OpKind::kCollective && op.ctype == type) ++n;
    }
    return n;
  }
  int count_computes() const {
    int n = 0;
    for (const auto& op : dag.ops)
      if (op.kind == OpKind::kCompute) ++n;
    return n;
  }

  ParallelismConfig par;
  ModelConfig model;
  RankMapper mapper;
  ComputeModel compute;
  IterationDag dag;
};

ParallelismConfig paper_config() {
  ParallelismConfig p;
  p.tp = 4;
  p.dp = 2;
  p.pp = 2;
  p.n_microbatches = 8;
  p.microbatch_size = 2;
  return p;
}

TEST(IterationDag, ValidatesAndHasExpectedShape) {
  DagFixture f(paper_config());
  f.dag.validate();
  // Per (d,s): 16 layers x 8 microbatches x fwd+bwd = 256 compute ops, plus
  // one optimizer per (d,s): 4 x 256 + 4 = 1028.
  EXPECT_EQ(f.count_computes(), 1028);
  // FSDP: one AllGather per layer per stage.
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllGather), 32);
  EXPECT_EQ(f.count_collectives(CollectiveType::kReduceScatter), 32);
  // PP: (pp-1) boundaries x 8 microbatches x dp 2 x 2 directions = 32.
  EXPECT_EQ(f.count_collectives(CollectiveType::kSendRecv), 32);
  // Sync ARs: one DP + one PP.
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllReduce), 2);
}

TEST(IterationDag, FirstMicrobatchForwardDependsOnAllGather) {
  DagFixture f(paper_config());
  for (const auto& op : f.dag.ops) {
    if (op.kind != OpKind::kCompute || op.label.rfind("F[", 0) != 0) continue;
    if (op.microbatch != 0) continue;
    bool depends_on_ag = false;
    for (OpId d : op.deps) {
      if (f.dag.op(d).ctype == CollectiveType::kAllGather &&
          f.dag.op(d).kind == OpKind::kCollective &&
          f.dag.op(d).layer == op.layer &&
          f.dag.op(d).pp_stage == op.pp_stage) {
        depends_on_ag = true;
      }
    }
    EXPECT_TRUE(depends_on_ag) << op.label;
  }
}

TEST(IterationDag, LazyAllGatherForLaterStages) {
  DagFixture f(paper_config());
  // Stage 1's first AllGather depends on a pipeline Send/Recv (lazy DTensor,
  // §3.1); stage 0's does not.
  for (const auto& op : f.dag.ops) {
    if (op.kind != OpKind::kCollective ||
        op.ctype != CollectiveType::kAllGather || op.layer != 0) {
      continue;
    }
    bool dep_on_sr = false;
    for (OpId d : op.deps) {
      if (f.dag.op(d).ctype == CollectiveType::kSendRecv) dep_on_sr = true;
    }
    EXPECT_EQ(dep_on_sr, op.pp_stage > 0) << op.label;
  }
}

TEST(IterationDag, ReduceScatterWaitsForStageBackward) {
  DagFixture f(paper_config());
  const int M = f.par.n_microbatches;
  for (const auto& op : f.dag.ops) {
    if (op.kind != OpKind::kCollective ||
        op.ctype != CollectiveType::kReduceScatter) {
      continue;
    }
    if (op.layer != 15) continue;  // chain heads
    int bwd_deps = 0;
    for (OpId d : op.deps) {
      const auto& dep_op = f.dag.op(d);
      if (dep_op.kind == OpKind::kCompute && dep_op.microbatch == M - 1) {
        ++bwd_deps;
      }
    }
    EXPECT_EQ(bwd_deps, f.par.dp) << op.label
                                  << ": RS head must wait for every "
                                     "replica's last-microbatch backward";
  }
}

TEST(IterationDag, PayloadsIncludeEmbeddingOnBoundaryStages) {
  DagFixture f(paper_config());
  CommVolumeModel vol(f.model, f.par);
  Bytes ag_stage0 = 0;
  Bytes rs_stage0 = 0;
  for (const auto& op : f.dag.ops) {
    if (op.kind != OpKind::kCollective || op.pp_stage != 0) continue;
    if (op.ctype == CollectiveType::kAllGather) ag_stage0 += op.payload;
    if (op.ctype == CollectiveType::kReduceScatter) rs_stage0 += op.payload;
  }
  EXPECT_EQ(ag_stage0, 16 * vol.fsdp_allgather_per_layer() +
                           vol.embedding_half_ag());
  EXPECT_EQ(rs_stage0, 16 * vol.fsdp_reducescatter_per_layer() +
                           vol.embedding_half_rs());
}

TEST(IterationDag, UnevenStagesSplitLikeTorchTitan) {
  EXPECT_EQ(layers_of_stage(32, 3, 0), 11);
  EXPECT_EQ(layers_of_stage(32, 3, 1), 11);
  EXPECT_EQ(layers_of_stage(32, 3, 2), 10);
  EXPECT_EQ(layers_of_stage(32, 1, 0), 32);
  // PP=3 config builds and validates (Fig. 3b).
  ParallelismConfig p = paper_config();
  p.pp = 3;
  DagFixture f(p);
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllGather), 32);
}

TEST(IterationDag, PlainDpUsesAllReduceInsteadOfFsdp) {
  ParallelismConfig p = paper_config();
  p.fsdp = false;
  DagFixture f(p);
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllGather), 0);
  EXPECT_EQ(f.count_collectives(CollectiveType::kReduceScatter), 0);
  // 32 per-layer gradient ARs + 2 sync ARs.
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllReduce), 34);
}

TEST(IterationDag, NoDpMeansNoDataParallelTraffic) {
  ParallelismConfig p;
  p.tp = 4;
  p.pp = 4;
  p.n_microbatches = 4;
  DagFixture f(p);
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllGather), 0);
  EXPECT_EQ(f.count_collectives(CollectiveType::kReduceScatter), 0);
  // Only the PP sync AllReduce remains.
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllReduce), 1);
}

TEST(IterationDag, SimulatedTpEmitsPerLayerAllReduces) {
  ParallelismConfig p = paper_config();
  p.n_microbatches = 2;
  IterationOptions opts;
  opts.simulate_tp_comm = true;
  DagFixture f(p, ModelConfig::llama3_8b(), opts);
  // 2 TP ARs per (d,s,m,l) pair of passes: dp2 x pp2(16 layers) x mb2 x 2.
  const int tp_ars = 2 * 2 * 16 * 2 * 2;
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllReduce), tp_ars + 2);
}

TEST(IterationDag, FoldedTpInflatesComputeDurations) {
  ParallelismConfig p = paper_config();
  IterationOptions folded;
  folded.simulate_tp_comm = false;
  IterationOptions simulated;
  simulated.simulate_tp_comm = true;
  DagFixture ff(p, ModelConfig::llama3_8b(), folded);
  DagFixture fs(p, ModelConfig::llama3_8b(), simulated);
  TimeNs folded_fwd = 0;
  TimeNs simulated_fwd = 0;
  for (const auto& op : ff.dag.ops) {
    if (op.label == "F[d0,s0,m0,l1]") folded_fwd = op.duration;
  }
  for (const auto& op : fs.dag.ops) {
    if (op.label == "F[d0,s0,m0,l1]") simulated_fwd = op.duration;
  }
  EXPECT_GT(folded_fwd, simulated_fwd);
}

TEST(IterationDag, MoeExpertParallelEmitsAllToAll) {
  ParallelismConfig p;
  p.tp = 4;
  p.dp = 4;
  p.ep = 4;
  p.pp = 1;
  p.n_microbatches = 2;
  DagFixture f(p, ModelConfig::mixtral_8x7b());
  // Per layer per microbatch, forward + backward: 32 x 2 x 2 = 128.
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllToAll), 128);
}

TEST(IterationDag, DenseModelIgnoresEpFlag) {
  ParallelismConfig p;
  p.tp = 4;
  p.dp = 4;
  p.ep = 4;
  p.pp = 1;
  p.n_microbatches = 2;
  DagFixture f(p, ModelConfig::llama3_8b());
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllToAll), 0);
}

TEST(IterationDag, PipelinePairGroupsShareIdAcrossDirections) {
  DagFixture f(paper_config());
  // For each unordered pipeline pair, both orientations share one GroupId.
  std::map<GroupId, std::set<std::pair<int, int>>> by_id;
  for (const auto& g : f.dag.groups) {
    if (g.dim != ParallelismDim::kPP) continue;
    by_id[g.id].insert({g.ranks[0].value(), g.ranks[1].value()});
  }
  for (const auto& [id, pairs] : by_id) {
    EXPECT_LE(pairs.size(), 2u);
    if (pairs.size() == 2) {
      const auto a = *pairs.begin();
      const auto b = *std::next(pairs.begin());
      EXPECT_EQ(a.first, b.second);
      EXPECT_EQ(a.second, b.first);
    }
  }
}

TEST(IterationDag, BackwardRegatherOptionAddsAllGathers) {
  ParallelismConfig p = paper_config();
  IterationOptions opts;
  opts.bwd_regather = true;
  DagFixture f(p, ModelConfig::llama3_8b(), opts);
  EXPECT_EQ(f.count_collectives(CollectiveType::kAllGather), 64);  // fwd+bwd
}


TEST(IterationDag, GpipeScheduleBuildsAndHasSameOpCount) {
  ParallelismConfig p = paper_config();
  IterationOptions opts;
  opts.pipeline_schedule = PipelineSchedule::kGpipe;
  DagFixture gpipe(p, ModelConfig::llama3_8b(), opts);
  DagFixture fifb(p);
  gpipe.dag.validate();
  EXPECT_EQ(gpipe.count_computes(), fifb.count_computes());
  EXPECT_EQ(gpipe.count_collectives(CollectiveType::kSendRecv),
            fifb.count_collectives(CollectiveType::kSendRecv));
}

TEST(IterationDag, GpipeRunsForwardsBeforeBackwards) {
  ParallelismConfig p = paper_config();
  p.n_microbatches = 4;
  IterationOptions opts;
  opts.pipeline_schedule = PipelineSchedule::kGpipe;
  DagFixture f(p, ModelConfig::llama3_8b(), opts);
  // In GPipe, no backward of stage 0 may be a (transitive) prerequisite of
  // a forward: check directly that B[m0] depends on F[m3] via the program
  // chain (the last fwd precedes the first bwd).
  OpId first_bwd{};
  OpId last_fwd{};
  for (const auto& op : f.dag.ops) {
    if (op.label == "B[d0,s0,m0,l15]") first_bwd = op.id;
    if (op.label == "F[d0,s0,m3,l15]") last_fwd = op.id;
  }
  ASSERT_TRUE(first_bwd.valid());
  ASSERT_TRUE(last_fwd.valid());
  bool chained = false;
  for (OpId d : f.dag.op(first_bwd).deps) {
    // B[m0,l15] is the first bwd op; its program-prev is the last op of the
    // final fwd slot, F[m3,l15].
    if (d == last_fwd) chained = true;
  }
  EXPECT_TRUE(chained);
}

// Parameterized structural sweep across parallelism shapes.
class DagSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DagSweep, BuildsValidDag) {
  const auto [tp, dp, pp] = GetParam();
  ParallelismConfig p;
  p.tp = tp;
  p.dp = dp;
  p.pp = pp;
  p.n_microbatches = std::max(4, pp);
  ModelConfig m = ModelConfig::test_tiny();
  m.n_layers = 12;
  DagFixture f(p, m);
  f.dag.validate();
  EXPECT_GT(f.dag.size(), 0u);
  const int total_layers = 12;
  const int expected_computes =
      dp * p.n_microbatches * total_layers * 2 + dp * pp;
  EXPECT_EQ(f.count_computes(), expected_computes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DagSweep,
    ::testing::Values(std::tuple{1, 2, 2}, std::tuple{2, 2, 2},
                      std::tuple{4, 2, 3}, std::tuple{4, 4, 1},
                      std::tuple{2, 1, 4}, std::tuple{1, 1, 2},
                      std::tuple{4, 2, 4}, std::tuple{8, 2, 2}));

}  // namespace
}  // namespace opus::workload
