// Iteration-engine tests: compute-stream serialization, multi-iteration
// runs, trace recording conventions, and determinism.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "collective/planner.h"
#include "collective/transport.h"
#include "workload/engine.h"

namespace opus::workload {
namespace {

struct EngineFixture {
  explicit EngineFixture(ParallelismConfig p,
                         ModelConfig m = ModelConfig::test_tiny(),
                         IterationEngine::Options opts = no_dispatch())
      : par(p),
        model(std::move(m)),
        cluster(sim, cluster_cfg(p)),
        mapper(par, cluster.gpus_per_node()),
        compute(GpuSpec::a100(), 0.35, true),
        dag(build_training_iteration(model, par, mapper, compute,
                                     cluster.config().nvlink_bw)),
        transport(cluster),
        engine(sim, cluster, transport, &recorder, opts) {}

  static IterationEngine::Options no_dispatch() {
    IterationEngine::Options o;
    o.dispatch_min = 0;
    o.dispatch_max = 0;
    return o;
  }

  static net::ClusterConfig cluster_cfg(const ParallelismConfig& p) {
    net::ClusterConfig cfg;
    cfg.gpus_per_node = std::min(p.tp * p.cp, p.world_size());
    cfg.n_nodes = p.world_size() / cfg.gpus_per_node;
    cfg.fabric = net::FabricKind::kElectrical;
    return cfg;
  }

  sim::Simulator sim;
  ParallelismConfig par;
  ModelConfig model;
  net::Cluster cluster;
  RankMapper mapper;
  ComputeModel compute;
  IterationDag dag;
  trace::TraceRecorder recorder;
  collective::DirectTransport transport;
  IterationEngine engine;
};

ParallelismConfig small_config() {
  ParallelismConfig p;
  p.tp = 2;
  p.dp = 2;
  p.pp = 2;
  p.n_microbatches = 4;
  p.microbatch_size = 1;
  return p;
}

TEST(Engine, RunsToCompletionAndRecordsIterations) {
  EngineFixture f(small_config());
  const auto times = f.engine.run_to_completion(f.dag, 3);
  ASSERT_EQ(times.size(), 3u);
  for (TimeNs t : times) EXPECT_GT(t, 0);
  ASSERT_EQ(f.recorder.iterations().size(), 3u);
  EXPECT_EQ(f.recorder.iterations()[2].duration(), times[2]);
}

TEST(Engine, IterationsAreIdenticalOnDirectTransport) {
  EngineFixture f(small_config());
  const auto times = f.engine.run_to_completion(f.dag, 3);
  EXPECT_EQ(times[0], times[1]);
  EXPECT_EQ(times[1], times[2]);
}

TEST(Engine, DeterministicAcrossIdenticalRuns) {
  EngineFixture a(small_config());
  EngineFixture b(small_config());
  EXPECT_EQ(a.engine.run_to_completion(a.dag, 2),
            b.engine.run_to_completion(b.dag, 2));
}

// Forwards to a DirectTransport and runs `on_iteration` as each training
// iteration starts.
class IterationHookTransport final : public collective::Transport {
 public:
  explicit IterationHookTransport(net::Cluster& cluster) : direct_(cluster) {}
  void prepare_collective(const collective::Run& run,
                          std::function<void(bool)> ready) override {
    direct_.prepare_collective(run, std::move(ready));
  }
  void prepare_step(const collective::Run& run, int step,
                    std::function<void()> ready) override {
    direct_.prepare_step(run, step, std::move(ready));
  }
  void send(const collective::Run& run, GpuId src, GpuId dst, Bytes bytes,
            std::function<void()> done) override {
    direct_.send(run, src, dst, bytes, std::move(done));
  }
  void iteration_started(int index) override { on_iteration(index); }

  std::function<void(int)> on_iteration;

 private:
  collective::DirectTransport direct_;
};

using ShapeKey =
    std::tuple<collective::CollectiveType, collective::Algorithm, int>;

/// The compiled-collective cache keys (type, algorithm, group size) the
/// DAG's launches map to (electrical rails: no degree budget constrains the
/// algorithm choice).
ShapeKey shape_of(const IterationDag& dag, const Op& op, int gi) {
  const int n = dag.groups[static_cast<std::size_t>(gi)].size();
  return {op.ctype, collective::choose_algorithm(op.ctype, n, op.payload, 0),
          n};
}

TEST(Engine, CompilesEachDistinctCollectiveOnce) {
  EngineFixture f(small_config());
  std::set<ShapeKey> keys;
  for (const Op& op : f.dag.ops) {
    if (op.kind != OpKind::kCollective) continue;
    for (int gi : op.group_indices) keys.insert(shape_of(f.dag, op, gi));
  }
  ASSERT_GT(keys.size(), 1u);

  IterationHookTransport transport(f.cluster);
  IterationEngine engine(f.sim, f.cluster, transport, nullptr,
                         EngineFixture::no_dispatch());
  std::vector<std::size_t> compiled_at_start;
  transport.on_iteration = [&](int) {
    compiled_at_start.push_back(engine.compiled_collectives());
  };
  engine.run_to_completion(f.dag, 2);
  ASSERT_EQ(compiled_at_start.size(), 2u);
  EXPECT_EQ(compiled_at_start[0], 0u) << "compiled lazily, not at setup";
  EXPECT_EQ(compiled_at_start[1], keys.size());
  EXPECT_EQ(engine.compiled_collectives(), keys.size())
      << "iteration 2 reuses every compiled collective";
}

TEST(Engine, PayloadsOfOneShapeShareOneCompiledCollective) {
  // FSDP: stage 0's first layer AllGathers the input embedding on top of
  // its parameters, so it has the same shape as stage 0's other layers'
  // AllGathers but a larger payload. The model is wide enough that every
  // AllGather is above the chooser's 1 MiB crossover, so all run as rings.
  ParallelismConfig p = small_config();
  p.pp = 1;
  ModelConfig m = ModelConfig::test_tiny();
  m.hidden = 1024;
  m.ffn_hidden = 4096;
  EngineFixture f(p, m);
  const Op* embedding = nullptr;
  const Op* plain = nullptr;
  for (const Op& op : f.dag.ops) {
    if (op.label == "AG[s0,l0]") embedding = &op;
    if (op.label == "AG[s0,l1]") plain = &op;
  }
  ASSERT_NE(embedding, nullptr);
  ASSERT_NE(plain, nullptr);
  ASSERT_EQ(embedding->group_indices, plain->group_indices);
  const int gi = plain->group_indices.front();
  ASSERT_EQ(shape_of(f.dag, *embedding, gi), shape_of(f.dag, *plain, gi));
  ASSERT_GT(embedding->payload, plain->payload);

  std::set<ShapeKey> shapes;
  std::set<std::pair<ShapeKey, Bytes>> launches;
  for (const Op& op : f.dag.ops) {
    if (op.kind != OpKind::kCollective) continue;
    for (int g : op.group_indices) {
      shapes.insert(shape_of(f.dag, op, g));
      launches.emplace(shape_of(f.dag, op, g), op.payload);
    }
  }
  ASSERT_LT(shapes.size(), launches.size());
  f.engine.run_to_completion(f.dag, 1);
  EXPECT_EQ(f.engine.compiled_collectives(), shapes.size())
      << "one compiled collective per shape, whatever the payloads";
}

TEST(Engine, ComputeOpsSerializePerGpu) {
  EngineFixture f(small_config());
  f.engine.run_to_completion(f.dag, 1);
  // No two compute spans on one GPU may overlap.
  std::map<int, std::vector<std::pair<TimeNs, TimeNs>>> spans;
  for (const auto& c : f.recorder.compute_records()) {
    spans[c.gpu.value()].emplace_back(c.t_start, c.t_end);
  }
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(f.cluster.n_gpus()));
  for (auto& [gpu, list] : spans) {
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_GE(list[i].first, list[i - 1].second)
          << "overlapping compute on GPU " << gpu;
    }
  }
}

TEST(Engine, TraceRecordsScaleOutAndScaleUpSeparately) {
  ParallelismConfig p = small_config();
  IterationOptions opts;
  opts.simulate_tp_comm = true;
  EngineFixture f(p, ModelConfig::test_tiny());
  f.dag = build_training_iteration(f.model, p, f.mapper, f.compute,
                                   f.cluster.config().nvlink_bw, opts);
  f.engine.run_to_completion(f.dag, 1);
  bool saw_scale_up = false;
  bool saw_scale_out = false;
  for (const auto& r : f.recorder.comm_records()) {
    if (r.scale_out) {
      saw_scale_out = true;
      EXPECT_TRUE(r.rail.valid());
    } else {
      saw_scale_up = true;
      EXPECT_FALSE(r.rail.valid());
    }
  }
  EXPECT_TRUE(saw_scale_up);   // TP ARs
  EXPECT_TRUE(saw_scale_out);  // DP/PP traffic
}

TEST(Engine, AllGatherRecordsPerRankInputConvention) {
  EngineFixture f(small_config());
  f.engine.run_to_completion(f.dag, 1);
  CommVolumeModel vol(f.model, f.par);
  bool found = false;
  for (const auto& r : f.recorder.comm_records()) {
    if (r.type != collective::CollectiveType::kAllGather) continue;
    // Reported = total gathered / dp. Boundary-stage records add the
    // embedding share; interior layers match exactly.
    if (r.payload == vol.fsdp_allgather_per_layer() / f.par.dp) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Engine, DispatchLatencyShiftsIssueTimes) {
  IterationEngine::Options with;
  with.dispatch_min = msecs(1);
  with.dispatch_max = msecs(1);
  EngineFixture f(small_config(), ModelConfig::test_tiny(), with);
  const auto times = f.engine.run_to_completion(f.dag, 1);
  EngineFixture g(small_config());
  const auto base = g.engine.run_to_completion(g.dag, 1);
  EXPECT_GT(times[0], base[0]);
}

TEST(Engine, RejectsConcurrentRuns) {
  EngineFixture f(small_config());
  f.engine.run(f.dag, 1, nullptr);
  EXPECT_THROW(f.engine.run(f.dag, 1, nullptr), InvariantError);
  f.sim.run();
}

TEST(Engine, RejectsZeroIterations) {
  EngineFixture f(small_config());
  EXPECT_THROW(f.engine.run(f.dag, 0, nullptr), InvariantError);
}

// The engine works for a matrix of shapes end to end on electrical rails.
class EngineSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(EngineSweep, CompletesForShape) {
  const auto [tp, dp, pp] = GetParam();
  ParallelismConfig p;
  p.tp = tp;
  p.dp = dp;
  p.pp = pp;
  p.n_microbatches = std::max(2, pp);
  p.microbatch_size = 1;
  ModelConfig m = ModelConfig::test_tiny();
  m.n_layers = 8;
  EngineFixture f(p, m);
  const auto times = f.engine.run_to_completion(f.dag, 2);
  EXPECT_EQ(times.size(), 2u);
  EXPECT_GT(times[0], 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineSweep,
    ::testing::Values(std::tuple{1, 2, 1}, std::tuple{2, 1, 2},
                      std::tuple{2, 2, 2}, std::tuple{4, 2, 2},
                      std::tuple{2, 4, 1}, std::tuple{1, 2, 4},
                      std::tuple{4, 1, 4}));

}  // namespace
}  // namespace opus::workload
