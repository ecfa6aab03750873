// Executor tests: simulated collective durations must match the analytic
// alpha-beta model on dedicated circuits, pipelining must beat step barriers,
// and concurrent collectives on disjoint groups must not interfere.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "collective/analysis.h"
#include "collective/executor.h"
#include "collective/planner.h"
#include "collective/transport.h"
#include "net/cluster.h"

namespace opus::collective {
namespace {

net::ClusterConfig electrical_cfg(int nodes, int gpn) {
  net::ClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.gpus_per_node = gpn;
  cfg.fabric = net::FabricKind::kElectrical;
  cfg.nic_total_bw = Bandwidth::gbps(400);
  return cfg;
}

CommGroup rail_group(const net::Cluster& c, int local, int n_nodes) {
  CommGroup g;
  g.id = GroupId{1};
  g.dim = ParallelismDim::kDP;
  for (int node = 0; node < n_nodes; ++node) {
    g.ranks.push_back(c.gpu_at(NodeId{node}, local));
  }
  g.name = "test-rail-group";
  return g;
}

TEST(Executor, RingAllReduceMatchesAlphaBetaOnElectricalRail) {
  sim::Simulator sim;
  net::Cluster cluster(sim, electrical_cfg(4, 2));
  DirectTransport transport(cluster);
  CollectiveExecutor exec(sim, transport);

  const CommGroup group = rail_group(cluster, 0, 4);
  const Bytes payload = mib(64);
  const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);

  TimeNs duration = -1;
  exec.run(group, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    duration = r.duration();
  });
  sim.run();

  // Ring over an uncongested electrical rail: per-step alpha = rail latency
  // + switch hop; beta = 400G.
  const AlphaBeta cost{usecs(3), Bandwidth::gbps(400)};
  const TimeNs expected = predicted_time(*cc, payload, cost);
  EXPECT_NEAR(static_cast<double>(duration), static_cast<double>(expected),
              static_cast<double>(expected) * 0.01)
      << "pipelined ring must match the analytic schedule time";
}

TEST(Executor, ScaleUpAllReduceUsesNvlink) {
  sim::Simulator sim;
  net::Cluster cluster(sim, electrical_cfg(1, 4));
  DirectTransport transport(cluster);
  CollectiveExecutor exec(sim, transport);
  CommGroup g;
  g.id = GroupId{2};
  g.dim = ParallelismDim::kTP;
  g.ranks = {GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3}};
  const Bytes payload = mib(96);
  const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  TimeNs duration = -1;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    duration = r.duration();
  });
  sim.run();
  const AlphaBeta cost{usecs(2), Bandwidth::gbps(2400)};
  EXPECT_NEAR(static_cast<double>(duration),
              static_cast<double>(predicted_time(*cc, payload, cost)),
              static_cast<double>(predicted_time(*cc, payload, cost)) * 0.01);
}

TEST(Executor, EmptyGroupCompletesImmediately) {
  sim::Simulator sim;
  net::Cluster cluster(sim, electrical_cfg(1, 2));
  DirectTransport transport(cluster);
  CollectiveExecutor exec(sim, transport);
  CommGroup g;
  g.id = GroupId{3};
  g.ranks = {GpuId{0}};
  const Bytes payload = 100;
  const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, 1);
  bool done = false;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result&) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Executor, ConcurrentDisjointGroupsDoNotInterfere) {
  sim::Simulator sim;
  net::Cluster cluster(sim, electrical_cfg(4, 2));
  DirectTransport transport(cluster);
  CollectiveExecutor exec(sim, transport);
  // Two groups on different rails (local rank 0 and 1).
  const CommGroup g0 = rail_group(cluster, 0, 4);
  CommGroup g1 = rail_group(cluster, 1, 4);
  g1.id = GroupId{9};
  const Bytes payload = mib(64);
  const auto cc = compile(CollectiveType::kAllGather, Algorithm::kRing, 4);
  TimeNs d0 = -1, d1 = -1;
  exec.run(g0, cc, payload,
           [&](const CollectiveExecutor::Result& r) { d0 = r.duration(); });
  exec.run(g1, cc, payload,
           [&](const CollectiveExecutor::Result& r) { d1 = r.duration(); });
  sim.run();
  EXPECT_EQ(d0, d1);
  // Solo reference.
  sim::Simulator sim2;
  net::Cluster cluster2(sim2, electrical_cfg(4, 2));
  DirectTransport transport2(cluster2);
  CollectiveExecutor exec2(sim2, transport2);
  TimeNs solo = -1;
  exec2.run(rail_group(cluster2, 0, 4), cc, payload,
            [&](const CollectiveExecutor::Result& r) { solo = r.duration(); });
  sim2.run();
  EXPECT_EQ(d0, solo) << "disjoint rails must not share bandwidth";
}

TEST(Executor, GroupSizeMismatchThrows) {
  sim::Simulator sim;
  net::Cluster cluster(sim, electrical_cfg(4, 2));
  DirectTransport transport(cluster);
  CollectiveExecutor exec(sim, transport);
  const CommGroup g = rail_group(cluster, 0, 4);  // 4 ranks
  const Bytes payload = 100;
  const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, 8);
  EXPECT_THROW(exec.run(g, cc, payload, nullptr), InvariantError);
}

// Step-synchronous transport shim: forces barrier semantics so the test can
// compare pipelined vs step-synchronous execution of the same schedule. It
// records what each hook saw under the payload of the run it served.
class StepSyncTransport final : public Transport {
 public:
  explicit StepSyncTransport(net::Cluster& c) : cluster_(c) {}
  void prepare_collective(const Run&,
                          std::function<void(bool)> ready) override {
    ready(true);
  }
  void prepare_step(const Run& run, int,
                    std::function<void()> ready) override {
    ++steps_prepared;
    ++steps_by_payload[run.payload];
    ready();
  }
  void send(const Run& run, GpuId src, GpuId dst, Bytes bytes,
            std::function<void()> done) override {
    sent_by_payload[run.payload].push_back(bytes);
    cluster_.transfer(src, dst, bytes, std::move(done));
  }
  int steps_prepared = 0;
  std::map<Bytes, int> steps_by_payload;  ///< prepare_step calls per run
  std::map<Bytes, std::vector<Bytes>> sent_by_payload;  ///< sends per run

 private:
  net::Cluster& cluster_;
};

TEST(Executor, StepSynchronousPreparesEveryStepAndIsSlower) {
  const Bytes payload = mib(64);
  const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  TimeNs pipelined = -1, stepped = -1;
  {
    sim::Simulator sim;
    net::Cluster cluster(sim, electrical_cfg(4, 2));
    DirectTransport t(cluster);
    CollectiveExecutor exec(sim, t);
    exec.run(
        rail_group(cluster, 0, 4), cc, payload,
        [&](const CollectiveExecutor::Result& r) { pipelined = r.duration(); });
    sim.run();
  }
  {
    sim::Simulator sim;
    net::Cluster cluster(sim, electrical_cfg(4, 2));
    StepSyncTransport t(cluster);
    CollectiveExecutor exec(sim, t);
    exec.run(
        rail_group(cluster, 0, 4), cc, payload,
        [&](const CollectiveExecutor::Result& r) { stepped = r.duration(); });
    sim.run();
    EXPECT_EQ(t.steps_prepared, cc->n_steps);
  }
  // With per-rank pipelining the ring is as fast as the barrier version on
  // a symmetric fabric; it must never be slower.
  EXPECT_LE(pipelined, stepped);
}

TEST(Executor, OverlappingRunsOfOneShapeSendTheirOwnPayloads) {
  sim::Simulator sim;
  net::Cluster cluster(sim, electrical_cfg(4, 2));
  StepSyncTransport t(cluster);
  CollectiveExecutor exec(sim, t);
  const CommGroup g = rail_group(cluster, 0, 4);
  // One shape, three runs started together on one group: the transport
  // holds none back, so they overlap and must still send their own bytes.
  const Bytes payloads[] = {mib(16), kib(5) + 1, 0};
  const auto cc = compile(CollectiveType::kAllGather, Algorithm::kRing, 4);
  int completed = 0;
  for (const Bytes payload : payloads) {
    exec.run(g, cc, payload,
             [&](const CollectiveExecutor::Result&) { ++completed; });
  }
  EXPECT_EQ(t.steps_prepared, 3) << "every run prepares its step 0 at once";
  sim.run();
  ASSERT_EQ(completed, 3);
  const std::size_t n_transfers = cc->transfers.size();
  ASSERT_EQ(t.steps_by_payload.size(), 3u);
  ASSERT_EQ(t.sent_by_payload.size(), 3u);
  for (const Bytes payload : payloads) {
    SCOPED_TRACE("payload " + std::to_string(payload));
    EXPECT_EQ(t.steps_by_payload[payload], cc->n_steps);
    // Every send of a 4-rank ring AllGather is one chunk of ceil(P/4).
    EXPECT_EQ(t.sent_by_payload[payload],
              std::vector<Bytes>(n_transfers, (payload + 3) / 4));
  }
}

// Parameterized: executor completes and matches analytic time for a matrix
// of algorithms and sizes on one rail.
struct ExecCase {
  CollectiveType type;
  Algorithm algo;
  int nodes;
};

class ExecutorSweep : public ::testing::TestWithParam<ExecCase> {};

TEST_P(ExecutorSweep, CompletesWithPositiveDuration) {
  const auto& [type, algo, nodes] = GetParam();
  sim::Simulator sim;
  net::Cluster cluster(sim, electrical_cfg(nodes, 2));
  DirectTransport transport(cluster);
  CollectiveExecutor exec(sim, transport);
  const Bytes payload = mib(8);
  const auto cc = compile(type, algo, nodes);
  TimeNs duration = -1;
  exec.run(rail_group(cluster, 0, nodes), cc, payload,
           [&](const CollectiveExecutor::Result& r) { duration = r.duration(); });
  sim.run();
  ASSERT_GE(duration, 0) << "collective did not complete";
  EXPECT_GT(duration, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExecutorSweep,
    ::testing::Values(ExecCase{CollectiveType::kAllReduce, Algorithm::kRing, 5},
                      ExecCase{CollectiveType::kAllReduce,
                               Algorithm::kRecursiveHalvingDoubling, 8},
                      ExecCase{CollectiveType::kAllReduce,
                               Algorithm::kBinomialTree, 6},
                      ExecCase{CollectiveType::kAllGather, Algorithm::kRing, 7},
                      ExecCase{CollectiveType::kAllGather,
                               Algorithm::kRecursiveDoubling, 8},
                      ExecCase{CollectiveType::kReduceScatter, Algorithm::kRing,
                               6},
                      ExecCase{CollectiveType::kAllToAll, Algorithm::kPairwise,
                               6},
                      ExecCase{CollectiveType::kAllToAll, Algorithm::kDirect,
                               5},
                      ExecCase{CollectiveType::kBroadcast,
                               Algorithm::kBinomialTree, 9}));

}  // namespace
}  // namespace opus::collective
