// Tests for the §5 "Opportunities" API: application-driven circuit
// allocation (hint_collective) hides reconfiguration latency without any
// profiling — from the very first iteration.
#include <gtest/gtest.h>

#include "collective/executor.h"
#include "collective/planner.h"
#include "core/opus_transport.h"

namespace opus::core {
namespace {

using collective::Algorithm;
using collective::CollectiveExecutor;
using collective::CollectiveType;
using collective::CommGroup;
using collective::ParallelismDim;

struct HintFixture {
  HintFixture() : cluster(sim, cluster_cfg()), transport(sim, cluster) {}

  static net::ClusterConfig cluster_cfg() {
    net::ClusterConfig cfg;
    cfg.n_nodes = 4;
    cfg.gpus_per_node = 2;
    cfg.nic_ports = 2;
    cfg.fabric = net::FabricKind::kOpusPhotonic;
    cfg.ocs_reconfig_delay = msecs(20);
    return cfg;
  }

  CommGroup group(int local) {
    CommGroup g;
    g.id = GroupId{10 + local};
    g.dim = ParallelismDim::kDP;
    for (int n = 0; n < 4; ++n) g.ranks.push_back(cluster.gpu_at(NodeId{n}, local));
    return g;
  }

  sim::Simulator sim;
  net::Cluster cluster;
  OpusTransport transport;
};

TEST(CircuitHints, HintHidesFirstIterationReconfiguration) {
  const Bytes payload = mib(25);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);

  // Without a hint: the collective pays the 20 ms reconfiguration.
  TimeNs cold = -1;
  {
    HintFixture f;
    CollectiveExecutor exec(f.sim, f.transport);
    const CommGroup g = f.group(0);
    exec.run(g, cc, payload,
             [&](const CollectiveExecutor::Result& r) {
      cold = r.duration();
    });
    f.sim.run();
  }
  // With a hint issued during (simulated) preceding compute, the circuits
  // are live before the collective starts.
  TimeNs hinted = -1;
  {
    HintFixture f;
    CollectiveExecutor exec(f.sim, f.transport);
    const CommGroup g = f.group(0);
    ASSERT_TRUE(f.transport.hint_collective(g, *cc));
    f.sim.schedule_after(msecs(50), [&] {  // compute happens meanwhile
      exec.run(g, cc, payload,
               [&](const CollectiveExecutor::Result& r) {
        hinted = r.duration();
      });
    });
    f.sim.run();
    EXPECT_EQ(f.transport.controller().stats().satisfied_immediately, 1);
  }
  ASSERT_GT(cold, 0);
  ASSERT_GT(hinted, 0);
  EXPECT_GT(cold, hinted + msecs(19))
      << "the hint must hide nearly the whole reconfiguration delay";
}

TEST(CircuitHints, ScaleUpGroupsNeedNoHint) {
  HintFixture f;
  CommGroup g;
  g.id = GroupId{5};
  g.dim = ParallelismDim::kTP;
  g.ranks = {GpuId{0}, GpuId{1}};  // same node
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 2);
  EXPECT_TRUE(f.transport.hint_collective(g, *cc));
  EXPECT_EQ(f.transport.controller().stats().requests, 0);
}

TEST(CircuitHints, PeerChangingSchedulesAreRejected) {
  // Recursive doubling over 8 ranks needs log2(8) = 3 distinct peers —
  // more than a 2-port NIC can hold as a static layout (C1).
  net::ClusterConfig cfg = HintFixture::cluster_cfg();
  cfg.n_nodes = 8;
  sim::Simulator sim;
  net::Cluster cluster(sim, cfg);
  OpusTransport transport(sim, cluster);
  CommGroup big;
  big.id = GroupId{9};
  big.dim = ParallelismDim::kDP;
  for (int n = 0; n < 8; ++n) big.ranks.push_back(cluster.gpu_at(NodeId{n}, 0));
  const auto rd8_cc = collective::compile(CollectiveType::kAllGather,
                                          Algorithm::kRecursiveDoubling, 8);
  EXPECT_FALSE(transport.hint_collective(big, *rd8_cc))
      << "3 distinct peers never fit 2 ports as a static layout (C1)";
}

TEST(CircuitHints, HintedCircuitsYieldToActiveGroups) {
  // A hint must not disturb a group whose kernels are in flight: the
  // controller queues it until the owner goes idle.
  HintFixture f;
  CollectiveExecutor exec(f.sim, f.transport);
  const CommGroup dp = f.group(0);
  const Bytes big_payload = gib(1);
  const auto big_cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  bool dp_done = false;
  exec.run(dp, big_cc, big_payload,
           [&](const CollectiveExecutor::Result&) { dp_done = true; });
  f.sim.run_until(msecs(30));  // circuits up, transfers in flight

  CommGroup pp;
  pp.id = GroupId{77};
  pp.dim = ParallelismDim::kPP;
  pp.ranks = {f.cluster.gpu_at(NodeId{0}, 0), f.cluster.gpu_at(NodeId{2}, 0)};
  const auto pair_cc =
      collective::compile(CollectiveType::kSendRecv, Algorithm::kDirect, 2);
  EXPECT_TRUE(f.transport.hint_collective(pp, *pair_cc));
  f.sim.run_until(msecs(40));
  EXPECT_FALSE(dp_done) << "the big AllReduce is still moving";
  EXPECT_GT(f.transport.controller().stats().queued, 0)
      << "the hint waits behind the active owner";
  f.sim.run();
  EXPECT_TRUE(dp_done);
}

}  // namespace
}  // namespace opus::core
