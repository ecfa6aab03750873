// Tests for the circuit planner: ring layouts, bandwidth striping, port
// budgets (C1/C3), PXN lowering, and per-step plans for peer-changing
// algorithms.
#include <gtest/gtest.h>

#include <set>

#include "collective/planner.h"
#include "core/circuit_planner.h"

namespace opus::core {
namespace {

using collective::Algorithm;
using collective::CollectiveType;
using collective::CommGroup;
using collective::ParallelismDim;

net::ClusterConfig photonic_cfg(int nodes, int gpn, int ports) {
  net::ClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.gpus_per_node = gpn;
  cfg.nic_ports = ports;
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  return cfg;
}

CommGroup rail_group(const net::Cluster& c, int local,
                     std::vector<int> nodes) {
  CommGroup g;
  g.id = GroupId{1};
  g.dim = ParallelismDim::kDP;
  for (int n : nodes) g.ranks.push_back(c.gpu_at(NodeId{n}, local));
  return g;
}

TEST(CircuitPlanner, PairGroupStripesBothPorts) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 4, 2));
  CircuitPlanner planner(cluster);
  const CommGroup g = rail_group(cluster, 0, {0, 1});
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 2);
  const auto plan = planner.plan_static(g, *cc);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->size(), 1u);
  EXPECT_EQ((*plan)[0].rail.value(), 0);
  // Two striped circuits: full 400G between the pair.
  EXPECT_EQ((*plan)[0].circuits.size(), 2u);
}

TEST(CircuitPlanner, RingUsesTwoPortsPerMember) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 4, 2));
  CircuitPlanner planner(cluster);
  const CommGroup g = rail_group(cluster, 1, {0, 1, 2, 3});
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  const auto plan = planner.plan_static(g, *cc);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->size(), 1u);
  EXPECT_EQ((*plan)[0].rail.value(), 1);
  // A 4-ring: 4 circuits, no port used twice.
  EXPECT_EQ((*plan)[0].circuits.size(), 4u);
  std::set<std::int32_t> used;
  for (const auto& c : (*plan)[0].circuits) {
    EXPECT_TRUE(used.insert(c.a.value()).second);
    EXPECT_TRUE(used.insert(c.b.value()).second);
  }
}

TEST(CircuitPlanner, FourPortNicDoublesRingBandwidth) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 4, 4));
  CircuitPlanner planner(cluster);
  const CommGroup g = rail_group(cluster, 0, {0, 1, 2, 3});
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  const auto plan = planner.plan_static(g, *cc);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ((*plan)[0].circuits.size(), 8u);  // striped x2
}

TEST(CircuitPlanner, OnePortNicCannotHoldARing) {
  // C1: a >2-member ring needs degree 2; a 1x400G NIC has degree 1.
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 4, 1));
  CircuitPlanner planner(cluster);
  const CommGroup g = rail_group(cluster, 0, {0, 1, 2, 3});
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  EXPECT_FALSE(planner.plan_static(g, *cc).has_value());
  // A pair still works.
  const CommGroup pair = rail_group(cluster, 0, {0, 1});
  const auto pair_cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 2);
  EXPECT_TRUE(planner.plan_static(pair, *pair_cc).has_value());
}

TEST(CircuitPlanner, RecursiveDoublingNotStaticallyWirable) {
  // log2(8) = 3 distinct peers > 2 ports (C1) -> per-step mode.
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(8, 2, 2));
  CircuitPlanner planner(cluster);
  const CommGroup g =
      rail_group(cluster, 0, {0, 1, 2, 3, 4, 5, 6, 7});
  const auto cc = collective::compile(CollectiveType::kAllGather,
                                      Algorithm::kRecursiveDoubling, 8);
  EXPECT_FALSE(planner.plan_static(g, *cc).has_value());
  // Each individual step IS wirable: one peer per rank.
  for (int step = 0; step < cc->n_steps; ++step) {
    const auto plan = planner.plan_step(g, *cc, step);
    ASSERT_EQ(plan.size(), 1u);
    // 4 pairs x 2-port striping.
    EXPECT_EQ(plan[0].circuits.size(), 8u);
  }
  // Steps use different peers: the circuit sets differ.
  const auto s0 = planner.plan_step(g, *cc, 0);
  const auto s1 = planner.plan_step(g, *cc, 1);
  std::set<std::pair<std::int32_t, std::int32_t>> p0, p1;
  for (const auto& c : s0[0].circuits) p0.insert({c.a.value(), c.b.value()});
  for (const auto& c : s1[0].circuits) p1.insert({c.a.value(), c.b.value()});
  EXPECT_NE(p0, p1);
}

TEST(CircuitPlanner, ScaleUpPairsNeedNoCircuits) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(2, 4, 2));
  CircuitPlanner planner(cluster);
  CommGroup g;
  g.id = GroupId{7};
  g.dim = ParallelismDim::kTP;
  g.ranks = {GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3}};  // one node
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  const auto plan = planner.plan_static(g, *cc);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(CircuitPlanner, CrossRankGroupLowersToPxnBridgeCircuits) {
  // Group {GPU0 (node0,local0), GPU5 (node1,local1)}: the rail hop rides
  // rail 1 from the bridge (node0,local1) for 0->5, and rail 0 from
  // (node1,local0) for 5->0.
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(2, 4, 2));
  CircuitPlanner planner(cluster);
  CommGroup g;
  g.id = GroupId{8};
  g.dim = ParallelismDim::kDP;
  g.ranks = {GpuId{0}, GpuId{5}};
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 2);
  const auto plan = planner.plan_static(g, *cc);
  ASSERT_TRUE(plan.has_value());
  std::set<int> rails;
  for (const auto& rc : *plan) rails.insert(rc.rail.value());
  EXPECT_EQ(rails, (std::set<int>{0, 1}));
}

TEST(CircuitPlanner, PlanStepRejectsOverCommittedStep) {
  // Direct AllToAll: one step with n-1 peers per rank; not plannable.
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 2, 2));
  CircuitPlanner planner(cluster);
  const CommGroup g = rail_group(cluster, 0, {0, 1, 2, 3});
  const auto cc =
      collective::compile(CollectiveType::kAllToAll, Algorithm::kDirect, 4);
  EXPECT_THROW(planner.plan_step(g, *cc, 0), InvariantError);
}

// Sweep: ring circuits for every group size and port config that fits.
class RingPlanSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RingPlanSweep, RingLayoutsRespectPortBudgets) {
  const auto [nodes, ports] = GetParam();
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(nodes, 2, ports));
  CircuitPlanner planner(cluster);
  std::vector<int> node_ids(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) node_ids[static_cast<std::size_t>(i)] = i;
  const CommGroup g = rail_group(cluster, 0, node_ids);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, nodes);
  const auto plan = planner.plan_static(g, *cc);
  const bool wirable = nodes == 2 || ports >= 2;
  EXPECT_EQ(plan.has_value(), wirable);
  if (plan) {
    // No port appears twice.
    std::set<std::int32_t> used;
    for (const auto& c : (*plan)[0].circuits) {
      EXPECT_TRUE(used.insert(c.a.value()).second);
      EXPECT_TRUE(used.insert(c.b.value()).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NodePortMatrix, RingPlanSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4, 8, 16),
                                            ::testing::Values(1, 2, 4)));

}  // namespace
}  // namespace opus::core
