// Tests for the Opus controller: FC-FS scheduling, the circuit lookup table
// (idempotent acks), conflict deferral behind busy owners, fine- vs
// coarse-grained reconfiguration, and port-ownership bookkeeping.
#include <gtest/gtest.h>

#include <vector>

#include "core/controller.h"

namespace opus::core {
namespace {

net::ClusterConfig photonic_cfg() {
  net::ClusterConfig cfg;
  cfg.n_nodes = 4;
  cfg.gpus_per_node = 2;
  cfg.nic_ports = 2;
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  cfg.ocs_reconfig_delay = msecs(10);
  return cfg;
}

RailCircuits pair_circuits(const net::Cluster& c, int rail, int node_a,
                           int node_b) {
  RailCircuits rc;
  rc.rail = RailId{rail};
  const GpuId a = c.gpu_at(NodeId{node_a}, rail);
  const GpuId b = c.gpu_at(NodeId{node_b}, rail);
  rc.circuits = {{c.ocs_port(a, 0), c.ocs_port(b, 1)},
                 {c.ocs_port(b, 0), c.ocs_port(a, 1)}};
  return rc;
}

struct ControllerFixture {
  ControllerFixture(OpusController::Config cfg = {})
      : cluster(sim, photonic_cfg()), ctrl(sim, cluster, cfg) {}
  sim::Simulator sim;
  net::Cluster cluster;
  OpusController ctrl;
};

TEST(Controller, FirstRequestReconfiguresAfterRttAndDelay) {
  ControllerFixture f;
  TimeNs acked = -1;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)},
                 [&] { acked = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(acked, usecs(30) + msecs(10));  // control RTT + OCS delay
  EXPECT_EQ(f.ctrl.stats().requests, 1);
  EXPECT_EQ(f.ctrl.stats().reconfigurations, 1);
  EXPECT_EQ(f.ctrl.stats().satisfied_immediately, 0);
}

TEST(Controller, CachedConfigurationAcksWithoutReconfiguring) {
  ControllerFixture f;
  const auto layout = pair_circuits(f.cluster, 0, 0, 1);
  f.ctrl.request(GroupId{1}, {layout}, nullptr);
  f.sim.run();
  TimeNs acked = -1;
  const TimeNs t0 = f.sim.now();
  f.ctrl.request(GroupId{1}, {layout}, [&] { acked = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(acked - t0, usecs(30)) << "lookup-table hit pays only the RTT";
  EXPECT_EQ(f.ctrl.stats().reconfigurations, 1);
  EXPECT_EQ(f.ctrl.stats().satisfied_immediately, 1);
}

TEST(Controller, BusyOwnerDefersPreemption) {
  ControllerFixture f;
  bool pp_acked = false;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)},
                 [&] { pp_acked = true; });
  f.sim.run();
  ASSERT_TRUE(pp_acked);
  // Group 1 has a kernel in flight.
  f.ctrl.group_activity(GroupId{1}, +1);
  bool dp_acked = false;
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 1, 2)},
                 [&] { dp_acked = true; });
  f.sim.run();
  EXPECT_FALSE(dp_acked) << "node 1's ports belong to the busy group 1";
  EXPECT_EQ(f.ctrl.stats().queued, 1);
  // Kernel finishes: the queued reconfiguration proceeds.
  f.ctrl.group_activity(GroupId{1}, -1);
  f.sim.run();
  EXPECT_TRUE(dp_acked);
}

TEST(Controller, IdleOwnerIsPreemptedImmediately) {
  ControllerFixture f;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)}, nullptr);
  f.sim.run();
  bool acked = false;
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 1, 2)},
                 [&] { acked = true; });
  f.sim.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(f.ctrl.stats().queued, 0);
}

TEST(Controller, DisjointPortDomainsProceedConcurrently) {
  ControllerFixture f;
  TimeNs ack_a = -1;
  TimeNs ack_b = -1;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)},
                 [&] { ack_a = f.sim.now(); });
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 2, 3)},
                 [&] { ack_b = f.sim.now(); });
  f.sim.run();
  // Fine-grained: both complete after one RTT + one OCS delay (in parallel).
  EXPECT_EQ(ack_a, usecs(30) + msecs(10));
  EXPECT_EQ(ack_b, usecs(30) + msecs(10));
}

TEST(Controller, CoarseGrainedSerializesWholeRail) {
  OpusController::Config cfg;
  cfg.fine_grained = false;
  ControllerFixture f(cfg);
  TimeNs ack_a = -1;
  TimeNs ack_b = -1;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)},
                 [&] { ack_a = f.sim.now(); });
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 2, 3)},
                 [&] { ack_b = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(ack_a, usecs(30) + msecs(10));
  // The second waits for the first's dark period even on disjoint ports.
  EXPECT_EQ(ack_b, usecs(30) + 2 * msecs(10));
}

TEST(Controller, SameGroupStepReconfigBypassesActivityCheck) {
  ControllerFixture f;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)}, nullptr);
  f.sim.run();
  f.ctrl.group_activity(GroupId{1}, +1);  // its own collective in flight
  bool acked = false;
  // Step-synchronous schedules retarget their own ports mid-collective.
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 2)},
                 [&] { acked = true; });
  f.sim.run();
  EXPECT_TRUE(acked);
  f.ctrl.group_activity(GroupId{1}, -1);
}

TEST(Controller, FcfsWithinPortDomain) {
  ControllerFixture f;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)}, nullptr);
  f.sim.run();
  f.ctrl.group_activity(GroupId{1}, +1);
  std::vector<int> order;
  // Both later requests want node 1's ports; they must be served FCFS.
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 1, 2)},
                 [&] { order.push_back(2); });
  f.ctrl.request(GroupId{3}, {pair_circuits(f.cluster, 0, 1, 3)},
                 [&] { order.push_back(3); });
  f.sim.run();
  EXPECT_TRUE(order.empty());
  f.ctrl.group_activity(GroupId{1}, -1);
  f.sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 3);
}

TEST(Controller, LaterNonConflictingRequestMayOvertake) {
  ControllerFixture f;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)}, nullptr);
  f.sim.run();
  f.ctrl.group_activity(GroupId{1}, +1);
  bool blocked_acked = false;
  bool free_acked = false;
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 1, 2)},
                 [&] { blocked_acked = true; });
  // Rail 1 is untouched: this must not wait behind the rail-0 queue.
  f.ctrl.request(GroupId{3}, {pair_circuits(f.cluster, 1, 0, 1)},
                 [&] { free_acked = true; });
  f.sim.run();
  EXPECT_FALSE(blocked_acked);
  EXPECT_TRUE(free_acked);
  f.ctrl.group_activity(GroupId{1}, -1);
  f.sim.run();
  EXPECT_TRUE(blocked_acked);
}

TEST(Controller, ExecutableRequestWaitsBehindEarlierBlockedSharer) {
  ControllerFixture f;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)}, nullptr);
  f.sim.run();
  f.ctrl.group_activity(GroupId{1}, +1);
  std::vector<int> order;
  // Group 2 is blocked: node 1's ports belong to the busy group 1.
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 1, 2)},
                 [&] { order.push_back(2); });
  f.sim.run();
  // Group 3's ports are all free, but it shares node 2's ports with the
  // earlier-queued group 2, so port-domain FC-FS holds it back.
  f.ctrl.request(GroupId{3}, {pair_circuits(f.cluster, 0, 2, 3)},
                 [&] { order.push_back(3); });
  f.sim.run();
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(f.ctrl.stats().queued, 2);
  f.ctrl.group_activity(GroupId{1}, -1);
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(Controller, OwnerOvertakesEarlierQueuedPreemptor) {
  ControllerFixture f;
  const auto own = pair_circuits(f.cluster, 0, 0, 1);
  f.ctrl.request(GroupId{1}, {own}, nullptr);
  f.sim.run();
  f.ctrl.group_activity(GroupId{1}, +1);
  bool preemptor_acked = false;
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 0, 2)},
                 [&] { preemptor_acked = true; });
  f.sim.run();
  ASSERT_FALSE(preemptor_acked) << "node 0's ports belong to busy group 1";
  // Group 1 re-requests ports it already owns: it overtakes group 2, which
  // could not run before group 1 goes idle anyway.
  bool owner_acked = false;
  f.ctrl.request(GroupId{1}, {own}, [&] { owner_acked = true; });
  f.sim.run();
  EXPECT_TRUE(owner_acked);
  EXPECT_FALSE(preemptor_acked);
  f.ctrl.group_activity(GroupId{1}, -1);
  f.sim.run();
  EXPECT_TRUE(preemptor_acked);
}

TEST(Controller, PortOwnershipTransfersOnReconfiguration) {
  ControllerFixture f;
  const auto layout1 = pair_circuits(f.cluster, 0, 0, 1);
  f.ctrl.request(GroupId{1}, {layout1}, nullptr);
  f.sim.run();
  const GpuId g0 = f.cluster.gpu_at(NodeId{0}, 0);
  EXPECT_EQ(f.ctrl.port_owner(RailId{0}, f.cluster.ocs_port(g0, 0)),
            GroupId{1});
  f.ctrl.request(GroupId{2}, {pair_circuits(f.cluster, 0, 0, 2)}, nullptr);
  f.sim.run();
  EXPECT_EQ(f.ctrl.port_owner(RailId{0}, f.cluster.ocs_port(g0, 0)),
            GroupId{2});
  // Node 1's ports were stolen from group 1 and are now unowned.
  const GpuId g1 = f.cluster.gpu_at(NodeId{1}, 0);
  EXPECT_FALSE(f.ctrl.port_owner(RailId{0}, f.cluster.ocs_port(g1, 1)).valid());
}

TEST(Controller, WaitStatisticsAccumulate) {
  ControllerFixture f;
  f.ctrl.request(GroupId{1}, {pair_circuits(f.cluster, 0, 0, 1)}, nullptr);
  f.sim.run();
  EXPECT_EQ(f.ctrl.stats().total_wait, usecs(30) + msecs(10));
  EXPECT_EQ(f.ctrl.stats().max_wait, usecs(30) + msecs(10));
}

TEST(Controller, EmptyLayoutAcksImmediately) {
  ControllerFixture f;
  bool acked = false;
  f.ctrl.request(GroupId{5}, {}, [&] { acked = true; });
  f.sim.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(f.ctrl.stats().satisfied_immediately, 1);
}

}  // namespace
}  // namespace opus::core
