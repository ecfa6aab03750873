// Fault-recovery tests (the LUMION direction the paper cites): OCS port
// failures tear their circuits, the planner re-routes onto surviving ports,
// and training continues when spare port capacity exists.
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

net::ClusterConfig photonic_cfg(int nodes, int ports) {
  net::ClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.gpus_per_node = 2;
  cfg.nic_ports = ports;
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  cfg.ocs_reconfig_delay = msecs(1);
  return cfg;
}

TEST(FaultRecovery, FailPortTearsCircuitAndBlocksReuse) {
  sim::Simulator sim;
  net::Cluster c(sim, photonic_cfg(2, 2));
  auto& sw = c.ocs(RailId{0});
  sw.force_circuits({{PortId{0}, PortId{2}}});
  ASSERT_TRUE(sw.connected(PortId{0}, PortId{2}));
  sw.fail_port(PortId{0});
  EXPECT_TRUE(sw.failed(PortId{0}));
  EXPECT_FALSE(sw.connected(PortId{0}, PortId{2}));
  EXPECT_FALSE(sw.peer(PortId{2}).has_value());
  EXPECT_EQ(sw.failed_port_count(), 1);
  // A request naming the failed port acks without wiring or darkening it.
  bool acked = false;
  sw.reconfigure({{PortId{0}, PortId{2}}}, [&] { acked = true; });
  EXPECT_TRUE(acked) << "a request of only failed circuits is satisfied";
  sim.run();
  EXPECT_FALSE(sw.peer(PortId{0}).has_value());
  EXPECT_EQ(sw.port_dark_time(PortId{0}), 0);
  EXPECT_EQ(sw.stats().reconfigurations, 0);
  // The surviving ports still work.
  sw.reconfigure({{PortId{1}, PortId{3}}}, nullptr);
  sim.run();
  EXPECT_TRUE(sw.connected(PortId{1}, PortId{3}));
}

TEST(FaultRecovery, ForcedFailAbortsLiveTrafficAndTearsCircuit) {
  // A mid-run failure without a rescuer installed aborts the circuit's flows
  // outright and tears the circuit.
  sim::Simulator sim;
  net::Cluster c(sim, photonic_cfg(2, 2));
  auto& sw = c.ocs(RailId{0});
  sw.force_circuits({{PortId{0}, PortId{2}}});
  const LinkId l = sw.link(PortId{0}, PortId{2});
  bool delivered = false;
  c.network().start_flow({l}, gib(1), 0, [&] { delivered = true; });
  sw.fail_port(PortId{0});
  EXPECT_TRUE(sw.failed(PortId{0}));
  EXPECT_FALSE(sw.connected(PortId{0}, PortId{2}));
  EXPECT_EQ(c.network().active_flows_on(l), 0);
  sim.run();
  EXPECT_FALSE(delivered) << "aborted flows must not deliver";
}

TEST(FaultRecovery, PlannerRoutesAroundFailedPorts) {
  // 4-port NICs, pair group: normally striped over 4 circuits; after two
  // port failures on one node, the plan uses the 2 survivors.
  sim::Simulator sim;
  net::Cluster c(sim, photonic_cfg(2, 4));
  CircuitPlanner planner(c);
  CommGroup g;
  g.id = GroupId{1};
  g.dim = collective::ParallelismDim::kDP;
  g.ranks = {c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{1}, 0)};
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 2);
  const auto before = planner.plan_static(g, *cc);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ((*before)[0].circuits.size(), 4u);

  auto& sw = c.ocs(RailId{0});
  sw.fail_port(c.ocs_port(g.ranks[0], 0));
  sw.fail_port(c.ocs_port(g.ranks[0], 2));
  const auto after = planner.plan_static(g, *cc);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ((*after)[0].circuits.size(), 2u);
  for (const auto& circuit : (*after)[0].circuits) {
    EXPECT_FALSE(sw.failed(circuit.a));
    EXPECT_FALSE(sw.failed(circuit.b));
  }
}

TEST(FaultRecovery, RingBecomesUnwirableWithoutSparePorts) {
  // A 4-node ring needs degree 2; failing one of a node's two ports makes
  // the static ring impossible (the physical reality the spare ports of
  // LUMION-style designs exist to avoid).
  sim::Simulator sim;
  net::Cluster c(sim, photonic_cfg(4, 2));
  CircuitPlanner planner(c);
  CommGroup g;
  g.id = GroupId{1};
  g.dim = collective::ParallelismDim::kDP;
  for (int n = 0; n < 4; ++n) g.ranks.push_back(c.gpu_at(NodeId{n}, 0));
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  ASSERT_TRUE(planner.plan_static(g, *cc).has_value());
  c.ocs(RailId{0}).fail_port(c.ocs_port(g.ranks[1], 0));
  EXPECT_FALSE(planner.plan_static(g, *cc).has_value());
}

TEST(FaultRecovery, FailureMidReconfigurationSkipsTheDeadEstablish) {
  // A port dying while dark must not derail the in-flight reconfiguration:
  // the completion still fires (surviving circuits come up; the dead one is
  // skipped), and the dark time charged up front stays charged — the
  // sum(port_dark_time) ledger never loses a failed-while-dark port.
  sim::Simulator sim;
  net::Cluster c(sim, photonic_cfg(2, 2));
  auto& sw = c.ocs(RailId{0});
  const TimeNs delay = sw.reconfig_delay();
  bool acked = false;
  sw.reconfigure({{PortId{0}, PortId{2}}, {PortId{1}, PortId{3}}},
                 [&] { acked = true; });
  sim.schedule_at(delay / 2, [&] { sw.fail_port(PortId{0}); });
  sim.run();
  EXPECT_TRUE(acked) << "the reconfiguration ack must survive the failure";
  EXPECT_TRUE(sw.connected(PortId{1}, PortId{3}));
  EXPECT_FALSE(sw.peer(PortId{0}).has_value());
  EXPECT_FALSE(sw.peer(PortId{2}).has_value())
      << "the dead circuit's establish must be skipped, not half-wired";
  TimeNs total_dark = 0;
  for (int p = 0; p < sw.n_ports(); ++p) {
    total_dark += sw.port_dark_time(PortId{p});
  }
  EXPECT_EQ(total_dark, 4 * delay)
      << "failing mid-dark must not claw back the up-front dark charge";
  // Repair makes the pair usable again via a fresh reconfiguration.
  sw.repair_port(PortId{0});
  sw.reconfigure({{PortId{0}, PortId{2}}}, nullptr);
  sim.run();
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{2}));
}

TEST(FaultRecovery, BatchRotationWithFailedPortBringsUpOnlySurvivors) {
  // A pinned (batched) rotor matching whose port died since registration
  // must bring up the surviving circuits only; once the port is repaired
  // the same batch applies whole.
  sim::Simulator sim;
  net::Cluster c(sim, photonic_cfg(2, 2));
  auto& sw = c.ocs(RailId{0});
  const auto batch =
      sw.register_batch({{PortId{0}, PortId{2}}, {PortId{1}, PortId{3}}});
  sw.fail_port(PortId{1});
  bool acked = false;
  sw.reconfigure_batch(batch, [&] { acked = true; });
  sim.run();
  EXPECT_TRUE(acked);
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{2}));
  EXPECT_FALSE(sw.peer(PortId{3}).has_value());

  sw.repair_port(PortId{1});
  bool again = false;
  sw.reconfigure_batch(batch, [&] { again = true; });
  sim.run();
  EXPECT_TRUE(again);
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{2}));
  EXPECT_TRUE(sw.connected(PortId{1}, PortId{3}))
      << "a repaired batch port rejoins the pinned matching";
}

TEST(FaultRecovery, RepairRacingTheReplanRevivesParkedTraffic) {
  // Failure cuts every live path mid-transfer -> the rescued flow parks;
  // the repair's topology event retries it (here via the emergency spare
  // circuit) and the transfer still delivers exactly once, with the payload
  // charged only at the original issue.
  sim::Simulator sim;
  net::Cluster c(sim, photonic_cfg(2, 2));
  c.set_fault_tolerant(true);
  auto& sw = c.ocs(RailId{0});
  sw.force_circuits({{PortId{0}, PortId{2}}});
  int done = 0;
  c.transfer(c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{1}, 0), gib(1),
             [&] { ++done; });
  // Kill the spare first, then the carrying port: no surviving path.
  sim.schedule_at(usecs(1), [&] { c.fail_nic_port(NodeId{0}, 0, 1); });
  sim.schedule_at(usecs(2), [&] {
    c.fail_nic_port(NodeId{0}, 0, 0);
    EXPECT_EQ(c.parked_transfer_count(), 1)
        << "with no live path the rescued transfer must park, not vanish";
  });
  sim.schedule_at(msecs(1), [&] { c.repair_nic_port(NodeId{0}, 0, 0); });
  sim.run();
  EXPECT_EQ(done, 1) << "the parked transfer must deliver after repair";
  EXPECT_EQ(c.parked_transfer_count(), 0);
  EXPECT_EQ(c.bytes_on_route(net::Cluster::Route::kRail), gib(1))
      << "rescue resends must never double-count the payload";
}

TEST(FaultRecovery, CollectiveSurvivesFailureBetweenRuns) {
  // End to end: run a collective, fail one port, run again — Opus re-plans
  // onto the surviving ports (4-port NIC leaves spares).
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 4));
  OpusTransport transport(sim, cluster);
  CollectiveExecutor exec(sim, transport);
  CommGroup g;
  g.id = GroupId{1};
  g.dim = collective::ParallelismDim::kDP;
  for (int n = 0; n < 4; ++n) g.ranks.push_back(cluster.gpu_at(NodeId{n}, 0));
  const Bytes payload = mib(16);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);

  TimeNs first = -1;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    first = r.duration();
  });
  sim.run();
  ASSERT_GT(first, 0);

  // Fail one port used by the ring.
  cluster.ocs(RailId{0}).fail_port(cluster.ocs_port(g.ranks[0], 0));

  TimeNs second = -1;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    second = r.duration();
  });
  sim.run();
  ASSERT_GT(second, 0) << "the collective must recover onto spare ports";
  // Recovery pays a reconfiguration; afterwards a third run is cached.
  TimeNs third = -1;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    third = r.duration();
  });
  sim.run();
  EXPECT_LT(third, second);
}

}  // namespace
}  // namespace opus::core
