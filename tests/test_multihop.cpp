// Tests for rail multi-hop forwarding (§5) and the static pre-job ring
// topology baseline (TPUv4-style).
#include <gtest/gtest.h>

#include "collective/executor.h"
#include "collective/planner.h"
#include "core/experiment.h"
#include "core/static_ring.h"

namespace opus {
namespace {

net::ClusterConfig multihop_cfg(int nodes) {
  net::ClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.gpus_per_node = 2;
  cfg.nic_ports = 2;
  cfg.fabric = net::FabricKind::kStaticRing;
  return cfg;
}

std::vector<GpuId> path_between(const net::Cluster& c, GpuId src, GpuId dst) {
  std::vector<GpuId> path;
  c.rail_multihop_path(src, dst, path);
  return path;
}

void wire_ring(net::Cluster& c, int rail) {
  std::vector<net::CircuitRequest> circuits;
  for (int n = 0; n < c.n_nodes(); ++n) {
    const GpuId a = c.gpu_at(NodeId{n}, rail);
    const GpuId b = c.gpu_at(NodeId{(n + 1) % c.n_nodes()}, rail);
    circuits.push_back({c.ocs_port(a, 0), c.ocs_port(b, 1)});
  }
  c.ocs(RailId{rail}).force_circuits(circuits);
}

TEST(MultiHop, PathFollowsLiveCircuits) {
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(4));
  wire_ring(c, 0);
  // Nodes 0 and 2 are not ring neighbours: shortest path has 2 hops.
  const auto path =
      path_between(c, c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{2}, 0));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), c.gpu_at(NodeId{0}, 0));
  EXPECT_EQ(path.back(), c.gpu_at(NodeId{2}, 0));
  EXPECT_TRUE(c.rail_path_available(c.gpu_at(NodeId{0}, 0),
                                    c.gpu_at(NodeId{2}, 0)));
}

TEST(MultiHop, UnreachableWithoutCircuits) {
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(4));
  EXPECT_TRUE(
      path_between(c, c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{2}, 0)).empty());
  EXPECT_THROW(
      c.transfer(c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{2}, 0), 100, nullptr),
      InvariantError);
}

TEST(MultiHop, StoreAndForwardPaysPerHop) {
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(4));
  wire_ring(c, 0);
  const GpuId src = c.gpu_at(NodeId{0}, 0);
  const GpuId dst = c.gpu_at(NodeId{2}, 0);
  TimeNs done = -1;
  // 25 MB at 200 Gb/s = 1 ms per hop, 2 hops store-and-forward.
  c.transfer(src, dst, 25'000'000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 2 * (msecs(1) + usecs(2)));
  // Bandwidth tax: 2x the logical bytes on the wire.
  EXPECT_EQ(c.bytes_on_route(net::Cluster::Route::kRail), 50'000'000);
  EXPECT_EQ(c.bytes_on_route(net::Cluster::Route::kRailMultiHop), 25'000'000);
}

TEST(MultiHop, RescueMidPathContinuesAlongThePath) {
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(4));
  c.set_fault_tolerant(true);
  wire_ring(c, 0);
  const GpuId src = c.gpu_at(NodeId{0}, 0);
  const GpuId dst = c.gpu_at(NodeId{2}, 0);
  int deliveries = 0;
  TimeNs done = -1;
  c.transfer(src, dst, 25'000'000, [&] {
    ++deliveries;
    done = sim.now();
  });
  // Hop 0 -> 1 lands at ~1 ms; at 1.5 ms hop 1 -> 2 is in flight when its
  // circuit (node 1 port 0) dies. The rescue forwards the remaining bytes
  // the other way round the ring, 1 -> 0 -> 3 -> 2.
  sim.schedule_at(usecs(1500), [&] { c.fail_nic_port(NodeId{1}, 0, 0); });
  sim.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(done, 3'012'000);
  EXPECT_EQ(c.rescued_flow_count(), 1);
  EXPECT_EQ(c.parked_transfer_count(), 0);
  // Only the two original hops are charged; rescued bytes are not.
  EXPECT_EQ(c.bytes_on_route(net::Cluster::Route::kRail), 50'000'000);
  EXPECT_EQ(c.bytes_on_route(net::Cluster::Route::kRailMultiHop), 25'000'000);
}

TEST(MultiHop, DirectCircuitBypassesForwarding) {
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(4));
  wire_ring(c, 0);
  const GpuId src = c.gpu_at(NodeId{0}, 0);
  const GpuId dst = c.gpu_at(NodeId{1}, 0);  // ring neighbour
  TimeNs done = -1;
  c.transfer(src, dst, 25'000'000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, msecs(1) + usecs(2));
  EXPECT_EQ(c.bytes_on_route(net::Cluster::Route::kRailMultiHop), 0);
}

TEST(MultiHop, BfsFindsShortestDirection) {
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(8));
  wire_ring(c, 0);
  // 0 -> 6 is 2 hops backwards around the ring, not 6 forwards.
  const auto path =
      path_between(c, c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{6}, 0));
  EXPECT_EQ(path.size(), 3u);
}

TEST(StaticRing, TransportWiresEveryRail) {
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(4));
  core::StaticRingTransport transport(c);
  for (int rail = 0; rail < c.n_rails(); ++rail) {
    for (int n = 0; n < c.n_nodes(); ++n) {
      const GpuId a = c.gpu_at(NodeId{n}, rail);
      const GpuId b = c.gpu_at(NodeId{(n + 1) % c.n_nodes()}, rail);
      EXPECT_TRUE(c.rail_path_available(a, b));
    }
  }
}

TEST(StaticRing, CollectivesRunWithoutReconfiguration) {
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(4));
  core::StaticRingTransport transport(c);
  collective::CollectiveExecutor exec(sim, transport);
  collective::CommGroup g;
  g.id = GroupId{1};
  g.dim = collective::ParallelismDim::kDP;
  for (int n = 0; n < 4; ++n) g.ranks.push_back(c.gpu_at(NodeId{n}, 0));
  const Bytes payload = mib(16);
  const auto cc = collective::compile(collective::CollectiveType::kAllReduce,
                                      collective::Algorithm::kRing, 4);
  bool done = false;
  exec.run(g, cc, payload,
           [&](const collective::CollectiveExecutor::Result&) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.ocs(RailId{0}).stats().reconfigurations, 0);
}

TEST(StaticRing, NonNeighbourGroupsPayTheTax) {
  // A "pipeline pair" {node0, node2} on the ring: every transfer multi-hops.
  sim::Simulator sim;
  net::Cluster c(sim, multihop_cfg(4));
  core::StaticRingTransport transport(c);
  collective::CollectiveExecutor exec(sim, transport);
  collective::CommGroup g;
  g.id = GroupId{2};
  g.dim = collective::ParallelismDim::kPP;
  g.ranks = {c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{2}, 0)};
  const Bytes payload = mib(32);
  const auto cc = collective::compile(collective::CollectiveType::kSendRecv,
                                      collective::Algorithm::kDirect, 2);
  bool done = false;
  exec.run(g, cc, payload,
           [&](const collective::CollectiveExecutor::Result&) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(c.bytes_on_route(net::Cluster::Route::kRailMultiHop), mib(32));
  EXPECT_EQ(c.bytes_on_route(net::Cluster::Route::kRail), 2 * mib(32));
}

TEST(StaticRing, RejectsOpusCluster) {
  sim::Simulator sim;
  net::ClusterConfig cfg = multihop_cfg(4);
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  net::Cluster c(sim, cfg);
  EXPECT_THROW(core::StaticRingTransport{c}, InvariantError);
}

TEST(StaticRing, EndToEndExperimentMatchesOpusClosely) {
  core::ExperimentConfig cfg;
  cfg.model = workload::ModelConfig::test_tiny();
  cfg.model.n_layers = 8;
  cfg.parallelism.tp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.n_microbatches = 4;
  cfg.parallelism.microbatch_size = 1;
  cfg.gpus_per_node = 2;
  cfg.iterations = 3;
  cfg.record_compute_trace = false;
  cfg.fabric = net::FabricKind::kStaticRing;
  const auto ring = core::run_experiment(cfg);
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  cfg.ocs_reconfig_delay = msecs(1);
  const auto opus = core::run_experiment(cfg);

  EXPECT_EQ(ring.ocs_reconfigurations, 0);
  EXPECT_GT(opus.ocs_reconfigurations, 0);
  EXPECT_GT(ring.multihop_bytes, 0) << "PP pairs are not ring neighbours";
  EXPECT_EQ(opus.multihop_bytes, 0);
  // Both complete in the same ballpark on this compute-dominated job.
  const double ratio = static_cast<double>(ring.steady_iteration_time) /
                       static_cast<double>(opus.steady_iteration_time);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

}  // namespace
}  // namespace opus
