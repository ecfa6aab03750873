// Unit tests for cluster topology, addressing, routing, and transfers over
// scale-up, electrical rails, photonic rails, PXN, and the host network.
#include <gtest/gtest.h>

#include "common/error.h"
#include "net/cluster.h"

namespace opus::net {
namespace {

ClusterConfig base_config(FabricKind kind) {
  ClusterConfig cfg;
  cfg.n_nodes = 4;
  cfg.gpus_per_node = 4;
  cfg.nic_ports = 2;
  cfg.nic_total_bw = Bandwidth::gbps(400);
  cfg.nvlink_bw = Bandwidth::gbps(2400);
  cfg.fabric = kind;
  cfg.ocs_reconfig_delay = msecs(1);
  return cfg;
}

TEST(ClusterAddressing, NodeLocalRailMapping) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kElectrical));
  EXPECT_EQ(c.n_gpus(), 16);
  EXPECT_EQ(c.n_rails(), 4);
  EXPECT_EQ(c.node_of(GpuId{0}).value(), 0);
  EXPECT_EQ(c.node_of(GpuId{7}).value(), 1);
  EXPECT_EQ(c.local_rank(GpuId{7}), 3);
  EXPECT_EQ(c.rail_of(GpuId{9}).value(), 1);
  EXPECT_EQ(c.gpu_at(NodeId{2}, 3).value(), 11);
  EXPECT_TRUE(c.same_node(GpuId{4}, GpuId{7}));
  EXPECT_FALSE(c.same_node(GpuId{3}, GpuId{4}));
}

TEST(ClusterAddressing, OcsPortMappingRoundTrips) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kOpusPhotonic));
  for (int node = 0; node < 4; ++node) {
    for (int local = 0; local < 4; ++local) {
      const GpuId g = c.gpu_at(NodeId{node}, local);
      for (int p = 0; p < 2; ++p) {
        const PortId port = c.ocs_port(g, p);
        EXPECT_EQ(c.gpu_of_ocs_port(RailId{local}, port), g);
        EXPECT_EQ(c.nic_port_of_ocs_port(port), p);
      }
    }
  }
}

TEST(ClusterAddressing, InvalidConfigsThrow) {
  sim::Simulator sim;
  ClusterConfig bad = base_config(FabricKind::kElectrical);
  bad.nic_ports = 3;  // only 1/2/4 supported by ConnectX-7-style NICs
  EXPECT_THROW(Cluster(sim, bad), InvariantError);
}

TEST(ClusterRouting, RouteClassesMatchTopology) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kElectrical));
  EXPECT_EQ(c.route_for(GpuId{3}, GpuId{3}), Cluster::Route::kLoopback);
  EXPECT_EQ(c.route_for(GpuId{0}, GpuId{3}), Cluster::Route::kScaleUp);
  EXPECT_EQ(c.route_for(GpuId{1}, GpuId{5}), Cluster::Route::kRail);
  EXPECT_EQ(c.route_for(GpuId{0}, GpuId{5}), Cluster::Route::kPxn);
}

TEST(ClusterTransfer, ScaleUpUsesNvlinkBandwidth) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kElectrical));
  TimeNs done = -1;
  // 300 MB at 2400 Gb/s (300 GB/s) = 1 ms, plus 2 us NVLink latency.
  c.transfer(GpuId{0}, GpuId{1}, 300'000'000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, msecs(1) + usecs(2));
  EXPECT_EQ(c.bytes_on_route(Cluster::Route::kScaleUp), 300'000'000);
}

TEST(ClusterTransfer, ElectricalRailAlwaysAvailable) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kElectrical));
  EXPECT_TRUE(c.rail_path_available(GpuId{1}, GpuId{13}));
  TimeNs done = -1;
  // 50 MB at 400 Gb/s = 1 ms + rail latency 2us + hop 1us.
  c.transfer(GpuId{1}, GpuId{13}, 50'000'000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, msecs(1) + usecs(3));
  EXPECT_EQ(c.bytes_on_route(Cluster::Route::kRail), 50'000'000);
}

TEST(ClusterTransfer, PhotonicRailRequiresCircuit) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kOpusPhotonic));
  EXPECT_FALSE(c.rail_path_available(GpuId{0}, GpuId{4}));
  EXPECT_THROW(c.transfer(GpuId{0}, GpuId{4}, 1000, nullptr), InvariantError);
  // Establish a circuit: node0.port0 <-> node1.port1 on rail 0.
  c.ocs(RailId{0}).force_circuits(
      {{c.ocs_port(GpuId{0}, 0), c.ocs_port(GpuId{4}, 1)}});
  EXPECT_TRUE(c.rail_path_available(GpuId{0}, GpuId{4}));
  TimeNs done = -1;
  // One 200G circuit: 25 MB -> 1 ms (+2us rail latency, no OEO hop).
  c.transfer(GpuId{0}, GpuId{4}, 25'000'000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, msecs(1) + usecs(2));
}

/// Wires rail 0 into a ring of circuits: node n's port 0 to node n+1's
/// port 1.
void wire_rail0_ring(Cluster& c) {
  std::vector<CircuitRequest> ring;
  for (int n = 0; n < c.n_nodes(); ++n) {
    ring.push_back({c.ocs_port(c.gpu_at(NodeId{n}, 0), 0),
                    c.ocs_port(c.gpu_at(NodeId{(n + 1) % c.n_nodes()}, 0), 1)});
  }
  c.ocs(RailId{0}).force_circuits(ring);
}

TEST(Cluster, ForwardingRuleFollowsTheFabric) {
  // One 8-node ring of circuits, three rules: Opus never forwards (it
  // reconfigures instead), a static ring forwards any distance around the
  // ring, and a rotor with a port spread of 2 forwards direct-or-two-hop.
  ClusterConfig cfg = base_config(FabricKind::kOpusPhotonic);
  cfg.n_nodes = 8;
  cfg.rotor_port_spread = 2;
  const auto gpu = [](const Cluster& c, int node) {
    return c.gpu_at(NodeId{node}, 0);
  };
  {
    sim::Simulator sim;
    Cluster opus(sim, cfg);
    wire_rail0_ring(opus);
    EXPECT_FALSE(opus.rail_path_available(gpu(opus, 0), gpu(opus, 2)));
    EXPECT_THROW(opus.transfer(gpu(opus, 0), gpu(opus, 2), 1000, nullptr),
                 InvariantError);
    // A rescued hop still forwards: in-flight bytes cannot wait.
    std::vector<GpuId> path;
    opus.rail_multihop_path(gpu(opus, 0), gpu(opus, 2), path);
    EXPECT_EQ(path.size(), 3u);
  }
  {
    sim::Simulator sim;
    cfg.fabric = FabricKind::kStaticRing;
    Cluster ring(sim, cfg);
    wire_rail0_ring(ring);
    EXPECT_TRUE(ring.rail_path_available(gpu(ring, 0), gpu(ring, 4)));
    std::vector<GpuId> path;
    ring.rail_multihop_path(gpu(ring, 0), gpu(ring, 4), path);
    EXPECT_EQ(path.size(), 5u);
  }
  {
    sim::Simulator sim;
    cfg.fabric = FabricKind::kRotor;
    Cluster rotor(sim, cfg);
    wire_rail0_ring(rotor);
    EXPECT_TRUE(rotor.rail_path_available(gpu(rotor, 0), gpu(rotor, 2)));
    EXPECT_FALSE(rotor.rail_path_available(gpu(rotor, 0), gpu(rotor, 3)));
    std::vector<GpuId> path;
    rotor.rail_multihop_path(gpu(rotor, 0), gpu(rotor, 3), path);
    EXPECT_TRUE(path.empty()) << "a rescued hop keeps the two-hop cap";
  }
}

TEST(ClusterTransfer, PhotonicStripesAcrossParallelCircuits) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kOpusPhotonic));
  auto& sw = c.ocs(RailId{0});
  sw.force_circuits({{c.ocs_port(GpuId{0}, 0), c.ocs_port(GpuId{4}, 0)},
                     {c.ocs_port(GpuId{0}, 1), c.ocs_port(GpuId{4}, 1)}});
  TimeNs done = -1;
  // Two 200G circuits striped = 400G: 50 MB -> 1 ms.
  c.transfer(GpuId{0}, GpuId{4}, 50'000'000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, msecs(1) + usecs(2));
}

TEST(ClusterTransfer, PxnForwardsThroughBridgeGpu) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kOpusPhotonic));
  // dst = GPU 5 (node 1, local 1); src = GPU 0 (node 0, local 0).
  // Bridge = node 0, local 1 = GPU 1. Circuit on rail 1: node0 <-> node1.
  c.ocs(RailId{1}).force_circuits(
      {{c.ocs_port(GpuId{1}, 0), c.ocs_port(GpuId{5}, 1)}});
  TimeNs done = -1;
  // Store-and-forward: NVLink hop (25MB at 300GB/s = 83.3us + 2us) then
  // rail hop (25MB at 200G = 1ms + 2us).
  c.transfer(GpuId{0}, GpuId{5}, 25'000'000, [&] { done = sim.now(); });
  sim.run();
  const TimeNs nvlink_time = transfer_time(25'000'000, Bandwidth::gbps(2400));
  EXPECT_EQ(done, nvlink_time + usecs(2) + msecs(1) + usecs(2));
  EXPECT_EQ(c.bytes_on_route(Cluster::Route::kPxn), 25'000'000);
}

TEST(ClusterTransfer, LoopbackCompletesImmediately) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kElectrical));
  TimeNs done = -1;
  c.transfer(GpuId{3}, GpuId{3}, 1'000'000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, 0);
}

TEST(ClusterTransfer, MgmtNetworkRequiresEnablement) {
  sim::Simulator sim;
  Cluster without(sim, base_config(FabricKind::kElectrical));
  EXPECT_FALSE(without.has_mgmt_network());
  EXPECT_THROW(without.transfer_mgmt(GpuId{0}, GpuId{4}, 100, nullptr),
               InvariantError);

  ClusterConfig cfg = base_config(FabricKind::kElectrical);
  cfg.mgmt_bw = Bandwidth::gbps(50);
  Cluster with(sim, cfg);
  EXPECT_TRUE(with.has_mgmt_network());
  TimeNs done = -1;
  with.transfer_mgmt(GpuId{0}, GpuId{4}, 6'250'000, [&] { done = sim.now(); });
  sim.run();
  // 6.25 MB at 50 Gb/s = 1 ms, plus the 10us end-to-end mgmt latency.
  EXPECT_EQ(done, msecs(1) + usecs(10));
  EXPECT_EQ(with.bytes_on_route(Cluster::Route::kMgmt), 6'250'000);
}

TEST(ClusterTransfer, ElectricalIncastSharesDownlink) {
  sim::Simulator sim;
  Cluster c(sim, base_config(FabricKind::kElectrical));
  // GPUs 1, 5, 9 all send to GPU 13 over rail 1: the destination downlink
  // is the bottleneck, so each gets ~133 Gb/s.
  int completions = 0;
  TimeNs last = 0;
  for (int src : {1, 5, 9}) {
    c.transfer(GpuId{src}, GpuId{13}, 50'000'000, [&] {
      ++completions;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(completions, 3);
  // 3 x 50MB through one 400G downlink = 3 ms (+latencies).
  EXPECT_GE(last, msecs(3));
  EXPECT_LE(last, msecs(3) + usecs(10));
}

}  // namespace
}  // namespace opus::net
