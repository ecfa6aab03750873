// End-to-end tests of the Opus transport: circuits established before data
// moves, idempotent phases, step-synchronous peer-changing algorithms,
// management-network offload, and provisioning behaviour.
#include <gtest/gtest.h>

#include "collective/executor.h"
#include "collective/planner.h"
#include "collective/verifier.h"
#include "core/opus_transport.h"

namespace opus::core {
namespace {

using collective::Algorithm;
using collective::CollectiveExecutor;
using collective::CollectiveType;
using collective::CommGroup;
using collective::ParallelismDim;

net::ClusterConfig photonic_cfg(int nodes, int gpn, int ports,
                                TimeNs reconfig = msecs(10)) {
  net::ClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.gpus_per_node = gpn;
  cfg.nic_ports = ports;
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  cfg.ocs_reconfig_delay = reconfig;
  return cfg;
}

CommGroup rail_group(const net::Cluster& c, int local, int n_nodes,
                     ParallelismDim dim = ParallelismDim::kDP) {
  CommGroup g;
  g.id = GroupId{local + 100};
  g.dim = dim;
  for (int n = 0; n < n_nodes; ++n) g.ranks.push_back(c.gpu_at(NodeId{n}, local));
  g.name = "grp";
  return g;
}

TEST(OpusTransport, RingCollectiveWaitsForCircuitsThenRuns) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 2, 2));
  OpusTransport transport(sim, cluster);
  CollectiveExecutor exec(sim, transport);
  const CommGroup g = rail_group(cluster, 0, 4);
  const Bytes payload = mib(50);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  TimeNs start = -1, end = -1;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    start = r.start;
    end = r.end;
  });
  sim.run();
  ASSERT_GE(end, 0);
  // Duration includes one reconfiguration (10ms) + control RTT + transfers.
  EXPECT_GT(end - start, msecs(10));
  EXPECT_EQ(cluster.total_ocs_reconfigurations(), 1);
  EXPECT_EQ(transport.controller().stats().reconfigurations, 1);
}

TEST(OpusTransport, SecondSameGroupCollectiveHitsTheCircuitCache) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 2, 2));
  OpusTransport transport(sim, cluster);
  CollectiveExecutor exec(sim, transport);
  const CommGroup g = rail_group(cluster, 0, 4);
  const Bytes payload = mib(50);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  TimeNs first = -1, second = -1;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    first = r.duration();
    exec.run(g, cc, payload,
             [&](const CollectiveExecutor::Result& r2) {
      second = r2.duration();
    });
  });
  sim.run();
  EXPECT_GT(first, second);
  EXPECT_EQ(cluster.total_ocs_reconfigurations(), 1)
      << "same-group repeat must not reconfigure (Objective 2)";
  EXPECT_EQ(transport.controller().stats().satisfied_immediately, 1);
}

TEST(OpusTransport, ScaleUpCollectiveBypassesControlPlane) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(2, 4, 2));
  OpusTransport transport(sim, cluster);
  CollectiveExecutor exec(sim, transport);
  CommGroup g;
  g.id = GroupId{1};
  g.dim = ParallelismDim::kTP;
  g.ranks = {GpuId{0}, GpuId{1}, GpuId{2}, GpuId{3}};
  const Bytes payload = mib(10);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  bool done = false;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result&) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport.controller().stats().requests, 0);
  EXPECT_EQ(cluster.total_ocs_reconfigurations(), 0);
}

TEST(OpusTransport, PeerChangingAlgorithmReconfiguresPerStep) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(8, 2, 2));
  OpusTransport transport(sim, cluster);
  CollectiveExecutor exec(sim, transport);
  const CommGroup g = rail_group(cluster, 0, 8);
  // Recursive doubling on 8 nodes: 3 steps, 3 distinct peers > 2 ports (C1).
  const Bytes payload = mib(8);
  const auto cc = collective::compile(CollectiveType::kAllGather,
                                      Algorithm::kRecursiveDoubling, 8);
  EXPECT_TRUE(transport.needs_per_step_preparation(g, *cc, payload));
  bool done = false;
  CollectiveExecutor::Result result;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    done = true;
    result = r;
  });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.step_synchronous);
  EXPECT_EQ(cluster.total_ocs_reconfigurations(), cc->n_steps)
      << "every peer change pays a reconfiguration on circuits (C1)";
  EXPECT_GT(result.duration(), 3 * msecs(10));
}

TEST(OpusTransport, RingBeatsRecursiveDoublingOnCircuits) {
  // The C1 tradeoff, end to end: for a small payload the logarithmic
  // algorithm's per-step reconfigurations dwarf its latency advantage.
  auto run_with = [](Algorithm algo) {
    sim::Simulator sim;
    net::Cluster cluster(sim, photonic_cfg(8, 2, 2));
    OpusTransport transport(sim, cluster);
    CollectiveExecutor exec(sim, transport);
    const CommGroup g = rail_group(cluster, 0, 8);
    const Bytes payload = mib(1);
    const auto cc = collective::compile(CollectiveType::kAllGather, algo, 8);
    TimeNs duration = -1;
    exec.run(g, cc, payload,
             [&](const CollectiveExecutor::Result& r) {
      duration = r.duration();
    });
    sim.run();
    return duration;
  };
  EXPECT_LT(run_with(Algorithm::kRing),
            run_with(Algorithm::kRecursiveDoubling));
}

TEST(OpusTransport, MgmtOffloadSkipsCircuitsForSmallCollectives) {
  sim::Simulator sim;
  net::ClusterConfig ncfg = photonic_cfg(4, 2, 2);
  ncfg.mgmt_bw = Bandwidth::gbps(50);
  net::Cluster cluster(sim, ncfg);
  OpusTransport::Options opts;
  opts.mgmt_offload_threshold = kib(64);
  OpusTransport transport(sim, cluster, opts);
  CollectiveExecutor exec(sim, transport);
  const CommGroup g = rail_group(cluster, 0, 4);
  const Bytes payload = kib(4);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  bool done = false;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result&) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport.controller().stats().requests, 0);
  EXPECT_GT(cluster.bytes_on_route(net::Cluster::Route::kMgmt), 0);
  EXPECT_EQ(cluster.bytes_on_route(net::Cluster::Route::kRail), 0);
}

// One compiled shape serves runs of every payload, so the offload decision
// follows each run's payload, never the one the shape was compiled from.
TEST(OpusTransport, MgmtOffloadFollowsEachRunsPayload) {
  const Bytes small = kib(32);
  const Bytes large = kib(256);
  for (const bool small_first : {true, false}) {
    SCOPED_TRACE(small_first ? "small run first" : "large run first");
    sim::Simulator sim;
    net::ClusterConfig ncfg = photonic_cfg(4, 2, 2);
    ncfg.mgmt_bw = Bandwidth::gbps(50);
    net::Cluster cluster(sim, ncfg);
    OpusTransport::Options opts;
    opts.mgmt_offload_threshold = kib(64);
    OpusTransport transport(sim, cluster, opts);
    CollectiveExecutor exec(sim, transport);
    const CommGroup g = rail_group(cluster, 0, 4);
    const Bytes first = small_first ? small : large;
    const Bytes second = small_first ? large : small;
    // One compiled shape serves both runs, as in the engine.
    const auto cc =
        collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
    for (const Bytes payload : {first, second}) {
      using Route = net::Cluster::Route;
      const Bytes mgmt_before = cluster.bytes_on_route(Route::kMgmt);
      const Bytes rail_before = cluster.bytes_on_route(Route::kRail);
      bool done = false;
      exec.run(g, cc, payload,
               [&](const CollectiveExecutor::Result&) { done = true; });
      sim.run();
      ASSERT_TRUE(done);
      // A 4-rank ring AllReduce sends 2n(n-1) chunks of ceil(P/n).
      const Bytes wire = 2 * 4 * 3 * ((payload + 3) / 4);
      const bool offloaded = payload == small;
      EXPECT_EQ(cluster.bytes_on_route(Route::kMgmt) - mgmt_before,
                offloaded ? wire : 0)
          << "payload " << payload;
      EXPECT_EQ(cluster.bytes_on_route(Route::kRail) - rail_before,
                offloaded ? 0 : wire)
          << "payload " << payload;
    }
  }
}

TEST(OpusTransport, DifferentGroupsTimeMultiplexTheSamePorts) {
  // DP pair {node0,node1} then PP pair {node0,node2}: the second collective
  // must reconfigure node0's ports after the first finishes.
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 2, 2));
  OpusTransport transport(sim, cluster);
  CollectiveExecutor exec(sim, transport);
  CommGroup dp;
  dp.id = GroupId{1};
  dp.dim = ParallelismDim::kDP;
  dp.ranks = {cluster.gpu_at(NodeId{0}, 0), cluster.gpu_at(NodeId{1}, 0)};
  CommGroup pp;
  pp.id = GroupId{2};
  pp.dim = ParallelismDim::kPP;
  pp.ranks = {cluster.gpu_at(NodeId{0}, 0), cluster.gpu_at(NodeId{2}, 0)};
  const Bytes payload = mib(25);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 2);
  int completions = 0;
  exec.run(dp, cc, payload, [&](const CollectiveExecutor::Result&) {
    ++completions;
    exec.run(pp, cc, payload,
             [&](const CollectiveExecutor::Result&) { ++completions; });
  });
  sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(cluster.total_ocs_reconfigurations(), 2);
}

TEST(OpusTransport, ProvisioningSpeculatesAfterProfiledPhase) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(4, 2, 2));
  OpusTransport::Options opts;
  opts.provisioning = true;
  OpusTransport transport(sim, cluster, opts);
  CollectiveExecutor exec(sim, transport);
  CommGroup dp = rail_group(cluster, 0, 4, ParallelismDim::kDP);
  CommGroup pp = rail_group(cluster, 1, 4, ParallelismDim::kPP);
  pp.id = GroupId{200};
  const Bytes payload = mib(25);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);

  auto run_iteration = [&](int index, std::function<void()> next) {
    transport.iteration_started(index);
    exec.run(dp, cc, payload,
             [&, next](const CollectiveExecutor::Result&) {
      exec.run(pp, cc, payload,
               [next](const CollectiveExecutor::Result&) { next(); });
    });
  };
  bool all_done = false;
  run_iteration(0, [&] { run_iteration(1, [&] { all_done = true; }); });
  sim.run();
  ASSERT_TRUE(all_done);
  EXPECT_EQ(transport.shim().profile().size(), 2u);  // DP phase, PP phase
  EXPECT_GT(transport.shim().speculative_requests(), 0);
  EXPECT_EQ(transport.shim().mispredictions(), 0);
}

TEST(OpusTransport, CollectiveDataIsVerifiableEndToEnd) {
  // The shape that actually ran on circuits satisfies its postcondition.
  EXPECT_TRUE(
      collective::verify_shape(CollectiveType::kAllReduce, Algorithm::kRing, 4)
          .ok);
}

TEST(OpusTransport, RequiresPhotonicCluster) {
  sim::Simulator sim;
  net::ClusterConfig cfg = photonic_cfg(2, 2, 2);
  cfg.fabric = net::FabricKind::kElectrical;
  net::Cluster cluster(sim, cfg);
  EXPECT_THROW(OpusTransport(sim, cluster), InvariantError);
}

}  // namespace
}  // namespace opus::core
