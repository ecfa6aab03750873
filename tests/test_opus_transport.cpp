// End-to-end tests of the Opus transport: circuits established before data
// moves, idempotent phases, step-synchronous peer-changing algorithms,
// management-network offload, and provisioning behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

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

// Two runs of one group in flight at once: each offloads by its own
// payload, and each undoes only the group activity it added, so the group's
// ports are free for another group once both finish.
TEST(OpusTransport, ConcurrentRunsOfOneGroupOffloadByTheirOwnPayload) {
  using Route = net::Cluster::Route;
  const Bytes small = kib(32);
  const Bytes large = kib(256);
  // A 4-rank ring AllReduce sends 2n(n-1) chunks of ceil(P/n).
  const auto wire = [](Bytes payload) {
    return 2 * 4 * 3 * ((payload + 3) / 4);
  };
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
    const auto cc =
        collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
    int done = 0;
    for (const Bytes payload : {small_first ? small : large,
                                small_first ? large : small}) {
      exec.run(g, cc, payload,
               [&](const CollectiveExecutor::Result&) { ++done; });
    }
    sim.run();
    ASSERT_EQ(done, 2);
    EXPECT_EQ(cluster.bytes_on_route(Route::kMgmt), wire(small));  // 196,608
    EXPECT_EQ(cluster.bytes_on_route(Route::kRail), wire(large));  // 1,572,864

    // Another group on the same ports, wired differently: it must preempt
    // the idle group's circuits.
    CommGroup other = g;
    other.id = GroupId{999};
    std::swap(other.ranks[1], other.ranks[2]);
    bool other_done = false;
    exec.run(other, cc, large,
             [&](const CollectiveExecutor::Result&) { other_done = true; });
    sim.run();
    EXPECT_TRUE(other_done)
        << "a finished run left its group active on the shared ports";
  }
}

// Records when each reconfiguration of an OCS starts.
class DarkStartRecorder final : public net::OcsObserver {
 public:
  void on_circuit_up(PortId, PortId, TimeNs) override {}
  void on_circuit_down(PortId, PortId, TimeNs) override {}
  void on_dark_interval(int, TimeNs start, TimeNs) override {
    starts.push_back(start);
  }
  std::vector<TimeNs> starts;
};

// Step-synchronous runs of one group must not interleave their per-step
// reconfigurations: the second run waits for the first one to finish.
TEST(OpusTransport, StepSynchronousRunsOfOneGroupReconfigureOneAfterAnother) {
  // Pairwise AllToAll on 8 nodes: 7 peers > 2 ports, one matching a step.
  const auto cc = collective::compile(CollectiveType::kAllToAll,
                                      Algorithm::kPairwise, 8);
  // Returns each run's result and the start of every reconfiguration of
  // rail 0, for `runs` runs launched on one group at the same instant.
  const auto launch = [&](int runs) {
    sim::Simulator sim;
    net::Cluster cluster(sim, photonic_cfg(8, 2, 2));
    DarkStartRecorder recorder;
    cluster.ocs(RailId{0}).set_observer(&recorder);
    OpusTransport transport(sim, cluster);
    CollectiveExecutor exec(sim, transport);
    const CommGroup g = rail_group(cluster, 0, 8);
    std::vector<CollectiveExecutor::Result> results;
    for (int i = 0; i < runs; ++i) {
      exec.run(g, cc, mib(1), [&](const CollectiveExecutor::Result& r) {
        results.push_back(r);
      });
    }
    sim.run();
    return std::pair{results, recorder.starts};
  };
  const auto [solo, solo_starts] = launch(1);
  const auto [results, starts] = launch(2);
  ASSERT_EQ(solo.size(), 1u);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].step_synchronous);
  EXPECT_TRUE(results[1].step_synchronous);
  EXPECT_EQ(results[0].end, solo[0].end) << "the first run ran as if alone";
  EXPECT_LT(results[0].end, results[1].end);
  ASSERT_GT(solo_starts.size(), 1u) << "the schedule re-wires per step";
  const auto before_first_end =
      std::count_if(starts.begin(), starts.end(),
                    [&](TimeNs t) { return t < results[0].end; });
  EXPECT_EQ(static_cast<std::size_t>(before_first_end), solo_starts.size())
      << "the second run re-wired the group's ports before the first ended";
  EXPECT_GT(starts.size(), solo_starts.size());
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
