// Tests for the traffic-oblivious rotor transport (the §3 contrast case).
#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <utility>

#include "collective/executor.h"
#include "collective/planner.h"
#include "core/experiment.h"
#include "core/rotor.h"

namespace opus::core {
namespace {

using collective::Algorithm;
using collective::CollectiveExecutor;
using collective::CollectiveType;
using collective::CommGroup;

net::ClusterConfig rotor_cfg(int nodes) {
  net::ClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.gpus_per_node = 2;
  cfg.nic_ports = 2;
  cfg.fabric = net::FabricKind::kRotor;
  // rotor_port_spread stays 1: these tests pin the classic single-matching
  // rotor (every port follows one matching; sends wait for their round).
  cfg.ocs_reconfig_delay = usecs(10);  // RotorNet-class switching
  return cfg;
}

TEST(Rotor, MatchingsEventuallyServeEveryPair) {
  // Behavioral coverage: a send between every node pair completes, because
  // the circle-method matchings connect each pair once per cycle. (The
  // rotor freezes when idle, so coverage is observed through traffic.)
  sim::Simulator sim;
  net::Cluster cluster(sim, rotor_cfg(6));
  RotorTransport::Options opts;
  opts.slot_time = usecs(100);
  RotorTransport rotor(sim, cluster, opts);
  int completed = 0;
  int issued = 0;
  collective::Run run;
  run.group.id = GroupId{1};
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      ++issued;
      rotor.send(run, cluster.gpu_at(NodeId{a}, 0),
                 cluster.gpu_at(NodeId{b}, 0), 1000, [&] { ++completed; });
    }
  }
  sim.run();
  EXPECT_EQ(completed, issued);
  EXPECT_GE(rotor.rotations(), 4) << "needed most of a cycle";
  // Every node pair was connected, yet each OCS port owns one fluid link:
  // at most 2 rails x 6 nodes x 2 ports.
  EXPECT_LE(cluster.network().link_count(), 24u);
}

TEST(Rotor, OddNodeCountGivesByes) {
  sim::Simulator sim;
  net::Cluster cluster(sim, rotor_cfg(5));
  RotorTransport rotor(sim, cluster);
  // At any instant, exactly 2 of the 5 nodes' pairs are connected (one
  // node idles with the virtual bye).
  int connected = 0;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      if (cluster.rail_path_available(cluster.gpu_at(NodeId{a}, 0),
                                      cluster.gpu_at(NodeId{b}, 0))) {
        ++connected;
      }
    }
  }
  EXPECT_EQ(connected, 2);
}

TEST(Rotor, SendWaitsForItsMatching) {
  sim::Simulator sim;
  net::Cluster cluster(sim, rotor_cfg(4));
  RotorTransport::Options opts;
  opts.slot_time = msecs(1);
  RotorTransport rotor(sim, cluster, opts);
  // Find a pair NOT in the current (round 0) matching: circle method for 4
  // nodes, round 0: (0,3), (1,2). So (0,1) must wait.
  const GpuId src = cluster.gpu_at(NodeId{0}, 0);
  const GpuId dst = cluster.gpu_at(NodeId{1}, 0);
  ASSERT_FALSE(cluster.rail_path_available(src, dst));
  collective::Run run;
  run.group.id = GroupId{1};
  run.group.ranks = {src, dst};
  TimeNs done = -1;
  rotor.send(run, src, dst, 1000, [&] { done = sim.now(); });
  EXPECT_EQ(rotor.deferred_sends(), 1);
  sim.run_until(msecs(10));
  ASSERT_GT(done, 0);
  EXPECT_GT(done, msecs(1)) << "had to wait for at least one rotation";
}

TEST(Rotor, ConnectedPairSendsImmediately) {
  sim::Simulator sim;
  net::Cluster cluster(sim, rotor_cfg(4));
  RotorTransport rotor(sim, cluster);
  const GpuId src = cluster.gpu_at(NodeId{0}, 0);
  const GpuId dst = cluster.gpu_at(NodeId{3}, 0);  // round-0 matching
  ASSERT_TRUE(cluster.rail_path_available(src, dst));
  collective::Run run;
  run.group.id = GroupId{1};
  run.group.ranks = {src, dst};
  TimeNs done = -1;
  rotor.send(run, src, dst, 25'000'000, [&] { done = sim.now(); });
  sim.run_until(msecs(5));
  // 25MB at 2x200G striped = 0.5ms + latency, inside the first slot.
  EXPECT_GT(done, 0);
  EXPECT_LT(done, msecs(1));
  EXPECT_EQ(rotor.deferred_sends(), 0);
}

TEST(Rotor, RotationWaitsForInFlightTransfers) {
  sim::Simulator sim;
  net::Cluster cluster(sim, rotor_cfg(4));
  RotorTransport::Options opts;
  opts.slot_time = msecs(1);
  RotorTransport rotor(sim, cluster, opts);
  const GpuId src = cluster.gpu_at(NodeId{0}, 0);
  const GpuId dst = cluster.gpu_at(NodeId{3}, 0);
  collective::Run run;
  run.group.id = GroupId{1};
  run.group.ranks = {src, dst};
  // 200 MB at 400G = 4 ms: spans several slots; the rotor must hold the
  // matching (guard band) instead of tearing the live circuit.
  TimeNs done = -1;
  rotor.send(run, src, dst, 200'000'000, [&] { done = sim.now(); });
  sim.run_until(msecs(20));
  EXPECT_GE(done, msecs(4));
  EXPECT_EQ(cluster.bytes_on_route(net::Cluster::Route::kRail), 200'000'000);
}

TEST(Rotor, RingAllReduceCompletesButSlowly) {
  // The §3 claim: oblivious rotation serves ML collectives poorly. A ring
  // AllReduce's neighbour transfers only run when the rotor happens to
  // connect them, so the collective stretches across many slots.
  const Bytes payload = mib(8);
  const auto cc =
      collective::compile(CollectiveType::kAllReduce, Algorithm::kRing, 4);
  TimeNs rotor_time = -1;
  {
    sim::Simulator sim;
    net::Cluster cluster(sim, rotor_cfg(4));
    RotorTransport::Options opts;
    opts.slot_time = msecs(1);
    RotorTransport rotor(sim, cluster, opts);
    CollectiveExecutor exec(sim, rotor);
    CommGroup g;
    g.id = GroupId{1};
    g.dim = collective::ParallelismDim::kDP;
    for (int n = 0; n < 4; ++n) g.ranks.push_back(cluster.gpu_at(NodeId{n}, 0));
    exec.run(g, cc, payload,
             [&](const CollectiveExecutor::Result& r) {
      rotor_time = r.duration();
    });
    sim.run();
  }
  ASSERT_GT(rotor_time, 0);
  // Each of the 6 pipelined steps needs both ring directions, which live
  // in different matchings: the collective spans multiple full cycles.
  EXPECT_GT(rotor_time, msecs(3));
}

TEST(Rotor, RequiresRotorFabricCluster) {
  // The transport needs the cluster's pre-wired round-0 matchings and port
  // spread, so any other fabric (even photonic) is rejected.
  sim::Simulator sim;
  net::ClusterConfig cfg = rotor_cfg(4);
  cfg.fabric = net::FabricKind::kElectrical;
  net::Cluster electrical(sim, cfg);
  EXPECT_THROW(RotorTransport(sim, electrical), InvariantError);
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  net::Cluster opus(sim, cfg);
  EXPECT_THROW(RotorTransport(sim, opus), InvariantError);
}

TEST(Rotor, PortSpreadEnablesTwoHopForwarding) {
  // RotorNet-style spread: port p follows matching round+p, so the live
  // union of matchings is connected and a non-matched pair forwards over
  // two live hops instead of waiting a rotation.
  sim::Simulator sim;
  net::ClusterConfig cfg = rotor_cfg(4);
  cfg.rotor_port_spread = 2;
  net::Cluster cluster(sim, cfg);
  RotorTransport rotor(sim, cluster);
  // Round 0 matchings for 4 nodes: port 0 carries round 0 = (0,3),(1,2)
  // and port 1 carries round 1 = (1,3),(0,2). Every pair is within two
  // live hops of every other.
  int reachable = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      if (cluster.rail_path_available(cluster.gpu_at(NodeId{a}, 0),
                                      cluster.gpu_at(NodeId{b}, 0))) {
        ++reachable;
      }
    }
  }
  EXPECT_EQ(reachable, 6);
  // (0,1) is in neither live matching: the send completes without a single
  // rotation, paying the multi-hop forwarding tax instead.
  collective::Run run;
  run.group.id = GroupId{1};
  const GpuId src = cluster.gpu_at(NodeId{0}, 0);
  const GpuId dst = cluster.gpu_at(NodeId{1}, 0);
  std::vector<GpuId> path;
  cluster.rail_multihop_path(src, dst, path);
  ASSERT_EQ(path.size(), 3u);
  TimeNs done = -1;
  rotor.send(run, src, dst, 1000, [&] { done = sim.now(); });
  sim.run_until(usecs(500));
  EXPECT_GT(done, 0);
  EXPECT_EQ(rotor.deferred_sends(), 0);
}

TEST(Rotor, TwoRailRotationTallyMatchesSummedOcsStats) {
  // Aggregation regression: rotations_ counts one per rail rotation, and
  // every counted rotation must be exactly one state-changing OCS
  // reconfiguration — so with 2 rails the summed per-rail OCS stats must
  // equal the transport's tally (no double counting, no missed rail), and
  // the summed dark time must be reconfig_delay x touched ports per
  // reconfiguration.
  core::ExperimentConfig cfg;
  cfg.model = workload::ModelConfig::test_tiny();
  cfg.parallelism.tp = 2;  // 2 GPUs/node -> 2 rails
  cfg.parallelism.dp = 6;
  cfg.gpus_per_node = 2;
  cfg.fabric = net::FabricKind::kRotor;
  cfg.ocs_reconfig_delay = usecs(10);
  cfg.rotor_slot_time = usecs(200);
  cfg.iterations = 2;
  const core::ExperimentResult result = core::run_experiment(cfg);
  ASSERT_GT(result.rotor_rotations, 0);
  // run_experiment itself asserts the invariant; pin it here independently
  // so a future refactor of the result plumbing cannot drop it.
  EXPECT_EQ(result.ocs_reconfigurations, result.rotor_rotations);
  EXPECT_GT(result.ocs_dark_time, 0);
  EXPECT_EQ(result.ocs_dark_time % usecs(10), 0)
      << "dark time must be whole reconfigurations' worth";
}

TEST(Rotor, OneRoundSpanNeverCountsPhantomRotations) {
  // A 2-node rotor has a single matching: "rotating" re-requests identical
  // circuits, which the OCS reports as satisfied without counting a
  // reconfiguration. The transport must count nothing either — otherwise
  // rotations_ and the OCS stats diverge (the aggregation bug this pins).
  sim::Simulator sim;
  net::Cluster cluster(sim, rotor_cfg(2));
  RotorTransport::Options opts;
  opts.slot_time = usecs(50);
  RotorTransport rotor(sim, cluster, opts);
  collective::Run run;
  run.group.id = GroupId{1};
  int done = 0;
  // Enough traffic to outlast several slots.
  for (int i = 0; i < 4; ++i) {
    rotor.send(run, cluster.gpu_at(NodeId{0}, 0), cluster.gpu_at(NodeId{1}, 0),
               25'000'000, [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(rotor.rotations(), 0);
  EXPECT_EQ(cluster.total_ocs_reconfigurations(), 0);
  EXPECT_EQ(cluster.total_ocs_dark_time(), 0);
}

TEST(Rotor, OneRoundSpanRewiresItsMatchingAfterAPortRepair) {
  // A port failure tears the 2-node span's only circuit mid-transfer, and
  // the repair does not restore it: the owner must re-wire. The one-round
  // rotor re-requests its matching, so the rescued transfer and the send
  // queued behind the failure both deliver and the event queue drains.
  sim::Simulator sim;
  net::ClusterConfig cfg = rotor_cfg(2);
  cfg.nic_ports = 1;  // the failed port is the pair's only path
  net::Cluster cluster(sim, cfg);
  cluster.set_fault_tolerant(true);
  RotorTransport::Options opts;
  opts.slot_time = usecs(50);
  RotorTransport rotor(sim, cluster, opts);
  collective::Run run;
  run.group.id = GroupId{1};
  const GpuId src = cluster.gpu_at(NodeId{0}, 0);
  const GpuId dst = cluster.gpu_at(NodeId{1}, 0);
  int done = 0;
  // 25 MB at 400 Gb/s = 0.5 ms: the failure lands mid-transfer.
  rotor.send(run, src, dst, 25'000'000, [&] { ++done; });
  sim.schedule_at(usecs(100), [&] {
    cluster.fail_nic_port(NodeId{0}, 0, 0);
    rotor.poke();
    rotor.send(run, src, dst, 1'000'000, [&] { ++done; });
  });
  sim.schedule_at(msecs(2), [&] {
    cluster.repair_nic_port(NodeId{0}, 0, 0);
    rotor.poke();
  });
  // Bounded first, so a rotor that never re-wires fails here instead of
  // re-arming its slot timer forever.
  sim.run_until(secs(1));
  ASSERT_EQ(sim.pending_events(), 0u) << "the slot timer must go idle";
  sim.run();
  EXPECT_EQ(done, 2) << "no send may stay waiting";
  EXPECT_EQ(cluster.parked_transfer_count(), 0);
  EXPECT_EQ(rotor.rotations(), 0) << "a one-round span never rotates";
  EXPECT_EQ(cluster.ocs(RailId{0}).stats().reconfigurations, 1)
      << "exactly one replay re-wires the torn circuit";
  EXPECT_TRUE(cluster.ocs(RailId{0}).connected(cluster.ocs_port(src, 0),
                                               cluster.ocs_port(dst, 0)));
}

TEST(Rotor, EveryQueuedSendEventuallyLaunches) {
  // Liveness audit of the rail state machine: sends issued in every rail
  // state — live, frozen-idle (the slot clock must re-arm), and
  // mid-rotation/drain — must all launch once their matching comes around.
  // A stranded PendingSend would leave `completed < issued` with the queue
  // drained, which is exactly what this pins against.
  sim::Simulator sim;
  net::Cluster cluster(sim, rotor_cfg(6));
  RotorTransport::Options opts;
  opts.slot_time = usecs(100);
  RotorTransport rotor(sim, cluster, opts);
  collective::Run run;
  run.group.id = GroupId{1};
  int completed = 0;
  int issued = 0;
  const auto blast = [&] {
    for (int a = 0; a < 6; ++a) {
      for (int b = 0; b < 6; ++b) {
        if (a == b) continue;
        ++issued;
        rotor.send(run, cluster.gpu_at(NodeId{a}, a % 2),
                   cluster.gpu_at(NodeId{b}, a % 2), 50'000,
                   [&] { ++completed; });
      }
    }
  };
  blast();    // live rails: immediate launches mixed with deferrals
  sim.run();  // drain to idle: the rotor freezes on its current matchings
  EXPECT_EQ(completed, issued);
  blast();  // frozen rails must wake up for new work
  // Inject at awkward instants: partway into a slot and inside the dark
  // window right after a slot boundary (slot 100us, reconfig 10us).
  sim.run_until(sim.now() + usecs(30));
  blast();
  sim.run_until(sim.now() + usecs(75));  // lands past the next slot end
  blast();
  sim.run();
  EXPECT_EQ(completed, issued) << "a queued send never launched";
  EXPECT_GT(rotor.deferred_sends(), 0) << "test never exercised the queue";
}

TEST(Rotor, RailDarkAccountingInvariantHoldsAfterRotations) {
  // After a real rotor workload (many rotations), each rail switch's
  // per-port dark tallies must still sum to its aggregate counter.
  sim::Simulator sim;
  net::Cluster cluster(sim, rotor_cfg(6));
  RotorTransport::Options opts;
  opts.slot_time = usecs(100);
  RotorTransport rotor(sim, cluster, opts);
  collective::Run run;
  run.group.id = GroupId{1};
  int completed = 0;
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      if (a == b) continue;
      rotor.send(run, cluster.gpu_at(NodeId{a}, 0),
                 cluster.gpu_at(NodeId{b}, 0), 100'000, [&] { ++completed; });
    }
  }
  sim.run();
  ASSERT_EQ(completed, 30);
  ASSERT_GT(rotor.rotations(), 0);
  for (int rail = 0; rail < cluster.n_rails(); ++rail) {
    const auto& sw = cluster.ocs(RailId{rail});
    TimeNs sum = 0;
    for (int p = 0; p < sw.n_ports(); ++p) {
      sum += sw.port_dark_time(PortId{p});
    }
    EXPECT_EQ(sum, sw.stats().cumulative_port_dark_ns)
        << "per-port dark breakdown diverged on rail " << rail;
  }
}

TEST(Rotor, SixtyFourBitTalliesSurviveResultPlumbing) {
  // 4k-node rotor runs push rotations (and circuits-per-rotation multiples)
  // past 2^31; pin every stage of the reporting chain at 64 bits so a
  // refactor cannot narrow it back to int.
  static_assert(std::is_same_v<decltype(std::declval<const RotorTransport&>()
                                            .rotations()),
                               std::int64_t>);
  static_assert(std::is_same_v<decltype(std::declval<const RotorTransport&>()
                                            .deferred_sends()),
                               std::int64_t>);
  static_assert(std::is_same_v<decltype(std::declval<const net::Cluster&>()
                                            .total_ocs_reconfigurations()),
                               std::int64_t>);
  static_assert(
      std::is_same_v<decltype(net::OpticalCircuitSwitch::Stats::
                                  reconfigurations),
                     std::int64_t>);
  static_assert(
      std::is_same_v<decltype(net::OpticalCircuitSwitch::Stats::
                                  circuits_established),
                     std::int64_t>);
  static_assert(
      std::is_same_v<decltype(net::OpticalCircuitSwitch::Stats::links_retired),
                     std::int64_t>);
  static_assert(std::is_same_v<decltype(ExperimentResult::rotor_rotations),
                               std::int64_t>);
  static_assert(
      std::is_same_v<decltype(ExperimentResult::rotor_deferred_sends),
                     std::int64_t>);
  static_assert(
      std::is_same_v<decltype(ExperimentResult::ocs_reconfigurations),
                     std::int64_t>);
  // Runtime round-trip: a value past the 32-bit range survives the result
  // structs unclipped.
  const std::int64_t big = (std::int64_t{1} << 40) + 7;
  ExperimentResult result;
  result.ocs_reconfigurations = big;
  result.rotor_rotations = big;
  result.rotor_deferred_sends = big + 1;
  EXPECT_EQ(result.ocs_reconfigurations, big);
  EXPECT_EQ(result.rotor_rotations, big);
  EXPECT_EQ(result.rotor_deferred_sends, big + 1);
}

}  // namespace
}  // namespace opus::core
