// Unit tests for the max-min fair fluid flow network, including the
// once-per-instant solve batching.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "config/presets.h"
#include "core/experiment.h"
#include "net/cluster.h"
#include "net/fluid.h"
#include "sim/simulator.h"

namespace opus::net {
namespace {

constexpr Bandwidth k100G = Bandwidth::gbps(100);

class FluidTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  FluidNetwork net{sim};
};

TEST_F(FluidTest, SingleFlowDrainsAtLinkRate) {
  const LinkId l = net.add_link(k100G);
  TimeNs done = -1;
  // 125 MB at 100 Gb/s = 12.5 GB/s -> 10 ms.
  net.start_flow({l}, 125'000'000, 0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, msecs(10));
}

TEST_F(FluidTest, ExtraLatencyDelaysCompletionOnly) {
  const LinkId l = net.add_link(k100G);
  TimeNs done = -1;
  net.start_flow({l}, 125'000'000, usecs(5), [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, msecs(10) + usecs(5));
}

TEST_F(FluidTest, ZeroByteFlowCompletesAfterLatencyOnly) {
  TimeNs done = -1;
  net.start_flow({}, 0, usecs(7), [&] { done = sim.now(); });
  sim.run();
  EXPECT_EQ(done, usecs(7));
  EXPECT_EQ(net.completed_flow_count(), 1u);
}

TEST_F(FluidTest, TwoFlowsShareALinkFairly) {
  const LinkId l = net.add_link(k100G);
  TimeNs done_a = -1;
  TimeNs done_b = -1;
  net.start_flow({l}, 125'000'000, 0, [&] { done_a = sim.now(); });
  net.start_flow({l}, 125'000'000, 0, [&] { done_b = sim.now(); });
  sim.run();
  // Equal flows sharing equally finish together at 2x the solo time.
  EXPECT_EQ(done_a, msecs(20));
  EXPECT_EQ(done_b, msecs(20));
}

TEST_F(FluidTest, ShortFlowFinishesThenLongFlowSpeedsUp) {
  const LinkId l = net.add_link(k100G);
  TimeNs done_short = -1;
  TimeNs done_long = -1;
  net.start_flow({l}, 62'500'000, 0, [&] { done_short = sim.now(); });   // 5ms solo
  net.start_flow({l}, 125'000'000, 0, [&] { done_long = sim.now(); });  // 10ms solo
  sim.run();
  // Shared till the short one drains at t=10ms (5ms of work at half rate),
  // then the long one runs at full rate: 62.5MB left -> +5ms => 15ms? No:
  // at t=10ms the long flow has moved 62.5MB, 62.5MB left at full rate
  // -> finishes at 15ms.
  EXPECT_EQ(done_short, msecs(10));
  EXPECT_EQ(done_long, msecs(15));
}

TEST_F(FluidTest, ParkingLotGivesMaxMinRates) {
  // Classic parking lot: flow A crosses links 1 and 2; flow B crosses only
  // link 1; flow C crosses only link 2. Max-min: every flow gets 50.
  const LinkId l1 = net.add_link(k100G);
  const LinkId l2 = net.add_link(k100G);
  const FlowId a = net.start_flow({l1, l2}, 1'000'000'000, 0, nullptr);
  const FlowId b = net.start_flow({l1}, 1'000'000'000, 0, nullptr);
  const FlowId c = net.start_flow({l2}, 1'000'000'000, 0, nullptr);
  EXPECT_NEAR(net.flow_rate_bps(a), 50e9, 1e6);
  EXPECT_NEAR(net.flow_rate_bps(b), 50e9, 1e6);
  EXPECT_NEAR(net.flow_rate_bps(c), 50e9, 1e6);
}

TEST_F(FluidTest, UnevenBottlenecksWaterfillCorrectly) {
  // Link 1 at 100G carries flows A,B; link 2 at 30G carries flows B,C...
  // B is bottlenecked by link2: B=C=15G; A then gets the rest of link1: 85G.
  const LinkId l1 = net.add_link(k100G);
  const LinkId l2 = net.add_link(Bandwidth::gbps(30));
  const FlowId a = net.start_flow({l1}, 1'000'000'000, 0, nullptr);
  const FlowId b = net.start_flow({l1, l2}, 1'000'000'000, 0, nullptr);
  const FlowId c = net.start_flow({l2}, 1'000'000'000, 0, nullptr);
  EXPECT_NEAR(net.flow_rate_bps(b), 15e9, 1e6);
  EXPECT_NEAR(net.flow_rate_bps(c), 15e9, 1e6);
  EXPECT_NEAR(net.flow_rate_bps(a), 85e9, 1e6);
}

TEST_F(FluidTest, AbortFlowFreesBandwidth) {
  const LinkId l = net.add_link(k100G);
  TimeNs done = -1;
  bool aborted_fired = false;
  const FlowId victim =
      net.start_flow({l}, 1'000'000'000, 0, [&] { aborted_fired = true; });
  net.start_flow({l}, 125'000'000, 0, [&] { done = sim.now(); });
  sim.run_until(msecs(2));
  EXPECT_TRUE(net.abort_flow(victim));
  sim.run();
  EXPECT_FALSE(aborted_fired);
  // 2ms shared (6.25MB+6.25MB... survivor moved 12.5MB), then full rate for
  // the remaining 112.5MB -> 9ms more => 11ms total.
  EXPECT_EQ(done, msecs(11));
}

TEST_F(FluidTest, AbortUnknownFlowReturnsFalse) {
  EXPECT_FALSE(net.abort_flow(FlowId{123}));
}

TEST_F(FluidTest, CapacityDropStallsAndRestores) {
  const LinkId l = net.add_link(k100G);
  TimeNs done = -1;
  net.start_flow({l}, 125'000'000, 0, [&] { done = sim.now(); });
  sim.run_until(msecs(5));  // half done
  net.set_capacity(l, Bandwidth::gbps(0));  // failure injection: link dark
  sim.run_until(msecs(50));
  EXPECT_EQ(done, -1) << "flow must stall on a zero-capacity link";
  net.set_capacity(l, k100G);
  sim.run();
  // 62.5MB remained; 45ms dark; finishes 5ms after restore at t=55ms.
  EXPECT_EQ(done, msecs(55));
}

TEST_F(FluidTest, FlowRemainingTracksProgress) {
  const LinkId l = net.add_link(k100G);
  const FlowId f = net.start_flow({l}, 125'000'000, 0, nullptr);
  sim.run_until(msecs(4));
  EXPECT_NEAR(static_cast<double>(net.flow_remaining(f)), 75'000'000.0, 1e4);
}

TEST_F(FluidTest, CompletionCallbackCanStartNewFlow) {
  const LinkId l = net.add_link(k100G);
  TimeNs second_done = -1;
  net.start_flow({l}, 125'000'000, 0, [&] {
    net.start_flow({l}, 125'000'000, 0, [&] { second_done = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(second_done, msecs(20));
}

TEST_F(FluidTest, DuplicateLinkInPathThrows) {
  const LinkId l = net.add_link(k100G);
  EXPECT_THROW(net.start_flow({l, l}, 100, 0, nullptr), InvariantError);
}

TEST_F(FluidTest, NegativeBytesThrow) {
  const LinkId l = net.add_link(k100G);
  EXPECT_THROW(net.start_flow({l}, -1, 0, nullptr), InvariantError);
}

TEST_F(FluidTest, ActiveFlowsOnCountsPathMembership) {
  const LinkId l1 = net.add_link(k100G);
  const LinkId l2 = net.add_link(k100G);
  net.start_flow({l1, l2}, 1'000'000'000, 0, nullptr);
  net.start_flow({l1}, 1'000'000'000, 0, nullptr);
  EXPECT_EQ(net.active_flows_on(l1), 2);
  EXPECT_EQ(net.active_flows_on(l2), 1);
}

// ---------------------------------------------------------------------------
// Batched solving: one max-min solve per simulated instant.
// ---------------------------------------------------------------------------

TEST_F(FluidTest, FlowStartsAtOneInstantCostOneSolve) {
  // A fan-out at t=1us: 8 flows on 4 links, two per link, plus one flow
  // crossing links 0 and 1. Max-min: link 0 and 1 carry three flows each
  // (100/3 G); links 2 and 3 carry two (50 G).
  std::vector<LinkId> links;
  for (int i = 0; i < 4; ++i) links.push_back(net.add_link(k100G));
  std::vector<FlowId> flows;
  sim.schedule_at(usecs(1), [&] {
    for (int i = 0; i < 8; ++i) {
      flows.push_back(net.start_flow({links[static_cast<std::size_t>(i % 4)]},
                                     1'000'000'000, 0, nullptr));
    }
    flows.push_back(net.start_flow({links[0], links[1]}, 1'000'000'000, 0,
                                   nullptr));
  });
  const std::int64_t before = net.solve_count();
  sim.run_until(usecs(1));
  EXPECT_EQ(net.solve_count(), before + 1) << "one solve for nine flow starts";
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(net.flow_rate_bps(flows[static_cast<std::size_t>(i)]),
                i % 4 < 2 ? 100e9 / 3 : 50e9, 1e6)
        << "flow " << i;
  }
  EXPECT_NEAR(net.flow_rate_bps(flows[8]), 100e9 / 3, 1e6);
  EXPECT_EQ(net.solve_count(), before + 1) << "reads after the flush are free";
}

TEST_F(FluidTest, MidInstantReadsReturnSettledRates) {
  const LinkId l = net.add_link(k100G);
  double first_alone = -1.0;
  double first_shared = -1.0;
  double link_bps = -1.0;
  sim.schedule_at(usecs(3), [&] {
    const FlowId a = net.start_flow({l}, 1'000'000'000, 0, nullptr);
    first_alone = net.flow_rate_bps(a);
    net.start_flow({l}, 1'000'000'000, 0, nullptr);
    first_shared = net.flow_rate_bps(a);
    link_bps = net.allocated_bps(l);
  });
  sim.run_until(usecs(3));
  EXPECT_NEAR(first_alone, 100e9, 1e6);
  EXPECT_NEAR(first_shared, 50e9, 1e6);
  EXPECT_NEAR(link_bps, 100e9, 1e6);
}

TEST(FluidLifetime, DestroyWithPendingFlushThenRunSimulator) {
  sim::Simulator sim;
  bool fired = false;
  {
    FluidNetwork net(sim);
    const LinkId l = net.add_link(k100G);
    net.start_flow({l}, 125'000'000, 0, [&] { fired = true; });
    sim.run_until(usecs(1));  // a solve schedules the completion event
    net.start_flow({l}, 125'000'000, 0, [&] { fired = true; });
  }  // destroyed with the second flow's flush still pending
  sim.schedule_at(usecs(5), [] {});
  EXPECT_EQ(sim.run(), 1u) << "the network's completion event died with it";
  EXPECT_FALSE(fired);
}

TEST(FluidBatching, Table3OpusPresetSolvesFarFewerTimesThanFlowsComplete) {
  // Regression guard for batching on the paper's system: each collective
  // step launches its fan-out at one instant, so solves must track
  // instants, not flows (one solve per flow start gives a ratio above 1).
  // A step solves twice (at launch and at drain), so the 10x bar needs a
  // fan-out above 20 flows: the 8-node preset (2-8 flows per step) sits
  // near 1 solve per 2 flows; the 64-node one (32-way data parallel) is the
  // smallest Table-3 preset that clears it.
  const core::ExperimentConfig* cfg =
      config::find_experiment_preset("table3_opus_64");
  ASSERT_NE(cfg, nullptr);
  sim::Simulator sim;
  Cluster cluster(sim, core::cluster_config_for(*cfg));
  core::Tenant tenant = core::build_tenant(
      sim, cluster, *cfg, NodeSpan{0, cluster.n_nodes()});
  tenant.engine->run_to_completion(tenant.dag, cfg->iterations);
  const FluidNetwork& net = cluster.network();
  ASSERT_GT(net.completed_flow_count(), 0u);
  EXPECT_LT(static_cast<std::uint64_t>(net.solve_count()),
            net.completed_flow_count() / 10)
      << net.solve_count() << " solves for " << net.completed_flow_count()
      << " flows";
}

TEST(FluidBatching, Table3OpusPresetFiresFarFewerEventsThanFlowsComplete) {
  // A collective step's flows drain at one instant with one latency, so
  // their deliveries share one simulator event. One event per delivered
  // flow puts the ratio above 1; the 64-node preset's 32-way steps keep it
  // far below a quarter.
  const core::ExperimentConfig* cfg =
      config::find_experiment_preset("table3_opus_64");
  ASSERT_NE(cfg, nullptr);
  sim::Simulator sim;
  Cluster cluster(sim, core::cluster_config_for(*cfg));
  core::Tenant tenant = core::build_tenant(
      sim, cluster, *cfg, NodeSpan{0, cluster.n_nodes()});
  tenant.engine->run_to_completion(tenant.dag, cfg->iterations);
  const FluidNetwork& net = cluster.network();
  ASSERT_GT(net.completed_flow_count(), 0u);
  EXPECT_LT(sim.events_fired(), net.completed_flow_count() / 4)
      << sim.events_fired() << " events for " << net.completed_flow_count()
      << " flows";
}

// ---------------------------------------------------------------------------
// Delivery order: drained flows reach their callbacks after extra_latency,
// in drain order, interleaved with other events exactly as the simulator's
// (time, schedule order) rule would interleave one event per flow.
// ---------------------------------------------------------------------------

class FluidDelivery : public ::testing::Test {
 protected:
  /// One callback or event, as it ran.
  struct Entry {
    char who;
    TimeNs at;
    std::uint64_t completed;  ///< completed_flow_count() inside the call
  };

  /// A callback that logs `who`.
  std::function<void()> logger(char who) {
    return [this, who] {
      log.push_back({who, sim.now(), net.completed_flow_count()});
    };
  }

  /// A fresh 100 Gb/s link per flow, so equal flows drain together.
  LinkId link() { return net.add_link(k100G); }

  /// The logged names, in order.
  std::string order() const {
    std::string s;
    for (const Entry& e : log) s += e.who;
    return s;
  }

  sim::Simulator sim;
  FluidNetwork net{sim};
  std::vector<Entry> log;
};

// 125 MB at 100 Gb/s drains in 10 ms.
constexpr Bytes kTenMs = 125'000'000;
constexpr TimeNs kDrain = msecs(10);

TEST_F(FluidDelivery, EqualFlowsDeliverInSlotOrderCountingEachCall) {
  for (int i = 0; i < 8; ++i) {
    net.start_flow({link()}, kTenMs, usecs(3),
                   logger(static_cast<char>('0' + i)));
  }
  sim.run();
  EXPECT_EQ(order(), "01234567");
  for (std::size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].at, kDrain + usecs(3)) << k;
    EXPECT_EQ(log[k].completed, k + 1) << "counted as each callback runs";
  }
  EXPECT_EQ(net.completed_flow_count(), 8u);
}

TEST_F(FluidDelivery, InlineCallbackSchedulesBetweenDelayedDeliveries) {
  // A and C wait out L; B has no latency and runs inside the completion
  // handler, between them in drain order. What B schedules at T + L lands
  // after A's delivery and before C's.
  const TimeNs lat = usecs(4);
  net.start_flow({link()}, kTenMs, lat, logger('A'));
  net.start_flow({link()}, kTenMs, 0, [this, lat] {
    logger('B')();
    sim.schedule_after(lat, logger('X'));
  });
  net.start_flow({link()}, kTenMs, lat, logger('C'));
  sim.run();
  ASSERT_EQ(order(), "BAXC");
  EXPECT_EQ(log[0].at, kDrain);
  for (std::size_t k = 1; k < 4; ++k) EXPECT_EQ(log[k].at, kDrain + lat);
  EXPECT_EQ(log[1].completed, 2u);
  EXPECT_EQ(log[3].completed, 3u);
}

TEST_F(FluidDelivery, EachLatencyDeliversAtItsOwnInstant) {
  const TimeNs l1 = usecs(6);
  const TimeNs l2 = usecs(2);
  net.start_flow({link()}, kTenMs, l1, logger('A'));
  net.start_flow({link()}, kTenMs, l2, logger('B'));
  net.start_flow({link()}, kTenMs, l1, logger('C'));
  sim.run();
  ASSERT_EQ(order(), "BAC");
  EXPECT_EQ(log[0].at, kDrain + l2);
  EXPECT_EQ(log[1].at, kDrain + l1);
  EXPECT_EQ(log[2].at, kDrain + l1);
  EXPECT_EQ(log[2].completed, 3u);
}

TEST_F(FluidDelivery, ZeroDelayEventFromADeliveryRunsAfterItsStretch) {
  const TimeNs lat = usecs(3);
  net.start_flow({link()}, kTenMs, lat, [this] {
    logger('A')();
    sim.schedule_after(0, logger('Y'));
  });
  net.start_flow({link()}, kTenMs, lat, logger('B'));
  net.start_flow({link()}, kTenMs, lat, logger('C'));
  sim.run();
  ASSERT_EQ(order(), "ABCY");
  EXPECT_EQ(log[3].at, kDrain + lat);
}

TEST_F(FluidDelivery, DestroyedNetworkDeliversNothing) {
  // The simulator may keep running after a network is gone: neither a
  // drained flow's delivery batch nor a zero-byte flow's latency event may
  // fire into it.
  bool delivered = false;
  {
    FluidNetwork doomed(sim);
    doomed.start_flow({doomed.add_link(k100G)}, kTenMs, usecs(5),
                      [&delivered] { delivered = true; });
    sim.run_until(kDrain);  // drained: the callback waits out its latency
    ASSERT_EQ(doomed.active_flow_count(), 0u);
    ASSERT_EQ(doomed.completed_flow_count(), 0u);
    doomed.start_flow({}, 0, usecs(5), [&delivered] { delivered = true; });
  }
  sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(sim.now(), kDrain);  // both events were cancelled
}

// Property sweep: N equal flows on one link each get capacity/N and all
// finish at N x solo time.
class FairShareSweep : public ::testing::TestWithParam<int> {};

TEST_P(FairShareSweep, EqualFlowsFinishTogether) {
  const int n = GetParam();
  sim::Simulator sim;
  FluidNetwork net(sim);
  const LinkId l = net.add_link(k100G);
  std::vector<TimeNs> done(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    net.start_flow({l}, 12'500'000, 0,
                   [&done, i, &sim] { done[static_cast<std::size_t>(i)] = sim.now(); });
  }
  const FlowId probe = net.start_flow({l}, 12'500'000, 0, nullptr);
  EXPECT_NEAR(net.flow_rate_bps(probe), 100e9 / (n + 1), 1e6);
  net.abort_flow(probe);
  sim.run();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(done[static_cast<std::size_t>(i)]),
                static_cast<double>(n) * msecs(1), static_cast<double>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Fanout, FairShareSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32));

}  // namespace
}  // namespace opus::net
