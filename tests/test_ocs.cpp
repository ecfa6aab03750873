// Unit tests for the optical circuit switch: circuit state, reconfiguration
// dark periods, fine-grained (per-port) switching, and safety invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "net/ocs.h"
#include "sim/simulator.h"

namespace opus::net {
namespace {

constexpr Bandwidth k200G = Bandwidth::gbps(200);

class OcsTest : public ::testing::Test {
 protected:
  OcsTest() : net(sim), sw(sim, net, 8, k200G, msecs(15), "t") {}
  sim::Simulator sim;
  FluidNetwork net;
  OpticalCircuitSwitch sw;
};

TEST_F(OcsTest, StartsUnconnected) {
  for (int p = 0; p < sw.n_ports(); ++p) {
    EXPECT_FALSE(sw.peer(PortId{p}).has_value());
    EXPECT_FALSE(sw.dark(PortId{p}));
  }
}

TEST_F(OcsTest, ReconfigureEstablishesAfterDelay) {
  bool done = false;
  sw.reconfigure({{PortId{0}, PortId{1}}}, [&] { done = true; });
  EXPECT_TRUE(sw.dark(PortId{0}));
  EXPECT_TRUE(sw.dark(PortId{1}));
  EXPECT_FALSE(sw.connected(PortId{0}, PortId{1}));
  sim.run_until(msecs(14));
  EXPECT_FALSE(done);
  sim.run_until(msecs(15));
  EXPECT_TRUE(done);
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{1}));
  EXPECT_TRUE(sw.connected(PortId{1}, PortId{0}));  // bidirectional
  EXPECT_FALSE(sw.dark(PortId{0}));
}

TEST_F(OcsTest, SatisfiedRequestAcksWithoutReconfiguring) {
  sw.force_circuits({{PortId{0}, PortId{1}}});
  EXPECT_EQ(sw.stats().reconfigurations, 0);
  bool done = false;
  sw.reconfigure({{PortId{0}, PortId{1}}}, [&] { done = true; });
  EXPECT_TRUE(done) << "idempotent request must ack immediately";
  EXPECT_EQ(sw.stats().reconfigurations, 0);
}

TEST_F(OcsTest, RetargetingTearsOldPeerToo) {
  sw.force_circuits({{PortId{0}, PortId{1}}});
  // Retarget port 0 to port 2: the old peer (port 1) must go dark and end
  // up unconnected.
  const auto touched = sw.touched_ports({{PortId{0}, PortId{2}}});
  EXPECT_EQ(touched.size(), 3u);  // ports 0, 1, 2
  sw.reconfigure({{PortId{0}, PortId{2}}}, nullptr);
  EXPECT_TRUE(sw.dark(PortId{1}));
  sim.run();
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{2}));
  EXPECT_FALSE(sw.peer(PortId{1}).has_value());
}

TEST_F(OcsTest, UntouchedCircuitsKeepCarryingTraffic) {
  sw.force_circuits({{PortId{0}, PortId{1}}, {PortId{2}, PortId{3}}});
  TimeNs done = -1;
  // 25 MB at 200 Gb/s = 1 ms.
  net.start_flow({sw.link(PortId{0}, PortId{1})}, 25'000'000, 0,
                 [&] { done = sim.now(); });
  // Fine-grained reconfiguration of the other ports.
  sw.reconfigure({{PortId{4}, PortId{5}}}, nullptr);
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{1}));
  sim.run();
  EXPECT_EQ(done, msecs(1)) << "reconfig of ports 4/5 must not disturb 0/1";
}

TEST_F(OcsTest, ReconfiguringActiveCircuitThrows) {
  sw.force_circuits({{PortId{0}, PortId{1}}});
  net.start_flow({sw.link(PortId{0}, PortId{1})}, 1'000'000'000, 0, nullptr);
  EXPECT_THROW(sw.reconfigure({{PortId{0}, PortId{2}}}, nullptr),
               InvariantError);
}

TEST_F(OcsTest, OverlappingInFlightReconfigThrows) {
  sw.reconfigure({{PortId{0}, PortId{1}}}, nullptr);
  EXPECT_THROW(sw.reconfigure({{PortId{1}, PortId{2}}}, nullptr),
               InvariantError)
      << "callers must serialize overlapping requests";
  // Disjoint reconfig is fine.
  EXPECT_NO_THROW(sw.reconfigure({{PortId{2}, PortId{3}}}, nullptr));
}

TEST_F(OcsTest, PortInTwoCircuitsThrows) {
  EXPECT_THROW(
      sw.reconfigure({{PortId{0}, PortId{1}}, {PortId{1}, PortId{2}}},
                     nullptr),
      InvariantError);
}

TEST_F(OcsTest, SelfLoopThrows) {
  EXPECT_THROW(sw.reconfigure({{PortId{3}, PortId{3}}}, nullptr),
               InvariantError);
}

TEST_F(OcsTest, LinkRequiresLiveCircuit) {
  EXPECT_THROW(sw.link(PortId{0}, PortId{1}), InvariantError);
  sw.reconfigure({{PortId{0}, PortId{1}}}, nullptr);
  EXPECT_THROW(sw.link(PortId{0}, PortId{1}), InvariantError);  // still dark
  sim.run();
  EXPECT_NO_THROW(sw.link(PortId{0}, PortId{1}));
}

TEST_F(OcsTest, DirectionalLinksAreDistinct) {
  sw.force_circuits({{PortId{0}, PortId{1}}});
  const LinkId fwd = sw.link(PortId{0}, PortId{1});
  const LinkId rev = sw.link(PortId{1}, PortId{0});
  EXPECT_NE(fwd, rev);
  EXPECT_EQ(net.capacity(fwd), k200G);
  EXPECT_EQ(net.capacity(rev), k200G);
}

TEST_F(OcsTest, StatsAccumulate) {
  sw.reconfigure({{PortId{0}, PortId{1}}, {PortId{2}, PortId{3}}}, nullptr);
  sim.run();
  sw.reconfigure({{PortId{0}, PortId{2}}}, nullptr);
  sim.run();
  EXPECT_EQ(sw.stats().reconfigurations, 2);
  EXPECT_EQ(sw.stats().circuits_established, 3);
  // First reconfig darkened 4 ports, second 4 (0,1,2,3 via old peers).
  EXPECT_EQ(sw.stats().cumulative_port_dark_ns, 8 * msecs(15));
}

TEST_F(OcsTest, ZeroDelayReconfigCompletesAtSameTimestamp) {
  OpticalCircuitSwitch fast(sim, net, 4, k200G, 0, "fast");
  bool done = false;
  fast.reconfigure({{PortId{0}, PortId{1}}}, [&] { done = true; });
  EXPECT_FALSE(done);  // still event-driven, no synchronous reentrancy
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), 0);
}

TEST_F(OcsTest, CircuitReuseKeepsLinkIdentity) {
  sw.force_circuits({{PortId{0}, PortId{1}}});
  const LinkId first = sw.link(PortId{0}, PortId{1});
  sw.reconfigure({{PortId{0}, PortId{2}}}, nullptr);
  sim.run();
  sw.reconfigure({{PortId{0}, PortId{1}}}, nullptr);
  sim.run();
  EXPECT_EQ(sw.link(PortId{0}, PortId{1}), first)
      << "re-established circuits reuse their fluid links";
}

TEST_F(OcsTest, MidFlightDelayChangeKeepsAccountingAndDarknessInSync) {
  // The in-flight reconfiguration captured a 15ms delay; changing the knob
  // mid-flight must affect neither its dark-time charge nor when its ports
  // come back up (Fig. 8 accounting == actual dark time).
  TimeNs up_at = -1;
  sw.reconfigure({{PortId{0}, PortId{1}}}, [&] { up_at = sim.now(); });
  EXPECT_EQ(sw.stats().cumulative_port_dark_ns, 2 * msecs(15));
  sim.run_until(msecs(5));
  sw.set_reconfig_delay(msecs(1));
  sim.run_until(msecs(6));
  EXPECT_TRUE(sw.dark(PortId{0}))
      << "shrinking the delay must not resurrect in-flight ports early";
  sim.run();
  EXPECT_EQ(up_at, msecs(15));
  EXPECT_EQ(sw.stats().cumulative_port_dark_ns, 2 * msecs(15));

  // The next reconfiguration picks up the new 1ms delay.
  TimeNs up2 = -1;
  sw.reconfigure({{PortId{2}, PortId{3}}}, [&] { up2 = sim.now(); });
  sim.run();
  EXPECT_EQ(up2, msecs(15) + msecs(1));
  EXPECT_EQ(sw.stats().cumulative_port_dark_ns, 2 * msecs(15) + 2 * msecs(1));
}

TEST_F(OcsTest, ReconfigurationChurnKeepsOneLinkPerPort) {
  // Rotor-style round-robin matchings on all 8 ports (the same
  // round_robin_circuits schedule the churn bench drives): every round
  // tears down 4 circuits and establishes 4 never-seen pairs (period 7), so
  // two cycles connect 28 distinct pairs. A port transmits on one fluid
  // link whatever its peer, so the link table never outgrows the radix —
  // and neither a port failure and repair nor forced re-wiring adds to it.
  constexpr int kRot = 7;  // n_ports - 1
  std::vector<LinkId> tx(8);  // each port's transmit link, once seen
  const auto expect_port_links = [&](PortId a, PortId b) {
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      LinkId& seen = tx[static_cast<std::size_t>(from.value())];
      if (!seen.valid()) seen = sw.link(from, to);
      EXPECT_EQ(sw.link(from, to), seen)
          << "port " << from.value() << " must keep its transmit link";
    }
    EXPECT_LE(net.link_count(), 8u);
  };
  for (int r = 0; r < 2 * kRot; ++r) {
    const auto circuits = round_robin_circuits(8, r);
    ASSERT_EQ(circuits.size(), 4u);
    sw.reconfigure(circuits, nullptr);
    sim.run();
    // Push one flow across each live circuit so the churn carries traffic.
    TimeNs done = 0;
    for (const CircuitRequest& c : circuits) {
      expect_port_links(c.a, c.b);
      net.start_flow({sw.link(c.a, c.b)}, 25'000'000, 0,
                     [&done, this] { done = sim.now(); });
    }
    sim.run();
    EXPECT_GT(done, 0);
    if (r == kRot) {
      // Mid-churn, a port dies under traffic and is repaired: its circuit's
      // flow is aborted and the next round re-wires it over the same link.
      const CircuitRequest& c = circuits.front();
      const LinkId dying = sw.link(c.a, c.b);
      net.start_flow({dying}, 25'000'000, 0, nullptr);
      sw.fail_port(c.a);
      EXPECT_EQ(net.active_flows_on(dying), 0);
      EXPECT_FALSE(sw.peer(c.b).has_value());
      sw.repair_port(c.a);
      EXPECT_LE(net.link_count(), 8u);
    }
  }
  // force_circuits retargets without a quiescence check: a flow still
  // draining on port 0 stays on port 0's transmit link and shares it with
  // the new circuit's traffic.
  const PortId p0{0};
  const PortId old = sw.peer(p0).value();
  const PortId next{old.value() == 1 ? 2 : 1};
  const FlowId draining =
      net.start_flow({sw.link(p0, old)}, 25'000'000, 0, nullptr);
  sw.force_circuits({{p0, next}});
  expect_port_links(p0, next);
  const FlowId fresh =
      net.start_flow({sw.link(p0, next)}, 25'000'000, 0, nullptr);
  EXPECT_NEAR(net.flow_rate_bps(draining), 100e9, 1e6);
  EXPECT_NEAR(net.flow_rate_bps(fresh), 100e9, 1e6);
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_EQ(net.link_count(), 8u);
}

// ---- batched rotation transactions -----------------------------------------

// The per-port breakdown must always sum to the aggregate counter, whichever
// mix of generic, batched, and forced reconfigurations produced it.
TimeNs summed_port_dark(const OpticalCircuitSwitch& sw) {
  TimeNs sum = 0;
  for (int p = 0; p < sw.n_ports(); ++p) sum += sw.port_dark_time(PortId{p});
  return sum;
}

TEST_F(OcsTest, BatchReconfigureMatchesGenericSemantics) {
  const auto batch = sw.register_batch({{PortId{0}, PortId{1}},
                                        {PortId{2}, PortId{3}}});
  bool done = false;
  sw.reconfigure_batch(batch, [&] { done = true; });
  for (int p : {0, 1, 2, 3}) EXPECT_TRUE(sw.dark(PortId{p}));
  EXPECT_FALSE(sw.dark(PortId{4}));
  EXPECT_FALSE(sw.connected(PortId{0}, PortId{1}));
  sim.run_until(msecs(14));
  EXPECT_FALSE(done);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{1}));
  EXPECT_TRUE(sw.connected(PortId{2}, PortId{3}));
  for (int p : {0, 1, 2, 3}) {
    EXPECT_FALSE(sw.dark(PortId{p}));
    EXPECT_EQ(sw.port_dark_time(PortId{p}), msecs(15));
  }
  EXPECT_EQ(sw.stats().reconfigurations, 1);
  EXPECT_EQ(sw.stats().circuits_established, 2);
  EXPECT_EQ(sw.stats().cumulative_port_dark_ns, 4 * msecs(15));
  EXPECT_EQ(summed_port_dark(sw), sw.stats().cumulative_port_dark_ns);
}

TEST_F(OcsTest, BatchRotationsAccrueDeltaDarkAccounting) {
  // Two matchings over the same four ports, replayed rotor-style. Every
  // rotation is one reconfiguration and charges each port exactly one
  // reconfig delay, with the aggregate == per-port invariant held
  // throughout.
  const auto a = sw.register_batch({{PortId{0}, PortId{1}},
                                    {PortId{2}, PortId{3}}});
  const auto b = sw.register_batch({{PortId{0}, PortId{2}},
                                    {PortId{1}, PortId{3}}});
  for (int rotation = 1; rotation <= 6; ++rotation) {
    sw.reconfigure_batch(rotation % 2 == 1 ? a : b, nullptr);
    sim.run();
    EXPECT_EQ(sw.stats().reconfigurations, rotation);
    EXPECT_EQ(sw.stats().cumulative_port_dark_ns, rotation * 4 * msecs(15));
    for (int p : {0, 1, 2, 3}) {
      EXPECT_EQ(sw.port_dark_time(PortId{p}), rotation * msecs(15));
    }
    EXPECT_EQ(summed_port_dark(sw), sw.stats().cumulative_port_dark_ns);
  }
}

TEST_F(OcsTest, BatchReplayKeepsLinkIdentity) {
  const auto a = sw.register_batch({{PortId{0}, PortId{1}},
                                    {PortId{2}, PortId{3}}});
  const auto b = sw.register_batch({{PortId{0}, PortId{2}},
                                    {PortId{1}, PortId{3}}});
  sw.reconfigure_batch(a, nullptr);
  sim.run();
  const LinkId first = sw.link(PortId{0}, PortId{1});
  sw.reconfigure_batch(b, nullptr);
  sim.run();
  sw.reconfigure_batch(a, nullptr);
  sim.run();
  EXPECT_EQ(sw.link(PortId{0}, PortId{1}), first)
      << "replayed matchings reuse their ports' fluid links";
}

TEST_F(OcsTest, BatchAlreadySatisfiedAcksWithoutCounting) {
  const auto a = sw.register_batch({{PortId{0}, PortId{1}}});
  sw.reconfigure_batch(a, nullptr);
  sim.run();
  bool done = false;
  sw.reconfigure_batch(a, [&] { done = true; });
  EXPECT_TRUE(done) << "idempotent batch must ack immediately";
  EXPECT_EQ(sw.stats().reconfigurations, 1);
  EXPECT_EQ(sw.stats().cumulative_port_dark_ns, 2 * msecs(15));
}

TEST_F(OcsTest, BatchDarkensDisplacedPeerOutsideTheBatch) {
  // Port 0 currently pairs with port 4; a batch over {0,1,2,3} touches the
  // displaced peer too, exactly as reconfigure() would.
  sw.reconfigure({{PortId{0}, PortId{4}}}, nullptr);
  sim.run();
  const auto batch = sw.register_batch({{PortId{0}, PortId{1}},
                                        {PortId{2}, PortId{3}}});
  sw.reconfigure_batch(batch, nullptr);
  EXPECT_TRUE(sw.dark(PortId{4})) << "displaced peer must go dark too";
  sim.run();
  EXPECT_FALSE(sw.peer(PortId{4}).has_value());
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{1}));
  EXPECT_EQ(sw.stats().reconfigurations, 2);
  // 2 ports dark in the first reconfig, 5 (batch's four + port 4) in the
  // batch.
  EXPECT_EQ(sw.stats().cumulative_port_dark_ns, 7 * msecs(15));
  EXPECT_EQ(summed_port_dark(sw), sw.stats().cumulative_port_dark_ns);
}

TEST_F(OcsTest, BatchOverPortSubsetKeepsPerPortDarkTime) {
  // Registering a second batch over a *subset* of an earlier batch's ports
  // must leave every port_dark_time unchanged, and the subset batch charges
  // only its own ports from then on.
  const auto a = sw.register_batch({{PortId{0}, PortId{1}},
                                    {PortId{2}, PortId{3}}});
  sw.reconfigure_batch(a, nullptr);
  sim.run();
  const auto b = sw.register_batch({{PortId{0}, PortId{1}}});
  for (int p : {0, 1, 2, 3}) {
    EXPECT_EQ(sw.port_dark_time(PortId{p}), msecs(15))
        << "registration must not change accrued dark time";
  }
  EXPECT_EQ(summed_port_dark(sw), sw.stats().cumulative_port_dark_ns);
  // The subset batch keeps accounting correctly on its next transaction.
  sw.clear_circuits_on({PortId{0}, PortId{1}});
  sw.reconfigure_batch(b, nullptr);
  sim.run();
  EXPECT_EQ(sw.port_dark_time(PortId{0}), 2 * msecs(15));
  EXPECT_EQ(sw.port_dark_time(PortId{2}), msecs(15));
  EXPECT_EQ(summed_port_dark(sw), sw.stats().cumulative_port_dark_ns);
}

TEST_F(OcsTest, BatchRefusesToDarkenTrafficAndInvalidRequests) {
  EXPECT_THROW(sw.register_batch({{PortId{0}, PortId{0}}}), InvariantError);
  EXPECT_THROW(sw.register_batch({{PortId{0}, PortId{1}},
                                  {PortId{1}, PortId{2}}}),
               InvariantError);
  EXPECT_THROW(sw.register_batch({{PortId{0}, PortId{99}}}), InvariantError);
  const auto batch = sw.register_batch({{PortId{0}, PortId{1}},
                                        {PortId{2}, PortId{3}}});
  // 0<->2 is a circuit the batch retargets: its traffic blocks the batch.
  sw.force_circuits({{PortId{0}, PortId{2}}});
  net.start_flow({sw.link(PortId{0}, PortId{2})}, 25'000'000, 0, nullptr);
  EXPECT_THROW(sw.reconfigure_batch(batch, nullptr), InvariantError);
  EXPECT_THROW(sw.reconfigure_batch(batch + 99, nullptr), InvariantError);
}

TEST_F(OcsTest, BatchLeavesItsLiveCircuitsLitAndDarkensOnlyRetargetedPorts) {
  // A batch whose circuit 0<->1 is already live retargets only 2 and 3: the
  // live circuit keeps carrying traffic and is charged no dark time.
  const auto batch = sw.register_batch({{PortId{0}, PortId{1}},
                                        {PortId{2}, PortId{3}}});
  sw.force_circuits({{PortId{0}, PortId{1}}});
  TimeNs flow_done = -1;
  // 25 MB at 200 Gb/s = 1 ms, well inside the 15 ms dark window.
  net.start_flow({sw.link(PortId{0}, PortId{1})}, 25'000'000, 0,
                 [&] { flow_done = sim.now(); });
  bool done = false;
  sw.reconfigure_batch(batch, [&] { done = true; });
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{1}));
  EXPECT_TRUE(sw.dark(PortId{2}));
  EXPECT_TRUE(sw.dark(PortId{3}));
  EXPECT_EQ(sw.dark_port_count(), 2);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(flow_done, msecs(1)) << "the live circuit must not be disturbed";
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{1}));
  EXPECT_TRUE(sw.connected(PortId{2}, PortId{3}));
  EXPECT_EQ(sw.port_dark_time(PortId{0}), 0);
  EXPECT_EQ(sw.port_dark_time(PortId{1}), 0);
  EXPECT_EQ(sw.port_dark_time(PortId{2}), msecs(15));
  EXPECT_EQ(sw.port_dark_time(PortId{3}), msecs(15));
  EXPECT_EQ(sw.stats().cumulative_port_dark_ns, 2 * msecs(15));
  EXPECT_EQ(summed_port_dark(sw), sw.stats().cumulative_port_dark_ns);
}

TEST_F(OcsTest, DarkAccountingInvariantHoldsAcrossMixedOperations) {
  // Property check over an interleaving of every reconfiguration flavor:
  // after each step, sum_p port_dark_time(p) == cumulative_port_dark_ns.
  const auto check = [&] {
    EXPECT_EQ(summed_port_dark(sw), sw.stats().cumulative_port_dark_ns);
  };
  sw.force_circuits({{PortId{6}, PortId{7}}});  // forced: no dark, no stats
  check();
  sw.reconfigure({{PortId{0}, PortId{4}}}, nullptr);
  sim.run();
  check();
  const auto a = sw.register_batch({{PortId{0}, PortId{1}},
                                    {PortId{2}, PortId{3}}});
  sw.reconfigure_batch(a, nullptr);  // also darkens displaced peer 4
  sim.run();
  check();
  const auto b = sw.register_batch({{PortId{0}, PortId{2}},
                                    {PortId{1}, PortId{3}}});
  sw.reconfigure_batch(b, nullptr);  // a rotation within the batch ports
  sim.run();
  check();
  sw.reconfigure({{PortId{4}, PortId{5}}}, nullptr);  // generic, disjoint
  sim.run();
  check();
  sw.reconfigure_batch(a, nullptr);  // replay
  sim.run();
  check();
  EXPECT_GT(sw.stats().cumulative_port_dark_ns, 0);
}

TEST_F(OcsTest, FailedEndpointIsDroppedByEveryRequestAndQuery) {
  // One rule for every entry point: a circuit with a failed endpoint is
  // satisfied, touches nothing and is never wired; the rest of the request
  // still runs.
  sw.force_circuits({{PortId{2}, PortId{4}}});
  sw.fail_port(PortId{0});
  const std::vector<CircuitRequest> request = {{PortId{0}, PortId{2}},
                                               {PortId{1}, PortId{3}}};
  EXPECT_FALSE(sw.satisfied(request));
  EXPECT_TRUE(sw.satisfied({{PortId{0}, PortId{2}}}));
  auto touched = sw.touched_ports(request);
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<PortId>{PortId{1}, PortId{3}}))
      << "the dropped circuit must not darken port 2's live peer";
  sw.reconfigure(request, nullptr);
  EXPECT_TRUE(sw.connected(PortId{2}, PortId{4}));
  sim.run();
  EXPECT_TRUE(sw.connected(PortId{1}, PortId{3}));
  EXPECT_FALSE(sw.peer(PortId{0}).has_value());
  EXPECT_EQ(sw.port_dark_time(PortId{0}), 0);
  EXPECT_EQ(sw.stats().circuits_established, 1);

  const auto batch = sw.register_batch(request);
  sw.reconfigure_batch(batch, nullptr);  // only the failed circuit is off
  EXPECT_EQ(sw.dark_port_count(), 0);
  sw.repair_port(PortId{0});
  EXPECT_FALSE(sw.satisfied(request));
  sw.reconfigure_batch(batch, nullptr);  // the repaired circuit re-wires
  sim.run();
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{2}));
  EXPECT_FALSE(sw.peer(PortId{4}).has_value());
  EXPECT_EQ(summed_port_dark(sw), sw.stats().cumulative_port_dark_ns);
}

TEST_F(OcsTest, EveryRequestChecksPortOwnership) {
  // Ownership is checked when a request runs, not when a batch registers:
  // a batch registered before the ports were carved out for two tenants
  // may no longer join them.
  const auto batch = sw.register_batch({{PortId{0}, PortId{1}}});
  sw.set_port_owner(PortId{0}, 0);
  sw.set_port_owner(PortId{1}, 1);
  EXPECT_THROW(sw.reconfigure({{PortId{0}, PortId{1}}}, nullptr),
               InvariantError);
  EXPECT_THROW(sw.reconfigure_batch(batch, nullptr), InvariantError);
  sw.set_port_owner(PortId{1}, 0);
  sw.reconfigure_batch(batch, nullptr);
  sim.run();
  EXPECT_TRUE(sw.connected(PortId{0}, PortId{1}));
}

// Parameterized: the dark period must equal the configured delay for any
// technology (Table 3 spans 10 ns .. 120 s).
class DarkPeriodSweep : public ::testing::TestWithParam<TimeNs> {};

TEST_P(DarkPeriodSweep, DarknessLastsExactlyTheReconfigDelay) {
  sim::Simulator sim;
  FluidNetwork net(sim);
  OpticalCircuitSwitch sw(sim, net, 4, k200G, GetParam(), "p");
  TimeNs up_at = -1;
  sw.reconfigure({{PortId{0}, PortId{1}}}, [&] { up_at = sim.now(); });
  sim.run();
  EXPECT_EQ(up_at, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Table3Latencies, DarkPeriodSweep,
                         ::testing::Values(usecs(0.01), usecs(7), usecs(10),
                                           msecs(15), msecs(25), msecs(100),
                                           secs(120)));

}  // namespace
}  // namespace opus::net
