// Fluid-solver edge cases: near-stalled flows (completion-event overflow
// clamp), zero-byte lifecycle (delivery accounting, abortability while the
// latency pends), dark links stalling and resuming, bottleneck aborts
// redistributing rates, lazy-advance consistency of flow_remaining across
// those transitions, and the flow registry's slot reuse + stale-generation
// rejection.
#include <gtest/gtest.h>

#include "common/error.h"
#include "net/cluster.h"
#include "net/fluid.h"
#include "sim/simulator.h"

namespace opus::net {
namespace {

constexpr Bandwidth k100G = Bandwidth::gbps(100);

class FluidEdgeTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  FluidNetwork net{sim};
};

// ---------------------------------------------------------------------------
// Near-stalled flows: remaining/rate can exceed 2^63 ns; the completion
// event must clamp instead of overflowing the TimeNs cast.
// ---------------------------------------------------------------------------

TEST_F(FluidEdgeTest, NearStalledFlowClampsCompletionEvent) {
  // 2 GiB over a 1 bps link: remaining/rate ~ 1.7e19 ns, beyond TimeNs
  // range. Without the clamp the cast is UB (and scheduled a garbage time).
  const LinkId slow = net.add_link(Bandwidth::bps(1.0));
  TimeNs done = -1;
  net.start_flow({slow}, gib(2), 0, [&] { done = sim.now(); });
  sim.run_until(sim.now());  // the completion event is scheduled at instant end
  EXPECT_GT(sim.pending_events(), 0u)
      << "a positive-rate flow must keep a (clamped) completion event";
  sim.run_until(msecs(1));
  EXPECT_EQ(done, -1);
  // The link recovers: the flow must complete at normal speed from here.
  net.set_capacity(slow, k100G);
  sim.run();
  // 2 GiB at 12.5 GB/s from t=1ms (the 1 bps era moved a negligible
  // fraction of a byte).
  EXPECT_NEAR(static_cast<double>(done),
              static_cast<double>(msecs(1)) +
                  static_cast<double>(gib(2)) / 12.5,
              10.0);
}

TEST_F(FluidEdgeTest, NearStalledFlowCanBeAborted) {
  const LinkId slow = net.add_link(Bandwidth::bps(1.0));
  bool fired = false;
  const FlowId f = net.start_flow({slow}, gib(4), 0, [&] { fired = true; });
  sim.run_until(usecs(10));
  EXPECT_TRUE(net.abort_flow(f));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

// ---------------------------------------------------------------------------
// Zero-byte flows: completed_flow_count() must not read ahead of the
// observable completion callbacks.
// ---------------------------------------------------------------------------

TEST_F(FluidEdgeTest, ZeroByteCompletionCountsAtCallbackDelivery) {
  TimeNs done = -1;
  net.start_flow({}, 0, usecs(7), [&] { done = sim.now(); });
  EXPECT_EQ(net.completed_flow_count(), 0u)
      << "completion must not be counted before the callback fires";
  sim.run_until(usecs(6));
  EXPECT_EQ(net.completed_flow_count(), 0u);
  sim.run();
  EXPECT_EQ(done, usecs(7));
  EXPECT_EQ(net.completed_flow_count(), 1u);
}

TEST_F(FluidEdgeTest, DrainedFlowWithLatencyCountsAtCallbackDelivery) {
  const LinkId l = net.add_link(k100G);
  TimeNs done = -1;
  // Drains at 10ms; delivery (and the count) follows 5us later.
  net.start_flow({l}, 125'000'000, usecs(5), [&] { done = sim.now(); });
  sim.run_until(msecs(10));
  EXPECT_EQ(net.active_flow_count(), 0u) << "drained at 10ms";
  EXPECT_EQ(net.completed_flow_count(), 0u)
      << "not yet delivered: must not be counted";
  sim.run();
  EXPECT_EQ(done, msecs(10) + usecs(5));
  EXPECT_EQ(net.completed_flow_count(), 1u);
}

TEST_F(FluidEdgeTest, ZeroByteNullCallbackCountsAtDeliveryTime) {
  net.start_flow({}, 0, usecs(3), nullptr);
  EXPECT_EQ(net.completed_flow_count(), 0u);
  sim.run();
  EXPECT_EQ(net.completed_flow_count(), 1u);
  EXPECT_EQ(sim.now(), usecs(3));
}

TEST_F(FluidEdgeTest, ZeroByteFlowIsActiveUntilDelivery) {
  const FlowId f = net.start_flow({}, 0, usecs(5), nullptr);
  EXPECT_TRUE(net.flow_active(f)) << "in flight while the latency pends";
  EXPECT_EQ(net.active_flow_count(), 1u);
  EXPECT_EQ(net.flow_rate_bps(f), 0.0) << "consumes no bandwidth";
  EXPECT_EQ(net.flow_remaining(f), 0);
  sim.run();
  EXPECT_FALSE(net.flow_active(f));
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_EQ(net.completed_flow_count(), 1u);
}

TEST_F(FluidEdgeTest, AbortedZeroByteFlowNeverFiresItsCallback) {
  bool fired = false;
  const FlowId f = net.start_flow({}, 0, usecs(5), [&] { fired = true; });
  EXPECT_TRUE(net.abort_flow(f)) << "a pending zero-byte flow is abortable";
  EXPECT_FALSE(net.flow_active(f));
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_FALSE(net.abort_flow(f)) << "second abort must report already-gone";
  sim.run();
  EXPECT_FALSE(fired) << "an aborted flow's callback must never fire";
  EXPECT_EQ(net.completed_flow_count(), 0u)
      << "an aborted delivery must not be counted as completed";
}

TEST_F(FluidEdgeTest, ZeroByteAbortAfterDeliveryReturnsFalse) {
  const FlowId f = net.start_flow({}, 0, usecs(3), nullptr);
  sim.run();
  EXPECT_EQ(net.completed_flow_count(), 1u);
  EXPECT_FALSE(net.abort_flow(f)) << "already delivered";
}

// ---------------------------------------------------------------------------
// Dark (zero-capacity) links: flows may start stalled and resume later.
// ---------------------------------------------------------------------------

TEST_F(FluidEdgeTest, FlowStartedOnDarkLinkStallsThenResumes) {
  const LinkId dark = net.add_link(Bandwidth::gbps(0));
  TimeNs done = -1;
  const FlowId f =
      net.start_flow({dark}, 125'000'000, 0, [&] { done = sim.now(); });
  EXPECT_EQ(net.flow_rate_bps(f), 0.0);
  sim.run_until(msecs(30));
  EXPECT_EQ(done, -1);
  EXPECT_EQ(net.flow_remaining(f), 125'000'000)
      << "a stalled flow must make no progress";
  net.set_capacity(dark, k100G);
  sim.run();
  EXPECT_EQ(done, msecs(40));  // 30ms dark + 10ms at 12.5 GB/s
}

TEST_F(FluidEdgeTest, OnlyFlowsCrossingTheDarkLinkStall) {
  const LinkId live = net.add_link(k100G);
  const LinkId dark = net.add_link(Bandwidth::gbps(0));
  TimeNs live_done = -1;
  TimeNs dark_done = -1;
  net.start_flow({live}, 125'000'000, 0, [&] { live_done = sim.now(); });
  net.start_flow({live, dark}, 125'000'000, 0,
                 [&] { dark_done = sim.now(); });
  sim.run_until(msecs(20));
  // The dark-path flow holds zero rate, so the live flow gets the whole
  // link and finishes solo.
  EXPECT_EQ(live_done, msecs(10));
  EXPECT_EQ(dark_done, -1);
  net.set_capacity(dark, k100G);
  sim.run();
  EXPECT_EQ(dark_done, msecs(30));
}

// ---------------------------------------------------------------------------
// abort_flow on a bottleneck: survivors re-share immediately.
// ---------------------------------------------------------------------------

TEST_F(FluidEdgeTest, AbortOnBottleneckRedistributesRates) {
  const LinkId l = net.add_link(Bandwidth::gbps(90));
  const FlowId a = net.start_flow({l}, gib(1), 0, nullptr);
  const FlowId b = net.start_flow({l}, gib(1), 0, nullptr);
  const FlowId c = net.start_flow({l}, gib(1), 0, nullptr);
  EXPECT_NEAR(net.flow_rate_bps(a), 30e9, 1e6);
  EXPECT_NEAR(net.flow_rate_bps(b), 30e9, 1e6);
  EXPECT_NEAR(net.flow_rate_bps(c), 30e9, 1e6);
  sim.run_until(msecs(1));
  EXPECT_TRUE(net.abort_flow(a));
  EXPECT_NEAR(net.flow_rate_bps(b), 45e9, 1e6);
  EXPECT_NEAR(net.flow_rate_bps(c), 45e9, 1e6);
  EXPECT_NEAR(net.allocated_bps(l), 90e9, 1e6)
      << "the freed share must be redistributed, not lost";
  EXPECT_EQ(net.active_flows_on(l), 2);
}

// ---------------------------------------------------------------------------
// flow_remaining lazy advance: consistent at arbitrary instants, across
// stalls, aborts, and capacity changes.
// ---------------------------------------------------------------------------

TEST_F(FluidEdgeTest, FlowRemainingIsConsistentAcrossTransitions) {
  const LinkId l = net.add_link(k100G);
  const FlowId a = net.start_flow({l}, 125'000'000, 0, nullptr);
  const FlowId b = net.start_flow({l}, 125'000'000, 0, nullptr);

  // Mid-interval, no event has fired since start: lazily advanced.
  sim.run_until(msecs(2));  // each at 6.25 GB/s for 2ms = 12.5 MB moved
  EXPECT_NEAR(static_cast<double>(net.flow_remaining(a)), 112'500'000.0, 1e4);

  // Abort the sibling: the survivor speeds up, remaining still consistent.
  net.abort_flow(b);
  EXPECT_NEAR(static_cast<double>(net.flow_remaining(a)), 112'500'000.0, 1e4);
  sim.run_until(msecs(4));  // +2ms at 12.5 GB/s = 25 MB
  EXPECT_NEAR(static_cast<double>(net.flow_remaining(a)), 87'500'000.0, 1e4);

  // Stall: remaining must freeze, not drift.
  net.set_capacity(l, Bandwidth::gbps(0));
  sim.run_until(msecs(20));
  EXPECT_NEAR(static_cast<double>(net.flow_remaining(a)), 87'500'000.0, 1e4);

  // Resume at a quarter of the bandwidth: drains at 3.125 GB/s.
  net.set_capacity(l, k100G / 4.0);
  sim.run_until(msecs(24));
  EXPECT_NEAR(static_cast<double>(net.flow_remaining(a)), 75'000'000.0, 1e4);
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
}

// ---------------------------------------------------------------------------
// Flow-registry slot reuse and stale-generation rejection: a FlowId held
// across the end of its flow must be detected, never alias the slot's next
// occupant.
// ---------------------------------------------------------------------------

TEST_F(FluidEdgeTest, AbortedSlotIsReusedAndStaleIdsAreRejected) {
  const LinkId l = net.add_link(k100G);
  const FlowId a = net.start_flow({l}, gib(1), 0, nullptr);
  EXPECT_TRUE(net.abort_flow(a));
  const FlowId b = net.start_flow({l}, gib(1), 0, nullptr);
  EXPECT_EQ(b.slot(), a.slot()) << "freed slots must be reused (LIFO)";
  EXPECT_NE(a, b) << "the reused slot must carry a fresh generation";
  EXPECT_TRUE(net.flow_active(b));
  EXPECT_FALSE(net.flow_active(a)) << "stale id must not alias the new flow";
  EXPECT_FALSE(net.abort_flow(a)) << "stale abort must not kill the new flow";
  EXPECT_TRUE(net.flow_active(b)) << "the new flow must have survived";
  EXPECT_THROW(net.flow_rate_bps(a), InvariantError);
  EXPECT_THROW(net.flow_remaining(a), InvariantError);
  EXPECT_NEAR(net.flow_rate_bps(b), 100e9, 1e6);
}

TEST_F(FluidEdgeTest, CompletedSlotIsReusedAndStaleIdsAreRejected) {
  const LinkId l = net.add_link(k100G);
  const FlowId a = net.start_flow({l}, 125'000'000, 0, nullptr);
  sim.run();
  EXPECT_FALSE(net.flow_active(a)) << "completed";
  EXPECT_FALSE(net.abort_flow(a));
  const FlowId b = net.start_flow({l}, 125'000'000, 0, nullptr);
  EXPECT_EQ(b.slot(), a.slot());
  EXPECT_NE(a.generation(), b.generation());
  EXPECT_FALSE(net.flow_active(a));
  EXPECT_TRUE(net.flow_active(b));
  sim.run();
  EXPECT_EQ(net.completed_flow_count(), 2u);
}

TEST_F(FluidEdgeTest, RawAndDefaultFlowIdsAreNeverActive) {
  const LinkId l = net.add_link(k100G);
  net.start_flow({l}, gib(1), 0, nullptr);
  // Issued generations are odd; raw integers carry generation 0 and a
  // default id carries no generation at all — none may match a live slot.
  EXPECT_FALSE(net.flow_active(FlowId{}));
  EXPECT_FALSE(net.flow_active(FlowId{0}));
  EXPECT_FALSE(net.flow_active(FlowId{123}));
  EXPECT_FALSE(net.abort_flow(FlowId{0}));
  EXPECT_THROW(net.flow_rate_bps(FlowId{0}), InvariantError);
  EXPECT_EQ(net.active_flow_count(), 1u) << "the live flow must be untouched";
}

TEST_F(FluidEdgeTest, ChurnReusesSlotsInsteadOfGrowingTheRegistry) {
  // Start/complete many flows serially: the registry must stay at peak
  // concurrency (one slot here), not accrete a slot per lifetime flow.
  const LinkId l = net.add_link(k100G);
  std::vector<FlowId> seen;
  for (int i = 0; i < 32; ++i) {
    seen.push_back(net.start_flow({l}, 1'000'000, 0, nullptr));
    sim.run();
  }
  for (const FlowId f : seen) {
    EXPECT_EQ(f.slot(), seen.front().slot()) << "serial churn reuses one slot";
    EXPECT_FALSE(net.flow_active(f));
  }
  EXPECT_EQ(net.completed_flow_count(), 32u);
}

// ---------------------------------------------------------------------------
// Zero-byte flows under fault churn: a zero-byte transfer attaches to no
// link, so per-link failure sweeps cannot see it — only its FlowId can kill
// it. The cluster's fault paths must honour both halves of that contract.
// ---------------------------------------------------------------------------

TEST_F(FluidEdgeTest, ZeroByteTransferRidesOutACircuitFailure) {
  // The control message was already "in flight" (latency only, no capacity
  // needed), so tearing the circuit under it must not lose it.
  Cluster c(sim, [] {
    ClusterConfig cfg;
    cfg.n_nodes = 2;
    cfg.gpus_per_node = 2;
    cfg.nic_ports = 2;
    cfg.fabric = FabricKind::kOpusPhotonic;
    cfg.ocs_reconfig_delay = usecs(10);
    return cfg;
  }());
  c.set_fault_tolerant(true);
  auto& sw = c.ocs(RailId{0});
  sw.force_circuits({{PortId{0}, PortId{2}}});
  int done = 0;
  c.transfer(c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{1}, 0), 0,
             [&] { ++done; });
  c.fail_nic_port(NodeId{0}, 0, 0);  // same instant: delivery still pends
  sim.run();
  EXPECT_EQ(done, 1) << "an in-flight zero-byte send survives the failure";
}

TEST_F(FluidEdgeTest, SpanAbortKillsPendingZeroByteTransfers) {
  // Eviction (abort_span_traffic) must catch zero-byte sends through the
  // rescuable-flow registry — the per-link sweep alone would miss them and
  // leak an orphaned completion into the re-placed job's timeline.
  Cluster c(sim, [] {
    ClusterConfig cfg;
    cfg.n_nodes = 2;
    cfg.gpus_per_node = 2;
    cfg.nic_ports = 2;
    cfg.fabric = FabricKind::kOpusPhotonic;
    cfg.ocs_reconfig_delay = usecs(10);
    return cfg;
  }());
  c.set_fault_tolerant(true);
  auto& sw = c.ocs(RailId{0});
  sw.force_circuits({{PortId{0}, PortId{2}}});
  int done = 0;
  c.transfer(c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{1}, 0), 0,
             [&] { ++done; });
  c.transfer(c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{1}, 0), mib(1),
             [&] { ++done; });
  c.abort_span_traffic({0, 2});
  sim.run();
  EXPECT_EQ(done, 0) << "no aborted transfer may deliver after eviction";
}

TEST_F(FluidEdgeTest, SpanAbortInsideRailLatencyDoesNotDeliver) {
  // A drained circuit flow frees its fluid slot but delivers only after
  // rail_latency, through a plain event abort_flow cannot cancel. An
  // eviction inside that window must drop the hop without delivering it.
  Cluster c(sim, [] {
    ClusterConfig cfg;
    cfg.n_nodes = 2;
    cfg.gpus_per_node = 2;
    cfg.nic_ports = 2;
    cfg.fabric = FabricKind::kOpusPhotonic;
    cfg.ocs_reconfig_delay = usecs(10);
    return cfg;
  }());
  c.set_fault_tolerant(true);
  c.ocs(RailId{0}).force_circuits({{PortId{0}, PortId{2}}});
  int done = 0;
  c.transfer(c.gpu_at(NodeId{0}, 0), c.gpu_at(NodeId{1}, 0), mib(1),
             [&] { ++done; });
  ASSERT_GT(c.config().rail_latency, 1);
  sim.run_until(transfer_time(mib(1), c.config().port_bw()) + 1);
  ASSERT_EQ(c.network().active_flow_count(), 0u) << "the flow has drained";
  ASSERT_EQ(done, 0) << "its delivery still waits out rail_latency";
  c.abort_span_traffic({0, 2});
  sim.run();
  EXPECT_EQ(done, 0) << "an evicted hop must not deliver";
}

}  // namespace
}  // namespace opus::net
