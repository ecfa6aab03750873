// Allocation budget of the rail data path: once a run is warm, moving a
// transfer allocates nothing — through the collective executor, a direct
// circuit, parallel striped circuits, multi-hop ring forwarding and the
// rotor's two-hop forwarding. Also pins the fluid network's delivery-slab
// behaviour (pending deliveries, aborted zero-byte flows, slot reuse, and
// the recycled buffers of same-instant delivery batches), and
// bounds the largest block compiling a collective shape asks for.
//
// This binary replaces the global operator new/delete with counters that
// forward to malloc/free, so sanitizer builds still see every block.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "collective/compiled.h"
#include "collective/executor.h"
#include "collective/planner.h"
#include "collective/transport.h"
#include "core/rotor.h"
#include "net/cluster.h"
#include "net/fluid.h"
#include "sim/simulator.h"

namespace {
std::atomic<long long> g_allocations{0};
std::atomic<std::size_t> g_largest_block{0};

void* counted_malloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_block.load(std::memory_order_relaxed);
  while (n > largest && !g_largest_block.compare_exchange_weak(
                            largest, n, std::memory_order_relaxed)) {
  }
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler never sees free() applied to a pointer that
// came from operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace opus {
namespace {

using collective::CommGroup;

/// Heap allocations made while `f` runs.
template <class F>
long long allocations_during(F&& f) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// The largest block requested while `f` runs.
template <class F>
std::size_t largest_block_during(F&& f) {
  g_largest_block.store(0, std::memory_order_relaxed);
  f();
  return g_largest_block.load(std::memory_order_relaxed);
}

net::ClusterConfig photonic_cfg(int nodes) {
  net::ClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.gpus_per_node = 1;
  cfg.nic_ports = 2;
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  return cfg;
}

/// Wires rail 0 into a ring: node n's port 0 to node n+1's port 1. With
/// three or more nodes every neighbour pair shares exactly one circuit;
/// with two nodes the pair shares two (one per port), so hops stripe.
void wire_ring(net::Cluster& c) {
  std::vector<net::CircuitRequest> circuits;
  for (int n = 0; n < c.n_nodes(); ++n) {
    const GpuId a = c.gpu_at(NodeId{n}, 0);
    const GpuId b = c.gpu_at(NodeId{(n + 1) % c.n_nodes()}, 0);
    circuits.push_back({c.ocs_port(a, 0), c.ocs_port(b, 1)});
  }
  c.ocs(RailId{0}).force_circuits(circuits);
}

TEST(TransferAllocations, ExecutorRailTransfersAllocateNothingOnceWarm) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(8));
  static_assert(net::kRailLatency > 0);
  wire_ring(cluster);
  collective::DirectTransport transport(cluster);
  collective::CollectiveExecutor exec(sim, transport);
  CommGroup group;
  group.id = GroupId{1};
  for (int n = 0; n < 8; ++n) group.ranks.push_back(GpuId{n});
  // A ring all-reduce over the rail: every transfer is a single-circuit
  // hop to the ring neighbour.
  const Bytes payload = 8 << 20;
  const auto cc = collective::compile(collective::CollectiveType::kAllReduce,
                                      collective::Algorithm::kRing, 8);
  int finished = 0;
  const auto batch = [&] {
    for (int k = 0; k < 3; ++k) {
      exec.run(group, cc, payload, [&finished](const auto&) { ++finished; });
      sim.run();
    }
  };
  batch();
  batch();
  const auto flows = cluster.network().completed_flow_count();
  EXPECT_EQ(allocations_during(batch), 0);
  EXPECT_EQ(finished, 9);
  EXPECT_EQ(cluster.network().completed_flow_count() - flows,
            3 * cc->transfers.size());
  EXPECT_EQ(cluster.bytes_on_route(net::Cluster::Route::kRailMultiHop), 0);
}

TEST(TransferAllocations, StripedTransfersAllocateNothingOnceWarm) {
  sim::Simulator sim;
  net::Cluster cluster(sim, photonic_cfg(2));
  wire_ring(cluster);
  const GpuId a = cluster.gpu_at(NodeId{0}, 0);
  const GpuId b = cluster.gpu_at(NodeId{1}, 0);
  int delivered = 0;
  const auto batch = [&] {
    for (int k = 0; k < 4; ++k) {
      cluster.transfer(a, b, 1'000'001, [&delivered] { ++delivered; });
      cluster.transfer(b, a, 999'999, [&delivered] { ++delivered; });
    }
    sim.run();
  };
  batch();
  batch();
  const auto flows = cluster.network().completed_flow_count();
  EXPECT_EQ(allocations_during(batch), 0);
  EXPECT_EQ(delivered, 24);
  // Two stripes per transfer, one per parallel circuit.
  EXPECT_EQ(cluster.network().completed_flow_count() - flows, 16u);
}

TEST(TransferAllocations, MultiHopRingForwardsAllocateNothingOnceWarm) {
  sim::Simulator sim;
  net::ClusterConfig cfg = photonic_cfg(8);
  cfg.fabric = net::FabricKind::kStaticRing;
  net::Cluster cluster(sim, cfg);
  wire_ring(cluster);
  std::vector<GpuId> path;
  cluster.rail_multihop_path(GpuId{0}, GpuId{4}, path);
  ASSERT_EQ(path.size(), 5u);
  int delivered = 0;
  const auto batch = [&] {
    for (int n = 0; n < 8; ++n) {
      // Three- and four-hop forwards around the ring.
      cluster.transfer(GpuId{n}, GpuId{(n + 3) % 8}, 50'000,
                       [&delivered] { ++delivered; });
      cluster.transfer(GpuId{n}, GpuId{(n + 4) % 8}, 50'000,
                       [&delivered] { ++delivered; });
    }
    sim.run();
  };
  batch();
  batch();
  const Bytes forwarded =
      cluster.bytes_on_route(net::Cluster::Route::kRailMultiHop);
  EXPECT_EQ(allocations_during(batch), 0);
  EXPECT_EQ(delivered, 48);
  EXPECT_EQ(cluster.bytes_on_route(net::Cluster::Route::kRailMultiHop) -
                forwarded,
            16 * 50'000);
}

TEST(TransferAllocations, RotorTwoHopForwardsAllocateNothingOnceWarm) {
  sim::Simulator sim;
  net::ClusterConfig cfg = photonic_cfg(4);
  cfg.fabric = net::FabricKind::kRotor;
  cfg.rotor_port_spread = 2;
  cfg.ocs_reconfig_delay = usecs(10);
  net::Cluster cluster(sim, cfg);
  core::RotorTransport rotor(sim, cluster);
  // Round 0 puts (0,3),(1,2) on port 0 and (1,3),(0,2) on port 1, so the
  // pairs (0,1) and (2,3) are two live hops apart.
  std::vector<GpuId> path;
  cluster.rail_multihop_path(GpuId{0}, GpuId{1}, path);
  ASSERT_EQ(path.size(), 3u);
  cluster.rail_multihop_path(GpuId{2}, GpuId{3}, path);
  ASSERT_EQ(path.size(), 3u);
  collective::Run run;
  run.group.id = GroupId{1};
  int delivered = 0;
  const auto batch = [&] {
    for (const auto& [src, dst] :
         {std::pair{0, 1}, std::pair{1, 0}, std::pair{2, 3}, std::pair{3, 2}}) {
      rotor.send(run, GpuId{src}, GpuId{dst}, 20'000,
                 [&delivered] { ++delivered; });
    }
    sim.run();
  };
  batch();
  batch();
  const Bytes forwarded =
      cluster.bytes_on_route(net::Cluster::Route::kRailMultiHop);
  EXPECT_EQ(allocations_during(batch), 0);
  EXPECT_EQ(delivered, 12);
  EXPECT_EQ(rotor.deferred_sends(), 0) << "every send forwards, none waits";
  EXPECT_EQ(rotor.rotations(), 0);
  EXPECT_EQ(cluster.bytes_on_route(net::Cluster::Route::kRailMultiHop) -
                forwarded,
            4 * 20'000);
}

// ---------------------------------------------------------------------------
// Compiling a collective shape.
// ---------------------------------------------------------------------------

// Compiling a shape straight from the planner builds no larger copy of it on
// the way: its largest block is the 16-byte-a-transfer UnitTransfer array
// itself. The 256-rank ring AllReduce is the
// largest shape the benchmark's 512-node cells compile.
TEST(TransferAllocations, ShapeCompileRequestsNoBlockLargerThanItsTransfers) {
  std::shared_ptr<const collective::CompiledCollective> cc;
  const std::size_t largest = largest_block_during([&] {
    cc = collective::compile(collective::CollectiveType::kAllReduce,
                             collective::Algorithm::kRing, 256);
  });
  ASSERT_EQ(cc->transfers.size(), 256u * 2 * 255);
  EXPECT_LE(largest,
            cc->transfers.size() * sizeof(collective::UnitTransfer));
}

// ---------------------------------------------------------------------------
// The fluid network's delivery slab.
// ---------------------------------------------------------------------------

constexpr Bandwidth k100G = Bandwidth::gbps(100);

TEST(TransferAllocations, DrainedFlowWaitsInTheDeliverySlabUnabortable) {
  sim::Simulator sim;
  net::FluidNetwork net(sim);
  const LinkId l = net.add_link(k100G);
  TimeNs done = -1;
  // Drains at 10 ms; the delivery follows 5 us later.
  const FlowId f =
      net.start_flow({l}, 125'000'000, usecs(5), [&] { done = sim.now(); });
  sim.run_until(msecs(10));
  EXPECT_FALSE(net.flow_active(f));
  EXPECT_FALSE(net.abort_flow(f)) << "a drained flow counts as completed";
  EXPECT_EQ(net.completed_flow_count(), 0u) << "not delivered yet";
  sim.run();
  EXPECT_EQ(done, msecs(10) + usecs(5));
  EXPECT_EQ(net.completed_flow_count(), 1u);
}

TEST(TransferAllocations, AbortedZeroByteFlowNeverDelivers) {
  sim::Simulator sim;
  net::FluidNetwork net(sim);
  bool fired = false;
  const FlowId f = net.start_flow({}, 0, usecs(5), [&] { fired = true; });
  EXPECT_TRUE(net.abort_flow(f));
  EXPECT_FALSE(net.abort_flow(f));
  int later = 0;
  net.start_flow({}, 0, usecs(5), [&] { ++later; });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(later, 1) << "the freed slot serves the next flow";
  EXPECT_EQ(net.completed_flow_count(), 1u);
}

TEST(TransferAllocations, DeliverySlotsAreReusedAcrossRounds) {
  sim::Simulator sim;
  net::FluidNetwork net(sim);
  std::vector<LinkId> links;
  for (int i = 0; i < 4; ++i) links.push_back(net.add_link(k100G));
  // Four flows drain at 1, 2, 3 and 4 ms and deliver 3 us later, each in
  // order, each exactly once. The callbacks capture one pointer, as the
  // data path's do.
  struct Log {
    sim::Simulator* sim = nullptr;
    TimeNs t0 = 0;
    std::vector<TimeNs> at;
  } log;
  log.sim = &sim;
  log.at.reserve(64);
  const auto round = [&] {
    log.t0 = sim.now();
    for (int i = 0; i < 4; ++i) {
      net.start_flow({links[static_cast<std::size_t>(i)]},
                     12'500'000LL * (i + 1), usecs(3), [&log] {
                       log.at.push_back(log.sim->now() - log.t0);
                     });
    }
    sim.run();
  };
  round();
  round();
  EXPECT_EQ(allocations_during(round), 0);
  ASSERT_EQ(log.at.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(log.at[4 * r + i],
                msecs(static_cast<TimeNs>(i) + 1) + usecs(3));
    }
  }
  EXPECT_EQ(net.completed_flow_count(), 12u);
}

TEST(TransferAllocations, SameInstantDeliveriesReuseTheirBatchBuffers) {
  sim::Simulator sim;
  net::FluidNetwork net(sim);
  constexpr int kFlows = 64;
  std::vector<LinkId> links;
  for (int i = 0; i < kFlows; ++i) links.push_back(net.add_link(k100G));
  // 64 equal flows on disjoint links drain at one instant and deliver 3 us
  // later together; a warm round must find every buffer that holds them
  // waiting from the round before.
  struct Log {
    sim::Simulator* sim = nullptr;
    TimeNs t0 = 0;
    int delivered = 0;
    int on_time = 0;
  } log;
  log.sim = &sim;
  const auto round = [&] {
    log.t0 = sim.now();
    for (const LinkId l : links) {
      net.start_flow({l}, 12'500'000, usecs(3), [&log] {
        ++log.delivered;
        if (log.sim->now() - log.t0 == msecs(1) + usecs(3)) ++log.on_time;
      });
    }
    sim.run();
  };
  round();
  round();
  EXPECT_EQ(allocations_during(round), 0);
  EXPECT_EQ(log.delivered, 3 * kFlows);
  EXPECT_EQ(log.on_time, 3 * kFlows);
  EXPECT_EQ(net.completed_flow_count(), 3u * kFlows);
}

}  // namespace
}  // namespace opus
