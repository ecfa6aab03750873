// Google-benchmark microbenchmarks of the simulation substrates: event
// engine throughput, fluid max-min re-solve cost, OCS reconfiguration,
// iteration-engine event scaling, and collective planning/verification.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "collective/compiled.h"
#include "collective/planner.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "collective/transport.h"
#include "collective/verifier.h"
#include "net/cluster.h"
#include "net/fluid.h"
#include "net/ocs.h"
#include "sim/simulator.h"
#include "workload/engine.h"
#include "workload/iteration.h"

namespace {

using namespace opus;

void BM_EventEngineScheduleFire(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(i % 1000, [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventEngineScheduleFire)->Arg(1000)->Arg(10000)->Arg(100000);

// Event-heap scaling: cost of one schedule+fire while P unrelated events
// sit parked in the future (the rotor's pending rotations, fleet arrivals,
// and fluid completion horizons). Each parked event is its own run, so
// the (time, seq) binary heap of runs pays O(log P) per operation:
// measured 52 / 66 / 79 ns at 1k / 100k / 1M parked events (Release,
// 4-core x86 container). items/s = events fired.
void BM_EventQueuePendingScaling(benchmark::State& state) {
  const auto pending = static_cast<int>(state.range(0));
  sim::Simulator sim;
  for (int i = 0; i < pending; ++i) {
    sim.schedule_at(secs(10'000) + i, [] {});
  }
  for (auto _ : state) {
    sim.schedule_after(100, [] {});
    sim.run_steps(1);
    benchmark::DoNotOptimize(sim.events_fired());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePendingScaling)
    ->Arg(1'000)
    ->Arg(100'000)
    ->Arg(1'000'000);

// Same-instant bursts: k events per instant, with 128 events parked in the
// future so every instant opened pays a real heap push and pop. The Opus
// cell fires ~98% of its events at the instant of the event before; the
// rotor cell's instants hold about one event (k = 1, the singleton path).
// items/s = events fired.
void BM_EventSameInstantBurst(benchmark::State& state) {
  const auto k = state.range(0);
  sim::Simulator sim;
  for (int i = 0; i < 128; ++i) sim.schedule_at(secs(10'000) + i, [] {});
  for (auto _ : state) {
    const TimeNs t = sim.now() + 1;
    for (std::int64_t i = 0; i < k; ++i) sim.schedule_at(t, [] {});
    benchmark::DoNotOptimize(sim.run_until(t));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_EventSameInstantBurst)->Arg(1)->Arg(16)->Arg(256);

// Scale-independent cluster state: the cost of hosting one 64-node tenant
// (construction, span assignment, and a round of rail + NVLink transfers)
// as the cluster around it grows from 64 to 4096 nodes. With lazy wiring
// and span-indexed tenant state, the idle remainder contributes only id
// tables — ns/op must stay flat across the sweep. Before the refactor this
// curve rose with n_nodes (eager per-node link construction).
void BM_ClusterActiveSpanScaling(benchmark::State& state) {
  const auto n_nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::ClusterConfig cfg;
    cfg.n_nodes = n_nodes;
    cfg.gpus_per_node = 2;
    cfg.fabric = net::FabricKind::kElectrical;
    net::Cluster cluster(sim, cfg);
    cluster.assign_tenant(0, net::NodeSpan{0, 64});
    for (int i = 0; i < 64; ++i) {
      const GpuId a = cluster.gpu_at(NodeId{i}, 0);
      const GpuId b = cluster.gpu_at(NodeId{(i + 1) % 64}, 0);
      cluster.transfer(a, b, 1 << 20, [] {});
      cluster.transfer(a, cluster.gpu_at(NodeId{i}, 1), 1 << 20, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(cluster.network().link_count());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_ClusterActiveSpanScaling)->Arg(64)->Arg(512)->Arg(4096);

void BM_FluidMaxMinResolve(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::FluidNetwork net(sim);
    std::vector<LinkId> links;
    for (int i = 0; i < 64; ++i) links.push_back(net.add_link(Bandwidth::gbps(400)));
    for (int f = 0; f < flows; ++f) {
      // The starts coalesce into one max-min solve at the end of the
      // instant; completions then re-solve once per completion instant.
      net.start_flow({links[static_cast<std::size_t>(f % 64)],
                      links[static_cast<std::size_t>((f + 7) % 64)]},
                     mib(1), 0, nullptr);
    }
    sim.run();
    benchmark::DoNotOptimize(net.completed_flow_count());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidMaxMinResolve)->Arg(16)->Arg(64)->Arg(256);

// Flow-registry iteration cost: N long-lived flows held active while a
// link's capacity flaps, and every tick forces the pending solve with an
// allocated_bps read (set_capacity alone only marks the network dirty), so
// each tick is one full max-min re-solve over the registry (the static-ring
// hot path in miniature: the 512-node cell does 2.87M such solves). With the
// hash-map registry each re-solve iterated an unordered_map and hashed a
// FlowId per per-link lookup; the dense slot-indexed registry walks a
// contiguous active-slot index and resolves every id with an array index.
// items/s = flow re-rates per second.
void BM_FluidRegistryIteration(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  sim::Simulator sim;
  net::FluidNetwork net(sim);
  std::vector<LinkId> links;
  for (int i = 0; i < 64; ++i) {
    links.push_back(net.add_link(Bandwidth::gbps(400)));
  }
  for (int f = 0; f < flows; ++f) {
    // Large enough that nothing drains while the clock stands still.
    net.start_flow({links[static_cast<std::size_t>(f % 64)],
                    links[static_cast<std::size_t>((f + 7) % 64)]},
                   gib(64), 0, nullptr);
  }
  bool wide = false;
  for (auto _ : state) {
    wide = !wide;
    net.set_capacity(links[0],
                     wide ? Bandwidth::gbps(800) : Bandwidth::gbps(400));
    benchmark::DoNotOptimize(net.allocated_bps(links[0]));
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FluidRegistryIteration)->Arg(64)->Arg(256)->Arg(1024);

// Rotor-style reconfiguration churn: every round retargets a 64-port OCS to
// a fresh perfect matching (net::round_robin_circuits — the rotor's own
// rotation schedule), pushes one flow through each direction of every
// circuit, and drains to quiescence. Each round introduces 32
// never-before-seen port pairs, yet each port keeps its one transmit link,
// so the link table stays at 64 and re-solve cost stays flat in the round
// count (the `links` counter reports the table size).
void BM_FluidChurnResolve(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  constexpr int kPorts = 64;
  double lifetime_links = 0.0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::FluidNetwork net(sim);
    net::OpticalCircuitSwitch sw(sim, net, kPorts, Bandwidth::gbps(400),
                                 usecs(1), "churn");
    for (int r = 0; r < rounds; ++r) {
      const auto circuits = net::round_robin_circuits(kPorts, r);
      sw.reconfigure(circuits, nullptr);
      sim.run();
      for (const auto& c : circuits) {
        net.start_flow({sw.link(c.a, c.b)}, mib(4), 0, nullptr);
        net.start_flow({sw.link(c.b, c.a)}, mib(4), 0, nullptr);
      }
      sim.run();
    }
    lifetime_links = static_cast<double>(net.link_count());
    benchmark::DoNotOptimize(net.completed_flow_count());
  }
  state.counters["links"] = lifetime_links;
  state.SetItemsProcessed(state.iterations() * rounds * kPorts);
}
BENCHMARK(BM_FluidChurnResolve)->Arg(4)->Arg(16)->Arg(63);

// Same-instant drain: N equal flows on disjoint links (a collective step on
// dedicated circuits) drain at one instant and wait out the same rail
// latency, so one delivery event runs all N callbacks in drain order. Each
// iteration is one warm round on a kept network: the completion event plus
// one delivery event, whatever N. `events_per_flow` is the acceptance
// metric: 2/N here, against (N+1)/N with one delivery event per flow.
// items/s = flows delivered.
void BM_FluidSameInstantDrain(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  sim::Simulator sim;
  net::FluidNetwork net(sim);
  std::vector<LinkId> links;
  for (int i = 0; i < n; ++i) links.push_back(net.add_link(Bandwidth::gbps(400)));
  std::int64_t delivered = 0;
  const std::uint64_t events_before = sim.events_fired();
  for (auto _ : state) {
    for (const LinkId l : links) {
      net.start_flow({l}, mib(1), usecs(1), [&delivered] { ++delivered; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.counters["events_per_flow"] =
      static_cast<double>(sim.events_fired() - events_before) /
      static_cast<double>(delivered);
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_FluidSameInstantDrain)->Arg(1)->Arg(64)->Arg(512);

// Iteration-engine event scaling: K compute spans chained back to back,
// each spanning every GPU of an N-node world (the data-parallel
// per-microbatch shape). The engine coalesces the parts of a span that
// start together into ONE completion event, so the per-iteration event
// count must track the number of active spans (K), not world size (N) —
// the scaling ceiling the 512-node matrix leg leans on. The reported
// `events_per_iter` counter is the acceptance metric: flat in N.
void BM_EngineEventScaling(benchmark::State& state) {
  const auto nodes = static_cast<int>(state.range(0));
  constexpr int kSpans = 16;
  double events_per_iter = 0.0;
  for (auto _ : state) {
    sim::Simulator sim;
    net::ClusterConfig ncfg;
    ncfg.fabric = net::FabricKind::kElectrical;
    ncfg.n_nodes = nodes;
    ncfg.gpus_per_node = 1;
    net::Cluster cluster(sim, ncfg);
    collective::DirectTransport transport(cluster);

    workload::IterationDag dag;
    for (int k = 0; k < kSpans; ++k) {
      workload::Op op;
      op.id = OpId{k};
      op.kind = workload::OpKind::kCompute;
      op.label = "span";
      op.duration = usecs(100);
      for (int g = 0; g < cluster.n_gpus(); ++g) op.gpus.push_back(GpuId{g});
      if (k > 0) op.deps.push_back(OpId{k - 1});
      dag.ops.push_back(std::move(op));
    }

    workload::IterationEngine::Options opts;
    opts.dispatch_min = 0;
    opts.dispatch_max = 0;
    workload::IterationEngine engine(sim, cluster, transport, nullptr, opts);
    engine.run_to_completion(dag, 1);
    events_per_iter = static_cast<double>(sim.events_fired());
    benchmark::DoNotOptimize(events_per_iter);
  }
  state.counters["events_per_iter"] = events_per_iter;
  state.counters["spans"] = kSpans;
  state.SetItemsProcessed(state.iterations() * kSpans);
}
BENCHMARK(BM_EngineEventScaling)->Arg(64)->Arg(256)->Arg(512);

// Rotor rotation on a 512-port OCS: every iteration requests the next of 64
// precomputed perfect matchings through reconfigure(), the switch's one
// reconfiguration transaction — one dark interval, one completion event,
// O(ports) array work over the ports' own transmit links, no sort or hash
// per rotation. Per-rotation cost must stay flat however many rotations have
// already run (the rotor perf ceiling: per-rotation work that grows with
// lifetime circuit churn made the 512-node matrix cell scale with it).
// items/s = circuits established.
void BM_OcsRotation(benchmark::State& state) {
  constexpr int kPorts = 512;
  constexpr int kRounds = 64;
  sim::Simulator sim;
  net::FluidNetwork net(sim);
  net::OpticalCircuitSwitch sw(sim, net, kPorts, Bandwidth::gbps(400),
                               usecs(1), "rot");
  std::vector<std::vector<net::CircuitRequest>> rounds;
  for (int r = 0; r < kRounds; ++r) {
    rounds.push_back(net::round_robin_circuits(kPorts, r));
  }
  int r = 0;
  for (auto _ : state) {
    sw.reconfigure(rounds[static_cast<std::size_t>(r)], nullptr);
    sim.run();
    r = (r + 1) % kRounds;
  }
  state.SetItemsProcessed(state.iterations() * (kPorts / 2));
}
BENCHMARK(BM_OcsRotation);

void BM_OcsReconfigure(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::FluidNetwork net(sim);
    net::OpticalCircuitSwitch sw(sim, net, 576, Bandwidth::gbps(200),
                                 msecs(25), "bench");
    std::vector<net::CircuitRequest> circuits;
    for (int p = 0; p + 1 < 576; p += 2) {
      circuits.push_back({PortId{p}, PortId{p + 1}});
    }
    sw.reconfigure(circuits, nullptr);
    sim.run();
    benchmark::DoNotOptimize(sw.stats().circuits_established);
  }
}
BENCHMARK(BM_OcsReconfigure);

// Telemetry overhead guard: the multi-rail static-ring matrix cell with the
// telemetry hub off (arg 0 — the default-config path every perf-sensitive
// run takes) and on (arg 1: metrics registry + 1 ms probe, in-memory only,
// no file exports). The ring is the instrumentation-hottest fabric — its
// ~64-hop forwarding chains drive millions of max-min re-solves, each
// bumping the always-on solver tallies that telemetry polls as pull-gauges
// — so disabled-mode overhead would surface here first. Acceptance: arg-0
// wall time within 2% of the pre-instrumentation history for this cell
// (telemetry off compiles down to a handful of null-pointer branches); the
// arg-0 -> arg-1 delta is the measured cost of turning metrics on.
// OPUS_BENCH_SMOKE=1 shrinks 512 nodes -> 64 so the smoke pass stays fast;
// the full-size cell matches the FiveHundredTwelveNodeStaticRing CI leg.
void BM_MetricsOverhead(benchmark::State& state) {
  const bool telemetry_on = state.range(0) != 0;
  const int nodes = bench::smoke_mode() ? 64 : 512;
  core::ExperimentConfig cfg;
  cfg.model = workload::ModelConfig::test_tiny();
  cfg.model.n_layers = 8;
  cfg.gpus_per_node = 2;
  cfg.parallelism.tp = 2;
  cfg.parallelism.dp = nodes / 8;
  cfg.parallelism.pp = 8;
  cfg.parallelism.n_microbatches = 8;
  cfg.parallelism.microbatch_size = 1;
  cfg.fabric = net::FabricKind::kStaticRing;
  cfg.iterations = 1;
  cfg.iteration.simulate_tp_comm = false;
  cfg.record_compute_trace = false;
  if (telemetry_on) {
    cfg.telemetry.metrics = true;
    cfg.telemetry.sample_interval = msecs(1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_experiment(cfg));
  }
  state.counters["nodes"] = nodes;
  state.counters["telemetry"] = telemetry_on ? 1 : 0;
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Ring compiling: the 256-rank groups of the 512-node Table-3 cell compile
// ReduceScatter, AllGather and AllReduce rings of 65,280-130,560 transfers
// straight from the planner. items/s = transfers.
void compile_ring(benchmark::State& state, collective::CollectiveType type) {
  const auto n = static_cast<int>(state.range(0));
  std::size_t transfers = 0;
  for (auto _ : state) {
    const auto cc = collective::compile(type, collective::Algorithm::kRing, n);
    transfers = cc->transfers.size();
    benchmark::DoNotOptimize(cc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(transfers));
}
void BM_CompileRingReduceScatter(benchmark::State& state) {
  compile_ring(state, collective::CollectiveType::kReduceScatter);
}
void BM_CompileRingAllGather(benchmark::State& state) {
  compile_ring(state, collective::CollectiveType::kAllGather);
}
void BM_CompileRingAllReduce(benchmark::State& state) {
  compile_ring(state, collective::CollectiveType::kAllReduce);
}
BENCHMARK(BM_CompileRingReduceScatter)->Arg(256);
BENCHMARK(BM_CompileRingAllGather)->Arg(256);
BENCHMARK(BM_CompileRingAllReduce)->Arg(8)->Arg(64)->Arg(256)->Arg(512);

void BM_VerifyRingAllReduce(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(collective::verify_shape(
        collective::CollectiveType::kAllReduce, collective::Algorithm::kRing,
        n));
  }
}
BENCHMARK(BM_VerifyRingAllReduce)->Arg(8)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
