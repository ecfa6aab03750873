// Ablation: demand-driven (Opus) versus traffic-oblivious (RotorNet-style)
// reconfiguration for ML collectives — the §3 "Key Insight" argument that
// prior microsecond-scale oblivious designs are "poorly suited to the
// repetitive and high-volume collective communication patterns of ML
// workloads", quantified on identical hardware assumptions.
#include <cstdio>

#include <memory>
#include <vector>

#include "collective/executor.h"
#include "collective/planner.h"
#include "common/table.h"
#include "core/opus_transport.h"
#include "core/rotor.h"
#include "core/sweep.h"

namespace {

using namespace opus;
using namespace opus::collective;

net::ClusterConfig cluster_cfg(net::FabricKind fabric, int nodes,
                               TimeNs ocs_delay) {
  net::ClusterConfig cfg;
  cfg.n_nodes = nodes;
  cfg.gpus_per_node = 2;
  cfg.nic_ports = 2;
  cfg.fabric = fabric;
  // Classic single-matching rotor (spread 1): the ablation isolates the
  // oblivious-rotation penalty, not RotorNet's two-hop routing.
  cfg.ocs_reconfig_delay = ocs_delay;
  return cfg;
}

TimeNs run_collective(bool rotor, int nodes, TimeNs ocs_delay,
                      TimeNs slot_time, CollectiveType type, Bytes payload) {
  sim::Simulator sim;
  net::Cluster cluster(
      sim, cluster_cfg(rotor ? net::FabricKind::kRotor
                             : net::FabricKind::kOpusPhotonic,
                       nodes, ocs_delay));
  std::unique_ptr<Transport> transport;
  if (rotor) {
    core::RotorTransport::Options opts;
    opts.slot_time = slot_time;
    transport = std::make_unique<core::RotorTransport>(sim, cluster, opts);
  } else {
    transport = std::make_unique<core::OpusTransport>(sim, cluster);
  }
  CollectiveExecutor exec(sim, *transport);
  CommGroup g;
  g.id = GroupId{1};
  g.dim = ParallelismDim::kDP;
  for (int n = 0; n < nodes; ++n) g.ranks.push_back(cluster.gpu_at(NodeId{n}, 0));
  const auto algo = choose_algorithm(type, nodes, payload, 2);
  const auto cc = compile(type, algo, nodes);
  TimeNs duration = -1;
  exec.run(g, cc, payload,
           [&](const CollectiveExecutor::Result& r) {
    duration = r.duration();
  });
  sim.run();
  return duration;
}

}  // namespace

int main() {
  std::printf(
      "== Ablation: demand-driven (Opus) vs traffic-oblivious (rotor) ==\n");
  std::printf(
      "(8-node rail group, 10us OCS for both; rotor slot = 10x OCS delay)\n\n");

  TextTable table({"Collective", "Payload", "Opus", "Rotor", "Rotor/Opus"});
  const TimeNs ocs = usecs(10);
  const TimeNs slot = usecs(100);
  struct Case {
    CollectiveType type;
    Bytes payload;
    const char* name;
  };
  const Case cases[] = {
      {CollectiveType::kAllReduce, mib(1), "AllReduce"},
      {CollectiveType::kAllReduce, mib(64), "AllReduce"},
      {CollectiveType::kAllGather, mib(64), "AllGather"},
      {CollectiveType::kReduceScatter, mib(64), "ReduceScatter"},
      {CollectiveType::kAllToAll, mib(64), "AllToAll"},
  };
  // Every (case, fabric) run owns its own Simulator: fan the 2x grid across
  // the sweep runner's thread pool (OPUS_SWEEP_THREADS overrides the width).
  constexpr std::size_t n_cases = std::size(cases);
  std::vector<TimeNs> opus_times(n_cases);
  std::vector<TimeNs> rotor_times(n_cases);
  core::parallel_for(2 * n_cases, core::sweep_thread_count(),
                     [&](std::size_t i) {
                       const Case& c = cases[i % n_cases];
                       const bool rotor = i >= n_cases;
                       const TimeNs t = run_collective(rotor, 8, ocs, slot,
                                                       c.type, c.payload);
                       (rotor ? rotor_times : opus_times)[i % n_cases] = t;
                     });
  for (std::size_t i = 0; i < n_cases; ++i) {
    const Case& c = cases[i];
    table.add_row({c.name, format_bytes(c.payload), format_time(opus_times[i]),
                   format_time(rotor_times[i]),
                   fmt_double(static_cast<double>(rotor_times[i]) /
                                  static_cast<double>(opus_times[i]),
                              1) +
                       "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "The rotor's matchings connect each ring edge only 1/(n-1) of the\n"
      "time, so pipelined collective steps idle between slots; Opus holds\n"
      "exactly the circuits the collective needs for its whole duration.\n"
      "AllToAll narrows the gap (the rotor's native traffic pattern), as\n"
      "RotorNet's designers intended — but ML traffic is rings, not\n"
      "uniform random, which is the paper's point.\n");
  return 0;
}
