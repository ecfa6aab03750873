// Ablation: collective algorithm choice under the circuit degree constraint
// (C1). Ring vs recursive doubling vs binomial tree for an 8-node rail
// group, on electrical rails (full connectivity) and on photonic rails
// (2-port NICs, per-step reconfiguration for peer-changing algorithms).
#include <cstdio>

#include "collective/executor.h"
#include "collective/planner.h"
#include "common/table.h"
#include "core/opus_transport.h"

namespace {

using namespace opus;
using namespace opus::collective;

TimeNs run_collective(net::FabricKind kind, CollectiveType type, Algorithm algo,
                      Bytes payload, TimeNs reconfig) {
  sim::Simulator sim;
  net::ClusterConfig cfg;
  cfg.n_nodes = 8;
  cfg.gpus_per_node = 2;
  cfg.nic_ports = 2;
  cfg.fabric = kind;
  cfg.ocs_reconfig_delay = reconfig;
  net::Cluster cluster(sim, cfg);

  std::unique_ptr<Transport> transport;
  if (kind == net::FabricKind::kOpusPhotonic) {
    transport = std::make_unique<core::OpusTransport>(sim, cluster);
  } else {
    transport = std::make_unique<DirectTransport>(cluster);
  }
  CollectiveExecutor exec(sim, *transport);
  CommGroup group;
  group.id = GroupId{1};
  group.dim = ParallelismDim::kDP;
  for (int n = 0; n < 8; ++n) group.ranks.push_back(cluster.gpu_at(NodeId{n}, 0));
  const auto cc = compile(type, algo, 8);
  TimeNs duration = -1;
  exec.run(group, cc, payload,
           [&](const CollectiveExecutor::Result& r) { duration = r.duration(); });
  sim.run();
  return duration;
}

}  // namespace

int main() {
  std::printf("== Ablation: collective algorithms on circuits (C1) ==\n\n");
  struct Algo {
    CollectiveType type;
    Algorithm algo;
    const char* name;
  };
  const Algo algos[] = {
      {CollectiveType::kAllGather, Algorithm::kRing, "AllGather/Ring"},
      {CollectiveType::kAllGather, Algorithm::kRecursiveDoubling,
       "AllGather/RecursiveDoubling"},
      {CollectiveType::kAllReduce, Algorithm::kRing, "AllReduce/Ring"},
      {CollectiveType::kAllReduce, Algorithm::kRecursiveHalvingDoubling,
       "AllReduce/RecHalvingDoubling"},
      {CollectiveType::kAllReduce, Algorithm::kBinomialTree,
       "AllReduce/BinomialTree"},
      {CollectiveType::kAllToAll, Algorithm::kPairwise, "AllToAll/Pairwise"},
  };

  for (Bytes payload : {kib(256), mib(64)}) {
    std::printf("payload = %s, 8 ranks, 15 ms OCS (3D MEMS):\n",
                format_bytes(payload).c_str());
    TextTable table({"Algorithm", "Electrical rail", "Photonic rail",
                     "Photonic penalty"});
    for (const Algo& a : algos) {
      const TimeNs e = run_collective(net::FabricKind::kElectrical, a.type,
                                      a.algo, payload, 0);
      const TimeNs p = run_collective(net::FabricKind::kOpusPhotonic, a.type, a.algo,
                                      payload, msecs(15));
      table.add_row({a.name, format_time(e), format_time(p),
                     fmt_double(static_cast<double>(p) /
                                    static_cast<double>(e),
                                1) +
                         "x"});
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf(
      "Ring holds its circuits for the whole collective (one\n"
      "reconfiguration); recursive doubling and pairwise AllToAll pay one\n"
      "reconfiguration per peer change, which is why C1 restricts photonic\n"
      "rails to ring algorithms.\n");
  return 0;
}
