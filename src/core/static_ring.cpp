#include "core/static_ring.h"

#include "common/error.h"

namespace opus::core {

StaticRingTransport::StaticRingTransport(net::Cluster& cluster,
                                         net::NodeSpan span)
    : cluster_(cluster) {
  ensure(cluster_.fabric() == net::FabricKind::kStaticRing,
         "StaticRingTransport requires a static-ring fabric");
  ensure(span.first >= 0 && span.count >= 2 &&
             span.end() <= cluster_.n_nodes(),
         "StaticRingTransport: span must cover >= 2 nodes of the cluster");
  ensure(cluster_.config().nic_ports >= 2 || span.count == 2,
         "a ring over >2 nodes needs 2 NIC ports");
  const int nodes = span.count;
  ring_circuits_.resize(static_cast<std::size_t>(cluster_.n_rails()));
  for (int rail = 0; rail < cluster_.n_rails(); ++rail) {
    std::vector<net::CircuitRequest>& circuits =
        ring_circuits_[static_cast<std::size_t>(rail)];
    if (nodes == 2) {
      const GpuId a = cluster_.gpu_at(NodeId{span.first}, rail);
      const GpuId b = cluster_.gpu_at(NodeId{span.first + 1}, rail);
      circuits.push_back({cluster_.ocs_port(a, 0), cluster_.ocs_port(b, 0)});
      if (cluster_.config().nic_ports >= 2) {
        circuits.push_back({cluster_.ocs_port(a, 1), cluster_.ocs_port(b, 1)});
      }
    } else {
      for (int n = 0; n < nodes; ++n) {
        const GpuId a = cluster_.gpu_at(NodeId{span.first + n}, rail);
        const GpuId b =
            cluster_.gpu_at(NodeId{span.first + (n + 1) % nodes}, rail);
        circuits.push_back({cluster_.ocs_port(a, 0), cluster_.ocs_port(b, 1)});
      }
    }
    cluster_.ocs(RailId{rail}).force_circuits(circuits);
  }
}

void StaticRingTransport::resplice() {
  // Re-issue the original ring wiring. A segment with a still-failed
  // endpoint counts as satisfied and force_circuits skips it (the OCS's one
  // failed-port rule), so this restores exactly the segments whose ports
  // have been repaired. Re-forcing an already-live pair tears and
  // re-establishes the same instantaneous link — traffic on other segments
  // is untouched.
  for (int rail = 0; rail < cluster_.n_rails(); ++rail) {
    const auto& circuits = ring_circuits_[static_cast<std::size_t>(rail)];
    if (!cluster_.ocs(RailId{rail}).satisfied(circuits)) {
      cluster_.ocs(RailId{rail}).force_circuits(circuits);
    }
  }
}

}  // namespace opus::core
