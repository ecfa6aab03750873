// Static pre-job ring topology: the "reconfigure once, before the job"
// baseline the paper contrasts Opus against (TPUv4-style, §3).
//
// At construction, every rail's OCS is wired into a fixed bidirectional
// ring over its nodes and never reconfigured again. Collectives whose peers
// are not ring neighbours ride multi-hop forwarding through intermediate
// GPUs — paying the latency and bandwidth tax of §3 ("forwarding traffic
// via intermediate GPUs inflates latency and incurs a bandwidth tax")
// instead of Opus's reconfiguration delay. The comparison is regenerated by
// bench_ablation_static_topology.
//
// Select it end-to-end with FabricKind::kStaticRing in ExperimentConfig
// (the fabric that forwards without a hop limit); this class wires the
// rings at construction and routes sends straight through the cluster.
#pragma once

#include "collective/transport.h"
#include "net/cluster.h"

namespace opus::core {

class StaticRingTransport final : public collective::Transport {
 public:
  /// Wires each rail into a ring at time zero. Requires a kStaticRing
  /// cluster and at least 2 NIC ports (ring degree).
  /// The span-taking overload rings only the nodes of `span` — a tenant's
  /// pre-job topology on a shared fleet cluster; rings of distinct tenants
  /// are disjoint, so multi-hop forwarding never leaves the span.
  StaticRingTransport(net::Cluster& cluster, net::NodeSpan span);
  explicit StaticRingTransport(net::Cluster& cluster)
      : StaticRingTransport(cluster, net::NodeSpan{0, cluster.n_nodes()}) {}

  // The topology never changes: the default preparation hooks apply.
  void send(const collective::Run&, GpuId src, GpuId dst, Bytes bytes,
            std::function<void()> done) override {
    cluster_.transfer(src, dst, bytes, std::move(done));
  }

  /// Restores ring segments whose ports have been repaired after failure
  /// churn (the ring's fault reaction: between failure and repair, traffic
  /// forwards the long way around or parks). No-op while the ring is whole.
  void resplice();

 private:
  net::Cluster& cluster_;
  /// Per-rail ring wiring as forced at construction (resplice re-issues it).
  std::vector<std::vector<net::CircuitRequest>> ring_circuits_;
};

}  // namespace opus::core
