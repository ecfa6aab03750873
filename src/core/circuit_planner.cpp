#include "core/circuit_planner.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/error.h"

namespace opus::core {

CircuitPlanner::CircuitPlanner(const net::Cluster& cluster,
                               int pipeline_stages)
    : cluster_(cluster),
      pp_stripe_limit_(pipeline_stages > 2 ? 1 : cluster.config().nic_ports) {}

std::vector<CircuitPlanner::RailEdge> CircuitPlanner::lower_edges(
    const collective::CommGroup& group,
    std::span<const std::pair<int, int>> peer_pairs) const {
  std::set<std::tuple<int, int, int>> edges;  // (rail, node_lo, node_hi)
  for (const auto& [si, di] : peer_pairs) {
    const GpuId src = group.ranks[static_cast<std::size_t>(si)];
    const GpuId dst = group.ranks[static_cast<std::size_t>(di)];
    if (cluster_.same_node(src, dst)) continue;  // scale-up, no circuit
    const int src_local = cluster_.local_rank(src);
    const int dst_local = cluster_.local_rank(dst);
    const int node_src = cluster_.node_of(src).value();
    const int node_dst = cluster_.node_of(dst).value();
    if (src_local == dst_local) {
      edges.emplace(src_local, std::min(node_src, node_dst),
                    std::max(node_src, node_dst));
    } else {
      // PXN: NVLink to the bridge GPU on src's node that shares dst's rail,
      // then a circuit bridge-node -> dst-node on dst's rail.
      edges.emplace(dst_local, std::min(node_src, node_dst),
                    std::max(node_src, node_dst));
    }
  }
  std::vector<RailEdge> out;
  out.reserve(edges.size());
  for (const auto& [rail, a, b] : edges) out.push_back(RailEdge{rail, a, b});
  return out;
}

int CircuitPlanner::stripe_limit_for(collective::ParallelismDim dim) const {
  return dim == collective::ParallelismDim::kPP ? pp_stripe_limit_
                                                : cluster_.config().nic_ports;
}

std::optional<std::vector<RailCircuits>> CircuitPlanner::assign_ports(
    const std::vector<RailEdge>& edges, int stripe_limit,
    bool best_effort) const {
  const int n_ports = cluster_.config().nic_ports;

  // Group edges per rail and compute node degrees.
  std::map<int, std::vector<RailEdge>> by_rail;
  for (const RailEdge& e : edges) by_rail[e.rail].push_back(e);

  std::vector<RailCircuits> out;
  for (auto& [rail, rail_edges] : by_rail) {
    const auto& sw = cluster_.ocs(RailId{rail});
    // Per-node port budget, skipping failed ports (LUMION-style recovery:
    // circuits re-plan onto the surviving ports).
    auto healthy_ports = [&](int node) {
      const GpuId g = cluster_.gpu_at(NodeId{node}, rail);
      int healthy = 0;
      for (int p = 0; p < n_ports; ++p) {
        if (!sw.failed(cluster_.ocs_port(g, p))) ++healthy;
      }
      return healthy;
    };

    std::map<int, int> degree;
    for (const RailEdge& e : rail_edges) {
      ++degree[e.node_a];
      ++degree[e.node_b];
    }
    int min_budget = n_ports;
    int max_degree = 0;
    for (const auto& [node, d] : degree) {
      max_degree = std::max(max_degree, d);
      // C1/C3 violation: some endpoint needs more circuits than it has
      // healthy ports. Best-effort planning presses on and drops the
      // overflow during allocation instead.
      if (d > healthy_ports(node) && !best_effort) return std::nullopt;
      min_budget = std::min(min_budget, healthy_ports(node));
    }

    // Striping: replicate every edge while all endpoints have ports left,
    // capped by the dimension's stripe limit.
    const int stripes =
        std::min(stripe_limit,
                 std::max(1, min_budget / std::max(max_degree, 1)));

    RailCircuits rc;
    rc.rail = RailId{rail};
    std::map<int, int> next_port;  // node -> next candidate NIC port
    auto peek_port = [&](int node) -> int {
      const GpuId g = cluster_.gpu_at(NodeId{node}, rail);
      int& cursor = next_port[node];
      while (cursor < n_ports &&
             sw.failed(cluster_.ocs_port(g, cursor))) {
        ++cursor;
      }
      return cursor < n_ports ? cursor : -1;
    };
    auto alloc_port = [&](int node) {
      ensure(peek_port(node) >= 0,
             "circuit planner: port budget exceeded during striping");
      const GpuId g = cluster_.gpu_at(NodeId{node}, rail);
      return cluster_.ocs_port(g, next_port[node]++);
    };
    for (const RailEdge& e : rail_edges) {
      for (int s = 0; s < stripes; ++s) {
        // Best-effort: an edge whose endpoints ran out of healthy ports is
        // dropped whole (peek before touching either cursor, so the partner
        // port is not leaked on a half-plannable circuit).
        if (best_effort &&
            (peek_port(e.node_a) < 0 || peek_port(e.node_b) < 0)) {
          break;
        }
        rc.circuits.push_back(
            net::CircuitRequest{alloc_port(e.node_a), alloc_port(e.node_b)});
      }
    }
    out.push_back(std::move(rc));
  }
  return out;
}

std::optional<std::vector<RailCircuits>> CircuitPlanner::plan_static(
    const collective::CommGroup& group,
    const collective::CompiledCollective& cc) const {
  ensure(cluster_.photonic(), "circuit planner requires photonic rails");
  return assign_ports(lower_edges(group, cc.peer_pairs),
                      stripe_limit_for(group.dim));
}

std::vector<RailCircuits> CircuitPlanner::plan_step(
    const collective::CommGroup& group,
    const collective::CompiledCollective& cc, int step) const {
  ensure(cluster_.photonic(), "circuit planner requires photonic rails");
  ensure(step >= 0 && step < cc.n_steps,
         "circuit planner: step out of range");
  auto plan = assign_ports(lower_edges(group, cc.peer_pairs_of_step(step)),
                           stripe_limit_for(group.dim),
                           /*best_effort=*/cluster_.fault_tolerant());
  ensure(plan.has_value(),
         "circuit planner: a single step exceeds the NIC port budget; the "
         "algorithm chooser must fall back to a lower-degree algorithm (C1)");
  return *plan;
}

}  // namespace opus::core
