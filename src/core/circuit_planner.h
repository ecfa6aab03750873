// Circuit planning: maps a communication group + collective schedule onto
// OCS circuit layouts, one per rail.
//
// Ring-family schedules (ring AR/AG/RS, Send/Recv pairs) are *statically
// wirable*: their whole peer graph fits each member's NIC port budget and is
// held up for the collective's full duration. Peer-changing algorithms
// (recursive doubling/halving, pairwise AllToAll, trees beyond the port
// budget) are wired *per step* — the executor runs them step-synchronously
// and pays one reconfiguration per peer change (constraint C1).
//
// Port allocation (constraint C3): edges are assigned greedily to the first
// free port at each endpoint. When the whole layout leaves every endpoint
// with spare ports, circuits are striped (duplicated across port pairs) so
// a 2-member group on a 2-port NIC gets the full 400G, matching the paper's
// equal-bandwidth comparison against electrical rails.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "collective/comm_group.h"
#include "collective/compiled.h"
#include "net/cluster.h"
#include "net/ocs.h"

namespace opus::core {

/// Circuits to establish on one rail.
struct RailCircuits {
  RailId rail;
  std::vector<net::CircuitRequest> circuits;
};

class CircuitPlanner {
 public:
  /// `pipeline_stages` is the job's pipeline depth. Pipeline *pair* groups
  /// look like degree-1 edges to the planner, but an interior stage of a
  /// >2-stage pipeline needs both neighbours at once, so there kPP circuits
  /// are not striped: the second NIC port stays free for the other
  /// neighbour's circuit.
  explicit CircuitPlanner(const net::Cluster& cluster,
                          int pipeline_stages = 2);

  /// Static layout holding the whole schedule's peer graph at once, or
  /// nullopt when some endpoint would need more circuits than it has ports.
  std::optional<std::vector<RailCircuits>> plan_static(
      const collective::CommGroup& group,
      const collective::CompiledCollective& cc) const;

  /// Layout for one step of a peer-changing schedule. Throws if even a
  /// single step exceeds the port budget (the algorithm chooser should have
  /// prevented that) — except on a fault-tolerant cluster, where failures
  /// may have shrunk the budget mid-run after the algorithm was chosen:
  /// there the step plan is best-effort, dropping the circuits that no
  /// longer fit (their sends ride the cluster's multihop/park rescue paths
  /// until repair restores the ports).
  std::vector<RailCircuits> plan_step(
      const collective::CommGroup& group,
      const collective::CompiledCollective& cc, int step) const;

 private:
  /// Lowers (src gpu, dst gpu) peer pairs to per-rail node-graph edges:
  /// same-node pairs need no circuit; same-rail pairs ride their rail;
  /// cross-rank pairs ride the destination's rail from the PXN bridge node.
  struct RailEdge {
    int rail;
    int node_a;
    int node_b;
  };
  std::vector<RailEdge> lower_edges(
      const collective::CommGroup& group,
      std::span<const std::pair<int, int>> peer_pairs) const;

  /// best_effort: instead of failing the whole layout when an endpoint's
  /// degree exceeds its surviving ports, plan what fits and drop the rest.
  std::optional<std::vector<RailCircuits>> assign_ports(
      const std::vector<RailEdge>& edges, int stripe_limit,
      bool best_effort = false) const;
  int stripe_limit_for(collective::ParallelismDim dim) const;

  const net::Cluster& cluster_;
  /// Striping cap for kPP groups (every other dimension: the NIC's ports).
  int pp_stripe_limit_;
};

}  // namespace opus::core
