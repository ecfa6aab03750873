// Placement engine: carves contiguous node ranges out of one shared
// cluster for arriving jobs and tracks the fragmentation this induces.
//
// Contiguity is a physical constraint worth modelling, not a
// simplification: a tenant's rail sub-fabric (its static ring, its rotor
// matchings, its Opus circuit block) lives on the OCS ports of its nodes,
// and scattering a job across the port space strands ports between tenants
// (Morphlux's motivation). Two policies:
//
//  - kFirstFit: lowest-addressed free extent that fits, taken at its start
//    (the classic baseline).
//  - kRailAware: prefer a start aligned to the job's footprint rounded up
//    to a power of two — buddy-style alignment keeps each tenant's OCS port
//    block aligned so departures coalesce into reusable aligned holes
//    instead of shearing the port space; falls back to best-fit (smallest
//    adequate extent) when no aligned start exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/cluster.h"

namespace opus::fleet {

enum class PlacementPolicy { kFirstFit, kRailAware };

class PlacementEngine {
 public:
  PlacementEngine(int n_nodes, PlacementPolicy policy);

  int n_nodes() const { return n_nodes_; }
  PlacementPolicy policy() const { return policy_; }

  /// Allocates a contiguous span of `count` nodes, or nullopt when no free
  /// extent fits (the caller queues the job).
  std::optional<net::NodeSpan> allocate(int count);

  /// Returns a span allocated earlier; adjacent free extents coalesce.
  void release(net::NodeSpan span);

  // ---- fragmentation metrics ----------------------------------------------
  int free_nodes() const;
  int largest_free_extent() const;
  int free_extent_count() const { return static_cast<int>(free_.size()); }
  /// External fragmentation in [0, 1]: 1 - largest_free_extent/free_nodes
  /// (0 when fully free or fully packed — nothing is stranded).
  double fragmentation() const;

  // ---- scale-independence instrumentation ---------------------------------
  // The engine's state is the free-extent interval list — at most one
  // extent per live-tenant boundary plus one, never proportional to
  // n_nodes. These counters let tests pin that: peak_free_extents bounds
  // resident state, extents_scanned bounds per-allocate work. Pure
  // observation; they never influence placement decisions.
  std::int64_t allocations() const { return allocations_; }
  std::int64_t releases() const { return releases_; }
  /// Total extents examined across all allocate() calls (scan work).
  std::int64_t extents_scanned() const { return extents_scanned_; }
  /// High-water mark of the interval list length over the engine's life.
  int peak_free_extents() const { return peak_free_extents_; }

 private:
  struct Extent {
    int first = 0;
    int count = 0;
    int end() const { return first + count; }
  };

  std::optional<net::NodeSpan> take(std::size_t extent_index, int start,
                                    int count);

  int n_nodes_;
  PlacementPolicy policy_;
  std::vector<Extent> free_;  // sorted by first, pairwise disjoint

  std::int64_t allocations_ = 0;
  std::int64_t releases_ = 0;
  std::int64_t extents_scanned_ = 0;
  int peak_free_extents_ = 1;  // the initial all-free extent
};

}  // namespace opus::fleet
