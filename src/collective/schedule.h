// Collective operation schedules.
//
// A schedule is the full set of point-to-point transfers a collective
// algorithm performs, organized into steps. Transfers carry enough chunk
// metadata for the symbolic verifier to prove the collective's postcondition
// (every rank ends with the right data, each contribution counted exactly
// once) independent of timing.
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace opus::collective {

enum class CollectiveType {
  kAllReduce,
  kAllGather,
  kReduceScatter,
  kAllToAll,
  kBroadcast,
  kReduce,
  kSendRecv,  ///< point-to-point (pipeline parallelism)
  kBarrier,
};

enum class Algorithm {
  kRing,              ///< bandwidth-optimal, degree 2 (C1-compatible)
  kRecursiveDoubling, ///< log-step AllGather/Barrier; distinct peer per step
  kRecursiveHalvingDoubling,  ///< log-step AllReduce/ReduceScatter
  kBinomialTree,      ///< latency-optimal Broadcast/Reduce/AllReduce
  kPairwise,          ///< AllToAll: N-1 permutation steps
  kDirect,            ///< single-step fan-out (needs full connectivity)
};

const char* to_string(CollectiveType type);
const char* to_string(Algorithm algo);

/// One point-to-point transfer inside a collective. Rank indices are
/// positions within the group (not global GPU ids).
struct Transfer {
  int step = 0;
  int src = 0;
  int dst = 0;
  Bytes bytes = 0;
  /// Contiguous chunk range [chunk_lo, chunk_hi) moved by this transfer, in
  /// the collective's chunk space (chunk ids taken modulo n_chunks). Used by
  /// the verifier; -1,-1 means "untracked" (e.g. AllToAll slices).
  int chunk_lo = -1;
  int chunk_hi = -1;
  /// True: receiver reduces (accumulates) into its buffer; false: receiver
  /// overwrites (copy). Distinguishes reduce-scatter phases from gather
  /// phases so the verifier can catch double-counted contributions.
  bool reduce_op = false;
};

/// A planned collective: all transfers plus degree metadata used by the
/// control plane to decide circuit layouts (constraints C1/C3).
struct CollectiveSchedule {
  CollectiveType type = CollectiveType::kAllReduce;
  Algorithm algo = Algorithm::kRing;
  int n_ranks = 0;
  Bytes payload_bytes = 0;
  int n_steps = 0;
  int n_chunks = 0;  ///< size of the verifier's chunk space
  std::vector<Transfer> transfers;

  /// Maximum number of *simultaneously connected* distinct peers any rank
  /// needs within one step (ports needed at an instant).
  int max_peers_per_step = 0;
  /// Number of distinct peers any rank talks to across the whole schedule.
  /// On a circuit fabric, a value above the NIC port count forces per-step
  /// reconfiguration (constraint C1).
  int max_distinct_peers = 0;

  /// Transfer indices grouped by step (transfers_by_step[s] -> indices).
  std::vector<std::vector<int>> transfers_by_step() const;
  /// Total bytes crossing the network.
  Bytes total_bytes() const;
};

}  // namespace opus::collective
