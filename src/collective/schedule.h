// Collective types and algorithms: the names a collective shape is planned,
// compiled and verified under. The shape itself is what a planner emits into
// a ShapeSink (planner.h) and what compile() collects (compiled.h).
#pragma once

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

}  // namespace opus::collective
