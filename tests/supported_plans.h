// Every collective type and algorithm, and the (type, algorithm, group
// size) combinations the planners support: the enumeration the planner and
// compiled-collective sweeps share.
#pragma once

#include <vector>

#include "collective/planner.h"

namespace opus::collective {

inline constexpr CollectiveType kAllCollectiveTypes[] = {
    CollectiveType::kAllReduce, CollectiveType::kAllGather,
    CollectiveType::kReduceScatter, CollectiveType::kAllToAll,
    CollectiveType::kBroadcast, CollectiveType::kReduce,
    CollectiveType::kSendRecv, CollectiveType::kBarrier};

inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kRing, Algorithm::kRecursiveDoubling,
    Algorithm::kRecursiveHalvingDoubling, Algorithm::kBinomialTree,
    Algorithm::kPairwise, Algorithm::kDirect};

struct PlanShape {
  CollectiveType type;
  Algorithm algo;
  int n_ranks;
};

/// Every supported plan shape over 1..max_ranks ranks, by ascending size.
inline std::vector<PlanShape> supported_plans(int max_ranks) {
  std::vector<PlanShape> shapes;
  for (int n = 1; n <= max_ranks; ++n) {
    for (CollectiveType type : kAllCollectiveTypes) {
      for (Algorithm algo : kAllAlgorithms) {
        if (algorithm_supports(type, algo, n)) shapes.push_back({type, algo, n});
      }
    }
  }
  return shapes;
}

}  // namespace opus::collective
