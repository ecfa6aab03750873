#include "collective/schedule.h"

#include "collective/comm_group.h"

namespace opus::collective {

const char* to_string(ParallelismDim dim) {
  switch (dim) {
    case ParallelismDim::kTP: return "TP";
    case ParallelismDim::kDP: return "DP";
    case ParallelismDim::kPP: return "PP";
    case ParallelismDim::kCP: return "CP";
    case ParallelismDim::kEP: return "EP";
    case ParallelismDim::kOther: return "Other";
  }
  return "?";
}

const char* to_string(CollectiveType type) {
  switch (type) {
    case CollectiveType::kAllReduce: return "AllReduce";
    case CollectiveType::kAllGather: return "AllGather";
    case CollectiveType::kReduceScatter: return "ReduceScatter";
    case CollectiveType::kAllToAll: return "AllToAll";
    case CollectiveType::kBroadcast: return "Broadcast";
    case CollectiveType::kReduce: return "Reduce";
    case CollectiveType::kSendRecv: return "SendRecv";
    case CollectiveType::kBarrier: return "Barrier";
  }
  return "?";
}

const char* to_string(Algorithm algo) {
  switch (algo) {
    case Algorithm::kRing: return "Ring";
    case Algorithm::kRecursiveDoubling: return "RecursiveDoubling";
    case Algorithm::kRecursiveHalvingDoubling: return "RecursiveHalvingDoubling";
    case Algorithm::kBinomialTree: return "BinomialTree";
    case Algorithm::kPairwise: return "Pairwise";
    case Algorithm::kDirect: return "Direct";
  }
  return "?";
}

}  // namespace opus::collective
