#include "collective/schedule.h"

#include "collective/comm_group.h"
#include "common/error.h"

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

std::vector<std::vector<int>> CollectiveSchedule::transfers_by_step() const {
  std::vector<std::vector<int>> by_step(static_cast<std::size_t>(n_steps));
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const int s = transfers[i].step;
    ensure(s >= 0 && s < n_steps, "transfer step out of range");
    by_step[static_cast<std::size_t>(s)].push_back(static_cast<int>(i));
  }
  return by_step;
}

Bytes CollectiveSchedule::total_bytes() const {
  Bytes total = 0;
  for (const Transfer& t : transfers) total += t.bytes;
  return total;
}

}  // namespace opus::collective
