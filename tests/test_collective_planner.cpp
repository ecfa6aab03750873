// Unit tests for collective schedule planners: step counts, transfer counts,
// wire-byte totals, degree metadata (C1), and the algorithm chooser.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "collective/analysis.h"
#include "collective/planner.h"
#include "common/error.h"
#include "supported_plans.h"

namespace opus::collective {
namespace {

constexpr Bytes kPayload = 1 << 20;  // 1 MiB

TEST(RingAllReduce, StepAndByteCounts) {
  for (int n : {2, 3, 4, 7, 8, 16}) {
    const auto s =
        plan_collective(CollectiveType::kAllReduce, Algorithm::kRing, n,
                        kPayload);
    EXPECT_EQ(s.n_steps, 2 * (n - 1)) << "n=" << n;
    EXPECT_EQ(static_cast<int>(s.transfers.size()), 2 * (n - 1) * n);
    // Per-rank wire bytes = 2 (n-1)/n * payload.
    const Bytes per_rank = s.total_bytes() / n;
    const Bytes expected = 2 * (n - 1) * ((kPayload + n - 1) / n);
    EXPECT_EQ(per_rank, expected);
    EXPECT_EQ(s.max_peers_per_step, n == 2 ? 1 : 2);
    EXPECT_EQ(s.max_distinct_peers, n == 2 ? 1 : 2);
  }
}

TEST(RingAllGatherReduceScatter, HaveNMinus1Steps) {
  for (int n : {2, 3, 5, 8}) {
    for (auto type :
         {CollectiveType::kAllGather, CollectiveType::kReduceScatter}) {
      const auto s = plan_collective(type, Algorithm::kRing, n, kPayload);
      EXPECT_EQ(s.n_steps, n - 1);
      EXPECT_EQ(static_cast<int>(s.transfers.size()), (n - 1) * n);
    }
  }
}

TEST(RecursiveDoubling, LogStepsAndGrowingBlocks) {
  const auto s = plan_collective(CollectiveType::kAllGather,
                                 Algorithm::kRecursiveDoubling, 8, kPayload);
  EXPECT_EQ(s.n_steps, 3);
  EXPECT_EQ(static_cast<int>(s.transfers.size()), 3 * 8);
  // Distinct peer each step => high peer diversity (C1 breaker).
  EXPECT_EQ(s.max_peers_per_step, 1);
  EXPECT_EQ(s.max_distinct_peers, 3);
  // Step s moves 2^s chunks.
  for (const Transfer& t : s.transfers) {
    EXPECT_EQ(t.chunk_hi - t.chunk_lo, 1 << t.step);
  }
}

TEST(RecursiveDoubling, RequiresPowerOfTwo) {
  EXPECT_THROW(plan_collective(CollectiveType::kAllGather,
                               Algorithm::kRecursiveDoubling, 6, kPayload),
               InvariantError);
}

TEST(RecursiveHalvingDoubling, HalvesThenDoubles) {
  const auto s =
      plan_collective(CollectiveType::kAllReduce,
                      Algorithm::kRecursiveHalvingDoubling, 8, kPayload);
  EXPECT_EQ(s.n_steps, 6);  // log + log
  EXPECT_EQ(s.max_distinct_peers, 3);
  // Reduce phase transfers shrink: step 0 moves half the chunks.
  for (const Transfer& t : s.transfers) {
    if (t.step == 0) {
      EXPECT_EQ(t.chunk_hi - t.chunk_lo, 4);
    }
    if (t.step == 2) {
      EXPECT_EQ(t.chunk_hi - t.chunk_lo, 1);
    }
  }
}

TEST(BinomialTree, BroadcastReachesAllInLogSteps) {
  for (int n : {2, 3, 5, 8, 9, 16}) {
    const auto s = plan_collective(CollectiveType::kBroadcast,
                                   Algorithm::kBinomialTree, n, kPayload);
    int steps = 0;
    while ((1 << steps) < n) ++steps;
    EXPECT_EQ(s.n_steps, std::max(steps, 1));
    EXPECT_EQ(static_cast<int>(s.transfers.size()), n - 1);
  }
}

TEST(PairwiseAllToAll, PermutationPerStep) {
  const int n = 6;
  const auto s = plan_collective(CollectiveType::kAllToAll,
                                 Algorithm::kPairwise, n, kPayload);
  EXPECT_EQ(s.n_steps, n - 1);
  EXPECT_EQ(s.max_peers_per_step, 2);  // sends to +d and receives from -d
  EXPECT_EQ(s.max_distinct_peers, n - 1);
  // Every step is a clean permutation: each rank sends exactly once.
  for (const auto& step : s.transfers_by_step()) {
    std::vector<int> sends(n, 0), recvs(n, 0);
    for (int ti : step) {
      ++sends[static_cast<std::size_t>(
          s.transfers[static_cast<std::size_t>(ti)].src)];
      ++recvs[static_cast<std::size_t>(
          s.transfers[static_cast<std::size_t>(ti)].dst)];
    }
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(sends[static_cast<std::size_t>(r)], 1);
      EXPECT_EQ(recvs[static_cast<std::size_t>(r)], 1);
    }
  }
}

TEST(DirectAllToAll, SingleStepFullFanOut) {
  const int n = 5;
  const auto s = plan_collective(CollectiveType::kAllToAll,
                                 Algorithm::kDirect, n, kPayload);
  EXPECT_EQ(s.n_steps, 1);
  EXPECT_EQ(s.max_peers_per_step, n - 1);  // needs full connectivity
}

TEST(SendRecv, SingleTransfer) {
  const auto s = plan_collective(CollectiveType::kSendRecv,
                                 Algorithm::kDirect, 2, kPayload);
  EXPECT_EQ(s.transfers.size(), 1u);
  EXPECT_EQ(s.transfers[0].bytes, kPayload);
}

TEST(Barrier, MovesZeroBytes) {
  for (auto algo : {Algorithm::kRing, Algorithm::kRecursiveDoubling}) {
    const auto s = plan_collective(CollectiveType::kBarrier, algo, 6, 12345);
    EXPECT_EQ(s.total_bytes(), 0);
    EXPECT_FALSE(s.transfers.empty());
  }
}

TEST(SingleRankGroups, ProduceEmptySchedules) {
  const auto s = plan_collective(CollectiveType::kAllReduce, Algorithm::kRing,
                                 1, kPayload);
  EXPECT_TRUE(s.transfers.empty());
  EXPECT_EQ(s.n_steps, 0);
}

TEST(AlgorithmSupports, RejectsInvalidCombos) {
  EXPECT_FALSE(algorithm_supports(CollectiveType::kReduceScatter,
                                  Algorithm::kBinomialTree, 8));
  EXPECT_FALSE(algorithm_supports(CollectiveType::kSendRecv,
                                  Algorithm::kDirect, 3));
  EXPECT_FALSE(algorithm_supports(CollectiveType::kAllReduce,
                                  Algorithm::kRecursiveHalvingDoubling, 6));
  EXPECT_TRUE(algorithm_supports(CollectiveType::kAllReduce,
                                 Algorithm::kRing, 6));
}

TEST(ChooseAlgorithm, DegreeConstraintForcesRing) {
  // Large group, small payload: tree/RD would win on latency, but a 2-port
  // NIC cannot hold log2(64)=6 circuits (C1) -> ring.
  EXPECT_EQ(choose_algorithm(CollectiveType::kAllReduce, 64, 1024, 2),
            Algorithm::kRing);
  // Unconstrained (electrical) picks the logarithmic algorithm.
  EXPECT_EQ(choose_algorithm(CollectiveType::kAllReduce, 64, 1024, 0),
            Algorithm::kRecursiveHalvingDoubling);
  // Large payloads prefer ring everywhere (bandwidth-bound).
  EXPECT_EQ(choose_algorithm(CollectiveType::kAllReduce, 64, gib(1), 0),
            Algorithm::kRing);
}

TEST(ChooseAlgorithm, AllToAllRespectsFabric) {
  EXPECT_EQ(choose_algorithm(CollectiveType::kAllToAll, 8, kPayload, 2),
            Algorithm::kPairwise);
  EXPECT_EQ(choose_algorithm(CollectiveType::kAllToAll, 8, kPayload, 0),
            Algorithm::kDirect);
}

TEST(Analysis, PredictedRingTimeMatchesAlphaBeta) {
  const int n = 4;
  const auto s =
      plan_collective(CollectiveType::kAllReduce, Algorithm::kRing, n,
                      mib(100));
  const AlphaBeta cost{usecs(2), Bandwidth::gbps(200)};
  const TimeNs expected =
      2 * (n - 1) * (usecs(2) + transfer_time(mib(100) / n, cost.bw));
  EXPECT_NEAR(static_cast<double>(predicted_time(s, cost)),
              static_cast<double>(expected), 1e3);
}

TEST(Analysis, PeerChangingStepsCountsReconfigBurden) {
  // Ring: one circuit set forever -> 1 initial configuration.
  const auto ring =
      plan_collective(CollectiveType::kAllReduce, Algorithm::kRing, 8, 1024);
  EXPECT_EQ(peer_changing_steps(ring), 1);
  // Recursive doubling: every step changes peers.
  const auto rd = plan_collective(CollectiveType::kAllGather,
                                  Algorithm::kRecursiveDoubling, 8, 1024);
  EXPECT_EQ(peer_changing_steps(rd), 3);
  // Pairwise AllToAll: every one of the n-1 steps is a new permutation.
  const auto a2a = plan_collective(CollectiveType::kAllToAll,
                                   Algorithm::kPairwise, 8, 1024);
  EXPECT_EQ(peer_changing_steps(a2a), 7);
}

TEST(Analysis, ReconfigPenaltyMakesRingWinOnCircuits) {
  // With a 15 ms reconfiguration (3D MEMS), the "latency-optimized"
  // recursive-doubling AllGather loses to ring for small payloads: C1.
  const AlphaBeta cost{usecs(2), Bandwidth::gbps(200)};
  const TimeNs reconfig = msecs(15);
  const auto ring = plan_collective(CollectiveType::kAllGather,
                                    Algorithm::kRing, 16, kPayload);
  const auto rd = plan_collective(CollectiveType::kAllGather,
                                  Algorithm::kRecursiveDoubling, 16, kPayload);
  EXPECT_LT(predicted_time_with_reconfig(ring, cost, reconfig),
            predicted_time_with_reconfig(rd, cost, reconfig));
  // On a packet fabric (no reconfig), recursive doubling wins for small
  // payloads.
  EXPECT_GT(predicted_time(ring, cost), predicted_time(rd, cost));
}

/// The degree metadata by plain per-rank set counts: (most distinct peers
/// of a rank within one step, most distinct peers of a rank overall).
std::pair<int, int> reference_degrees(const CollectiveSchedule& s) {
  std::vector<std::set<int>> all(static_cast<std::size_t>(s.n_ranks));
  int per_step = 0;
  for (const auto& step : s.transfers_by_step()) {
    std::vector<std::set<int>> peers(static_cast<std::size_t>(s.n_ranks));
    for (int ti : step) {
      const Transfer& t = s.transfers[static_cast<std::size_t>(ti)];
      for (auto* sets : {&peers, &all}) {
        (*sets)[static_cast<std::size_t>(t.src)].insert(t.dst);
        (*sets)[static_cast<std::size_t>(t.dst)].insert(t.src);
      }
    }
    for (const auto& p : peers) {
      per_step = std::max(per_step, static_cast<int>(p.size()));
    }
  }
  int distinct = 0;
  for (const auto& p : all) {
    distinct = std::max(distinct, static_cast<int>(p.size()));
  }
  return {per_step, distinct};
}

// Property sweep: every planner produces transfers with valid rank indices,
// positive steps, and consistent metadata.
struct PlanCase {
  CollectiveType type;
  Algorithm algo;
  int n;
};

class PlannerSweep : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlannerSweep, SchedulesAreWellFormed) {
  const auto& [type, algo, n] = GetParam();
  const auto s = plan_collective(type, algo, n, kPayload);
  EXPECT_EQ(s.n_ranks, n);
  for (const Transfer& t : s.transfers) {
    EXPECT_GE(t.src, 0);
    EXPECT_LT(t.src, n);
    EXPECT_GE(t.dst, 0);
    EXPECT_LT(t.dst, n);
    EXPECT_NE(t.src, t.dst);
    EXPECT_GE(t.step, 0);
    EXPECT_LT(t.step, s.n_steps);
    EXPECT_GE(t.bytes, 0);
  }
  EXPECT_GE(s.max_distinct_peers, s.max_peers_per_step);
  const auto [per_step, distinct] = reference_degrees(s);
  EXPECT_EQ(s.max_peers_per_step, per_step);
  EXPECT_EQ(s.max_distinct_peers, distinct);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PlannerSweep,
    ::testing::Values(
        PlanCase{CollectiveType::kAllReduce, Algorithm::kRing, 5},
        PlanCase{CollectiveType::kAllReduce, Algorithm::kRing, 16},
        PlanCase{CollectiveType::kAllReduce,
                 Algorithm::kRecursiveHalvingDoubling, 16},
        PlanCase{CollectiveType::kAllReduce, Algorithm::kBinomialTree, 11},
        PlanCase{CollectiveType::kAllGather, Algorithm::kRing, 9},
        PlanCase{CollectiveType::kAllGather, Algorithm::kRecursiveDoubling,
                 32},
        PlanCase{CollectiveType::kAllGather, Algorithm::kDirect, 7},
        PlanCase{CollectiveType::kReduceScatter, Algorithm::kRing, 12},
        PlanCase{CollectiveType::kAllToAll, Algorithm::kPairwise, 10},
        PlanCase{CollectiveType::kAllToAll, Algorithm::kDirect, 6},
        PlanCase{CollectiveType::kBroadcast, Algorithm::kRing, 6},
        PlanCase{CollectiveType::kBroadcast, Algorithm::kBinomialTree, 13},
        PlanCase{CollectiveType::kReduce, Algorithm::kBinomialTree, 13},
        PlanCase{CollectiveType::kReduce, Algorithm::kRing, 4},
        PlanCase{CollectiveType::kSendRecv, Algorithm::kDirect, 2},
        PlanCase{CollectiveType::kBarrier, Algorithm::kRing, 7},
        PlanCase{CollectiveType::kBarrier, Algorithm::kRecursiveDoubling,
                 9},
        PlanCase{CollectiveType::kAllToAll, Algorithm::kPairwise, 33}));

// Every supported (type, algorithm, group size) up to 70 ranks: the
// planners' counting computation of the degree metadata equals the set
// reference.
TEST(PlannerDegrees, MatchTheSetReferenceForEverySupportedPlan) {
  int plans = 0;
  for (const PlanShape& p : supported_plans(70)) {
    const auto s = plan_collective(p.type, p.algo, p.n_ranks, kPayload);
    const auto [per_step, distinct] = reference_degrees(s);
    ASSERT_EQ(s.max_peers_per_step, per_step)
        << to_string(p.type) << "/" << to_string(p.algo) << " n=" << p.n_ranks;
    ASSERT_EQ(s.max_distinct_peers, distinct)
        << to_string(p.type) << "/" << to_string(p.algo) << " n=" << p.n_ranks;
    ++plans;
  }
  EXPECT_EQ(plans, 1090);
}

}  // namespace
}  // namespace opus::collective
