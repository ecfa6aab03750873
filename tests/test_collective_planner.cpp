// Unit tests for collective planners, on the shapes compile() collects from
// them: step counts, transfer counts, wire-byte totals, degree facts (C1),
// the algorithm chooser, and the alpha-beta analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "collective/analysis.h"
#include "collective/compiled.h"
#include "collective/planner.h"
#include "common/error.h"

namespace opus::collective {
namespace {

constexpr Bytes kPayload = 1 << 20;  // 1 MiB

/// Bytes a run of `cc` at `payload` puts on the wire.
Bytes wire_bytes(const CompiledCollective& cc, Bytes payload) {
  Bytes units = 0;
  for (const UnitTransfer& t : cc.transfers) units += t.units;
  return units * cc.unit_bytes(payload);
}

/// The degree facts behind C1, by plain per-rank set counts: (most distinct
/// peers of a rank within one step, most distinct peers of a rank overall).
/// The second is the number of NIC ports a rank needs to wire the whole
/// shape as static circuits.
std::pair<int, int> reference_degrees(const CompiledCollective& cc) {
  std::vector<std::set<int>> all(static_cast<std::size_t>(cc.n_ranks));
  int per_step = 0;
  for (int s = 0; s < cc.n_steps; ++s) {
    std::vector<std::set<int>> peers(static_cast<std::size_t>(cc.n_ranks));
    for (int ti : cc.step(s)) {
      const UnitTransfer& t = cc.transfers[static_cast<std::size_t>(ti)];
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

TEST(RingAllReduce, StepAndByteCounts) {
  for (int n : {2, 3, 4, 7, 8, 16}) {
    const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, n);
    EXPECT_EQ(cc->n_steps, 2 * (n - 1)) << "n=" << n;
    EXPECT_EQ(static_cast<int>(cc->transfers.size()), 2 * (n - 1) * n);
    // Per-rank wire bytes = 2 (n-1)/n * payload.
    const Bytes per_rank = wire_bytes(*cc, kPayload) / n;
    const Bytes expected = 2 * (n - 1) * ((kPayload + n - 1) / n);
    EXPECT_EQ(per_rank, expected);
    // Degree 2 per step and overall (C1-compatible).
    EXPECT_EQ(reference_degrees(*cc),
              std::make_pair(n == 2 ? 1 : 2, n == 2 ? 1 : 2));
  }
}

TEST(RingAllGatherReduceScatter, HaveNMinus1Steps) {
  for (int n : {2, 3, 5, 8}) {
    for (auto type :
         {CollectiveType::kAllGather, CollectiveType::kReduceScatter}) {
      const auto cc = compile(type, Algorithm::kRing, n);
      EXPECT_EQ(cc->n_steps, n - 1);
      EXPECT_EQ(static_cast<int>(cc->transfers.size()), (n - 1) * n);
    }
  }
}

TEST(RecursiveDoubling, LogStepsAndGrowingBlocks) {
  const auto cc = compile(CollectiveType::kAllGather,
                          Algorithm::kRecursiveDoubling, 8);
  EXPECT_EQ(cc->n_steps, 3);
  EXPECT_EQ(static_cast<int>(cc->transfers.size()), 3 * 8);
  // Distinct peer each step => high peer diversity (C1 breaker): log n.
  EXPECT_EQ(reference_degrees(*cc), std::make_pair(1, 3));
  // Step s moves 2^s chunks.
  for (const UnitTransfer& t : cc->transfers) {
    EXPECT_EQ(t.units, 1 << t.step);
  }
}

TEST(RecursiveDoubling, RequiresPowerOfTwo) {
  EXPECT_THROW(
      compile(CollectiveType::kAllGather, Algorithm::kRecursiveDoubling, 6),
      InvariantError);
}

TEST(RecursiveHalvingDoubling, HalvesThenDoubles) {
  const auto cc = compile(CollectiveType::kAllReduce,
                          Algorithm::kRecursiveHalvingDoubling, 8);
  EXPECT_EQ(cc->n_steps, 6);  // log + log
  EXPECT_EQ(reference_degrees(*cc).second, 3);
  // Reduce phase transfers shrink: step 0 moves half the chunks.
  for (const UnitTransfer& t : cc->transfers) {
    if (t.step == 0) {
      EXPECT_EQ(t.units, 4);
    }
    if (t.step == 2) {
      EXPECT_EQ(t.units, 1);
    }
  }
}

TEST(BinomialTree, BroadcastReachesAllInLogSteps) {
  for (int n : {2, 3, 5, 8, 9, 16}) {
    const auto cc =
        compile(CollectiveType::kBroadcast, Algorithm::kBinomialTree, n);
    int steps = 0;
    while ((1 << steps) < n) ++steps;
    EXPECT_EQ(cc->n_steps, std::max(steps, 1));
    EXPECT_EQ(static_cast<int>(cc->transfers.size()), n - 1);
  }
}

TEST(PairwiseAllToAll, PermutationPerStep) {
  const int n = 6;
  const auto cc = compile(CollectiveType::kAllToAll, Algorithm::kPairwise, n);
  EXPECT_EQ(cc->n_steps, n - 1);
  // Sends to +d and receives from -d each step; n-1 peers overall.
  EXPECT_EQ(reference_degrees(*cc), std::make_pair(2, n - 1));
  // Every step is a clean permutation: each rank sends exactly once.
  for (int s = 0; s < cc->n_steps; ++s) {
    std::vector<int> sends(n, 0), recvs(n, 0);
    for (int ti : cc->step(s)) {
      const UnitTransfer& t = cc->transfers[static_cast<std::size_t>(ti)];
      ++sends[static_cast<std::size_t>(t.src)];
      ++recvs[static_cast<std::size_t>(t.dst)];
    }
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(sends[static_cast<std::size_t>(r)], 1);
      EXPECT_EQ(recvs[static_cast<std::size_t>(r)], 1);
    }
  }
}

TEST(DirectAllToAll, SingleStepFullFanOut) {
  const int n = 5;
  const auto cc = compile(CollectiveType::kAllToAll, Algorithm::kDirect, n);
  EXPECT_EQ(cc->n_steps, 1);
  // Needs full connectivity: n-1 peers at once.
  EXPECT_EQ(reference_degrees(*cc).first, n - 1);
}

TEST(SendRecv, SingleTransfer) {
  const auto cc = compile(CollectiveType::kSendRecv, Algorithm::kDirect, 2);
  ASSERT_EQ(cc->transfers.size(), 1u);
  EXPECT_EQ(cc->transfers[0].units * cc->unit_bytes(kPayload), kPayload);
}

TEST(Barrier, MovesZeroBytes) {
  for (auto algo : {Algorithm::kRing, Algorithm::kRecursiveDoubling}) {
    const auto cc = compile(CollectiveType::kBarrier, algo, 6);
    EXPECT_EQ(wire_bytes(*cc, 12345), 0);
    EXPECT_FALSE(cc->transfers.empty());
  }
}

TEST(SingleRankGroups, ProduceEmptySchedules) {
  const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, 1);
  EXPECT_TRUE(cc->transfers.empty());
  EXPECT_EQ(cc->n_steps, 0);
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
  const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, n);
  const AlphaBeta cost{usecs(2), Bandwidth::gbps(200)};
  const TimeNs expected =
      2 * (n - 1) * (usecs(2) + transfer_time(mib(100) / n, cost.bw));
  EXPECT_NEAR(static_cast<double>(predicted_time(*cc, mib(100), cost)),
              static_cast<double>(expected), 1e3);
}

TEST(Analysis, PeerChangingStepsCountsReconfigBurden) {
  // Ring: one circuit set forever -> 1 initial configuration.
  EXPECT_EQ(peer_changing_steps(
                *compile(CollectiveType::kAllReduce, Algorithm::kRing, 8)),
            1);
  // Recursive doubling: every step changes peers.
  EXPECT_EQ(peer_changing_steps(*compile(CollectiveType::kAllGather,
                                         Algorithm::kRecursiveDoubling, 8)),
            3);
  // Pairwise AllToAll: every one of the n-1 steps is a new permutation.
  EXPECT_EQ(peer_changing_steps(
                *compile(CollectiveType::kAllToAll, Algorithm::kPairwise, 8)),
            7);
}

TEST(Analysis, ReconfigPenaltyMakesRingWinOnCircuits) {
  // With a 15 ms reconfiguration (3D MEMS), the "latency-optimized"
  // recursive-doubling AllGather loses to ring for small payloads: C1.
  const AlphaBeta cost{usecs(2), Bandwidth::gbps(200)};
  const TimeNs reconfig = msecs(15);
  const auto ring = compile(CollectiveType::kAllGather, Algorithm::kRing, 16);
  const auto rd = compile(CollectiveType::kAllGather,
                          Algorithm::kRecursiveDoubling, 16);
  EXPECT_LT(predicted_time_with_reconfig(*ring, kPayload, cost, reconfig),
            predicted_time_with_reconfig(*rd, kPayload, cost, reconfig));
  // On a packet fabric (no reconfig), recursive doubling wins for small
  // payloads.
  EXPECT_GT(predicted_time(*ring, kPayload, cost),
            predicted_time(*rd, kPayload, cost));
}

// Property sweep: every planner produces transfers with valid rank indices,
// steps and unit counts, and a consistent degree profile.
struct PlanCase {
  CollectiveType type;
  Algorithm algo;
  int n;
};

class PlannerSweep : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlannerSweep, SchedulesAreWellFormed) {
  const auto& [type, algo, n] = GetParam();
  const auto cc = compile(type, algo, n);
  EXPECT_EQ(cc->n_ranks, n);
  for (const UnitTransfer& t : cc->transfers) {
    EXPECT_GE(t.src, 0);
    EXPECT_LT(t.src, n);
    EXPECT_GE(t.dst, 0);
    EXPECT_LT(t.dst, n);
    EXPECT_NE(t.src, t.dst);
    EXPECT_GE(t.step, 0);
    EXPECT_LT(t.step, cc->n_steps);
    EXPECT_GE(t.units, 0);
    EXPECT_LE(t.units, cc->unit_divisor);
  }
  const auto [per_step, distinct] = reference_degrees(*cc);
  EXPECT_GE(per_step, 1);
  EXPECT_GE(distinct, per_step);
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

}  // namespace
}  // namespace opus::collective
