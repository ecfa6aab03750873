// compile() equivalence: every index a CompiledCollective holds must equal
// the straightforward derivation it replaces — the step grouping of
// transfers_by_step(), the all-pairs adjacent-step dependency rule, and the
// std::set-based peer pairs — for every planner the chooser can reach.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

#include "collective/compiled.h"
#include "collective/planner.h"
#include "common/error.h"

namespace opus::collective {
namespace {

using PairList = std::vector<std::pair<int, int>>;

/// Reference dependency graph: tests every pair of adjacent-step transfers.
struct ReferenceDeps {
  std::vector<int> deps;
  std::vector<std::vector<int>> dependents;
};

ReferenceDeps reference_deps(const CollectiveSchedule& sched) {
  const auto& transfers = sched.transfers;
  ReferenceDeps ref;
  ref.deps.assign(transfers.size(), 0);
  ref.dependents.assign(transfers.size(), {});
  const auto by_step = sched.transfers_by_step();
  for (int s = 1; s < sched.n_steps; ++s) {
    const auto& prev = by_step[static_cast<std::size_t>(s - 1)];
    for (int ti : by_step[static_cast<std::size_t>(s)]) {
      const Transfer& t = transfers[static_cast<std::size_t>(ti)];
      for (int pi : prev) {
        const Transfer& p = transfers[static_cast<std::size_t>(pi)];
        if (p.src == t.src || p.dst == t.src) {
          ref.dependents[static_cast<std::size_t>(pi)].push_back(ti);
          ++ref.deps[static_cast<std::size_t>(ti)];
        }
      }
    }
  }
  return ref;
}

/// Reference peer pairs of step `step` (of every step when negative).
PairList reference_pairs(const CollectiveSchedule& sched, int step) {
  std::set<std::pair<int, int>> pairs;
  for (const Transfer& t : sched.transfers) {
    if (step < 0 || t.step == step) pairs.emplace(t.src, t.dst);
  }
  return {pairs.begin(), pairs.end()};
}

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void expect_equivalent(const CollectiveSchedule& sched,
                       const std::string& label) {
  const auto cc = compile(sched);
  SCOPED_TRACE(label);

  const auto by_step = sched.transfers_by_step();
  ASSERT_EQ(cc->step_begin.size(), by_step.size() + 1);
  for (int s = 0; s < sched.n_steps; ++s) {
    EXPECT_EQ(to_vector(cc->step(s)), by_step[static_cast<std::size_t>(s)])
        << "step " << s;
  }

  const ReferenceDeps ref = reference_deps(sched);
  EXPECT_EQ(cc->initial_deps, ref.deps);
  ASSERT_EQ(cc->dep_begin.size(), sched.transfers.size() + 1);
  for (std::size_t i = 0; i < sched.transfers.size(); ++i) {
    EXPECT_EQ(to_vector(cc->dependents(static_cast<int>(i))),
              ref.dependents[i])
        << "dependents of transfer " << i;
  }

  EXPECT_EQ(cc->peer_pairs, reference_pairs(sched, -1));
  for (int s = 0; s < sched.n_steps; ++s) {
    EXPECT_EQ(to_vector(cc->peer_pairs_of_step(s)), reference_pairs(sched, s))
        << "step " << s;
  }
}

constexpr CollectiveType kTypes[] = {
    CollectiveType::kAllReduce, CollectiveType::kAllGather,
    CollectiveType::kReduceScatter, CollectiveType::kAllToAll,
    CollectiveType::kBroadcast, CollectiveType::kReduce,
    CollectiveType::kSendRecv, CollectiveType::kBarrier};
constexpr Algorithm kAlgorithms[] = {
    Algorithm::kRing, Algorithm::kRecursiveDoubling,
    Algorithm::kRecursiveHalvingDoubling, Algorithm::kBinomialTree,
    Algorithm::kPairwise, Algorithm::kDirect};

TEST(CompiledCollective, MatchesReferenceDerivationsForEveryPlanner) {
  int checked = 0;
  for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16}) {
    for (CollectiveType type : kTypes) {
      for (Algorithm algo : kAlgorithms) {
        if (!algorithm_supports(type, algo, n)) continue;
        expect_equivalent(plan_collective(type, algo, n, 1 << 20),
                          std::string(to_string(type)) + "/" +
                              to_string(algo) + " n=" + std::to_string(n));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(CompiledCollective, SelfTransferAndSharedRankAreCountedOnce) {
  // Step 0: 0->0 (a self-transfer) and 1->0; step 1: 0->1. Transfer 2
  // depends on 0 once (src and dst both match) and on 1 (dst matches).
  CollectiveSchedule sched;
  sched.n_ranks = 2;
  sched.n_steps = 2;
  sched.transfers = {Transfer{0, 0, 0, 8}, Transfer{0, 1, 0, 8},
                     Transfer{1, 0, 1, 8}};
  expect_equivalent(sched, "hand-built");
  const auto cc = compile(sched);
  EXPECT_EQ(cc->initial_deps, (std::vector<int>{0, 0, 2}));
}

TEST(CompiledCollective, UnsortedTransfersKeepIndexOrderWithinSteps) {
  CollectiveSchedule sched;
  sched.n_ranks = 3;
  sched.n_steps = 2;
  sched.transfers = {Transfer{1, 1, 2, 8}, Transfer{0, 0, 1, 8},
                     Transfer{1, 0, 2, 8}, Transfer{0, 2, 1, 8}};
  expect_equivalent(sched, "unsorted");
}

TEST(CompiledCollective, RepeatedStepPairsShareOneRow) {
  // Every step of a ring uses the same n pairs: one row serves them all.
  const auto cc = compile(
      plan_collective(CollectiveType::kAllReduce, Algorithm::kRing, 8, 1024));
  EXPECT_EQ(cc->step_pairs.size(), 8u);
  EXPECT_EQ(to_vector(cc->peer_pairs_of_step(cc->sched.n_steps - 1)),
            cc->peer_pairs);
}

TEST(CompiledCollective, RejectsOutOfRangeTransfers) {
  CollectiveSchedule sched;
  sched.n_ranks = 2;
  sched.n_steps = 1;
  sched.transfers = {Transfer{1, 0, 1, 8}};
  EXPECT_THROW(compile(sched), InvariantError);
  sched.transfers = {Transfer{0, 0, 2, 8}};
  EXPECT_THROW(compile(sched), InvariantError);
}

}  // namespace
}  // namespace opus::collective
