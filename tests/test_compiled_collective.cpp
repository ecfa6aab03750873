// compile() equivalence: every index a CompiledCollective holds must equal
// the straightforward derivation it replaces — the step grouping of the
// transfers, the all-pairs adjacent-step dependency rule, and the
// std::set-based peer pairs — for every planner the chooser can reach, and
// for hand-built shapes indexed by index(). And pricing: a byte-free shape,
// priced from a run's payload, puts exactly the closed-form wire volume of
// its collective on the wire.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "collective/compiled.h"
#include "collective/planner.h"
#include "common/error.h"
#include "supported_plans.h"

namespace opus::collective {
namespace {

using PairList = std::vector<std::pair<int, int>>;

/// Reference step grouping: transfer indices of each step, ascending.
std::vector<std::vector<int>> reference_steps(const CompiledCollective& cc) {
  std::vector<std::vector<int>> by_step(static_cast<std::size_t>(cc.n_steps));
  for (std::size_t i = 0; i < cc.transfers.size(); ++i) {
    by_step[static_cast<std::size_t>(cc.transfers[i].step)].push_back(
        static_cast<int>(i));
  }
  return by_step;
}

/// Reference dependency graph: tests every pair of adjacent-step transfers.
struct ReferenceDeps {
  std::vector<int> deps;
  std::vector<std::vector<int>> dependents;
};

ReferenceDeps reference_deps(const CompiledCollective& cc) {
  const auto& transfers = cc.transfers;
  ReferenceDeps ref;
  ref.deps.assign(transfers.size(), 0);
  ref.dependents.assign(transfers.size(), {});
  const auto by_step = reference_steps(cc);
  for (int s = 1; s < cc.n_steps; ++s) {
    const auto& prev = by_step[static_cast<std::size_t>(s - 1)];
    for (int ti : by_step[static_cast<std::size_t>(s)]) {
      const UnitTransfer& t = transfers[static_cast<std::size_t>(ti)];
      for (int pi : prev) {
        const UnitTransfer& p = transfers[static_cast<std::size_t>(pi)];
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
PairList reference_pairs(const CompiledCollective& cc, int step) {
  std::set<std::pair<int, int>> pairs;
  for (const UnitTransfer& t : cc.transfers) {
    if (step < 0 || t.step == step) pairs.emplace(t.src, t.dst);
  }
  return {pairs.begin(), pairs.end()};
}

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void expect_equivalent(const CompiledCollective& cc,
                       const std::string& label) {
  SCOPED_TRACE(label);

  const auto by_step = reference_steps(cc);
  ASSERT_EQ(cc.step_begin.size(), by_step.size() + 1);
  for (int s = 0; s < cc.n_steps; ++s) {
    EXPECT_EQ(to_vector(cc.step(s)), by_step[static_cast<std::size_t>(s)])
        << "step " << s;
  }

  const ReferenceDeps ref = reference_deps(cc);
  EXPECT_EQ(cc.initial_deps, ref.deps);
  ASSERT_EQ(cc.dep_begin.size(), cc.transfers.size() + 1);
  for (std::size_t i = 0; i < cc.transfers.size(); ++i) {
    EXPECT_EQ(to_vector(cc.dependents(static_cast<int>(i))),
              ref.dependents[i])
        << "dependents of transfer " << i;
  }

  EXPECT_EQ(cc.peer_pairs, reference_pairs(cc, -1));
  for (int s = 0; s < cc.n_steps; ++s) {
    EXPECT_EQ(to_vector(cc.peer_pairs_of_step(s)), reference_pairs(cc, s))
        << "step " << s;
  }
}

/// A hand-built shape of `n_ranks` ranks and `n_steps` steps.
CompiledCollective hand_built(int n_ranks, int n_steps,
                              std::vector<UnitTransfer> transfers) {
  CompiledCollective shape;
  shape.n_ranks = n_ranks;
  shape.n_steps = n_steps;
  shape.transfers = std::move(transfers);
  return shape;
}

TEST(CompiledCollective, MatchesReferenceDerivationsForEveryPlanner) {
  int checked = 0;
  for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16}) {
    for (CollectiveType type : kAllCollectiveTypes) {
      for (Algorithm algo : kAllAlgorithms) {
        if (!algorithm_supports(type, algo, n)) continue;
        expect_equivalent(*compile(type, algo, n),
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
  const auto cc = index(hand_built(
      2, 2, {UnitTransfer{0, 0, 0}, UnitTransfer{0, 1, 0},
             UnitTransfer{1, 0, 1}}));
  expect_equivalent(*cc, "hand-built");
  EXPECT_EQ(cc->initial_deps, (std::vector<int>{0, 0, 2}));
}

TEST(CompiledCollective, UnsortedTransfersKeepIndexOrderWithinSteps) {
  expect_equivalent(
      *index(hand_built(3, 2,
                        {UnitTransfer{1, 1, 2}, UnitTransfer{0, 0, 1},
                         UnitTransfer{1, 0, 2}, UnitTransfer{0, 2, 1}})),
      "unsorted");
}

TEST(CompiledCollective, RepeatedStepPairsShareOneRow) {
  // Every step of a ring uses the same n pairs: one row serves them all.
  const auto cc = compile(CollectiveType::kAllReduce, Algorithm::kRing, 8);
  EXPECT_EQ(cc->step_pairs.size(), 8u);
  EXPECT_EQ(to_vector(cc->peer_pairs_of_step(cc->n_steps - 1)),
            cc->peer_pairs);
}

TEST(CompiledCollective, RejectsOutOfRangeTransfers) {
  EXPECT_THROW(index(hand_built(2, 1, {UnitTransfer{1, 0, 1}})),
               InvariantError);
  EXPECT_THROW(index(hand_built(2, 1, {UnitTransfer{0, 0, 2}})),
               InvariantError);
  // More units than a payload holds.
  EXPECT_THROW(index(hand_built(2, 1, {UnitTransfer{0, 0, 1, 2}})),
               InvariantError);
  auto no_divisor = hand_built(2, 1, {UnitTransfer{0, 0, 1}});
  no_divisor.unit_divisor = 0;
  EXPECT_THROW(index(std::move(no_divisor)), InvariantError);
}

/// The closed-form bytes a P-byte run of `p` puts on the wire: what its
/// collective must move, independent of how the planner splits it.
Bytes expected_wire_bytes(const PlanShape& p, Bytes payload) {
  const Bytes n = p.n_ranks;
  const Bytes slice = (payload + n - 1) / n;  // ceil(P / n)
  if (n == 1) return 0;
  switch (p.type) {
    case CollectiveType::kAllReduce:
      return p.algo == Algorithm::kBinomialTree ? 2 * (n - 1) * payload
                                                : 2 * n * (n - 1) * slice;
    case CollectiveType::kAllGather:
    case CollectiveType::kReduceScatter:
    case CollectiveType::kAllToAll:
      return n * (n - 1) * slice;
    case CollectiveType::kBroadcast:
    case CollectiveType::kReduce:
      return (n - 1) * payload;
    case CollectiveType::kSendRecv:
      return payload;
    case CollectiveType::kBarrier:
      return 0;
  }
  return -1;
}

/// Every rank sends the same share of the volume.
bool symmetric(const PlanShape& p) {
  switch (p.type) {
    case CollectiveType::kAllReduce:
      return p.algo != Algorithm::kBinomialTree;
    case CollectiveType::kAllGather:
    case CollectiveType::kReduceScatter:
    case CollectiveType::kAllToAll:
    case CollectiveType::kBarrier:
      return true;
    default:
      return false;
  }
}

// Every supported shape up to 70 ranks, compiled once and priced at
// payloads that straddle the unit boundaries: a run sends, in total and
// from every rank of a symmetric collective, the closed-form volume.
TEST(CompiledCollective, WireVolumeMatchesTheClosedFormAtEveryPayload) {
  int shapes = 0;
  for (const PlanShape& p : supported_plans(70)) {
    const int n = p.n_ranks;
    const auto cc = compile(p.type, p.algo, n);
    // The planner announces its exact transfer count up front.
    EXPECT_EQ(cc->transfers.capacity(), cc->transfers.size());
    for (const Bytes payload : {Bytes{0}, Bytes{1}, Bytes{7}, Bytes{n - 1},
                                Bytes{n + 1}, Bytes{1000}, Bytes{kMiB + 3}}) {
      const Bytes unit = cc->unit_bytes(payload);
      std::vector<Bytes> sent(static_cast<std::size_t>(n), 0);
      Bytes total = 0;
      for (const UnitTransfer& t : cc->transfers) {
        sent[static_cast<std::size_t>(t.src)] += t.units * unit;
        total += t.units * unit;
      }
      const Bytes expected = expected_wire_bytes(p, payload);
      ASSERT_EQ(total, expected)
          << to_string(p.type) << "/" << to_string(p.algo) << " n=" << n
          << " payload=" << payload;
      if (!symmetric(p)) continue;
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(sent[static_cast<std::size_t>(r)], expected / n)
            << to_string(p.type) << "/" << to_string(p.algo) << " n=" << n
            << " payload=" << payload << " rank " << r;
      }
    }
    ++shapes;
  }
  EXPECT_EQ(shapes, 1090);
}

TEST(CompiledCollective, ShapeCompileRejectsWhatThePlannerRejects) {
  EXPECT_THROW(
      compile(CollectiveType::kAllReduce, Algorithm::kRecursiveHalvingDoubling,
              6),
      InvariantError);
  EXPECT_THROW(compile(CollectiveType::kSendRecv, Algorithm::kDirect, 3),
               InvariantError);
  EXPECT_THROW(compile(CollectiveType::kBarrier, Algorithm::kRing, 0),
               InvariantError);
}

}  // namespace
}  // namespace opus::collective
