// compile() equivalence: every index a CompiledCollective holds must equal
// the straightforward derivation it replaces — the step grouping of
// transfers_by_step(), the all-pairs adjacent-step dependency rule, and the
// std::set-based peer pairs — for every planner the chooser can reach. A
// shape compiled straight from the planner must equal the shape compiled
// from its planned schedule. And shape pricing: one byte-free shape, priced
// from a run's payload, sends exactly the bytes the planner gives every
// transfer at that payload.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

#include "collective/compiled.h"
#include "collective/planner.h"
#include "common/error.h"
#include "supported_plans.h"

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

TEST(CompiledCollective, MatchesReferenceDerivationsForEveryPlanner) {
  int checked = 0;
  for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16}) {
    for (CollectiveType type : kAllCollectiveTypes) {
      for (Algorithm algo : kAllAlgorithms) {
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
  sched.transfers = {Transfer{0, 0, 0}, Transfer{0, 1, 0}, Transfer{1, 0, 1}};
  expect_equivalent(sched, "hand-built");
  const auto cc = compile(sched);
  EXPECT_EQ(cc->initial_deps, (std::vector<int>{0, 0, 2}));
}

TEST(CompiledCollective, UnsortedTransfersKeepIndexOrderWithinSteps) {
  CollectiveSchedule sched;
  sched.n_ranks = 3;
  sched.n_steps = 2;
  sched.transfers = {Transfer{1, 1, 2}, Transfer{0, 0, 1}, Transfer{1, 0, 2},
                     Transfer{0, 2, 1}};
  expect_equivalent(sched, "unsorted");
}

TEST(CompiledCollective, RepeatedStepPairsShareOneRow) {
  // Every step of a ring uses the same n pairs: one row serves them all.
  const auto cc = compile(
      plan_collective(CollectiveType::kAllReduce, Algorithm::kRing, 8, 1024));
  EXPECT_EQ(cc->step_pairs.size(), 8u);
  EXPECT_EQ(to_vector(cc->peer_pairs_of_step(cc->n_steps - 1)),
            cc->peer_pairs);
}

TEST(CompiledCollective, RejectsOutOfRangeTransfers) {
  CollectiveSchedule sched;
  sched.n_ranks = 2;
  sched.n_steps = 1;
  sched.transfers = {Transfer{1, 0, 1}};
  EXPECT_THROW(compile(sched), InvariantError);
  sched.transfers = {Transfer{0, 0, 2}};
  EXPECT_THROW(compile(sched), InvariantError);
}

// Every supported shape up to 70 ranks, compiled once and priced at
// payloads that straddle the unit boundaries: transfer i of a run sends
// units x unit_bytes(payload), which must equal the planner's bytes for
// transfer i at that payload.
TEST(CompiledCollective, ShapePricingMatchesThePlannerAtEveryPayload) {
  int shapes = 0;
  for (const PlanShape& p : supported_plans(70)) {
    const int n = p.n_ranks;
    const auto cc = compile(plan_collective(p.type, p.algo, n, 0));
    for (const Bytes payload :
         {Bytes{0}, Bytes{1}, Bytes{n - 1}, Bytes{n}, Bytes{n + 1},
          Bytes{kMiB + 3}, Bytes{5 * kMiB}}) {
      const auto plan = plan_collective(p.type, p.algo, n, payload);
      ASSERT_EQ(cc->transfers.size(), plan.transfers.size());
      const Bytes unit = cc->unit_bytes(payload);
      for (std::size_t i = 0; i < plan.transfers.size(); ++i) {
        ASSERT_EQ(cc->transfers[i].units * unit, plan.transfers[i].bytes)
            << to_string(p.type) << "/" << to_string(p.algo) << " n=" << n
            << " payload=" << payload << " transfer " << i;
      }
    }
    ++shapes;
  }
  EXPECT_EQ(shapes, 1090);
}

// compile(type, algo, n) collects the planner's transfers without a
// schedule; it must build the very shape compile(plan_collective(...))
// builds, whatever payload the schedule was priced at.
TEST(CompiledCollective,
     ShapeCompileEqualsScheduleCompileForEverySupportedShape) {
  int shapes = 0;
  for (const PlanShape& p : supported_plans(70)) {
    const auto shape = compile(p.type, p.algo, p.n_ranks);
    SCOPED_TRACE(std::string(to_string(p.type)) + "/" + to_string(p.algo) +
                 " n=" + std::to_string(p.n_ranks));
    // The planner announces its exact transfer count up front.
    EXPECT_EQ(shape->transfers.capacity(), shape->transfers.size());
    for (const Bytes payload : {Bytes{0}, Bytes{kMiB + 3}}) {
      const auto ref =
          compile(plan_collective(p.type, p.algo, p.n_ranks, payload));
      EXPECT_EQ(shape->n_ranks, ref->n_ranks);
      EXPECT_EQ(shape->n_steps, ref->n_steps);
      EXPECT_EQ(shape->unit_divisor, ref->unit_divisor);
      EXPECT_EQ(shape->transfers, ref->transfers);
      EXPECT_EQ(shape->step_begin, ref->step_begin);
      EXPECT_EQ(shape->step_order, ref->step_order);
      EXPECT_EQ(shape->dep_begin, ref->dep_begin);
      EXPECT_EQ(shape->dep_list, ref->dep_list);
      EXPECT_EQ(shape->initial_deps, ref->initial_deps);
      EXPECT_EQ(shape->peer_pairs, ref->peer_pairs);
      EXPECT_EQ(shape->step_pair_begin, ref->step_pair_begin);
      EXPECT_EQ(shape->step_pair_end, ref->step_pair_end);
      EXPECT_EQ(shape->step_pairs, ref->step_pairs);
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

TEST(CompiledCollective, RejectsBytesThatBreakTheUnitRule) {
  // A ring AllGather at 1 MiB + 3 on 4 ranks: 1 chunk = 262,145 bytes.
  auto ring = plan_collective(CollectiveType::kAllGather, Algorithm::kRing, 4,
                              kMiB + 3);
  EXPECT_NO_THROW(compile(ring));
  ring.transfers[5].bytes -= 1;  // a floored chunk
  EXPECT_THROW(compile(ring), InvariantError);

  // An AllToAll slice is payload / n_ranks, rounded up.
  auto a2a = plan_collective(CollectiveType::kAllToAll, Algorithm::kPairwise,
                             4, 400);
  a2a.transfers[0].bytes = 400;
  EXPECT_THROW(compile(a2a), InvariantError);

  // A Barrier token carries no bytes.
  auto barrier =
      plan_collective(CollectiveType::kBarrier, Algorithm::kRing, 4, 0);
  barrier.transfers[0].bytes = 1;
  EXPECT_THROW(compile(barrier), InvariantError);

  // A hand-built transfer whose chunk range disagrees with its bytes.
  CollectiveSchedule sched;
  sched.type = CollectiveType::kAllGather;
  sched.n_ranks = 2;
  sched.n_steps = 1;
  sched.n_chunks = 2;
  sched.payload_bytes = 16;
  sched.transfers = {Transfer{0, 0, 1, 8, 0, 1}};
  EXPECT_NO_THROW(compile(sched));
  sched.transfers = {Transfer{0, 0, 1, 8, 0, 2}};
  EXPECT_THROW(compile(sched), InvariantError);
}

}  // namespace
}  // namespace opus::collective
