// Symbolic verification of collective shapes: every planner output must
// satisfy its collective's postcondition, and corrupted shapes must be
// rejected (missing transfers, double-counted reductions, wrong chunks,
// steps out of order).
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "collective/planner.h"
#include "collective/verifier.h"
#include "common/error.h"
#include "supported_plans.h"

namespace opus::collective {
namespace {

struct VerifyCase {
  CollectiveType type;
  Algorithm algo;
  int n;
};

class VerifierSweep : public ::testing::TestWithParam<VerifyCase> {};

TEST_P(VerifierSweep, PlannedSchedulesVerify) {
  const auto& [type, algo, n] = GetParam();
  const auto report = verify_shape(type, algo, n);
  EXPECT_TRUE(report.ok) << to_string(type) << "/" << to_string(algo) << "/n="
                         << n << ": " << report.error;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, VerifierSweep,
    ::testing::Values(
        VerifyCase{CollectiveType::kAllReduce, Algorithm::kRing, 2},
        VerifyCase{CollectiveType::kAllReduce, Algorithm::kRing, 3},
        VerifyCase{CollectiveType::kAllReduce, Algorithm::kRing, 8},
        VerifyCase{CollectiveType::kAllReduce, Algorithm::kRing, 17},
        VerifyCase{CollectiveType::kAllReduce, Algorithm::kRing, 64},
        VerifyCase{CollectiveType::kAllReduce,
                   Algorithm::kRecursiveHalvingDoubling, 2},
        VerifyCase{CollectiveType::kAllReduce,
                   Algorithm::kRecursiveHalvingDoubling, 8},
        VerifyCase{CollectiveType::kAllReduce,
                   Algorithm::kRecursiveHalvingDoubling, 64},
        VerifyCase{CollectiveType::kAllReduce, Algorithm::kBinomialTree, 2},
        VerifyCase{CollectiveType::kAllReduce, Algorithm::kBinomialTree, 7},
        VerifyCase{CollectiveType::kAllReduce, Algorithm::kBinomialTree, 24},
        VerifyCase{CollectiveType::kAllGather, Algorithm::kRing, 2},
        VerifyCase{CollectiveType::kAllGather, Algorithm::kRing, 9},
        VerifyCase{CollectiveType::kAllGather, Algorithm::kRing, 33},
        VerifyCase{CollectiveType::kAllGather, Algorithm::kRecursiveDoubling,
                   4},
        VerifyCase{CollectiveType::kAllGather, Algorithm::kRecursiveDoubling,
                   32},
        VerifyCase{CollectiveType::kAllGather, Algorithm::kDirect, 6},
        VerifyCase{CollectiveType::kReduceScatter, Algorithm::kRing, 2},
        VerifyCase{CollectiveType::kReduceScatter, Algorithm::kRing, 10},
        VerifyCase{CollectiveType::kReduceScatter, Algorithm::kRing, 31},
        VerifyCase{CollectiveType::kAllToAll, Algorithm::kPairwise, 2},
        VerifyCase{CollectiveType::kAllToAll, Algorithm::kPairwise, 12},
        VerifyCase{CollectiveType::kAllToAll, Algorithm::kDirect, 9},
        VerifyCase{CollectiveType::kBroadcast, Algorithm::kRing, 5},
        VerifyCase{CollectiveType::kBroadcast, Algorithm::kBinomialTree, 11},
        VerifyCase{CollectiveType::kBroadcast, Algorithm::kDirect, 7},
        VerifyCase{CollectiveType::kReduce, Algorithm::kRing, 6},
        VerifyCase{CollectiveType::kReduce, Algorithm::kBinomialTree, 19},
        VerifyCase{CollectiveType::kReduce, Algorithm::kDirect, 5},
        VerifyCase{CollectiveType::kSendRecv, Algorithm::kDirect, 2},
        VerifyCase{CollectiveType::kBarrier, Algorithm::kRing, 6},
        VerifyCase{CollectiveType::kBarrier, Algorithm::kRecursiveDoubling,
                   10}));

// Every supported (type, algorithm, group size) up to 70 ranks verifies.
TEST(Verifier, EverySupportedShapeVerifies) {
  int shapes = 0;
  for (const PlanShape& p : supported_plans(70)) {
    const auto report = verify_shape(p.type, p.algo, p.n_ranks);
    ASSERT_TRUE(report.ok) << to_string(p.type) << "/" << to_string(p.algo)
                           << " n=" << p.n_ranks << ": " << report.error;
    ++shapes;
  }
  EXPECT_EQ(shapes, 1090);
}

// ---- negative cases: the verifier must catch broken shapes ----------------

/// One transfer as a planner emits it.
struct Emit {
  int step;
  int src;
  int dst;
  int chunk_lo;
  int chunk_hi;
  bool reduce_op;
};

/// Forwards a planned shape to a verifier, replacing transfer i (of n) by
/// the transfers `edit` returns: none drops it, two duplicate it.
class EditingSink final : public ShapeSink {
 public:
  using Edit = std::function<std::vector<Emit>(std::size_t i, std::size_t n,
                                               Emit e)>;
  EditingSink(ShapeSink& out, Edit edit) : out_(out), edit_(std::move(edit)) {}

  void begin(int n_steps, int n_chunks, std::size_t n_transfers) override {
    n_ = n_transfers;
    out_.begin(n_steps, n_chunks, n_transfers);
  }
  void transfer(int step, int src, int dst, int chunk_lo, int chunk_hi,
                bool reduce_op) override {
    const Emit e{step, src, dst, chunk_lo, chunk_hi, reduce_op};
    for (const Emit& f : edit_(i_++, n_, e)) {
      out_.transfer(f.step, f.src, f.dst, f.chunk_lo, f.chunk_hi,
                    f.reduce_op);
    }
  }

 private:
  ShapeSink& out_;
  Edit edit_;
  std::size_t i_ = 0;
  std::size_t n_ = 0;
};

VerifyReport verify_edited(CollectiveType type, Algorithm algo, int n,
                           EditingSink::Edit edit) {
  ShapeVerifier verifier(type, n);
  EditingSink sink(verifier, std::move(edit));
  plan_shape(type, algo, n, sink);
  return verifier.report();
}

/// Edits only transfer `at`.
EditingSink::Edit edit_one(std::size_t at, std::function<void(Emit&)> edit) {
  return [at, edit = std::move(edit)](std::size_t i, std::size_t, Emit e) {
    if (i == at) edit(e);
    return std::vector<Emit>{e};
  };
}

std::vector<Emit> drop_last(std::size_t i, std::size_t n, Emit e) {
  return i + 1 == n ? std::vector<Emit>{} : std::vector<Emit>{e};
}

TEST(VerifierNegative, MissingTransferFailsAllReduce) {
  EXPECT_FALSE(
      verify_edited(CollectiveType::kAllReduce, Algorithm::kRing, 4, drop_last)
          .ok);
}

TEST(VerifierNegative, DoubleCountedReductionIsCaught) {
  // Flip the first all-gather-phase copy (transfer n(n-1) = 12, at step
  // n-1 = 3) into a reduce: the receiver now adds an already-complete chunk
  // to its own partial sum -> contribution counted twice. Set semantics
  // would miss this; exact counting must not.
  EXPECT_FALSE(verify_edited(CollectiveType::kAllReduce, Algorithm::kRing, 4,
                             edit_one(12, [](Emit& e) {
                               ASSERT_EQ(e.step, 3);
                               e.reduce_op = true;
                             }))
                   .ok);
}

TEST(VerifierNegative, WrongChunkFailsAllGather) {
  EXPECT_FALSE(verify_edited(CollectiveType::kAllGather, Algorithm::kRing, 4,
                             edit_one(0, [](Emit& e) {
                               e.chunk_lo = (e.chunk_lo + 1) % 4;
                               e.chunk_hi = e.chunk_lo + 1;
                             }))
                   .ok);
}

TEST(VerifierNegative, DroppedBarrierEdgeIsCaught) {
  EXPECT_FALSE(verify_edited(CollectiveType::kBarrier,
                             Algorithm::kRecursiveDoubling, 8, drop_last)
                   .ok);
}

TEST(VerifierNegative, DuplicateAllToAllSliceIsCaught) {
  EXPECT_FALSE(verify_edited(CollectiveType::kAllToAll, Algorithm::kPairwise,
                             4,
                             [](std::size_t i, std::size_t, Emit e) {
                               return i == 0 ? std::vector<Emit>{e, e}
                                             : std::vector<Emit>{e};
                             })
                   .ok);
}

TEST(VerifierNegative, RewiredReduceTreeStillVerifies) {
  // Rerouting (4 -> 0) to (4 -> 1) keeps the reduction correct: rank 4's
  // contribution reaches the root through rank 1's later send. The verifier
  // is semantic, not structural, so this must PASS.
  EXPECT_TRUE(verify_edited(CollectiveType::kReduce, Algorithm::kBinomialTree,
                            8, edit_one(0, [](Emit& e) {
                              ASSERT_EQ(e.src, 4);
                              ASSERT_EQ(e.dst, 0);
                              e.dst = 1;
                            }))
                  .ok);
}

TEST(VerifierNegative, WrongSourceFailsReduce) {
  // Replacing sender 4 with sender 5 double-counts rank 5's contribution
  // and drops rank 4's entirely.
  EXPECT_FALSE(verify_edited(CollectiveType::kReduce,
                             Algorithm::kBinomialTree, 8,
                             edit_one(0, [](Emit& e) {
                               ASSERT_EQ(e.src, 4);
                               e.src = 5;
                             }))
                   .ok);
}

TEST(VerifierNegative, SameStepRelayIsCaught) {
  // A ring broadcast on 3 ranks relays 0 -> 1 at step 0 and 1 -> 2 at step
  // 1. Moved into step 0, the relay reads rank 1 before the step, when it
  // holds nothing yet: rank 2 never gets the data.
  EXPECT_FALSE(verify_edited(CollectiveType::kBroadcast, Algorithm::kRing, 3,
                             edit_one(1, [](Emit& e) { e.step = 0; }))
                   .ok);
}

TEST(VerifierNegative, StepOutOfOrderIsRejected) {
  // The verifier applies one buffered step at a time, so a transfer that
  // arrives after a later step's would be applied in the wrong snapshot.
  EXPECT_THROW(verify_edited(CollectiveType::kAllReduce, Algorithm::kRing, 4,
                             edit_one(0, [](Emit& e) { e.step = 1; })),
               InvariantError);
}

TEST(Verifier, SingleRankAlwaysOk) {
  EXPECT_TRUE(verify_shape(CollectiveType::kAllReduce, Algorithm::kRing, 1).ok);
}

TEST(Verifier, RejectsOversizedGroups) {
  EXPECT_THROW(ShapeVerifier(CollectiveType::kAllReduce, 10'000),
               InvariantError);
  EXPECT_THROW(verify_shape(CollectiveType::kAllReduce, Algorithm::kRing, 257),
               InvariantError);
}

}  // namespace
}  // namespace opus::collective
