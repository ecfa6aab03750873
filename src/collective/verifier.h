// Symbolic collective verifier.
//
// A ShapeVerifier is a ShapeSink: it executes the transfers a planner emits
// over an abstract data model — per-rank, per-chunk contribution counts — and
// checks the collective's postcondition: every rank ends with exactly the
// data the collective promises, with every contribution counted exactly once
// (catching both missing data and double-counted partial sums).
// Timing-independent: the model applies each step atomically with snapshot
// semantics, so simultaneous pairwise exchanges are handled correctly. It
// buffers one step's transfers at a time, so the planner must emit steps in
// ascending order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "collective/planner.h"

namespace opus::collective {

struct VerifyReport {
  bool ok = true;
  std::string error;  ///< empty when ok
};

class ShapeVerifier final : public ShapeSink {
 public:
  /// Throws InvariantError on an empty group or one above 256 ranks (the
  /// model is O(n^3) memory).
  ShapeVerifier(CollectiveType type, int n_ranks);

  void begin(int n_steps, int n_chunks, std::size_t n_transfers) override;
  /// Buffers a transfer of the current step; the first transfer of a later
  /// step applies the buffered one. Throws InvariantError on a step below
  /// the previous transfer's, or a step or rank out of range.
  void transfer(int step, int src, int dst, int chunk_lo, int chunk_hi,
                bool reduce_op) override;

  /// Applies the last step and checks the collective's postcondition.
  VerifyReport report();

 private:
  struct Pending {
    int src;
    int dst;
    int chunk_lo;
    int chunk_hi;
    bool reduce_op;
  };

  void apply_step();
  std::size_t cell(int rank, int chunk, int origin) const;
  /// Rank `rank`'s chunk `chunk` holds every rank's contribution once.
  bool complete(int rank, int chunk) const;
  /// Rank `rank`'s chunk `chunk` holds exactly rank `origin`'s input.
  bool exactly(int rank, int chunk, int origin) const;

  CollectiveType type_;
  int n_;
  int n_steps_ = 0;
  int chunks_ = 0;
  int step_ = 0;  ///< the step of the buffered transfers
  std::vector<Pending> pending_;
  /// state_[cell(r, c, k)]: how many times rank k's input for chunk c is
  /// included in rank r's buffer for chunk c. AllToAll and Barrier use one
  /// chunk: the slices rank r received from rank k, and whether r has
  /// observed k's arrival.
  std::vector<std::uint16_t> state_;
  std::vector<std::uint16_t> before_;  ///< the snapshot a step reads
};

/// Plans the shape of `type` over `n_ranks` using `algo` into a
/// ShapeVerifier and returns its report. Throws like plan_shape and the
/// ShapeVerifier constructor.
VerifyReport verify_shape(CollectiveType type, Algorithm algo, int n_ranks);

}  // namespace opus::collective
