// Compiled collectives: the byte-free shape of a collective plus everything
// derived from it that the executor and the transports read on every launch.
//
// A training iteration repeats the same collectives every iteration, so the
// derived indexes are built once by compile() and shared, immutable, by every
// run of that collective shape (IterationEngine caches one per (type,
// algorithm, group size)). compile(type, algo, n_ranks) collects the
// planner's transfers straight into the shape; index() indexes a hand-built
// one. The shape holds no payload: by the planner's pricing
// rule every transfer moves a whole number of units, unit(P) = ceil(P /
// unit_divisor), so a transfer stores its unit count and each run prices it
// from its own payload. Indexes are flat arrays, not vectors of vectors, so
// a 512-rank ring costs a few allocations rather than one per transfer. Most
// are CSR: the entries of row i are list[begin[i] .. begin[i+1]).
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "collective/planner.h"

namespace opus::collective {

/// One transfer of a compiled shape: it sends units x the run's unit bytes.
struct UnitTransfer {
  int step = 0;
  int src = 0;
  int dst = 0;
  int units = 0;

  friend bool operator==(const UnitTransfer&, const UnitTransfer&) = default;
};

struct CompiledCollective {
  int n_ranks = 0;
  int n_steps = 0;
  /// d in unit(P) = ceil(P / d): the schedule's chunk count for chunk-tracked
  /// schedules (ring, recursive, direct AllGather), n_ranks for AllToAll
  /// slices, 1 for payload-wide transfers and for Barrier.
  Bytes unit_divisor = 1;
  /// The transfers in the order the planner emitted them.
  std::vector<UnitTransfer> transfers;

  /// Bytes one unit carries in a run of `payload` bytes.
  Bytes unit_bytes(Bytes payload) const {
    return collective::unit_bytes(payload, unit_divisor);
  }

  /// Step index: transfer indices of step s, ascending.
  std::vector<int> step_begin;  ///< n_steps + 1 offsets into step_order
  std::vector<int> step_order;

  /// Pipelined dependency graph. Transfer t at step s depends on every step
  /// s-1 transfer p with p.src == t.src (t.src's previous send must have
  /// left: port serialization) or p.dst == t.src (the data t.src forwards
  /// must have arrived), each such p counted once. Each dependents row is in
  /// ascending transfer order — the order in which completions launch them.
  std::vector<int> dep_begin;  ///< transfers + 1 offsets into dep_list
  std::vector<int> dep_list;
  /// Per-transfer dependency count; a run copies it as its countdown.
  std::vector<int> initial_deps;

  /// Distinct (src, dst) rank pairs, sorted: over the whole schedule, and
  /// per step. Step s's pairs are step_pairs[step_pair_begin[s] ..
  /// step_pair_end[s]); a step with the same pairs as the step before it
  /// (every step of a ring) shares that step's row instead of storing a copy.
  std::vector<std::pair<int, int>> peer_pairs;
  std::vector<int> step_pair_begin;
  std::vector<int> step_pair_end;
  std::vector<std::pair<int, int>> step_pairs;

  std::span<const int> step(int s) const {
    return row(step_order, step_begin, s);
  }
  std::span<const int> dependents(int transfer) const {
    return row(dep_list, dep_begin, transfer);
  }
  std::span<const std::pair<int, int>> peer_pairs_of_step(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return slice(step_pairs, step_pair_begin[i], step_pair_end[i]);
  }

 private:
  template <typename T>
  static std::span<const T> row(const std::vector<T>& list,
                                const std::vector<int>& begin, int i) {
    const auto r = static_cast<std::size_t>(i);
    return slice(list, begin[r], begin[r + 1]);
  }
  template <typename T>
  static std::span<const T> slice(const std::vector<T>& list, int b, int e) {
    return std::span<const T>(list).subspan(static_cast<std::size_t>(b),
                                            static_cast<std::size_t>(e - b));
  }
};

/// Plans the shape of `type` over `n_ranks` using `algo` (plan_shape) and
/// builds every index of it. Throws like plan_shape.
std::shared_ptr<const CompiledCollective> compile(CollectiveType type,
                                                  Algorithm algo,
                                                  int n_ranks);

/// Builds every index of a shape whose n_ranks, n_steps, unit_divisor and
/// transfers are filled in (compile() fills them from the planner). Throws
/// InvariantError on a transfer whose step, rank or unit count is out of
/// range.
std::shared_ptr<const CompiledCollective> index(CompiledCollective shape);

}  // namespace opus::collective
