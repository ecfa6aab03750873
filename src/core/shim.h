// Opus shim runtime (Fig. 6 of the paper).
//
// Sits between the application (the workload engine's collective ops) and
// the collective communication layer (the executor). By intercepting
// communication intents it learns the traffic pattern of the first training
// iteration (profiling); on later iterations it predicts the next
// communication phase and issues *speculative* reconfiguration requests the
// moment the previous phase's traffic completes — hiding the OCS switching
// delay inside the inter-parallelism window (provisioning, Fig. 5).
//
// Phases are keyed by parallelism dimension: Opus reconfigures only when the
// traffic pattern shifts between parallelisms (§4), and one dimension's
// phase config is the union of every group's circuits in that phase (the
// "Circuit config" annotations of Fig. 3).
#pragma once

#include <functional>
#include <vector>

#include "collective/comm_group.h"
#include "common/ids.h"
#include "core/circuit_planner.h"

namespace opus::core {

/// One profiled communication phase: a maximal run of consecutive intents
/// of the same parallelism dimension, with the merged circuits they need.
struct ProfiledPhase {
  collective::ParallelismDim dim = collective::ParallelismDim::kOther;
  std::vector<RailCircuits> layout;  ///< union over the phase's intents
  int n_collectives = 0;
};

/// Synthetic group id used when the shim provisions a whole dimension's
/// circuits speculatively (distinct from any application group id).
GroupId speculative_group_id(collective::ParallelismDim dim);

class OpusShim {
 public:
  /// Invoked (group, layout) when the shim wants the next phase's circuits
  /// provisioned ahead of demand.
  using SpeculateFn =
      std::function<void(GroupId, const std::vector<RailCircuits>&)>;

  explicit OpusShim(bool provisioning_enabled)
      : provisioning_(provisioning_enabled) {}

  void set_speculate(SpeculateFn fn) { speculate_ = std::move(fn); }
  bool profiling() const { return iteration_ == 0; }

  void iteration_started(int index);

  /// Intercepts a collective intent before it launches.
  void on_intent(collective::ParallelismDim dim,
                 const std::vector<RailCircuits>& layout);

  /// Called when a collective of `dim` finished; may trigger speculative
  /// provisioning of the next phase.
  void on_finished(collective::ParallelismDim dim);

  const std::vector<ProfiledPhase>& profile() const { return profile_; }
  int speculative_requests() const { return speculative_requests_; }
  /// Intents that did not match the predicted phase sequence.
  int mispredictions() const { return mispredictions_; }

 private:
  void merge_layout(std::vector<RailCircuits>& into,
                    const std::vector<RailCircuits>& add) const;
  void maybe_speculate();

  bool provisioning_;
  SpeculateFn speculate_;
  int iteration_ = -1;

  std::vector<ProfiledPhase> profile_;  // built during iteration 0

  // Replay state (iterations >= 1).
  std::size_t phase_pos_ = 0;
  int phase_completed_ = 0;
  int speculative_requests_ = 0;
  int mispredictions_ = 0;
};

}  // namespace opus::core
