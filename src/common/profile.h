// Wall-clock self-profiling: opt-in scoped timers accumulated per named
// phase and reported as a per-phase wall-time table.
//
// A run has at most one Profiler, held by its sim::Simulator (null by
// default), and every layer reaches it through the simulator it already
// holds: a disabled profiler costs exactly one branch per timed scope. The
// phases the layers time have fixed ids, so timing a new layer is one
// ProfileScope line plus one entry in the phase list below; any other name
// registers on first use through phase(). Wall-clock readings stay inside
// the profiler and its table report — they never reach simulation state,
// result JSON, or any golden-checked output. Not thread-safe: one profiler
// serves one simulation's hot paths (the fleet's isolated-baseline cells run
// with telemetry reset, so sweep worker threads never touch it).
#pragma once

#include <chrono>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/table.h"

namespace opus {

class Profiler {
 public:
  /// The phase list: the phases the layers time, with ids fixed at
  /// construction in this order, and their names beside them. The names are
  /// what the table and the benchmark harness read; "ocs.reconfigure_batch"
  /// keeps its historical name.
  enum Builtin : int {
    kFleetBaselineSweep,  ///< the fleet's isolated-baseline sweep
    kSimRun,              ///< a Simulator::run / run_until drain
    kFluidRecompute,      ///< one FluidNetwork max-min solve
    kOcsReconfigure,      ///< one OpticalCircuitSwitch::reconfigure call
    kBuiltinCount,
  };
  static constexpr const char* kBuiltinNames[] = {
      "fleet.baseline_sweep",
      "sim.run",
      "fluid.recompute",
      "ocs.reconfigure_batch",
  };

  Profiler();

  /// Finds the phase, registering it on first use; returns its stable id.
  int phase(const char* name);

  /// Accumulates one invocation's inclusive wall time.
  void record(int phase_id, std::int64_t wall_ns);

  std::int64_t calls(int phase_id) const;
  std::int64_t total_ns(int phase_id) const;

  /// Per-phase wall-time table (phase | calls | total ms | mean us), rows in
  /// id order; a phase that never recorded is left out.
  TextTable report() const;

 private:
  struct Phase {
    std::string name;
    std::int64_t calls = 0;
    std::int64_t total_ns = 0;
  };
  /// Checked index of a registered phase.
  std::size_t index(int phase_id) const;

  std::vector<Phase> phases_;
};
static_assert(std::size(Profiler::kBuiltinNames) == Profiler::kBuiltinCount);

/// RAII scope: times its own lifetime and records it on destruction. A null
/// profiler makes construction and destruction a single predictable branch
/// each.
class ProfileScope {
 public:
  ProfileScope(Profiler* profiler, int phase_id)
      : profiler_(profiler), phase_(phase_id) {
    if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      profiler_->record(
          phase_,
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count());
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler* profiler_;
  int phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace opus
