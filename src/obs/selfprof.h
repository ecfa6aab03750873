// Self-profiling: opt-in wall-clock scoped timers accumulated per named
// phase (fluid re-solve, OCS reconfiguration, event-loop drain, fleet
// baseline sweep, ...), reported as a per-phase wall-time table.
//
// Wall-clock readings stay inside this class and its table report — they
// never reach simulation state, result JSON, or any golden-checked output.
// Not thread-safe: attach one profiler to one simulation's hot paths (the
// fleet's isolated-baseline cells run with telemetry reset, so sweep
// worker threads never touch the fleet profiler).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/profile.h"
#include "common/table.h"

namespace opus::obs {

class SelfProfiler : public ProfileSink {
 public:
  /// Finds or creates the phase, returning its stable id.
  int phase(const char* name) override;

  /// Accumulates one invocation's inclusive wall time.
  void record(int phase_id, std::int64_t wall_ns) override;

  std::size_t phase_count() const { return phases_.size(); }
  std::int64_t calls(int phase_id) const;
  std::int64_t total_ns(int phase_id) const;

  /// Per-phase wall-time table (phase | calls | total ms | mean us), rows
  /// in first-use order.
  TextTable report() const;

 private:
  struct Phase {
    std::string name;
    std::int64_t calls = 0;
    std::int64_t total_ns = 0;
  };
  std::vector<Phase> phases_;
};

}  // namespace opus::obs
