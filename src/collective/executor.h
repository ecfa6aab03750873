// Dependency-driven collective execution on the simulated fabric.
//
// The executor runs compiled collectives (collective/compiled.h): every run
// shares one immutable CompiledCollective and copies only its per-transfer
// dependency counts. Default mode is *pipelined*: a transfer at step s from
// rank r launches as soon as (a) r's own step s-1 send finished (port
// serialization) and (b) the step s-1 data destined to r arrived (data
// dependency) — the compiled dependency graph. This reproduces ring
// pipelining without global per-step barriers. When the transport reports
// that the schedule needs per-step circuit preparation (C1 on photonic
// rails), execution falls back to step-synchronous mode over the compiled
// step index: prepare step -> run all its transfers -> prepare next step.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "collective/comm_group.h"
#include "collective/compiled.h"
#include "collective/transport.h"
#include "sim/simulator.h"

namespace opus::collective {

class CollectiveExecutor {
 public:
  CollectiveExecutor(sim::Simulator& sim, Transport& transport)
      : sim_(sim), transport_(transport) {}

  /// Statistics of one collective execution.
  struct Result {
    TimeNs start = 0;
    TimeNs end = 0;
    int transfers = 0;
    bool step_synchronous = false;
    TimeNs duration() const { return end - start; }
  };

  /// Runs `cc` over `group`; `on_complete(result)` fires when every
  /// transfer has delivered. Multiple collectives (on different groups) may
  /// be in flight concurrently on one executor. Step-synchronous schedules
  /// (those needing per-step circuit preparation) are serialized per group,
  /// like same-communicator collectives on one NCCL stream — their per-step
  /// reconfigurations must not interleave.
  void run(const CommGroup& group,
           std::shared_ptr<const CompiledCollective> cc,
           std::function<void(const Result&)> on_complete);

  /// Total collectives completed by this executor.
  int completed() const { return completed_; }

 private:
  struct RunState;
  struct PendingRun {
    CommGroup group;
    std::shared_ptr<const CompiledCollective> cc;
    std::function<void(const Result&)> on_complete;
  };
  void start_run(const CommGroup& group,
                 std::shared_ptr<const CompiledCollective> cc,
                 std::function<void(const Result&)> on_complete,
                 bool step_sync);
  void launch_pipelined(std::shared_ptr<RunState> rs);
  void launch_transfer(const std::shared_ptr<RunState>& rs, int index);
  void on_transfer_done(const std::shared_ptr<RunState>& rs, int index);
  void run_step_synchronous(std::shared_ptr<RunState> rs, int step);
  void finish(const std::shared_ptr<RunState>& rs);

  sim::Simulator& sim_;
  Transport& transport_;
  int completed_ = 0;
  std::set<GroupId> step_sync_busy_;
  std::map<GroupId, std::deque<PendingRun>> step_sync_queue_;
};

}  // namespace opus::collective
