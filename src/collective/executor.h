// Dependency-driven collective execution on the simulated fabric.
//
// The executor runs compiled collectives (collective/compiled.h): every run
// shares one immutable, byte-free CompiledCollective, copies only its
// per-transfer dependency counts, and prices each transfer from its own
// payload (units x unit, the unit computed once per run). Default mode is
// *pipelined*: a transfer at step s from rank r launches as soon as (a) r's
// own step s-1 send finished (port serialization) and (b) the step s-1 data
// destined to r arrived (data dependency) — the compiled dependency graph.
// This reproduces ring pipelining without global per-step barriers. When
// the transport's prepare_collective reports the run step-synchronous (C1
// on photonic rails), execution falls back to step-synchronous mode over
// the compiled step index: prepare step -> run all its transfers -> prepare
// next step. The executor knows nothing about circuits: whether runs of one
// group may overlap is the transport's decision.
//
// The executor owns every in-flight run's RunState and recycles it when the
// run finishes (its buffers included). A RunState holds the `Run` that
// every transport hook receives, so that view keeps one address for the
// life of the run. A transfer's completion callback captures only the
// RunState pointer and the transfer index — small enough for std::function
// to hold inline, so launching a transfer allocates nothing. A run whose
// transfers never deliver (aborted traffic) keeps its RunState until the
// executor is destroyed.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "collective/comm_group.h"
#include "collective/compiled.h"
#include "collective/transport.h"
#include "sim/simulator.h"

namespace opus::collective {

class CollectiveExecutor {
 public:
  CollectiveExecutor(sim::Simulator& sim, Transport& transport);
  ~CollectiveExecutor();
  CollectiveExecutor(const CollectiveExecutor&) = delete;
  CollectiveExecutor& operator=(const CollectiveExecutor&) = delete;

  /// Statistics of one collective execution.
  struct Result {
    TimeNs start = 0;
    TimeNs end = 0;
    int transfers = 0;
    bool step_synchronous = false;
    TimeNs duration() const { return end - start; }
  };

  /// Runs `cc` over `group` with a payload of `payload` bytes (P in the
  /// planner's pricing rule, planner.h): transfer i sends
  /// cc->transfers[i].units x cc->unit_bytes(payload) bytes, and every
  /// transport hook sees this payload. `on_complete(result)` fires when
  /// every transfer has delivered. Multiple collectives may be in flight
  /// concurrently on one executor; `Result::start` is the time of this
  /// call, so a run the transport holds back counts its wait.
  void run(const CommGroup& group,
           std::shared_ptr<const CompiledCollective> cc, Bytes payload,
           std::function<void(const Result&)> on_complete);

  /// Total collectives completed by this executor.
  int completed() const { return completed_; }

 private:
  struct RunState;
  /// A recycled RunState whose countdown buffer fits `n_transfers` (the
  /// smallest such), else any free one, else a new one.
  RunState* acquire_run(std::size_t n_transfers);
  void launch_pipelined(RunState* rs);
  void launch_transfer(RunState* rs, int index);
  void on_transfer_done(RunState* rs, int index);
  void run_step_synchronous(RunState* rs, int step);
  void finish(RunState* rs);

  sim::Simulator& sim_;
  Transport& transport_;
  int completed_ = 0;
  /// Every RunState this executor made (stable addresses: callbacks hold
  /// them), and the finished ones free for reuse.
  std::vector<std::unique_ptr<RunState>> runs_;
  std::vector<RunState*> free_runs_;
};

}  // namespace opus::collective
