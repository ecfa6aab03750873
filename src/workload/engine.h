// Iteration engine: executes an IterationDag on the simulated cluster.
//
// Compute ops occupy their GPUs (one op part per GPU at a time, FIFO);
// collective ops run through the CollectiveExecutor over the injected
// Transport (DirectTransport for electrical rails, Opus/static-ring/rotor
// transports for the photonic fabrics), so the same DAG drives every fabric
// in the comparison set. Every communication-group execution and every
// compute span is recorded into the TraceRecorder.
//
// Collective cache: an iteration repeats the same collectives, so each
// distinct shape (type, algorithm, group size) is compiled once, straight
// from the planner, on its first launch, and every later launch of any
// payload shares the immutable result.
// The cache belongs to the engine (one per tenant or sweep thread), and
// compiling lazily keeps the work out of tenant setup.
//
// Event coalescing: the GPU parts of one compute op that start together
// (all their GPUs idle at dispatch) share a single completion event — at
// 512-way data parallelism a per-microbatch op is one event, not 512. Only
// parts queued behind a busy GPU fall back to per-GPU completion events, so
// the simulator's per-iteration event count grows with the number of active
// spans in the DAG rather than with world size (the scaling ceiling after
// the PR-2 fluid-solver work; pinned by BM_EngineEventScaling).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "collective/executor.h"
#include "collective/planner.h"
#include "collective/transport.h"
#include "net/cluster.h"
#include "sim/simulator.h"
#include "trace/recorder.h"
#include "workload/iteration.h"

namespace opus::workload {

class IterationEngine {
 public:
  struct Options {
    /// Host-side dispatch overhead between a collective's dependencies
    /// completing and the slowest rank actually joining it (CPU scheduling,
    /// kernel launch, lazy DTensor initialization). Drawn deterministically
    /// per (op, iteration) from [min, max]; set both to 0 to disable.
    TimeNs dispatch_min = usecs(300);
    TimeNs dispatch_max = msecs(3);
    std::uint64_t seed = 42;

    /// Field-wise equality (config/serde skips fields equal to the default).
    friend bool operator==(const Options&, const Options&) = default;
  };

  IterationEngine(sim::Simulator& sim, net::Cluster& cluster,
                  collective::Transport& transport,
                  trace::TraceRecorder* recorder, Options options);
  IterationEngine(sim::Simulator& sim, net::Cluster& cluster,
                  collective::Transport& transport,
                  trace::TraceRecorder* recorder = nullptr)
      : IterationEngine(sim, cluster, transport, recorder, Options{}) {}

  /// Runs `iterations` executions of `dag` back to back, then fires
  /// `on_done`. Call Simulator::run() afterwards to advance the simulation.
  void run(const IterationDag& dag, int iterations,
           std::function<void()> on_done = {});

  /// Convenience: schedules `iterations` runs and drives the simulator to
  /// completion; returns per-iteration wall times.
  std::vector<TimeNs> run_to_completion(const IterationDag& dag,
                                        int iterations);

  const std::vector<TimeNs>& iteration_times() const { return iter_times_; }

  /// Distinct collectives compiled so far (the collective cache's size).
  std::size_t compiled_collectives() const { return compiled_.size(); }

  /// Kills the run mid-iteration (failure churn evicted the tenant): every
  /// already-scheduled engine callback becomes a no-op and on_done never
  /// fires. Completed iterations stay in iteration_times() — the fleet's
  /// checkpoint when it re-places the job. Terminal: an aborted engine is
  /// never reused (a re-placed job gets a fresh tenant).
  void abort();
  bool aborted() const { return aborted_; }

 private:
  void start_iteration();
  void finish_iteration();
  void op_ready(OpId id);
  void start_compute(const Op& op);
  void start_collective(const Op& op);
  TimeNs dispatch_latency(OpId id) const;
  void complete_op(OpId id);
  /// Completion of the coalesced cohort of `op` parts that started together
  /// at `start` on `gpus` (one simulator event for the whole cohort).
  void finish_cohort(OpId id, const std::vector<int>& gpus, TimeNs start);
  void gpu_finished_part(int gpu, OpId id);
  void run_next_on_gpu(int gpu);
  void record_compute_span(int gpu, OpId id, TimeNs start);

  /// Degree budget for algorithm choice on this group's fabric path:
  /// 0 (unconstrained) on scale-up or electrical rails; nic_ports on
  /// photonic rails.
  int degree_budget(const collective::CommGroup& group) const;

  sim::Simulator& sim_;
  net::Cluster& cluster_;
  collective::Transport& transport_;
  trace::TraceRecorder* recorder_;
  Options options_;
  collective::CollectiveExecutor executor_;

  /// A compiled collective is a byte-free shape, shared by every op of the
  /// same (type, algorithm, group size) whatever its payload.
  using CollectiveKey =
      std::tuple<collective::CollectiveType, collective::Algorithm, int>;
  std::map<CollectiveKey, std::shared_ptr<const collective::CompiledCollective>>
      compiled_;

  const IterationDag* dag_ = nullptr;
  bool aborted_ = false;
  int iterations_left_ = 0;
  int iteration_index_ = -1;
  TimeNs iteration_start_ = 0;
  std::function<void()> on_done_;
  std::vector<TimeNs> iter_times_;

  // Per-iteration execution state.
  std::vector<int> deps_remaining_;
  std::vector<int> parts_remaining_;
  std::vector<std::vector<int>> dependents_;
  std::size_t ops_remaining_ = 0;

  // Per-GPU compute stream.
  std::vector<std::deque<OpId>> gpu_queue_;
  std::vector<bool> gpu_busy_;
};

}  // namespace opus::workload
