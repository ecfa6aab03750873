// OpusTransport: the photonic-rail transport.
//
// Implements collective::Transport by routing every collective through the
// Opus control plane: the shim intercepts the intent, the circuit planner
// derives the OCS layout, and the controller establishes circuits before the
// executor may start moving bytes (steps 1-6 of Fig. 6). Scale-up-only
// collectives (TP) bypass the control plane entirely; optionally, small
// high-incast collectives are offloaded to the host packet network (§5).
//
// prepare_collective decides each run's mode once, from the run alone: a
// run rides the management network when its own payload is at most the
// offload threshold (two runs of one group may differ), otherwise its
// static layout is requested, or, when the schedule's peer graph exceeds
// the NIC port budget (C1), it runs step-synchronously with one layout per
// step. Step-synchronous runs are serialized per group, like
// same-communicator collectives on one NCCL stream — their per-step
// reconfigurations must not interleave. A group's step-synchronous runs
// wait in a FIFO that names each run by its address; when the active one
// finishes, the next starts in a zero-delay event scheduled before the
// finishing run's completion callback fires.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "collective/transport.h"
#include "core/circuit_planner.h"
#include "core/controller.h"
#include "core/shim.h"
#include "net/cluster.h"
#include "sim/simulator.h"

namespace opus::core {

class OpusTransport final : public collective::Transport {
 public:
  struct Options {
    bool provisioning = true;
    OpusController::Config controller;
    /// Offload collectives with payload below this threshold to the host
    /// packet-switched network when one exists (0 disables).
    Bytes mgmt_offload_threshold = 0;
    /// Pipeline depth of the job. Interior stages of a >2-stage pipeline
    /// need circuits to both neighbours at once, so PP pair circuits are
    /// not striped across the full NIC in that case.
    int pipeline_stages = 2;
  };

  OpusTransport(sim::Simulator& sim, net::Cluster& cluster, Options options);
  OpusTransport(sim::Simulator& sim, net::Cluster& cluster)
      : OpusTransport(sim, cluster, Options{}) {}

  // ---- collective::Transport -----------------------------------------------
  void prepare_collective(const collective::Run& run,
                          std::function<void(bool)> ready) override;
  void prepare_step(const collective::Run& run, int step,
                    std::function<void()> ready) override;
  void send(const collective::Run& run, GpuId src, GpuId dst, Bytes bytes,
            std::function<void()> done) override;
  void collective_finished(const collective::Run& run) override;
  void iteration_started(int index) override;

  // ---- application-driven circuit allocation (§5 "Opportunities") -----------
  /// Lets the application schedule network reconfiguration alongside its
  /// compute kernels — the paper's "circuit connectivity as a callable
  /// abstraction" (analogous to torch.cuda.amp for tensor cores). The
  /// group's circuits for `cc` are provisioned immediately, ahead of the
  /// collective call; unlike shim provisioning this needs no profile, so it
  /// works from the very first iteration. Returns false when the schedule
  /// is not statically wirable (peer-changing algorithms provision per
  /// step regardless).
  bool hint_collective(const collective::CommGroup& group,
                       const collective::CompiledCollective& cc);

  /// Tenant teardown: retires the controller (queued/speculative
  /// reconfiguration requests are dropped) so no control-plane activity can
  /// touch the OCS after the job's ports are recycled. In-flight
  /// reconfigurations still complete — quiesce the ports afterwards.
  void shutdown() { controller_->retire(); }

  // ---- introspection ---------------------------------------------------------
  const OpusController& controller() const { return *controller_; }
  const OpusShim& shim() const { return *shim_; }

 private:
  /// A step-synchronous run in its group's FIFO; `ready` is kept until the
  /// run starts.
  struct StepSyncRun {
    const collective::Run* run;
    std::function<void(bool)> ready;
  };

  /// True when `run` rides the host packet network instead of circuits.
  bool offload_to_mgmt(const collective::Run& run) const;
  /// Records the run's intent and requests `layout`; the group turns
  /// active and `ready(step_synchronous)` fires once the circuits are live.
  /// No layout: circuits come per step, so the run starts at once,
  /// step-synchronously.
  void provision(const collective::Run& run,
                 const std::optional<std::vector<RailCircuits>>& layout,
                 bool step_synchronous, std::function<void(bool)> ready);
  /// Starts the front run of `group`'s step-synchronous FIFO.
  void start_next_step_sync_run(GroupId group);

  sim::Simulator& sim_;
  net::Cluster& cluster_;
  Options options_;
  CircuitPlanner planner_;
  std::unique_ptr<OpusController> controller_;
  std::unique_ptr<OpusShim> shim_;
  /// Per group, its step-synchronous runs in arrival order: the front one
  /// is running, the rest wait for it.
  std::map<GroupId, std::deque<StepSyncRun>> step_sync_runs_;
};

}  // namespace opus::core
