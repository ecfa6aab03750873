// OpusTransport: the photonic-rail transport.
//
// Implements collective::Transport by routing every collective through the
// Opus control plane: the shim intercepts the intent, the circuit planner
// derives the OCS layout, and the controller establishes circuits before the
// executor may start moving bytes (steps 1-6 of Fig. 6). Scale-up-only
// collectives (TP) bypass the control plane entirely; optionally, small
// high-incast collectives are offloaded to the host packet network (§5).
#pragma once

#include <map>
#include <memory>

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
  void prepare_collective(const collective::CommGroup& group,
                          const collective::CompiledCollective& cc,
                          Bytes payload, std::function<void()> ready) override;
  bool needs_per_step_preparation(const collective::CommGroup& group,
                                  const collective::CompiledCollective& cc,
                                  Bytes payload) const override;
  void prepare_step(const collective::CommGroup& group,
                    const collective::CompiledCollective& cc, Bytes payload,
                    int step, std::function<void()> ready) override;
  void send(const collective::CommGroup& group, GpuId src, GpuId dst,
            Bytes bytes, std::function<void()> done) override;
  void collective_finished(
      const collective::CommGroup& group,
      const collective::CompiledCollective& cc) override;
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
  bool offload_to_mgmt(const collective::CommGroup& group, Bytes payload) const;

  sim::Simulator& sim_;
  net::Cluster& cluster_;
  Options options_;
  CircuitPlanner planner_;
  std::unique_ptr<OpusController> controller_;
  std::unique_ptr<OpusShim> shim_;
  /// Groups currently offloaded to the management network.
  std::map<GroupId, bool> mgmt_mode_;
};

}  // namespace opus::core
