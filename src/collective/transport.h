// Transport abstraction between the collective executor and the fabric.
//
// The executor plans *what* moves between ranks; a Transport decides *how*:
// the baseline DirectTransport maps sends straight onto the cluster (packet-
// switched rails are always connected), while the Opus transport (src/core)
// first establishes optical circuits via the control plane, exactly like the
// shim/controller interaction in Fig. 6 of the paper. Every hook receives
// the `Run` it serves: the group, the shared byte-free CompiledCollective
// (so a transport reads the schedule's step index and peer pairs instead of
// re-deriving them per launch) and the run's payload (P in the planner's
// pricing rule). `prepare_collective` is the one place a run's mode is
// decided: it reports through `ready(step_synchronous)` whether the
// executor runs the schedule pipelined or prepares every step. Only send()
// is required: the preparation hooks default to "ready at once,
// pipelined", which suits every fabric whose wiring does not follow demand
// (packet rails, a rotor, a static ring).
#pragma once

#include <functional>
#include <memory>

#include "collective/comm_group.h"
#include "collective/compiled.h"
#include "net/cluster.h"

namespace opus::collective {

/// One collective run as every transport hook sees it. The executor keeps
/// it at one address from `prepare_collective` until `collective_finished`
/// returns, so a transport may identify the run by `&run`.
struct Run {
  CommGroup group;
  std::shared_ptr<const CompiledCollective> cc;
  Bytes payload = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Called once before a collective starts. The transport must invoke
  /// `ready` (possibly later in simulated time) when step 0 may begin — e.g.
  /// after the control plane has established the circuits for the schedule.
  /// `ready(true)` asks for step-synchronous execution: the schedule's peer
  /// graph cannot be held as simultaneous circuits (constraint C1 on
  /// photonic rails), so every step gets its own prepare_step.
  virtual void prepare_collective(const Run& /*run*/,
                                  std::function<void(bool)> ready) {
    ready(false);
  }

  /// Called before step `step` of a run that prepare_collective made
  /// step-synchronous.
  virtual void prepare_step(const Run& /*run*/, int /*step*/,
                            std::function<void()> ready) {
    ready();
  }

  /// Moves bytes between two group members; `done` fires at delivery.
  virtual void send(const Run& run, GpuId src, GpuId dst, Bytes bytes,
                    std::function<void()> done) = 0;

  /// Called when the collective's last transfer has delivered (lets control
  /// planes update phase tracking / trigger provisioning).
  virtual void collective_finished(const Run& /*run*/) {}

  /// Called by the workload engine at the start of each training iteration.
  /// The Opus control plane uses this to switch from profiling (iteration 0)
  /// to prediction-driven provisioning (later iterations).
  virtual void iteration_started(int index) { (void)index; }
};

/// Transport for fully-connected fabrics (electrical rails or the idealized
/// baseline): no preparation, sends route directly through the cluster.
class DirectTransport final : public Transport {
 public:
  explicit DirectTransport(net::Cluster& cluster) : cluster_(cluster) {}

  void send(const Run&, GpuId src, GpuId dst, Bytes bytes,
            std::function<void()> done) override {
    cluster_.transfer(src, dst, bytes, std::move(done));
  }

 private:
  net::Cluster& cluster_;
};

}  // namespace opus::collective
