// Transport abstraction between the collective executor and the fabric.
//
// The executor plans *what* moves between ranks; a Transport decides *how*:
// the baseline DirectTransport maps sends straight onto the cluster (packet-
// switched rails are always connected), while the Opus transport (src/core)
// first establishes optical circuits via the control plane, exactly like the
// shim/controller interaction in Fig. 6 of the paper. Every hook receives
// the run's CompiledCollective, so a transport reads the schedule's step
// index and peer pairs instead of re-deriving them per launch. The compiled
// shape is shared by runs of every payload, so the preparation hooks also
// receive the run's payload (P in the planner's pricing rule). Only send()
// is required: the preparation hooks default to "ready at once, no
// per-step preparation", which suits every fabric whose wiring does not
// follow demand (packet rails, a rotor, a static ring).
#pragma once

#include <functional>

#include "collective/comm_group.h"
#include "collective/compiled.h"
#include "net/cluster.h"

namespace opus::collective {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Called once before a collective starts. The transport must invoke
  /// `ready` (possibly later in simulated time) when step 0 may begin — e.g.
  /// after the control plane has established the circuits for the schedule.
  virtual void prepare_collective(const CommGroup& /*group*/,
                                  const CompiledCollective& /*cc*/,
                                  Bytes /*payload*/,
                                  std::function<void()> ready) {
    ready();
  }

  /// True if this schedule's peer graph cannot be held as simultaneous
  /// circuits, so every step needs its own preparation (and the executor
  /// must run the schedule step-synchronously). Always false for packet
  /// fabrics; true on photonic rails for algorithms whose distinct peer
  /// count exceeds the NIC port budget (constraint C1).
  virtual bool needs_per_step_preparation(const CommGroup& /*group*/,
                                          const CompiledCollective& /*cc*/,
                                          Bytes /*payload*/) const {
    return false;
  }

  /// Called before step `step` when needs_per_step_preparation() is true.
  virtual void prepare_step(const CommGroup& /*group*/,
                            const CompiledCollective& /*cc*/,
                            Bytes /*payload*/, int /*step*/,
                            std::function<void()> ready) {
    ready();
  }

  /// Moves bytes between two group members; `done` fires at delivery.
  virtual void send(const CommGroup& group, GpuId src, GpuId dst, Bytes bytes,
                    std::function<void()> done) = 0;

  /// Called when the collective's last transfer has delivered (lets control
  /// planes update phase tracking / trigger provisioning).
  virtual void collective_finished(const CommGroup& group,
                                   const CompiledCollective& cc) {
    (void)group;
    (void)cc;
  }

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

  void send(const CommGroup&, GpuId src, GpuId dst, Bytes bytes,
            std::function<void()> done) override {
    cluster_.transfer(src, dst, bytes, std::move(done));
  }

 private:
  net::Cluster& cluster_;
};

}  // namespace opus::collective
