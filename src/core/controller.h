// Opus controller (Fig. 6 of the paper).
//
// Receives reconfiguration requests (communication group -> circuit layout),
// maintains the communication-group table and per-rail port ownership, and
// programs the rail OCSes. Scheduling policy per §4:
//
//  - FC-FS: requests are served in arrival order within any overlapping
//    port domain; requests touching disjoint ports proceed concurrently
//    (fine-grained per-group reconfiguration, §5);
//  - conflict avoidance: a reconfiguration only executes once the groups
//    currently owning the requested ports have no collective in flight —
//    i.e. after the completion of the previous communication kernel;
//  - idempotence: a request whose circuits are already live acks
//    immediately without touching the switch (the circuit lookup table).
//
// Admission is one scan of the queue in arrival order, repeated after any
// job executes. A queued job may run ahead of earlier ones only if
//  (a) it shares no requested port (circuit endpoint) with a job this scan
//      left queued (port-domain FC-FS), unless
//  (b) its group already owns every port it requests: a group finishing a
//      multi-step collective on its own ports overtakes earlier preemptors,
//      which cannot run until it goes idle anyway (otherwise FC-FS would
//      deadlock on a priority inversion);
// and it then runs only if every port it claims or retargets is out of its
// dark period and not owned by another group with a collective in flight.
// One scan reads each queued job's endpoints once to test (a) and (b); a
// job left queued stamps its endpoints with the scan's number in a
// per-(rail, port) array, so the scan builds no port set. The only
// allocation is the switch's touched-port list for a job that may run.
//
// The controller also models a small control-plane round trip (shim ->
// controller -> OCS -> ack) added to every non-cached request.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "core/circuit_planner.h"
#include "net/cluster.h"
#include "sim/simulator.h"

namespace opus::core {

class OpusController {
 public:
  /// Control-plane round trip (request + ack over the host network).
  static constexpr TimeNs kControlRtt = usecs(30);

  struct Config {
    /// Fine-grained per-group reconfiguration; when false the whole rail is
    /// one lock (the coarse-grained ablation of §5).
    bool fine_grained = true;
  };

  struct Stats {
    int requests = 0;
    /// Requests whose circuits were already live (lookup-table hits).
    int satisfied_immediately = 0;
    /// Requests that caused at least one OCS reconfiguration.
    int reconfigurations = 0;
    /// Requests that had to queue behind a busy port owner.
    int queued = 0;
    /// Sum of (ack time - request time) over all requests.
    TimeNs total_wait = 0;
    /// Max over requests of (ack time - request time).
    TimeNs max_wait = 0;
  };

  OpusController(sim::Simulator& sim, net::Cluster& cluster, Config cfg);
  OpusController(sim::Simulator& sim, net::Cluster& cluster)
      : OpusController(sim, cluster, Config{}) {}

  /// Requests the circuits in `layout` on behalf of `group`; `on_ack` fires
  /// once every circuit is live. Requests from the port-owning group itself
  /// bypass the in-flight check (step-synchronous schedules reconfigure
  /// between their own steps).
  void request(GroupId group, const std::vector<RailCircuits>& layout,
               std::function<void()> on_ack);

  /// Collective activity notifications from the shim: the controller defers
  /// preempting a group's ports while it has kernels in flight.
  void group_activity(GroupId group, int delta);

  /// Permanently retires the controller (tenant teardown): queued jobs are
  /// dropped and future requests are ignored (acked immediately so no caller
  /// hangs). Keeps a finished tenant's speculative provisioning from
  /// reconfiguring ports after its node range has been recycled. Idempotent.
  void retire();
  bool retired() const { return retired_; }

  const Stats& stats() const { return stats_; }
  /// Current owner of a rail port (invalid GroupId when free).
  GroupId port_owner(RailId rail, PortId port) const;

 private:
  struct Job {
    GroupId group;
    std::vector<RailCircuits> layout;
    std::function<void()> on_ack;
    TimeNs requested_at = 0;
    bool counted_queued = false;
  };

  /// True if `port` is out of its dark period and unowned, owned by the
  /// job's group, or owned by a group with no collective in flight.
  bool port_free(const Job& job, RailId rail, PortId port) const;
  /// True if the job can execute now: port_free() holds for every port it
  /// claims or retargets (coarse-grained: for every port of its rails).
  bool executable(const Job& job) const;
  void execute(Job job);
  void pump();
  void finish(TimeNs requested_at, const std::function<void()>& on_ack);

  sim::Simulator& sim_;
  net::Cluster& cluster_;
  Config cfg_;
  Stats stats_;
  // owner_[rail][port] = owning group (invalid = free).
  std::vector<std::vector<GroupId>> owner_;
  // queued_scan_[rail][port] == scan_ iff a job the current scan left
  // queued requests that port.
  std::vector<std::vector<std::uint64_t>> queued_scan_;
  std::uint64_t scan_ = 0;
  std::map<GroupId, int> active_;  ///< in-flight collectives per group
  std::deque<Job> queue_;
  bool pumping_ = false;
  bool retired_ = false;
};

}  // namespace opus::core
