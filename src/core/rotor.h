// RotorNet-style traffic-oblivious rotor transport — the §3 contrast case.
//
// Prior reconfigurable datacenter fabrics (RotorNet [38], Shale [2], Sirius
// [3]) rotate each switch through a fixed cycle of matchings regardless of
// demand; traffic waits for the matching that connects its endpoints. The
// paper argues this is "poorly suited to the repetitive and high-volume
// collective communication patterns of ML workloads" — this transport makes
// that claim testable: the same collectives run over a rotor fabric and over
// Opus's demand-driven reconfiguration (bench_ablation_rotor).
//
// Model: every rail cycles through the n-1 round-robin (circle method)
// perfect matchings of its n nodes. Each matching stays up for `slot_time`,
// then the rail reconfigures (paying the OCS delay) to the next one.
// Rotation defers until in-flight transfers drain (guard bands). A send
// waits until the live matching connects its pair — or, when the cluster's
// rotor_port_spread stripes different matchings across the NIC ports,
// forwards over at most two live hops (RotorNet's direct-or-Valiant
// routing) and only waits when even that fails.
//
// The rotor is a first-class fabric: select it with FabricKind::kRotor in
// ExperimentConfig and run_experiment builds the cluster (round-0 matchings
// wired by net::Cluster), drives this transport, and folds the rails' dark
// time and reconfiguration counts into ExperimentResult exactly as for the
// Opus OCS fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collective/transport.h"
#include "common/slab.h"
#include "net/cluster.h"
#include "sim/simulator.h"

namespace opus::core {

class RotorTransport final : public collective::Transport {
 public:
  struct Options {
    /// How long each matching carries traffic before rotating.
    TimeNs slot_time = msecs(1);
  };

  /// Requires a cluster built with FabricKind::kRotor (the cluster wires
  /// the round-0 matchings and owns the port-spread policy). The span-taking
  /// overload builds a *tenant sub-rotor* that rotates only the matchings of
  /// its node span (its own, shorter cycle) on every rail — several
  /// sub-rotors share one rail OCS in a fleet, reconfiguring disjoint port
  /// blocks. It wires its span's round-0 matchings itself when the cluster
  /// deferred fabric wiring.
  RotorTransport(sim::Simulator& sim, net::Cluster& cluster, Options options,
                 net::NodeSpan span);
  RotorTransport(sim::Simulator& sim, net::Cluster& cluster, Options options)
      : RotorTransport(sim, cluster, options,
                       net::NodeSpan{0, cluster.n_nodes()}) {}
  RotorTransport(sim::Simulator& sim, net::Cluster& cluster)
      : RotorTransport(sim, cluster, Options{}) {}

  // ---- collective::Transport -----------------------------------------------
  // The rotor ignores demand: the default preparation hooks apply.
  void send(const collective::CommGroup& group, GpuId src, GpuId dst,
            Bytes bytes, std::function<void()> done) override;

  /// Rounds completed across all rails (diagnostics). Every counted
  /// rotation issues exactly one state-changing OCS reconfiguration, so for
  /// a fault-free single-tenant rotor fabric this equals the summed
  /// per-rail OCS-reconfiguration stats. A 1-round span re-requests its
  /// only matching and counts nothing: while the matching is live the OCS
  /// acks at once, and after churn the request re-wires the circuits a
  /// repair does not restore. 64-bit, matching the OCS Stats counters:
  /// 4k-node runs overflow 32 bits.
  std::int64_t rotations() const { return rotations_; }
  /// Sends that had to wait for their matching.
  std::int64_t deferred_sends() const { return deferred_; }
  net::NodeSpan span() const { return span_; }

  /// Permanently stops the rotation schedule (tenant teardown): no further
  /// slot timers, rotations, or reconfigurations. In-flight OCS
  /// reconfigurations still complete — quiesce the span's ports afterwards
  /// before recycling them. Idempotent.
  void shutdown();

  /// Re-checks every rail's pending rotation against the drain state. Fault
  /// churn needs this: a failure can park an in-flight transfer's bytes
  /// (see drained()), and the rotation that was waiting on it must proceed
  /// or the rail deadlocks. Called by the fault reaction path; harmless (and
  /// a no-op) on a healthy rotor.
  void poke();

 private:
  struct PendingSend {
    GpuId src;
    GpuId dst;
    Bytes bytes = 0;
    std::function<void()> done;
  };
  /// A launched send's completion, parked while its transfer is in flight
  /// so the cluster-side callback captures only a slot index.
  struct Launched {
    int rail = 0;
    std::function<void()> done;
  };
  struct RailState {
    int round = 0;
    bool rotating = false;   ///< OCS mid-reconfiguration
    int in_flight = 0;       ///< transfers on the live matching
    bool drain_pending = false;  ///< rotation waiting for in_flight == 0
    /// Slot timer active. The rotor freezes on its current matching when a
    /// rail is completely idle (no transfers, nothing waiting) so a finite
    /// workload leaves a finite event queue; the clock re-arms on demand.
    bool timer_armed = false;
    /// Sends waiting for their matching, in arrival order.
    std::vector<PendingSend> waiting;
  };

  void start_round(int rail);
  bool drained(int rail) const;
  void on_slot_end(int rail);
  void rotate(int rail);
  void flush_waiting(int rail);
  bool pair_connected_now(GpuId src, GpuId dst) const;
  void launch(int rail, PendingSend send);
  /// The transfer of launched send `slot` delivered.
  void on_launched_done(std::uint32_t slot);

  sim::Simulator& sim_;
  net::Cluster& cluster_;
  Options options_;
  net::NodeSpan span_;
  std::vector<RailState> rails_;
  Slab<Launched> launched_;
  int n_rounds_ = 0;
  std::int64_t rotations_ = 0;
  std::int64_t deferred_ = 0;
  bool stopped_ = false;
};

}  // namespace opus::core
