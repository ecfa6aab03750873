// Optical circuit switch (OCS) model.
//
// An OCS is a passive crossbar: at any instant each port is cross-connected
// to at most one peer port (a bidirectional circuit), or to nothing. A
// reconfiguration atomically retargets a *set* of ports; exactly the touched
// ports (including the old peers of retargeted ports) are "dark" — unable to
// carry traffic — for the technology's reconfiguration latency. Untouched
// circuits keep carrying traffic throughout, modelling the fine-grained
// per-port switching the paper requires for per-communication-group
// reconfiguration (§5 "Reconfiguration granularity").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/profile.h"
#include "common/units.h"
#include "net/fluid.h"
#include "sim/simulator.h"

namespace opus::net {

/// One bidirectional cross-connect request: connect ports `a` and `b`.
struct CircuitRequest {
  PortId a;
  PortId b;
};

/// Circle-method round-robin tournament matching over ids 0..n-1: round `r`
/// pairs every id exactly once (odd n: one id sits the round out). Shared by
/// the rotor transport's rotation schedule and the churn benchmarks/tests,
/// so they all exercise the same matching sequence.
std::vector<std::pair<int, int>> round_robin_matching(int n, int round);

/// The same matching expressed as OCS circuit requests (even `n_ports`).
std::vector<CircuitRequest> round_robin_circuits(int n_ports, int round);

/// Observer of circuit lifecycle and dark intervals (telemetry's
/// chrome-trace tracks). Notifications are read-only and fire on the cold
/// reconfiguration paths; a null observer costs one branch per event. Every
/// reconfiguration, generic or batched, emits circuit down once per
/// torn-down unordered port pair (ascending port order), one dark interval
/// with its full touched-port count, and circuit up once per requested
/// circuit at completion (request order; a requested circuit that stayed
/// live is reported up again).
class OcsObserver {
 public:
  virtual ~OcsObserver() = default;
  /// A circuit between `a` and `b` became live at `now`.
  virtual void on_circuit_up(PortId a, PortId b, TimeNs now) = 0;
  /// The circuit between `a` and `b` was torn down at `now`.
  virtual void on_circuit_down(PortId a, PortId b, TimeNs now) = 0;
  /// `ports` ports are dark for [start, start + duration).
  virtual void on_dark_interval(int ports, TimeNs start, TimeNs duration) = 0;
};

/// MEMS/piezo/liquid-crystal-style optical circuit switch.
///
/// A port connects to one peer at a time, so its transmitter is one
/// capacity constraint: each port owns one fluid link, created the first
/// time the port joins a circuit and kept for the switch's lifetime. A
/// circuit a<->b carries a->b on a's link and b->a on b's link, so the switch
/// never adds more than n_ports links to the fluid network, however many
/// distinct pairs a rotor or a churning fleet connects.
class OpticalCircuitSwitch {
 public:
  struct Stats {
    /// reconfigure() and reconfigure_batch() calls that changed state.
    /// 64-bit: a 4k-node rotor performs enough rotations that the derived
    /// counters (circuits_established grows ~2k per rotation) overflow 32
    /// bits well inside one run.
    std::int64_t reconfigurations = 0;
    /// Circuits requested by those reconfigurations, counting any that were
    /// already live.
    std::int64_t circuits_established = 0;
    /// Sum over ports of time spent dark.
    TimeNs cumulative_port_dark_ns = 0;
    /// Never incremented: each port owns one fluid link for the switch's
    /// lifetime, so no link is ever retired. Kept only because the benchmark
    /// harness still reads it.
    std::int64_t links_retired = 0;
    /// Never incremented: batched and generic reconfigurations share one
    /// transaction, so nothing falls back. Kept only because the benchmark
    /// harness still reads it.
    std::int64_t batch_fallbacks = 0;
  };

  /// `port_bw` is the per-direction bandwidth of a circuit (the NIC port
  /// rate). A circuit's propagation latency is not the switch's: whoever
  /// starts a flow over it puts the latency on the flow.
  OpticalCircuitSwitch(sim::Simulator& sim, FluidNetwork& net, int n_ports,
                       Bandwidth port_bw, TimeNs reconfig_delay,
                       std::string name = {});

  int n_ports() const { return static_cast<int>(peer_.size()); }
  Bandwidth port_bandwidth() const { return port_bw_; }
  TimeNs reconfig_delay() const { return reconfig_delay_; }
  void set_reconfig_delay(TimeNs d);

  /// Owner tag for multi-tenant fabrics (-1 = unowned). Every circuit must
  /// connect two ports of the same owner, so one tenant's reconfiguration
  /// can never retarget — and thereby darken — a port carved out for
  /// another tenant (the fleet driver assigns owners per placed job).
  /// Because circuits never cross owners, the ports a reconfiguration
  /// touches (endpoints plus their displaced peers) stay within one owner
  /// by induction.
  static constexpr int kUnowned = -1;
  void set_port_owner(PortId p, int owner);
  int port_owner(PortId p) const;

  /// Cumulative dark time of one port (the per-port breakdown of
  /// Stats::cumulative_port_dark_ns; lets a fleet attribute darkness to the
  /// tenant owning the port).
  TimeNs port_dark_time(PortId p) const;

  /// Instantly tears down any circuit on each listed port (tenant teardown
  /// when a job's node range is recycled). Every affected port — including
  /// peers outside `ports` — must be quiescent: not dark and not carrying
  /// traffic. No dark period, no stats.
  void clear_circuits_on(const std::vector<PortId>& ports);

  /// Invokes `cb` once none of `ports` is dark — immediately (synchronously)
  /// when that already holds, otherwise right after the reconfiguration
  /// holding the last dark port completes. Waiters fire in registration
  /// order (deterministic).
  void call_when_undark(std::vector<PortId> ports, std::function<void()> cb);

  /// The port currently cross-connected to `p` (regardless of darkness).
  std::optional<PortId> peer(PortId p) const;
  /// True while `p` is being retargeted by an in-flight reconfiguration.
  bool dark(PortId p) const;
  /// True iff a live (non-dark) circuit connects `a` and `b`.
  bool connected(PortId a, PortId b) const;

  /// Hot-path fusion of peer() + connected(): the peer of `port` when a
  /// live circuit carries it (same predicate as connected()), else -1.
  /// Pure array reads with no bounds ensure — `port` must be a valid index.
  /// The rotor's per-send reachability scans call this tens of millions of
  /// times per run; the wrapped accessors were the profile's top entries.
  std::int32_t live_peer(std::int32_t port) const {
    const auto i = static_cast<std::size_t>(port);
    const std::int32_t q = peer_[i];
    if (q < 0) return -1;
    const auto j = static_cast<std::size_t>(q);
    if (is_dark(i) || is_dark(j) || failed_[i] || failed_[j]) return -1;
    return q;
  }
  /// The fluid link carrying `port` -> its peer (the port's transmit link).
  /// Requires a live circuit on `port` (live_peer(port) >= 0); equals
  /// link(port, peer) without the precondition ensures.
  LinkId live_tx_link(std::int32_t port) const {
    return tx_link_[static_cast<std::size_t>(port)];
  }

  /// Fails a port mid-run (fiber cut / transceiver death): its circuit is
  /// torn down and no request wires it until repair_port. Traffic
  /// on the dying circuit is handed to the flow rescuer (set_flow_rescuer)
  /// or aborted outright, and a failure mid-reconfiguration simply marks
  /// the port so the completion skips re-establishing its circuit.
  /// Idempotent on an already-failed port.
  void fail_port(PortId p);
  /// Repairs a failed port: future circuits may use it again. The old
  /// circuit is NOT restored — owners re-wire on their own schedule (rotor
  /// next rotation, ring re-splice, Opus next plan); the topology listener
  /// fires so parked traffic retries. Idempotent.
  void repair_port(PortId p);
  bool failed(PortId p) const;
  int failed_port_count() const;

  /// Ports currently dark — the telemetry probe's dark-port gauge.
  int dark_port_count() const { return dark_ports_; }

  /// Telemetry observer (null = disabled, the default).
  void set_observer(OcsObserver* observer) { observer_ = observer; }

  /// Opt-in wall-clock sink timing each batch replay (obs self-profiling).
  void set_profile_sink(ProfileSink* sink);

  /// Called whenever port-level connectivity changes outside a caller's own
  /// request — reconfiguration completions, force_circuits, repair_port —
  /// so the owning layer can retry traffic parked on a dead topology.
  void set_topology_listener(std::function<void()> cb) {
    topology_listener_ = std::move(cb);
  }
  /// When set, fail_port hands each flow on the dying circuit to
  /// this callback (which must abort and re-route or park it) instead of
  /// aborting it silently.
  void set_flow_rescuer(std::function<void(FlowId)> cb) {
    flow_rescuer_ = std::move(cb);
  }

  /// True iff every requested circuit is already established and live —
  /// the idempotence fast-path used by the Opus controller's config cache.
  /// A circuit with a failed endpoint counts as satisfied: a request would
  /// drop it (see reconfigure).
  bool satisfied(const std::vector<CircuitRequest>& circuits) const;

  /// Requests a reconfiguration establishing every circuit in `circuits`.
  /// Requested circuits that are already live are untouched and keep
  /// carrying traffic. Existing circuits on the other requested ports are
  /// torn down; the touched port set (those ports plus their old peers) is
  /// dark for reconfig_delay, after which the new circuits are live and
  /// `on_done` fires.
  ///
  /// A circuit with a failed endpoint is dropped from the request: a failed
  /// port is never wired, touched or darkened, and its circuit stays down
  /// until the owner requests it again after the repair.
  ///
  /// Preconditions (enforced): no touched port is already dark (callers must
  /// serialize overlapping requests — the Opus controller does), no port
  /// appears twice in `circuits`, every circuit joins two ports of one
  /// owner, and no touched circuit is carrying traffic. If `circuits` is
  /// already satisfied, `on_done` fires immediately (same timestamp) and no
  /// reconfiguration is counted.
  void reconfigure(const std::vector<CircuitRequest>& circuits,
                   std::function<void()> on_done);

  // ---- batched rotation transactions ---------------------------------------
  /// Handle to a pre-registered reconfiguration (a rotor matching). -1 is
  /// never returned.
  using BatchId = int;

  /// Checks ports, self-loops and duplicate ports of `circuits` and stores
  /// them: the batch is just this circuit list. It creates no fluid links —
  /// a circuit rides its ports' own transmit links whichever peer it
  /// connects.
  BatchId register_batch(const std::vector<CircuitRequest>& circuits);

  /// reconfigure() over a registered batch's circuits: the same transaction
  /// runs, under the same failed-port and ownership rules. Only the ports
  /// the batch retargets go dark, and circuits of the batch that are
  /// already live keep carrying traffic. With no failed port the batch's
  /// circuit list is shared with the completion event, so a replay copies
  /// and hashes nothing.
  void reconfigure_batch(BatchId batch, std::function<void()> on_done);

  /// Instantly establishes circuits with no dark period. Intended for t=0
  /// initial topology (e.g. a pre-job configuration) and emergency
  /// re-wiring; counts no stats. Unlike reconfigure() it does not require
  /// quiescence: flows still draining on a retargeted port stay on that
  /// port's transmit link and share it with the new circuit's traffic, as
  /// they would share the physical transmitter.
  void force_circuits(const std::vector<CircuitRequest>& circuits);

  /// Ports a reconfiguration request would touch (both endpoints of every
  /// circuit neither already live nor with a failed endpoint, plus their
  /// current peers), in no particular order.
  std::vector<PortId> touched_ports(
      const std::vector<CircuitRequest>& circuits) const;

  /// Fluid link carrying traffic in the direction `from` -> `to`.
  /// Requires connected(from, to).
  LinkId link(PortId from, PortId to) const;

  const Stats& stats() const { return stats_; }

 private:
  /// One requested cross-connect between ports `a` and `b`.
  struct Circuit {
    std::int32_t a;
    std::int32_t b;
  };
  using CircuitList = std::shared_ptr<const std::vector<Circuit>>;

  void check_port(PortId p) const;
  /// dark(p) without the port-validity check (hot paths index directly).
  bool is_dark(std::size_t i) const { return dark_[i]; }
  /// Checks ports, self-loops and duplicate ports (`op` names the caller
  /// in the error) and returns the circuits.
  std::vector<Circuit> validated(const std::vector<CircuitRequest>& circuits,
                                 const char* op);
  /// The ports a transaction over `circuits` touches, in first-touch order,
  /// deduplicated by stamping them with a fresh epoch (no hash or sort).
  std::vector<std::int32_t> touched_by(
      const std::vector<Circuit>& circuits) const;
  /// The one reconfiguration transaction and the one place its rules live:
  /// checks that every circuit stays within one port owner, drops circuits
  /// with a failed endpoint, checks that no touched port is dark or
  /// carrying traffic, tears the touched circuits down, darkens the touched
  /// ports for reconfig_delay and charges their dark time, then
  /// (re-)establishes every remaining circuit whose ports did not fail in
  /// the meantime in one completion event. Acks at once, counting nothing,
  /// when every remaining circuit is already live.
  void transact(CircuitList circuits, std::function<void()> on_done);
  /// Fires every registered waiter whose port set is now fully undark.
  void pump_undark_waiters();
  /// Cross-connects a<->b, first creating the transmit link of an endpoint
  /// that has never been in a circuit.
  void connect(std::int32_t a, std::int32_t b);
  /// Clears the circuit on `p` (and its peer), if any. The ports keep their
  /// transmit links.
  void tear_down(std::int32_t p);

  sim::Simulator& sim_;
  FluidNetwork& net_;
  Bandwidth port_bw_;
  TimeNs reconfig_delay_;
  std::string name_;
  std::vector<std::int32_t> peer_;  // -1 = unconnected
  // Per-port flags are bytes, not std::vector<bool>: the transaction writes
  // them for every touched port and bit access doubled a rotation's cost.
  std::vector<std::uint8_t> dark_;
  std::vector<std::uint8_t> failed_;
  std::vector<std::int32_t> owner_;     // kUnowned = free
  std::vector<TimeNs> port_dark_ns_;    // per-port share of the Stats sum
  /// Port i's transmit link: invalid until the port's first circuit, then
  /// fixed. It carries live traffic only while peer_[i] >= 0.
  std::vector<LinkId> tx_link_;
  /// Per-port epoch stamps: touched-set and duplicate-port membership
  /// without hashing or sorting.
  mutable std::vector<std::uint64_t> stamp_;
  mutable std::uint64_t epoch_ = 0;
  std::vector<CircuitList> batches_;
  int dark_ports_ = 0;
  int failed_ports_ = 0;
  int owned_ports_ = 0;
  /// Pending call_when_undark registrations, in arrival order.
  std::vector<std::pair<std::vector<PortId>, std::function<void()>>>
      undark_waiters_;
  std::function<void()> topology_listener_;
  std::function<void(FlowId)> flow_rescuer_;
  OcsObserver* observer_ = nullptr;
  ProfileSink* profile_sink_ = nullptr;
  int profile_phase_batch_ = -1;
  Stats stats_;
};

}  // namespace opus::net
