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
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
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
/// reconfiguration paths; a null observer costs one branch per event. Both
/// the generic and the batched reconfiguration paths emit: circuit up/down
/// once per unordered port pair, and one dark interval per reconfiguration
/// with its full touched-port count.
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
class OpticalCircuitSwitch {
 public:
  struct Stats {
    /// Number of reconfigure() operations that actually changed state.
    /// 64-bit: a 4k-node rotor performs enough rotations that the derived
    /// counters (circuits_established grows ~2k per rotation) overflow 32
    /// bits well inside one run.
    std::int64_t reconfigurations = 0;
    /// Circuits established across all reconfigurations.
    std::int64_t circuits_established = 0;
    /// Sum over ports of time spent dark.
    TimeNs cumulative_port_dark_ns = 0;
    /// Fluid links retired because their circuit stayed dead (churn cleanup).
    std::int64_t links_retired = 0;
    /// reconfigure_batch calls that fell back to the generic path (an
    /// out-of-set peer after a rewire, or batch ports lost to failure).
    std::int64_t batch_fallbacks = 0;
  };

  /// `port_bw` is the per-direction bandwidth of a circuit (the NIC port
  /// rate); `circuit_latency` is the end-to-end propagation latency of an
  /// established circuit (fiber + transceivers, no OEO in the middle).
  OpticalCircuitSwitch(sim::Simulator& sim, FluidNetwork& net, int n_ports,
                       Bandwidth port_bw, TimeNs circuit_latency,
                       TimeNs reconfig_delay, std::string name = {});

  int n_ports() const { return static_cast<int>(peer_.size()); }
  Bandwidth port_bandwidth() const { return port_bw_; }
  TimeNs circuit_latency() const { return circuit_latency_; }
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
  /// The fluid link carrying `port` -> its peer. Requires a live circuit on
  /// `port` (live_peer(port) >= 0); equals link(port, peer) without the
  /// precondition ensures.
  LinkId live_tx_link(std::int32_t port) const {
    return port_tx_link_[static_cast<std::size_t>(port)];
  }

  /// Fails a port mid-run (fiber cut / transceiver death): its circuit is
  /// torn down and no future circuit may use it until repair_port. Traffic
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

  /// Ports currently dark (generic per-port flags plus the members of any
  /// mid-transaction batch group) — the telemetry probe's dark-port gauge.
  /// O(dark groups), which is O(registered batches), not O(ports).
  int dark_port_count() const {
    int n = dark_ports_;
    for (const DarkGroup& g : dark_groups_) {
      if (g.dark) n += g.members;
    }
    return n;
  }

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
  bool satisfied(const std::vector<CircuitRequest>& circuits) const;

  /// Requests a reconfiguration establishing every circuit in `circuits`.
  /// Existing circuits on touched ports are torn down; the touched port set
  /// (new ports plus their old peers) is dark for reconfig_delay, after which
  /// the new circuits are live and `on_done` fires.
  ///
  /// Preconditions (enforced): no touched port is already dark (callers must
  /// serialize overlapping requests — the Opus controller does), no port
  /// appears twice in `circuits`, and no touched circuit is carrying traffic.
  /// If `circuits` is already satisfied, `on_done` fires immediately (same
  /// timestamp) and no reconfiguration is counted.
  void reconfigure(const std::vector<CircuitRequest>& circuits,
                   std::function<void()> on_done);

  // ---- batched rotation transactions ---------------------------------------
  /// Handle to a pre-registered reconfiguration (a rotor matching). -1 is
  /// never returned.
  using BatchId = int;

  /// Pre-validates `circuits` (same rules as reconfigure) and pins their
  /// fluid link pairs: the links are created now, kept for the switch's
  /// lifetime, and never retired by the dead-circuit cache — a rotor replays
  /// each matching every cycle, so retiring its links only to recreate them
  /// one rotation later dominated large runs. All endpoints of the batch
  /// join one *dark group* (shared with any other batch over the identical
  /// port set), which carries the per-rotation delta dark accounting.
  BatchId register_batch(const std::vector<CircuitRequest>& circuits);

  /// Applies a registered batch as one transaction: tears down the current
  /// circuits of every batch port, darkens the whole port set for
  /// reconfig_delay (one dark interval, one completion event), then brings
  /// all circuits up together and fires `on_done`. Dark time is charged as
  /// a single O(1) delta on the batch's dark group instead of per port.
  /// Equivalent to reconfigure(...) whenever every batch port's current
  /// peer lies inside the batch's port set (a rotor rotation by
  /// construction); otherwise it falls back to the generic path, whose
  /// touched set may be wider. Same preconditions as reconfigure; if the
  /// batch is already satisfied, `on_done` fires immediately and nothing is
  /// counted.
  void reconfigure_batch(BatchId batch, std::function<void()> on_done);

  /// Instantly establishes circuits with no dark period. Intended for t=0
  /// initial topology (e.g. a pre-job configuration); counts no stats.
  void force_circuits(const std::vector<CircuitRequest>& circuits);

  /// Set of ports a reconfiguration request would touch (new + old peers).
  std::vector<PortId> touched_ports(
      const std::vector<CircuitRequest>& circuits) const;

  /// Fluid link carrying traffic in the direction `from` -> `to`.
  /// Requires connected(from, to).
  LinkId link(PortId from, PortId to) const;

  const Stats& stats() const { return stats_; }

 private:
  /// One pre-resolved cross-connect of a registered batch: the port pair and
  /// the directional fluid links carrying it (a -> b, b -> a).
  struct BatchCircuit {
    std::int32_t a;
    std::int32_t b;
    LinkId ab;
    LinkId ba;
  };
  struct Batch {
    std::vector<BatchCircuit> circuits;
    std::vector<std::int32_t> ports;  ///< all endpoints, sorted
    int group = -1;                   ///< index into dark_groups_
  };
  /// Shared dark-accounting bucket for every batch over one port set. A
  /// member port's dark time is port_dark_ns_[p] + accrued: a batch
  /// transaction charges its delay once here (O(1)) instead of walking the
  /// ports, and `dark` flags the whole set mid-transaction.
  struct DarkGroup {
    TimeNs accrued = 0;
    bool dark = false;
    std::int32_t members = 0;
  };

  void check_port(PortId p) const;
  /// dark(p) without the port-validity check (hot paths index directly).
  bool is_dark(std::size_t i) const {
    if (dark_[i]) return true;
    const auto g = port_dark_group_[i];
    return g >= 0 && dark_groups_[static_cast<std::size_t>(g)].dark;
  }
  /// Finds the dark group covering exactly `ports`, migrating ports out of
  /// stale groups (their accrued time is baked into port_dark_ns_) when the
  /// set does not match an existing group verbatim.
  int dark_group_for(const std::vector<std::int32_t>& ports);
  /// Fires every registered waiter whose port set is now fully undark.
  void pump_undark_waiters();
  /// Cross-connects a<->b in the state tables (no timing).
  void establish(PortId a, PortId b);
  /// Clears the circuit on `p` (and its peer), if any, and queues the pair's
  /// fluid links for retirement once the dead-circuit cache overflows.
  void tear_down(PortId p);
  /// Lazily creates (or fetches) the fluid link pair for an unordered pair.
  std::pair<LinkId, LinkId> link_pair(PortId a, PortId b);
  /// Retires the fluid links of the oldest dead circuits beyond the cache
  /// bound, so rotor-style reconfiguration churn cannot grow the fluid
  /// network's solve set (or this switch's pair map) without bound.
  void prune_dead_circuits();

  /// Packed key for an unordered port pair (requires lo <= hi).
  static constexpr std::uint64_t pair_key(std::int32_t lo, std::int32_t hi) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo)) << 32) |
           static_cast<std::uint32_t>(hi);
  }

  sim::Simulator& sim_;
  FluidNetwork& net_;
  Bandwidth port_bw_;
  TimeNs circuit_latency_;
  TimeNs reconfig_delay_;
  std::string name_;
  std::vector<std::int32_t> peer_;  // -1 = unconnected
  std::vector<bool> dark_;
  std::vector<bool> failed_;
  std::vector<std::int32_t> owner_;     // kUnowned = free
  std::vector<TimeNs> port_dark_ns_;    // per-port share of the Stats sum
                                        // (plus the port's group accrual)
  /// Fluid link carrying traffic from port i to its current peer (invalid
  /// when unconnected) — the allocation- and hash-free way to answer the
  /// per-port traffic and link() queries on the reconfiguration hot path.
  std::vector<LinkId> port_tx_link_;
  std::vector<std::int32_t> port_dark_group_;  // -1 = no group
  std::vector<DarkGroup> dark_groups_;
  std::vector<Batch> batches_;
  /// Pair keys whose fluid links are pinned by a registered batch (exempt
  /// from dead-circuit retirement).
  std::unordered_set<std::uint64_t> pinned_pairs_;
  /// Ports with dark_ set (the generic path's flags; group darkness is not
  /// counted here). Zero lets reconfigure_batch skip the per-port scan.
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
  // Unordered port pair -> (link low->high, link high->low). Hashed on the
  // packed pair: whole-rail reconfiguration (the rotor) performs ~1e8
  // lookups per large run, where an ordered map's log-factor dominated.
  std::unordered_map<std::uint64_t, std::pair<LinkId, LinkId>> links_;
  // Recently torn-down pairs, oldest first, at most one entry per pair
  // (queued_dead_ is the membership index — duplicate entries would let a
  // pair be retired by its stalest entry while a fresher one still queues).
  // Keeping a bounded number of dead circuits cached preserves link
  // identity for the common Opus pattern of re-establishing the same
  // circuit a moment later; beyond the bound the oldest dead pairs lose
  // their fluid links to FluidNetwork's free list.
  std::deque<std::pair<std::int32_t, std::int32_t>> dead_pairs_;
  std::unordered_set<std::uint64_t> queued_dead_;
  Stats stats_;
};

}  // namespace opus::net
