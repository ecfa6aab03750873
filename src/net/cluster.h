// Cluster topology: scale-up (NVLink) domains wired into a rail-optimized
// scale-out fabric, with the rails realized either by electrical packet
// switches (baseline) or by optical circuit switches (the paper's proposal).
//
// Addressing: GPU global rank = node * gpus_per_node + local_rank.
// Rail r connects the local-rank-r GPU of every node (Fig. 1 of the paper).
// Each GPU's NIC exposes `nic_ports` ports of nic_total_bw / nic_ports each
// (ConnectX-7 style 1x400G / 2x200G / 4x100G logical port configurations).
//
// Fabric contract (FabricKind): the fabric names both the switching hardware
// of the rails and the circuit discipline layered on top. kElectrical rails
// are packet switches (always fully connected); the three photonic fabrics
// share the same OCS hardware but differ in who reconfigures it and when:
// Opus reconfigures on demand (the control plane in src/core), a static ring
// is wired once pre-job and never again, and a rotor cycles through the
// round-robin matchings obliviously. The Cluster performs no pre-job wiring
// (each transport wires its own node span: core::RotorTransport the rotor's
// round-0 matchings, core::StaticRingTransport the ring's circuits), so
// rails light up on first traffic. Forwarding is a property of the fabric,
// which the Cluster derives rather than reads from its config: a photonic
// hop with no direct circuit forwards over the rail's live circuits never
// on Opus (it reconfigures instead) or a classic rotor, over at most two
// hops on a rotor with rotor_port_spread >= 2, and arbitrarily far around a
// static ring. Callers select a FabricKind and get a consistent cluster.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/slab.h"
#include "common/units.h"
#include "net/electrical.h"
#include "net/fluid.h"
#include "net/ocs.h"
#include "sim/simulator.h"

namespace opus::net {

/// How the scale-out rails are physically switched (derived from the
/// fabric; see rail_kind_of).
enum class RailKind {
  kElectrical,  ///< packet switches: full any-to-any within a rail
  kPhotonic,    ///< OCS: one-to-one circuits, reconfigurable
};

/// The end-to-end scale-out fabric: switching hardware plus the circuit
/// discipline that decides which connections exist when. This is the single
/// topology selector that flows from ExperimentConfig down to the cluster —
/// one axis of the paper's comparison set (§3).
enum class FabricKind {
  kElectrical,    ///< packet-switched rails, no circuits (baseline)
  kOpusPhotonic,  ///< OCS rails, demand-driven reconfiguration (the paper)
  kStaticRing,    ///< OCS rails wired pre-job into a fixed ring; non-
                  ///< neighbour traffic multi-hops (TPUv4-style, §3)
  kRotor,         ///< OCS rails rotating through round-robin matchings,
                  ///< traffic-oblivious (RotorNet-style, §3)
};

/// Stable display name ("Electrical", "Opus", "StaticRing", "Rotor").
const char* fabric_name(FabricKind f);

/// The switching hardware a fabric runs on: kElectrical for packet rails,
/// kPhotonic for the three circuit-switched fabrics.
RailKind rail_kind_of(FabricKind f);

/// All four fabrics, in the paper's comparison order (for sweeps/benches).
inline constexpr FabricKind kAllFabrics[] = {
    FabricKind::kElectrical, FabricKind::kOpusPhotonic,
    FabricKind::kStaticRing, FabricKind::kRotor};

/// A contiguous run of nodes — the unit the fleet's placement engine carves
/// out of a shared cluster for one tenant job. {0, n_nodes} is the whole
/// cluster (the single-job special case).
struct NodeSpan {
  int first = 0;
  int count = 0;

  int end() const { return first + count; }
  bool contains(int node) const { return node >= first && node < end(); }
  friend bool operator==(const NodeSpan&, const NodeSpan&) = default;
};

/// Rotation-cycle length of a rotor over `n_nodes` nodes: the n-1 (even n)
/// or n (odd n) circle-method rounds that together connect every node pair
/// once. Span-independent helper so per-tenant sub-rotors can size their own
/// cycles.
int rotor_rounds_for(int n_nodes);

/// One NIC-port-level fault event, as reported to the fault listener: NIC
/// port `slot` of `node` on `rail` failed (or was repaired). On photonic
/// rails this is an OCS port; on electrical rails one lane of the node's
/// rail NIC (its bandwidth degrades proportionally).
struct NicFault {
  NodeId node;
  int rail = 0;
  int slot = 0;
  bool failed = true;  ///< false = repair
};

/// Fixed link latencies (no experiment varies them).
/// Scale-up (NVLink) hop.
inline constexpr TimeNs kNvlinkLatency = usecs(2);
/// Propagation + transceiver latency of a rail path (no OEO for photonic).
inline constexpr TimeNs kRailLatency = usecs(2);
/// Extra per-traversal latency of an electrical rail switch (OEO + ASIC).
inline constexpr TimeNs kElectricalHopLatency = usecs(1);
/// End-to-end latency of the host management network.
inline constexpr TimeNs kMgmtLatency = usecs(10);

struct ClusterConfig {
  int n_nodes = 4;
  int gpus_per_node = 4;  ///< size of the scale-up domain == number of rails

  /// NIC logical port configuration facing the rail (C3 in the paper).
  int nic_ports = 2;
  Bandwidth nic_total_bw = Bandwidth::gbps(400);

  /// Scale-up interconnect: per-GPU injection/ejection bandwidth.
  Bandwidth nvlink_bw = Bandwidth::gbps(2400);  // NVLink3 ~300 GB/s per GPU

  FabricKind fabric = FabricKind::kOpusPhotonic;
  /// OCS technology reconfiguration latency (Table 3).
  TimeNs ocs_reconfig_delay = msecs(15);

  /// Optional host-based packet network for small/bursty traffic offload
  /// (paper §5). Zero bandwidth disables it.
  Bandwidth mgmt_bw = Bandwidth::gbps(0);

  /// kRotor only: how many consecutive round-robin matchings are striped
  /// across the NIC ports. 1 (classic) points every port of a node at the
  /// same peer, so the live topology is a perfect matching and traffic
  /// waits for its round. 2+ puts matching `round + p` on port `p`, so the
  /// live topology is a union of matchings — connected — and non-matched
  /// pairs forward over at most two hops instead of waiting (RotorNet's
  /// direct-or-Valiant routing). Clamped to nic_ports and to the number of
  /// rotor rounds.
  int rotor_port_spread = 1;

  Bandwidth port_bw() const { return nic_total_bw / nic_ports; }
  int n_gpus() const { return n_nodes * gpus_per_node; }
};

/// The assembled cluster: topology queries plus a byte-transfer API used by
/// the collective executor. Routing policy (paper §2.1):
///  - same scale-up domain        -> NVLink
///  - same local rank (same rail) -> that rail (circuit or packet switch)
///  - cross-rank, cross-node      -> PXN: NVLink to the bridge GPU holding
///                                   the destination's local rank, then rail
class Cluster {
 public:
  Cluster(sim::Simulator& sim, ClusterConfig cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  int n_gpus() const { return cfg_.n_gpus(); }
  int n_nodes() const { return cfg_.n_nodes; }
  int gpus_per_node() const { return cfg_.gpus_per_node; }
  int n_rails() const { return cfg_.gpus_per_node; }

  NodeId node_of(GpuId g) const;
  int local_rank(GpuId g) const;
  RailId rail_of(GpuId g) const { return RailId{local_rank(g)}; }
  GpuId gpu_at(NodeId n, int local) const;
  bool same_node(GpuId a, GpuId b) const { return node_of(a) == node_of(b); }
  /// True iff `gpus` sit on more than one node, so traffic among them
  /// needs the scale-out rails (a group within one node rides NVLink).
  bool spans_nodes(std::span<const GpuId> gpus) const;

  /// The OCS port of `g`'s NIC port `p` on g's rail OCS.
  PortId ocs_port(GpuId g, int nic_port) const;
  /// Inverse mapping: which GPU and NIC port sit behind an OCS port.
  GpuId gpu_of_ocs_port(RailId rail, PortId port) const;
  int nic_port_of_ocs_port(PortId port) const;

  sim::Simulator& sim() { return sim_; }
  FluidNetwork& network() { return net_; }
  const FluidNetwork& network() const { return net_; }

  /// Photonic only: the rail's OCS.
  OpticalCircuitSwitch& ocs(RailId rail);
  const OpticalCircuitSwitch& ocs(RailId rail) const;
  /// Fig. 8 aggregates over all rails (photonic only): reconfigurations
  /// that changed state, and the summed per-port darkness time. The same
  /// accounting serves demand-driven (Opus) and oblivious (rotor) fabrics.
  std::int64_t total_ocs_reconfigurations() const;
  TimeNs total_ocs_dark_time() const;
  FabricKind fabric() const { return cfg_.fabric; }
  bool photonic() const {
    return rail_kind_of(cfg_.fabric) == RailKind::kPhotonic;
  }
  bool has_mgmt_network() const { return mgmt_ != nullptr; }

  /// kRotor: the circuit layout of rotation round `round` on `rail` over
  /// just the nodes of `span` (a tenant sub-rotor; matching ids are relative
  /// to span.first). NIC port p carries matching `round + (p %
  /// rotor_port_spread)`, so a spread of 1 reproduces the classic
  /// single-matching rotor and a spread of 2+ keeps the rail connected for
  /// two-hop forwarding. The port spread is re-clamped to the span's own
  /// cycle length, so a 2-node tenant degrades to the classic
  /// single-matching rotor even when the fleet-wide spread is 2. The
  /// RotorTransport wires round 0 over its span and drives the rotation.
  std::vector<CircuitRequest> rotor_matching_circuits(RailId rail, int round,
                                                      NodeSpan span) const;

  // ---- multi-tenant node ownership (the fleet layer) ----------------------
  /// Tags every node of `span` (and its OCS ports on every rail) as owned by
  /// `tenant` (>= 0). The nodes must be untenanted. From then on transfer
  /// bytes sourced at those nodes are attributed to the tenant, and OCS
  /// circuits may never connect the tenant's ports to another tenant's.
  void assign_tenant(int tenant, NodeSpan span);
  /// Releases the span: clears node tags and OCS port owners, and tears
  /// down any remaining circuits on the span's ports (which must be
  /// quiescent — use quiesce_span_ports first). Per-tenant byte totals
  /// remain readable afterwards.
  void release_tenant(NodeSpan span);
  /// Tenant owning `node` (kNoTenant when unassigned).
  static constexpr int kNoTenant = -1;
  int tenant_of(NodeId node) const;
  /// Occupied entries in the span-indexed tenant store — proportional to
  /// *live tenants*, never to cluster size (the memory-proportionality tests
  /// pin this).
  std::size_t tenant_state_entries() const { return tenant_spans_.size(); }
  /// Generation stamp of the tenant store, bumped by every assign/release.
  /// A caller holding derived per-span state (cached reachability, port
  /// sets) revalidates against this instead of subscribing to callbacks.
  std::uint64_t tenant_state_generation() const { return tenant_generation_; }
  /// Photonic: cumulative dark time summed over the span's OCS ports on all
  /// rails (snapshot before/after a job to get its dark-time share).
  TimeNs ocs_dark_time_in_span(NodeSpan span) const;
  /// Photonic: fires `cb` once no OCS port of the span is dark on any rail
  /// (immediately when that already holds). Electrical: immediate.
  void quiesce_span_ports(NodeSpan span, std::function<void()> cb);
  /// The OCS ports of the span's nodes (identical set on every rail).
  std::vector<PortId> span_ports(NodeSpan span) const;

  enum class Route { kLoopback, kScaleUp, kRail, kPxn, kMgmt, kRailMultiHop };

  /// Bytes moved on route `r` whose source GPU sat on one of `tenant`'s
  /// nodes (attribution is per transfer hop, so a tenant's multi-hop
  /// forwarding charges the tenant itself).
  Bytes tenant_bytes_on_route(int tenant, Route r) const;
  /// The route class transfer() would use for src -> dst.
  Route route_for(GpuId src, GpuId dst) const;

  /// True iff a rail hop src -> dst can currently carry traffic: always for
  /// electrical rails; for photonic, a live circuit connects them or the
  /// fabric forwards (see the fabric contract above) and a path of live
  /// circuits within its reach does.
  bool rail_path_available(GpuId src, GpuId dst) const;

  /// Photonic: shortest path of same-rail GPUs from src to dst over live
  /// circuits (src and dst included), written into `path` (whose buffer is
  /// reused); empty when unreachable. The reach is the one a rescued hop
  /// gets: two rail hops on a forwarding rotor, unbounded on every other
  /// photonic fabric (in-flight bytes cannot wait for a reconfiguration).
  void rail_multihop_path(GpuId src, GpuId dst,
                          std::vector<GpuId>& path) const;

  /// Moves `bytes` from src to dst; `on_complete` fires at delivery.
  /// Photonic rail hops require a live circuit (InvariantError otherwise) —
  /// the Opus control plane is responsible for establishing circuits first.
  /// Rail transfers stripe across all live circuits between src and dst.
  /// A warm cluster moves a direct or forwarded rail transfer without heap
  /// allocation, provided `on_complete` fits std::function's inline buffer
  /// (see common/slab.h); fault-tolerant hops and PXN still allocate.
  void transfer(GpuId src, GpuId dst, Bytes bytes,
                std::function<void()> on_complete);

  /// Sends over the host management network (must be enabled).
  void transfer_mgmt(GpuId src, GpuId dst, Bytes bytes,
                     std::function<void()> on_complete);

  /// Total bytes moved per route class (diagnostics / bandwidth-tax studies).
  Bytes bytes_on_route(Route r) const;

  // ---- runtime fault injection (failure/repair churn) ---------------------
  /// Fault-tolerant transfer mode: a photonic rail hop that finds no live
  /// circuit parks instead of throwing, a flow on a circuit killed by
  /// fail_nic_port is rescued (its remaining bytes re-sent over surviving
  /// circuits, multi-hop if needed, else parked; a rescued hop of a
  /// multi-hop path then continues along that path), and parked hops retry
  /// on every topology change. Rescued and retried bytes are never charged
  /// to a route again. Off by default — the legacy InvariantError contract
  /// stands, so fabrics without a fault process pay nothing.
  void set_fault_tolerant(bool on) { fault_tolerant_ = on; }
  bool fault_tolerant() const { return fault_tolerant_; }

  /// Fails NIC port `slot` of `node` on `rail`, mid-run: photonic rails tear
  /// the port's circuit and rescue/abort its flows (OCS fail_port, forced);
  /// electrical rails degrade the node's rail bandwidth to the surviving
  /// lane fraction. Fires the fault listener. Idempotent.
  void fail_nic_port(NodeId node, int rail, int slot);
  /// Repairs a failed NIC port: the port may carry circuits again (photonic;
  /// the old circuit is NOT restored — owners re-wire on their own schedule)
  /// or the lane's bandwidth returns (electrical). Fires the fault listener.
  void repair_nic_port(NodeId node, int rail, int slot);
  bool nic_port_failed(NodeId node, int rail, int slot) const;
  /// NIC ports of (node, rail) currently not failed.
  int live_nic_ports(NodeId node, int rail) const;
  /// True iff some rail of `node` has lost every NIC port — the node cannot
  /// reach that rail's fabric at all (the fleet's kill/re-place criterion).
  bool node_disconnected(NodeId node) const;

  /// Observer for fail/repair events (the fleet's reaction hook). One
  /// listener; called after the fabric state change has been applied.
  void set_fault_listener(std::function<void(const NicFault&)> cb) {
    fault_listener_ = std::move(cb);
  }

  /// Transfers parked by fault tolerance, fleet-wide / on one rail within
  /// `span` (the rotor's drain guard must not wait on parked traffic).
  int parked_transfer_count() const { return static_cast<int>(parked_.size()); }
  /// Flows rescued off dying circuits so far (re-routed or parked, not
  /// aborted). Telemetry gauge.
  std::int64_t rescued_flow_count() const { return rescued_flows_; }
  int parked_rail_transfers(int rail, NodeSpan span) const;
  /// Active fluid flows on the span's OCS circuits of `rail` (photonic).
  int rail_span_active_flows(RailId rail, NodeSpan span) const;
  /// Re-attempts every parked transfer against the current topology (also
  /// invoked automatically on every OCS topology change and repair).
  void retry_parked();

  /// Kills a churned tenant's in-flight traffic (fleet checkpoint/kill):
  /// aborts every flow on the span's OCS circuits, NVLink endpoints,
  /// electrical rail lanes, and mgmt ports; drops the span's rescue-registry
  /// entries and parked transfers. No completion callbacks fire — abort the
  /// tenant's engine first.
  void abort_span_traffic(NodeSpan span);

 private:
  /// Lazy scale-up plumbing: the fluid link behind a GPU's NVSwitch
  /// injection/ejection port, created on first use. A 4096-node cluster whose
  /// only tenant spans 64 nodes materializes 128 nodes' worth of NVLink
  /// state, not 4096 (the id tables stay dense — 4 bytes per GPU — but the
  /// heavy per-link solver state lives in the FluidNetwork and is
  /// allocated here, on demand).
  LinkId nvl_in(GpuId g);
  LinkId nvl_out(GpuId g);

  void transfer_scale_up(GpuId src, GpuId dst, Bytes bytes,
                         std::function<void()> on_complete);

  // ---- the rail data path: forwarding, rescue and retry share each step ----
  /// A rail hop waiting to be (re-)sent: the registry entry of a
  /// fault-tolerant circuit flow (enough to re-issue its remaining bytes
  /// when the circuit dies) and the parked hop that found no usable path.
  struct PendingHop {
    GpuId src;
    GpuId dst;
    Bytes bytes = 0;
    std::function<void()> done;
  };
  /// Position in a multi-hop path: a cursor-slab entry whose path buffer
  /// is kept across occupants.
  struct HopCursor {
    std::vector<GpuId> path;
    std::size_t hop = 0;  ///< path index the next hop starts from
    Bytes bytes = 0;
    bool charged = false;
    std::function<void()> done;
  };
  /// A hop striped over parallel circuits: `done` fires when the last of
  /// `pending` stripes lands.
  struct Stripe {
    int pending = 0;
    std::function<void()> done;
  };

  /// A direct hop, or — photonic, no direct circuit — a forwarded path.
  void transfer_rail(GpuId src, GpuId dst, Bytes bytes,
                     std::function<void()> on_complete);
  /// The only code that moves bytes over one rail hop: charges kRail unless
  /// the transfer is already `charged`, then starts the electrical flow or
  /// stripes across the live circuits src -> dst. A photonic hop with no
  /// live circuit parks (fault-tolerant) or throws.
  void send_hop(GpuId src, GpuId dst, Bytes bytes, bool charged,
                std::function<void()> done);
  /// Starts one circuit flow; fault-tolerant mode registers it for rescue.
  void start_circuit_flow(LinkId link, GpuId src, GpuId dst, Bytes bytes,
                          std::function<void()> done);
  /// Sends cursor `c`'s current hop; its completion advances the cursor
  /// and sends the next one. The last hop frees the cursor and completes
  /// the transfer.
  void forward(std::uint32_t c);
  /// Acquires a cursor slot and writes the multi-hop path src -> dst into
  /// it (empty when unreachable); the caller forwards or releases it.
  std::uint32_t route_cursor(GpuId src, GpuId dst);
  /// Starts forwarding along the path already written into cursor slot
  /// `c`: parks the transfer's state there and sends the first hop.
  void start_forward(std::uint32_t c, Bytes bytes, bool charged,
                     std::function<void()> done);
  /// One stripe of stripe set `s` landed.
  void stripe_done(std::uint32_t s);
  /// Re-sends uncharged bytes over the current topology: direct circuits,
  /// else multi-hop over live circuits (degraded continuation, even for
  /// fabrics that normally forbid forwarding), else an emergency spare
  /// circuit (Opus), else back to the parking lot.
  void resend(PendingHop hop);
  /// OCS flow-rescuer hook: aborts `f` and re-sends its remaining bytes.
  void rescue_flow(FlowId f);

  /// Most NIC ports a GPU can expose (ClusterConfig::nic_ports).
  static constexpr int kMaxNicPorts = 4;
  /// Writes the live circuit links src -> dst on their shared rail
  /// (photonic) into `out`, in NIC-port order; returns how many.
  int live_circuit_links(GpuId src, GpuId dst,
                         std::array<LinkId, kMaxNicPorts>& out) const;
  /// Allocation-free: true iff some live circuit connects src -> dst.
  bool has_live_circuit(GpuId src, GpuId dst) const;
  /// How far a photonic hop with no direct circuit may forward.
  enum class Forwarding { kNone, kTwoHop, kAnyHops };
  /// The one route search behind rail_path_available and
  /// rail_multihop_path: true iff dst is reachable from src over live
  /// circuits of their rail within `reach` rail hops. When `path` is
  /// non-null it receives the shortest such path (src and dst included;
  /// among equals the one first discovered in NIC-port order) or is left
  /// empty. The two-hop walk is the rotor's per-send scan and allocates
  /// nothing; the unbounded BFS keeps its scratch in bfs_*.
  bool find_route(GpuId src, GpuId dst, Forwarding reach,
                  std::vector<GpuId>* path) const;
  void account(Route r, GpuId src, Bytes bytes);
  void check_span(NodeSpan span) const;

  // ---- fault-tolerance internals ------------------------------------------
  /// Opus only: cross-connect a spare (unconnected, live, same-owner) port
  /// pair of src's and dst's nodes so parked traffic can drain — the
  /// control-plane patch a real operator would apply. False when no spare
  /// pair exists.
  bool try_emergency_circuit(GpuId src, GpuId dst);
  /// Electrical: re-derive the endpoint's capacity scale from its failed-
  /// lane mask.
  void apply_electrical_degrade(NodeId node, int rail);

  /// One entry of the span-indexed tenant store: an owned node range plus
  /// the store generation at which it was assigned.
  struct TenantSpan {
    NodeSpan span;
    int tenant = kNoTenant;
    std::uint64_t generation = 0;
  };
  /// Entry owning `node`, or nullptr (binary search over the sorted store).
  const TenantSpan* find_tenant_span(int node) const;

  sim::Simulator& sim_;
  ClusterConfig cfg_;
  /// The fabric's forwarding rule (derived in the constructor): kAnyHops
  /// for a static ring, kTwoHop for a rotor with a port spread of 2+,
  /// kNone otherwise.
  Forwarding forwarding_ = Forwarding::kNone;
  FluidNetwork net_;
  // Scale-up: per-GPU injection/ejection links into the node's NVSwitch,
  // invalid until first use (see nvl_in/nvl_out).
  std::vector<LinkId> nvl_in_;
  std::vector<LinkId> nvl_out_;
  // One rail per local rank; exactly one of these is populated.
  std::vector<std::unique_ptr<OpticalCircuitSwitch>> rail_ocs_;
  std::vector<std::unique_ptr<ElectricalSwitch>> rail_electrical_;
  std::unique_ptr<ElectricalSwitch> mgmt_;
  std::vector<Bytes> route_bytes_;
  // Multi-tenant state: a sorted, non-overlapping span store (one entry per
  // live tenant span — state scales with active spans, not nodes) and
  // per-tenant route-byte totals. tenant_accounting_ flips on first
  // assignment so the single-tenant fast path skips the lookups entirely.
  bool tenant_accounting_ = false;
  std::vector<TenantSpan> tenant_spans_;  // sorted by span.first
  std::uint64_t tenant_generation_ = 0;
  std::unordered_map<int, std::array<Bytes, 6>> tenant_route_bytes_;
  // Epoch-stamped BFS scratch for the unbounded route search (the static
  // ring, and rescued hops elsewhere; sized lazily on first use so fabrics that
  // never BFS — electrical, the two-hop rotor — allocate nothing).
  mutable std::vector<std::int32_t> bfs_prev_;
  mutable std::vector<std::uint64_t> bfs_epoch_;
  mutable std::uint64_t bfs_epoch_counter_ = 0;
  /// BFS queue of node ids, level by level (retained across searches).
  mutable std::vector<std::int32_t> bfs_queue_;
  // Rail data-path parking: each hop's callback captures the cluster and a
  // slot index (common/slab.h). A transfer whose flow is aborted leaves its
  // slot parked until the cluster dies; aborts are rare (fault injection,
  // tenant kills), so the slabs stay bounded by peak concurrency plus them.
  Slab<HopCursor> cursors_;
  Slab<Stripe> stripes_;
  // Fault-injection state (all empty/off until a fault process opts in, so
  // fault-free runs carry no overhead and no behavior change).
  bool fault_tolerant_ = false;
  bool retrying_parked_ = false;  ///< retry_parked reentrancy guard
  std::function<void(const NicFault&)> fault_listener_;
  /// Hops with no usable path, retried FIFO on every topology change.
  std::vector<PendingHop> parked_;
  /// FlowId.value() -> rescue context for fault-tolerant rail flows.
  std::unordered_map<std::uint64_t, PendingHop> rescuable_;
  std::int64_t rescued_flows_ = 0;  ///< rescue_flow saves (telemetry)
  /// Electrical rails: (node * n_rails + rail) -> failed-lane bitmask.
  std::unordered_map<std::int64_t, std::uint32_t> electrical_failed_;
};

}  // namespace opus::net
