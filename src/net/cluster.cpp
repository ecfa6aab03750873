#include "net/cluster.h"

#include <algorithm>
#include <string>

#include "common/error.h"

namespace opus::net {

const char* fabric_name(FabricKind f) {
  switch (f) {
    case FabricKind::kElectrical: return "Electrical";
    case FabricKind::kOpusPhotonic: return "Opus";
    case FabricKind::kStaticRing: return "StaticRing";
    case FabricKind::kRotor: return "Rotor";
  }
  return "?";
}

RailKind rail_kind_of(FabricKind f) {
  return f == FabricKind::kElectrical ? RailKind::kElectrical
                                      : RailKind::kPhotonic;
}

int rotor_rounds_for(int n_nodes) {
  ensure(n_nodes >= 2, "a rotor needs at least two nodes");
  const int m = n_nodes % 2 == 0 ? n_nodes : n_nodes + 1;
  return m - 1;
}

Cluster::Cluster(sim::Simulator& sim, ClusterConfig cfg)
    : sim_(sim),
      cfg_(cfg),
      net_(sim),
      route_bytes_(6, 0) {
  ensure(cfg_.n_nodes > 0, "cluster requires nodes");
  ensure(cfg_.gpus_per_node > 0, "cluster requires GPUs per node");
  ensure(cfg_.nic_ports == 1 || cfg_.nic_ports == 2 || cfg_.nic_ports == 4,
         "NIC supports 1, 2, or 4 logical ports (ConnectX-7 configurations)");
  ensure(cfg_.nic_total_bw.positive(), "NIC bandwidth must be positive");
  ensure(cfg_.nvlink_bw.positive(), "NVLink bandwidth must be positive");

  // Forwarding follows from the fabric: a fixed ring can only serve
  // non-neighbours by forwarding around it, and a rotor whose ports spread
  // across matchings forwards over the connected union instead of waiting
  // (RotorNet's direct-or-two-hop routing). Opus reconfigures instead.
  if (cfg_.fabric == FabricKind::kStaticRing) {
    forwarding_ = Forwarding::kAnyHops;
  }
  if (cfg_.fabric == FabricKind::kRotor) {
    ensure(cfg_.n_nodes >= 2, "a rotor fabric needs at least two nodes");
    ensure(cfg_.rotor_port_spread >= 1, "rotor port spread must be >= 1");
    cfg_.rotor_port_spread =
        std::min({cfg_.rotor_port_spread, cfg_.nic_ports,
                  rotor_rounds_for(cfg_.n_nodes)});
    if (cfg_.rotor_port_spread > 1) forwarding_ = Forwarding::kTwoHop;
  } else {
    cfg_.rotor_port_spread = 1;
  }

  // Scale-up links are created on first use (nvl_in/nvl_out): only the id
  // tables are sized here, so idle nodes cost 8 bytes of ids each instead
  // of two solver-visible fluid links.
  const int n = n_gpus();
  nvl_in_.assign(static_cast<std::size_t>(n), LinkId{});
  nvl_out_.assign(static_cast<std::size_t>(n), LinkId{});

  const int rails = n_rails();
  if (photonic()) {
    rail_ocs_.reserve(static_cast<std::size_t>(rails));
    for (int r = 0; r < rails; ++r) {
      rail_ocs_.push_back(std::make_unique<OpticalCircuitSwitch>(
          sim_, net_, cfg_.n_nodes * cfg_.nic_ports, cfg_.port_bw(),
          cfg_.ocs_reconfig_delay,
          "rail" + std::to_string(r)));
      // Fault plumbing: traffic on a circuit killed mid-run is rescued here
      // (no-op abort when fault tolerance is off), and every topology change
      // re-attempts parked transfers (immediate return while none exist).
      OpticalCircuitSwitch* sw = rail_ocs_.back().get();
      sw->set_flow_rescuer([this](FlowId f) { rescue_flow(f); });
      sw->set_topology_listener([this] { retry_parked(); });
    }
  } else {
    rail_electrical_.reserve(static_cast<std::size_t>(rails));
    for (int r = 0; r < rails; ++r) {
      rail_electrical_.push_back(std::make_unique<ElectricalSwitch>(
          net_, cfg_.n_nodes, cfg_.nic_total_bw, kElectricalHopLatency));
    }
  }

  if (cfg_.mgmt_bw.positive()) {
    mgmt_ = std::make_unique<ElectricalSwitch>(net_, n, cfg_.mgmt_bw,
                                               kMgmtLatency);
  }
}

NodeId Cluster::node_of(GpuId g) const {
  ensure(g.valid() && g.value() < n_gpus(), "invalid GPU id");
  return NodeId{g.value() / cfg_.gpus_per_node};
}

int Cluster::local_rank(GpuId g) const {
  ensure(g.valid() && g.value() < n_gpus(), "invalid GPU id");
  return g.value() % cfg_.gpus_per_node;
}

GpuId Cluster::gpu_at(NodeId n, int local) const {
  ensure(n.valid() && n.value() < cfg_.n_nodes, "invalid node id");
  ensure(local >= 0 && local < cfg_.gpus_per_node, "invalid local rank");
  return GpuId{n.value() * cfg_.gpus_per_node + local};
}

PortId Cluster::ocs_port(GpuId g, int nic_port) const {
  ensure(nic_port >= 0 && nic_port < cfg_.nic_ports, "invalid NIC port");
  return PortId{node_of(g).value() * cfg_.nic_ports + nic_port};
}

GpuId Cluster::gpu_of_ocs_port(RailId rail, PortId port) const {
  ensure(rail.valid() && rail.value() < n_rails(), "invalid rail");
  ensure(port.valid() && port.value() < cfg_.n_nodes * cfg_.nic_ports,
         "invalid OCS port");
  return gpu_at(NodeId{port.value() / cfg_.nic_ports}, rail.value());
}

int Cluster::nic_port_of_ocs_port(PortId port) const {
  ensure(port.valid() && port.value() < cfg_.n_nodes * cfg_.nic_ports,
         "invalid OCS port");
  return port.value() % cfg_.nic_ports;
}

OpticalCircuitSwitch& Cluster::ocs(RailId rail) {
  ensure(photonic(), "ocs(): cluster has electrical rails");
  ensure(rail.valid() && rail.value() < n_rails(), "invalid rail");
  return *rail_ocs_[static_cast<std::size_t>(rail.value())];
}

const OpticalCircuitSwitch& Cluster::ocs(RailId rail) const {
  ensure(photonic(), "ocs(): cluster has electrical rails");
  ensure(rail.valid() && rail.value() < n_rails(), "invalid rail");
  return *rail_ocs_[static_cast<std::size_t>(rail.value())];
}

std::int64_t Cluster::total_ocs_reconfigurations() const {
  std::int64_t total = 0;
  for (int r = 0; r < n_rails(); ++r) {
    total += ocs(RailId{r}).stats().reconfigurations;
  }
  return total;
}

TimeNs Cluster::total_ocs_dark_time() const {
  TimeNs total = 0;
  for (int r = 0; r < n_rails(); ++r) {
    total += ocs(RailId{r}).stats().cumulative_port_dark_ns;
  }
  return total;
}

std::vector<CircuitRequest> Cluster::rotor_matching_circuits(
    int round, NodeSpan span) const {
  ensure(cfg_.fabric == FabricKind::kRotor,
         "rotor_matching_circuits: not a rotor fabric");
  check_span(span);
  ensure(span.count >= 2, "a rotor span needs at least two nodes");
  const int rounds = rotor_rounds_for(span.count);
  ensure(round >= 0 && round < rounds, "invalid rotor round");
  // A small span's cycle may be shorter than the fleet-wide spread.
  const int spread = std::min(cfg_.rotor_port_spread, rounds);
  const int ports = cfg_.nic_ports;
  std::vector<CircuitRequest> circuits;
  circuits.reserve(static_cast<std::size_t>(ports * (span.count / 2)));
  for (int p = 0; p < ports; ++p) {
    // OCS port of (node, NIC port p) is node * nic_ports + p on every rail.
    round_robin_matching(span.count, (round + p % spread) % rounds,
                         [&](int a, int b) {
                           circuits.push_back(
                               {PortId{(span.first + a) * ports + p},
                                PortId{(span.first + b) * ports + p}});
                         });
  }
  return circuits;
}

void Cluster::check_span(NodeSpan span) const {
  ensure(span.first >= 0 && span.count >= 1 && span.end() <= cfg_.n_nodes,
         "node span out of cluster range");
}

std::vector<PortId> Cluster::span_ports(NodeSpan span) const {
  check_span(span);
  std::vector<PortId> ports;
  ports.reserve(static_cast<std::size_t>(span.count * cfg_.nic_ports));
  for (int node = span.first; node < span.end(); ++node) {
    for (int p = 0; p < cfg_.nic_ports; ++p) {
      ports.push_back(PortId{node * cfg_.nic_ports + p});
    }
  }
  return ports;
}

const Cluster::TenantSpan* Cluster::find_tenant_span(int node) const {
  // Sorted, non-overlapping store: the candidate is the last entry starting
  // at or before `node`.
  const auto it = std::upper_bound(
      tenant_spans_.begin(), tenant_spans_.end(), node,
      [](int n, const TenantSpan& t) { return n < t.span.first; });
  if (it == tenant_spans_.begin()) return nullptr;
  const TenantSpan& cand = *std::prev(it);
  return cand.span.contains(node) ? &cand : nullptr;
}

void Cluster::assign_tenant(int tenant, NodeSpan span) {
  check_span(span);
  ensure(tenant >= 0, "tenant id must be non-negative");
  tenant_accounting_ = true;
  const auto it = std::lower_bound(
      tenant_spans_.begin(), tenant_spans_.end(), span.first,
      [](const TenantSpan& t, int first) { return t.span.first < first; });
  ensure(it == tenant_spans_.end() || span.end() <= it->span.first,
         "assign_tenant: node already owned by another tenant");
  ensure(it == tenant_spans_.begin() ||
             std::prev(it)->span.end() <= span.first,
         "assign_tenant: node already owned by another tenant");
  tenant_spans_.insert(it, TenantSpan{span, tenant});
  if (photonic()) {
    const std::vector<PortId> ports = span_ports(span);
    for (int r = 0; r < n_rails(); ++r) {
      for (PortId p : ports) ocs(RailId{r}).set_port_owner(p, tenant);
    }
  }
}

void Cluster::release_tenant(NodeSpan span) {
  check_span(span);
  ensure(!tenant_spans_.empty(), "release_tenant: no tenants assigned");
  // The released range must tile exactly onto whole assigned spans (one or
  // several, back to back): partial releases would shear a tenant's span.
  const auto first = std::lower_bound(
      tenant_spans_.begin(), tenant_spans_.end(), span.first,
      [](const TenantSpan& t, int f) { return t.span.first < f; });
  ensure(first != tenant_spans_.end() && first->span.first == span.first,
         "release_tenant: node is not tenanted");
  auto last = first;
  int cursor = span.first;
  while (last != tenant_spans_.end() && last->span.first == cursor &&
         last->span.end() <= span.end()) {
    cursor = last->span.end();
    ++last;
  }
  ensure(cursor == span.end(),
         "release_tenant: span does not tile onto assigned tenant spans");
  tenant_spans_.erase(first, last);
  if (photonic()) {
    const std::vector<PortId> ports = span_ports(span);
    for (int r = 0; r < n_rails(); ++r) {
      auto& sw = ocs(RailId{r});
      // Tear down the tenant's leftover circuits (the rotor's last matching,
      // the static ring, Opus's final layout) so the next occupant starts on
      // virgin ports and no later establish can touch a foreign port.
      sw.clear_circuits_on(ports);
      for (PortId p : ports) {
        sw.set_port_owner(p, OpticalCircuitSwitch::kUnowned);
      }
    }
  }
}

int Cluster::tenant_of(NodeId node) const {
  ensure(node.valid() && node.value() < cfg_.n_nodes, "invalid node id");
  const TenantSpan* t = find_tenant_span(node.value());
  return t == nullptr ? kNoTenant : t->tenant;
}

Bytes Cluster::tenant_bytes_on_route(int tenant, Route r) const {
  const auto it = tenant_route_bytes_.find(tenant);
  if (it == tenant_route_bytes_.end()) return 0;
  return it->second[static_cast<std::size_t>(r)];
}

TimeNs Cluster::ocs_dark_time_in_span(NodeSpan span) const {
  ensure(photonic(), "ocs_dark_time_in_span: cluster has electrical rails");
  TimeNs total = 0;
  const std::vector<PortId> ports = span_ports(span);
  for (int r = 0; r < n_rails(); ++r) {
    for (PortId p : ports) total += ocs(RailId{r}).port_dark_time(p);
  }
  return total;
}

void Cluster::quiesce_span_ports(NodeSpan span, std::function<void()> cb) {
  check_span(span);
  if (!photonic()) {
    if (cb) cb();
    return;
  }
  // One waiter per rail with a shared countdown. A span port can only go
  // dark again through its owner's control plane, which the caller has shut
  // down, so the countdown is monotone.
  const std::vector<PortId> ports = span_ports(span);
  auto remaining = std::make_shared<int>(n_rails());
  auto done = std::make_shared<std::function<void()>>(std::move(cb));
  for (int r = 0; r < n_rails(); ++r) {
    ocs(RailId{r}).call_when_undark(ports, [remaining, done] {
      if (--*remaining == 0 && *done) (*done)();
    });
  }
}

Cluster::Route Cluster::route_for(GpuId src, GpuId dst) const {
  if (src == dst) return Route::kLoopback;
  if (same_node(src, dst)) return Route::kScaleUp;
  if (local_rank(src) == local_rank(dst)) return Route::kRail;
  return Route::kPxn;
}

// The circuit-reachability scans below — live_circuit_links,
// has_live_circuit and the route search — are the rotor transport's inner
// loop (every send and every post-rotation flush walks them per NIC port)
// and the static ring's forwarding search, so they run on raw index
// arithmetic and the OCS's check-free live_peer() instead of the
// PortId/GpuId wrapper accessors — same predicate, no per-port ensure or
// optional traffic.

int Cluster::live_circuit_links(GpuId src, GpuId dst,
                                std::array<LinkId, kMaxNicPorts>& out) const {
  ensure(photonic(), "live_circuit_links: cluster has electrical rails");
  const auto& sw = ocs(rail_of(src));
  const int rank = src.value() % cfg_.gpus_per_node;
  const int base = (src.value() / cfg_.gpus_per_node) * cfg_.nic_ports;
  int n = 0;
  for (int p = 0; p < cfg_.nic_ports; ++p) {
    const std::int32_t q = sw.live_peer(base + p);
    if (q < 0) continue;
    if (q / cfg_.nic_ports * cfg_.gpus_per_node + rank != dst.value()) continue;
    out[static_cast<std::size_t>(n++)] = sw.live_tx_link(base + p);
  }
  return n;
}

bool Cluster::has_live_circuit(GpuId src, GpuId dst) const {
  const auto& sw = ocs(rail_of(src));
  const int rank = src.value() % cfg_.gpus_per_node;
  const int base = (src.value() / cfg_.gpus_per_node) * cfg_.nic_ports;
  for (int p = 0; p < cfg_.nic_ports; ++p) {
    const std::int32_t q = sw.live_peer(base + p);
    if (q >= 0 &&
        q / cfg_.nic_ports * cfg_.gpus_per_node + rank == dst.value()) {
      return true;
    }
  }
  return false;
}

bool Cluster::find_route(GpuId src, GpuId dst, Forwarding reach,
                         std::vector<GpuId>* path) const {
  if (path != nullptr) path->clear();
  if (has_live_circuit(src, dst)) {
    if (path != nullptr) path->assign({src, dst});
    return true;
  }
  if (reach == Forwarding::kNone) return false;
  const auto& sw = ocs(rail_of(src));
  const int ports = cfg_.nic_ports;
  const int gpn = cfg_.gpus_per_node;
  const int rank = src.value() % gpn;
  if (reach == Forwarding::kTwoHop) {
    // The first intermediate in NIC-port order (the order a BFS discovers
    // it in) with live circuits src -> via -> dst.
    const int base = (src.value() / gpn) * ports;
    for (int p = 0; p < ports; ++p) {
      const std::int32_t q = sw.live_peer(base + p);
      if (q < 0) continue;
      const GpuId via{q / ports * gpn + rank};
      if (!has_live_circuit(via, dst)) continue;
      if (path != nullptr) path->assign({src, via, dst});
      return true;
    }
    return false;
  }
  // BFS over nodes through live circuits. Visited state lives in
  // epoch-stamped scratch arrays (allocated on the first BFS, so fabrics
  // that never take this path pay nothing) — per query the search touches
  // only reached nodes, not O(n).
  const int n = cfg_.n_nodes;
  if (bfs_prev_.size() != static_cast<std::size_t>(n)) {
    bfs_prev_.assign(static_cast<std::size_t>(n), -2);
    bfs_epoch_.assign(static_cast<std::size_t>(n), 0);
  }
  const std::uint64_t epoch = ++bfs_epoch_counter_;
  const auto visited = [&](int node) {
    return bfs_epoch_[static_cast<std::size_t>(node)] == epoch;
  };
  const auto visit = [&](int node, int from) {
    bfs_epoch_[static_cast<std::size_t>(node)] = epoch;
    bfs_prev_[static_cast<std::size_t>(node)] = from;
    bfs_queue_.push_back(node);
  };
  bfs_queue_.clear();
  visit(src.value() / gpn, -1);
  const int target = dst.value() / gpn;
  for (std::size_t next = 0; next < bfs_queue_.size() && !visited(target);
       ++next) {
    const int node = bfs_queue_[next];
    for (int p = 0; p < ports; ++p) {
      const std::int32_t q = sw.live_peer(node * ports + p);
      if (q >= 0 && !visited(q / ports)) visit(q / ports, node);
    }
  }
  if (!visited(target)) return false;
  if (path != nullptr) {
    for (int node = target; node != -1;
         node = bfs_prev_[static_cast<std::size_t>(node)]) {
      path->push_back(GpuId{node * gpn + rank});
    }
    std::reverse(path->begin(), path->end());
  }
  return true;
}

bool Cluster::rail_path_available(GpuId src, GpuId dst) const {
  ensure(local_rank(src) == local_rank(dst),
         "rail_path_available: GPUs are on different rails");
  return !photonic() || find_route(src, dst, forwarding_, nullptr);
}

void Cluster::rail_multihop_path(GpuId src, GpuId dst,
                                 std::vector<GpuId>& path) const {
  ensure(photonic(), "rail_multihop_path: cluster has electrical rails");
  ensure(local_rank(src) == local_rank(dst),
         "rail_multihop_path: GPUs are on different rails");
  find_route(src, dst,
             forwarding_ == Forwarding::kTwoHop ? Forwarding::kTwoHop
                                                : Forwarding::kAnyHops,
             &path);
}

bool Cluster::spans_nodes(std::span<const GpuId> gpus) const {
  return std::any_of(gpus.begin(), gpus.end(),
                     [&](GpuId g) { return !same_node(g, gpus.front()); });
}

void Cluster::account(Route r, GpuId src, Bytes bytes) {
  route_bytes_[static_cast<std::size_t>(r)] += bytes;
  if (!tenant_accounting_) return;
  const TenantSpan* t = find_tenant_span(src.value() / cfg_.gpus_per_node);
  if (t == nullptr) return;
  tenant_route_bytes_[t->tenant][static_cast<std::size_t>(r)] += bytes;
}

Bytes Cluster::bytes_on_route(Route r) const {
  return route_bytes_[static_cast<std::size_t>(r)];
}

LinkId Cluster::nvl_in(GpuId g) {
  LinkId& id = nvl_in_[static_cast<std::size_t>(g.value())];
  if (!id.valid()) id = net_.add_link(cfg_.nvlink_bw);
  return id;
}

LinkId Cluster::nvl_out(GpuId g) {
  LinkId& id = nvl_out_[static_cast<std::size_t>(g.value())];
  if (!id.valid()) id = net_.add_link(cfg_.nvlink_bw);
  return id;
}

void Cluster::transfer_scale_up(GpuId src, GpuId dst, Bytes bytes,
                                std::function<void()> on_complete) {
  account(Route::kScaleUp, src, bytes);
  net_.start_flow({nvl_out(src), nvl_in(dst)}, bytes, kNvlinkLatency,
                  std::move(on_complete));
}

void Cluster::transfer_rail(GpuId src, GpuId dst, Bytes bytes,
                            std::function<void()> on_complete) {
  if (forwarding_ != Forwarding::kNone && !has_live_circuit(src, dst)) {
    // No direct circuit: forward store-and-forward through intermediate
    // same-rail GPUs over live circuits (§5). Every hop charges kRail, which
    // exposes the bandwidth tax.
    const std::uint32_t c = route_cursor(src, dst);
    if (cursors_[c].path.empty()) {
      cursors_.release(c);
      ensure(fault_tolerant_,
             "photonic rail transfer: destination unreachable through live "
             "circuits even with multi-hop forwarding");
      // Failure cut every live path: charge the logical payload once and
      // park — a repair or the next reconfiguration retries it.
      account(Route::kRailMultiHop, src, bytes);
      account(Route::kRail, src, bytes);
      parked_.push_back({src, dst, bytes, std::move(on_complete)});
      return;
    }
    account(Route::kRailMultiHop, src, bytes);
    start_forward(c, bytes, false, std::move(on_complete));
    return;
  }
  send_hop(src, dst, bytes, false, std::move(on_complete));
}

void Cluster::send_hop(GpuId src, GpuId dst, Bytes bytes, bool charged,
                       std::function<void()> done) {
  if (!charged) account(Route::kRail, src, bytes);
  if (!photonic()) {
    const auto& sw =
        *rail_electrical_[static_cast<std::size_t>(local_rank(src))];
    net_.start_flow({sw.uplink(node_of(src).value()),
                     sw.downlink(node_of(dst).value())},
                    bytes, kRailLatency + sw.hop_latency(),
                    std::move(done));
    return;
  }
  std::array<LinkId, kMaxNicPorts> circuits;
  const int n_circuits = live_circuit_links(src, dst, circuits);
  if (n_circuits == 0) {
    ensure(fault_tolerant_,
           "photonic rail transfer without a live circuit: the control plane "
           "must reconfigure the rail before communication starts");
    // The circuit died between path selection and issue (or a rescue raced
    // a second failure): park until the topology changes.
    parked_.push_back({src, dst, bytes, std::move(done)});
    return;
  }
  if (n_circuits == 1) {
    start_circuit_flow(circuits[0], src, dst, bytes, std::move(done));
    return;
  }
  // Stripe across parallel circuits; complete when every stripe lands.
  const auto n = static_cast<Bytes>(n_circuits);
  const std::uint32_t s = stripes_.put(Stripe{n_circuits, std::move(done)});
  for (int i = 0; i < n_circuits; ++i) {
    const Bytes stripe =
        bytes / n + (static_cast<Bytes>(i) < bytes % n ? 1 : 0);
    start_circuit_flow(circuits[static_cast<std::size_t>(i)], src, dst,
                       stripe, [this, s] { stripe_done(s); });
  }
}

void Cluster::stripe_done(std::uint32_t s) {
  if (--stripes_[s].pending > 0) return;
  const Stripe set = stripes_.take(s);
  if (set.done) set.done();
}

void Cluster::start_circuit_flow(LinkId link, GpuId src, GpuId dst,
                                 Bytes bytes, std::function<void()> done) {
  if (!fault_tolerant_) {
    net_.start_flow({link}, bytes, kRailLatency, std::move(done));
    return;
  }
  // Registered so a mid-flight circuit failure can rescue the remaining
  // bytes: the registry is bookkeeping, the flow is the same. The completion
  // learns its own registry key through a shared cell written after
  // start_flow returns — safe because flows never complete synchronously
  // (even zero-byte flows deliver via a scheduled event).
  auto key = std::make_shared<std::uint64_t>(0);
  const FlowId f =
      net_.start_flow({link}, bytes, kRailLatency, [this, key] {
        // A missing entry means abort_span_traffic dropped the hop while its
        // drained flow waited out kRailLatency in the fluid network's
        // delivery batch, which abort_flow cannot cancel: an evicted hop
        // never delivers.
        const auto entry = rescuable_.extract(*key);
        if (entry && entry.mapped().done) entry.mapped().done();
        // A completed flow frees its circuit: that is exactly the moment a
        // parked hop's emergency-steal escalation can find an idle port
        // pair, so give stranded traffic another chance (no-op while nothing
        // is parked).
        retry_parked();
      });
  *key = f.value();
  rescuable_.emplace(f.value(), PendingHop{src, dst, bytes, std::move(done)});
}

std::uint32_t Cluster::route_cursor(GpuId src, GpuId dst) {
  const std::uint32_t c = cursors_.acquire();
  std::vector<GpuId>& path = cursors_[c].path;
  // Sized once for the longest path the fabric allows, so a reused slot
  // never regrows its buffer whatever path it held before.
  path.reserve(static_cast<std::size_t>(
      forwarding_ == Forwarding::kTwoHop ? 3 : cfg_.n_nodes));
  rail_multihop_path(src, dst, path);
  return c;
}

void Cluster::start_forward(std::uint32_t c, Bytes bytes, bool charged,
                            std::function<void()> done) {
  HopCursor& cur = cursors_[c];
  cur.hop = 0;
  cur.bytes = bytes;
  cur.charged = charged;
  cur.done = std::move(done);
  forward(c);
}

void Cluster::forward(std::uint32_t c) {
  // Copy the hop out of the slot: send_hop may park more cursors.
  HopCursor& cur = cursors_[c];
  const GpuId src = cur.path[cur.hop];
  const GpuId dst = cur.path[++cur.hop];
  const Bytes bytes = cur.bytes;
  const bool charged = cur.charged;
  if (cur.hop + 1 == cur.path.size()) {
    std::function<void()> done = std::move(cur.done);
    cursors_.release(c);
    send_hop(src, dst, bytes, charged, std::move(done));
    return;
  }
  send_hop(src, dst, bytes, charged, [this, c] { forward(c); });
}

void Cluster::rescue_flow(FlowId f) {
  const auto it = rescuable_.find(f.value());
  if (it == rescuable_.end()) {
    // Untracked (the owner opted out of fault tolerance): abort outright.
    net_.abort_flow(f);
    return;
  }
  PendingHop hop = std::move(it->second);
  hop.bytes = net_.flow_remaining(f);
  net_.abort_flow(f);
  rescuable_.erase(it);
  ++rescued_flows_;
  resend(std::move(hop));
}

void Cluster::resend(PendingHop hop) {
  // The logical payload was charged at original issue; every path below is
  // uncharged so conservation sees each byte exactly once.
  if (has_live_circuit(hop.src, hop.dst)) {
    send_hop(hop.src, hop.dst, hop.bytes, true, std::move(hop.done));
    return;
  }
  // Degraded continuation: forward over surviving circuits even on fabrics
  // that normally forbid multi-hop (Opus re-plans future collectives, but
  // in-flight bytes cannot wait for the next layout).
  const std::uint32_t c = route_cursor(hop.src, hop.dst);
  if (cursors_[c].path.size() >= 2) {
    start_forward(c, hop.bytes, true, std::move(hop.done));
    return;
  }
  cursors_.release(c);
  if (try_emergency_circuit(hop.src, hop.dst) &&
      has_live_circuit(hop.src, hop.dst)) {
    send_hop(hop.src, hop.dst, hop.bytes, true, std::move(hop.done));
    return;
  }
  parked_.push_back(std::move(hop));
}

bool Cluster::try_emergency_circuit(GpuId src, GpuId dst) {
  if (cfg_.fabric != FabricKind::kOpusPhotonic) return false;
  auto& sw = ocs(rail_of(src));
  // First choice: a completely unused (peerless) port on each endpoint.
  // Escalation: steal a healthy port whose circuit is established but
  // carries no active flows in either direction. Under churn a node's whole
  // port budget can end up wired into stale circuits that no longer serve
  // the parked transfer; without the steal it would strand forever. The
  // owner is unharmed — its next controller request re-establishes whatever
  // it still needs (the satisfied() check sees the stolen pair).
  const auto spare = [&](GpuId g, bool allow_steal) -> PortId {
    const int base = node_of(g).value() * cfg_.nic_ports;
    for (int p = 0; p < cfg_.nic_ports; ++p) {
      const PortId port{base + p};
      if (sw.failed(port) || sw.dark(port) || sw.peer(port)) continue;
      return port;
    }
    if (!allow_steal) return PortId{};
    for (int p = 0; p < cfg_.nic_ports; ++p) {
      const PortId port{base + p};
      if (sw.failed(port) || sw.dark(port)) continue;
      const auto peer = sw.peer(port);
      if (!peer || sw.failed(*peer) || sw.dark(*peer)) continue;
      if (net_.active_flows_on(sw.link(port, *peer)) == 0 &&
          net_.active_flows_on(sw.link(*peer, port)) == 0) {
        return port;
      }
    }
    return PortId{};
  };
  for (const bool steal : {false, true}) {
    const PortId sp = spare(src, steal);
    const PortId dp = spare(dst, steal);
    if (!sp.valid() || !dp.valid() || sp == dp) continue;
    if (sw.port_owner(sp) != sw.port_owner(dp)) continue;
    // Fires the topology listener; retry_parked is reentrancy-guarded.
    sw.force_circuits({{sp, dp}});
    return true;
  }
  return false;
}

void Cluster::retry_parked() {
  if (retrying_parked_ || parked_.empty()) return;
  retrying_parked_ = true;
  std::vector<PendingHop> waiting;
  waiting.swap(parked_);
  for (PendingHop& hop : waiting) resend(std::move(hop));
  retrying_parked_ = false;
}

int Cluster::parked_rail_transfers(int rail, NodeSpan span) const {
  int n = 0;
  for (const PendingHop& t : parked_) {
    if (t.src.value() % cfg_.gpus_per_node != rail) continue;
    if (!span.contains(t.src.value() / cfg_.gpus_per_node)) continue;
    ++n;
  }
  return n;
}

int Cluster::rail_span_active_flows(RailId rail, NodeSpan span) const {
  ensure(photonic(), "rail_span_active_flows: cluster has electrical rails");
  check_span(span);
  const auto& sw = ocs(rail);
  int n = 0;
  for (int node = span.first; node < span.end(); ++node) {
    for (int p = 0; p < cfg_.nic_ports; ++p) {
      const LinkId l = sw.live_tx_link(node * cfg_.nic_ports + p);
      if (l.valid()) n += net_.active_flows_on(l);
    }
  }
  return n;
}

void Cluster::fail_nic_port(NodeId node, int rail, int slot) {
  ensure(node.valid() && node.value() < cfg_.n_nodes, "invalid node id");
  ensure(rail >= 0 && rail < n_rails(), "invalid rail");
  ensure(slot >= 0 && slot < cfg_.nic_ports, "invalid NIC port slot");
  if (nic_port_failed(node, rail, slot)) return;  // idempotent
  if (photonic()) {
    ocs(RailId{rail}).fail_port(PortId{node.value() * cfg_.nic_ports + slot});
  } else {
    const auto key =
        static_cast<std::int64_t>(node.value()) * n_rails() + rail;
    electrical_failed_[key] |= 1u << slot;
    apply_electrical_degrade(node, rail);
  }
  if (fault_listener_) fault_listener_({node, rail, slot, true});
}

void Cluster::repair_nic_port(NodeId node, int rail, int slot) {
  ensure(node.valid() && node.value() < cfg_.n_nodes, "invalid node id");
  ensure(rail >= 0 && rail < n_rails(), "invalid rail");
  ensure(slot >= 0 && slot < cfg_.nic_ports, "invalid NIC port slot");
  if (!nic_port_failed(node, rail, slot)) return;  // idempotent
  if (photonic()) {
    // repair_port fires the topology listener, so parked traffic retries
    // before the fault listener reacts at fleet scope.
    ocs(RailId{rail}).repair_port(
        PortId{node.value() * cfg_.nic_ports + slot});
  } else {
    const auto key =
        static_cast<std::int64_t>(node.value()) * n_rails() + rail;
    const auto it = electrical_failed_.find(key);
    it->second &= ~(1u << slot);
    if (it->second == 0) electrical_failed_.erase(it);
    apply_electrical_degrade(node, rail);
  }
  if (fault_listener_) fault_listener_({node, rail, slot, false});
}

bool Cluster::nic_port_failed(NodeId node, int rail, int slot) const {
  ensure(node.valid() && node.value() < cfg_.n_nodes, "invalid node id");
  ensure(rail >= 0 && rail < n_rails(), "invalid rail");
  ensure(slot >= 0 && slot < cfg_.nic_ports, "invalid NIC port slot");
  if (photonic()) {
    return ocs(RailId{rail}).failed(
        PortId{node.value() * cfg_.nic_ports + slot});
  }
  const auto it = electrical_failed_.find(
      static_cast<std::int64_t>(node.value()) * n_rails() + rail);
  return it != electrical_failed_.end() && ((it->second >> slot) & 1u) != 0;
}

int Cluster::live_nic_ports(NodeId node, int rail) const {
  int live = 0;
  for (int p = 0; p < cfg_.nic_ports; ++p) {
    if (!nic_port_failed(node, rail, p)) ++live;
  }
  return live;
}

bool Cluster::node_disconnected(NodeId node) const {
  for (int r = 0; r < n_rails(); ++r) {
    if (live_nic_ports(node, r) == 0) return true;
  }
  return false;
}

void Cluster::apply_electrical_degrade(NodeId node, int rail) {
  auto& sw = *rail_electrical_[static_cast<std::size_t>(rail)];
  const double scale =
      static_cast<double>(live_nic_ports(node, rail)) / cfg_.nic_ports;
  sw.set_endpoint_capacity_scale(node.value(), scale);
}

void Cluster::abort_span_traffic(NodeSpan span) {
  check_span(span);
  // Tracked rescuable flows touching the span first: this covers zero-byte
  // flows, which never attach to links and are invisible to per-link sweeps.
  if (!rescuable_.empty()) {
    std::vector<std::uint64_t> doomed;
    for (const auto& [key, ctx] : rescuable_) {
      if (span.contains(ctx.src.value() / cfg_.gpus_per_node) ||
          span.contains(ctx.dst.value() / cfg_.gpus_per_node)) {
        doomed.push_back(key);
      }
    }
    for (const std::uint64_t key : doomed) {
      net_.abort_flow(FlowId{key});
      rescuable_.erase(key);
    }
  }
  // Link-attached traffic. Tenant isolation keeps a span's circuits inside
  // the span, so sweeping each span node's tx direction covers both ends.
  for (int node = span.first; node < span.end(); ++node) {
    if (photonic()) {
      for (int r = 0; r < n_rails(); ++r) {
        const auto& sw = ocs(RailId{r});
        for (int p = 0; p < cfg_.nic_ports; ++p) {
          const LinkId l = sw.live_tx_link(node * cfg_.nic_ports + p);
          if (l.valid()) net_.abort_flows_on(l);
        }
      }
    } else {
      for (int r = 0; r < n_rails(); ++r) {
        const auto& sw = *rail_electrical_[static_cast<std::size_t>(r)];
        const LinkId up = sw.peek_uplink(node);
        const LinkId down = sw.peek_downlink(node);
        if (up.valid()) net_.abort_flows_on(up);
        if (down.valid()) net_.abort_flows_on(down);
      }
    }
    for (int local = 0; local < cfg_.gpus_per_node; ++local) {
      const GpuId g = gpu_at(NodeId{node}, local);
      const LinkId in = nvl_in_[static_cast<std::size_t>(g.value())];
      const LinkId out = nvl_out_[static_cast<std::size_t>(g.value())];
      if (in.valid()) net_.abort_flows_on(in);
      if (out.valid()) net_.abort_flows_on(out);
      if (mgmt_ != nullptr) {
        const LinkId mu = mgmt_->peek_uplink(g.value());
        const LinkId md = mgmt_->peek_downlink(g.value());
        if (mu.valid()) net_.abort_flows_on(mu);
        if (md.valid()) net_.abort_flows_on(md);
      }
    }
  }
  // Parked transfers touching the span never restart.
  std::erase_if(parked_, [&](const PendingHop& t) {
    return span.contains(t.src.value() / cfg_.gpus_per_node) ||
           span.contains(t.dst.value() / cfg_.gpus_per_node);
  });
}

void Cluster::transfer(GpuId src, GpuId dst, Bytes bytes,
                       std::function<void()> on_complete) {
  ensure(bytes >= 0, "transfer size must be non-negative");
  switch (route_for(src, dst)) {
    case Route::kLoopback:
      if (on_complete) sim_.schedule_after(0, std::move(on_complete));
      return;
    case Route::kScaleUp:
      transfer_scale_up(src, dst, bytes, std::move(on_complete));
      return;
    case Route::kRail:
      transfer_rail(src, dst, bytes, std::move(on_complete));
      return;
    case Route::kPxn: {
      // PXN: forward over NVLink to the bridge GPU that shares the
      // destination's rail, then ride that rail. Store-and-forward at the
      // bridge: the rail hop starts when the NVLink hop delivered (this is
      // the latency + bandwidth tax the paper attributes to multiplexing
      // parallelisms over shared links).
      account(Route::kPxn, src, bytes);
      const GpuId bridge = gpu_at(node_of(src), local_rank(dst));
      transfer_scale_up(src, bridge, bytes,
                        [this, bridge, dst, bytes,
                         cb = std::move(on_complete)]() mutable {
                          transfer_rail(bridge, dst, bytes, std::move(cb));
                        });
      return;
    }
    case Route::kMgmt:
    case Route::kRailMultiHop:
      break;  // unreachable: route_for never returns these classes
  }
  ensure(false, "transfer: unhandled route");
}

void Cluster::transfer_mgmt(GpuId src, GpuId dst, Bytes bytes,
                            std::function<void()> on_complete) {
  ensure(mgmt_ != nullptr, "management network is not enabled");
  ensure(src != dst, "mgmt transfer requires distinct endpoints");
  account(Route::kMgmt, src, bytes);
  // kMgmtLatency is the end-to-end host-network latency (stored as the
  // switch's hop latency at construction).
  net_.start_flow({mgmt_->uplink(src.value()), mgmt_->downlink(dst.value())},
                  bytes, mgmt_->hop_latency(), std::move(on_complete));
}

}  // namespace opus::net
