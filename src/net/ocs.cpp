#include "net/ocs.h"

#include <algorithm>
#include <unordered_set>

#include "common/error.h"

namespace opus::net {

std::vector<std::pair<int, int>> round_robin_matching(int n, int round) {
  ensure(n >= 2, "round_robin_matching requires at least two ids");
  ensure(round >= 0, "round_robin_matching: round must be non-negative");
  // Circle method round-robin tournament. For odd n a virtual id (== n)
  // gives its partner a bye.
  const int m = n % 2 == 0 ? n : n + 1;
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(m / 2));
  auto emit = [&](int a, int b) {
    if (a < n && b < n) pairs.emplace_back(a, b);
  };
  // Fix id m-1; rotate the rest.
  emit(round % (m - 1), m - 1);
  for (int i = 1; i < m / 2; ++i) {
    emit((round + i) % (m - 1), (round - i + (m - 1)) % (m - 1));
  }
  return pairs;
}

std::vector<CircuitRequest> round_robin_circuits(int n_ports, int round) {
  ensure(n_ports % 2 == 0, "round_robin_circuits requires an even port count");
  std::vector<CircuitRequest> circuits;
  circuits.reserve(static_cast<std::size_t>(n_ports / 2));
  for (const auto& [a, b] : round_robin_matching(n_ports, round)) {
    circuits.push_back({PortId{a}, PortId{b}});
  }
  return circuits;
}

OpticalCircuitSwitch::OpticalCircuitSwitch(sim::Simulator& sim,
                                           FluidNetwork& net, int n_ports,
                                           Bandwidth port_bw,
                                           TimeNs circuit_latency,
                                           TimeNs reconfig_delay,
                                           std::string name)
    : sim_(sim),
      net_(net),
      port_bw_(port_bw),
      circuit_latency_(circuit_latency),
      reconfig_delay_(reconfig_delay),
      name_(std::move(name)),
      peer_(static_cast<std::size_t>(n_ports), -1),
      dark_(static_cast<std::size_t>(n_ports), false),
      failed_(static_cast<std::size_t>(n_ports), false),
      owner_(static_cast<std::size_t>(n_ports), kUnowned),
      port_dark_ns_(static_cast<std::size_t>(n_ports), 0),
      port_tx_link_(static_cast<std::size_t>(n_ports)),
      port_dark_group_(static_cast<std::size_t>(n_ports), -1) {
  ensure(n_ports > 0, "OCS requires at least one port");
  ensure(port_bw.positive(), "OCS port bandwidth must be positive");
  ensure(reconfig_delay >= 0, "OCS reconfig delay must be non-negative");
}

void OpticalCircuitSwitch::set_reconfig_delay(TimeNs d) {
  ensure(d >= 0, "OCS reconfig delay must be non-negative");
  reconfig_delay_ = d;
}

void OpticalCircuitSwitch::check_port(PortId p) const {
  ensure(p.valid() && p.value() < n_ports(), "invalid OCS port");
}

std::optional<PortId> OpticalCircuitSwitch::peer(PortId p) const {
  check_port(p);
  const auto q = peer_[static_cast<std::size_t>(p.value())];
  if (q < 0) return std::nullopt;
  return PortId{q};
}

bool OpticalCircuitSwitch::dark(PortId p) const {
  check_port(p);
  return is_dark(static_cast<std::size_t>(p.value()));
}

void OpticalCircuitSwitch::set_port_owner(PortId p, int owner) {
  check_port(p);
  ensure(owner >= kUnowned, "OCS port owner must be kUnowned or non-negative");
  auto& slot = owner_[static_cast<std::size_t>(p.value())];
  owned_ports_ += (owner != kUnowned) - (slot != kUnowned);
  slot = owner;
}

int OpticalCircuitSwitch::port_owner(PortId p) const {
  check_port(p);
  return owner_[static_cast<std::size_t>(p.value())];
}

TimeNs OpticalCircuitSwitch::port_dark_time(PortId p) const {
  check_port(p);
  const auto i = static_cast<std::size_t>(p.value());
  const auto g = port_dark_group_[i];
  return port_dark_ns_[i] +
         (g >= 0 ? dark_groups_[static_cast<std::size_t>(g)].accrued : 0);
}

void OpticalCircuitSwitch::clear_circuits_on(const std::vector<PortId>& ports) {
  for (PortId p : ports) {
    check_port(p);
    ensure(!dark(p), "OCS clear_circuits_on: port is mid-reconfiguration");
    const auto q = peer_[static_cast<std::size_t>(p.value())];
    if (q < 0) continue;
    ensure(!dark(PortId{q}),
           "OCS clear_circuits_on: peer port is mid-reconfiguration");
    for (auto i : {p.value(), q}) {
      const LinkId l = port_tx_link_[static_cast<std::size_t>(i)];
      ensure(!l.valid() || net_.active_flows_on(l) == 0,
             "OCS clear_circuits_on: circuit still carrying traffic");
    }
    tear_down(p);
  }
}

void OpticalCircuitSwitch::call_when_undark(std::vector<PortId> ports,
                                            std::function<void()> cb) {
  for (PortId p : ports) check_port(p);
  const bool any_dark =
      std::any_of(ports.begin(), ports.end(), [this](PortId p) {
        return is_dark(static_cast<std::size_t>(p.value()));
      });
  if (!any_dark) {
    if (cb) cb();
    return;
  }
  undark_waiters_.emplace_back(std::move(ports), std::move(cb));
}

void OpticalCircuitSwitch::pump_undark_waiters() {
  if (undark_waiters_.empty()) return;
  // Collect the ready callbacks first: a fired waiter may register new
  // waiters or trigger further reconfigurations.
  std::vector<std::function<void()>> ready;
  auto it = undark_waiters_.begin();
  while (it != undark_waiters_.end()) {
    const bool any_dark =
        std::any_of(it->first.begin(), it->first.end(), [this](PortId p) {
          return is_dark(static_cast<std::size_t>(p.value()));
        });
    if (any_dark) {
      ++it;
    } else {
      ready.push_back(std::move(it->second));
      it = undark_waiters_.erase(it);
    }
  }
  for (auto& cb : ready) {
    if (cb) cb();
  }
}

bool OpticalCircuitSwitch::connected(PortId a, PortId b) const {
  check_port(a);
  check_port(b);
  return peer_[static_cast<std::size_t>(a.value())] == b.value() &&
         !dark(a) && !dark(b) && !failed(a) && !failed(b);
}

bool OpticalCircuitSwitch::failed(PortId p) const {
  check_port(p);
  return failed_[static_cast<std::size_t>(p.value())];
}

int OpticalCircuitSwitch::failed_port_count() const { return failed_ports_; }

void OpticalCircuitSwitch::fail_port(PortId p) {
  check_port(p);
  const auto i = static_cast<std::size_t>(p.value());
  if (failed_[i]) return;  // idempotent: a double fault changes nothing
  // A port failing while dark holds no circuit — it was torn down when its
  // reconfiguration began and its dark time charged up front — so marking
  // it failed suffices and sum(port_dark_time) is unaffected; the
  // reconfiguration's completion skips re-establishing any circuit with a
  // failed endpoint. A live circuit's traffic is handed to the rescuer
  // (re-route or park) or aborted outright. The port is marked failed
  // BEFORE the rescuer runs: a rescue resend that consults connectivity
  // must not route back onto the dying circuit.
  failed_[i] = true;
  ++failed_ports_;
  const auto q = peer_[i];
  if (q >= 0) {
    for (auto j : {p.value(), q}) {
      const LinkId l = port_tx_link_[static_cast<std::size_t>(j)];
      if (!l.valid()) continue;
      if (flow_rescuer_) {
        for (const FlowId f : net_.flows_on(l)) flow_rescuer_(f);
        ensure(net_.active_flows_on(l) == 0,
               "fail_port: flow rescuer left traffic on a failed circuit");
      } else {
        net_.abort_flows_on(l);
      }
    }
  }
  tear_down(p);
}

void OpticalCircuitSwitch::repair_port(PortId p) {
  check_port(p);
  const auto i = static_cast<std::size_t>(p.value());
  if (!failed_[i]) return;  // idempotent
  failed_[i] = false;
  --failed_ports_;
  // The circuit is not restored — owners re-wire on their own schedule —
  // but parked traffic may now have a path, so poke the owning layer.
  if (topology_listener_) topology_listener_();
}

bool OpticalCircuitSwitch::satisfied(
    const std::vector<CircuitRequest>& circuits) const {
  return std::all_of(circuits.begin(), circuits.end(),
                     [this](const CircuitRequest& c) {
                       return connected(c.a, c.b);
                     });
}

std::vector<PortId> OpticalCircuitSwitch::touched_ports(
    const std::vector<CircuitRequest>& circuits) const {
  std::unordered_set<std::int32_t> touched;
  for (const CircuitRequest& c : circuits) {
    if (connected(c.a, c.b)) continue;  // already live: untouched
    for (PortId p : {c.a, c.b}) {
      check_port(p);
      touched.insert(p.value());
      const auto old = peer_[static_cast<std::size_t>(p.value())];
      if (old >= 0) touched.insert(old);
    }
  }
  std::vector<PortId> out;
  out.reserve(touched.size());
  for (auto v : touched) out.push_back(PortId{v});
  std::sort(out.begin(), out.end());
  return out;
}

std::pair<LinkId, LinkId> OpticalCircuitSwitch::link_pair(PortId a, PortId b) {
  const std::int32_t lo = std::min(a.value(), b.value());
  const std::int32_t hi = std::max(a.value(), b.value());
  auto it = links_.find(pair_key(lo, hi));
  if (it == links_.end()) {
    const std::string base =
        name_ + ":p" + std::to_string(lo) + "-p" + std::to_string(hi);
    const LinkId fwd = net_.add_link(port_bw_, base + ":fwd");
    const LinkId rev = net_.add_link(port_bw_, base + ":rev");
    it = links_.emplace(pair_key(lo, hi), std::make_pair(fwd, rev)).first;
  }
  return it->second;
}

LinkId OpticalCircuitSwitch::link(PortId from, PortId to) const {
  ensure(connected(from, to), "OCS::link: no live circuit between ports");
  // connected() guarantees peer_[from] == to, so the cached transmit link
  // of `from` is exactly the from -> to link — no pair-map lookup.
  const LinkId l = port_tx_link_[static_cast<std::size_t>(from.value())];
  ensure(l.valid(), "OCS::link: circuit links missing");
  return l;
}

void OpticalCircuitSwitch::establish(PortId a, PortId b) {
  peer_[static_cast<std::size_t>(a.value())] = b.value();
  peer_[static_cast<std::size_t>(b.value())] = a.value();
  const auto [fwd, rev] = link_pair(a, b);  // lo -> hi, hi -> lo
  const bool a_is_lo = a.value() < b.value();
  port_tx_link_[static_cast<std::size_t>(a.value())] = a_is_lo ? fwd : rev;
  port_tx_link_[static_cast<std::size_t>(b.value())] = a_is_lo ? rev : fwd;
  if (observer_ != nullptr) observer_->on_circuit_up(a, b, sim_.now());
}

void OpticalCircuitSwitch::tear_down(PortId p) {
  const auto q = peer_[static_cast<std::size_t>(p.value())];
  if (q < 0) return;
  peer_[static_cast<std::size_t>(p.value())] = -1;
  peer_[static_cast<std::size_t>(q)] = -1;
  port_tx_link_[static_cast<std::size_t>(p.value())] = LinkId{};
  port_tx_link_[static_cast<std::size_t>(q)] = LinkId{};
  if (observer_ != nullptr) observer_->on_circuit_down(p, PortId{q}, sim_.now());
  const std::int32_t lo = std::min(p.value(), q);
  const std::int32_t hi = std::max(p.value(), q);
  const std::uint64_t key = pair_key(lo, hi);
  if (pinned_pairs_.contains(key)) return;  // batch-owned links never retire
  if (queued_dead_.insert(key).second) {
    dead_pairs_.push_back({lo, hi});
    prune_dead_circuits();
  }
}

void OpticalCircuitSwitch::prune_dead_circuits() {
  // Keep a bounded number of dead circuits cached: 2x the switch radix —
  // bounded by hardware, never by the number of reconfigurations performed.
  const auto cap = static_cast<std::size_t>(2 * n_ports());
  std::size_t attempts = dead_pairs_.size();
  while (dead_pairs_.size() > cap && attempts-- > 0) {
    const auto pair = dead_pairs_.front();
    dead_pairs_.pop_front();
    const std::uint64_t key = pair_key(pair.first, pair.second);
    queued_dead_.erase(key);
    if (peer_[static_cast<std::size_t>(pair.first)] == pair.second) {
      continue;  // re-established since; a future tear_down re-queues it
    }
    const auto it = links_.find(key);
    if (it == links_.end()) continue;  // already retired via an older entry
    if (net_.active_flows_on(it->second.first) > 0 ||
        net_.active_flows_on(it->second.second) > 0) {
      // Still draining (a force_circuits teardown has no quiescence check):
      // never retire under traffic, but keep the entry queued so the links
      // are reclaimed once the flows finish rather than leaked.
      dead_pairs_.push_back(pair);
      queued_dead_.insert(key);
      continue;
    }
    net_.retire_link(it->second.first);
    net_.retire_link(it->second.second);
    stats_.links_retired += 2;
    links_.erase(it);
  }
}

void OpticalCircuitSwitch::force_circuits(
    const std::vector<CircuitRequest>& circuits) {
  for (const CircuitRequest& c : circuits) {
    check_port(c.a);
    check_port(c.b);
    ensure(c.a != c.b, "OCS circuit cannot loop a port to itself");
    ensure(port_owner(c.a) == port_owner(c.b),
           "OCS circuit may not cross port ownership (tenant isolation)");
    if (failed(c.a) || failed(c.b)) continue;  // failed endpoints stay down
    tear_down(c.a);
    tear_down(c.b);
    establish(c.a, c.b);
  }
  if (topology_listener_) topology_listener_();
}

void OpticalCircuitSwitch::reconfigure(
    const std::vector<CircuitRequest>& circuits,
    std::function<void()> on_done) {
  // Validate: no port may appear twice among the requested circuits.
  std::unordered_set<std::int32_t> seen;
  for (const CircuitRequest& c : circuits) {
    check_port(c.a);
    check_port(c.b);
    ensure(c.a != c.b, "OCS circuit cannot loop a port to itself");
    ensure(!failed(c.a) && !failed(c.b),
           "OCS reconfigure: circuit requests a failed port");
    ensure(port_owner(c.a) == port_owner(c.b),
           "OCS circuit may not cross port ownership (tenant isolation)");
    ensure(seen.insert(c.a.value()).second,
           "OCS reconfigure: port appears in two circuits");
    ensure(seen.insert(c.b.value()).second,
           "OCS reconfigure: port appears in two circuits");
  }

  if (satisfied(circuits)) {
    if (on_done) on_done();
    return;
  }

  const std::vector<PortId> touched = touched_ports(circuits);
  for (PortId p : touched) {
    ensure(!dark(p),
           "OCS reconfigure: port is mid-reconfiguration; serialize requests");
  }
  // Refuse to retarget a circuit that is actively carrying traffic; the Opus
  // controller guarantees quiescence (reconfigure only after the previous
  // communication kernel finishes). The diagnostic string is built only on
  // failure. The cached per-port transmit link covers both directions of a
  // touched circuit because a circuit's two endpoints are always touched
  // together.
  for (PortId p : touched) {
    const LinkId l = port_tx_link_[static_cast<std::size_t>(p.value())];
    if (l.valid() && net_.active_flows_on(l) != 0) {
      ensure(false,
             "OCS reconfigure: circuit still carrying traffic (switch " +
                 name_ + ", port " + std::to_string(p.value()) + ")");
    }
  }

  // Tear down old circuits on the touched ports and go dark.
  for (PortId p : touched) tear_down(p);
  for (PortId p : touched) dark_[static_cast<std::size_t>(p.value())] = true;
  dark_ports_ += static_cast<int>(touched.size());

  ++stats_.reconfigurations;
  stats_.circuits_established += static_cast<std::int64_t>(circuits.size());
  // Capture the delay once and use it for both the dark-time charge and the
  // port-up event: a set_reconfig_delay while this request is in flight must
  // not desynchronize Fig. 8 accounting from the actual dark period.
  const TimeNs delay = reconfig_delay_;
  stats_.cumulative_port_dark_ns += delay * static_cast<TimeNs>(touched.size());
  for (PortId p : touched) {
    port_dark_ns_[static_cast<std::size_t>(p.value())] += delay;
  }
  if (observer_ != nullptr) {
    observer_->on_dark_interval(static_cast<int>(touched.size()), sim_.now(),
                                delay);
  }

  // Copy the request; the new circuits come up together after the delay.
  sim_.schedule_after(
      delay,
      [this, circuits, touched, cb = std::move(on_done)]() mutable {
        for (PortId p : touched) {
          dark_[static_cast<std::size_t>(p.value())] = false;
        }
        dark_ports_ -= static_cast<int>(touched.size());
        for (const CircuitRequest& c : circuits) {
          // A port that failed during the dark window stays down: its
          // circuit is skipped (the peer comes up unconnected and re-wires
          // on the owner's next request).
          if (failed_[static_cast<std::size_t>(c.a.value())] ||
              failed_[static_cast<std::size_t>(c.b.value())]) {
            continue;
          }
          establish(c.a, c.b);
        }
        if (cb) cb();
        if (topology_listener_) topology_listener_();
        pump_undark_waiters();
      });
}

OpticalCircuitSwitch::BatchId OpticalCircuitSwitch::register_batch(
    const std::vector<CircuitRequest>& circuits) {
  ensure(!circuits.empty(), "OCS register_batch: empty circuit set");
  Batch batch;
  batch.circuits.reserve(circuits.size());
  batch.ports.reserve(2 * circuits.size());
  std::unordered_set<std::int32_t> seen;
  for (const CircuitRequest& c : circuits) {
    check_port(c.a);
    check_port(c.b);
    ensure(c.a != c.b, "OCS circuit cannot loop a port to itself");
    ensure(port_owner(c.a) == port_owner(c.b),
           "OCS circuit may not cross port ownership (tenant isolation)");
    ensure(seen.insert(c.a.value()).second,
           "OCS register_batch: port appears in two circuits");
    ensure(seen.insert(c.b.value()).second,
           "OCS register_batch: port appears in two circuits");
    const auto [fwd, rev] = link_pair(c.a, c.b);  // lo -> hi, hi -> lo
    const bool a_is_lo = c.a.value() < c.b.value();
    batch.circuits.push_back({c.a.value(), c.b.value(), a_is_lo ? fwd : rev,
                              a_is_lo ? rev : fwd});
    batch.ports.push_back(c.a.value());
    batch.ports.push_back(c.b.value());
    pinned_pairs_.insert(pair_key(std::min(c.a.value(), c.b.value()),
                                  std::max(c.a.value(), c.b.value())));
  }
  std::sort(batch.ports.begin(), batch.ports.end());
  batch.group = dark_group_for(batch.ports);
  batches_.push_back(std::move(batch));
  return static_cast<BatchId>(batches_.size()) - 1;
}

int OpticalCircuitSwitch::dark_group_for(
    const std::vector<std::int32_t>& ports) {
  // Reuse: every port already belongs to one group whose membership count
  // matches — since membership is exclusive and the ports are distinct, the
  // group is exactly this set (the common case: all rounds of one rotor
  // rail share the full port set).
  const auto first = port_dark_group_[static_cast<std::size_t>(ports[0])];
  if (first >= 0 &&
      dark_groups_[static_cast<std::size_t>(first)].members ==
          static_cast<std::int32_t>(ports.size()) &&
      std::all_of(ports.begin(), ports.end(), [&](std::int32_t p) {
        return port_dark_group_[static_cast<std::size_t>(p)] == first;
      })) {
    return first;
  }
  // Otherwise migrate every port into a fresh group. Leaving an old group
  // (a released tenant's sub-rotor) bakes its accrued time into the port's
  // own counter, so port_dark_time is unchanged by the move.
  const int g = static_cast<int>(dark_groups_.size());
  dark_groups_.push_back({0, false, static_cast<std::int32_t>(ports.size())});
  for (const std::int32_t p : ports) {
    const auto i = static_cast<std::size_t>(p);
    const auto old = port_dark_group_[i];
    if (old >= 0) {
      DarkGroup& og = dark_groups_[static_cast<std::size_t>(old)];
      ensure(!og.dark,
             "OCS register_batch: port is mid-reconfiguration in another "
             "batch group");
      port_dark_ns_[i] += og.accrued;
      --og.members;
    }
    port_dark_group_[i] = g;
  }
  return g;
}

void OpticalCircuitSwitch::set_profile_sink(ProfileSink* sink) {
  profile_sink_ = sink;
  if (sink != nullptr) {
    profile_phase_batch_ = sink->phase("ocs.reconfigure_batch");
  }
}

void OpticalCircuitSwitch::reconfigure_batch(BatchId batch,
                                             std::function<void()> on_done) {
  ProfileScope prof(profile_sink_, profile_phase_batch_);
  ensure(batch >= 0 && batch < static_cast<BatchId>(batches_.size()),
         "OCS reconfigure_batch: unknown batch");
  // References into batches_/dark_groups_ are not held across the fallback
  // call (which may register further batches through reentrant callers).
  {
    const Batch& b = batches_[static_cast<std::size_t>(batch)];
    // Fall back to the generic path when some batch port's current circuit
    // reaches outside the batch's port set (possible after force_circuits
    // or a generic reconfigure rewired ports since registration): the
    // touched set is then wider than the batch and needs the full
    // old-peer expansion.
    for (const std::int32_t p : b.ports) {
      const auto q = peer_[static_cast<std::size_t>(p)];
      if (q >= 0 && port_dark_group_[static_cast<std::size_t>(q)] != b.group) {
        std::vector<CircuitRequest> requests;
        requests.reserve(b.circuits.size());
        for (const BatchCircuit& c : b.circuits) {
          requests.push_back({PortId{c.a}, PortId{c.b}});
        }
        ++stats_.batch_fallbacks;
        reconfigure(requests, std::move(on_done));
        return;
      }
    }
  }
  Batch& b = batches_[static_cast<std::size_t>(batch)];
  DarkGroup& g = dark_groups_[static_cast<std::size_t>(b.group)];
  ensure(!g.dark,
         "OCS reconfigure_batch: batch ports are mid-reconfiguration; "
         "serialize requests");

  // Idempotence fast-path, as in reconfigure(): an already-live batch acks
  // without counting anything.
  const bool already_live =
      !g.dark && std::all_of(b.circuits.begin(), b.circuits.end(),
                             [&](const BatchCircuit& c) {
                               return connected(PortId{c.a}, PortId{c.b});
                             });
  if (already_live) {
    if (on_done) on_done();
    return;
  }

  // Rare-state guards, each skipped entirely in the steady rotor state.
  if (dark_ports_ > 0) {
    for (const std::int32_t p : b.ports) {
      ensure(!dark_[static_cast<std::size_t>(p)],
             "OCS reconfigure_batch: port is mid-reconfiguration; serialize "
             "requests");
    }
  }
  if (failed_ports_ > 0) {
    // Fallback widening: a batch whose port set lost members to failure
    // drops the dead circuits and applies the survivors through the generic
    // path (the pinned batch transaction assumes the full matching). The
    // refs above are not held across the call — reconfigure neither
    // registers batches nor runs callbacks synchronously past its
    // satisfied fast-path.
    bool any_failed = false;
    for (const std::int32_t p : b.ports) {
      if (failed_[static_cast<std::size_t>(p)]) {
        any_failed = true;
        break;
      }
    }
    if (any_failed) {
      std::vector<CircuitRequest> survivors;
      survivors.reserve(b.circuits.size());
      for (const BatchCircuit& c : b.circuits) {
        if (failed_[static_cast<std::size_t>(c.a)] ||
            failed_[static_cast<std::size_t>(c.b)]) {
          continue;
        }
        survivors.push_back({PortId{c.a}, PortId{c.b}});
      }
      if (survivors.empty()) {
        if (on_done) on_done();
        return;
      }
      ++stats_.batch_fallbacks;
      reconfigure(survivors, std::move(on_done));
      return;
    }
  }
  if (owned_ports_ > 0) {
    for (const BatchCircuit& c : b.circuits) {
      ensure(port_owner(PortId{c.a}) == port_owner(PortId{c.b}),
             "OCS circuit may not cross port ownership (tenant isolation)");
    }
  }
  for (const std::int32_t p : b.ports) {
    const LinkId l = port_tx_link_[static_cast<std::size_t>(p)];
    if (l.valid() && net_.active_flows_on(l) != 0) {
      ensure(false,
             "OCS reconfigure_batch: circuit still carrying traffic (switch " +
                 name_ + ", port " + std::to_string(p) + ")");
    }
  }

  // The transaction: tear down every batch port's circuit (peers are all
  // in-set, links are pinned — plain array writes, no retirement queue),
  // darken the whole group, charge the dark delta once, and schedule the
  // single completion event. The direct writes bypass tear_down, so the
  // observer emit happens here (once per pair, via the p < q endpoint).
  if (observer_ != nullptr) {
    for (const std::int32_t p : b.ports) {
      const auto q = peer_[static_cast<std::size_t>(p)];
      if (q > p) observer_->on_circuit_down(PortId{p}, PortId{q}, sim_.now());
    }
  }
  for (const std::int32_t p : b.ports) {
    peer_[static_cast<std::size_t>(p)] = -1;
    port_tx_link_[static_cast<std::size_t>(p)] = LinkId{};
  }
  g.dark = true;
  ++stats_.reconfigurations;
  stats_.circuits_established += static_cast<std::int64_t>(b.circuits.size());
  const TimeNs delay = reconfig_delay_;
  stats_.cumulative_port_dark_ns += delay * static_cast<TimeNs>(b.ports.size());
  g.accrued += delay;  // the O(1) per-rotation delta for every member port
  if (observer_ != nullptr) {
    observer_->on_dark_interval(static_cast<int>(b.ports.size()), sim_.now(),
                                delay);
  }

  sim_.schedule_after(delay, [this, batch, cb = std::move(on_done)]() mutable {
    Batch& bb = batches_[static_cast<std::size_t>(batch)];
    dark_groups_[static_cast<std::size_t>(bb.group)].dark = false;
    for (const BatchCircuit& c : bb.circuits) {
      // Endpoints that failed during the dark window stay down.
      if (failed_ports_ > 0 && (failed_[static_cast<std::size_t>(c.a)] ||
                                failed_[static_cast<std::size_t>(c.b)])) {
        continue;
      }
      peer_[static_cast<std::size_t>(c.a)] = c.b;
      peer_[static_cast<std::size_t>(c.b)] = c.a;
      port_tx_link_[static_cast<std::size_t>(c.a)] = c.ab;
      port_tx_link_[static_cast<std::size_t>(c.b)] = c.ba;
      if (observer_ != nullptr) {
        observer_->on_circuit_up(PortId{c.a}, PortId{c.b}, sim_.now());
      }
    }
    if (cb) cb();
    if (topology_listener_) topology_listener_();
    pump_undark_waiters();
  });
}

}  // namespace opus::net
