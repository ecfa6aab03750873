#include "net/ocs.h"

#include <algorithm>

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
                                           TimeNs reconfig_delay,
                                           std::string name)
    : sim_(sim),
      net_(net),
      port_bw_(port_bw),
      reconfig_delay_(reconfig_delay),
      name_(std::move(name)),
      peer_(static_cast<std::size_t>(n_ports), -1),
      dark_(static_cast<std::size_t>(n_ports), false),
      failed_(static_cast<std::size_t>(n_ports), false),
      owner_(static_cast<std::size_t>(n_ports), kUnowned),
      port_dark_ns_(static_cast<std::size_t>(n_ports), 0),
      tx_link_(static_cast<std::size_t>(n_ports)),
      stamp_(static_cast<std::size_t>(n_ports), 0) {
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
  return port_dark_ns_[static_cast<std::size_t>(p.value())];
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
      ensure(net_.active_flows_on(tx_link_[static_cast<std::size_t>(i)]) == 0,
             "OCS clear_circuits_on: circuit still carrying traffic");
    }
    tear_down(p.value());
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
      const LinkId l = tx_link_[static_cast<std::size_t>(j)];
      if (flow_rescuer_) {
        for (const FlowId f : net_.flows_on(l)) flow_rescuer_(f);
        ensure(net_.active_flows_on(l) == 0,
               "fail_port: flow rescuer left traffic on a failed circuit");
      } else {
        net_.abort_flows_on(l);
      }
    }
  }
  tear_down(p.value());
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
                       return connected(c.a, c.b) || failed(c.a) ||
                              failed(c.b);
                     });
}

std::vector<PortId> OpticalCircuitSwitch::touched_ports(
    const std::vector<CircuitRequest>& circuits) const {
  std::vector<Circuit> list;
  list.reserve(circuits.size());
  for (const CircuitRequest& c : circuits) {
    check_port(c.a);
    check_port(c.b);
    if (failed(c.a) || failed(c.b)) continue;  // the transaction drops it
    list.push_back({c.a.value(), c.b.value()});
  }
  std::vector<PortId> out;
  for (const std::int32_t p : touched_by(list)) out.push_back(PortId{p});
  return out;
}

std::vector<std::int32_t> OpticalCircuitSwitch::touched_by(
    const std::vector<Circuit>& circuits) const {
  const std::uint64_t stamp = ++epoch_;
  std::vector<std::int32_t> out;
  out.reserve(2 * circuits.size());
  const auto touch = [&](std::int32_t p) {
    auto& s = stamp_[static_cast<std::size_t>(p)];
    if (s != stamp) {
      s = stamp;
      out.push_back(p);
    }
  };
  for (const Circuit& c : circuits) {
    if (live_peer(c.a) == c.b) continue;  // already live: untouched
    for (const std::int32_t p : {c.a, c.b}) {
      touch(p);
      const auto old = peer_[static_cast<std::size_t>(p)];
      if (old >= 0) touch(old);
    }
  }
  return out;
}

LinkId OpticalCircuitSwitch::link(PortId from, PortId to) const {
  ensure(connected(from, to), "OCS::link: no live circuit between ports");
  // A live circuit's from -> to direction is `from`'s transmit link.
  return tx_link_[static_cast<std::size_t>(from.value())];
}

void OpticalCircuitSwitch::connect(std::int32_t a, std::int32_t b) {
  for (const std::int32_t p : {a, b}) {
    LinkId& l = tx_link_[static_cast<std::size_t>(p)];
    if (!l.valid()) l = net_.add_link(port_bw_);
  }
  peer_[static_cast<std::size_t>(a)] = b;
  peer_[static_cast<std::size_t>(b)] = a;
  if (observer_ != nullptr) {
    observer_->on_circuit_up(PortId{a}, PortId{b}, sim_.now());
  }
}

void OpticalCircuitSwitch::tear_down(std::int32_t p) {
  const auto i = static_cast<std::size_t>(p);
  const auto q = peer_[i];
  if (q < 0) return;
  peer_[i] = -1;
  peer_[static_cast<std::size_t>(q)] = -1;
  if (observer_ != nullptr) {
    observer_->on_circuit_down(PortId{p}, PortId{q}, sim_.now());
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
    tear_down(c.a.value());
    tear_down(c.b.value());
    connect(c.a.value(), c.b.value());
  }
  if (topology_listener_) topology_listener_();
}

std::vector<OpticalCircuitSwitch::Circuit> OpticalCircuitSwitch::validated(
    const std::vector<CircuitRequest>& circuits, const char* op) {
  const std::uint64_t stamp = ++epoch_;
  std::vector<Circuit> out;
  out.reserve(circuits.size());
  for (const CircuitRequest& c : circuits) {
    check_port(c.a);
    check_port(c.b);
    ensure(c.a != c.b, "OCS circuit cannot loop a port to itself");
    for (const PortId p : {c.a, c.b}) {
      auto& s = stamp_[static_cast<std::size_t>(p.value())];
      if (s == stamp) {
        ensure(false, std::string(op) + ": port appears in two circuits");
      }
      s = stamp;
    }
    out.push_back({c.a.value(), c.b.value()});
  }
  return out;
}

void OpticalCircuitSwitch::reconfigure(
    const std::vector<CircuitRequest>& circuits,
    std::function<void()> on_done) {
  transact(std::make_shared<const std::vector<Circuit>>(
               validated(circuits, "OCS reconfigure")),
           std::move(on_done));
}

void OpticalCircuitSwitch::transact(CircuitList circuits,
                                    std::function<void()> on_done) {
  // Ownership may have been reassigned since a batch was registered (fleet
  // tenants), so it is checked here, on every request.
  if (owned_ports_ > 0) {
    for (const Circuit& c : *circuits) {
      ensure(owner_[static_cast<std::size_t>(c.a)] ==
                 owner_[static_cast<std::size_t>(c.b)],
             "OCS circuit may not cross port ownership (tenant isolation)");
    }
  }
  // A failed port is never wired: its circuits are dropped and stay down
  // until the owner re-requests them after the repair.
  if (failed_ports_ > 0) {
    auto survivors = std::make_shared<std::vector<Circuit>>(*circuits);
    std::erase_if(*survivors, [this](const Circuit& c) {
      return failed_[static_cast<std::size_t>(c.a)] ||
             failed_[static_cast<std::size_t>(c.b)];
    });
    circuits = std::move(survivors);
  }
  std::vector<std::int32_t> touched = touched_by(*circuits);
  if (touched.empty()) {  // every remaining circuit already live
    if (on_done) on_done();
    return;
  }
  // Ascending port order, which the observer's teardown order depends on:
  // rewrite the set from the stamps it just received rather than sorting
  // it, which rotor-sized sets (every port, every rotation) cannot afford.
  const std::uint64_t stamp = epoch_;
  for (std::size_t i = 0, k = 0; k < touched.size(); ++i) {
    if (stamp_[i] == stamp) touched[k++] = static_cast<std::int32_t>(i);
  }
  // Refuse to retarget a circuit that is actively carrying traffic; the Opus
  // controller guarantees quiescence (reconfigure only after the previous
  // communication kernel finishes) and the rotor drains before rotating.
  // The diagnostic string is built only on failure. Checking each touched
  // port's transmit link covers both directions of a touched circuit
  // because a circuit's two endpoints are always touched together.
  for (const std::int32_t p : touched) {
    const auto i = static_cast<std::size_t>(p);
    ensure(!dark_[i],
           "OCS reconfigure: port is mid-reconfiguration; serialize requests");
    if (peer_[i] >= 0 && net_.active_flows_on(tx_link_[i]) != 0) {
      ensure(false,
             "OCS reconfigure: circuit still carrying traffic (switch " +
                 name_ + ", port " + std::to_string(p) + ")");
    }
  }

  // Capture the delay once and use it for both the dark-time charge and the
  // port-up event: a set_reconfig_delay while this request is in flight must
  // not desynchronize Fig. 8 accounting from the actual dark period.
  const TimeNs delay = reconfig_delay_;
  for (const std::int32_t p : touched) {
    tear_down(p);
    dark_[static_cast<std::size_t>(p)] = true;
    port_dark_ns_[static_cast<std::size_t>(p)] += delay;
  }
  const auto n_touched = static_cast<int>(touched.size());
  dark_ports_ += n_touched;
  ++stats_.reconfigurations;
  stats_.circuits_established += static_cast<std::int64_t>(circuits->size());
  stats_.cumulative_port_dark_ns += delay * n_touched;
  if (observer_ != nullptr) {
    observer_->on_dark_interval(n_touched, sim_.now(), delay);
  }

  sim_.schedule_after(delay, [this, circuits = std::move(circuits),
                              touched = std::move(touched),
                              cb = std::move(on_done)]() mutable {
    for (const std::int32_t p : touched) {
      dark_[static_cast<std::size_t>(p)] = false;
    }
    dark_ports_ -= static_cast<int>(touched.size());
    for (const Circuit& c : *circuits) {
      // A port that failed during the dark window stays down: its circuit
      // is skipped (the peer comes up unconnected and re-wires on the
      // owner's next request).
      if (failed_[static_cast<std::size_t>(c.a)] ||
          failed_[static_cast<std::size_t>(c.b)]) {
        continue;
      }
      connect(c.a, c.b);
    }
    if (cb) cb();
    if (topology_listener_) topology_listener_();
    pump_undark_waiters();
  });
}

OpticalCircuitSwitch::BatchId OpticalCircuitSwitch::register_batch(
    const std::vector<CircuitRequest>& circuits) {
  ensure(!circuits.empty(), "OCS register_batch: empty circuit set");
  batches_.push_back(std::make_shared<const std::vector<Circuit>>(
      validated(circuits, "OCS register_batch")));
  return static_cast<BatchId>(batches_.size()) - 1;
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
  transact(batches_[static_cast<std::size_t>(batch)], std::move(on_done));
}

}  // namespace opus::net
