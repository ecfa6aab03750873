#include "core/controller.h"

#include <algorithm>

#include "common/error.h"

namespace opus::core {

OpusController::OpusController(sim::Simulator& sim, net::Cluster& cluster,
                               Config cfg)
    : sim_(sim), cluster_(cluster), cfg_(cfg) {
  ensure(cluster_.photonic(), "Opus controller requires photonic rails");
  const auto n_rails = static_cast<std::size_t>(cluster_.n_rails());
  const auto n_ports = static_cast<std::size_t>(cluster_.config().n_nodes *
                                                cluster_.config().nic_ports);
  owner_.assign(n_rails, std::vector<GroupId>(n_ports, GroupId{}));
  queued_scan_.assign(n_rails, std::vector<std::uint64_t>(n_ports, 0));
}

GroupId OpusController::port_owner(RailId rail, PortId port) const {
  ensure(rail.valid() && rail.value() < cluster_.n_rails(), "invalid rail");
  const auto& ports = owner_[static_cast<std::size_t>(rail.value())];
  ensure(port.valid() && static_cast<std::size_t>(port.value()) < ports.size(),
         "invalid port");
  return ports[static_cast<std::size_t>(port.value())];
}

void OpusController::retire() {
  retired_ = true;
  queue_.clear();
}

void OpusController::group_activity(GroupId group, int delta) {
  active_[group] += delta;
  ensure(active_[group] >= 0, "controller: negative group activity");
  if (active_[group] == 0) pump();
}

bool OpusController::port_free(const Job& job, RailId rail,
                               PortId port) const {
  if (cluster_.ocs(rail).dark(port)) return false;  // mid-reconfiguration
  const GroupId o = owner_[static_cast<std::size_t>(rail.value())]
                          [static_cast<std::size_t>(port.value())];
  if (!o.valid() || o == job.group) return true;
  const auto it = active_.find(o);
  return it == active_.end() || it->second <= 0;
}

bool OpusController::executable(const Job& job) const {
  for (const RailCircuits& rc : job.layout) {
    // NOTE: even a fully-satisfied layout must pass the ownership check —
    // executing the job transfers port ownership to the requester, and a
    // later request from that group may then retarget circuits the current
    // owner is still using.
    if (!cfg_.fine_grained) {
      // Coarse-grained: any busy owner or any dark port on the rail blocks.
      const int n_ports = cluster_.ocs(rc.rail).n_ports();
      for (int p = 0; p < n_ports; ++p) {
        if (!port_free(job, rc.rail, PortId{p})) return false;
      }
      continue;
    }
    // Fine-grained: the job will (a) take ownership of every requested
    // circuit endpoint — including already-live circuits it would share —
    // and (b) retarget the touched ports (requested endpoints plus the
    // peers they disconnect). Every such port must be free; otherwise a
    // later step of this job could tear a circuit the previous owner is
    // still using. A port in both sets is checked twice, harmlessly.
    for (const net::CircuitRequest& c : rc.circuits) {
      if (!port_free(job, rc.rail, c.a) || !port_free(job, rc.rail, c.b)) {
        return false;
      }
    }
    for (PortId p : cluster_.ocs(rc.rail).touched_ports(rc.circuits)) {
      if (!port_free(job, rc.rail, p)) return false;
    }
  }
  return true;
}

void OpusController::finish(TimeNs requested_at,
                            const std::function<void()>& on_ack) {
  const TimeNs wait = sim_.now() - requested_at;
  stats_.total_wait += wait;
  stats_.max_wait = std::max(stats_.max_wait, wait);
  if (on_ack) on_ack();
}

void OpusController::execute(Job job) {
  // Claim ownership of every requested port (displacing idle prior owners).
  bool any_reconfig = false;
  auto remaining = std::make_shared<int>(0);
  auto requested_at = job.requested_at;
  auto ack = std::make_shared<std::function<void()>>(std::move(job.on_ack));

  for (RailCircuits& rc : job.layout) {
    auto& owners = owner_[static_cast<std::size_t>(rc.rail.value())];
    for (const net::CircuitRequest& c : rc.circuits) {
      owners[static_cast<std::size_t>(c.a.value())] = job.group;
      owners[static_cast<std::size_t>(c.b.value())] = job.group;
    }
    auto& sw = cluster_.ocs(rc.rail);
    // A layout planned (or queued) before a port failure may still name the
    // failed port; the OCS drops those circuits and wires the survivors —
    // the transport's next re-plan routes around the hole properly.
    // (Claiming ownership of the failed port above is harmless: it carries
    // no circuit.)
    if (sw.satisfied(rc.circuits)) continue;
    // Ports this reconfiguration steals from other groups go back to free.
    for (PortId p : sw.touched_ports(rc.circuits)) {
      auto& o = owners[static_cast<std::size_t>(p.value())];
      if (o != job.group) o = GroupId{};
    }
    any_reconfig = true;
    ++*remaining;
    sw.reconfigure(std::move(rc.circuits),
                   [this, remaining, requested_at, ack] {
                     if (--*remaining == 0) {
                       finish(requested_at, *ack);
                       pump();  // darkness cleared; queued jobs may proceed
                     }
                   });
  }

  if (any_reconfig) {
    ++stats_.reconfigurations;
  } else {
    ++stats_.satisfied_immediately;
    finish(requested_at, *ack);
  }
}

void OpusController::request(GroupId group,
                             const std::vector<RailCircuits>& layout,
                             std::function<void()> on_ack) {
  ensure(group.valid(), "controller: request requires a valid group");
  if (retired_) {
    if (on_ack) on_ack();
    return;
  }
  ++stats_.requests;
  Job job;
  job.group = group;
  job.layout = layout;
  job.on_ack = std::move(on_ack);
  job.requested_at = sim_.now();

  // Control-plane RTT before the request reaches the switch; cached
  // configurations still pay it (the shim->controller->ack path), except
  // when it is configured to zero.
  auto enqueue = [this](Job j) {
    if (retired_) {  // retired while the request was on the control RTT
      if (j.on_ack) j.on_ack();
      return;
    }
    queue_.push_back(std::move(j));
    pump();
  };
  if (cfg_.control_rtt > 0) {
    sim_.schedule_after(cfg_.control_rtt,
                        [this, enqueue, j = std::move(job)]() mutable {
                          enqueue(std::move(j));
                        });
  } else {
    enqueue(std::move(job));
  }
}

void OpusController::pump() {
  if (pumping_) return;  // avoid re-entrant scans from execute() callbacks
  pumping_ = true;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // FC-FS with port-domain fairness: a job may only jump the queue if it
    // shares no port with a job this scan left queued (stamped `scan`).
    const std::uint64_t scan = ++scan_;
    for (auto it = queue_.begin(); it != queue_.end();) {
      bool conflicts_earlier = false;
      bool owns_all = true;
      for (const RailCircuits& rc : it->layout) {
        const auto r = static_cast<std::size_t>(rc.rail.value());
        for (const net::CircuitRequest& c : rc.circuits) {
          for (const PortId p : {c.a, c.b}) {
            const auto pi = static_cast<std::size_t>(p.value());
            if (queued_scan_[r][pi] == scan) conflicts_earlier = true;
            if (owner_[r][pi] != it->group) owns_all = false;
          }
        }
      }
      // Overtaking rule: see the admission rules in controller.h.
      if (owns_all) conflicts_earlier = false;
      if (!conflicts_earlier && executable(*it)) {
        Job job = std::move(*it);
        it = queue_.erase(it);
        execute(std::move(job));
        progressed = true;
        continue;
      }
      if (!it->counted_queued) {
        it->counted_queued = true;
        ++stats_.queued;
      }
      for (const RailCircuits& rc : it->layout) {
        auto& queued = queued_scan_[static_cast<std::size_t>(rc.rail.value())];
        for (const net::CircuitRequest& c : rc.circuits) {
          queued[static_cast<std::size_t>(c.a.value())] = scan;
          queued[static_cast<std::size_t>(c.b.value())] = scan;
        }
      }
      ++it;
    }
  }
  pumping_ = false;
}

}  // namespace opus::core
