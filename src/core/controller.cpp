#include "core/controller.h"

#include <algorithm>

#include "common/error.h"

namespace opus::core {

OpusController::OpusController(sim::Simulator& sim, net::Cluster& cluster,
                               Config cfg)
    : sim_(sim), cluster_(cluster), cfg_(cfg) {
  ensure(cluster_.photonic(), "Opus controller requires photonic rails");
  owner_.assign(static_cast<std::size_t>(cluster_.n_rails()),
                std::vector<GroupId>(
                    static_cast<std::size_t>(cluster_.config().n_nodes *
                                             cluster_.config().nic_ports),
                    GroupId{}));
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

bool OpusController::executable(const Job& job) const {
  for (const RailCircuits& rc : job.layout) {
    const auto& sw = cluster_.ocs(rc.rail);
    // NOTE: even a fully-satisfied layout must pass the ownership check —
    // executing the job transfers port ownership to the requester, and a
    // later request from that group may then retarget circuits the current
    // owner is still using.
    const auto& owners = owner_[static_cast<std::size_t>(rc.rail.value())];
    if (!cfg_.fine_grained) {
      // Coarse-grained: any busy owner or any dark port on the rail blocks.
      for (int p = 0; p < sw.n_ports(); ++p) {
        if (sw.dark(PortId{p})) return false;
        const GroupId o = owners[static_cast<std::size_t>(p)];
        if (o.valid() && o != job.group) {
          auto it = active_.find(o);
          if (it != active_.end() && it->second > 0) return false;
        }
      }
      continue;
    }
    // Fine-grained: the job will (a) take ownership of every requested
    // circuit endpoint — including already-live circuits it would share —
    // and (b) retarget the touched ports (requested endpoints plus the
    // peers they disconnect). Every such port must be out of its
    // reconfiguration dark period and not owned by a group with kernels in
    // flight; otherwise a later step of this job could tear a circuit the
    // previous owner is still using.
    std::set<std::int32_t> ports;
    for (PortId p : CircuitPlanner::ports_of(rc)) ports.insert(p.value());
    for (PortId p : sw.touched_ports(rc.circuits)) ports.insert(p.value());
    for (std::int32_t pv : ports) {
      if (sw.dark(PortId{pv})) return false;  // mid-reconfiguration
      const GroupId o = owners[static_cast<std::size_t>(pv)];
      if (!o.valid() || o == job.group) continue;
      const auto it = active_.find(o);
      if (it != active_.end() && it->second > 0) return false;
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

  for (const RailCircuits& rc : job.layout) {
    auto& owners = owner_[static_cast<std::size_t>(rc.rail.value())];
    for (PortId p : CircuitPlanner::ports_of(rc)) {
      owners[static_cast<std::size_t>(p.value())] = job.group;
    }
    auto& sw = cluster_.ocs(rc.rail);
    // A layout planned (or queued) before a port failure may still name the
    // failed port; drop those circuits and wire the survivors — the
    // transport's next re-plan routes around the hole properly. (Claiming
    // ownership of the failed port above is harmless: it carries no circuit.)
    std::vector<net::CircuitRequest> circuits = rc.circuits;
    if (sw.failed_port_count() > 0) {
      std::erase_if(circuits, [&sw](const net::CircuitRequest& c) {
        return sw.failed(c.a) || sw.failed(c.b);
      });
    }
    if (sw.satisfied(circuits)) continue;
    // Ports this reconfiguration steals from other groups go back to free.
    for (PortId p : sw.touched_ports(circuits)) {
      auto& o = owners[static_cast<std::size_t>(p.value())];
      if (o != job.group) o = GroupId{};
    }
    any_reconfig = true;
    ++*remaining;
    sw.reconfigure(circuits, [this, remaining, requested_at, ack] {
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
    job.on_ack = std::move(on_ack);
    sim_.schedule_after(cfg_.control_rtt,
                        [this, enqueue, j = std::move(job)]() mutable {
                          enqueue(std::move(j));
                        });
  } else {
    job.on_ack = std::move(on_ack);
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
    // shares no port with any earlier blocked job.
    std::set<std::pair<std::int32_t, std::int32_t>> blocked;  // (rail, port)
    for (auto it = queue_.begin(); it != queue_.end();) {
      bool conflicts_earlier = false;
      bool owns_all = true;
      for (const RailCircuits& rc : it->layout) {
        const auto& owners = owner_[static_cast<std::size_t>(rc.rail.value())];
        for (PortId p : CircuitPlanner::ports_of(rc)) {
          if (blocked.contains({rc.rail.value(), p.value()})) {
            conflicts_earlier = true;
          }
          if (owners[static_cast<std::size_t>(p.value())] != it->group) {
            owns_all = false;
          }
        }
      }
      // A group finishing a multi-step collective on its own ports must be
      // able to overtake earlier-queued preemptors: those cannot run until
      // this group goes idle anyway (otherwise FC-FS would deadlock on a
      // priority inversion).
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
        for (PortId p : CircuitPlanner::ports_of(rc)) {
          blocked.insert({rc.rail.value(), p.value()});
        }
      }
      ++it;
    }
  }
  pumping_ = false;
}

}  // namespace opus::core
