#include "obs/telemetry.h"

#include <map>
#include <utility>

#include "common/error.h"
#include "net/cluster.h"
#include "net/ocs.h"
#include "sim/simulator.h"

namespace opus::obs {

// Per-rail OCS observer: mirrors circuit lifecycle and dark intervals onto
// the fabric process's per-rail trace tracks. Open spans are keyed by the
// unordered port pair in a sorted map so finalize() closes them in a
// deterministic order.
struct Telemetry::RailObserver : net::OcsObserver {
  Telemetry* hub;
  int rail;
  std::map<std::pair<std::int32_t, std::int32_t>, TimeNs> open;

  RailObserver(Telemetry* h, int r) : hub(h), rail(r) {}

  static std::pair<std::int32_t, std::int32_t> key(PortId a, PortId b) {
    return {std::min(a.value(), b.value()), std::max(a.value(), b.value())};
  }
  static std::string circuit_name(std::pair<std::int32_t, std::int32_t> k) {
    // Built by append: GCC 12's -Wrestrict misfires on nested operator+
    // chains that mix literals with std::to_string temporaries.
    std::string name = "p";
    name += std::to_string(k.first);
    name += "-p";
    name += std::to_string(k.second);
    return name;
  }

  void on_circuit_up(PortId a, PortId b, TimeNs now) override {
    open.emplace(key(a, b), now);
  }

  void on_circuit_down(PortId a, PortId b, TimeNs now) override {
    const auto k = key(a, b);
    const auto it = open.find(k);
    if (it == open.end()) return;  // established before telemetry attached
    hub->circuit_lifetime_.record(now - it->second);
    if (hub->config_.tracing()) {
      hub->trace_.complete(kFabricPid, 3 * rail, circuit_name(k), "circuit",
                           it->second, now - it->second);
    }
    open.erase(it);
  }

  void on_dark_interval(int ports, TimeNs start, TimeNs duration) override {
    if (!hub->config_.tracing()) return;
    hub->trace_.complete(kFabricPid, 3 * rail + 1,
                         "dark " + std::to_string(ports) + " ports", "dark",
                         start, duration);
  }

  void close_open_spans(TimeNs end) {
    for (const auto& [k, start] : open) {
      hub->circuit_lifetime_.record(end - start);
      if (hub->config_.tracing()) {
        hub->trace_.complete(kFabricPid, 3 * rail, circuit_name(k), "circuit",
                             start, end - start);
      }
    }
    open.clear();
  }
};

Telemetry::Telemetry(TelemetryConfig config) : config_(std::move(config)) {
  if (config_.self_profile) profiler_ = std::make_unique<SelfProfiler>();
}

Telemetry::~Telemetry() = default;

void Telemetry::attach_fabric(sim::Simulator& sim, net::Cluster& cluster) {
  if (profiler_ != nullptr) {
    sim.set_profile_sink(profiler_.get());
    cluster.network().set_profile_sink(profiler_.get());
    if (cluster.photonic()) {
      for (int r = 0; r < cluster.n_rails(); ++r) {
        cluster.ocs(RailId{r}).set_profile_sink(profiler_.get());
      }
    }
  }

  if (config_.tracing()) trace_.set_process_name(kFabricPid, "fabric");
  // Rail observers feed both the trace (circuit/dark spans) and the
  // circuit-lifetime histogram, so they attach whenever either consumer is
  // on; each emission re-checks its own config flag.
  if ((config_.tracing() || config_.wants_metrics()) && cluster.photonic()) {
    for (int r = 0; r < cluster.n_rails(); ++r) {
      auto obs = std::make_unique<RailObserver>(this, r);
      cluster.ocs(RailId{r}).set_observer(obs.get());
      if (config_.tracing()) {
        trace_.set_thread_name(kFabricPid, 3 * r,
                               "rail" + std::to_string(r) + " circuits");
        trace_.set_thread_name(kFabricPid, 3 * r + 1,
                               "rail" + std::to_string(r) + " dark");
        trace_.set_thread_name(kFabricPid, 3 * r + 2,
                               "rail" + std::to_string(r) + " faults");
      }
      rail_observers_.push_back(std::move(obs));
    }
  }

  if (!config_.wants_metrics()) return;

  const net::FluidNetwork& net = cluster.network();
  metrics_.add_gauge("fluid.active_flows", [&net] {
    return static_cast<double>(net.active_flow_count());
  });
  metrics_.add_gauge("fluid.solves", [&net] {
    return static_cast<double>(net.solve_count());
  });
  metrics_.add_gauge("fluid.solve_rounds", [&net] {
    return static_cast<double>(net.solve_rounds());
  });
  metrics_.add_gauge("fluid.frozen_links", [&net] {
    return static_cast<double>(net.frozen_bottleneck_links());
  });
  metrics_.add_gauge("fluid.live_links", [&net] {
    return static_cast<double>(net.live_link_count());
  });
  metrics_.add_gauge("cluster.rescued_flows", [&cluster] {
    return static_cast<double>(cluster.rescued_flow_count());
  });
  metrics_.add_gauge("cluster.parked_transfers", [&cluster] {
    return static_cast<double>(cluster.parked_transfer_count());
  });

  if (!cluster.photonic()) return;

  circuit_lifetime_ = metrics_.add_histogram("ocs.circuit_lifetime_ns");
  metrics_.add_gauge("ocs.reconfigurations", [&cluster] {
    return static_cast<double>(cluster.total_ocs_reconfigurations());
  });
  metrics_.add_gauge("ocs.dark_ns", [&cluster] {
    return static_cast<double>(cluster.total_ocs_dark_time());
  });
  metrics_.add_gauge("fabric.dark_ports", [&cluster] {
    int total = 0;
    for (int r = 0; r < cluster.n_rails(); ++r) {
      total += cluster.ocs(RailId{r}).dark_port_count();
    }
    return static_cast<double>(total);
  });
  metrics_.add_gauge("fabric.failed_ports", [&cluster] {
    int total = 0;
    for (int r = 0; r < cluster.n_rails(); ++r) {
      total += cluster.ocs(RailId{r}).failed_port_count();
    }
    return static_cast<double>(total);
  });
  metrics_.add_gauge("fabric.availability", [&cluster] {
    std::int64_t failed = 0;
    std::int64_t total = 0;
    for (int r = 0; r < cluster.n_rails(); ++r) {
      failed += cluster.ocs(RailId{r}).failed_port_count();
      total += cluster.ocs(RailId{r}).n_ports();
    }
    if (total == 0) return 1.0;
    return 1.0 - static_cast<double>(failed) / static_cast<double>(total);
  });
  for (int r = 0; r < cluster.n_rails(); ++r) {
    const net::OpticalCircuitSwitch& ocs = cluster.ocs(RailId{r});
    metrics_.add_gauge("rail" + std::to_string(r) + ".utilization", [&ocs] {
      // Fraction of ports carrying a live circuit. O(ports); the probe
      // samples on a cold path at the configured interval.
      const int n = ocs.n_ports();
      if (n == 0) return 0.0;
      int live = 0;
      for (int p = 0; p < n; ++p) {
        if (ocs.live_peer(p) >= 0) ++live;
      }
      return static_cast<double>(live) / static_cast<double>(n);
    });
    metrics_.add_gauge("rail" + std::to_string(r) + ".dark_ports", [&ocs] {
      return static_cast<double>(ocs.dark_port_count());
    });
  }
}

void Telemetry::start_probe(sim::Simulator& sim) {
  if (!config_.sampling()) return;
  ensure(probe_ == nullptr, "telemetry: start_probe called twice");
  probe_ = std::make_unique<Probe>(sim, metrics_, config_.sample_interval);
  probe_->start();
}

void Telemetry::on_fault(const net::NicFault& fault, TimeNs now) {
  if (!config_.tracing()) return;
  const std::string name =
      std::string(fault.failed ? "fail" : "repair") + " node" +
      std::to_string(fault.node.value()) + " slot" +
      std::to_string(fault.slot);
  trace_.instant(kFabricPid, 3 * fault.rail + 2, name, "fault", now);
}

void Telemetry::on_fleet_event(const std::string& kind, int job, TimeNs now) {
  if (!config_.tracing()) return;
  if (!fleet_process_named_) {
    trace_.set_process_name(kFleetPid, "fleet");
    trace_.set_thread_name(kFleetPid, 0, "lifecycle");
    fleet_process_named_ = true;
  }
  trace_.instant(kFleetPid, 0, kind + " job" + std::to_string(job), "fleet",
                 now);
}

void Telemetry::finalize(TimeNs end) {
  if (finalized_) return;
  finalized_ = true;
  for (const auto& obs : rail_observers_) obs->close_open_spans(end);
  final_metrics_ = metrics_.snapshot_json();
}

}  // namespace opus::obs
