#include "obs/telemetry.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.h"
#include "net/cluster.h"
#include "net/ocs.h"
#include "sim/simulator.h"

namespace opus::obs {

// Per-rail OCS observer: mirrors circuit lifecycle and dark intervals onto
// the fabric process's per-rail trace tracks. An open span lives in per-port
// arrays at its lower port (a port holds one circuit at a time), so an up or
// down is two array accesses and finalize() closes spans in ascending port
// order, a deterministic order.
struct Telemetry::RailObserver : net::OcsObserver {
  Telemetry* hub;
  int rail;
  /// Per lower port: the upper port of its open span, or -1 when none.
  std::vector<std::int32_t> open_peer;
  /// Per lower port: when its open span came up.
  std::vector<TimeNs> open_start;

  RailObserver(Telemetry* h, int r, int n_ports)
      : hub(h),
        rail(r),
        open_peer(static_cast<std::size_t>(n_ports), -1),
        open_start(static_cast<std::size_t>(n_ports), 0) {}

  static std::string circuit_name(std::int32_t lo, std::int32_t hi) {
    // Built by append: GCC 12's -Wrestrict misfires on nested operator+
    // chains that mix literals with std::to_string temporaries.
    std::string name = "p";
    name += std::to_string(lo);
    name += "-p";
    name += std::to_string(hi);
    return name;
  }

  void close(std::int32_t lo, TimeNs end) {
    const auto i = static_cast<std::size_t>(lo);
    const TimeNs start = open_start[i];
    hub->circuit_lifetime_.record(end - start);
    if (hub->config_.tracing()) {
      hub->trace_.complete(kFabricPid, 3 * rail,
                           circuit_name(lo, open_peer[i]), "circuit", start,
                           end - start);
    }
    open_peer[i] = -1;
  }

  void on_circuit_up(PortId a, PortId b, TimeNs now) override {
    const std::int32_t lo = std::min(a.value(), b.value());
    const std::int32_t hi = std::max(a.value(), b.value());
    const auto i = static_cast<std::size_t>(lo);
    if (open_peer[i] == hi) return;  // repeated up: keep the first start
    // A port re-wired without a tear-down ends its previous circuit here.
    if (open_peer[i] >= 0) close(lo, now);
    open_peer[i] = hi;
    open_start[i] = now;
  }

  void on_circuit_down(PortId a, PortId b, TimeNs now) override {
    const std::int32_t lo = std::min(a.value(), b.value());
    const std::int32_t hi = std::max(a.value(), b.value());
    // Absent: established before telemetry attached.
    if (open_peer[static_cast<std::size_t>(lo)] == hi) close(lo, now);
  }

  void on_dark_interval(int ports, TimeNs start, TimeNs duration) override {
    if (!hub->config_.tracing()) return;
    hub->trace_.complete(kFabricPid, 3 * rail + 1,
                         "dark " + std::to_string(ports) + " ports", "dark",
                         start, duration);
  }

  void close_open_spans(TimeNs end) {
    for (std::size_t p = 0; p < open_peer.size(); ++p) {
      if (open_peer[p] >= 0) close(static_cast<std::int32_t>(p), end);
    }
  }
};

Telemetry::Telemetry(TelemetryConfig config) : config_(std::move(config)) {
  if (config_.self_profile) profiler_ = std::make_unique<Profiler>();
}

Telemetry::~Telemetry() = default;

void Telemetry::attach_fabric(sim::Simulator& sim, net::Cluster& cluster) {
  if (profiler_ != nullptr) sim.set_profiler(profiler_.get());

  if (config_.tracing()) trace_.set_process_name(kFabricPid, "fabric");
  // Rail observers feed both the trace (circuit/dark spans) and the
  // circuit-lifetime histogram, so they attach whenever either consumer is
  // on; each emission re-checks its own config flag.
  if ((config_.tracing() || config_.wants_metrics()) && cluster.photonic()) {
    for (int r = 0; r < cluster.n_rails(); ++r) {
      net::OpticalCircuitSwitch& ocs = cluster.ocs(RailId{r});
      auto obs = std::make_unique<RailObserver>(this, r, ocs.n_ports());
      ocs.set_observer(obs.get());
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
    return static_cast<double>(net.link_count());
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
