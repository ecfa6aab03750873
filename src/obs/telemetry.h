// Telemetry hub: owns the four observability pillars (metrics registry,
// time-series probe, chrome-trace writer, self-profiler) and wires them
// into a live simulation.
//
// Lifecycle: construct from a TelemetryConfig, attach_fabric() after the
// cluster exists (registers the standard fabric gauges, installs the
// per-rail OCS observers when tracing, and hands the profiler to the
// simulator), register any layer-specific metrics (the fleet driver adds
// its own gauges), start_probe() just before the run, and finalize() after
// the run but BEFORE the simulator/cluster are destroyed — finalize
// captures the final metrics snapshot and closes open trace spans, after
// which the hub is self-contained and may outlive the simulation inside an
// ExperimentResult/FleetResult.
//
// Determinism contract: everything emitted (series rows, trace events,
// metrics snapshots) is derived from sim-time and simulation state only —
// wall-clock readings exist solely inside the opt-in Profiler
// (common/profile.h), whose report is table text, never JSON payload.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/profile.h"
#include "common/units.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/probe.h"

namespace opus::net {
class Cluster;
struct NicFault;
class OpticalCircuitSwitch;
}  // namespace opus::net
namespace opus::sim {
class Simulator;
}

namespace opus::obs {

/// The self-profiler's historical name; perfbench/cell.cpp names it.
using SelfProfiler = Profiler;

/// The `"telemetry"` config block (serde: config/serde.cpp, strict keys
/// {metrics, series_path, chrome_trace_path, sample_interval_ns,
/// self_profile}). Default-constructed == fully disabled.
struct TelemetryConfig {
  /// Register fabric metrics and append their final snapshot to the result
  /// document's "telemetry" section.
  bool metrics = false;
  /// When non-empty, the sampled time-series is written here as CSV (by the
  /// config runner; the series itself is always available in memory).
  std::string series_path;
  /// When non-empty, chrome trace_events JSON is collected (and written
  /// here by the config runner).
  std::string chrome_trace_path;
  /// Probe period (serde key "sample_interval_ns"). Sampling runs only when
  /// metrics or a series path ask for it.
  TimeNs sample_interval = msecs(1);
  /// Wall-clock self-profiling of solver/OCS/event-loop/sweep phases,
  /// reported as a text table appended to the run's table output.
  bool self_profile = false;

  bool enabled() const {
    return metrics || !series_path.empty() || !chrome_trace_path.empty() ||
           self_profile;
  }
  /// Metrics wanted, either for the snapshot or as series columns.
  bool wants_metrics() const { return metrics || !series_path.empty(); }
  bool sampling() const { return sample_interval > 0 && wants_metrics(); }
  bool tracing() const { return !chrome_trace_path.empty(); }

  friend bool operator==(const TelemetryConfig&,
                         const TelemetryConfig&) = default;
};

class Telemetry {
 public:
  /// Trace track layout: the fabric owns pid 0 (per rail r: tid 3r circuit
  /// lifetimes, 3r+1 dark intervals, 3r+2 fault instants), fleet lifecycle
  /// instants live on pid 1, and tenant pids start at 2 (pid 2 + job id).
  static constexpr int kFabricPid = 0;
  static constexpr int kFleetPid = 1;
  static constexpr int kTenantPidBase = 2;

  explicit Telemetry(TelemetryConfig config);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryConfig& config() const { return config_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  ChromeTraceWriter& trace() { return trace_; }
  const ChromeTraceWriter& trace() const { return trace_; }
  /// Non-null iff self-profiling is enabled.
  Profiler* profiler() { return profiler_.get(); }
  /// The sampled series; null until start_probe() ran.
  const Series* series() const {
    return probe_ ? &probe_->series() : nullptr;
  }
  /// Metrics snapshot captured by finalize() (safe to read after the
  /// simulation is gone, unlike the live gauges).
  const json::Value& final_metrics() const { return final_metrics_; }
  bool finalized() const { return finalized_; }

  /// Registers the standard fabric gauges (fluid solver, per-rail OCS,
  /// cluster fault tolerance), installs per-rail OCS observers when
  /// tracing, and makes the profiler the simulator's when self-profiling.
  void attach_fabric(sim::Simulator& sim, net::Cluster& cluster);

  /// Starts the periodic sampler at sim.now(). Call after every metric is
  /// registered (the series columns are fixed here). No-op unless
  /// config().sampling().
  void start_probe(sim::Simulator& sim);

  /// Fault/repair instant on the fabric's per-rail fault track.
  void on_fault(const net::NicFault& fault, TimeNs now);

  /// Fleet lifecycle instant (admit/evict/re-place/finish/reject).
  void on_fleet_event(const std::string& kind, int job, TimeNs now);

  /// Captures the final metrics snapshot, closes open circuit spans at
  /// `end`, and emits track metadata. Idempotent; must run before the
  /// simulator/cluster die.
  void finalize(TimeNs end);

 private:
  struct RailObserver;

  TelemetryConfig config_;
  MetricsRegistry metrics_;
  ChromeTraceWriter trace_;
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<Probe> probe_;
  std::vector<std::unique_ptr<RailObserver>> rail_observers_;
  /// Circuit hold times ("ocs.circuit_lifetime_ns"), recorded by the rail
  /// observers on tear-down. Null handle unless metrics are wanted, so
  /// trace-only runs skip the recording for free.
  Histogram circuit_lifetime_;
  json::Value final_metrics_;
  bool fleet_process_named_ = false;
  bool finalized_ = false;
};

}  // namespace opus::obs
