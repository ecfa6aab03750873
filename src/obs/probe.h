// Time-series probes: a periodic sim-time sampler driven off the simulator's
// event queue. Each tick samples the metrics registry's gauges (the fabric
// gauges Telemetry registers and any layer's own) into a columnar
// in-memory series exportable as CSV through common/table.
//
// Determinism: samples are sim-time-stamped and read-only, and the probe
// stops rescheduling itself once it is the only pending event, so enabling
// it never extends the simulation or perturbs workload event order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace opus::obs {

/// Columnar sim-time series: one row per probe tick.
class Series {
 public:
  explicit Series(std::vector<std::string> columns);

  void append(TimeNs t, const std::vector<double>& values);

  std::size_t row_count() const { return times_.size(); }
  const std::vector<std::string>& column_names() const { return columns_; }
  TimeNs time(std::size_t row) const { return times_[row]; }
  double value(std::size_t row, std::size_t col) const {
    return data_[col][row];
  }

  /// "t_ns" + metric columns; numeric cells in shortest-round-trip form so
  /// the rendered bytes are deterministic.
  TextTable to_table() const;
  std::string to_csv() const;

 private:
  std::vector<std::string> columns_;
  std::vector<TimeNs> times_;
  std::vector<std::vector<double>> data_;  // column-major, data_[col][row]
};

/// Periodic sampler. start() takes the first sample at sim.now(),
/// unconditionally schedules one tick (the workload usually schedules after
/// the probe starts), and from then on reschedules every `interval` for as
/// long as other events remain pending.
class Probe {
 public:
  Probe(sim::Simulator& sim, const MetricsRegistry& registry, TimeNs interval);

  void start();
  const Series& series() const { return series_; }

 private:
  void tick();

  sim::Simulator& sim_;
  const MetricsRegistry& registry_;
  TimeNs interval_;
  Series series_;
};

}  // namespace opus::obs
