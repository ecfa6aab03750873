#include "obs/probe.h"

#include <charconv>

#include "common/error.h"

namespace opus::obs {
namespace {

// Shortest round-trip formatting (the common/json writer's convention), so
// series CSV bytes depend only on the sampled values.
std::string fmt_value(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

Series::Series(std::vector<std::string> columns)
    : columns_(std::move(columns)), data_(columns_.size()) {}

void Series::append(TimeNs t, const std::vector<double>& values) {
  ensure(values.size() == columns_.size(),
         "series: row arity does not match columns");
  ensure(times_.empty() || t >= times_.back(),
         "series: non-monotone sample time");
  times_.push_back(t);
  for (std::size_t c = 0; c < values.size(); ++c) data_[c].push_back(values[c]);
}

TextTable Series::to_table() const {
  std::vector<std::string> headers;
  headers.reserve(columns_.size() + 1);
  headers.push_back("t_ns");
  for (const std::string& c : columns_) headers.push_back(c);
  TextTable table(std::move(headers));
  for (std::size_t r = 0; r < times_.size(); ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size() + 1);
    cells.push_back(std::to_string(times_[r]));
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      cells.push_back(fmt_value(data_[c][r]));
    }
    table.add_row(std::move(cells));
  }
  return table;
}

std::string Series::to_csv() const { return to_table().to_csv(); }

Probe::Probe(sim::Simulator& sim, const MetricsRegistry& registry,
             TimeNs interval)
    : sim_(sim),
      registry_(registry),
      interval_(interval),
      series_(registry.column_names()) {
  ensure(interval_ > 0, "probe: sample interval must be positive");
}

void Probe::start() {
  series_.append(sim_.now(), registry_.sample_columns());
  // Unconditional first reschedule: start() typically runs before the
  // workload schedules anything (run_experiment starts the probe ahead of
  // the engine), so an empty queue here does not mean the run is over.
  sim_.schedule_after(interval_, [this] { tick(); });
}

void Probe::tick() {
  series_.append(sim_.now(), registry_.sample_columns());
  // The simulator pops an event before firing it, so pending_events() here
  // counts everything except this tick: rescheduling only while other
  // events remain pending guarantees the probe never keeps an otherwise
  // drained simulation alive (at most one trailing sample lands past the
  // final workload event).
  if (sim_.pending_events() > 0) {
    sim_.schedule_after(interval_, [this] { tick(); });
  }
}

}  // namespace opus::obs
