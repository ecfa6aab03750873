#include "obs/selfprof.h"

#include <cstring>

#include "common/error.h"

namespace opus::obs {

int SelfProfiler::phase(const char* name) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].name == name) return static_cast<int>(i);
  }
  phases_.push_back({name, 0, 0});
  return static_cast<int>(phases_.size() - 1);
}

void SelfProfiler::record(int phase_id, std::int64_t wall_ns) {
  ensure(phase_id >= 0 && static_cast<std::size_t>(phase_id) < phases_.size(),
         "selfprof: record on unregistered phase id");
  Phase& p = phases_[static_cast<std::size_t>(phase_id)];
  ++p.calls;
  p.total_ns += wall_ns;
}

std::int64_t SelfProfiler::calls(int phase_id) const {
  ensure(phase_id >= 0 && static_cast<std::size_t>(phase_id) < phases_.size(),
         "selfprof: unknown phase id");
  return phases_[static_cast<std::size_t>(phase_id)].calls;
}

std::int64_t SelfProfiler::total_ns(int phase_id) const {
  ensure(phase_id >= 0 && static_cast<std::size_t>(phase_id) < phases_.size(),
         "selfprof: unknown phase id");
  return phases_[static_cast<std::size_t>(phase_id)].total_ns;
}

TextTable SelfProfiler::report() const {
  TextTable table({"phase", "calls", "total_ms", "mean_us"});
  for (const Phase& p : phases_) {
    const double total_ms = static_cast<double>(p.total_ns) / 1e6;
    const double mean_us =
        p.calls == 0 ? 0.0
                     : static_cast<double>(p.total_ns) /
                           (1e3 * static_cast<double>(p.calls));
    table.add_row({p.name, std::to_string(p.calls), fmt_double(total_ms, 3),
                   fmt_double(mean_us, 3)});
  }
  return table;
}

}  // namespace opus::obs
