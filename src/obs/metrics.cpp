#include "obs/metrics.h"

#include <bit>
#include <limits>

#include "common/error.h"

namespace opus::obs {

void Histogram::record(std::int64_t v) {
  if (data_ == nullptr) return;
  if (v < 0) v = 0;
  const int bucket = std::bit_width(static_cast<std::uint64_t>(v));
  ++data_->buckets[static_cast<std::size_t>(bucket)];
  if (data_->count == 0) {
    data_->min = v;
    data_->max = v;
  } else {
    if (v < data_->min) data_->min = v;
    if (v > data_->max) data_->max = v;
  }
  ++data_->count;
  data_->sum += v;
}

void MetricsRegistry::check_new_name(const std::string& name) const {
  ensure(!name.empty(), "metrics: empty metric name");
  for (const Entry& e : entries_) {
    ensure(e.name != name, "metrics: duplicate registration of '" + name + "'");
  }
}

void MetricsRegistry::add_gauge(const std::string& name,
                                std::function<double()> sample) {
  check_new_name(name);
  ensure(static_cast<bool>(sample), "metrics: null gauge sampler");
  gauges_.push_back(std::move(sample));
  entries_.push_back({Kind::kGauge, name, gauges_.size() - 1});
}

Histogram MetricsRegistry::add_histogram(const std::string& name) {
  check_new_name(name);
  histograms_.emplace_back();
  entries_.push_back({Kind::kHistogram, name, histograms_.size() - 1});
  return Histogram{&histograms_.back()};
}

std::vector<std::string> MetricsRegistry::column_names() const {
  std::vector<std::string> names;
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kGauge) names.push_back(e.name);
  }
  return names;
}

std::vector<double> MetricsRegistry::sample_columns() const {
  std::vector<double> values;
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kGauge) values.push_back(gauges_[e.index]());
  }
  return values;
}

json::Value MetricsRegistry::snapshot_json() const {
  json::Value out = json::Value::object();
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kGauge:
        out.set(e.name, json::Value(gauges_[e.index]()));
        break;
      case Kind::kHistogram: {
        const Histogram::Data& h = histograms_[e.index];
        json::Value obj = json::Value::object();
        obj.set("count", json::Value(h.count));
        obj.set("sum", json::Value(h.sum));
        obj.set("min", json::Value(h.min));
        obj.set("max", json::Value(h.max));
        // Trailing all-zero buckets carry no information; trimming them
        // keeps result documents proportional to the observed range.
        std::size_t last = 0;
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          if (h.buckets[i] != 0) last = i + 1;
        }
        json::Value buckets = json::Value::array();
        for (std::size_t i = 0; i < last; ++i) {
          buckets.push_back(json::Value(h.buckets[i]));
        }
        obj.set("buckets", std::move(buckets));
        out.set(e.name, std::move(obj));
        break;
      }
    }
  }
  return out;
}

}  // namespace opus::obs
