// Metrics registry: named pull-gauges and power-of-two histograms
// registered once per simulation, sampled by the probe and snapshotted into
// the result document.
//
// A gauge reads a layer's own state (its always-on tallies included) when
// sampled, so the layers keep no telemetry handles. A histogram is recorded
// through a raw pointer to its data resolved at registration — no hashing,
// no lookup, no virtual call. The data lives in a deque owned by the
// registry so handles stay valid for the registry's lifetime. A
// default-constructed (unregistered) handle is null and recording on it is
// a guarded no-op, which is how call sites stay zero-overhead when
// telemetry is disabled.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"

namespace opus::obs {

/// Handle to a registered histogram of non-negative int64 samples. O(1)
/// record: the bucket index is the sample's bit width, so bucket i holds
/// values in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  Histogram() = default;
  void record(std::int64_t v);
  std::int64_t count() const { return data_ == nullptr ? 0 : data_->count; }
  std::int64_t sum() const { return data_ == nullptr ? 0 : data_->sum; }
  std::int64_t min() const { return data_ == nullptr ? 0 : data_->min; }
  std::int64_t max() const { return data_ == nullptr ? 0 : data_->max; }
  bool registered() const { return data_ != nullptr; }

 private:
  friend class MetricsRegistry;
  struct Data {
    std::array<std::int64_t, kBuckets> buckets{};
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
  };
  explicit Histogram(Data* data) : data_(data) {}
  Data* data_ = nullptr;
};

/// Registry of named metrics. Registration (cold path) rejects duplicate
/// names; iteration order everywhere is registration order, so snapshots
/// and series columns are deterministic.
class MetricsRegistry {
 public:
  /// Registers a pull-gauge sampled at snapshot/probe time; throws
  /// common/error on an empty or duplicate name (as add_histogram does).
  void add_gauge(const std::string& name, std::function<double()> sample);
  /// Registers a histogram; reported in the JSON snapshot only (a
  /// histogram is not a single series column).
  Histogram add_histogram(const std::string& name);

  /// Gauge names, registration order: the probe's series columns.
  std::vector<std::string> column_names() const;
  /// Current gauge samples, matching column_names().
  std::vector<double> sample_columns() const;

  /// Full snapshot: gauges as doubles, histograms as {count, sum, min, max,
  /// buckets} objects. Key order = registration.
  json::Value snapshot_json() const;

 private:
  enum class Kind { kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::size_t index;  // into the per-kind storage below
  };

  void check_new_name(const std::string& name) const;

  std::vector<Entry> entries_;  // registration order
  std::vector<std::function<double()>> gauges_;
  std::deque<Histogram::Data> histograms_;
};

}  // namespace opus::obs
