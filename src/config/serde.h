// Bidirectional JSON serde for every experiment-facing config struct, plus
// one-way serializers for results — the schema of the declarative
// experiment layer ("configs are data", docs/ARCHITECTURE.md).
//
// Contract:
//  - from_json(j, v, path) applies `j` ONTO `v`: keys present override,
//    keys absent keep v's current value. Callers seed `v` with the defaults
//    they want (a fresh struct, or a preset to refine). Unknown keys,
//    wrong-typed values, and out-of-range values throw SerdeError carrying
//    the exact JSON path ("$.parallelism.dp").
//  - to_json(v, defaults) emits ONLY the fields that differ from
//    `defaults`, so serialized configs are diffs against the struct's
//    natural defaults and parse(serialize(cfg)) == cfg exactly. A default
//    config serializes to {}.
//  - Units ride in the key names: *_ns (integer nanoseconds), *_gbps
//    (double), *_bytes (integer). Enums are strings ("opus", "1f1b",
//    "rail_aware"). ModelConfig/GpuSpec accept a preset string (or a
//    "preset" key inside the object, applied first) in place of fields.
//  - Each config struct's serde is ONE field table in serde.cpp ({JSON key,
//    member, codec} in key order) walked by a generic reader and writer.
//    The table is the pin: a static_assert checks table size plus the
//    deliberately unexposed members against field_count<T>, so adding a
//    struct field without a table entry fails the build and no knob can
//    silently go orphan.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "fleet/fleet.h"

namespace opus::config {

/// Schema violation (unknown key, wrong type, out-of-range value) with the
/// exact JSON path of the offending value.
class SerdeError : public std::runtime_error {
 public:
  SerdeError(std::string path, const std::string& message);
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- compile-time field counting -------------------------------------------
// Counts the direct members of an aggregate by probing the largest braced
// initializer it accepts (the Boost.PFR idiom). serde.cpp static_asserts
// each config field table and each result writer against it; tests pin it
// too.
namespace detail {

struct AnyField {
  template <class T>
  constexpr operator T() const noexcept;
};

template <class T, std::size_t... I>
constexpr bool initializable_with(std::index_sequence<I...>) {
  return requires { T{((void)I, AnyField{})...}; };
}

template <class T, std::size_t N = 0>
constexpr std::size_t field_count_impl() {
  if constexpr (initializable_with<T>(std::make_index_sequence<N + 1>{})) {
    return field_count_impl<T, N + 1>();
  } else {
    return N;
  }
}

}  // namespace detail

/// Number of direct fields of aggregate `T`.
template <class T>
inline constexpr std::size_t field_count = detail::field_count_impl<T>();

// ---- enums -----------------------------------------------------------------
/// "electrical" | "opus" | "ring" | "rotor" (the fleet_quickstart tokens).
const char* to_token(net::FabricKind f);
net::FabricKind fabric_kind_from_token(std::string_view s,
                                       const std::string& path);

/// "1f1b" | "gpipe".
const char* to_token(workload::PipelineSchedule s);
workload::PipelineSchedule pipeline_schedule_from_token(
    std::string_view s, const std::string& path);

/// "first_fit" | "rail_aware".
const char* to_token(fleet::PlacementPolicy p);
fleet::PlacementPolicy placement_policy_from_token(std::string_view s,
                                                   const std::string& path);

// ---- configs (bidirectional) ------------------------------------------------
json::Value to_json(const workload::ModelConfig& v,
                    const workload::ModelConfig& defaults = {});
void from_json(const json::Value& j, workload::ModelConfig& v,
               const std::string& path = "$");

json::Value to_json(const workload::GpuSpec& v,
                    const workload::GpuSpec& defaults = {});
void from_json(const json::Value& j, workload::GpuSpec& v,
               const std::string& path = "$");

json::Value to_json(const workload::ParallelismConfig& v,
                    const workload::ParallelismConfig& defaults = {});
void from_json(const json::Value& j, workload::ParallelismConfig& v,
               const std::string& path = "$");

json::Value to_json(const workload::IterationOptions& v,
                    const workload::IterationOptions& defaults = {});
void from_json(const json::Value& j, workload::IterationOptions& v,
               const std::string& path = "$");

json::Value to_json(const workload::IterationEngine::Options& v,
                    const workload::IterationEngine::Options& defaults = {});
void from_json(const json::Value& j, workload::IterationEngine::Options& v,
               const std::string& path = "$");

json::Value to_json(const core::FaultConfig& v,
                    const core::FaultConfig& defaults = {});
void from_json(const json::Value& j, core::FaultConfig& v,
               const std::string& path = "$");

json::Value to_json(const obs::TelemetryConfig& v,
                    const obs::TelemetryConfig& defaults = {});
void from_json(const json::Value& j, obs::TelemetryConfig& v,
               const std::string& path = "$");

json::Value to_json(const core::SweepOptions& v,
                    const core::SweepOptions& defaults = {});
void from_json(const json::Value& j, core::SweepOptions& v,
               const std::string& path = "$");

json::Value to_json(const core::ExperimentConfig& v,
                    const core::ExperimentConfig& defaults = {});
void from_json(const json::Value& j, core::ExperimentConfig& v,
               const std::string& path = "$");

json::Value to_json(const fleet::JobShape& v,
                    const fleet::JobShape& defaults = {});
void from_json(const json::Value& j, fleet::JobShape& v,
               const std::string& path = "$");

json::Value to_json(const fleet::ArrivalConfig& v,
                    const fleet::ArrivalConfig& defaults = {});
void from_json(const json::Value& j, fleet::ArrivalConfig& v,
               const std::string& path = "$");

json::Value to_json(const fleet::FleetConfig& v,
                    const fleet::FleetConfig& defaults = {});
void from_json(const json::Value& j, fleet::FleetConfig& v,
               const std::string& path = "$");

/// Convenience: a fresh default struct with `j` applied on top.
core::ExperimentConfig experiment_from_json(const json::Value& j,
                                            const std::string& path = "$");
fleet::FleetConfig fleet_from_json(const json::Value& j,
                                   const std::string& path = "$");

// ---- results (one-way, full emission — a stable machine schema) -------------
json::Value to_json(const core::ExperimentResult& r);
json::Value to_json(const fleet::FleetJobResult& r);
json::Value to_json(const fleet::FleetResult& r);

}  // namespace opus::config
