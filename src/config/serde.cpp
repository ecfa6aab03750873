#include "config/serde.h"

#include <algorithm>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "common/error.h"

namespace opus::config {

SerdeError::SerdeError(std::string path, const std::string& message)
    : std::runtime_error("config error at " + path + ": " + message),
      path_(std::move(path)) {}

namespace {

using json::Value;

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw SerdeError(path, message);
}

void expect_kind(const Value& j, bool ok, const char* expected,
                 const std::string& path) {
  if (!ok) {
    fail(path, std::string("expected ") + expected + ", got " +
                   json::kind_name(j.kind()));
  }
}

// ---- object reader with unknown-key rejection ------------------------------

class ObjReader {
 public:
  ObjReader(const Value& j, const std::string& path) : j_(j), path_(path) {
    expect_kind(j, j.is_object(), "object", path);
  }

  /// Registers `name` as a known key and returns its value (or nullptr).
  const Value* key(const char* name) {
    known_.push_back(name);
    return j_.find(name);
  }

  std::string sub(const char* name) const { return path_ + "." + name; }

  /// Throws for any key in the object that was never registered.
  void finish() const {
    for (const auto& [k, v] : j_.entries()) {
      if (std::find(known_.begin(), known_.end(), k) == known_.end()) {
        fail(path_ + "." + k, "unknown key \"" + k + "\"");
      }
    }
  }

 private:
  const Value& j_;
  const std::string& path_;
  std::vector<std::string> known_;
};

// ---- codecs ----------------------------------------------------------------
// A codec converts one member: read() parses a JSON value into it (every
// error carries the JSON path), write() renders it back. write() also gets
// the member's default so a nested struct emits only its own diff.

struct Bool {
  void read(const Value& j, bool& out, const std::string& path) const {
    expect_kind(j, j.is_bool(), "bool", path);
    out = j.as_bool();
  }
  Value write(bool v, bool) const { return Value(v); }
};

struct Str {
  void read(const Value& j, std::string& out, const std::string& path) const {
    expect_kind(j, j.is_string(), "string", path);
    out = j.as_string();
  }
  Value write(const std::string& v, const std::string&) const {
    return Value(v);
  }
};

/// Integers (counts, *_ns times, *_bytes sizes) in [min, the member type's
/// maximum].
struct Int {
  std::int64_t min = std::numeric_limits<std::int64_t>::min();

  template <class M>
  void read(const Value& j, M& out, const std::string& path) const {
    expect_kind(j, j.is_int(), "integer", path);
    const std::int64_t lo =
        std::max<std::int64_t>(min, std::numeric_limits<M>::min());
    const std::int64_t hi = std::numeric_limits<M>::max();
    const std::int64_t v = j.as_int();
    if (v < lo || v > hi) {
      fail(path, "value " + std::to_string(v) + " out of range [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    out = static_cast<M>(v);
  }
  template <class M>
  Value write(M v, M) const {
    return Value(v);
  }
};

/// Seeds are stored uint64 but serialized as JSON integers; the library's
/// own seeds are small, and a config author has no reason to cross 2^63.
struct Seed {
  void read(const Value& j, std::uint64_t& out, const std::string& path) const {
    std::int64_t v = 0;
    Int{0}.read(j, v, path);
    out = static_cast<std::uint64_t>(v);
  }
  Value write(std::uint64_t v, std::uint64_t) const {
    ensure(v <= static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max()),
           "config: seed exceeds the JSON integer range");
    return Value(static_cast<std::int64_t>(v));
  }
};

/// Doubles bounded below: `min` itself is allowed unless `exclusive`.
struct Double {
  double min = 0.0;
  bool exclusive = false;

  void read(const Value& j, double& out, const std::string& path) const {
    expect_kind(j, j.is_number(), "number", path);
    const double v = j.as_double();
    if (exclusive ? !(v > min) : !(v >= min)) {
      fail(path, "value must be " + std::string(exclusive ? "> " : ">= ") +
                     std::to_string(min));
    }
    out = v;
  }
  Value write(double v, double) const { return Value(v); }
};

/// Model FLOPs utilization: a fraction in (0, 1].
struct Mfu {
  void read(const Value& j, double& out, const std::string& path) const {
    expect_kind(j, j.is_number(), "number", path);
    out = j.as_double();
    if (out <= 0.0 || out > 1.0) fail(path, "MFU must be in (0, 1]");
  }
  Value write(double v, double) const { return Value(v); }
};

/// Bandwidths, in *_gbps keys.
struct Gbps {
  void read(const Value& j, Bandwidth& out, const std::string& path) const {
    double gbps = 0.0;
    Double{0.0}.read(j, gbps, path);
    out = Bandwidth::gbps(gbps);
  }
  Value write(Bandwidth v, Bandwidth) const { return Value(v.gbps_value()); }
};

template <class E>
struct Token {
  E value;
  const char* token;
};

/// Enums as string tokens; one {value, token} table drives both directions
/// and the "(expected a|b|c)" error text.
template <class E>
struct Enum {
  std::span<const Token<E>> tokens;
  const char* what;

  const char* token(E v) const {
    for (const Token<E>& t : tokens) {
      if (t.value == v) return t.token;
    }
    return "?";
  }
  E parse(std::string_view s, const std::string& path) const {
    for (const Token<E>& t : tokens) {
      if (s == t.token) return t.value;
    }
    std::string expected;
    for (const Token<E>& t : tokens) {
      if (!expected.empty()) expected += "|";
      expected += t.token;
    }
    fail(path, "unknown " + std::string(what) + " \"" + std::string(s) +
                   "\" (expected " + expected + ")");
  }
  void read(const Value& j, E& out, const std::string& path) const {
    std::string s;
    Str{}.read(j, s, path);
    out = parse(s, path);
  }
  Value write(E v, E) const { return Value(token(v)); }
};

constexpr Token<net::FabricKind> kFabricTokens[] = {
    {net::FabricKind::kElectrical, "electrical"},
    {net::FabricKind::kOpusPhotonic, "opus"},
    {net::FabricKind::kStaticRing, "ring"},
    {net::FabricKind::kRotor, "rotor"},
};
constexpr Enum<net::FabricKind> kFabric{kFabricTokens, "fabric"};

constexpr Token<workload::PipelineSchedule> kScheduleTokens[] = {
    {workload::PipelineSchedule::k1F1B, "1f1b"},
    {workload::PipelineSchedule::kGpipe, "gpipe"},
};
constexpr Enum<workload::PipelineSchedule> kSchedule{kScheduleTokens,
                                                     "pipeline schedule"};

constexpr Token<fleet::PlacementPolicy> kPolicyTokens[] = {
    {fleet::PlacementPolicy::kFirstFit, "first_fit"},
    {fleet::PlacementPolicy::kRailAware, "rail_aware"},
};
constexpr Enum<fleet::PlacementPolicy> kPolicy{kPolicyTokens,
                                               "placement policy"};

/// A nested config struct, through its own field table.
struct Nested {
  template <class M>
  void read(const Value& j, M& out, const std::string& path) const {
    from_json(j, out, path);
  }
  template <class M>
  Value write(const M& v, const M& defaults) const {
    return to_json(v, defaults);
  }
};

/// An array of config structs; each element is a diff against a fresh one.
struct Array {
  template <class M>
  void read(const Value& j, M& out, const std::string& path) const {
    expect_kind(j, j.is_array(), "array", path);
    out.clear();
    for (std::size_t i = 0; i < j.size(); ++i) {
      typename M::value_type element;
      from_json(j[i], element, path + "[" + std::to_string(i) + "]");
      out.push_back(std::move(element));
    }
  }
  template <class M>
  Value write(const M& v, const M&) const {
    Value a = Value::array();
    for (const auto& element : v) {
      a.push_back(to_json(element, typename M::value_type{}));
    }
    return a;
  }
};

// ---- field tables ----------------------------------------------------------
// One table per config struct: {JSON key, member, codec} in key order. The
// generic reader and writer below walk it, so the table is the whole schema.

template <class T, class M, class C>
struct Field {
  const char* key;
  M T::*member;
  C codec;
};

template <class T>
struct Schema;

template <class T>
using Presets = std::vector<std::pair<const char*, T>>;

template <>
struct Schema<workload::ModelConfig> {
  using T = workload::ModelConfig;
  static constexpr auto fields = std::tuple{
      Field{"name", &T::name, Str{}},
      Field{"n_layers", &T::n_layers, Int{0}},
      Field{"hidden", &T::hidden, Int{0}},
      Field{"n_heads", &T::n_heads, Int{0}},
      Field{"n_kv_heads", &T::n_kv_heads, Int{0}},
      Field{"ffn_hidden", &T::ffn_hidden, Int{0}},
      Field{"vocab", &T::vocab, Int{0}},
      Field{"seq_len", &T::seq_len, Int{0}},
      Field{"swiglu", &T::swiglu, Bool{}},
      Field{"dtype_bytes", &T::dtype_bytes, Int{1}},
      Field{"grad_dtype_bytes", &T::grad_dtype_bytes, Int{1}},
      Field{"n_experts", &T::n_experts, Int{0}},
      Field{"experts_per_token", &T::experts_per_token, Int{0}},
  };
  static constexpr const char* kPresetKind = "model";
  static const Presets<T>& presets() {
    static const Presets<T> presets = {
        {"llama3_8b", T::llama3_8b()},
        {"llama31_405b", T::llama31_405b()},
        {"gpt3_175b", T::gpt3_175b()},
        {"mixtral_8x7b", T::mixtral_8x7b()},
        {"test_tiny", T::test_tiny()},
    };
    return presets;
  }
};

template <>
struct Schema<workload::GpuSpec> {
  using T = workload::GpuSpec;
  static constexpr auto fields = std::tuple{
      Field{"name", &T::name, Str{}},
      Field{"peak_flops", &T::peak_flops, Double{0.0, true}},
      Field{"hbm_bytes_per_sec", &T::hbm_bytes_per_sec, Double{0.0, true}},
  };
  static constexpr const char* kPresetKind = "GPU";
  static const Presets<T>& presets() {
    static const Presets<T> presets = {
        {"a100", T::a100()},
        {"h100", T::h100()},
        {"h200", T::h200()},
    };
    return presets;
  }
};

template <>
struct Schema<workload::ParallelismConfig> {
  using T = workload::ParallelismConfig;
  static constexpr auto fields = std::tuple{
      Field{"tp", &T::tp, Int{1}},
      Field{"cp", &T::cp, Int{1}},
      Field{"dp", &T::dp, Int{1}},
      Field{"pp", &T::pp, Int{1}},
      Field{"ep", &T::ep, Int{1}},
      Field{"fsdp", &T::fsdp, Bool{}},
      Field{"n_microbatches", &T::n_microbatches, Int{1}},
      Field{"microbatch_size", &T::microbatch_size, Int{1}},
  };
};

template <>
struct Schema<workload::IterationOptions> {
  using T = workload::IterationOptions;
  static constexpr auto fields = std::tuple{
      Field{"pipeline_schedule", &T::pipeline_schedule, kSchedule},
      Field{"simulate_tp_comm", &T::simulate_tp_comm, Bool{}},
      Field{"bwd_regather", &T::bwd_regather, Bool{}},
      Field{"simulate_ep_comm", &T::simulate_ep_comm, Bool{}},
  };
};

template <>
struct Schema<workload::IterationEngine::Options> {
  using T = workload::IterationEngine::Options;
  static constexpr auto fields = std::tuple{
      Field{"dispatch_min_ns", &T::dispatch_min, Int{0}},
      Field{"dispatch_max_ns", &T::dispatch_max, Int{0}},
      Field{"seed", &T::seed, Seed{}},
  };
};

template <>
struct Schema<core::FaultConfig> {
  using T = core::FaultConfig;
  static constexpr auto fields = std::tuple{
      Field{"enabled", &T::enabled, Bool{}},
      Field{"mtbf_per_port_ns", &T::mtbf_per_port, Int{1}},
      Field{"mttr_ns", &T::mttr, Int{0}},
      Field{"seed", &T::seed, Seed{}},
      Field{"horizon_ns", &T::horizon, Int{0}},
      Field{"max_failures", &T::max_failures, Int{0}},
  };
};

template <>
struct Schema<obs::TelemetryConfig> {
  using T = obs::TelemetryConfig;
  static constexpr auto fields = std::tuple{
      Field{"metrics", &T::metrics, Bool{}},
      Field{"series_path", &T::series_path, Str{}},
      Field{"chrome_trace_path", &T::chrome_trace_path, Str{}},
      Field{"sample_interval_ns", &T::sample_interval, Int{1}},
      Field{"self_profile", &T::self_profile, Bool{}},
  };
};

template <>
struct Schema<core::SweepOptions> {
  using T = core::SweepOptions;
  static constexpr auto fields = std::tuple{
      Field{"threads", &T::threads, Int{}},
      Field{"use_shard", &T::use_shard, Bool{}},
  };
};

template <>
struct Schema<core::ExperimentConfig> {
  using T = core::ExperimentConfig;
  static constexpr auto fields = std::tuple{
      Field{"model", &T::model, Nested{}},
      Field{"parallelism", &T::parallelism, Nested{}},
      Field{"gpus_per_node", &T::gpus_per_node, Int{1}},
      Field{"fabric", &T::fabric, kFabric},
      Field{"rotor_slot_time_ns", &T::rotor_slot_time, Int{1}},
      Field{"rotor_port_spread", &T::rotor_port_spread, Int{1}},
      Field{"nic_ports", &T::nic_ports, Int{1}},
      Field{"nic_total_bw_gbps", &T::nic_total_bw, Gbps{}},
      Field{"nvlink_bw_gbps", &T::nvlink_bw, Gbps{}},
      Field{"ocs_reconfig_delay_ns", &T::ocs_reconfig_delay, Int{0}},
      Field{"mgmt_bw_gbps", &T::mgmt_bw, Gbps{}},
      Field{"gpu", &T::gpu, Nested{}},
      Field{"mfu", &T::mfu, Mfu{}},
      Field{"activation_recompute", &T::activation_recompute, Bool{}},
      Field{"iteration", &T::iteration, Nested{}},
      Field{"engine", &T::engine, Nested{}},
      Field{"provisioning", &T::provisioning, Bool{}},
      Field{"mgmt_offload_threshold_bytes", &T::mgmt_offload_threshold,
            Int{0}},
      Field{"iterations", &T::iterations, Int{1}},
      Field{"record_compute_trace", &T::record_compute_trace, Bool{}},
      Field{"faults", &T::faults, Nested{}},
      Field{"telemetry", &T::telemetry, Nested{}},
  };
};

template <>
struct Schema<fleet::JobShape> {
  using T = fleet::JobShape;
  static constexpr auto fields = std::tuple{
      Field{"name", &T::name, Str{}},
      Field{"model", &T::model, Nested{}},
      Field{"parallelism", &T::parallelism, Nested{}},
      Field{"weight", &T::weight, Double{0.0, true}},
  };
};

template <>
struct Schema<fleet::ArrivalConfig> {
  using T = fleet::ArrivalConfig;
  static constexpr auto fields = std::tuple{
      Field{"seed", &T::seed, Seed{}},
      Field{"n_jobs", &T::n_jobs, Int{0}},
      Field{"mean_interarrival_ns", &T::mean_interarrival, Int{1}},
      Field{"iterations", &T::iterations, Int{1}},
      Field{"shapes", &T::shapes, Array{}},
  };
};

template <>
struct Schema<fleet::FleetConfig> {
  using T = fleet::FleetConfig;
  static constexpr auto fields = std::tuple{
      Field{"n_nodes", &T::n_nodes, Int{1}},
      Field{"base", &T::base, Nested{}},
      Field{"arrivals", &T::arrivals, Nested{}},
      Field{"policy", &T::policy, kPolicy},
      Field{"isolated_baselines", &T::isolated_baselines, Bool{}},
      Field{"baseline_sweep", &T::baseline_sweep, Nested{}},
      Field{"use_shard", &T::use_shard, Bool{}},
  };
};

// ---- the generic reader and writer -----------------------------------------

/// Calls `fn` on every field of T's table, in table order. The pin: adding
/// a struct member without a table entry fails the build, so no knob can
/// silently go orphan.
template <class T, class Fn>
void for_each_field(Fn&& fn) {
  constexpr std::size_t entries =
      std::tuple_size_v<decltype(Schema<T>::fields)>;
  static_assert(entries == field_count<T>,
                "config struct changed: add the new member to its field "
                "table (or remove the entry of a deleted one)");
  std::apply([&](const auto&... f) { (fn(f), ...); }, Schema<T>::fields);
}

template <class T>
constexpr bool kHasPresets = requires { Schema<T>::presets(); };

template <class T>
T resolve_preset(const std::string& name, const std::string& path) {
  for (const auto& [n, v] : Schema<T>::presets()) {
    if (name == n) return v;
  }
  std::string known;
  for (const auto& [n, v] : Schema<T>::presets()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  fail(path, std::string("unknown ") + Schema<T>::kPresetKind + " preset \"" +
                 name + "\" (known: " + known + ")");
}

/// Applies `j` onto `v`. Preset structs accept a bare preset name, or a
/// "preset" key applied before the other keys wherever it sits.
template <class T>
void read_struct(const Value& j, T& v, const std::string& path) {
  if constexpr (kHasPresets<T>) {
    if (j.is_string()) {
      v = resolve_preset<T>(j.as_string(), path);
      return;
    }
  }
  ObjReader r(j, path);
  if constexpr (kHasPresets<T>) {
    if (const Value* p = r.key("preset")) {
      std::string name;
      Str{}.read(*p, name, r.sub("preset"));
      v = resolve_preset<T>(name, r.sub("preset"));
    }
  }
  for_each_field<T>([&](const auto& f) {
    if (const Value* p = r.key(f.key)) {
      f.codec.read(*p, v.*f.member, r.sub(f.key));
    }
  });
  r.finish();
}

/// The fields of `v` that differ from `defaults`, in table order; an exact
/// preset match collapses to the preset's name.
template <class T>
Value write_struct(const T& v, const T& defaults) {
  if constexpr (kHasPresets<T>) {
    for (const auto& [name, preset] : Schema<T>::presets()) {
      if (v == preset) return Value(name);
    }
  }
  Value o = Value::object();
  for_each_field<T>([&](const auto& f) {
    if (!(v.*f.member == defaults.*f.member)) {
      o.set(f.key, f.codec.write(v.*f.member, defaults.*f.member));
    }
  });
  return o;
}

}  // namespace

// ---- enums -----------------------------------------------------------------

const char* to_token(net::FabricKind f) { return kFabric.token(f); }
net::FabricKind fabric_kind_from_token(std::string_view s,
                                       const std::string& path) {
  return kFabric.parse(s, path);
}

const char* to_token(workload::PipelineSchedule s) {
  return kSchedule.token(s);
}
workload::PipelineSchedule pipeline_schedule_from_token(
    std::string_view s, const std::string& path) {
  return kSchedule.parse(s, path);
}

const char* to_token(fleet::PlacementPolicy p) { return kPolicy.token(p); }
fleet::PlacementPolicy placement_policy_from_token(std::string_view s,
                                                   const std::string& path) {
  return kPolicy.parse(s, path);
}

// ---- configs ---------------------------------------------------------------

#define OPUS_SERDE_FROM_TABLE(T)                                         \
  json::Value to_json(const T& v, const T& defaults) {                   \
    return write_struct(v, defaults);                                    \
  }                                                                      \
  void from_json(const json::Value& j, T& v, const std::string& path) {  \
    read_struct(j, v, path);                                             \
  }

OPUS_SERDE_FROM_TABLE(workload::ModelConfig)
OPUS_SERDE_FROM_TABLE(workload::GpuSpec)
OPUS_SERDE_FROM_TABLE(workload::ParallelismConfig)
OPUS_SERDE_FROM_TABLE(workload::IterationOptions)
OPUS_SERDE_FROM_TABLE(workload::IterationEngine::Options)
OPUS_SERDE_FROM_TABLE(core::FaultConfig)
OPUS_SERDE_FROM_TABLE(obs::TelemetryConfig)
OPUS_SERDE_FROM_TABLE(core::SweepOptions)
OPUS_SERDE_FROM_TABLE(core::ExperimentConfig)
OPUS_SERDE_FROM_TABLE(fleet::JobShape)
OPUS_SERDE_FROM_TABLE(fleet::ArrivalConfig)
OPUS_SERDE_FROM_TABLE(fleet::FleetConfig)

#undef OPUS_SERDE_FROM_TABLE

core::ExperimentConfig experiment_from_json(const json::Value& j,
                                            const std::string& path) {
  core::ExperimentConfig cfg;
  from_json(j, cfg, path);
  return cfg;
}

fleet::FleetConfig fleet_from_json(const json::Value& j,
                                   const std::string& path) {
  fleet::FleetConfig cfg;
  from_json(j, cfg, path);
  return cfg;
}

// ---- results ---------------------------------------------------------------

// requests, satisfied_immediately, reconfigurations, queued, total_wait,
// max_wait.
static_assert(field_count<core::OpusController::Stats> == 6,
              "OpusController::Stats changed: wire the new/removed field "
              "into to_json below, then update this count");

namespace {

Value controller_stats_to_json(const core::OpusController::Stats& s) {
  Value o = Value::object();
  o.set("requests", Value(s.requests));
  o.set("satisfied_immediately", Value(s.satisfied_immediately));
  o.set("reconfigurations", Value(s.reconfigurations));
  o.set("queued", Value(s.queued));
  o.set("total_wait_ns", Value(s.total_wait));
  o.set("max_wait_ns", Value(s.max_wait));
  return o;
}

// failures_injected, failures_skipped, repairs_completed.
static_assert(field_count<core::FaultProcess::Stats> == 3,
              "FaultProcess::Stats changed: wire the new/removed field into "
              "to_json below, then update this count");

Value fault_stats_to_json(const core::FaultProcess::Stats& s) {
  Value o = Value::object();
  o.set("failures_injected", Value(s.failures_injected));
  o.set("failures_skipped", Value(s.failures_skipped));
  o.set("repairs_completed", Value(s.repairs_completed));
  return o;
}

Value times_to_json(const std::vector<TimeNs>& times) {
  Value a = Value::array();
  for (TimeNs t : times) a.push_back(Value(t));
  return a;
}

}  // namespace

// iteration_times, steady_iteration_time, ocs_reconfigurations,
// ocs_dark_time, rotor_rotations, rotor_deferred_sends, controller,
// shim_speculative_requests, shim_mispredictions, recorder (not serialized:
// telemetry mirrors it into the chrome trace, obs/chrome_trace), rail_bytes,
// scale_up_bytes, pxn_bytes, mgmt_bytes, multihop_bytes, fault_stats,
// fault_trace_size, telemetry (serialized as the finalized metrics snapshot
// only when the hub exists AND asked for metrics — series/trace are file
// exports, and a metrics-less hub must not perturb the result document).
static_assert(field_count<core::ExperimentResult> == 18,
              "ExperimentResult changed: wire the new/removed field into "
              "to_json below, then update this count");

json::Value to_json(const core::ExperimentResult& r) {
  Value o = Value::object();
  o.set("iteration_times_ns", times_to_json(r.iteration_times));
  o.set("steady_iteration_time_ns", Value(r.steady_iteration_time));
  o.set("ocs_reconfigurations", Value(r.ocs_reconfigurations));
  o.set("ocs_dark_time_ns", Value(r.ocs_dark_time));
  o.set("rotor_rotations", Value(r.rotor_rotations));
  o.set("rotor_deferred_sends", Value(r.rotor_deferred_sends));
  o.set("controller", controller_stats_to_json(r.controller));
  o.set("shim_speculative_requests", Value(r.shim_speculative_requests));
  o.set("shim_mispredictions", Value(r.shim_mispredictions));
  o.set("rail_bytes", Value(r.rail_bytes));
  o.set("scale_up_bytes", Value(r.scale_up_bytes));
  o.set("pxn_bytes", Value(r.pxn_bytes));
  o.set("mgmt_bytes", Value(r.mgmt_bytes));
  o.set("multihop_bytes", Value(r.multihop_bytes));
  o.set("fault_stats", fault_stats_to_json(r.fault_stats));
  o.set("fault_trace_size", Value(r.fault_trace_size));
  if (r.telemetry != nullptr && r.telemetry->config().metrics) {
    Value t = Value::object();
    t.set("metrics", json::Value(r.telemetry->final_metrics()));
    o.set("telemetry", std::move(t));
  }
  return o;
}

// id, arrival, shape_index, shape, iterations, engine_seed.
static_assert(field_count<fleet::JobSpec> == 6,
              "JobSpec changed: wire the new/removed field into to_json "
              "below, then update this count");

// first, count.
static_assert(field_count<net::NodeSpan> == 2,
              "NodeSpan changed: wire the new/removed field into to_json "
              "below, then update this count");

// spec, rejected, placement, start, finish, iteration_times, isolated_time,
// slowdown, rail_bytes, scale_up_bytes, pxn_bytes, mgmt_bytes,
// multihop_bytes, isolated_rail_bytes, isolated_multihop_bytes,
// rotor_rotations, rotor_deferred_sends, dark_time, dark_share, ports_lost,
// replacements, availability.
static_assert(field_count<fleet::FleetJobResult> == 22,
              "FleetJobResult changed: wire the new/removed field into "
              "to_json below, then update this count");

json::Value to_json(const fleet::FleetJobResult& r) {
  Value spec = Value::object();
  spec.set("id", Value(r.spec.id));
  spec.set("arrival_ns", Value(r.spec.arrival));
  spec.set("shape_index", Value(r.spec.shape_index));
  spec.set("shape_name", Value(r.spec.shape.name));
  spec.set("iterations", Value(r.spec.iterations));
  // Full 64-bit derived seed: as a decimal string, because JSON integers
  // stop at 2^63 and the SplitMix-derived per-job seeds use all 64 bits.
  spec.set("engine_seed", Value(std::to_string(r.spec.engine_seed)));

  Value placement = Value::object();
  placement.set("first", Value(r.placement.first));
  placement.set("count", Value(r.placement.count));

  Value o = Value::object();
  o.set("spec", std::move(spec));
  o.set("rejected", Value(r.rejected));
  o.set("placement", std::move(placement));
  o.set("start_ns", Value(r.start));
  o.set("finish_ns", Value(r.finish));
  o.set("queueing_delay_ns", Value(r.queueing_delay()));
  o.set("jct_ns", Value(r.jct()));
  o.set("iteration_times_ns", times_to_json(r.iteration_times));
  o.set("isolated_time_ns", Value(r.isolated_time));
  o.set("slowdown", Value(r.slowdown));
  o.set("rail_bytes", Value(r.rail_bytes));
  o.set("scale_up_bytes", Value(r.scale_up_bytes));
  o.set("pxn_bytes", Value(r.pxn_bytes));
  o.set("mgmt_bytes", Value(r.mgmt_bytes));
  o.set("multihop_bytes", Value(r.multihop_bytes));
  o.set("isolated_rail_bytes", Value(r.isolated_rail_bytes));
  o.set("isolated_multihop_bytes", Value(r.isolated_multihop_bytes));
  o.set("rotor_rotations", Value(r.rotor_rotations));
  o.set("rotor_deferred_sends", Value(r.rotor_deferred_sends));
  o.set("dark_time_ns", Value(r.dark_time));
  o.set("dark_share", Value(r.dark_share));
  o.set("ports_lost", Value(r.ports_lost));
  o.set("replacements", Value(r.replacements));
  o.set("availability", Value(r.availability));
  return o;
}

// index, count.
static_assert(field_count<core::SweepShard> == 2,
              "SweepShard changed: wire the new/removed field into to_json "
              "below, then update this count");

// config (not serialized here — the caller echoes the config it ran),
// shard, jobs, makespan, utilization, peak_fragmentation,
// peak_free_extents, rejected_jobs, telemetry (finalized metrics snapshot,
// present only when the hub exists and asked for metrics).
static_assert(field_count<fleet::FleetResult> == 9,
              "FleetResult changed: wire the new/removed field into to_json "
              "below, then update this count");

json::Value to_json(const fleet::FleetResult& r) {
  Value shard = Value::object();
  shard.set("index", Value(r.shard.index));
  shard.set("count", Value(r.shard.count));

  Value jobs = Value::array();
  for (const fleet::FleetJobResult& jr : r.jobs) jobs.push_back(to_json(jr));

  Value o = Value::object();
  o.set("shard", std::move(shard));
  o.set("jobs", std::move(jobs));
  o.set("makespan_ns", Value(r.makespan));
  o.set("utilization", Value(r.utilization));
  o.set("peak_fragmentation", Value(r.peak_fragmentation));
  o.set("peak_free_extents", Value(r.peak_free_extents));
  o.set("rejected_jobs", Value(r.rejected_jobs));
  if (r.telemetry != nullptr && r.telemetry->config().metrics) {
    Value t = Value::object();
    t.set("metrics", json::Value(r.telemetry->final_metrics()));
    o.set("telemetry", std::move(t));
  }
  return o;
}

}  // namespace opus::config
