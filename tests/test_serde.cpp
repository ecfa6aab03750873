// config/serde: bidirectional JSON serde for every config struct.
// Pins: exact-value round trips (fixed and randomized), unknown-key /
// wrong-type / out-of-range errors carrying the exact JSON path, the
// compile-time field counts behind the orphan-knob guard, and — the core
// contract of the declarative layer — run_experiment(parse(serialize(cfg)))
// bit-identical to run_experiment(cfg) on all four fabrics.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "config/presets.h"
#include "config/serde.h"
#include "core/experiment.h"

namespace {

using namespace opus;
using config::field_count;
using config::SerdeError;
using json::Value;

// ---- field-count pins (the compile-time orphan-knob audit) -----------------
// These mirror serde.cpp's static_asserts; a failure here means a struct
// gained/lost a field and BOTH the serializer and these pins must move.
static_assert(field_count<workload::ModelConfig> == 13);
static_assert(field_count<workload::ParallelismConfig> == 8);
static_assert(field_count<workload::GpuSpec> == 3);
static_assert(field_count<workload::IterationOptions> == 4);
static_assert(field_count<workload::IterationEngine::Options> == 3);
static_assert(field_count<core::FaultConfig> == 6);
static_assert(field_count<obs::TelemetryConfig> == 5);
static_assert(field_count<core::SweepOptions> == 2);
static_assert(field_count<core::ExperimentConfig> == 22);
static_assert(field_count<fleet::JobShape> == 4);
static_assert(field_count<fleet::ArrivalConfig> == 5);
static_assert(field_count<fleet::FleetConfig> == 7);
static_assert(field_count<core::ExperimentResult> == 18);
static_assert(field_count<fleet::FleetJobResult> == 22);
static_assert(field_count<fleet::FleetResult> == 9);

template <class T>
T round_trip(const T& v) {
  T out;
  config::from_json(json::parse(json::dump(config::to_json(v))), out);
  return out;
}

// ---- round trips -----------------------------------------------------------

TEST(Serde, DefaultConfigsSerializeEmptyAndRoundTrip) {
  EXPECT_EQ(json::dump(config::to_json(core::ExperimentConfig{}), 0), "{}");
  EXPECT_EQ(json::dump(config::to_json(fleet::FleetConfig{}), 0), "{}");
  EXPECT_EQ(round_trip(core::ExperimentConfig{}), core::ExperimentConfig{});
  EXPECT_EQ(round_trip(fleet::FleetConfig{}), fleet::FleetConfig{});
}

TEST(Serde, PresetConfigsRoundTripExactly) {
  for (const config::ExperimentPreset& p : config::experiment_presets()) {
    EXPECT_EQ(round_trip(p.config), p.config) << p.name;
  }
  for (const config::FleetPreset& p : config::fleet_presets()) {
    EXPECT_EQ(round_trip(p.config), p.config) << p.name;
  }
}

TEST(Serde, ModelPresetStringsResolve) {
  workload::ModelConfig m;
  config::from_json(json::parse("\"llama3_8b\""), m);
  EXPECT_EQ(m, workload::ModelConfig::llama3_8b());
  // An exact preset match serializes back to the bare name.
  EXPECT_EQ(json::dump(config::to_json(m), 0), "\"llama3_8b\"");
}

TEST(Serde, ModelPresetKeyAppliesFirstRegardlessOfPosition) {
  // "preset" listed AFTER the override still applies first.
  workload::ModelConfig m;
  config::from_json(json::parse(R"({"n_layers": 99, "preset": "test_tiny"})"),
                    m);
  workload::ModelConfig expect = workload::ModelConfig::test_tiny();
  expect.n_layers = 99;
  EXPECT_EQ(m, expect);
}

TEST(Serde, GpuPresetStringsResolve) {
  workload::GpuSpec g;
  config::from_json(json::parse("\"h100\""), g);
  EXPECT_EQ(g, workload::GpuSpec::h100());
  EXPECT_EQ(json::dump(config::to_json(g), 0), "\"h100\"");
}

TEST(Serde, OverrideSemanticsKeepUnmentionedFields) {
  core::ExperimentConfig cfg = config::table3_cell(64);
  const core::ExperimentConfig before = cfg;
  config::from_json(json::parse(R"({"iterations": 9})"), cfg);
  EXPECT_EQ(cfg.iterations, 9);
  cfg.iterations = before.iterations;
  EXPECT_EQ(cfg, before);  // nothing else moved
}

TEST(Serde, EnumTokensCoverAllFabrics) {
  for (net::FabricKind f :
       {net::FabricKind::kElectrical, net::FabricKind::kOpusPhotonic,
        net::FabricKind::kStaticRing, net::FabricKind::kRotor}) {
    EXPECT_EQ(config::fabric_kind_from_token(config::to_token(f), "$"), f);
  }
}

// Every key path a serialized config emits ("model.n_layers",
// "arrivals.shapes[].weight"), without descending into `opaque` keys.
void collect_keys(const Value& v, const std::string& prefix,
                  const std::set<std::string>& opaque,
                  std::set<std::string>& out) {
  if (v.is_array()) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      collect_keys(v[i], prefix + "[]", opaque, out);
    }
    return;
  }
  if (!v.is_object()) return;
  for (const auto& [k, child] : v.entries()) {
    const std::string path = prefix.empty() ? k : prefix + "." + k;
    out.insert(path);
    if (!opaque.contains(k)) collect_keys(child, path, opaque, out);
  }
}

// Randomized property test: draw configs from serde-exact value pools and
// require parse(serialize(cfg)) == cfg for every one of them. Every exposed
// field must take a non-default value in some draw (pinned by the key
// count): a table entry bound to the wrong member passes the field-count
// pin, and only a round trip through a non-default value catches it.
TEST(Serde, RandomizedExperimentConfigsRoundTrip) {
  Xoshiro256 rng(424242);
  const auto pick_int = [&](int lo, int hi) {
    return lo + static_cast<int>(rng.next() % (hi - lo + 1));
  };
  const auto coin = [&] { return (rng.next() & 1) != 0; };
  std::set<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    core::ExperimentConfig cfg;
    if (i % 4 == 0) {
      cfg.model = workload::ModelConfig::test_tiny();  // a preset name
    } else {
      cfg.model.name = "model_" + std::to_string(i);
      cfg.model.n_layers = pick_int(1, 12);
      cfg.model.hidden = 64 * pick_int(1, 8);
      cfg.model.n_heads = pick_int(1, 16);
      cfg.model.n_kv_heads = pick_int(1, 16);
      cfg.model.ffn_hidden = 64 * pick_int(1, 32);
      cfg.model.vocab = pick_int(1, 1 << 17);
      cfg.model.seq_len = pick_int(1, 1 << 14);
      cfg.model.swiglu = coin();
      cfg.model.dtype_bytes = pick_int(1, 4);
      cfg.model.grad_dtype_bytes = pick_int(1, 8);
      cfg.model.n_experts = pick_int(0, 8);
      cfg.model.experts_per_token = pick_int(0, 2);
    }
    cfg.parallelism.tp = 1 << (rng.next() % 3);
    cfg.parallelism.cp = pick_int(1, 4);
    cfg.parallelism.dp = pick_int(1, 16);
    cfg.parallelism.pp = pick_int(1, 4);
    cfg.parallelism.ep = pick_int(1, 4);
    cfg.parallelism.fsdp = coin();
    cfg.parallelism.n_microbatches = pick_int(1, 8);
    cfg.parallelism.microbatch_size = pick_int(1, 8);
    cfg.gpus_per_node = pick_int(1, 8);
    cfg.fabric = static_cast<net::FabricKind>(rng.next() % 4);
    cfg.rotor_slot_time = msecs(pick_int(1, 20));
    cfg.rotor_port_spread = pick_int(1, 4);
    cfg.nic_ports = pick_int(1, 4);
    // Quarter-gbps grid: exact through the gbps <-> bits/s double round
    // trip (the serde key is *_gbps).
    cfg.nic_total_bw = Bandwidth::gbps(pick_int(1, 3200) * 0.25);
    cfg.nvlink_bw = Bandwidth::gbps(pick_int(1, 9600) * 0.25);
    cfg.mgmt_bw = Bandwidth::gbps(pick_int(0, 400) * 0.25);
    cfg.ocs_reconfig_delay = usecs(pick_int(0, 50000));
    if (i % 3 == 0) {
      cfg.gpu = coin() ? workload::GpuSpec::h100() : workload::GpuSpec::a100();
    } else {
      cfg.gpu.name = "gpu_" + std::to_string(i);
      cfg.gpu.peak_flops = pick_int(1, 2000) * 1e12;
      cfg.gpu.hbm_bytes_per_sec = pick_int(1, 80) * 1e11;
    }
    cfg.mfu = pick_int(1, 64) / 64.0;
    cfg.activation_recompute = coin();
    cfg.iteration.pipeline_schedule = coin()
                                          ? workload::PipelineSchedule::k1F1B
                                          : workload::PipelineSchedule::kGpipe;
    cfg.iteration.simulate_tp_comm = coin();
    cfg.iteration.bwd_regather = coin();
    cfg.iteration.simulate_ep_comm = coin();
    cfg.engine.dispatch_min = usecs(pick_int(0, 1000));
    cfg.engine.dispatch_max = usecs(pick_int(0, 5000));
    cfg.engine.seed = rng.next() >> 1;  // keep within the JSON int range
    cfg.provisioning = coin();
    cfg.mgmt_offload_threshold = static_cast<Bytes>(rng.next() % (1 << 20));
    cfg.iterations = pick_int(1, 5);
    cfg.record_compute_trace = coin();
    cfg.faults.enabled = coin();
    cfg.faults.mtbf_per_port = msecs(pick_int(1, 100));
    cfg.faults.mttr = msecs(pick_int(0, 100));
    cfg.faults.seed = rng.next() >> 1;
    cfg.faults.horizon = msecs(pick_int(0, 1000));
    cfg.faults.max_failures = pick_int(0, 128);
    cfg.telemetry.metrics = coin();
    if (coin()) cfg.telemetry.series_path = "series_" + std::to_string(i);
    if (coin()) cfg.telemetry.chrome_trace_path = "trace_" + std::to_string(i);
    cfg.telemetry.sample_interval = usecs(pick_int(1, 5000));
    cfg.telemetry.self_profile = coin();
    EXPECT_EQ(round_trip(cfg), cfg) << "draw " << i;
    collect_keys(config::to_json(cfg), "", {}, keys);
  }
  // 22 ExperimentConfig fields + 42 in its nested structs.
  EXPECT_EQ(keys.size(), 64u);
}

TEST(Serde, RandomizedFleetConfigsRoundTrip) {
  Xoshiro256 rng(777);
  const auto coin = [&] { return (rng.next() & 1) != 0; };
  std::set<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    fleet::FleetConfig cfg;
    cfg.n_nodes = 1 + static_cast<int>(rng.next() % 512);
    cfg.base.fabric = static_cast<net::FabricKind>(rng.next() % 4);
    cfg.policy = coin() ? fleet::PlacementPolicy::kRailAware
                        : fleet::PlacementPolicy::kFirstFit;
    cfg.isolated_baselines = coin();
    cfg.arrivals.seed = rng.next() >> 1;
    cfg.arrivals.n_jobs = static_cast<int>(rng.next() % 64);
    cfg.arrivals.mean_interarrival = msecs(1 + rng.next() % 50);
    cfg.arrivals.iterations = 1 + static_cast<int>(rng.next() % 8);
    if (coin()) {
      fleet::JobShape shape;
      shape.name = "shape_" + std::to_string(i);
      shape.model = workload::ModelConfig::test_tiny();
      shape.parallelism.dp = 2;
      shape.weight = (1 + static_cast<int>(rng.next() % 8)) * 0.5;
      cfg.arrivals.shapes.push_back(shape);
    }
    cfg.baseline_sweep.threads = static_cast<int>(rng.next() % 8);
    cfg.baseline_sweep.use_shard = coin();
    cfg.use_shard = coin();
    EXPECT_EQ(round_trip(cfg), cfg) << "draw " << i;
    collect_keys(config::to_json(cfg), "", {"base", "model", "parallelism"},
                 keys);
  }
  // FleetConfig 7 + ArrivalConfig 5 + JobShape 4 + SweepOptions 2.
  EXPECT_EQ(keys.size(), 18u);
}

// ---- error paths -----------------------------------------------------------

template <class Fn>
std::string serde_error_path(Fn&& fn) {
  try {
    fn();
  } catch (const SerdeError& e) {
    return e.path();
  }
  return "<no error>";
}

template <class Fn>
std::string serde_error_message(Fn&& fn) {
  try {
    fn();
  } catch (const SerdeError& e) {
    return e.what();
  }
  return "<no error>";
}

TEST(SerdeErrors, UnknownKeyReportsExactPath) {
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"model": {"n_layrs": 4}})"));
            }),
            "$.model.n_layrs");
  EXPECT_EQ(serde_error_path([] {
              config::fleet_from_json(json::parse(
                  R"({"arrivals": {"shapes": [{"wieght": 2}]}})"));
            }),
            "$.arrivals.shapes[0].wieght");
  // A removed option is an unknown key like any other.
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"eager_fabric_wiring": true})"));
            }),
            "$.eager_fabric_wiring");
}

TEST(SerdeErrors, WrongTypeReportsExactPath) {
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"parallelism": {"dp": "four"}})"));
            }),
            "$.parallelism.dp");
  // A double literal is not an integer field value.
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"iterations": 2.0})"));
            }),
            "$.iterations");
  // But an integer literal IS a valid double field value.
  core::ExperimentConfig cfg =
      config::experiment_from_json(json::parse(R"({"mfu": 1})"));
  EXPECT_DOUBLE_EQ(cfg.mfu, 1.0);
}

TEST(SerdeErrors, OutOfRangeReportsExactPath) {
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(json::parse(R"({"mfu": 1.5})"));
            }),
            "$.mfu");
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"parallelism": {"tp": 0}})"));
            }),
            "$.parallelism.tp");
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"nic_total_bw_gbps": -1})"));
            }),
            "$.nic_total_bw_gbps");
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"engine": {"seed": -1}})"));
            }),
            "$.engine.seed");
}

TEST(SerdeErrors, UnknownEnumTokenAndPresetNamed) {
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"fabric": "warp"})"));
            }),
            "$.fabric");
  EXPECT_EQ(serde_error_path([] {
              config::experiment_from_json(
                  json::parse(R"({"model": "llama9000"})"));
            }),
            "$.model");
}

// Full what() text, one input per codec kind: the messages are part of the
// CLI's user interface, not just the paths.
TEST(SerdeErrors, MessagesArePinnedPerCodec) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"parallelism": {"tp": 0}})",
       "config error at $.parallelism.tp: value 0 out of range "
       "[1, 2147483647]"},
      {R"({"iterations": 2.0})",
       "config error at $.iterations: expected integer, got double"},
      {R"({"rotor_slot_time_ns": 0})",
       "config error at $.rotor_slot_time_ns: value 0 out of range "
       "[1, 9223372036854775807]"},
      {R"({"mgmt_offload_threshold_bytes": -1})",
       "config error at $.mgmt_offload_threshold_bytes: value -1 out of "
       "range [0, 9223372036854775807]"},
      {R"({"nic_total_bw_gbps": -1})",
       "config error at $.nic_total_bw_gbps: value must be >= 0.000000"},
      {R"({"gpu": {"peak_flops": 0}})",
       "config error at $.gpu.peak_flops: value must be > 0.000000"},
      {R"({"mfu": 1.5})", "config error at $.mfu: MFU must be in (0, 1]"},
      {R"({"provisioning": 1})",
       "config error at $.provisioning: expected bool, got int"},
      {R"({"telemetry": {"series_path": 3}})",
       "config error at $.telemetry.series_path: expected string, got int"},
      {R"({"engine": {"seed": -1}})",
       "config error at $.engine.seed: value -1 out of range "
       "[0, 9223372036854775807]"},
      {R"({"fabric": "warp"})",
       "config error at $.fabric: unknown fabric \"warp\" "
       "(expected electrical|opus|ring|rotor)"},
      {R"({"iteration": {"pipeline_schedule": "zb"}})",
       "config error at $.iteration.pipeline_schedule: unknown pipeline "
       "schedule \"zb\" (expected 1f1b|gpipe)"},
      {R"({"parallelism": 4})",
       "config error at $.parallelism: expected object, got int"},
      {R"({"model": "llama9000"})",
       "config error at $.model: unknown model preset \"llama9000\" "
       "(known: llama3_8b, llama31_405b, gpt3_175b, mixtral_8x7b, "
       "test_tiny)"},
      {R"({"gpu": {"preset": "b200"}})",
       "config error at $.gpu.preset: unknown GPU preset \"b200\" "
       "(known: a100, h100, h200)"},
      {R"({"model": {"n_layrs": 4}})",
       "config error at $.model.n_layrs: unknown key \"n_layrs\""},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(serde_error_message([&] {
                config::experiment_from_json(json::parse(text));
              }),
              message)
        << text;
  }
  EXPECT_EQ(serde_error_message([] {
              config::fleet_from_json(
                  json::parse(R"({"arrivals": {"shapes": {}}})"));
            }),
            "config error at $.arrivals.shapes: expected array, got object");
  EXPECT_EQ(serde_error_message([] {
              config::fleet_from_json(
                  json::parse(R"({"policy": "best_fit"})"));
            }),
            "config error at $.policy: unknown placement policy "
            "\"best_fit\" (expected first_fit|rail_aware)");
}

// ---- the core contract: the JSON path IS the compiled-in path --------------

TEST(SerdeEndToEnd, RunExperimentBitIdenticalThroughJsonOnAllFabrics) {
  for (net::FabricKind fabric :
       {net::FabricKind::kElectrical, net::FabricKind::kOpusPhotonic,
        net::FabricKind::kStaticRing, net::FabricKind::kRotor}) {
    core::ExperimentConfig cfg = config::table3_cell(8);
    cfg.fabric = fabric;
    core::ExperimentConfig from_json_cfg;
    config::from_json(json::parse(json::dump(config::to_json(cfg))),
                      from_json_cfg);
    ASSERT_EQ(from_json_cfg, cfg) << config::to_token(fabric);

    const core::ExperimentResult direct = core::run_experiment(cfg);
    const core::ExperimentResult via_json =
        core::run_experiment(from_json_cfg);
    // Bit-identical result documents (covers every serialized field).
    EXPECT_EQ(json::dump(config::to_json(direct)),
              json::dump(config::to_json(via_json)))
        << config::to_token(fabric);
  }
}

}  // namespace
