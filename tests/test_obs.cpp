// src/obs: metrics registry slot semantics, probe interval sampling,
// chrome-trace JSON parse-back, self-profiler nesting/exception safety, the
// telemetry config's serde contract, and the rail observer's circuit spans.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/json.h"
#include "config/serde.h"
#include "net/cluster.h"
#include "net/ocs.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/selfprof.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace opus {
namespace {

// ---- metrics registry ------------------------------------------------------

TEST(Metrics, CounterWritesThroughStableSlot) {
  obs::MetricsRegistry registry;
  obs::Counter c = registry.add_counter("flows");
  EXPECT_TRUE(c.registered());
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);

  // Handles are copies of the slot pointer: both views see the same cell,
  // and later registrations never invalidate earlier handles.
  obs::Counter copy = c;
  registry.add_counter("other");
  copy.inc(8);
  EXPECT_EQ(c.value(), 50);

  const json::Value snap = registry.snapshot_json();
  EXPECT_EQ(snap.find("flows")->as_int(), 50);
  EXPECT_EQ(snap.find("other")->as_int(), 0);
}

TEST(Metrics, UnregisteredHandlesAreGuardedNoOps) {
  obs::Counter c;
  EXPECT_FALSE(c.registered());
  c.inc();
  c.set(7);
  EXPECT_EQ(c.value(), 0);

  obs::Histogram h;
  EXPECT_FALSE(h.registered());
  h.record(123);
  EXPECT_EQ(h.count(), 0);
}

TEST(Metrics, DuplicateOrEmptyRegistrationThrows) {
  obs::MetricsRegistry registry;
  registry.add_counter("x");
  EXPECT_THROW(registry.add_counter("x"), InvariantError);
  EXPECT_THROW(registry.add_gauge("x", [] { return 0.0; }), InvariantError);
  EXPECT_THROW(registry.add_histogram("x"), InvariantError);
  EXPECT_THROW(registry.add_counter(""), InvariantError);
}

TEST(Metrics, ColumnsAreRegistrationOrderAndSkipHistograms) {
  obs::MetricsRegistry registry;
  obs::Counter a = registry.add_counter("a");
  registry.add_histogram("hist");
  registry.add_gauge("b", [] { return 2.5; });
  a.inc(3);

  const std::vector<std::string> cols = registry.column_names();
  ASSERT_EQ(cols, (std::vector<std::string>{"a", "b"}));
  const std::vector<double> row = registry.sample_columns();
  ASSERT_EQ(row.size(), 2u);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  EXPECT_DOUBLE_EQ(row[1], 2.5);
}

TEST(Metrics, HistogramBucketsByBitWidth) {
  obs::MetricsRegistry registry;
  obs::Histogram h = registry.add_histogram("lat");
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  h.record(-3);  // clamped to 0
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 11);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 5);

  const json::Value snap = registry.snapshot_json();
  const json::Value* lat = snap.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_int(), 5);
  // Buckets: value 0 -> bucket 0 (x2), 1 -> bucket 1, 5 -> bucket 3 (x2).
  const json::Value& buckets = *lat->find("buckets");
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].as_int(), 2);
  EXPECT_EQ(buckets[1].as_int(), 1);
  EXPECT_EQ(buckets[2].as_int(), 0);
  EXPECT_EQ(buckets[3].as_int(), 2);
}

// ---- probe -----------------------------------------------------------------

TEST(Probe, SamplesEveryIntervalPlusAtMostOneTrailing) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  obs::Counter events = registry.add_counter("events");
  sim.schedule_at(350, [&events] { events.inc(); });

  obs::Probe probe(sim, registry, 100);
  probe.start();
  sim.run();

  // Samples at 0/100/200/300, then one trailing tick at 400 that finds the
  // queue drained and stops — the probe never keeps the simulation alive.
  const obs::Series& series = probe.series();
  ASSERT_EQ(series.row_count(), 5u);
  for (std::size_t r = 0; r < series.row_count(); ++r) {
    EXPECT_EQ(series.time(r), static_cast<TimeNs>(100 * r));
  }
  EXPECT_DOUBLE_EQ(series.value(3, 0), 0.0);  // t=300: not yet fired
  EXPECT_DOUBLE_EQ(series.value(4, 0), 1.0);  // t=400: the final sample
  EXPECT_EQ(sim.now(), 400);
}

TEST(Probe, EmptySimulationGetsExactlyTwoSamples) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  registry.add_counter("c");
  obs::Probe probe(sim, registry, msecs(1));
  probe.start();  // samples at t=0 and schedules one unconditional tick
  sim.run();
  EXPECT_EQ(probe.series().row_count(), 2u);
}

TEST(Probe, SeriesCsvHasTimeColumnFirstAndOneRowPerSample) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  registry.add_gauge("g", [&sim] { return static_cast<double>(sim.now()); });
  obs::Probe probe(sim, registry, 50);
  probe.start();
  sim.run();

  const std::string csv = probe.series().to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t_ns,g");
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            probe.series().row_count() + 1);
}

TEST(Probe, RejectsNonPositiveInterval) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  EXPECT_THROW(obs::Probe(sim, registry, 0), InvariantError);
}

// ---- chrome trace ----------------------------------------------------------

TEST(ChromeTrace, DumpParsesBackWithExactMicrosecondStamps) {
  obs::ChromeTraceWriter trace;
  trace.set_process_name(0, "fabric");
  trace.set_thread_name(0, 0, "rail0 circuits");
  trace.complete(0, 0, "p1-p2", "circuit", 1500, 1000);
  trace.instant(0, 2, "fail node3 slot0", "fault", 2500);
  EXPECT_EQ(trace.event_count(), 2u);

  const json::Value doc = json::parse(trace.dump());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const json::Value& events = *doc.find("traceEvents");
  ASSERT_EQ(events.size(), 4u);  // 2 metadata + 2 events

  EXPECT_EQ(events[0].find("ph")->as_string(), "M");
  EXPECT_EQ(events[0].find("name")->as_string(), "process_name");

  const json::Value& span = events[2];
  EXPECT_EQ(span.find("ph")->as_string(), "X");
  EXPECT_EQ(span.find("name")->as_string(), "p1-p2");
  EXPECT_EQ(span.find("cat")->as_string(), "circuit");
  EXPECT_DOUBLE_EQ(span.find("ts")->as_double(), 1.5);
  EXPECT_DOUBLE_EQ(span.find("dur")->as_double(), 1.0);
  EXPECT_EQ(span.find("pid")->as_int(), 0);
  EXPECT_EQ(span.find("tid")->as_int(), 0);

  const json::Value& inst = events[3];
  EXPECT_EQ(inst.find("ph")->as_string(), "i");
  EXPECT_EQ(inst.find("s")->as_string(), "g");
  EXPECT_DOUBLE_EQ(inst.find("ts")->as_double(), 2.5);
}

TEST(ChromeTrace, TwoIdenticalBuildsDumpIdenticalBytes) {
  auto build = [] {
    obs::ChromeTraceWriter trace;
    trace.set_process_name(2, "tenant");
    trace.complete(2, 1, "AllGather DP", "comm rail0", 0, 12345);
    trace.instant(1, 0, "place job0", "fleet", 999);
    return trace.dump();
  };
  EXPECT_EQ(build(), build());
}

// ---- self-profiler ---------------------------------------------------------

TEST(SelfProfiler, NestedScopesRecordBothPhases) {
  obs::SelfProfiler prof;
  const int outer = prof.phase("outer");
  const int inner = prof.phase("inner");
  {
    ProfileScope outer_scope(&prof, outer);
    ProfileScope inner_scope(&prof, inner);
  }
  ASSERT_EQ(prof.phase_count(), 2u);
  EXPECT_EQ(prof.calls(outer), 1);
  EXPECT_EQ(prof.calls(inner), 1);
  // Inclusive timing: the outer scope covers the inner one.
  EXPECT_GE(prof.total_ns(outer), prof.total_ns(inner));
}

TEST(SelfProfiler, ScopeRecordsWhenAnExceptionUnwinds) {
  obs::SelfProfiler prof;
  const int throwing = prof.phase("throwing");
  EXPECT_THROW(
      {
        ProfileScope scope(&prof, throwing);
        throw std::runtime_error("boom");
      },
      std::runtime_error);
  EXPECT_EQ(prof.calls(throwing), 1);
}

TEST(SelfProfiler, NullProfilerScopeIsANoOp) {
  ProfileScope scope(nullptr, -1);  // a null sink records nothing
}

TEST(SelfProfiler, ReportListsPhasesInFirstUseOrder) {
  obs::SelfProfiler prof;
  prof.record(prof.phase("b"), 2000);
  prof.record(prof.phase("a"), 1000);
  prof.record(prof.phase("b"), 4000);
  const TextTable table = prof.report();
  ASSERT_EQ(table.row_count(), 2u);
  const std::string csv = table.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "phase,calls,total_ms,mean_us");
  EXPECT_LT(csv.find("b,2"), csv.find("a,1"));
}

// ---- telemetry config serde ------------------------------------------------

TEST(TelemetrySerde, RoundTripsExactlyAndDefaultsToEmpty) {
  EXPECT_EQ(json::dump(config::to_json(obs::TelemetryConfig{}), 0), "{}");

  obs::TelemetryConfig tc;
  tc.metrics = true;
  tc.series_path = "/tmp/series.csv";
  tc.chrome_trace_path = "/tmp/trace.json";
  tc.sample_interval = usecs(250);
  tc.self_profile = true;
  obs::TelemetryConfig out;
  config::from_json(json::parse(json::dump(config::to_json(tc))), out);
  EXPECT_EQ(out, tc);

  core::ExperimentConfig cfg;
  cfg.telemetry = tc;
  core::ExperimentConfig cfg_out;
  config::from_json(json::parse(json::dump(config::to_json(cfg))), cfg_out);
  EXPECT_EQ(cfg_out, cfg);
}

TEST(TelemetrySerde, RejectsUnknownKeysWithExactPath) {
  const json::Value j =
      json::parse(R"({"telemetry": {"metricz": true}})");
  core::ExperimentConfig cfg;
  try {
    config::from_json(j, cfg);
    FAIL() << "expected SerdeError";
  } catch (const config::SerdeError& e) {
    EXPECT_EQ(e.path(), "$.telemetry.metricz");
    EXPECT_NE(std::string(e.what()).find("metricz"), std::string::npos);
  }
}

TEST(TelemetrySerde, RejectsNonPositiveSampleInterval) {
  obs::TelemetryConfig tc;
  EXPECT_THROW(config::from_json(
                   json::parse(R"({"sample_interval_ns": 0})"), tc),
               config::SerdeError);
}

TEST(TelemetryConfigFlags, EnabledAndDerivedPredicates) {
  obs::TelemetryConfig tc;
  EXPECT_FALSE(tc.enabled());
  tc.sample_interval = usecs(1);  // an interval alone enables nothing
  EXPECT_FALSE(tc.enabled());
  tc.metrics = true;
  EXPECT_TRUE(tc.enabled());
  EXPECT_TRUE(tc.wants_metrics());
  EXPECT_TRUE(tc.sampling());
  EXPECT_FALSE(tc.tracing());

  obs::TelemetryConfig trace_only;
  trace_only.chrome_trace_path = "/tmp/t.json";
  EXPECT_TRUE(trace_only.enabled());
  EXPECT_TRUE(trace_only.tracing());
  EXPECT_FALSE(trace_only.wants_metrics());
  EXPECT_FALSE(trace_only.sampling());
}

// ---- rail observer ---------------------------------------------------------

TEST(TelemetryRailObserver, OpenCircuitSpansCloseInAscendingPortOrder) {
  sim::Simulator sim;
  net::ClusterConfig cfg;
  cfg.n_nodes = 8;
  cfg.gpus_per_node = 1;
  cfg.nic_ports = 1;
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  net::Cluster cluster(sim, cfg);
  obs::TelemetryConfig tc;
  tc.chrome_trace_path = "unused.json";  // tracing on; nothing is written
  obs::Telemetry tel(tc);
  tel.attach_fabric(sim, cluster);

  net::OpticalCircuitSwitch& ocs = cluster.ocs(RailId{0});
  ocs.force_circuits({{PortId{6}, PortId{7}},
                      {PortId{1}, PortId{0}},
                      {PortId{5}, PortId{2}}});
  sim.run_until(100);
  ocs.force_circuits({{PortId{0}, PortId{1}}});  // tear down, bring up again
  tel.finalize(1000);

  std::vector<std::pair<std::string, double>> spans;  // (name, duration us)
  const json::Value doc = json::parse(tel.trace().dump());
  const json::Value& events = *doc.find("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value* cat = events[i].find("cat");
    if (cat == nullptr || cat->as_string() != "circuit") continue;
    spans.emplace_back(events[i].find("name")->as_string(),
                       events[i].find("dur")->as_double());
  }
  const std::vector<std::pair<std::string, double>> expected = {
      {"p0-p1", 0.1},  // torn down by the second force at t = 100 ns
      {"p0-p1", 0.9},  // finalize closes the rest, lowest port first
      {"p2-p5", 1.0},
      {"p6-p7", 1.0}};
  EXPECT_EQ(spans, expected);
}

}  // namespace
}  // namespace opus
