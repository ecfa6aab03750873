// Determinism guard: the whole library's stochastic behaviour flows through
// common/rng.h, so two runs of the same experiment with the same seed must
// produce bit-identical traces and statistics — the contract every
// regression bench and sweep relies on. A different seed must actually
// change the host-dispatch jitter (i.e. the seed is not ignored).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "fleet/fleet.h"
#include "net/fluid.h"
#include "sim/simulator.h"

namespace opus {
namespace {

core::ExperimentConfig tiny_config(net::FabricKind kind) {
  core::ExperimentConfig cfg;
  cfg.model = workload::ModelConfig::test_tiny();
  cfg.model.n_layers = 8;
  cfg.parallelism.tp = 4;
  cfg.parallelism.dp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.n_microbatches = 4;
  cfg.parallelism.microbatch_size = 1;
  cfg.gpus_per_node = 4;
  cfg.iterations = 3;
  cfg.fabric = kind;
  cfg.ocs_reconfig_delay = msecs(1);
  return cfg;
}

void expect_bit_identical(const core::ExperimentResult& a,
                          const core::ExperimentResult& b) {
  EXPECT_EQ(a.iteration_times, b.iteration_times);
  EXPECT_EQ(a.steady_iteration_time, b.steady_iteration_time);
  EXPECT_EQ(a.ocs_reconfigurations, b.ocs_reconfigurations);
  EXPECT_EQ(a.ocs_dark_time, b.ocs_dark_time);
  EXPECT_EQ(a.controller.requests, b.controller.requests);
  EXPECT_EQ(a.controller.satisfied_immediately,
            b.controller.satisfied_immediately);
  EXPECT_EQ(a.controller.reconfigurations, b.controller.reconfigurations);
  EXPECT_EQ(a.controller.queued, b.controller.queued);
  EXPECT_EQ(a.controller.total_wait, b.controller.total_wait);
  EXPECT_EQ(a.controller.max_wait, b.controller.max_wait);
  EXPECT_EQ(a.shim_speculative_requests, b.shim_speculative_requests);
  EXPECT_EQ(a.shim_mispredictions, b.shim_mispredictions);
  EXPECT_EQ(a.rotor_rotations, b.rotor_rotations);
  EXPECT_EQ(a.rotor_deferred_sends, b.rotor_deferred_sends);
  EXPECT_EQ(a.rail_bytes, b.rail_bytes);
  EXPECT_EQ(a.scale_up_bytes, b.scale_up_bytes);
  EXPECT_EQ(a.pxn_bytes, b.pxn_bytes);
  EXPECT_EQ(a.mgmt_bytes, b.mgmt_bytes);
  EXPECT_EQ(a.multihop_bytes, b.multihop_bytes);

  // Full trace comparison: every comm record, field by field.
  const auto& ca = a.recorder->comm_records();
  const auto& cb = b.recorder->comm_records();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].iteration, cb[i].iteration);
    EXPECT_EQ(ca[i].rail, cb[i].rail);
    EXPECT_EQ(ca[i].group, cb[i].group);
    EXPECT_EQ(ca[i].group_name, cb[i].group_name);
    EXPECT_EQ(ca[i].dim, cb[i].dim);
    EXPECT_EQ(ca[i].type, cb[i].type);
    EXPECT_EQ(ca[i].payload, cb[i].payload);
    EXPECT_EQ(ca[i].t_issue, cb[i].t_issue);
    EXPECT_EQ(ca[i].t_end, cb[i].t_end);
    EXPECT_EQ(ca[i].scale_out, cb[i].scale_out);
  }

  // Compute spans too (same GPU, same instants, same labels).
  const auto& pa = a.recorder->compute_records();
  const auto& pb = b.recorder->compute_records();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].gpu, pb[i].gpu);
    EXPECT_EQ(pa[i].t_start, pb[i].t_start);
    EXPECT_EQ(pa[i].t_end, pb[i].t_end);
    EXPECT_EQ(pa[i].label, pb[i].label);
    EXPECT_EQ(pa[i].microbatch, pb[i].microbatch);
  }

  const auto& sa = a.recorder->iterations();
  const auto& sb = b.recorder->iterations();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].t_start, sb[i].t_start);
    EXPECT_EQ(sa[i].t_end, sb[i].t_end);
  }
}

TEST(Determinism, PhotonicExperimentIsBitIdentical) {
  const core::ExperimentConfig cfg = tiny_config(net::FabricKind::kOpusPhotonic);
  expect_bit_identical(core::run_experiment(cfg), core::run_experiment(cfg));
}

TEST(Determinism, ElectricalExperimentIsBitIdentical) {
  const core::ExperimentConfig cfg = tiny_config(net::FabricKind::kElectrical);
  expect_bit_identical(core::run_experiment(cfg), core::run_experiment(cfg));
}

TEST(Determinism, StaticRingExperimentIsBitIdentical) {
  const core::ExperimentConfig cfg = tiny_config(net::FabricKind::kStaticRing);
  expect_bit_identical(core::run_experiment(cfg), core::run_experiment(cfg));
}

TEST(Determinism, RotorExperimentIsBitIdentical) {
  // The rotor's slot clock, drain guard bands, and two-hop forwarding all
  // ride the simulator's FIFO tie-break, so the fabric must replay exactly.
  const core::ExperimentConfig cfg = tiny_config(net::FabricKind::kRotor);
  const auto a = core::run_experiment(cfg);
  const auto b = core::run_experiment(cfg);
  expect_bit_identical(a, b);
  EXPECT_EQ(a.rotor_rotations, b.rotor_rotations);
  EXPECT_EQ(a.rotor_deferred_sends, b.rotor_deferred_sends);
  EXPECT_GT(a.rotor_rotations, 0) << "the workload must exercise rotation";
}

TEST(Determinism, TelemetryOnMatchesTelemetryOff) {
  // The obs subsystem's core contract: full telemetry (metrics gauges, the
  // periodic probe, chrome tracing, self-profiling) is pure observation —
  // it changes NO simulation result field on any fabric, and two
  // telemetry-on runs emit byte-identical series and trace documents.
  for (net::FabricKind kind : net::kAllFabrics) {
    SCOPED_TRACE(net::fabric_name(kind));
    const core::ExperimentConfig off = tiny_config(kind);
    core::ExperimentConfig on = tiny_config(kind);
    on.telemetry.metrics = true;
    // run_experiment never writes files (the config runner does), so these
    // paths act purely as sampling/tracing enable flags here.
    on.telemetry.series_path = "unused.csv";
    on.telemetry.chrome_trace_path = "unused.json";
    on.telemetry.sample_interval = usecs(200);
    on.telemetry.self_profile = true;

    const auto a = core::run_experiment(off);
    const auto b = core::run_experiment(on);
    expect_bit_identical(a, b);
    EXPECT_EQ(a.telemetry, nullptr);
    ASSERT_NE(b.telemetry, nullptr);
    ASSERT_NE(b.telemetry->series(), nullptr);
    EXPECT_GT(b.telemetry->series()->row_count(), 1u);
    EXPECT_GT(b.telemetry->trace().event_count(), 0u);

    const auto c = core::run_experiment(on);
    ASSERT_NE(c.telemetry, nullptr);
    EXPECT_EQ(b.telemetry->series()->to_csv(), c.telemetry->series()->to_csv());
    EXPECT_EQ(b.telemetry->trace().dump(), c.telemetry->trace().dump());
    EXPECT_EQ(json::dump(b.telemetry->final_metrics()),
              json::dump(c.telemetry->final_metrics()));
  }
}

TEST(Determinism, SweepThreadCountDoesNotChangeAnyTrace) {
  // Each sweep cell owns its Simulator, so fanning cells across threads
  // must leave every per-cell trace bit-identical to a serial run — the
  // contract that makes the parallel sweep runner safe for regression use.
  std::vector<core::ExperimentConfig> cells;
  cells.push_back(tiny_config(net::FabricKind::kOpusPhotonic));
  cells.push_back(tiny_config(net::FabricKind::kElectrical));
  cells.push_back(tiny_config(net::FabricKind::kStaticRing));
  cells.push_back(tiny_config(net::FabricKind::kRotor));

  core::SweepOptions serial;
  serial.threads = 1;
  core::SweepOptions threaded;
  threaded.threads = 3;
  const auto a = core::run_sweep(cells, serial);
  const auto b = core::run_sweep(cells, threaded);
  ASSERT_EQ(a.size(), cells.size());
  ASSERT_EQ(b.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_bit_identical(a[i], b[i]);
  }
}

TEST(Determinism, DispatchSeedActuallyChangesTheJitter) {
  core::ExperimentConfig cfg = tiny_config(net::FabricKind::kElectrical);
  const auto a = core::run_experiment(cfg);
  cfg.engine.seed = 43;
  const auto b = core::run_experiment(cfg);
  // Same workload, different host-jitter stream: the traces must diverge
  // somewhere (otherwise the seed is dead and determinism tests prove
  // nothing).
  const auto& ca = a.recorder->comm_records();
  const auto& cb = b.recorder->comm_records();
  ASSERT_EQ(ca.size(), cb.size());
  bool diverged = a.iteration_times != b.iteration_times;
  for (std::size_t i = 0; !diverged && i < ca.size(); ++i)
    diverged = ca[i].t_issue != cb[i].t_issue || ca[i].t_end != cb[i].t_end;
  EXPECT_TRUE(diverged);
}

TEST(Determinism, DisablingJitterMakesSeedIrrelevant) {
  core::ExperimentConfig cfg = tiny_config(net::FabricKind::kElectrical);
  cfg.engine.dispatch_min = 0;
  cfg.engine.dispatch_max = 0;
  const auto a = core::run_experiment(cfg);
  cfg.engine.seed = 1234567;
  const auto b = core::run_experiment(cfg);
  expect_bit_identical(a, b);
}

// ---------------------------------------------------------------------------
// Fleet determinism: a multi-tenant run interleaves many engines on one
// simulator, so the whole per-job JCT table (and every per-tenant byte
// counter) must replay bit-identically — across reruns with the same
// arrival seed AND across the isolated-baseline sweep's thread widths (the
// only threading anywhere near the fleet).
// ---------------------------------------------------------------------------

fleet::FleetConfig fleet_determinism_config(net::FabricKind fabric) {
  fleet::FleetConfig cfg;
  cfg.n_nodes = 12;
  cfg.base.fabric = fabric;
  cfg.base.gpus_per_node = 4;
  cfg.base.ocs_reconfig_delay = usecs(100);
  cfg.arrivals.seed = 31337;
  cfg.arrivals.n_jobs = 10;
  cfg.arrivals.iterations = 2;
  cfg.arrivals.mean_interarrival = msecs(1);
  cfg.policy = fleet::PlacementPolicy::kRailAware;
  return cfg;
}

void expect_fleets_bit_identical(const fleet::FleetResult& a,
                                 const fleet::FleetResult& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const auto& ja = a.jobs[i];
    const auto& jb = b.jobs[i];
    EXPECT_EQ(ja.rejected, jb.rejected);
    EXPECT_EQ(ja.placement.first, jb.placement.first);
    EXPECT_EQ(ja.placement.count, jb.placement.count);
    EXPECT_EQ(ja.start, jb.start);
    EXPECT_EQ(ja.finish, jb.finish);
    EXPECT_EQ(ja.iteration_times, jb.iteration_times);
    EXPECT_EQ(ja.isolated_time, jb.isolated_time);
    EXPECT_EQ(ja.rail_bytes, jb.rail_bytes);
    EXPECT_EQ(ja.scale_up_bytes, jb.scale_up_bytes);
    EXPECT_EQ(ja.pxn_bytes, jb.pxn_bytes);
    EXPECT_EQ(ja.multihop_bytes, jb.multihop_bytes);
    EXPECT_EQ(ja.rotor_rotations, jb.rotor_rotations);
    EXPECT_EQ(ja.rotor_deferred_sends, jb.rotor_deferred_sends);
    EXPECT_EQ(ja.dark_time, jb.dark_time);
    EXPECT_DOUBLE_EQ(ja.slowdown, jb.slowdown);
    EXPECT_EQ(ja.ports_lost, jb.ports_lost);
    EXPECT_EQ(ja.replacements, jb.replacements);
    EXPECT_DOUBLE_EQ(ja.availability, jb.availability);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_DOUBLE_EQ(a.peak_fragmentation, b.peak_fragmentation);
}

TEST(Determinism, FleetRunReplaysBitIdenticallyOnEveryFabric) {
  for (net::FabricKind fabric :
       {net::FabricKind::kOpusPhotonic, net::FabricKind::kRotor}) {
    SCOPED_TRACE(net::fabric_name(fabric));
    const fleet::FleetConfig cfg = fleet_determinism_config(fabric);
    expect_fleets_bit_identical(fleet::run_fleet(cfg), fleet::run_fleet(cfg));
  }
}

TEST(Determinism, FleetBaselineSweepWidthDoesNotChangeTheJctTable) {
  fleet::FleetConfig serial =
      fleet_determinism_config(net::FabricKind::kOpusPhotonic);
  serial.baseline_sweep.threads = 1;
  fleet::FleetConfig threaded = serial;
  threaded.baseline_sweep.threads = 3;
  expect_fleets_bit_identical(fleet::run_fleet(serial),
                              fleet::run_fleet(threaded));
}

TEST(Determinism, ChurnFleetReplaysBitIdentically) {
  // Failure churn adds a second stochastic process (the fault trace) on top
  // of arrivals and dispatch jitter; rescue resends, evictions, and
  // re-placements all ride the simulator's FIFO tie-break — so a churned
  // fleet must still replay its whole JCT/availability table bit for bit.
  for (net::FabricKind fabric :
       {net::FabricKind::kOpusPhotonic, net::FabricKind::kRotor}) {
    SCOPED_TRACE(net::fabric_name(fabric));
    fleet::FleetConfig cfg = fleet_determinism_config(fabric);
    cfg.base.faults.enabled = true;
    cfg.base.faults.seed = 7;
    cfg.base.faults.mtbf_per_port = msecs(40);
    cfg.base.faults.mttr = msecs(2);
    cfg.base.faults.max_failures = 24;
    const auto a = fleet::run_fleet(cfg);
    const auto b = fleet::run_fleet(cfg);
    expect_fleets_bit_identical(a, b);
    int ports_lost = 0;
    for (const auto& jr : a.jobs) ports_lost += jr.ports_lost;
    EXPECT_GT(ports_lost, 0) << "the replay must actually contain churn";
  }
}

TEST(Determinism, FaultSeedActuallyChangesTheChurn) {
  core::ExperimentConfig cfg = tiny_config(net::FabricKind::kOpusPhotonic);
  cfg.faults.enabled = true;
  cfg.faults.seed = 1;
  cfg.faults.mtbf_per_port = msecs(5);
  cfg.faults.mttr = usecs(500);
  cfg.faults.max_failures = 24;
  const auto a = core::run_experiment(cfg);
  cfg.faults.seed = 2;
  const auto b = core::run_experiment(cfg);
  ASSERT_GT(a.fault_stats.failures_injected, 0);
  // Same workload, different fault stream: some observable must move —
  // otherwise the fault seed is dead and the replay test above is vacuous.
  bool diverged =
      a.iteration_times != b.iteration_times ||
      a.fault_stats.failures_injected != b.fault_stats.failures_injected ||
      a.fault_stats.failures_skipped != b.fault_stats.failures_skipped ||
      a.ocs_dark_time != b.ocs_dark_time ||
      a.rail_bytes != b.rail_bytes;
  EXPECT_TRUE(diverged);
}

TEST(Determinism, FleetArrivalSeedActuallyChangesTheSchedule) {
  const fleet::FleetConfig a =
      fleet_determinism_config(net::FabricKind::kElectrical);
  fleet::FleetConfig b = a;
  b.arrivals.seed = 31338;
  const auto ra = fleet::run_fleet(a);
  const auto rb = fleet::run_fleet(b);
  bool diverged = ra.makespan != rb.makespan;
  for (std::size_t i = 0; i < ra.jobs.size() && !diverged; ++i) {
    diverged = ra.jobs[i].spec.arrival != rb.jobs[i].spec.arrival ||
               ra.jobs[i].finish != rb.jobs[i].finish;
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// The fluid flow registry itself: the dense slot store recycles slots and
// the completion heap breaks equal-instant ties by slot, so a scripted churn
// of starts, aborts, simultaneous completions, and zero-byte deliveries must
// replay with a bit-identical completion log — the registry-level contract
// under the experiment-level legs above.
// ---------------------------------------------------------------------------

TEST(Determinism, FluidRegistryChurnReplayIsBitIdentical) {
  auto run = [] {
    sim::Simulator sim;
    net::FluidNetwork fluid(sim);
    std::vector<std::pair<TimeNs, int>> log;  // (completion instant, tag)
    std::vector<LinkId> links;
    for (int l = 0; l < 8; ++l) {
      links.push_back(fluid.add_link(Bandwidth::gbps(100)));
    }
    std::vector<FlowId> flows;
    // Waves of equal-size flows over overlapping two-link paths: whole
    // cohorts drain at the same instant, exercising equal-time heap pops.
    for (int wave = 0; wave < 6; ++wave) {
      sim.schedule_at(wave * usecs(10), [&, wave] {
        for (int f = 0; f < 16; ++f) {
          const int tag = wave * 100 + f;
          flows.push_back(fluid.start_flow(
              {links[static_cast<std::size_t>(f % 8)],
               links[static_cast<std::size_t>((f + 3) % 8)]},
              1'000'000, 0, [&log, tag, &sim] {
                log.emplace_back(sim.now(), tag);
              }));
        }
        // Zero-byte control messages interleave with the draining flows.
        flows.push_back(fluid.start_flow({}, 0, usecs(7), [&log, wave, &sim] {
          log.emplace_back(sim.now(), 1000 + wave);
        }));
        // Abort a handful mid-flight: slots recycle between waves.
        for (int k = 0; k < 5 && !flows.empty(); ++k) {
          fluid.abort_flow(flows[flows.size() - 1 - k * 2 % flows.size()]);
        }
      });
    }
    sim.run();
    EXPECT_EQ(fluid.active_flow_count(), 0u);
    return log;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "registry churn must replay bit-identically";
}

// ---------------------------------------------------------------------------
// The RNG contract itself (common/rng.h): identical seeds give identical
// streams, distinct seeds give distinct streams, uniforms stay in range.
// ---------------------------------------------------------------------------

TEST(Determinism, XoshiroStreamsAreSeedStable) {
  Xoshiro256 a(2026), b(2026), c(2027);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Determinism, XoshiroUniformStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Determinism, SplitMixIsSeedStable) {
  SplitMix64 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace opus
