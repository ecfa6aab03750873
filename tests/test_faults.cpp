// Fault-injection subsystem tests: the seeded Poisson FaultProcess (trace
// bounds, determinism, full repair), degraded continuation of a single
// tenant under churn on all four fabrics (with byte-accounting invariants
// against a fault-free run), and the fleet-scope reaction — eviction,
// checkpointed re-placement, and the availability / ports-lost / JCT-tail
// columns — on the shared-cluster multi-tenant scenario.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "config/presets.h"
#include "core/experiment.h"
#include "core/faults.h"
#include "fleet/fleet.h"
#include "net/cluster.h"
#include "sim/simulator.h"

namespace opus {
namespace {

// ---------------------------------------------------------------------------
// FaultProcess: trace generation and scheduling on a bare cluster
// ---------------------------------------------------------------------------

net::ClusterConfig bare_cfg() {
  net::ClusterConfig cfg;
  cfg.n_nodes = 4;
  cfg.gpus_per_node = 2;
  cfg.nic_ports = 2;
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  cfg.ocs_reconfig_delay = usecs(10);
  return cfg;
}

core::FaultConfig churn_cfg(std::uint64_t seed, TimeNs mtbf, TimeNs mttr,
                            int max_failures) {
  core::FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  cfg.mtbf_per_port = mtbf;
  cfg.mttr = mttr;
  cfg.max_failures = max_failures;
  return cfg;
}

TEST(FaultProcess, RejectsUnusableConfigs) {
  sim::Simulator sim;
  net::Cluster cluster(sim, bare_cfg());
  core::FaultConfig cfg;  // disabled
  EXPECT_THROW(core::FaultProcess(sim, cluster, cfg), InvariantError);
  cfg = churn_cfg(1, 0, msecs(1), 4);  // MTBF zero
  EXPECT_THROW(core::FaultProcess(sim, cluster, cfg), InvariantError);
  cfg = churn_cfg(1, msecs(1), 0, 4);  // MTTR zero
  EXPECT_THROW(core::FaultProcess(sim, cluster, cfg), InvariantError);
  cfg = churn_cfg(1, msecs(1), msecs(1), 0);  // unbounded trace
  cfg.horizon = 0;
  EXPECT_THROW(core::FaultProcess(sim, cluster, cfg), InvariantError);
}

TEST(FaultProcess, TraceIsBoundedAndEveryFailureIsRepaired) {
  sim::Simulator sim;
  net::Cluster cluster(sim, bare_cfg());
  const core::FaultConfig cfg = churn_cfg(17, msecs(1), usecs(100), 16);
  core::FaultProcess faults(sim, cluster, cfg);
  EXPECT_EQ(faults.trace_size(), 16);
  sim.run();
  const auto& stats = faults.stats();
  EXPECT_EQ(stats.failures_injected + stats.failures_skipped,
            faults.trace_size());
  EXPECT_GT(stats.failures_injected, 0);
  // Every injected failure schedules exactly one repair, so once the event
  // queue drains the cluster must be whole again — the property the fleet
  // driver's "queue eventually drains" guarantee rests on.
  EXPECT_EQ(stats.repairs_completed, stats.failures_injected);
  for (int n = 0; n < cluster.n_nodes(); ++n) {
    EXPECT_FALSE(cluster.node_disconnected(NodeId{n}));
    for (int r = 0; r < cluster.n_rails(); ++r) {
      EXPECT_EQ(cluster.live_nic_ports(NodeId{n}, r),
                cluster.config().nic_ports);
    }
  }
}

TEST(FaultProcess, HorizonStopsInjectionButNotRepairs) {
  sim::Simulator sim;
  net::Cluster cluster(sim, bare_cfg());
  core::FaultConfig cfg = churn_cfg(5, usecs(200), msecs(5), 0);
  cfg.horizon = msecs(1);
  core::FaultProcess faults(sim, cluster, cfg);
  ASSERT_GT(faults.trace_size(), 0);
  std::vector<TimeNs> failure_instants;
  cluster.set_fault_listener([&](const net::NicFault& f) {
    if (f.failed) failure_instants.push_back(sim.now());
  });
  sim.run();
  ASSERT_FALSE(failure_instants.empty());
  for (const TimeNs t : failure_instants) EXPECT_LE(t, msecs(1));
  EXPECT_EQ(faults.stats().repairs_completed,
            faults.stats().failures_injected);
}

using ChurnEvent = std::tuple<TimeNs, std::int32_t, int, int, bool>;

std::vector<ChurnEvent> record_churn(const core::FaultConfig& cfg) {
  sim::Simulator sim;
  net::Cluster cluster(sim, bare_cfg());
  std::vector<ChurnEvent> events;
  cluster.set_fault_listener([&](const net::NicFault& f) {
    events.emplace_back(sim.now(), f.node.value(), f.rail, f.slot, f.failed);
  });
  core::FaultProcess faults(sim, cluster, cfg);
  sim.run();
  return events;
}

TEST(FaultProcess, SameSeedInjectsBitIdenticalChurn) {
  const core::FaultConfig cfg = churn_cfg(99, msecs(2), usecs(500), 24);
  const auto a = record_churn(cfg);
  const auto b = record_churn(cfg);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultProcess, SeedActuallyMovesTheChurn) {
  core::FaultConfig cfg = churn_cfg(99, msecs(2), usecs(500), 24);
  const auto a = record_churn(cfg);
  cfg.seed = 100;
  const auto b = record_churn(cfg);
  EXPECT_NE(a, b) << "a dead fault seed would make churn replay tests vacuous";
}

// ---------------------------------------------------------------------------
// Degraded continuation: one tenant rides out churn on every fabric
// ---------------------------------------------------------------------------

core::ExperimentConfig churn_experiment_cfg(net::FabricKind kind) {
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
  cfg.ocs_reconfig_delay = usecs(100);
  cfg.rotor_slot_time = msecs(1);
  return cfg;
}

TEST(ChurnExperiment, EveryFabricCompletesDegradedUnderChurn) {
  for (net::FabricKind kind : net::kAllFabrics) {
    SCOPED_TRACE(net::fabric_name(kind));
    core::ExperimentConfig cfg = churn_experiment_cfg(kind);
    const core::ExperimentResult baseline = core::run_experiment(cfg);

    cfg.faults = churn_cfg(7, msecs(5), usecs(500), 24);
    const core::ExperimentResult churned = core::run_experiment(cfg);

    ASSERT_EQ(churned.iteration_times.size(), 3u)
        << "the tenant must complete every iteration degraded";
    EXPECT_GT(churned.fault_stats.failures_injected, 0);
    EXPECT_EQ(churned.fault_stats.failures_injected +
                  churned.fault_stats.failures_skipped,
              churned.fault_trace_size);
    EXPECT_EQ(churned.fault_stats.repairs_completed,
              churned.fault_stats.failures_injected);

    // Intra-node traffic never touches a NIC port, so the scale-up and PXN
    // issue totals are invariant under rail churn.
    EXPECT_EQ(churned.scale_up_bytes, baseline.scale_up_bytes);
    EXPECT_EQ(churned.pxn_bytes, baseline.pxn_bytes);
    // Rail accounting charges the logical payload at issue (rescue resends
    // are never re-counted); a degraded issue can only add forwarding hops,
    // never lose payload.
    EXPECT_GE(churned.rail_bytes, baseline.rail_bytes - baseline.multihop_bytes)
        << "churn must never lose logical rail payload";
    if (kind == net::FabricKind::kElectrical) {
      // Electrical failures only rescale endpoint capacity — routes are
      // unchanged, so the byte ledger is bit-identical to fault-free.
      EXPECT_EQ(churned.rail_bytes, baseline.rail_bytes);
      EXPECT_EQ(churned.multihop_bytes, baseline.multihop_bytes);
    }
    if (cfg.fabric != net::FabricKind::kElectrical) {
      // Dark time is charged up front in whole reconfig-delay units per
      // port; a port failing mid-dark must not claw any of it back.
      EXPECT_EQ(churned.ocs_dark_time % cfg.ocs_reconfig_delay, 0)
          << "sum(port_dark_time) must stay a whole multiple of the delay";
    }
  }
}

TEST(ChurnExperiment, ElectricalChurnOnlyEverSlowsTheJob) {
  core::ExperimentConfig cfg =
      churn_experiment_cfg(net::FabricKind::kElectrical);
  const core::ExperimentResult baseline = core::run_experiment(cfg);
  cfg.faults = churn_cfg(11, msecs(5), msecs(1), 16);
  const core::ExperimentResult churned = core::run_experiment(cfg);
  const TimeNs base_total =
      std::accumulate(baseline.iteration_times.begin(),
                      baseline.iteration_times.end(), static_cast<TimeNs>(0));
  const TimeNs churn_total =
      std::accumulate(churned.iteration_times.begin(),
                      churned.iteration_times.end(), static_cast<TimeNs>(0));
  EXPECT_GE(churn_total, base_total)
      << "losing NIC capacity cannot speed training up";
}

// ---------------------------------------------------------------------------
// Fleet-scope churn: eviction, checkpointed re-placement, availability
// ---------------------------------------------------------------------------

fleet::FleetConfig churn_fleet_cfg(net::FabricKind fabric) {
  fleet::FleetConfig cfg;
  cfg.n_nodes = 16;
  cfg.base.fabric = fabric;
  cfg.base.gpus_per_node = 4;
  cfg.base.ocs_reconfig_delay = usecs(100);
  cfg.base.rotor_slot_time = msecs(1);
  cfg.arrivals.seed = 4242;
  cfg.arrivals.n_jobs = 16;
  cfg.arrivals.iterations = 2;
  cfg.arrivals.mean_interarrival = msecs(1);
  cfg.policy = fleet::PlacementPolicy::kRailAware;
  cfg.base.faults = churn_cfg(7, msecs(40), msecs(2), 24);
  return cfg;
}

void check_churn_fleet(const fleet::FleetResult& result,
                       net::FabricKind fabric) {
  ASSERT_FALSE(result.jobs.empty());
  EXPECT_EQ(result.rejected_jobs, 0);
  int total_ports_lost = 0;
  for (const auto& jr : result.jobs) {
    ASSERT_FALSE(jr.rejected);
    // No stranded sends, no lost jobs: every job finishes every iteration
    // even when it had to be checkpointed and re-placed.
    EXPECT_GE(jr.start, jr.spec.arrival);
    EXPECT_GT(jr.finish, jr.start);
    EXPECT_EQ(jr.iteration_times.size(),
              static_cast<std::size_t>(jr.spec.iterations))
        << "job " << jr.spec.id;
    EXPECT_GT(jr.availability, 0.0);
    EXPECT_LE(jr.availability, 1.0);
    total_ports_lost += jr.ports_lost;
    if (jr.replacements > 0) {
      // Eviction gaps are wall time the job was placed but not training.
      EXPECT_LT(jr.availability, 1.0) << "job " << jr.spec.id;
    }
    // Survivors — jobs churn never touched — keep exact byte conservation
    // against their fault-free isolated baselines.
    if (jr.ports_lost == 0 && jr.replacements == 0) {
      if (fabric == net::FabricKind::kRotor) {
        EXPECT_EQ(jr.rail_bytes - jr.multihop_bytes,
                  jr.isolated_rail_bytes - jr.isolated_multihop_bytes)
            << "job " << jr.spec.id;
      } else {
        EXPECT_EQ(jr.rail_bytes, jr.isolated_rail_bytes)
            << "job " << jr.spec.id;
        EXPECT_EQ(jr.multihop_bytes, jr.isolated_multihop_bytes)
            << "job " << jr.spec.id;
      }
    }
  }
  EXPECT_GT(total_ports_lost, 0)
      << "the churn rate must actually hit running jobs";
}

TEST(ChurnFleet, SixteenJobChurnCompletesOnAllFourFabrics) {
  for (net::FabricKind fabric : net::kAllFabrics) {
    SCOPED_TRACE(net::fabric_name(fabric));
    const fleet::FleetResult result =
        fleet::run_fleet(churn_fleet_cfg(fabric));
    check_churn_fleet(result, fabric);
    // The churn columns render alongside the classic JCT table.
    const TextTable table = fleet::fleet_job_table(result);
    EXPECT_EQ(table.row_count(), result.jobs.size());
    EXPECT_FALSE(table.render().empty());
  }
}

TEST(ChurnFleet, DisconnectingFailuresForceCheckpointedReplacement) {
  // Long repairs pile concurrent failures up until some node loses a whole
  // rail: the driver must checkpoint, evict, and re-place — and the banked
  // iterations must survive the move (no job ever re-runs a finished
  // iteration, so iteration counts stay exact).
  fleet::FleetConfig cfg = churn_fleet_cfg(net::FabricKind::kOpusPhotonic);
  cfg.base.faults = churn_cfg(3, msecs(8), msecs(40), 48);
  const fleet::FleetResult result = fleet::run_fleet(cfg);
  int replacements = 0;
  for (const auto& jr : result.jobs) {
    replacements += jr.replacements;
    EXPECT_EQ(jr.iteration_times.size(),
              static_cast<std::size_t>(jr.spec.iterations));
  }
  EXPECT_GT(replacements, 0)
      << "this churn rate must disconnect at least one placed node";
}

TEST(ChurnFleet, RotorChurnFleetCompletesEveryJob) {
  // The full-size rotor churn cell at arrivals seed 1002, faults seed 2:
  // a 2-node sub-rotor loses its only matching to a failure that a repair
  // does not restore, and must re-wire it for its waiting sends to launch.
  fleet::FleetConfig cfg = config::fleet_churn_cell(
      net::FabricKind::kRotor, /*churn=*/true, /*smoke=*/false);
  cfg.arrivals.seed = 1002;
  cfg.base.faults.seed = 2;
  const fleet::FleetResult result = fleet::run_fleet(cfg);
  ASSERT_FALSE(result.jobs.empty());
  for (const auto& jr : result.jobs) {
    if (jr.rejected) continue;
    EXPECT_EQ(jr.iteration_times.size(),
              static_cast<std::size_t>(jr.spec.iterations))
        << "job " << jr.spec.id;
  }
}

TEST(ChurnFleet, FaultFreeFleetReportsFullAvailability) {
  fleet::FleetConfig cfg = churn_fleet_cfg(net::FabricKind::kElectrical);
  cfg.base.faults = core::FaultConfig{};  // churn off
  const fleet::FleetResult result = fleet::run_fleet(cfg);
  for (const auto& jr : result.jobs) {
    EXPECT_EQ(jr.ports_lost, 0);
    EXPECT_EQ(jr.replacements, 0);
    EXPECT_GT(jr.availability, 0.0);
    EXPECT_LE(jr.availability, 1.0);
  }
}

}  // namespace
}  // namespace opus
