// Scale-independent state: a 4096-node cluster hosting one 64-node tenant
// must allocate solver-visible state proportional to the tenant's span, not
// the cluster — the refactor that makes 4096-node fabrics cheap to
// instantiate. Pinned via the instrumented allocation counters:
// FluidNetwork::link_count() (every materialized link), the cluster's
// span-indexed tenant store, and the placement engine's extent counters.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/experiment.h"
#include "fleet/fleet.h"
#include "fleet/placement.h"
#include "net/cluster.h"
#include "net/fluid.h"
#include "sim/simulator.h"

namespace opus {
namespace {

core::ExperimentConfig span64_job(net::FabricKind fabric) {
  core::ExperimentConfig job;
  job.model = workload::ModelConfig::test_tiny();
  job.parallelism.tp = 2;
  job.parallelism.dp = 64;
  job.gpus_per_node = 2;
  job.fabric = fabric;
  job.iterations = 1;
  job.record_compute_trace = false;
  job.iteration.simulate_tp_comm = false;
  job.ocs_reconfig_delay = usecs(100);
  job.rotor_slot_time = usecs(100);
  job.rotor_port_spread = 2;
  return job;
}

// Runs a 64-node job as the sole tenant of an `n_nodes` cluster and
// reports the fluid links the run materialized plus its iteration times.
struct TenantFootprint {
  std::size_t links = 0;
  std::vector<TimeNs> iteration_times;
};

TenantFootprint run_span64_tenant(const core::ExperimentConfig& job,
                                  int n_nodes) {
  sim::Simulator sim;
  net::Cluster cluster(sim, core::cluster_config_for(job, n_nodes));
  const net::NodeSpan span{0, 64};
  cluster.assign_tenant(0, span);
  core::Tenant tenant = core::build_tenant(sim, cluster, job, span);
  bool done = false;
  tenant.engine->run(tenant.dag, job.iterations, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  return {cluster.network().link_count(), tenant.engine->iteration_times()};
}

TEST(ScaleState, ClusterConstructionMaterializesNoFluidLinks) {
  // 4096 idle nodes on every fabric: id tables exist, links do not. This is
  // the lazy-wiring default end to end — NVLink pairs, electrical rail
  // up/downlinks, and OCS circuits all materialize on first use only.
  for (net::FabricKind fabric : net::kAllFabrics) {
    SCOPED_TRACE(net::fabric_name(fabric));
    const core::ExperimentConfig job = span64_job(fabric);
    sim::Simulator sim;
    net::Cluster cluster(sim, core::cluster_config_for(job, 4096));
    EXPECT_EQ(cluster.n_nodes(), 4096);
    EXPECT_EQ(cluster.network().link_count(), 0u);
    EXPECT_EQ(cluster.tenant_state_entries(), 0u);
  }
}

TEST(ScaleState, TenantFootprintIsSpanProportionalAt4096Nodes) {
  // The same 64-node job, alone on a 64-node cluster and alone on a
  // 4096-node cluster: identical link allocation AND identical timing. The
  // 4032 idle nodes contribute zero solver-visible state — memory is
  // proportional to the active span, not the fabric.
  for (net::FabricKind fabric : net::kAllFabrics) {
    SCOPED_TRACE(net::fabric_name(fabric));
    const core::ExperimentConfig job = span64_job(fabric);
    const TenantFootprint small = run_span64_tenant(job, 64);
    const TenantFootprint big = run_span64_tenant(job, 4096);
    EXPECT_GT(small.links, 0u);
    EXPECT_EQ(big.links, small.links);
    EXPECT_EQ(big.iteration_times, small.iteration_times);
  }
}

TEST(ScaleState, TenantStoreTracksOnlyActiveSpans) {
  core::ExperimentConfig job = span64_job(net::FabricKind::kElectrical);
  sim::Simulator sim;
  net::Cluster cluster(sim, core::cluster_config_for(job, 4096));

  // One 64-node tenant in a 4096-node cluster: exactly one span entry,
  // regardless of where it lands in the node space.
  const net::NodeSpan span{2048, 64};
  cluster.assign_tenant(7, span);
  EXPECT_EQ(cluster.tenant_state_entries(), 1u);
  EXPECT_EQ(cluster.tenant_of(NodeId{2048}), 7);
  EXPECT_EQ(cluster.tenant_of(NodeId{2111}), 7);
  EXPECT_EQ(cluster.tenant_of(NodeId{2047}), net::Cluster::kNoTenant);
  EXPECT_EQ(cluster.tenant_of(NodeId{2112}), net::Cluster::kNoTenant);

  // Release drops the entry.
  cluster.release_tenant(span);
  EXPECT_EQ(cluster.tenant_state_entries(), 0u);
  EXPECT_EQ(cluster.tenant_of(NodeId{2048}), net::Cluster::kNoTenant);
}

TEST(ScaleState, PlacementStateIsExtentProportional) {
  // A 4096-node placement map with one 64-node job resident: the interval
  // store holds a single free extent (the remainder), the lifetime peak is
  // two, and the allocate scan touched one extent — all independent of the
  // 4096-node span the extents cover.
  fleet::PlacementEngine placement(4096, fleet::PlacementPolicy::kRailAware);
  const auto span = placement.allocate(64);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->count, 64);
  EXPECT_EQ(placement.free_extent_count(), 1);
  EXPECT_EQ(placement.peak_free_extents(), 1);
  EXPECT_EQ(placement.allocations(), 1);
  EXPECT_EQ(placement.extents_scanned(), 1);

  // A second tenant deeper in the map splits the remainder once.
  const auto span2 = placement.allocate(100);
  ASSERT_TRUE(span2.has_value());
  EXPECT_LE(placement.free_extent_count(), 2);
  placement.release(*span2);
  placement.release(*span);
  EXPECT_EQ(placement.free_extent_count(), 1);
  EXPECT_EQ(placement.free_nodes(), 4096);
  EXPECT_EQ(placement.releases(), 2);
  EXPECT_LE(placement.peak_free_extents(), 2);
}

// ---------------------------------------------------------------------------
// 4096-node multi-tenant legs: one decade past the 512-node matrix, on all
// four fabrics. Each leg is a full fleet — arrivals, rail-aware placement,
// interleaved tenants, quiesce/release — on a 4096-node cluster. Sparse
// cluster state and lazy wiring are what make these cells tractable: the
// cost is the tenants' traffic, not the 4096-node fabric. Each fabric is
// its own named CI leg (`-R FourThousandNinetySixNode` in ci.yml) so
// per-leg timing shows which fabric regressed.
// ---------------------------------------------------------------------------

fleet::FleetConfig fleet4096_cfg(net::FabricKind fabric) {
  fleet::FleetConfig cfg;
  cfg.n_nodes = 4096;
  cfg.base.fabric = fabric;
  cfg.base.gpus_per_node = 4;
  cfg.base.ocs_reconfig_delay = usecs(100);
  cfg.base.rotor_slot_time = msecs(1);
  cfg.policy = fleet::PlacementPolicy::kRailAware;
  cfg.arrivals.seed = 2026;
  cfg.arrivals.n_jobs = 24;
  cfg.arrivals.iterations = 2;
  cfg.arrivals.mean_interarrival = msecs(1);
  // dp x8 over the Table-1/2 ladder: 32-128 nodes per job, ~1.5k active
  // nodes at peak — enough concurrency to stress placement and per-span
  // wiring while the idle majority proves the state stays sparse.
  cfg.arrivals.shapes = fleet::table_mix_shapes(cfg.base.gpus_per_node, 8);
  // The leg times the shared 4096-node world; per-job isolated baselines
  // are covered by the fleet tests at small scale.
  cfg.isolated_baselines = false;
  return cfg;
}

void expect_fleet4096_basics(const fleet::FleetResult& result) {
  EXPECT_EQ(result.rejected_jobs, 0);
  for (const fleet::FleetJobResult& jr : result.jobs) {
    EXPECT_GT(jr.service_time(), 0);
    EXPECT_GT(jr.rail_bytes, 0);
  }
  EXPECT_GT(result.makespan, 0);
  // The placement map stayed extent-proportional: a dozen tenants can
  // shear 4096 nodes into at most a handful of free extents.
  EXPECT_LE(result.peak_free_extents,
            static_cast<int>(result.jobs.size()) + 1);
}

TEST(FourKMatrix, FourThousandNinetySixNodeElectrical) {
  expect_fleet4096_basics(
      fleet::run_fleet(fleet4096_cfg(net::FabricKind::kElectrical)));
}

TEST(FourKMatrix, FourThousandNinetySixNodeOpus) {
  expect_fleet4096_basics(
      fleet::run_fleet(fleet4096_cfg(net::FabricKind::kOpusPhotonic)));
}

TEST(FourKMatrix, FourThousandNinetySixNodeStaticRing) {
  expect_fleet4096_basics(
      fleet::run_fleet(fleet4096_cfg(net::FabricKind::kStaticRing)));
}

TEST(FourKMatrix, FourThousandNinetySixNodeRotor) {
  expect_fleet4096_basics(
      fleet::run_fleet(fleet4096_cfg(net::FabricKind::kRotor)));
}

}  // namespace
}  // namespace opus

