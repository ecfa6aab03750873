// Ablation: reconfiguration granularity (§5). Fine-grained per-group
// switching lets disjoint port sets reconfigure concurrently; coarse-grained
// (whole-rail lock) serializes every change, inflating iteration time when
// per-stage phases interleave (e.g. stage 2's AllGather concurrent with
// other stages' Send/Recv in Fig. 3b).
#include <cstdio>

#include "common/table.h"
#include "core/experiment.h"

int main() {
  using namespace opus;

  std::printf("== Ablation: reconfiguration granularity ==\n\n");
  TextTable table({"PP", "Granularity", "Iter time", "Reconfigs/iter",
                   "Queued requests", "Max ack wait"});
  for (int pp : {2, 3}) {
    for (bool fine : {true, false}) {
      core::ExperimentConfig cfg = core::perlmutter_llama3_8b_config();
      cfg.parallelism.pp = pp;
      cfg.fabric = net::FabricKind::kOpusPhotonic;
      cfg.ocs_reconfig_delay = msecs(25);
      cfg.iterations = 3;
      cfg.record_compute_trace = false;
      // Granularity is a controller property; plumb it through the
      // transport options via the experiment's engine path.
      cfg.provisioning = true;
      // Note: run_experiment always uses fine_grained; for this ablation we
      // construct the stack manually.
      sim::Simulator sim;
      net::ClusterConfig ncfg;
      ncfg.n_nodes = cfg.parallelism.world_size() / cfg.gpus_per_node;
      ncfg.gpus_per_node = cfg.gpus_per_node;
      ncfg.nic_ports = cfg.nic_ports;
      ncfg.fabric = net::FabricKind::kOpusPhotonic;
      ncfg.ocs_reconfig_delay = cfg.ocs_reconfig_delay;
      net::Cluster cluster(sim, ncfg);
      workload::RankMapper mapper(cfg.parallelism, cfg.gpus_per_node);
      workload::ComputeModel compute(cfg.gpu, cfg.mfu,
                                     cfg.activation_recompute);
      const auto dag = workload::build_training_iteration(
          cfg.model, cfg.parallelism, mapper, compute, cfg.nvlink_bw);
      core::OpusTransport::Options topts;
      topts.provisioning = true;
      topts.controller.fine_grained = fine;
      topts.pipeline_stages = pp;
      core::OpusTransport transport(sim, cluster, topts);
      workload::IterationEngine engine(sim, cluster, transport, nullptr);
      const auto times = engine.run_to_completion(dag, cfg.iterations);
      TimeNs steady = 0;
      for (std::size_t i = 1; i < times.size(); ++i) steady += times[i];
      steady /= static_cast<TimeNs>(times.size() - 1);
      table.add_row(
          {fmt_count(pp), fine ? "per-group (fine)" : "whole-rail (coarse)",
           format_time(steady),
           fmt_double(static_cast<double>(
                          cluster.total_ocs_reconfigurations()) /
                          static_cast<double>(times.size()),
                      1),
           fmt_count(transport.controller().stats().queued),
           format_time(transport.controller().stats().max_wait)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Coarse-grained reconfiguration conflicts with the ML framework's\n"
      "communication schedule exactly as §5 warns: requests queue behind\n"
      "unrelated port domains and ack waits grow.\n");
  return 0;
}
