#include "core/experiment.h"

#include <numeric>

#include "common/error.h"
#include "core/rotor.h"
#include "core/static_ring.h"

namespace opus::core {

ExperimentConfig perlmutter_llama3_8b_config() {
  ExperimentConfig cfg;
  cfg.model = workload::ModelConfig::llama3_8b();
  cfg.parallelism.tp = 4;
  cfg.parallelism.dp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.fsdp = true;
  cfg.parallelism.n_microbatches = 8;
  cfg.parallelism.microbatch_size = 2;
  cfg.gpus_per_node = 4;
  cfg.gpu = workload::GpuSpec::a100();
  // Calibrated against §3.1: ~10 s iterations, ~1 s cool-down backward per
  // stage (the window preceding the ReduceScatter phase in Fig. 4).
  cfg.mfu = 0.20;
  cfg.activation_recompute = true;
  return cfg;
}

net::ClusterConfig cluster_config_for(const ExperimentConfig& config) {
  config.parallelism.validate();
  const int world = config.parallelism.world_size();
  ensure(world % config.gpus_per_node == 0,
         "experiment: world size must fill whole nodes");
  return cluster_config_for(config, world / config.gpus_per_node);
}

net::ClusterConfig cluster_config_for(const ExperimentConfig& config,
                                      int n_nodes) {
  net::ClusterConfig ncfg;
  ncfg.n_nodes = n_nodes;
  ncfg.gpus_per_node = config.gpus_per_node;
  ncfg.nic_ports = config.nic_ports;
  ncfg.nic_total_bw = config.nic_total_bw;
  ncfg.nvlink_bw = config.nvlink_bw;
  ncfg.fabric = config.fabric;
  ncfg.ocs_reconfig_delay = config.ocs_reconfig_delay;
  ncfg.mgmt_bw = config.mgmt_bw;
  ncfg.rotor_port_spread = config.rotor_port_spread;
  return ncfg;
}

void Tenant::shutdown_transport() {
  if (opus != nullptr) opus->shutdown();
  if (rotor != nullptr) rotor->shutdown();
}

void Tenant::react_to_fault(const net::NicFault& fault) {
  if (!fault.node.valid() || !span.contains(fault.node.value())) return;
  if (ring != nullptr && !fault.failed) ring->resplice();
  if (rotor != nullptr) rotor->poke();
}

void Tenant::abort(net::Cluster& cluster) {
  if (engine != nullptr) engine->abort();
  shutdown_transport();
  cluster.abort_span_traffic(span);
}

Tenant build_tenant(sim::Simulator& sim, net::Cluster& cluster,
                    const ExperimentConfig& config, net::NodeSpan span) {
  config.parallelism.validate();
  ensure(config.gpus_per_node == cluster.gpus_per_node(),
         "tenant: scale-up domain size must match the cluster");
  const int world = config.parallelism.world_size();
  ensure(world % config.gpus_per_node == 0,
         "tenant: world size must fill whole nodes");
  ensure(world / config.gpus_per_node == span.count,
         "tenant: node span must hold exactly the job's world size");
  ensure(span.first >= 0 && span.end() <= cluster.n_nodes(),
         "tenant: node span out of cluster range");

  Tenant tenant;
  tenant.span = span;

  workload::RankMapper mapper(config.parallelism, config.gpus_per_node);
  workload::ComputeModel compute(config.gpu, config.mfu,
                                 config.activation_recompute);
  tenant.dag = workload::build_training_iteration(
      config.model, config.parallelism, mapper, compute, config.nvlink_bw,
      config.iteration);
  workload::offset_dag_gpus(tenant.dag,
                            span.first * config.gpus_per_node);

  tenant.recorder =
      std::make_shared<trace::TraceRecorder>(config.record_compute_trace);

  switch (cluster.fabric()) {
    case net::FabricKind::kElectrical:
      tenant.transport = std::make_unique<collective::DirectTransport>(cluster);
      break;
    case net::FabricKind::kOpusPhotonic: {
      OpusTransport::Options opts;
      opts.provisioning = config.provisioning;
      opts.mgmt_offload_threshold = config.mgmt_offload_threshold;
      opts.pipeline_stages = config.parallelism.pp;
      auto t = std::make_unique<OpusTransport>(sim, cluster, opts);
      tenant.opus = t.get();
      tenant.transport = std::move(t);
      break;
    }
    case net::FabricKind::kStaticRing: {
      auto t = std::make_unique<StaticRingTransport>(cluster, span);
      tenant.ring = t.get();
      tenant.transport = std::move(t);
      break;
    }
    case net::FabricKind::kRotor: {
      RotorTransport::Options opts;
      opts.slot_time = config.rotor_slot_time;
      auto t = std::make_unique<RotorTransport>(sim, cluster, opts, span);
      tenant.rotor = t.get();
      tenant.transport = std::move(t);
      break;
    }
  }

  tenant.engine = std::make_unique<workload::IterationEngine>(
      sim, cluster, *tenant.transport, tenant.recorder.get(), config.engine);
  return tenant;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  sim::Simulator sim;
  net::Cluster cluster(sim, cluster_config_for(config));

  // The single-job run is the one-tenant special case: one tenant spanning
  // the whole cluster, driven to completion on a private simulator.
  Tenant tenant =
      build_tenant(sim, cluster, config, net::NodeSpan{0, cluster.n_nodes()});

  // Telemetry, when requested: fabric gauges + OCS observers attach before
  // any traffic, the probe starts at t=0. Pure observation — the
  // determinism suite pins that results are bit-identical either way.
  std::shared_ptr<obs::Telemetry> telemetry;
  if (config.telemetry.enabled()) {
    telemetry = std::make_shared<obs::Telemetry>(config.telemetry);
    telemetry->attach_fabric(sim, cluster);
  }

  // Failure churn, when requested: schedule the seeded fault trace and let
  // the single tenant continue degraded (the fleet driver, not this path,
  // implements eviction/re-placement for disconnecting failures).
  std::unique_ptr<FaultProcess> faults;
  if (config.faults.enabled) {
    faults = std::make_unique<FaultProcess>(sim, cluster, config.faults);
    cluster.set_fault_listener(
        [&tenant, &sim, tel = telemetry.get()](const net::NicFault& f) {
          if (tel != nullptr) tel->on_fault(f, sim.now());
          tenant.react_to_fault(f);
        });
  }

  if (telemetry != nullptr) telemetry->start_probe(sim);

  ExperimentResult result;
  result.iteration_times =
      tenant.engine->run_to_completion(tenant.dag, config.iterations);
  result.recorder = tenant.recorder;

  if (result.iteration_times.size() > 1) {
    const auto begin = result.iteration_times.begin() + 1;
    const TimeNs sum = std::accumulate(begin, result.iteration_times.end(),
                                       static_cast<TimeNs>(0));
    result.steady_iteration_time =
        sum / static_cast<TimeNs>(result.iteration_times.size() - 1);
  } else {
    result.steady_iteration_time = result.iteration_times.front();
  }

  if (cluster.photonic()) {
    // Fig. 8 accounting is a property of the rails, not the control plane:
    // sum every rail's OCS stats so demand-driven (Opus) and oblivious
    // (rotor) reconfiguration report through the same fields.
    result.ocs_reconfigurations = cluster.total_ocs_reconfigurations();
    result.ocs_dark_time = cluster.total_ocs_dark_time();
  }
  if (tenant.opus != nullptr) {
    result.controller = tenant.opus->controller().stats();
    result.shim_speculative_requests =
        tenant.opus->shim().speculative_requests();
    result.shim_mispredictions = tenant.opus->shim().mispredictions();
  }
  if (tenant.rotor != nullptr) {
    result.rotor_rotations = tenant.rotor->rotations();
    result.rotor_deferred_sends = tenant.rotor->deferred_sends();
    // Aggregation invariant: the rotor is the only agent reconfiguring a
    // single-tenant rotor fabric, and every counted rotation is exactly one
    // state-changing reconfiguration of one rail OCS — so the per-rail OCS
    // stats must sum to the rotation tally (pinned by test_rotor.cpp).
    // Fault churn breaks the 1:1 mapping legitimately: a rotation into
    // failed ports may reconfigure nothing when no circuit survives, and a
    // one-round span re-wires its torn matching without a rotation — so
    // the invariant only holds fault-free.
    ensure(config.faults.enabled ||
               result.ocs_reconfigurations == result.rotor_rotations,
           "rotor: summed per-rail OCS reconfigurations diverge from the "
           "rotation count");
  }
  if (faults != nullptr) {
    result.fault_stats = faults->stats();
    result.fault_trace_size = faults->trace_size();
  }
  if (telemetry != nullptr) {
    if (config.telemetry.tracing()) {
      telemetry->trace().add_recorder(obs::Telemetry::kTenantPidBase, "tenant",
                                      *tenant.recorder);
    }
    // Must happen while sim/cluster are alive: snapshots the gauges and
    // closes open circuit spans at end-of-run.
    telemetry->finalize(sim.now());
    result.telemetry = telemetry;
  }
  result.rail_bytes = cluster.bytes_on_route(net::Cluster::Route::kRail);
  result.scale_up_bytes = cluster.bytes_on_route(net::Cluster::Route::kScaleUp);
  result.pxn_bytes = cluster.bytes_on_route(net::Cluster::Route::kPxn);
  result.mgmt_bytes = cluster.bytes_on_route(net::Cluster::Route::kMgmt);
  result.multihop_bytes =
      cluster.bytes_on_route(net::Cluster::Route::kRailMultiHop);
  return result;
}

}  // namespace opus::core
