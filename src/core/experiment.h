// End-to-end experiment harness: build a cluster + workload, run N training
// iterations, collect iteration times, traces, and reconfiguration
// statistics. Shared by the tests, the examples, and every figure bench.
//
// The fabric axis of the paper's comparison set is one field:
// ExperimentConfig::fabric (net::FabricKind) selects electrical packet
// rails, Opus's demand-driven OCS, the static pre-job ring, or the
// traffic-oblivious rotor — run_experiment builds the matching cluster and
// transport and fills the fabric-specific accounting (OCS reconfigurations
// and dark time for every photonic fabric, controller/shim stats for Opus,
// rotation/deferral counts for the rotor) into ExperimentResult.
#pragma once

#include <memory>
#include <vector>

#include "collective/transport.h"
#include "core/faults.h"
#include "core/opus_transport.h"
#include "net/cluster.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "trace/recorder.h"
#include "workload/compute_model.h"
#include "workload/engine.h"
#include "workload/iteration.h"
#include "workload/model_config.h"
#include "workload/parallelism.h"

namespace opus::core {

class RotorTransport;
class StaticRingTransport;

struct ExperimentConfig {
  workload::ModelConfig model = workload::ModelConfig::llama3_8b();
  workload::ParallelismConfig parallelism;
  /// Scale-up domain size; world_size must be a whole number of nodes.
  int gpus_per_node = 4;

  /// The scale-out fabric under test — the paper's comparison axis.
  net::FabricKind fabric = net::FabricKind::kOpusPhotonic;
  /// kRotor only: how long each matching carries traffic before rotating.
  TimeNs rotor_slot_time = msecs(1);
  /// kRotor only: consecutive matchings striped across NIC ports (see
  /// net::ClusterConfig::rotor_port_spread). The default of 2 gives
  /// RotorNet-style direct-or-two-hop routing; 1 is the classic rotor that
  /// waits for its matching.
  int rotor_port_spread = 2;
  int nic_ports = 2;
  Bandwidth nic_total_bw = Bandwidth::gbps(400);
  Bandwidth nvlink_bw = Bandwidth::gbps(2400);
  TimeNs ocs_reconfig_delay = msecs(15);
  Bandwidth mgmt_bw = Bandwidth::gbps(0);

  workload::GpuSpec gpu = workload::GpuSpec::a100();
  double mfu = 0.35;
  bool activation_recompute = true;

  workload::IterationOptions iteration;
  workload::IterationEngine::Options engine;
  bool provisioning = true;
  Bytes mgmt_offload_threshold = 0;
  int iterations = 3;
  /// Drop per-compute-span records (saves memory on large runs).
  bool record_compute_trace = true;

  /// Mid-run failure/repair churn. Disabled (zero overhead, legacy
  /// semantics) unless faults.enabled is set; then run_experiment schedules
  /// a FaultProcess, switches the cluster to fault-tolerant rescue/park
  /// semantics, and wires the per-fabric reactions (static-ring resplice,
  /// rotor drain poke; Opus re-plans per collective anyway).
  FaultConfig faults;

  /// Observability: metrics registry + periodic probe + chrome-trace export
  /// + self-profiling (src/obs). Disabled by default with strictly zero
  /// overhead; enabling it never changes any simulation result field (the
  /// determinism suite pins this).
  obs::TelemetryConfig telemetry;

  /// Field-wise equality (config/serde skips fields equal to the default).
  friend bool operator==(const ExperimentConfig&,
                         const ExperimentConfig&) = default;
};

struct ExperimentResult {
  std::vector<TimeNs> iteration_times;
  /// Mean iteration time excluding iteration 0 (Opus profiles there).
  TimeNs steady_iteration_time = 0;
  /// OCS reconfigurations and port-darkness time summed over all rails —
  /// filled for every photonic fabric (Opus's demand-driven reconfigurations
  /// and the rotor's rotations account dark time identically; a static ring
  /// never reconfigures after t=0, so both stay 0).
  std::int64_t ocs_reconfigurations = 0;
  TimeNs ocs_dark_time = 0;
  /// kRotor only: rotation rounds completed / sends that had to wait.
  /// 64-bit end to end: 4k-node rotor runs overflow 32-bit tallies.
  std::int64_t rotor_rotations = 0;
  std::int64_t rotor_deferred_sends = 0;
  OpusController::Stats controller;
  int shim_speculative_requests = 0;
  int shim_mispredictions = 0;
  std::shared_ptr<trace::TraceRecorder> recorder;
  /// Bytes moved per route class (scale-up / rail / PXN / mgmt).
  Bytes rail_bytes = 0;
  Bytes scale_up_bytes = 0;
  Bytes pxn_bytes = 0;
  Bytes mgmt_bytes = 0;
  /// Logical bytes that needed multi-hop forwarding (static topologies).
  Bytes multihop_bytes = 0;
  /// Failure churn (all zero unless config.faults.enabled).
  FaultProcess::Stats fault_stats;
  int fault_trace_size = 0;
  /// Telemetry hub (null unless config.telemetry.enabled()): finalized
  /// metrics snapshot, sampled series, chrome trace, self-profiler.
  std::shared_ptr<obs::Telemetry> telemetry;
};

/// One training job instantiated on (a node sub-range of) a shared cluster:
/// the DAG (GPU ranks offset to the span), per-job trace recorder, the
/// fabric transport scoped to the span, and the iteration engine. This is
/// the reusable per-tenant unit: run_experiment builds exactly one spanning
/// the whole cluster, and the fleet driver (src/fleet) interleaves many of
/// them on one simulator so tenants contend for the shared fluid network
/// and OCS ports.
struct Tenant {
  net::NodeSpan span;
  workload::IterationDag dag;
  std::shared_ptr<trace::TraceRecorder> recorder;
  std::unique_ptr<collective::Transport> transport;
  /// Fabric-specific views into `transport` (null for the other fabrics).
  OpusTransport* opus = nullptr;
  RotorTransport* rotor = nullptr;
  StaticRingTransport* ring = nullptr;
  std::unique_ptr<workload::IterationEngine> engine;

  /// Stops demand-driven control-plane activity (rotor rotation, Opus
  /// speculative provisioning) so the span's OCS ports can quiesce and be
  /// recycled. Idempotent; no-op for passive transports.
  void shutdown_transport();

  /// Per-fabric reaction to a fault event inside the span: the ring
  /// resplices repaired segments, the rotor re-checks its drain guards.
  /// (Opus needs nothing here — every collective re-plans around failed
  /// ports.) Safe to call for faults outside the span.
  void react_to_fault(const net::NicFault& fault);

  /// Kills the tenant mid-run (fleet eviction after a disconnecting
  /// failure): aborts the engine — completed iterations remain as the
  /// checkpoint — stops the control plane, and aborts all span traffic so
  /// no orphaned completion fires. Idempotent.
  void abort(net::Cluster& cluster);
};

/// The cluster an ExperimentConfig implies (node count derived from the
/// world size; fabric/NIC/bandwidth knobs copied through). The two-argument
/// overload sizes the cluster explicitly instead — the fleet driver hosts
/// many jobs on a cluster larger than any one of them.
net::ClusterConfig cluster_config_for(const ExperimentConfig& config);
net::ClusterConfig cluster_config_for(const ExperimentConfig& config,
                                      int n_nodes);

/// Builds one tenant of `config`'s model/parallelism on `span` of an
/// existing cluster. The span must hold exactly the job's world size. The
/// engine is constructed but not started — call engine->run(...) (fleet) or
/// engine->run_to_completion (single job).
Tenant build_tenant(sim::Simulator& sim, net::Cluster& cluster,
                    const ExperimentConfig& config, net::NodeSpan span);

/// Builds and runs the experiment to completion.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// The paper's §3.1 trace workload: Llama3-8B, TP=4 (intra-node), FSDP=2,
/// PP=2, 1F1B, microbatch size 2, on 4 nodes x 4 A100.
ExperimentConfig perlmutter_llama3_8b_config();

}  // namespace opus::core
