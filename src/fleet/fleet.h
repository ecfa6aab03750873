// Multi-tenant fleet driver: many training jobs sharing one cluster.
//
// Jobs arrive on a seeded trace (fleet/arrivals), get a contiguous node
// span from the placement engine (fleet/placement) or queue FCFS, and run
// as interleaved per-tenant iteration engines (core::build_tenant) on ONE
// simulator and ONE FluidNetwork — so tenants genuinely contend for rail
// bandwidth, and on photonic fabrics each tenant's transport reconfigures
// only its own OCS port block (enforced by the switches' port-ownership
// guard). When a job finishes, its control plane is shut down, its ports
// quiesce and are wiped, its span is released, and queued jobs are placed.
//
// Per job the driver reports JCT, queueing delay, slowdown versus an
// isolated run of the same job (computed as a parallel run_sweep of
// single-tenant cells), per-route byte totals (conservation: a tenant's
// rail bytes match its isolated run exactly on contention-oblivious
// fabrics, and up to multi-hop accounting on the rotor), and its dark-time
// share; fleet-wide it reports makespan, node utilization, and peak
// fragmentation. run_experiment is the one-tenant special case of this
// driver.
#pragma once

#include <string>
#include <vector>

#include "common/table.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "fleet/arrivals.h"
#include "fleet/placement.h"

namespace opus::fleet {

struct FleetConfig {
  /// Shared cluster size; every other cluster knob (fabric, NIC, bandwidth,
  /// OCS delay, engine options) comes from `base`. base.model/parallelism/
  /// iterations are overridden per job by the arrival trace. base.faults
  /// drives fleet-wide failure/repair churn: the driver evicts, checkpoints,
  /// and re-places jobs whose span loses a node's whole rail connectivity
  /// (isolated baselines always run fault-free).
  int n_nodes = 32;
  core::ExperimentConfig base;
  ArrivalConfig arrivals;
  PlacementPolicy policy = PlacementPolicy::kFirstFit;
  /// Run each job alone (same shape, own cluster) to compute slowdowns and
  /// byte-conservation baselines. Off: slowdown/isolated fields stay 0.
  bool isolated_baselines = true;
  /// Thread pool for the isolated-baseline sweep (the fleet run itself is
  /// one simulator and always single-threaded). Its use_shard must stay
  /// off — run_fleet rejects it: sharding a fleet is `use_shard` below.
  core::SweepOptions baseline_sweep;
  /// Opt into process-level *timeline* sharding (OPUS_SWEEP_SHARD=i/N):
  /// every shard simulates the full shared-cluster timeline (tenants
  /// interact, so the simulation itself cannot split), but isolated
  /// baselines — the per-job independent sweep that dominates cost at
  /// 4096-node scale — run only for jobs with id % N == i, and
  /// fleet_job_table() emits only those jobs' rows. N processes regenerate
  /// one fleet table cooperatively; scripts/merge_sweep_tables.py
  /// interleaves their rows back into the unsharded table, bit-identically
  /// (the simulated timeline is deterministic, so shards agree on every
  /// shared column). Unowned jobs' isolated/slowdown fields stay 0.
  /// Tests leave this off — a shard variable must never skip their jobs.
  bool use_shard = false;

  /// Field-wise equality (config/serde skips fields equal to the default).
  friend bool operator==(const FleetConfig&, const FleetConfig&) = default;
};

struct FleetJobResult {
  JobSpec spec;
  bool rejected = false;       ///< footprint exceeds the whole cluster
  net::NodeSpan placement;
  TimeNs start = 0;            ///< placement instant
  TimeNs finish = 0;
  std::vector<TimeNs> iteration_times;

  TimeNs queueing_delay() const { return start - spec.arrival; }
  TimeNs jct() const { return finish - spec.arrival; }
  TimeNs service_time() const { return finish - start; }

  /// Isolated-run totals (zero when baselines are disabled).
  TimeNs isolated_time = 0;
  /// jct / isolated_time (1.0 = no queueing and no contention; 0 when
  /// baselines are disabled).
  double slowdown = 0.0;

  /// Per-tenant byte accounting over the shared cluster.
  Bytes rail_bytes = 0;
  Bytes scale_up_bytes = 0;
  Bytes pxn_bytes = 0;
  Bytes mgmt_bytes = 0;
  Bytes multihop_bytes = 0;
  /// Isolated-run byte totals for conservation checks.
  Bytes isolated_rail_bytes = 0;
  Bytes isolated_multihop_bytes = 0;

  /// kRotor tenants: this tenant's sub-rotor counters.
  std::int64_t rotor_rotations = 0;
  std::int64_t rotor_deferred_sends = 0;

  /// Dark time accumulated on the tenant's OCS ports while it ran, and its
  /// share of the tenant's port-time (ports x rails x service time).
  TimeNs dark_time = 0;
  double dark_share = 0.0;

  // ---- failure-churn accounting (all zero on a fault-free run) ------------
  /// NIC-port failures that landed inside the job's span while it ran.
  int ports_lost = 0;
  /// Eviction -> checkpoint -> re-queue -> re-place cycles the job survived
  /// (a job is evicted when a failure disconnects one of its nodes).
  int replacements = 0;
  /// Productive fraction of the job's wall presence: completed-iteration
  /// time / service_time(). 1.0 means no time lost to degraded stalls,
  /// eviction gaps, or re-placement queueing; 0 when never placed.
  double availability = 0.0;
};

struct FleetResult {
  FleetConfig config;
  /// The timeline shard this run computed baselines for ({0, 1} — whole
  /// timeline — unless config.use_shard resolved an active
  /// OPUS_SWEEP_SHARD). fleet_job_table() scopes its rows to this.
  core::SweepShard shard;
  std::vector<FleetJobResult> jobs;  ///< in arrival (job id) order
  TimeNs makespan = 0;               ///< last finish instant
  /// Node-time actually occupied / (n_nodes x makespan).
  double utilization = 0.0;
  /// Max over placement events of the allocator's fragmentation metric.
  double peak_fragmentation = 0.0;
  int peak_free_extents = 0;
  int rejected_jobs = 0;
  /// Telemetry hub (null unless config.base.telemetry.enabled()): finalized
  /// metrics snapshot, sampled fleet/fabric series, chrome trace with
  /// lifecycle instants and per-job tenant tracks, self-profiler.
  std::shared_ptr<obs::Telemetry> telemetry;
};

/// Runs the fleet to completion (deterministic: bit-identical across reruns
/// and baseline-sweep thread counts).
FleetResult run_fleet(const FleetConfig& cfg);

/// Per-job results as a common/table TextTable (the fleet analogue of the
/// figure benches' paper-style tables). A timeline-sharded result emits
/// only its own shard's rows (job id % N == i) so per-shard outputs
/// interleave back into the full table.
TextTable fleet_job_table(const FleetResult& result);

/// Mean and p99 (nearest-rank) of the placed jobs' slowdowns.
struct SlowdownStats {
  double mean = 0.0;
  double p99 = 0.0;
};
SlowdownStats fleet_slowdown_stats(const FleetResult& result);

}  // namespace opus::fleet
