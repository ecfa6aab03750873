#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <numeric>

#include "common/error.h"
#include "common/profile.h"
#include "common/units.h"
#include "core/rotor.h"

namespace opus::fleet {

namespace {

core::ExperimentConfig job_experiment_config(const FleetConfig& cfg,
                                             const JobSpec& spec) {
  core::ExperimentConfig c = cfg.base;
  c.model = spec.shape.model;
  c.parallelism = spec.shape.parallelism;
  c.iterations = spec.iterations;
  c.engine.seed = spec.engine_seed;
  // Isolated baselines (this config's only consumer besides the per-tenant
  // build, which ignores the field) are the fault-free yardstick: churn is a
  // property of the shared fleet, not of the job.
  c.faults = core::FaultConfig{};
  // Telemetry belongs to the shared fleet run: baselines stay instrumentation
  // -free (also keeps the single-threaded SelfProfiler off the sweep pool).
  c.telemetry = obs::TelemetryConfig{};
  return c;
}

/// The event-driven fleet state machine: arrival -> place-or-queue -> run ->
/// shutdown -> quiesce -> wipe/release -> place queued. Under failure churn
/// a second loop closes over it: fault -> degrade (or evict + checkpoint ->
/// re-queue -> re-place) -> repair -> pump. All members are plain references
/// into run_fleet's stack frame; the driver outlives the simulation loop.
struct Driver {
  const FleetConfig& cfg;
  sim::Simulator& sim;
  net::Cluster& cluster;
  PlacementEngine& placement;
  FleetResult& result;
  std::vector<std::unique_ptr<core::Tenant>>& tenants;
  std::deque<int> queue;               // FCFS job indices awaiting nodes
  std::vector<TimeNs> dark_at_start;   // per-job span dark-time snapshot
  /// Evicted tenants parked until end of run: their aborted engines and
  /// transports may still be named by in-flight simulator events, so they
  /// must outlive the simulation even after the job re-placed into a fresh
  /// tenant object.
  std::vector<std::unique_ptr<core::Tenant>> graveyard = {};
  /// Telemetry hub (null when disabled): lifecycle instants + fleet gauges.
  obs::Telemetry* tel = nullptr;

  void lifecycle(const char* kind, int job) const {
    if (tel != nullptr) tel->on_fleet_event(kind, job, sim.now());
  }

  void on_arrival(int i) {
    FleetJobResult& jr = result.jobs[static_cast<std::size_t>(i)];
    const int nodes = jr.spec.shape.n_nodes(cfg.base.gpus_per_node);
    lifecycle("arrive", i);
    if (nodes > cfg.n_nodes) {
      jr.rejected = true;
      ++result.rejected_jobs;
      lifecycle("reject", i);
      return;
    }
    // Strict FCFS: an arrival may not overtake already-queued jobs.
    if (!queue.empty() || !try_place(i)) queue.push_back(i);
  }

  bool span_healthy(net::NodeSpan span) const {
    for (int n = span.first; n < span.end(); ++n) {
      if (cluster.node_disconnected(NodeId{n})) return false;
    }
    return true;
  }

  bool try_place(int i) {
    FleetJobResult& jr = result.jobs[static_cast<std::size_t>(i)];
    const int nodes = jr.spec.shape.n_nodes(cfg.base.gpus_per_node);
    const auto span = placement.allocate(nodes);
    if (!span.has_value()) return false;
    // Never place onto a span with a fully disconnected node — the job
    // would be evicted at its first send. Give the extent back and wait;
    // the repair that reconnects the node pumps the queue again.
    if (!span_healthy(*span)) {
      placement.release(*span);
      return false;
    }
    result.peak_fragmentation =
        std::max(result.peak_fragmentation, placement.fragmentation());
    result.peak_free_extents =
        std::max(result.peak_free_extents, placement.free_extent_count());

    jr.placement = *span;
    lifecycle(jr.replacements > 0 ? "re-place" : "place", i);
    // A re-placement after eviction keeps the original start: queueing
    // delay measures the first wait, availability absorbs the gaps.
    if (jr.start == 0 && jr.replacements == 0) jr.start = sim.now();
    cluster.assign_tenant(jr.spec.id, *span);
    dark_at_start[static_cast<std::size_t>(i)] =
        cluster.photonic() ? cluster.ocs_dark_time_in_span(*span) : 0;

    auto& tenant = tenants[static_cast<std::size_t>(i)];
    tenant = std::make_unique<core::Tenant>(core::build_tenant(
        sim, cluster, job_experiment_config(cfg, jr.spec), *span));
    // Checkpoint semantics: iterations completed before an eviction are
    // banked in jr.iteration_times; the fresh tenant runs only the rest.
    const int remaining =
        jr.spec.iterations - static_cast<int>(jr.iteration_times.size());
    tenant->engine->run(tenant->dag, remaining, [this, i] { on_job_done(i); });
    return true;
  }

  void on_job_done(int i) {
    FleetJobResult& jr = result.jobs[static_cast<std::size_t>(i)];
    core::Tenant& tenant = *tenants[static_cast<std::size_t>(i)];
    jr.finish = sim.now();
    lifecycle("finish", i);
    bank_progress(jr, tenant);
    // Stop the tenant's control plane FIRST (synchronously): the very event
    // that completed the job may still trigger a trailing rotor rotation or
    // a speculative Opus request once this callback returns.
    tenant.shutdown_transport();
    cluster.quiesce_span_ports(tenant.span, [this, i] { recycle(i); });
  }

  /// Banks the tenant's completed iterations (the checkpoint) and its
  /// rotor counters into the job's result.
  static void bank_progress(FleetJobResult& jr, const core::Tenant& tenant) {
    for (const TimeNs t : tenant.engine->iteration_times()) {
      jr.iteration_times.push_back(t);
    }
    if (tenant.rotor != nullptr) {
      jr.rotor_rotations += tenant.rotor->rotations();
      jr.rotor_deferred_sends += tenant.rotor->deferred_sends();
    }
  }

  /// Banks the OCS dark time job `i`'s span accrued since placement.
  void bank_dark_time(int i) {
    if (!cluster.photonic()) return;
    FleetJobResult& jr = result.jobs[static_cast<std::size_t>(i)];
    jr.dark_time += cluster.ocs_dark_time_in_span(jr.placement) -
                    dark_at_start[static_cast<std::size_t>(i)];
  }

  void recycle(int i) {
    bank_dark_time(i);
    const net::NodeSpan span =
        result.jobs[static_cast<std::size_t>(i)].placement;
    cluster.release_tenant(span);
    placement.release(span);
    pump_queue();
  }

  void pump_queue() {
    // Head-of-line jobs that now fit start immediately (same instant).
    while (!queue.empty() && try_place(queue.front())) queue.pop_front();
  }

  /// True while job `i` owns a span and its engine is live (between
  /// try_place and on_job_done/evict).
  bool running(int i) const {
    const auto& tenant = tenants[static_cast<std::size_t>(i)];
    return tenant != nullptr && !tenant->engine->aborted() &&
           result.jobs[static_cast<std::size_t>(i)].finish == 0;
  }

  void on_fault(const net::NicFault& fault) {
    const int id = cluster.tenant_of(fault.node);
    if (id != net::Cluster::kNoTenant && running(id)) {
      FleetJobResult& jr = result.jobs[static_cast<std::size_t>(id)];
      core::Tenant& tenant = *tenants[static_cast<std::size_t>(id)];
      if (fault.failed) {
        ++jr.ports_lost;
        tenant.react_to_fault(fault);
        // Kill criterion: a node that lost ALL ports of some rail cannot
        // carry its collectives even degraded — checkpoint and re-place.
        if (cluster.node_disconnected(fault.node)) evict(id);
      } else {
        tenant.react_to_fault(fault);  // resplice rings, poke the rotor
      }
      return;
    }
    // Repaired capacity on unowned (or draining) nodes: a queued job that
    // was blocked on an unhealthy span may fit now.
    if (!fault.failed) pump_queue();
  }

  void evict(int i) {
    FleetJobResult& jr = result.jobs[static_cast<std::size_t>(i)];
    core::Tenant& tenant = *tenants[static_cast<std::size_t>(i)];
    ++jr.replacements;
    lifecycle("evict", i);
    // Bank completed iterations (the checkpoint), then hard-stop the tenant:
    // engine callbacks become no-ops, the control plane stops, and every
    // flow touching the span is aborted so no orphaned completion fires.
    bank_progress(jr, tenant);
    tenant.abort(cluster);
    const net::NodeSpan span = jr.placement;
    bank_dark_time(i);
    graveyard.push_back(std::move(tenants[static_cast<std::size_t>(i)]));
    cluster.quiesce_span_ports(span, [this, i, span] {
      cluster.release_tenant(span);
      placement.release(span);
      // Strict FCFS would let the evicted job jump ahead of jobs that
      // queued while it ran; it re-queues at the back instead — it already
      // had its turn on the nodes it lost.
      queue.push_back(i);
      pump_queue();
    });
  }
};

}  // namespace

FleetResult run_fleet(const FleetConfig& cfg) {
  ensure(cfg.n_nodes >= 1, "fleet: cluster needs at least one node");
  // The baseline sweep shards by job id under fleet.use_shard; sharding it
  // by cell index would leave baselines missing from a full-timeline table.
  ensure(!cfg.baseline_sweep.use_shard,
         "fleet: baseline_sweep.use_shard is not supported; set "
         "fleet.use_shard to shard a fleet timeline");
  const std::vector<JobSpec> specs =
      generate_arrivals(cfg.arrivals, cfg.base.gpus_per_node);

  FleetResult result;
  result.config = cfg;
  result.shard = cfg.use_shard ? core::sweep_shard() : core::SweepShard{};
  result.jobs.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.jobs[i].spec = specs[i];
  }

  // Isolated baselines: each job alone on a cluster of its own footprint,
  // fanned across the sweep pool (independent simulators — deterministic at
  // any width). Jobs too big for the fleet's cluster will be rejected at
  // arrival and their baselines never read, so don't simulate them. Under
  // timeline sharding only the shard's own jobs get baselines — the shared
  // simulation below still runs in full (tenants interact), but this sweep
  // is the node-count-proportional part, so N shards split the heavy work.
  // The telemetry hub exists before the baseline sweep so the sweep's wall
  // time lands in the self-profile; it attaches to the shared fabric below.
  std::shared_ptr<obs::Telemetry> telemetry;
  if (cfg.base.telemetry.enabled()) {
    telemetry = std::make_shared<obs::Telemetry>(cfg.base.telemetry);
  }

  if (cfg.isolated_baselines) {
    obs::SelfProfiler* prof =
        telemetry != nullptr ? telemetry->profiler() : nullptr;
    ProfileScope sweep_prof(
        prof, prof != nullptr ? prof->phase("fleet.baseline_sweep") : -1);
    std::vector<core::ExperimentConfig> cells;
    std::vector<std::size_t> cell_jobs;
    for (const JobSpec& spec : specs) {
      if (!result.shard.owns(static_cast<std::size_t>(spec.id))) continue;
      if (spec.shape.n_nodes(cfg.base.gpus_per_node) > cfg.n_nodes) continue;
      cells.push_back(job_experiment_config(cfg, spec));
      cell_jobs.push_back(static_cast<std::size_t>(spec.id));
    }
    const std::vector<core::ExperimentResult> isolated =
        core::run_sweep(cells, cfg.baseline_sweep);
    for (std::size_t k = 0; k < cell_jobs.size(); ++k) {
      FleetJobResult& jr = result.jobs[cell_jobs[k]];
      jr.isolated_time =
          std::accumulate(isolated[k].iteration_times.begin(),
                          isolated[k].iteration_times.end(),
                          static_cast<TimeNs>(0));
      jr.isolated_rail_bytes = isolated[k].rail_bytes;
      jr.isolated_multihop_bytes = isolated[k].multihop_bytes;
    }
  }

  // The shared world: one simulator, one cluster, one fluid network. Fabric
  // wiring is lazy by default — tenant transports wire their own spans, so
  // nothing pre-connects ports across future tenant boundaries.
  sim::Simulator sim;
  net::Cluster cluster(sim, core::cluster_config_for(cfg.base, cfg.n_nodes));
  PlacementEngine placement(cfg.n_nodes, cfg.policy);
  std::vector<std::unique_ptr<core::Tenant>> tenants(specs.size());

  Driver driver{cfg,    sim,     cluster, placement,
                result, tenants, {},      std::vector<TimeNs>(specs.size(), 0)};
  if (telemetry != nullptr) {
    driver.tel = telemetry.get();
    telemetry->attach_fabric(sim, cluster);
    if (telemetry->config().wants_metrics()) {
      obs::MetricsRegistry& m = telemetry->metrics();
      m.add_gauge("fleet.queue_depth", [&driver] {
        return static_cast<double>(driver.queue.size());
      });
      m.add_gauge("fleet.running_jobs", [&driver, n = specs.size()] {
        int running = 0;
        for (std::size_t j = 0; j < n; ++j) {
          if (driver.running(static_cast<int>(j))) ++running;
        }
        return static_cast<double>(running);
      });
      m.add_gauge("fleet.free_extents", [&placement] {
        return static_cast<double>(placement.free_extent_count());
      });
      m.add_gauge("fleet.fragmentation",
                  [&placement] { return placement.fragmentation(); });
    }
  }
  // Failure/repair churn: schedule the seeded fault trace against the
  // shared cluster and route every event through the driver's reaction
  // (degrade, evict + re-place, or pump the queue on repairs).
  std::unique_ptr<core::FaultProcess> faults;
  if (cfg.base.faults.enabled) {
    faults = std::make_unique<core::FaultProcess>(sim, cluster,
                                                  cfg.base.faults);
    cluster.set_fault_listener(
        [&driver, &sim, tel = telemetry.get()](const net::NicFault& f) {
          if (tel != nullptr) tel->on_fault(f, sim.now());
          driver.on_fault(f);
        });
  }
  for (const JobSpec& spec : specs) {
    sim.schedule_at(spec.arrival,
                    [&driver, i = spec.id] { driver.on_arrival(i); });
  }
  if (telemetry != nullptr) telemetry->start_probe(sim);
  sim.run();
  ensure(driver.queue.empty(),
         "fleet: simulation drained with jobs still queued");

  // Post-run bookkeeping: per-tenant bytes, slowdowns, fleet aggregates.
  std::int64_t node_time = 0;
  for (FleetJobResult& jr : result.jobs) {
    if (jr.rejected) continue;
    ensure(jr.finish >= jr.start && jr.start >= jr.spec.arrival,
           "fleet: job did not complete");
    using Route = net::Cluster::Route;
    const int id = jr.spec.id;
    jr.rail_bytes = cluster.tenant_bytes_on_route(id, Route::kRail);
    jr.scale_up_bytes = cluster.tenant_bytes_on_route(id, Route::kScaleUp);
    jr.pxn_bytes = cluster.tenant_bytes_on_route(id, Route::kPxn);
    jr.mgmt_bytes = cluster.tenant_bytes_on_route(id, Route::kMgmt);
    jr.multihop_bytes =
        cluster.tenant_bytes_on_route(id, Route::kRailMultiHop);
    if (jr.isolated_time > 0) {
      jr.slowdown = static_cast<double>(jr.jct()) /
                    static_cast<double>(jr.isolated_time);
    }
    if (jr.service_time() > 0) {
      const TimeNs productive =
          std::accumulate(jr.iteration_times.begin(),
                          jr.iteration_times.end(), static_cast<TimeNs>(0));
      jr.availability = static_cast<double>(productive) /
                        static_cast<double>(jr.service_time());
    }
    const std::int64_t port_time =
        static_cast<std::int64_t>(jr.placement.count) *
        cluster.config().nic_ports * cluster.n_rails() * jr.service_time();
    if (port_time > 0) {
      jr.dark_share =
          static_cast<double>(jr.dark_time) / static_cast<double>(port_time);
    }
    result.makespan = std::max(result.makespan, jr.finish);
    node_time += static_cast<std::int64_t>(jr.placement.count) *
                 jr.service_time();
  }
  if (result.makespan > 0) {
    result.utilization =
        static_cast<double>(node_time) /
        (static_cast<double>(cfg.n_nodes) *
         static_cast<double>(result.makespan));
  }
  if (telemetry != nullptr) {
    if (telemetry->config().tracing()) {
      // One tenant process per job (pid 2 + id). An evicted-then-re-placed
      // job's track shows its last placement's tenant; iterations banked
      // before the eviction live only in jr.iteration_times.
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        if (tenants[i] == nullptr || tenants[i]->recorder == nullptr) continue;
        std::string name = "job";
        name += std::to_string(result.jobs[i].spec.id);
        name += " ";
        name += result.jobs[i].spec.shape.name;
        telemetry->trace().add_recorder(
            obs::Telemetry::kTenantPidBase + result.jobs[i].spec.id, name,
            *tenants[i]->recorder);
      }
    }
    // Must happen while sim/cluster/placement are alive: snapshots the
    // gauges and closes open circuit spans at end-of-run.
    telemetry->finalize(sim.now());
    result.telemetry = telemetry;
  }
  return result;
}

TextTable fleet_job_table(const FleetResult& result) {
  TextTable table({"Job", "Shape", "Nodes", "Span", "Arrival", "Queue",
                   "JCT", "Slowdown", "Dark%", "Rail bytes", "Multihop",
                   "Avail", "PortsLost", "Repl"});
  for (const FleetJobResult& jr : result.jobs) {
    if (!result.shard.owns(static_cast<std::size_t>(jr.spec.id))) continue;
    if (jr.rejected) {
      table.add_row({std::to_string(jr.spec.id), jr.spec.shape.name,
                     std::to_string(jr.spec.shape.n_nodes(
                         result.config.base.gpus_per_node)),
                     "-", format_time(jr.spec.arrival), "-", "rejected", "-",
                     "-", "-", "-", "-", "-", "-"});
      continue;
    }
    table.add_row(
        {std::to_string(jr.spec.id), jr.spec.shape.name,
         std::to_string(jr.placement.count),
         std::to_string(jr.placement.first) + ".." +
             std::to_string(jr.placement.end() - 1),
         format_time(jr.spec.arrival), format_time(jr.queueing_delay()),
         format_time(jr.jct()),
         jr.slowdown > 0 ? fmt_double(jr.slowdown, 2) + "x" : "-",
         fmt_double(100.0 * jr.dark_share, 2), format_bytes(jr.rail_bytes),
         format_bytes(jr.multihop_bytes),
         jr.availability > 0 ? fmt_double(jr.availability, 3) : "-",
         std::to_string(jr.ports_lost), std::to_string(jr.replacements)});
  }
  return table;
}

SlowdownStats fleet_slowdown_stats(const FleetResult& result) {
  std::vector<double> slowdowns;
  for (const FleetJobResult& jr : result.jobs) {
    if (!jr.rejected && jr.slowdown > 0) slowdowns.push_back(jr.slowdown);
  }
  SlowdownStats stats;
  if (slowdowns.empty()) return stats;
  stats.mean = std::accumulate(slowdowns.begin(), slowdowns.end(), 0.0) /
               static_cast<double>(slowdowns.size());
  std::sort(slowdowns.begin(), slowdowns.end());
  // Nearest-rank p99: the ceil(0.99 n)-th smallest.
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(slowdowns.size())));
  stats.p99 = slowdowns[std::min(rank, slowdowns.size()) - 1];
  return stats;
}

}  // namespace opus::fleet
