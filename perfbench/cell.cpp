// perfbench_cell: runs ONE simulation of a benchmark workload and prints
// one JSON line describing it. perfbench/run.py spawns one process per
// simulation so it can enforce a deadline (kill + count as failed) and read
// each simulation's peak RSS in isolation.
//
//   perfbench_cell --workload <name> --size full|tiny --seed <n>
//                  --index <k> --mode run|count
//
// Every measurement is taken from outside the program, through public
// calls: the cell times config resolution, the net::Cluster constructor,
// core::build_tenant, run_experiment / run_fleet and json::dump itself, and
// reads public counters (Simulator, FluidNetwork, OCS, controller, result
// structs, the telemetry snapshot and SelfProfiler phases).
//
// Modes:
//   run    the timed, telemetry-off simulation: repeated set-ups, then
//          run_experiment / run_fleet, the deterministic result document
//          and the per-seed property checks.
//   count  the traced simulation: telemetry metrics + self-profiling on,
//          per-layer counters out. For experiment workloads it drives the
//          same steps as run_experiment (fault-free path) on a simulator
//          and cluster it owns, so Simulator/FluidNetwork/OCS counters that
//          run_experiment does not return stay readable.
// Both modes print the simulation's iteration times; run.py fails a traced
// simulation whose times differ from the timed one at the same index, so
// the counters always describe the simulation that was timed.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <system_error>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "config/runner.h"
#include "config/serde.h"
#include "core/experiment.h"
#include "core/faults.h"
#include "core/rotor.h"
#include "fleet/arrivals.h"
#include "fleet/fleet.h"
#include "obs/telemetry.h"

namespace {

using namespace opus;
using json::Value;
using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

struct Args {
  std::string workload;
  bool tiny = false;
  std::uint64_t seed = 0;
  int index = 0;
  bool count = false;
};

/// Set-ups timed per simulation; run.py reports the median over all of a
/// run's set-ups. A set-up takes 5-25 ms, and on a shared host single timings
/// of it swing by up to 3x, so an experiment repeats its set-up for about a
/// second. A fleet timeline sets up fewer times because the fleet workload
/// runs 96 of them.
constexpr int kExperimentSetupReps = 40;
constexpr int kFleetSetupReps = 5;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_cell: %s\nusage: perfbench_cell --workload <name> "
               "--size full|tiny --seed <n> --index <k> --mode run|count\n",
               msg);
  std::exit(2);
}

template <typename T>
T parse_number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) usage(("bad number " + text).c_str());
  return value;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--size") {
      if (val != "full" && val != "tiny") usage("bad --size");
      a.tiny = val == "tiny";
    } else if (key == "--seed") {
      a.seed = parse_number<std::uint64_t>(val);
    } else if (key == "--index") {
      a.index = parse_number<int>(val);
    } else if (key == "--mode") {
      if (val != "run" && val != "count") usage("bad --mode");
      a.count = val == "count";
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.index < 0) usage("bad --index");
  return a;
}

// ---- workload definitions ---------------------------------------------------

/// SplitMix64: simulations derive their seeds from the benchmark seed with
/// it, so no seed value is hand-picked.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// 31-bit seed for simulation `index`, stream `stream` (0 is the engine or
/// arrivals seed, 1 the faults seed).
std::int64_t derived_seed(std::uint64_t seed, int index, int stream) {
  return static_cast<std::int64_t>(
      mix(mix(seed) + 2 * static_cast<std::uint64_t>(index) +
          static_cast<std::uint64_t>(stream)) >>
      33);
}

bool is_fleet(const std::string& workload) {
  return workload == "fleet_churn";
}

Value obj(std::initializer_list<std::pair<const char*, Value>> entries) {
  Value o = Value::object();
  for (const auto& [key, value] : entries) o.set(key, value);
  return o;
}

/// The opus_run spec text for simulation `index` of a workload. Experiment
/// workloads are Table-3 cells (dp = nodes / 2) on one fabric. Simulation 0
/// runs at engine.seed = --seed and the others at derived seeds, so a run
/// that fits several simulations averages over seeds. The fleet workload is
/// fleet_churn_cell(opus, churn, smoke = false), i.e. the smoke preset grown
/// to 32 nodes / 16 jobs / 96 failures, with derived seeds. Tiny sizes
/// (8-node cells, the smoke fleet) exist for the self-test.
std::string spec_text(const Args& a) {
  if (is_fleet(a.workload)) {
    Value arrivals = obj({{"seed", Value(derived_seed(a.seed, a.index, 0))}});
    Value faults = obj({{"seed", Value(derived_seed(a.seed, a.index, 1))}});
    Value fleet = obj({{"baseline_sweep", obj({{"threads", Value(1)}})}});
    if (!a.tiny) {
      fleet.set("n_nodes", Value(32));
      arrivals.set("n_jobs", Value(16));
      faults.set("max_failures", Value(96));
    }
    fleet.set("arrivals", std::move(arrivals));
    fleet.set("base", obj({{"faults", std::move(faults)}}));
    return json::dump(obj({{"mode", Value("fleet")},
                           {"preset", Value("fleet_churn_opus")},
                           {"fleet", std::move(fleet)}}),
                      0);
  }
  const char* fabric = nullptr;
  int nodes = 0;
  if (a.workload == "opus_512") {
    fabric = "opus", nodes = 512;
  } else if (a.workload == "rotor_512") {
    fabric = "rotor", nodes = 512;
  } else if (a.workload == "ring_256") {
    fabric = "ring", nodes = 256;
  } else {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (a.tiny) nodes = 8;
  const std::int64_t seed = a.index == 0 ? static_cast<std::int64_t>(a.seed)
                                         : derived_seed(a.seed, a.index, 0);
  return json::dump(
      obj({{"mode", Value("experiment")},
           {"preset", Value("table3_opus_512")},
           {"experiment",
            obj({{"fabric", Value(fabric)},
                 {"parallelism", obj({{"dp", Value(nodes / 2)}})},
                 {"engine", obj({{"seed", Value(seed)}})}})}}),
      0);
}

// ---- set-up: config resolution through the constructors ----------------------

struct SetupTimes {
  std::int64_t resolve_ns = 0;
  std::int64_t construct_ns = 0;
  std::int64_t tenant_ns = 0;
  std::int64_t total() const { return resolve_ns + construct_ns + tenant_ns; }
};

config::RunSpec resolve_spec(const std::string& text) {
  return config::parse_run_spec(json::parse(text));
}

/// One set-up: resolve the spec, construct the cluster, and build the
/// tenants (the whole-cluster job of an experiment; every job of a fleet
/// timeline's arrival trace, each on the cluster's first nodes in turn).
/// Everything is destroyed again before returning.
SetupTimes time_setup(const std::string& text, bool fleet) {
  SetupTimes t;
  auto t0 = Clock::now();
  const config::RunSpec spec = resolve_spec(text);
  std::vector<core::ExperimentConfig> jobs;
  net::ClusterConfig ccfg;
  if (fleet) {
    const fleet::FleetConfig fc = config::resolve_fleet(spec);
    for (const fleet::JobSpec& a :
         fleet::generate_arrivals(fc.arrivals, fc.base.gpus_per_node)) {
      core::ExperimentConfig job = fc.base;
      job.model = a.shape.model;
      job.parallelism = a.shape.parallelism;
      jobs.push_back(std::move(job));
    }
    ccfg = core::cluster_config_for(fc.base, fc.n_nodes);
  } else {
    jobs.push_back(config::resolve_experiment(spec));
    ccfg = core::cluster_config_for(jobs.front());
  }
  t.resolve_ns = ns_since(t0);

  t0 = Clock::now();
  sim::Simulator sim;
  net::Cluster cluster(sim, ccfg);
  t.construct_ns = ns_since(t0);

  t0 = Clock::now();
  for (const core::ExperimentConfig& job : jobs) {
    const int nodes = job.parallelism.world_size() / job.gpus_per_node;
    core::build_tenant(sim, cluster, job, net::NodeSpan{0, nodes});
  }
  t.tenant_ns = ns_since(t0);
  return t;
}

/// Every iteration time of the simulation, in job order for a fleet.
void append_iterations(Value& list, const std::vector<TimeNs>& iters) {
  for (TimeNs t : iters) list.push_back(Value(t));
}

Value iteration_list(const std::vector<TimeNs>& iters) {
  Value list = Value::array();
  append_iterations(list, iters);
  return list;
}

Value iteration_list(const fleet::FleetResult& r) {
  Value list = Value::array();
  for (const fleet::FleetJobResult& j : r.jobs) {
    if (!j.rejected) append_iterations(list, j.iteration_times);
  }
  return list;
}

// ---- per-layer counters -----------------------------------------------------

obs::TelemetryConfig traced_telemetry() {
  obs::TelemetryConfig tc;
  tc.metrics = true;
  tc.self_profile = true;
  // No periodic probe: its sampling events would inflate sim.events.
  tc.sample_interval = 0;
  return tc;
}

void add_phase(Value& c, obs::SelfProfiler& prof, const char* phase,
               const std::string& key) {
  const int id = prof.phase(phase);
  c.set(key + "_calls", Value(prof.calls(id)));
  c.set(key + "_ns", Value(prof.total_ns(id)));
}

double snapshot(const obs::Telemetry& tel, const char* name) {
  const Value* v = tel.final_metrics().find(name);
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

void count_experiment(const core::ExperimentConfig& cfg, Value& out,
                      std::vector<std::string>& violations) {
  // run_experiment's steps for a fault-free single job, on objects this
  // cell owns; the counters below are not part of ExperimentResult.
  if (cfg.faults.enabled) usage("count mode covers fault-free experiments");
  // Timed from construction through finalize, the span run_experiment
  // covers, so obs.overhead_pct compares like with like.
  const auto t0 = Clock::now();
  sim::Simulator sim;
  net::Cluster cluster(sim, core::cluster_config_for(cfg));
  core::Tenant tenant = core::build_tenant(
      sim, cluster, cfg, net::NodeSpan{0, cluster.n_nodes()});
  obs::Telemetry tel(traced_telemetry());
  tel.attach_fabric(sim, cluster);
  const std::vector<TimeNs> iters =
      tenant.engine->run_to_completion(tenant.dag, cfg.iterations);
  tel.finalize(sim.now());
  out.set("run_ns", Value(ns_since(t0)));
  out.set("iteration_ns", iteration_list(iters));

  Value c = Value::object();
  c.set("sim_events", Value(static_cast<std::int64_t>(sim.events_fired())));
  const net::FluidNetwork& net = cluster.network();
  c.set("fluid_solves", Value(net.solve_count()));
  c.set("fluid_solve_rounds", Value(net.solve_rounds()));
  c.set("fluid_flows_completed",
        Value(static_cast<std::int64_t>(net.completed_flow_count())));
  net::OpticalCircuitSwitch::Stats ocs;
  if (cluster.photonic()) {
    for (int r = 0; r < cluster.n_rails(); ++r) {
      const auto& s = cluster.ocs(RailId{r}).stats();
      ocs.reconfigurations += s.reconfigurations;
      ocs.circuits_established += s.circuits_established;
      ocs.cumulative_port_dark_ns += s.cumulative_port_dark_ns;
      ocs.links_retired += s.links_retired;
      ocs.batch_fallbacks += s.batch_fallbacks;
    }
  }
  c.set("ocs_reconfigurations", Value(ocs.reconfigurations));
  c.set("ocs_circuits_established", Value(ocs.circuits_established));
  c.set("ocs_dark_ns", Value(ocs.cumulative_port_dark_ns));
  c.set("ocs_links_retired", Value(ocs.links_retired));
  c.set("ocs_batch_fallbacks", Value(ocs.batch_fallbacks));
  c.set("rail_bytes",
        Value(cluster.bytes_on_route(net::Cluster::Route::kRail)));
  c.set("multihop_bytes",
        Value(cluster.bytes_on_route(net::Cluster::Route::kRailMultiHop)));
  c.set("rescued_flows", Value(cluster.rescued_flow_count()));
  c.set("parked_at_end", Value(cluster.parked_transfer_count()));

  std::int64_t comm_ns = 0;
  for (const auto& rec : tenant.recorder->comm_records()) {
    comm_ns += rec.duration();
  }
  c.set("collective_ops",
        Value(static_cast<std::int64_t>(
            tenant.recorder->comm_records().size())));
  c.set("collective_comm_ns", Value(comm_ns));

  core::OpusController::Stats ctl;
  std::int64_t spec_requests = 0, mispredictions = 0;
  if (tenant.opus != nullptr) {
    ctl = tenant.opus->controller().stats();
    spec_requests = tenant.opus->shim().speculative_requests();
    mispredictions = tenant.opus->shim().mispredictions();
  }
  c.set("opus_requests", Value(ctl.requests));
  c.set("opus_hits", Value(ctl.satisfied_immediately));
  c.set("opus_queued", Value(ctl.queued));
  c.set("opus_wait_ns", Value(ctl.total_wait));
  c.set("opus_wait_max_ns", Value(ctl.max_wait));
  c.set("opus_spec_requests", Value(spec_requests));
  c.set("opus_mispredictions", Value(mispredictions));
  const std::int64_t rotations =
      tenant.rotor != nullptr ? tenant.rotor->rotations() : 0;
  c.set("rotor_rotations", Value(rotations));
  c.set("rotor_deferred_sends",
        Value(tenant.rotor != nullptr ? tenant.rotor->deferred_sends() : 0));

  obs::SelfProfiler& prof = *tel.profiler();
  add_phase(c, prof, "sim.run", "sim_run");
  add_phase(c, prof, "fluid.recompute", "fluid_recompute");
  add_phase(c, prof, "ocs.reconfigure_batch", "ocs_batch");

  if (static_cast<int>(iters.size()) != cfg.iterations) {
    violations.push_back("count: not every iteration completed");
  }
  if (cluster.parked_transfer_count() != 0) {
    violations.push_back("count: transfers still parked at the end");
  }
  if (tenant.rotor != nullptr && rotations != ocs.reconfigurations) {
    violations.push_back("count: rotor rotations != OCS reconfigurations");
  }
  out.set("counters", std::move(c));
}

void count_fleet(fleet::FleetConfig cfg, Value& out,
                 std::vector<std::string>& violations) {
  cfg.base.telemetry = traced_telemetry();
  const auto t0 = Clock::now();
  const fleet::FleetResult result = fleet::run_fleet(cfg);
  out.set("run_ns", Value(ns_since(t0)));
  out.set("iteration_ns", iteration_list(result));
  const obs::Telemetry& tel = *result.telemetry;

  Value c = Value::object();
  c.set("fluid_solves",
        Value(static_cast<std::int64_t>(snapshot(tel, "fluid.solves"))));
  c.set("fluid_solve_rounds",
        Value(static_cast<std::int64_t>(snapshot(tel, "fluid.solve_rounds"))));
  c.set("ocs_reconfigurations",
        Value(static_cast<std::int64_t>(snapshot(tel, "ocs.reconfigurations"))));
  c.set("ocs_dark_ns",
        Value(static_cast<std::int64_t>(snapshot(tel, "ocs.dark_ns"))));
  c.set("ocs_batch_fallbacks",
        Value(static_cast<std::int64_t>(snapshot(tel, "ocs.batch_fallbacks"))));
  c.set("rescued_flows",
        Value(static_cast<std::int64_t>(snapshot(tel, "cluster.rescued_flows"))));
  const auto parked =
      static_cast<std::int64_t>(snapshot(tel, "cluster.parked_transfers"));
  c.set("parked_at_end", Value(parked));

  std::int64_t rail = 0, multihop = 0, replacements = 0, ports_lost = 0;
  for (const fleet::FleetJobResult& j : result.jobs) {
    rail += j.rail_bytes;
    multihop += j.multihop_bytes;
    replacements += j.replacements;
    ports_lost += j.ports_lost;
  }
  c.set("rail_bytes", Value(rail));
  c.set("multihop_bytes", Value(multihop));
  c.set("fleet_replacements", Value(replacements));
  c.set("fleet_ports_lost", Value(ports_lost));

  obs::SelfProfiler& prof = *result.telemetry->profiler();
  add_phase(c, prof, "sim.run", "sim_run");
  add_phase(c, prof, "fluid.recompute", "fluid_recompute");
  add_phase(c, prof, "ocs.reconfigure_batch", "ocs_batch");
  add_phase(c, prof, "fleet.baseline_sweep", "fleet_baseline_sweep");

  // The fleet's FaultProcess lives inside run_fleet; replay the timeline's
  // seeded fault trace through the public FaultProcess API on an idle
  // cluster of the same shape. Injection, skip and repair outcomes depend
  // only on the trace (a skip means the target was already down), and
  // run_fleet drains every event, so the tallies match the fleet's.
  if (cfg.base.faults.enabled) {
    sim::Simulator sim;
    net::Cluster cluster(sim, core::cluster_config_for(cfg.base, cfg.n_nodes));
    core::FaultProcess faults(sim, cluster, cfg.base.faults);
    sim.run();
    c.set("faults_injected", Value(faults.stats().failures_injected));
    c.set("faults_repaired", Value(faults.stats().repairs_completed));
    c.set("faults_skipped", Value(faults.stats().failures_skipped));
  }
  if (parked != 0) {
    violations.push_back("count: transfers still parked at the end");
  }
  out.set("counters", std::move(c));
}

// ---- the timed run ----------------------------------------------------------

/// Steady iteration time of one job: mean excluding the profiling iteration
/// 0, as ExperimentResult::steady_iteration_time defines it.
TimeNs steady(const std::vector<TimeNs>& iters) {
  if (iters.size() < 2) return iters.empty() ? 0 : iters.front();
  TimeNs sum = 0;
  for (std::size_t i = 1; i < iters.size(); ++i) sum += iters[i];
  return sum / static_cast<TimeNs>(iters.size() - 1);
}

/// Builds the deterministic result document (config echo + result), times
/// its json::dump, and stores it with the simulation's run time.
template <typename Config, typename Result>
void record_document(const Config& cfg, const Result& r, std::int64_t run_ns,
                     Value& out) {
  const auto t0 = Clock::now();
  Value doc = Value::object();
  doc.set("config", config::to_json(cfg));
  doc.set("result", config::to_json(r));
  const std::string text = json::dump(doc, 0);
  out.set("dump_ns", Value(ns_since(t0)));
  out.set("run_ns", Value(run_ns));
  out.set("document", Value(text));
}

void run_experiment_cell(const core::ExperimentConfig& cfg, Value& out,
                         std::vector<std::string>& violations) {
  const auto t0 = Clock::now();
  const core::ExperimentResult r = core::run_experiment(cfg);
  record_document(cfg, r, ns_since(t0), out);
  out.set("iteration_ns", iteration_list(r.iteration_times));

  Value s = Value::object();
  s.set("steady_iteration_ns", Value(r.steady_iteration_time));
  out.set("summary", std::move(s));

  if (static_cast<int>(r.iteration_times.size()) != cfg.iterations ||
      std::any_of(r.iteration_times.begin(), r.iteration_times.end(),
                  [](TimeNs t) { return t <= 0; })) {
    violations.push_back("not every iteration completed");
  }
  if (cfg.fabric == net::FabricKind::kRotor && !cfg.faults.enabled &&
      r.rotor_rotations != r.ocs_reconfigurations) {
    violations.push_back("rotor rotations != OCS reconfigurations");
  }
}

void run_fleet_cell(const fleet::FleetConfig& cfg, Value& out,
                    std::vector<std::string>& violations) {
  const auto t0 = Clock::now();
  const fleet::FleetResult r = fleet::run_fleet(cfg);
  record_document(cfg, r, ns_since(t0), out);
  out.set("iteration_ns", iteration_list(r));

  Value jobs = Value::array();
  for (const fleet::FleetJobResult& j : r.jobs) {
    if (j.rejected) continue;
    if (static_cast<int>(j.iteration_times.size()) != j.spec.iterations) {
      violations.push_back("job " + std::to_string(j.spec.id) +
                           ": not every iteration completed");
    }
    Value jv = Value::object();
    jv.set("slowdown", Value(j.slowdown));
    jv.set("availability", Value(j.availability));
    jv.set("steady_iteration_ns", Value(steady(j.iteration_times)));
    jobs.push_back(std::move(jv));
  }
  Value s = Value::object();
  s.set("jobs", std::move(jobs));
  out.set("summary", std::move(s));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bool fleet = is_fleet(args.workload);
  const std::string text = spec_text(args);

  Value out = Value::object();
  std::vector<std::string> violations;
  std::optional<Clock::time_point> run_start;
  try {
    Value resolve = Value::array(), construct = Value::array(),
          tenant = Value::array(), setup = Value::array();
    const int reps = fleet ? kFleetSetupReps : kExperimentSetupReps;
    for (int i = 0; i < reps; ++i) {
      const SetupTimes t = time_setup(text, fleet);
      resolve.push_back(Value(t.resolve_ns));
      construct.push_back(Value(t.construct_ns));
      tenant.push_back(Value(t.tenant_ns));
      setup.push_back(Value(t.total()));
    }
    out.set("setup_ns", std::move(setup));
    out.set("resolve_ns", std::move(resolve));
    out.set("construct_ns", std::move(construct));
    out.set("build_tenant_ns", std::move(tenant));

    const config::RunSpec spec = resolve_spec(text);
    run_start = Clock::now();
    if (args.count && fleet) {
      count_fleet(config::resolve_fleet(spec), out, violations);
    } else if (args.count) {
      count_experiment(config::resolve_experiment(spec), out, violations);
    } else if (fleet) {
      run_fleet_cell(config::resolve_fleet(spec), out, violations);
    } else {
      run_experiment_cell(config::resolve_experiment(spec), out, violations);
    }
    out.set("ok", Value(true));
  } catch (const std::exception& e) {
    out.set("ok", Value(false));
    out.set("error", Value(std::string(e.what())));
    // What the failed simulation cost before it threw.
    if (run_start) out.set("run_ns", Value(ns_since(*run_start)));
  }

  Value v = Value::array();
  for (const std::string& s : violations) v.push_back(Value(s));
  out.set("violations", std::move(v));
  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  out.set("max_rss_kb", Value(static_cast<std::int64_t>(usage_self.ru_maxrss)));
  std::printf("%s\n", json::dump(out, 0).c_str());
  return 0;
}
