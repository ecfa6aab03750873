// Cross-topology regression matrix.
//
// Drives the end-to-end Experiment/Simulator pipeline across the full
// fabric axis the paper evaluates — net::FabricKind: electrical packet
// rails, Opus's demand-driven OCS circuit planner, the TPUv4-style static
// photonic ring, and the RotorNet-style traffic-oblivious rotor — crossed
// with the parallelism mixes of Tables 1/2 (DP/TP/PP traced shape,
// FSDP-only, pipeline-heavy, context parallelism, MoE expert parallelism).
//
// Every cell asserts deterministic, seed-stable invariants:
//   * completion and strictly positive iteration times;
//   * monotone virtual time (iteration spans ordered, comm records causal
//     and contained within their iteration);
//   * conservation of communicated bytes (logical scale-out payload is a
//     property of the workload, not the fabric; physical rail bytes match
//     between electrical and Opus photonic; static rings and the rotor's
//     two-hop forwarding pay a multi-hop tax, never a discount);
//   * reconfiguration-latency accounting per Fig. 8 (dark time bracketed by
//     per-port bounds, zero-latency photonic == electrical, monotone in the
//     OCS delay);
//   * inter-parallelism window counts bounded by Eq. 1.
//
// All standard cells execute once, up front, through core::run_sweep's
// thread pool (each cell owns its own Simulator, so the fan-out is safe);
// the per-cell TESTs then assert against the cached results. The
// SeedStableAcrossRuns leg re-runs its cell serially and requires the
// threaded and serial results to be bit-identical — the sweep-runner
// determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "collective/executor.h"
#include "collective/planner.h"
#include "common/error.h"
#include "core/experiment.h"
#include "core/opus_transport.h"
#include "core/rotor.h"
#include "core/sweep.h"
#include "trace/windows.h"

namespace opus {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;

// ---------------------------------------------------------------------------
// The matrix axes.
// ---------------------------------------------------------------------------

using net::FabricKind;
using net::fabric_name;

struct Mix {
  const char* name;
  int tp, cp, dp, pp, ep;
  int n_microbatches;
  int gpus_per_node;
  bool moe;  ///< Mixtral-style expert-parallel workload
};

// Parallelism mixes following Tables 1/2: the §3.1 traced DP/TP/PP shape,
// small-model FSDP, pipeline-heavy, context parallelism, and MoE with EP.
const Mix kMixes[] = {
    {"TracedTp4Dp2Pp2", 4, 1, 2, 2, 1, 4, 4, false},
    {"FsdpDp4Tp2", 2, 1, 4, 1, 1, 2, 2, false},
    {"PipelineTp2Dp2Pp4", 2, 1, 2, 4, 1, 4, 2, false},
    {"ContextTp2Cp2Dp2", 2, 2, 2, 1, 1, 2, 4, false},
    {"MoeEp4Dp4Tp2", 2, 1, 4, 1, 4, 2, 2, true},
};

ExperimentConfig matrix_config(const Mix& mix, FabricKind fabric) {
  ExperimentConfig cfg;
  cfg.model = mix.moe ? workload::ModelConfig::mixtral_8x7b()
                      : workload::ModelConfig::test_tiny();
  cfg.model.n_layers = mix.moe ? 4 : 8;
  cfg.parallelism.tp = mix.tp;
  cfg.parallelism.cp = mix.cp;
  cfg.parallelism.dp = mix.dp;
  cfg.parallelism.pp = mix.pp;
  cfg.parallelism.ep = mix.ep;
  cfg.parallelism.n_microbatches = mix.n_microbatches;
  cfg.parallelism.microbatch_size = 1;
  cfg.gpus_per_node = mix.gpus_per_node;
  cfg.iterations = 3;
  cfg.record_compute_trace = false;
  // Simulate TP traffic on the scale-up fabric (instead of folding it into
  // compute) so the matrix exercises the NVLink path as well.
  cfg.iteration.simulate_tp_comm = true;
  cfg.ocs_reconfig_delay = msecs(1);
  cfg.fabric = fabric;
  // Rotor defaults: 1 ms slots, RotorNet-style port spread 2 (direct or
  // two-hop forwarding) — the ExperimentConfig defaults, restated so a
  // default change cannot silently reshape the matrix.
  cfg.rotor_slot_time = msecs(1);
  cfg.rotor_port_spread = 2;
  return cfg;
}

constexpr FabricKind kFabrics[] = {FabricKind::kElectrical,
                                   FabricKind::kOpusPhotonic,
                                   FabricKind::kStaticRing, FabricKind::kRotor};

/// The cached result of one standard matrix cell. All cells run exactly once,
/// in parallel, on first access.
const ExperimentResult& matrix_result(FabricKind fabric, int mix) {
  static const std::vector<ExperimentResult> results = [] {
    std::vector<ExperimentConfig> cells;
    for (FabricKind f : kFabrics) {
      for (const Mix& m : kMixes) cells.push_back(matrix_config(m, f));
    }
    return core::run_sweep(cells);
  }();
  // Index by position in kFabrics (the cell-construction order), not by the
  // enum's numeric value, so reordering either stays correct.
  std::size_t fi = 0;
  while (fi < std::size(kFabrics) && kFabrics[fi] != fabric) ++fi;
  ensure(fi < std::size(kFabrics), "fabric missing from kFabrics");
  return results[fi * std::size(kMixes) + static_cast<std::size_t>(mix)];
}

bool has_scale_out(const Mix& mix) {
  const int nodes =
      mix.tp * mix.cp * mix.dp * mix.pp / mix.gpus_per_node;
  return nodes > 1 && (mix.dp > 1 || mix.pp > 1 || mix.cp > 1 || mix.ep > 1);
}

/// Total logical payload of the scale-out collectives of one iteration —
/// a fabric-independent property of the workload.
Bytes scale_out_payload(const ExperimentResult& r, int iteration) {
  Bytes total = 0;
  for (const auto& rec : r.recorder->scale_out_comms(iteration))
    total += rec.payload;
  return total;
}

// ---------------------------------------------------------------------------
// Per-cell invariants: fabric x parallelism mix.
// ---------------------------------------------------------------------------

class TopologyMatrix
    : public ::testing::TestWithParam<std::tuple<FabricKind, int>> {
 protected:
  FabricKind fabric() const { return std::get<0>(GetParam()); }
  int mix_index() const { return std::get<1>(GetParam()); }
  const Mix& mix() const { return kMixes[mix_index()]; }
  const ExperimentResult& result() const {
    return matrix_result(fabric(), mix_index());
  }
};

std::string matrix_param_name(
    const ::testing::TestParamInfo<TopologyMatrix::ParamType>& info) {
  return std::string(fabric_name(std::get<0>(info.param))) +
         kMixes[std::get<1>(info.param)].name;
}

TEST_P(TopologyMatrix, CompletesWithMonotoneVirtualTime) {
  const ExperimentConfig cfg = matrix_config(mix(), fabric());
  const ExperimentResult& r = result();

  ASSERT_EQ(r.iteration_times.size(),
            static_cast<std::size_t>(cfg.iterations));
  for (TimeNs t : r.iteration_times) EXPECT_GT(t, 0);
  EXPECT_GT(r.steady_iteration_time, 0);

  // Iteration spans are ordered, non-overlapping, and match the reported
  // per-iteration durations.
  const auto& spans = r.recorder->iterations();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(cfg.iterations));
  TimeNs prev_end = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].index, static_cast<int>(i));
    EXPECT_GE(spans[i].t_start, prev_end);
    EXPECT_GT(spans[i].t_end, spans[i].t_start);
    EXPECT_EQ(spans[i].duration(), r.iteration_times[i]);
    prev_end = spans[i].t_end;
  }

  // Every comm record is causal and contained in its iteration's span.
  for (const auto& rec : r.recorder->comm_records()) {
    ASSERT_GE(rec.iteration, 0);
    ASSERT_LT(rec.iteration, cfg.iterations);
    const auto& span = spans[static_cast<std::size_t>(rec.iteration)];
    EXPECT_GE(rec.t_issue, span.t_start) << rec.group_name;
    EXPECT_LE(rec.t_end, span.t_end) << rec.group_name;
    EXPECT_GE(rec.t_end, rec.t_issue) << rec.group_name;
    EXPECT_GT(rec.payload, 0) << rec.group_name;
  }
}

TEST_P(TopologyMatrix, ByteAccountingIsConsistent) {
  const ExperimentConfig cfg = matrix_config(mix(), fabric());
  const ExperimentResult& r = result();

  EXPECT_GE(r.rail_bytes, 0);
  EXPECT_GE(r.scale_up_bytes, 0);
  EXPECT_GE(r.pxn_bytes, 0);
  EXPECT_EQ(r.mgmt_bytes, 0) << "mgmt network is disabled in the matrix";
  if (has_scale_out(mix())) {
    EXPECT_GT(r.rail_bytes, 0);
    for (int iter = 0; iter < cfg.iterations; ++iter)
      EXPECT_GT(scale_out_payload(r, iter), 0);
  }
  if (mix().tp > 1) {
    EXPECT_GT(r.scale_up_bytes, 0);
  }
  // Only fabrics with static or oblivious topologies forward traffic
  // through intermediate GPUs; electrical rails are fully connected and
  // Opus reconfigures instead of forwarding.
  if (fabric() == FabricKind::kElectrical ||
      fabric() == FabricKind::kOpusPhotonic) {
    EXPECT_EQ(r.multihop_bytes, 0);
  }
}

TEST_P(TopologyMatrix, ReconfigurationAccountingMatchesFabric) {
  const ExperimentConfig cfg = matrix_config(mix(), fabric());
  const ExperimentResult& r = result();

  const int ports_per_rail =
      (cfg.parallelism.world_size() / cfg.gpus_per_node) * cfg.nic_ports;
  const TimeNs delay = cfg.ocs_reconfig_delay;

  if (fabric() == FabricKind::kRotor) {
    // The rotor reconfigures without a control plane: every rotation that
    // changed circuits darkens the touched ports for the OCS delay, through
    // exactly the same Fig. 8 accounting as Opus. (A cell whose pairs are
    // all within two live hops never needs to rotate.)
    EXPECT_EQ(r.controller.requests, 0);
    EXPECT_GE(r.rotor_rotations, r.ocs_reconfigurations);
    if (r.ocs_reconfigurations == 0) {
      EXPECT_EQ(r.ocs_dark_time, 0);
    } else {
      EXPECT_GE(r.ocs_dark_time, 2 * delay);
      EXPECT_LE(r.ocs_dark_time,
                static_cast<TimeNs>(r.ocs_reconfigurations) * ports_per_rail *
                    delay);
    }
    return;
  }
  if (fabric() != FabricKind::kOpusPhotonic) {
    // Packet switches never reconfigure; the static ring is wired pre-job
    // and held for the whole run.
    EXPECT_EQ(r.ocs_reconfigurations, 0);
    EXPECT_EQ(r.ocs_dark_time, 0);
    EXPECT_EQ(r.controller.requests, 0);
    return;
  }
  if (!has_scale_out(mix())) return;

  EXPECT_GT(r.ocs_reconfigurations, 0);
  EXPECT_GE(r.controller.requests, r.controller.reconfigurations);
  EXPECT_LE(r.controller.satisfied_immediately, r.controller.requests);
  EXPECT_GE(r.controller.total_wait, r.controller.max_wait);
  EXPECT_GE(r.controller.max_wait, 0);

  // Fig. 8 accounting: every reconfiguration darkens the touched port set
  // (>= 2 ports, one circuit) for exactly the OCS delay; no reconfiguration
  // can darken more than a whole rail.
  EXPECT_GE(r.ocs_dark_time, 2 * delay);
  EXPECT_LE(r.ocs_dark_time,
            static_cast<TimeNs>(r.ocs_reconfigurations) * ports_per_rail *
                delay);
}

TEST_P(TopologyMatrix, SeedStableAcrossRuns) {
  // `a` ran inside the threaded sweep; `b` runs serially here. Bit-identical
  // traces regardless of sweep thread count is the determinism contract.
  const ExperimentConfig cfg = matrix_config(mix(), fabric());
  const ExperimentResult& a = result();
  const ExperimentResult b = core::run_experiment(cfg);

  EXPECT_EQ(a.iteration_times, b.iteration_times);
  EXPECT_EQ(a.steady_iteration_time, b.steady_iteration_time);
  EXPECT_EQ(a.ocs_reconfigurations, b.ocs_reconfigurations);
  EXPECT_EQ(a.ocs_dark_time, b.ocs_dark_time);
  EXPECT_EQ(a.controller.requests, b.controller.requests);
  EXPECT_EQ(a.rail_bytes, b.rail_bytes);
  EXPECT_EQ(a.scale_up_bytes, b.scale_up_bytes);
  EXPECT_EQ(a.pxn_bytes, b.pxn_bytes);
  EXPECT_EQ(a.multihop_bytes, b.multihop_bytes);
  ASSERT_EQ(a.recorder->comm_records().size(),
            b.recorder->comm_records().size());
  for (std::size_t i = 0; i < a.recorder->comm_records().size(); ++i) {
    const auto& ra = a.recorder->comm_records()[i];
    const auto& rb = b.recorder->comm_records()[i];
    EXPECT_EQ(ra.t_issue, rb.t_issue) << ra.group_name;
    EXPECT_EQ(ra.t_end, rb.t_end) << ra.group_name;
    EXPECT_EQ(ra.payload, rb.payload) << ra.group_name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TopologyMatrix,
    ::testing::Combine(::testing::Values(FabricKind::kElectrical,
                                         FabricKind::kOpusPhotonic,
                                         FabricKind::kStaticRing,
                                         FabricKind::kRotor),
                       ::testing::Range(0, static_cast<int>(std::size(kMixes)))),
    matrix_param_name);

// ---------------------------------------------------------------------------
// Cross-fabric conservation: the workload's logical traffic is invariant.
// ---------------------------------------------------------------------------

class CrossFabricConservation : public ::testing::TestWithParam<int> {};

TEST_P(CrossFabricConservation, LogicalPayloadIndependentOfFabric) {
  const Mix& mix = kMixes[GetParam()];
  if (!has_scale_out(mix)) GTEST_SKIP() << "no scale-out traffic";

  const auto& electrical = matrix_result(FabricKind::kElectrical, GetParam());
  const auto& photonic = matrix_result(FabricKind::kOpusPhotonic, GetParam());
  const auto& ring = matrix_result(FabricKind::kStaticRing, GetParam());
  const auto& rotor = matrix_result(FabricKind::kRotor, GetParam());

  // Logical bytes communicated per steady iteration are a property of the
  // workload, not of the switching technology underneath.
  const Bytes expected = scale_out_payload(electrical, 1);
  ASSERT_GT(expected, 0);
  EXPECT_EQ(scale_out_payload(photonic, 1), expected);
  EXPECT_EQ(scale_out_payload(ring, 1), expected);
  EXPECT_EQ(scale_out_payload(rotor, 1), expected);

  // Physically, electrical and Opus move the same bytes over the rails
  // (circuits change connectivity, not volume) ...
  EXPECT_EQ(photonic.rail_bytes, electrical.rail_bytes);
  EXPECT_EQ(photonic.pxn_bytes, electrical.pxn_bytes);
  EXPECT_EQ(photonic.scale_up_bytes, electrical.scale_up_bytes);
  // ... while the static ring pays the §5 multi-hop forwarding tax: every
  // non-neighbour hop re-sends bytes, so rails never carry less.
  EXPECT_GE(ring.rail_bytes + ring.multihop_bytes, electrical.rail_bytes);

  // Rotor conservation: logical rail sends are identical to the other
  // fabrics, and a forwarded send traverses exactly two live hops (the
  // RotorNet direct-or-two-hop cap), so the physical rail bytes are the
  // electrical baseline plus exactly one resend of every multi-hopped byte.
  EXPECT_EQ(rotor.pxn_bytes, electrical.pxn_bytes);
  EXPECT_EQ(rotor.scale_up_bytes, electrical.scale_up_bytes);
  EXPECT_EQ(rotor.rail_bytes, electrical.rail_bytes + rotor.multihop_bytes);
}

INSTANTIATE_TEST_SUITE_P(Mixes, CrossFabricConservation,
                         ::testing::Range(0,
                                          static_cast<int>(std::size(kMixes))),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kMixes[info.param].name;
                         });

TEST(CrossFabricConservation, TracedShapeMultihopsOnStaticRing) {
  // In the traced shape the PP groups connect nodes two ring positions
  // apart, which a fixed ring can only serve by forwarding.
  const auto& ring = matrix_result(FabricKind::kStaticRing, 0);
  EXPECT_GT(ring.multihop_bytes, 0);
}

TEST(CrossFabricConservation, RotorForwardsTrafficAndConservesBytes) {
  // With port spread 2 the rotor's live topology is a union of two
  // matchings: collectives whose peers are in neither matching forward over
  // two hops. Across the matrix some traffic must take that path (the
  // forwarding tax is what distinguishes the rotor cells from Opus), and no
  // mix may forward more than its own logical rail traffic (each logical
  // send is forwarded at most once end to end).
  Bytes total_forwarded = 0;
  for (std::size_t m = 0; m < std::size(kMixes); ++m) {
    if (!has_scale_out(kMixes[m])) continue;
    const auto& rotor = matrix_result(FabricKind::kRotor, static_cast<int>(m));
    const auto& electrical =
        matrix_result(FabricKind::kElectrical, static_cast<int>(m));
    EXPECT_LE(rotor.multihop_bytes, electrical.rail_bytes) << kMixes[m].name;
    total_forwarded += rotor.multihop_bytes;
  }
  EXPECT_GT(total_forwarded, 0);
}

// ---------------------------------------------------------------------------
// Fig. 8: reconfiguration-latency accounting on the Opus fabric.
// ---------------------------------------------------------------------------

TEST(ReconfigLatencyAccounting, DarkTimeScalesWithOcsDelay) {
  // The three delay points are independent cells: sweep them in parallel.
  std::vector<ExperimentConfig> cells;
  for (double ms : {0.0, 1.0, 5.0}) {
    ExperimentConfig cfg = matrix_config(kMixes[0], FabricKind::kOpusPhotonic);
    cfg.ocs_reconfig_delay = msecs(ms);
    cells.push_back(cfg);
  }
  const auto results = core::run_sweep(cells);

  const auto& instant = results[0];
  EXPECT_EQ(instant.ocs_dark_time, 0);
  EXPECT_GT(instant.ocs_reconfigurations, 0);

  TimeNs prev_time = 0;
  TimeNs prev_dark = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto& r = results[i];
    EXPECT_GE(r.steady_iteration_time + msecs(1), prev_time)
        << "iteration time must be monotone in OCS delay (cell " << i << ")";
    EXPECT_GT(r.ocs_dark_time, prev_dark)
        << "dark time must grow with OCS delay (cell " << i << ")";
    prev_time = r.steady_iteration_time;
    prev_dark = r.ocs_dark_time;
  }
}

TEST(ReconfigLatencyAccounting, ZeroLatencyPhotonicMatchesElectrical) {
  // Fig. 8's latency-0 bar: an instantly reconfigurable OCS fabric is the
  // fully-connected baseline (up to control-plane round trips).
  ExperimentConfig p = matrix_config(kMixes[0], FabricKind::kOpusPhotonic);
  p.ocs_reconfig_delay = 0;
  const auto photonic = core::run_experiment(p);
  const auto& electrical = matrix_result(FabricKind::kElectrical, 0);
  const double ratio =
      static_cast<double>(photonic.steady_iteration_time) /
      static_cast<double>(electrical.steady_iteration_time);
  EXPECT_NEAR(ratio, 1.0, 0.1) << "photonic/electrical = " << ratio;
}

// ---------------------------------------------------------------------------
// Eq. 1: inter-parallelism window counts.
// ---------------------------------------------------------------------------

class WindowCountBound : public ::testing::TestWithParam<int> {};

TEST_P(WindowCountBound, InterParallelismWindowsRespectEq1) {
  const Mix& mix = kMixes[GetParam()];
  if (!has_scale_out(mix)) GTEST_SKIP() << "no scale-out traffic";
  const ExperimentConfig cfg = matrix_config(mix, FabricKind::kElectrical);
  const auto& r = matrix_result(FabricKind::kElectrical, GetParam());

  const std::int64_t bound = trace::window_count_estimate(
      mix.pp, cfg.model.n_layers, mix.n_microbatches, mix.cp > 1, mix.ep > 1);
  ASSERT_GT(bound, 0);

  // Eq. 1 counts steady-state 1F1B windows; the simulated schedule adds a
  // handful of warmup/cool-down phase transitions at iteration boundaries,
  // so the observed count may exceed the estimate — but never by 2x (and a
  // deep pipeline must produce at least some inter-parallelism windows).
  for (int rail = 0; rail < cfg.gpus_per_node; ++rail) {
    const auto comms = r.recorder->rail_comms(1, RailId{rail});
    if (comms.empty()) continue;
    const auto windows = trace::extract_windows(comms);
    std::int64_t inter = 0;
    for (const auto& w : windows)
      if (w.before_dim != w.after_dim) ++inter;
    EXPECT_LE(inter, 2 * bound) << "rail " << rail << ": Eq. 1 band violated";
    if (mix.pp > 1) {
      EXPECT_GT(inter, 0) << "rail " << rail
                          << ": pipeline mixes must interleave dimensions";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Mixes, WindowCountBound,
                         ::testing::Range(0,
                                          static_cast<int>(std::size(kMixes))),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kMixes[info.param].name;
                         });

// ---------------------------------------------------------------------------
// Large-scale leg: 128 nodes (Table-3 OCS radix territory), electrical and
// Opus fabrics, swept at 1 and N threads — the active-state fluid solver is
// what makes this tractable, and the traces must not depend on thread count.
// ---------------------------------------------------------------------------

TEST(LargeScaleMatrix, OneHundredTwentyEightNodeCellsAreThreadInvariant) {
  Mix big{"Dp64Pp2At128Nodes", /*tp=*/1, /*cp=*/1, /*dp=*/64, /*pp=*/2,
          /*ep=*/1, /*n_microbatches=*/4, /*gpus_per_node=*/1, /*moe=*/false};
  std::vector<ExperimentConfig> cells;
  for (FabricKind f : {FabricKind::kElectrical, FabricKind::kOpusPhotonic}) {
    ExperimentConfig cfg = matrix_config(big, f);
    cfg.model.n_layers = 4;
    cfg.iterations = 2;
    cells.push_back(cfg);
  }
  ASSERT_EQ(cells[0].parallelism.world_size() / cells[0].gpus_per_node, 128);

  core::SweepOptions serial;
  serial.threads = 1;
  core::SweepOptions threaded;
  threaded.threads = 4;
  const auto a = core::run_sweep(cells, serial);
  const auto b = core::run_sweep(cells, threaded);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (TimeNs t : a[i].iteration_times) EXPECT_GT(t, 0);
    EXPECT_GT(a[i].rail_bytes, 0);
    EXPECT_EQ(a[i].multihop_bytes, 0);
    // Bit-identical per-cell traces at 1 and 4 sweep threads.
    EXPECT_EQ(a[i].iteration_times, b[i].iteration_times);
    EXPECT_EQ(a[i].steady_iteration_time, b[i].steady_iteration_time);
    EXPECT_EQ(a[i].ocs_reconfigurations, b[i].ocs_reconfigurations);
    EXPECT_EQ(a[i].ocs_dark_time, b[i].ocs_dark_time);
    EXPECT_EQ(a[i].rail_bytes, b[i].rail_bytes);
    EXPECT_EQ(a[i].scale_up_bytes, b[i].scale_up_bytes);
    EXPECT_EQ(a[i].pxn_bytes, b[i].pxn_bytes);
    const auto& ca = a[i].recorder->comm_records();
    const auto& cb = b[i].recorder->comm_records();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t k = 0; k < ca.size(); ++k) {
      EXPECT_EQ(ca[k].t_issue, cb[k].t_issue) << ca[k].group_name;
      EXPECT_EQ(ca[k].t_end, cb[k].t_end) << ca[k].group_name;
      EXPECT_EQ(ca[k].payload, cb[k].payload) << ca[k].group_name;
    }
  }
  // The Opus cell at 128 nodes must actually exercise the OCS control plane.
  EXPECT_GT(a[1].ocs_reconfigurations, 0);
}

// ---------------------------------------------------------------------------
// Rotor collective-level leg: traffic-oblivious rotation versus demand-driven
// circuits on a single collective, isolating the fabric from the workload
// (the end-to-end rotor cells run in the TopologyMatrix above). Uses the
// classic single-matching rotor (spread 1) so the penalty measured is pure
// waiting, not forwarding.
// ---------------------------------------------------------------------------

struct RotorCase {
  collective::CollectiveType type;
  const char* name;
};

const RotorCase kRotorCases[] = {
    {collective::CollectiveType::kAllReduce, "AllReduce"},
    {collective::CollectiveType::kAllGather, "AllGather"},
    {collective::CollectiveType::kReduceScatter, "ReduceScatter"},
    {collective::CollectiveType::kAllToAll, "AllToAll"},
};

struct RotorRun {
  TimeNs duration = -1;
  int rotations = 0;
  int deferred = 0;
};

RotorRun run_rail_collective(bool rotor, collective::CollectiveType type,
                             Bytes payload) {
  const int nodes = 8;
  sim::Simulator sim;
  net::ClusterConfig ncfg;
  ncfg.fabric =
      rotor ? net::FabricKind::kRotor : net::FabricKind::kOpusPhotonic;
  ncfg.n_nodes = nodes;
  ncfg.gpus_per_node = 2;
  ncfg.nic_ports = 2;
  ncfg.ocs_reconfig_delay = usecs(10);
  net::Cluster cluster(sim, ncfg);

  std::unique_ptr<collective::Transport> transport;
  core::RotorTransport* rt = nullptr;
  if (rotor) {
    core::RotorTransport::Options opts;
    opts.slot_time = usecs(100);
    auto t = std::make_unique<core::RotorTransport>(sim, cluster, opts);
    rt = t.get();
    transport = std::move(t);
  } else {
    transport = std::make_unique<core::OpusTransport>(sim, cluster);
  }

  collective::CollectiveExecutor exec(sim, *transport);
  collective::CommGroup g;
  g.id = GroupId{1};
  g.dim = collective::ParallelismDim::kDP;
  for (int n = 0; n < nodes; ++n)
    g.ranks.push_back(cluster.gpu_at(NodeId{n}, 0));
  const auto algo = collective::choose_algorithm(type, nodes, payload, 2);
  const auto cc = collective::compile(type, algo, nodes);

  RotorRun out;
  exec.run(g, cc, payload,
           [&](const collective::CollectiveExecutor::Result& res) {
    out.duration = res.duration();
  });
  sim.run();
  if (rt != nullptr) {
    out.rotations = rt->rotations();
    out.deferred = rt->deferred_sends();
  }
  return out;
}

class RotorVsOpus : public ::testing::TestWithParam<int> {};

TEST_P(RotorVsOpus, BothFabricsCompleteAndRotorNeverWins) {
  const RotorCase& c = kRotorCases[GetParam()];
  const Bytes payload = mib(8);
  const RotorRun opus = run_rail_collective(false, c.type, payload);
  const RotorRun rotor = run_rail_collective(true, c.type, payload);

  ASSERT_GT(opus.duration, 0) << c.name;
  ASSERT_GT(rotor.duration, 0) << c.name;
  // Demand-driven circuits hold exactly what the collective needs; a rotor
  // connects each ring edge only 1/(n-1) of the time. It can tie on its
  // native AllToAll pattern but never beat Opus.
  EXPECT_GE(rotor.duration, opus.duration) << c.name;
  EXPECT_GT(rotor.rotations, 0) << c.name;
}

TEST_P(RotorVsOpus, RotorIsDeterministic) {
  const RotorCase& c = kRotorCases[GetParam()];
  const RotorRun a = run_rail_collective(true, c.type, mib(8));
  const RotorRun b = run_rail_collective(true, c.type, mib(8));
  EXPECT_EQ(a.duration, b.duration) << c.name;
  EXPECT_EQ(a.rotations, b.rotations) << c.name;
  EXPECT_EQ(a.deferred, b.deferred) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Collectives, RotorVsOpus,
                         ::testing::Range(0,
                                          static_cast<int>(
                                              std::size(kRotorCases))),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kRotorCases[info.param].name;
                         });

// ---------------------------------------------------------------------------
// 512-node multi-rail legs: all four fabrics at Table-3 radix scale (a
// 1024-port rail OCS at 2 NIC ports per GPU). The engine's cohort-coalesced
// completion events and the active-state fluid solver are what make this
// tractable. Each fabric is its own named CI leg (`-R FiveHundredTwelveNode`
// in ci.yml runs them all) so per-leg timing shows which fabric regressed;
// ctest runs every TEST in its own process, so each leg simulates only its
// own cell (memoized per process). Conservation cross-checks ride the
// photonic legs against the cheap electrical cell instead of a fifth leg
// that would re-simulate everything.
// ---------------------------------------------------------------------------

ExperimentConfig large_scale_config(FabricKind fabric) {
  // 512 nodes x 2 GPUs: TP=2 inside the scale-up domain, DP=64 x PP=8
  // across the two rails.
  const Mix big{"Tp2Dp64Pp8At512Nodes", /*tp=*/2, /*cp=*/1, /*dp=*/64,
                /*pp=*/8, /*ep=*/1, /*n_microbatches=*/8,
                /*gpus_per_node=*/2, /*moe=*/false};
  ExperimentConfig cfg = matrix_config(big, fabric);
  cfg.model.n_layers = 8;
  // One iteration keeps the slowest cells (static ring's ~64-hop
  // forwarding, the rotor's ~50k rotations) inside a CI-friendly minute;
  // every invariant asserted is per-run, not per-steady-iteration.
  cfg.iterations = 1;
  cfg.iteration.simulate_tp_comm = false;  // keep the giant cells lean
  cfg.rotor_slot_time = usecs(100);
  return cfg;
}

const ExperimentResult& large_scale_result(FabricKind fabric) {
  static std::map<FabricKind, ExperimentResult> cache;
  const auto it = cache.find(fabric);
  if (it != cache.end()) return it->second;
  const ExperimentConfig cfg = large_scale_config(fabric);
  EXPECT_EQ(cfg.parallelism.world_size() / cfg.gpus_per_node, 512);
  return cache.emplace(fabric, core::run_experiment(cfg)).first->second;
}

/// Invariants every 512-node cell satisfies regardless of fabric.
void expect_large_scale_basics(const ExperimentResult& r) {
  for (TimeNs t : r.iteration_times) EXPECT_GT(t, 0);
  EXPECT_GT(r.rail_bytes, 0);
  // TP communication is folded into compute in these lean cells, so the
  // scale-up fabric carries only PXN bridging — which this rail-aligned
  // shape never needs.
  EXPECT_EQ(r.pxn_bytes, 0);
}

int large_scale_ports_per_rail() {
  const ExperimentConfig cfg = large_scale_config(FabricKind::kElectrical);
  return (cfg.parallelism.world_size() / cfg.gpus_per_node) * cfg.nic_ports;
}

TEST(LargeScaleMatrix, FiveHundredTwelveNodeElectrical) {
  const auto& electrical = large_scale_result(FabricKind::kElectrical);
  expect_large_scale_basics(electrical);
  EXPECT_EQ(electrical.multihop_bytes, 0);
  EXPECT_EQ(electrical.ocs_reconfigurations, 0);
}

TEST(LargeScaleMatrix, FiveHundredTwelveNodeOpus) {
  const auto& opus = large_scale_result(FabricKind::kOpusPhotonic);
  expect_large_scale_basics(opus);
  EXPECT_EQ(opus.multihop_bytes, 0) << "Opus reconfigures, never forwards";
  EXPECT_GT(opus.ocs_reconfigurations, 0);
  const ExperimentConfig cfg = large_scale_config(FabricKind::kOpusPhotonic);
  EXPECT_GE(opus.ocs_dark_time, 2 * cfg.ocs_reconfig_delay);
  EXPECT_LE(opus.ocs_dark_time,
            static_cast<TimeNs>(opus.ocs_reconfigurations) *
                large_scale_ports_per_rail() * cfg.ocs_reconfig_delay);
  // Conservation: demand-driven circuits carry exactly the electrical
  // fabric's logical traffic — no forwarding tax, no discount.
  const auto& electrical = large_scale_result(FabricKind::kElectrical);
  EXPECT_EQ(opus.rail_bytes, electrical.rail_bytes);
}

TEST(LargeScaleMatrix, FiveHundredTwelveNodeStaticRing) {
  // The fluid-registry stress leg: ~64-hop store-and-forward chains drive
  // millions of max-min re-solves (the dense slot-indexed registry and the
  // completion heap are what keep this cell inside the CI budget).
  const auto& ring = large_scale_result(FabricKind::kStaticRing);
  expect_large_scale_basics(ring);
  EXPECT_GT(ring.multihop_bytes, 0) << "a fixed ring must forward";
  EXPECT_EQ(ring.ocs_reconfigurations, 0) << "wired once, never again";
  // Conservation: the ring pays (only) its forwarding tax on top of the
  // logical traffic the electrical fabric carries.
  const auto& electrical = large_scale_result(FabricKind::kElectrical);
  EXPECT_GE(ring.rail_bytes + ring.multihop_bytes, electrical.rail_bytes);
}

TEST(LargeScaleMatrix, FiveHundredTwelveNodeRotor) {
  const auto& rotor = large_scale_result(FabricKind::kRotor);
  expect_large_scale_basics(rotor);
  EXPECT_GT(rotor.multihop_bytes, 0);
  EXPECT_GE(rotor.rotor_rotations, rotor.ocs_reconfigurations);
  if (rotor.ocs_reconfigurations > 0) {
    const ExperimentConfig cfg = large_scale_config(FabricKind::kRotor);
    EXPECT_GE(rotor.ocs_dark_time, 2 * cfg.ocs_reconfig_delay);
    EXPECT_LE(rotor.ocs_dark_time,
              static_cast<TimeNs>(rotor.ocs_reconfigurations) *
                  large_scale_ports_per_rail() * cfg.ocs_reconfig_delay);
  }
  // Rotor conservation is exact: every forwarded byte crosses the rail
  // twice, so rail bytes equal the electrical fabric's plus the multi-hop
  // bytes.
  const auto& electrical = large_scale_result(FabricKind::kElectrical);
  EXPECT_EQ(rotor.rail_bytes, electrical.rail_bytes + rotor.multihop_bytes);
}

}  // namespace
}  // namespace opus
