// Analytic alpha-beta cost model for compiled collectives.
//
// Used to cross-check the simulator (tests) and to reason about the
// latency/bandwidth tradeoff that motivates constraint C1: ring algorithms
// are bandwidth-optimal but pay O(n) latency terms; logarithmic algorithms
// pay O(log n) latency terms but need peer diversity a circuit fabric cannot
// hold simultaneously.
#pragma once

#include "collective/compiled.h"
#include "common/units.h"

namespace opus::collective {

/// Per-hop cost parameters: `alpha` is the fixed per-transfer latency,
/// `bw` the per-rank link bandwidth.
struct AlphaBeta {
  TimeNs alpha = 0;
  Bandwidth bw = Bandwidth::gbps(400);
};

/// Step-synchronous critical-path estimate of a run of `cc` at `payload`
/// bytes: sum over steps of (alpha + largest transfer in the step / bw),
/// where a transfer of u units sends u x cc.unit_bytes(payload). Exact for
/// ring pipelines on dedicated circuits and for step-synchronous execution.
TimeNs predicted_time(const CompiledCollective& cc, Bytes payload,
                      AlphaBeta cost);

/// Same, but adds `reconfig` once per step whose peer set differs from the
/// previous step's — the penalty a circuit fabric pays for running a
/// peer-changing (logarithmic or pairwise) algorithm (C1).
TimeNs predicted_time_with_reconfig(const CompiledCollective& cc,
                                    Bytes payload, AlphaBeta cost,
                                    TimeNs reconfig);

/// Number of steps whose (src,dst) peer-pair set differs from the previous
/// step's (the first step counts if it has any transfer): how many circuit
/// reconfigurations a static-port fabric would need to run this schedule
/// when the whole peer graph does not fit the NIC port budget.
int peer_changing_steps(const CompiledCollective& cc);

}  // namespace opus::collective
