#include "collective/analysis.h"

#include <algorithm>
#include <set>

namespace opus::collective {

TimeNs predicted_time(const CompiledCollective& cc, Bytes payload,
                      AlphaBeta cost) {
  const Bytes unit = cc.unit_bytes(payload);
  TimeNs total = 0;
  for (int s = 0; s < cc.n_steps; ++s) {
    const auto step = cc.step(s);
    if (step.empty()) continue;
    int largest = 0;
    for (int ti : step) {
      largest = std::max(largest,
                         cc.transfers[static_cast<std::size_t>(ti)].units);
    }
    total += cost.alpha + transfer_time(largest * unit, cost.bw);
  }
  return total;
}

int peer_changing_steps(const CompiledCollective& cc) {
  int changes = 0;
  std::set<std::pair<int, int>> prev;
  for (int s = 0; s < cc.n_steps; ++s) {
    const auto step = cc.step(s);
    if (step.empty()) continue;
    std::set<std::pair<int, int>> cur;
    for (int ti : step) {
      const UnitTransfer& t = cc.transfers[static_cast<std::size_t>(ti)];
      // Circuits are bidirectional: (a,b) and (b,a) share one circuit.
      cur.emplace(std::min(t.src, t.dst), std::max(t.src, t.dst));
    }
    // A step needs reconfiguration if it uses any circuit not already up.
    if (!std::includes(prev.begin(), prev.end(), cur.begin(), cur.end())) {
      ++changes;
      prev = cur;
    }
  }
  return changes;
}

TimeNs predicted_time_with_reconfig(const CompiledCollective& cc,
                                    Bytes payload, AlphaBeta cost,
                                    TimeNs reconfig) {
  return predicted_time(cc, payload, cost) +
         reconfig * static_cast<TimeNs>(peer_changing_steps(cc));
}

}  // namespace opus::collective
