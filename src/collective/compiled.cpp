#include "collective/compiled.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace opus::collective {
namespace {

/// Turns per-row counts stored at begin[i + 1] into CSR row offsets.
void counts_to_offsets(std::vector<int>& begin) {
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
}

/// Sorts (unless they already ascend, as every ring step's do) and
/// deduplicates pairs[from..].
void sort_unique(std::vector<std::pair<int, int>>& pairs, std::size_t from) {
  const auto first = pairs.begin() + static_cast<std::ptrdiff_t>(from);
  if (!std::is_sorted(first, pairs.end())) std::sort(first, pairs.end());
  pairs.erase(std::unique(first, pairs.end()), pairs.end());
}

}  // namespace

std::shared_ptr<const CompiledCollective> compile(
    const CollectiveSchedule& sched) {
  auto cc = std::make_shared<CompiledCollective>();
  cc->n_ranks = sched.n_ranks;
  cc->n_steps = sched.n_steps;
  cc->unit_divisor = sched.type == CollectiveType::kAllToAll ? sched.n_ranks
                     : sched.n_chunks > 0                    ? sched.n_chunks
                                                             : 1;
  ensure(cc->unit_divisor >= 1, "AllToAll schedule has no ranks");
  const Bytes unit = cc->unit_bytes(sched.payload_bytes);
  const auto n_steps = static_cast<std::size_t>(sched.n_steps);
  const auto n_ranks = static_cast<std::size_t>(sched.n_ranks);
  const std::size_t n = sched.transfers.size();
  cc->transfers.reserve(n);
  for (const Transfer& t : sched.transfers) {
    ensure(t.step >= 0 && static_cast<std::size_t>(t.step) < n_steps,
           "transfer step out of range");
    ensure(t.src >= 0 && static_cast<std::size_t>(t.src) < n_ranks &&
               t.dst >= 0 && static_cast<std::size_t>(t.dst) < n_ranks,
           "transfer rank out of range");
    const int units = t.chunk_lo >= 0 ? t.chunk_hi - t.chunk_lo
                      : sched.type == CollectiveType::kAllToAll ? 1
                                                                : 0;
    // At most the whole payload, so units * unit cannot overflow.
    ensure(units >= 0 && units <= cc->unit_divisor && t.bytes == units * unit,
           "transfer bytes are not a whole number of the schedule's units");
    cc->transfers.push_back(UnitTransfer{t.step, t.src, t.dst, units});
  }
  const std::vector<UnitTransfer>& transfers = cc->transfers;
  auto at = [&](int i) -> const UnitTransfer& {
    return transfers[static_cast<std::size_t>(i)];
  };

  // Step index: a counting sort by step keeps each step's indices ascending.
  cc->step_begin.assign(n_steps + 1, 0);
  for (const UnitTransfer& t : transfers) {
    ++cc->step_begin[static_cast<std::size_t>(t.step) + 1];
  }
  counts_to_offsets(cc->step_begin);
  cc->step_order.resize(n);
  {
    std::vector<int> cursor(cc->step_begin.begin(), cc->step_begin.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto s = static_cast<std::size_t>(transfers[i].step);
      cc->step_order[static_cast<std::size_t>(cursor[s]++)] =
          static_cast<int>(i);
    }
  }

  // Dependency graph. Step s-1 is indexed by src and by dst rank (singly
  // linked lists threaded through src_next/dst_next), so each step-s
  // transfer visits exactly the transfers it depends on. The edges are
  // walked twice, to count and then to fill; visiting t in ascending order
  // keeps every dependents row ascending.
  {
    std::vector<int> src_head(n_ranks, -1);
    std::vector<int> dst_head(n_ranks, -1);
    std::vector<int> src_next(n, -1);
    std::vector<int> dst_next(n, -1);
    auto for_each_dependency = [&](auto&& visit) {  // visit(p, t)
      for (std::size_t s = 1; s < n_steps; ++s) {
        const auto prev = cc->step(static_cast<int>(s - 1));
        for (int p : prev) {
          const auto src = static_cast<std::size_t>(at(p).src);
          const auto dst = static_cast<std::size_t>(at(p).dst);
          src_next[static_cast<std::size_t>(p)] = src_head[src];
          src_head[src] = p;
          dst_next[static_cast<std::size_t>(p)] = dst_head[dst];
          dst_head[dst] = p;
        }
        for (int t : cc->step(static_cast<int>(s))) {
          const int r = at(t).src;
          for (int p = src_head[static_cast<std::size_t>(r)]; p >= 0;
               p = src_next[static_cast<std::size_t>(p)]) {
            visit(p, t);
          }
          for (int p = dst_head[static_cast<std::size_t>(r)]; p >= 0;
               p = dst_next[static_cast<std::size_t>(p)]) {
            // A self-transfer (p.src == p.dst == r) was visited via src_head.
            if (at(p).src != r) visit(p, t);
          }
        }
        for (int p : prev) {
          src_head[static_cast<std::size_t>(at(p).src)] = -1;
          dst_head[static_cast<std::size_t>(at(p).dst)] = -1;
        }
      }
    };
    cc->initial_deps.assign(n, 0);
    cc->dep_begin.assign(n + 1, 0);
    for_each_dependency([&](int p, int t) {
      ++cc->dep_begin[static_cast<std::size_t>(p) + 1];
      ++cc->initial_deps[static_cast<std::size_t>(t)];
    });
    counts_to_offsets(cc->dep_begin);
    cc->dep_list.resize(static_cast<std::size_t>(cc->dep_begin.back()));
    std::vector<int> cursor(cc->dep_begin.begin(), cc->dep_begin.end() - 1);
    for_each_dependency([&](int p, int t) {
      cc->dep_list[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(p)]++)] = t;
    });
  }

  // Peer pairs per step (a row equal to the previous step's is shared), then
  // over the whole schedule.
  cc->step_pair_begin.assign(n_steps, 0);
  cc->step_pair_end.assign(n_steps, 0);
  for (std::size_t s = 0; s < n_steps; ++s) {
    auto& pairs = cc->step_pairs;
    const std::size_t from = pairs.size();
    for (int t : cc->step(static_cast<int>(s))) {
      pairs.emplace_back(at(t).src, at(t).dst);
    }
    sort_unique(pairs, from);
    if (s > 0) {
      const auto prev = cc->peer_pairs_of_step(static_cast<int>(s - 1));
      if (std::equal(prev.begin(), prev.end(),
                     pairs.begin() + static_cast<std::ptrdiff_t>(from),
                     pairs.end())) {
        pairs.resize(from);
        cc->step_pair_begin[s] = cc->step_pair_begin[s - 1];
        cc->step_pair_end[s] = cc->step_pair_end[s - 1];
        continue;
      }
    }
    cc->step_pair_begin[s] = static_cast<int>(from);
    cc->step_pair_end[s] = static_cast<int>(pairs.size());
  }
  cc->step_pairs.shrink_to_fit();
  cc->peer_pairs = cc->step_pairs;
  sort_unique(cc->peer_pairs, 0);
  cc->peer_pairs.shrink_to_fit();
  return cc;
}

}  // namespace opus::collective
