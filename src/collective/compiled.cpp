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

/// Builds every index of a shape whose n_ranks, n_steps, unit_divisor and
/// transfers are set.
void build_indexes(CompiledCollective* cc) {
  ensure(cc->n_ranks >= 0 && cc->n_steps >= 0 && cc->unit_divisor >= 1,
         "shape sizes out of range");
  const auto n_steps = static_cast<std::size_t>(cc->n_steps);
  const auto n_ranks = static_cast<std::size_t>(cc->n_ranks);
  const std::vector<UnitTransfer>& transfers = cc->transfers;
  const std::size_t n = transfers.size();
  auto at = [&](int i) -> const UnitTransfer& {
    return transfers[static_cast<std::size_t>(i)];
  };

  // Step index: a counting sort by step keeps each step's indices ascending.
  cc->step_begin.assign(n_steps + 1, 0);
  for (const UnitTransfer& t : transfers) {
    ensure(t.step >= 0 && static_cast<std::size_t>(t.step) < n_steps,
           "transfer step out of range");
    ensure(t.src >= 0 && static_cast<std::size_t>(t.src) < n_ranks &&
               t.dst >= 0 && static_cast<std::size_t>(t.dst) < n_ranks,
           "transfer rank out of range");
    // At most the whole payload, so a run's units x unit bytes cannot
    // overflow.
    ensure(t.units >= 0 && t.units <= cc->unit_divisor,
           "transfer units out of range");
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
  int widest_step = 0;
  for (std::size_t s = 0; s < n_steps; ++s) {
    widest_step =
        std::max(widest_step, cc->step_begin[s + 1] - cc->step_begin[s]);
  }

  // Dependency graph. Step s-1 is indexed by src and by dst rank (singly
  // linked lists threaded through src_next/dst_next, which are indexed by
  // position within step s-1), so each step-s transfer visits exactly the
  // transfers it depends on. The edges are walked twice, to count and then
  // to fill; visiting t in ascending order keeps every dependents row
  // ascending.
  {
    std::vector<int> src_head(n_ranks, -1);
    std::vector<int> dst_head(n_ranks, -1);
    std::vector<int> src_next(static_cast<std::size_t>(widest_step), -1);
    std::vector<int> dst_next(static_cast<std::size_t>(widest_step), -1);
    auto for_each_dependency = [&](auto&& visit) {  // visit(p, t)
      for (std::size_t s = 1; s < n_steps; ++s) {
        const auto prev = cc->step(static_cast<int>(s - 1));
        for (std::size_t j = 0; j < prev.size(); ++j) {
          const auto src = static_cast<std::size_t>(at(prev[j]).src);
          const auto dst = static_cast<std::size_t>(at(prev[j]).dst);
          src_next[j] = src_head[src];
          src_head[src] = static_cast<int>(j);
          dst_next[j] = dst_head[dst];
          dst_head[dst] = static_cast<int>(j);
        }
        for (int t : cc->step(static_cast<int>(s))) {
          const int r = at(t).src;
          for (int j = src_head[static_cast<std::size_t>(r)]; j >= 0;
               j = src_next[static_cast<std::size_t>(j)]) {
            visit(prev[static_cast<std::size_t>(j)], t);
          }
          for (int j = dst_head[static_cast<std::size_t>(r)]; j >= 0;
               j = dst_next[static_cast<std::size_t>(j)]) {
            const int p = prev[static_cast<std::size_t>(j)];
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
    // dep_begin[p] is row p's fill cursor; once filled it holds row p's end,
    // which is row p+1's begin, so shifting it one place restores it.
    for_each_dependency([&](int p, int t) {
      cc->dep_list[static_cast<std::size_t>(
          cc->dep_begin[static_cast<std::size_t>(p)]++)] = t;
    });
    std::copy_backward(cc->dep_begin.begin(), cc->dep_begin.end() - 1,
                       cc->dep_begin.end());
    cc->dep_begin.front() = 0;
  }

  // Peer pairs per step (a row equal to the previous step's is shared), then
  // over the whole schedule.
  cc->step_pairs.clear();
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
}

/// Collects a planned shape straight into its UnitTransfers.
class UnitSink final : public ShapeSink {
 public:
  UnitSink(CompiledCollective& cc, CollectiveType type)
      : cc_(cc), type_(type) {}

  void begin(int n_steps, int n_chunks, std::size_t n_transfers) override {
    cc_.n_steps = n_steps;
    cc_.unit_divisor = unit_divisor(type_, cc_.n_ranks, n_chunks);
    cc_.transfers.reserve(n_transfers);
  }
  void transfer(int step, int src, int dst, int chunk_lo, int chunk_hi,
                bool) override {
    cc_.transfers.push_back(UnitTransfer{
        step, src, dst, transfer_units(type_, chunk_lo, chunk_hi)});
  }

 private:
  CompiledCollective& cc_;
  CollectiveType type_;
};

}  // namespace

std::shared_ptr<const CompiledCollective> compile(CollectiveType type,
                                                  Algorithm algo,
                                                  int n_ranks) {
  CompiledCollective shape;
  shape.n_ranks = n_ranks;
  UnitSink sink(shape, type);
  plan_shape(type, algo, n_ranks, sink);
  return index(std::move(shape));
}

std::shared_ptr<const CompiledCollective> index(CompiledCollective shape) {
  auto cc = std::make_shared<CompiledCollective>(std::move(shape));
  build_indexes(cc.get());
  return cc;
}

}  // namespace opus::collective
