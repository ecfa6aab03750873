#include "fleet/placement.h"

#include <algorithm>

#include "common/error.h"

namespace opus::fleet {

PlacementEngine::PlacementEngine(int n_nodes, PlacementPolicy policy)
    : n_nodes_(n_nodes), policy_(policy) {
  ensure(n_nodes >= 1, "placement: cluster needs at least one node");
  free_.push_back({0, n_nodes});
}

namespace {
int next_pow2(int v) {
  int p = 1;
  while (p < v) p *= 2;
  return p;
}
}  // namespace

std::optional<net::NodeSpan> PlacementEngine::take(std::size_t extent_index,
                                                   int start, int count) {
  Extent& e = free_[extent_index];
  ensure(start >= e.first && start + count <= e.end(),
         "placement: allocation outside its extent");
  const Extent before{e.first, start - e.first};
  const Extent after{start + count, e.end() - (start + count)};
  // Replace the extent with the non-empty remainders, keeping sort order.
  auto it = free_.begin() + static_cast<std::ptrdiff_t>(extent_index);
  it = free_.erase(it);
  if (after.count > 0) it = free_.insert(it, after);
  if (before.count > 0) free_.insert(it, before);
  ++allocations_;
  peak_free_extents_ =
      std::max(peak_free_extents_, static_cast<int>(free_.size()));
  return net::NodeSpan{start, count};
}

std::optional<net::NodeSpan> PlacementEngine::allocate(int count) {
  ensure(count >= 1, "placement: job needs at least one node");
  if (count > n_nodes_) return std::nullopt;

  if (policy_ == PlacementPolicy::kFirstFit) {
    for (std::size_t i = 0; i < free_.size(); ++i) {
      ++extents_scanned_;
      if (free_[i].count >= count) {
        return take(i, free_[i].first, count);
      }
    }
    return std::nullopt;
  }

  // kRailAware: the lowest start aligned to the buddy block of `count`
  // within any extent; otherwise best-fit.
  const int align = next_pow2(count);
  for (std::size_t i = 0; i < free_.size(); ++i) {
    const Extent& e = free_[i];
    ++extents_scanned_;
    const int aligned = ((e.first + align - 1) / align) * align;
    if (aligned + count <= e.end()) {
      return take(i, aligned, count);
    }
  }
  std::size_t best = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    ++extents_scanned_;
    if (free_[i].count < count) continue;
    if (best == free_.size() || free_[i].count < free_[best].count) {
      best = i;
    }
  }
  if (best == free_.size()) return std::nullopt;
  return take(best, free_[best].first, count);
}

void PlacementEngine::release(net::NodeSpan span) {
  ensure(span.first >= 0 && span.count >= 1 && span.end() <= n_nodes_,
         "placement: released span out of range");
  const auto it = std::lower_bound(
      free_.begin(), free_.end(), span.first,
      [](const Extent& e, int first) { return e.first < first; });
  // No overlap with the neighbours (double release would corrupt the map).
  if (it != free_.end()) {
    ensure(span.end() <= it->first, "placement: double release (overlap)");
  }
  if (it != free_.begin()) {
    ensure(std::prev(it)->end() <= span.first,
           "placement: double release (overlap)");
  }
  ++releases_;
  auto inserted = free_.insert(it, {span.first, span.count});
  // Coalesce with the successor, then the predecessor.
  const auto next = std::next(inserted);
  if (next != free_.end() && inserted->end() == next->first) {
    inserted->count += next->count;
    inserted = std::prev(free_.erase(next));
  }
  if (inserted != free_.begin()) {
    const auto prev = std::prev(inserted);
    if (prev->end() == inserted->first) {
      prev->count += inserted->count;
      free_.erase(inserted);
    }
  }
  // Peak is measured post-coalesce: it tracks resident interval state, not
  // the transient extra extent inside this call.
  peak_free_extents_ =
      std::max(peak_free_extents_, static_cast<int>(free_.size()));
}

int PlacementEngine::free_nodes() const {
  int total = 0;
  for (const Extent& e : free_) total += e.count;
  return total;
}

int PlacementEngine::largest_free_extent() const {
  int largest = 0;
  for (const Extent& e : free_) largest = std::max(largest, e.count);
  return largest;
}

double PlacementEngine::fragmentation() const {
  const int total = free_nodes();
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_extent()) /
                   static_cast<double>(total);
}

}  // namespace opus::fleet
