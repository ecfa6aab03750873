#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace opus::sim {

namespace {

constexpr std::uint64_t bit(int i) { return std::uint64_t{1} << i; }

/// Width mask of a level's parent window: level k spans 64^(k+1) ns. Level
/// 10's window exceeds the int64 range, so its mask saturates.
constexpr std::uint64_t window_mask(int level) {
  const int shift = 6 * (level + 1);
  return shift >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << shift) - 1;
}

}  // namespace

EventId Simulator::schedule_at(TimeNs t, Callback cb) {
  ensure(t >= now_, "Simulator::schedule_at: time is in the past");
  ensure(static_cast<bool>(cb), "Simulator::schedule_at: empty callback");
  const EventId id{next_id_++};
  place(Entry{t, next_seq_++, id});
  callbacks_.emplace(id, std::move(cb));
  return id;
}

Simulator::HookId Simulator::add_instant_hook(Callback cb) {
  ensure(static_cast<bool>(cb), "Simulator::add_instant_hook: empty callback");
  hooks_.push_back(InstantHook{std::move(cb), false});
  return static_cast<HookId>(hooks_.size() - 1);
}

void Simulator::remove_instant_hook(HookId hook) {
  ensure(hook < hooks_.size(), "Simulator::remove_instant_hook: unknown hook");
  // The slot stays (ids are never reused); a queued request is skipped.
  hooks_[hook] = InstantHook{};
}

void Simulator::run_instant_hooks() {
  // Request order is run order, so runs are deterministic. Indexing (not
  // iterators) lets a hook append a fresh request to the queue mid-loop.
  for (std::size_t i = 0; i < hook_queue_.size(); ++i) {
    InstantHook& h = hooks_[hook_queue_[i]];
    if (!h.requested) continue;  // removed since the request
    h.requested = false;
    h.cb();
  }
  hook_queue_.clear();
}

bool Simulator::cancel(EventId id) {
  return callbacks_.erase(id) > 0;  // calendar entry becomes a tombstone
}

void Simulator::place(Entry e) {
  // The calendar origin never sits past a live entry; a peek (run_until
  // stopping short of the next event) may have advanced it beyond now_, so
  // an insert can land before the origin. Every bucket index is relative to
  // the origin's window, so moving the origin back invalidates the whole
  // filing — rebase re-files everything (rare: only peek-then-schedule
  // sequences hit it; the run() hot loop never does).
  if (e.time < base_) rebase(e.time);
  const std::uint64_t x =
      static_cast<std::uint64_t>(e.time) ^ static_cast<std::uint64_t>(base_);
  const int level = x == 0 ? 0 : (63 - std::countl_zero(x)) / 6;
  const int idx =
      static_cast<int>((static_cast<std::uint64_t>(e.time) >> (6 * level)) &
                       63);
  Wheel& w = wheels_[static_cast<std::size_t>(level)];
  w.bucket[static_cast<std::size_t>(idx)].push_back(e);
  w.occupied |= bit(idx);
}

void Simulator::rebase(TimeNs t) {
  std::vector<Entry> all;
  for (Wheel& w : wheels_) {
    std::uint64_t occ = w.occupied;
    while (occ != 0) {
      const int idx = std::countr_zero(occ);
      occ &= occ - 1;
      auto& v = w.bucket[static_cast<std::size_t>(idx)];
      all.insert(all.end(), v.begin(), v.end());
      v.clear();
    }
    w.occupied = 0;
  }
  base_ = t;
  drain_idx_ = -1;  // the paused drain is no longer the earliest bucket
  for (const Entry& e : all) {
    if (callbacks_.contains(e.id)) place(e);  // live entries are all >= t
  }
}

void Simulator::sweep_stale(int level) {
  // Buckets below the cursor belong to an already-drained lap: any entry
  // still in them is a tombstone (live entries always sit at or above the
  // cursor of their wheel).
  Wheel& w = wheels_[static_cast<std::size_t>(level)];
  const int cursor = static_cast<int>(
      (static_cast<std::uint64_t>(base_) >> (6 * level)) & 63);
  std::uint64_t stale = w.occupied & (bit(cursor) - 1);
  while (stale != 0) {
    const int idx = std::countr_zero(stale);
    stale &= stale - 1;
    w.bucket[static_cast<std::size_t>(idx)].clear();
  }
  w.occupied &= ~(bit(cursor) - 1);
}

int Simulator::settle() {
  if (callbacks_.empty()) {
    // Only tombstones remain (if anything): purge so run() terminates
    // without visiting every cancelled entry's bucket.
    for (Wheel& w : wheels_) {
      std::uint64_t occ = w.occupied;
      while (occ != 0) {
        const int idx = std::countr_zero(occ);
        occ &= occ - 1;
        w.bucket[static_cast<std::size_t>(idx)].clear();
      }
      w.occupied = 0;
    }
    return -1;
  }
  for (;;) {
    int best_level = -1;
    int best_idx = -1;
    TimeNs best = kMaxTime;
    for (int k = 0; k < kLevels; ++k) {
      sweep_stale(k);
      const Wheel& w = wheels_[static_cast<std::size_t>(k)];
      if (w.occupied == 0) continue;
      const int idx = std::countr_zero(w.occupied);
      const std::uint64_t origin =
          static_cast<std::uint64_t>(base_) & ~window_mask(k);
      const TimeNs cand = static_cast<TimeNs>(
          origin + (static_cast<std::uint64_t>(idx) << (6 * k)));
      // `<=` so a higher wheel whose bucket starts exactly at the level-0
      // candidate cascades first — it may hold a lower-seq entry for the
      // same instant.
      if (cand <= best) {
        best = cand;
        best_level = k;
        best_idx = idx;
      }
    }
    ensure(best_level >= 0, "Simulator: live event missing from calendar");
    if (best_level == 0) {
      if (best > base_) base_ = best;
      return best_idx;
    }
    // Cascade: re-file the bucket's entries onto lower wheels relative to
    // the advanced origin. Tombstones are dropped here, not re-filed.
    Wheel& w = wheels_[static_cast<std::size_t>(best_level)];
    w.occupied &= ~bit(best_idx);
    cascade_scratch_.swap(w.bucket[static_cast<std::size_t>(best_idx)]);
    if (best > base_) base_ = best;
    for (const Entry& e : cascade_scratch_) {
      if (callbacks_.contains(e.id)) place(e);
    }
    cascade_scratch_.clear();
  }
}

bool Simulator::position() {
  // Parks the drain cursor on the next live entry (skipping tombstones)
  // without firing it. Returns false when no live events remain.
  for (;;) {
    if (drain_idx_ < 0) {
      const int idx = settle();
      if (idx < 0) {
        if (hook_queue_.empty()) return false;
        run_instant_hooks();  // the queue drained: close the last instant
        continue;
      }
      drain_idx_ = idx;
      drain_pos_ = 0;
      drain_time_ = static_cast<TimeNs>(
          (static_cast<std::uint64_t>(base_) & ~std::uint64_t{63}) +
          static_cast<std::uint64_t>(idx));
      auto& v = wheels_[0].bucket[static_cast<std::size_t>(idx)];
      // One bucket holds one live timestamp; sorting by (time, seq) pins
      // strict same-instant FIFO regardless of which wheels the entries
      // cascaded through. Entries appended mid-drain carry higher seq and
      // arrive in order, so the tail stays sorted.
      std::sort(v.begin(), v.end(), [](const Entry& a, const Entry& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
      });
    }
    auto& v = wheels_[0].bucket[static_cast<std::size_t>(drain_idx_)];
    while (drain_pos_ < v.size()) {
      const Entry& e = v[drain_pos_];
      if (e.time == drain_time_ && callbacks_.contains(e.id)) break;
      ++drain_pos_;  // dead lap straggler or tombstone
    }
    if (drain_pos_ < v.size()) {
      // The cursor sits past now_ when hooks were requested between run
      // calls (after a run_until peek, or before the first event): they
      // close the instant at now_ before this later entry fires. They may
      // cancel it or rebase the calendar, so re-position afterwards.
      if (drain_time_ > now_ && !hook_queue_.empty()) {
        run_instant_hooks();
        continue;
      }
      return true;
    }
    v.clear();
    wheels_[0].occupied &= ~bit(drain_idx_);
    drain_idx_ = -1;
    // With the origin at now_, every entry at now_ files into the bucket
    // just drained, so the instant is over. Run its hooks now, before
    // settle() advances the origin: an event a hook schedules at or near
    // now_ then files without a rebase (it would land below base_ after).
    if (base_ == now_ && !hook_queue_.empty()) run_instant_hooks();
  }
}

bool Simulator::fire_next() {
  if (!position()) return false;
  auto& v = wheels_[0].bucket[static_cast<std::size_t>(drain_idx_)];
  const Entry e = v[drain_pos_++];
  auto it = callbacks_.find(e.id);
  Callback cb = std::move(it->second);
  callbacks_.erase(it);
  now_ = e.time;
  ++fired_;
  cb();
  return true;
}

std::uint64_t Simulator::run() {
  ProfileScope prof(profile_sink_, profile_phase_run_);
  std::uint64_t n = 0;
  while (fire_next()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimeNs limit) {
  ProfileScope prof(profile_sink_, profile_phase_run_);
  std::uint64_t n = 0;
  while (position() && drain_time_ <= limit) {
    fire_next();
    ++n;
  }
  if (now_ < limit) now_ = limit;
  return n;
}

void Simulator::set_profile_sink(ProfileSink* sink) {
  profile_sink_ = sink;
  if (sink != nullptr) profile_phase_run_ = sink->phase("sim.run");
}

std::uint64_t Simulator::run_steps(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && fire_next()) ++n;
  return n;
}

}  // namespace opus::sim
