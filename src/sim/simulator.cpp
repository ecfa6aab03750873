#include "sim/simulator.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace opus::sim {

EventId Simulator::schedule_at(TimeNs t, Callback cb) {
  ensure(t >= now_, "Simulator::schedule_at: time is in the past");
  ensure(static_cast<bool>(cb), "Simulator::schedule_at: empty callback");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.generation += 1;  // even (free) -> odd (occupied)
  heap_.push_back(Entry{t, next_seq_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  return EventId::from_parts(slot, s.generation);
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.generation += 1;  // odd (occupied) -> even (free)
  free_slots_.push_back(slot);
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
  if (!pending(id)) return false;
  release_slot(id.slot());  // the heap entry goes stale
  return true;
}

bool Simulator::position() {
  for (;;) {
    while (!heap_.empty() &&
           slots_[heap_.front().slot].generation != heap_.front().generation) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.pop_back();  // cancelled
    }
    // No event at now_ is left: close the instant before a later one fires
    // (or before the drain returns). Hooks requested between run calls while
    // an event at now_ is pending wait for it.
    if (!hook_queue_.empty() &&
        (heap_.empty() || heap_.front().time > now_)) {
      run_instant_hooks();
      continue;
    }
    return !heap_.empty();
  }
}

bool Simulator::fire_next() {
  if (!position()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Entry e = heap_.back();
  heap_.pop_back();
  // Free the slot before the call: the callback sees its own id as fired.
  Callback cb = std::move(slots_[e.slot].cb);
  release_slot(e.slot);
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
  while (position() && heap_.front().time <= limit) {
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
