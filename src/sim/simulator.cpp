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
  s.next = kNoSlot;
  ++live_;
  // Append to the open run at t if its tail is still live; otherwise open a
  // run, reusing t's closed entry or else the round-robin victim.
  OpenRun* open = nullptr;
  for (OpenRun& o : open_) {
    if (o.time == t) {
      open = &o;
      break;
    }
  }
  if (open != nullptr && slots_[open->tail].generation == open->generation) {
    slots_[open->tail].next = slot;
  } else {
    if (open == nullptr) {
      open = &open_[open_victim_];
      open_victim_ = (open_victim_ + 1) % kOpenRuns;
    }
    heap_.push_back(Run{t, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  *open = OpenRun{t, slot, s.generation};
  return EventId::from_parts(slot, s.generation);
}

void Simulator::pop_head() {
  Run& run = heap_.front();
  const std::uint32_t slot = run.head;
  const std::uint32_t next = slots_[slot].next;
  free_slots_.push_back(slot);
  if (next != kNoSlot) {
    run.head = next;  // the run keeps its heap position
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
  }
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
  // The slot stays linked in its run until position() frees it.
  Slot& s = slots_[id.slot()];
  s.cb = nullptr;
  s.generation += 1;  // odd (occupied) -> even (cancelled)
  --live_;
  return true;
}

bool Simulator::position() {
  for (;;) {
    while (!heap_.empty() &&
           (slots_[heap_.front().head].generation & 1u) == 0u) {
      pop_head();  // cancelled
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
  now_ = heap_.front().time;
  Slot& s = slots_[heap_.front().head];
  // Free the slot before the call: the callback sees its own id as fired.
  Callback cb = std::move(s.cb);
  s.cb = nullptr;
  s.generation += 1;  // odd (occupied) -> even (free)
  pop_head();
  --live_;
  ++fired_;
  cb();
  return true;
}

std::uint64_t Simulator::run() {
  ProfileScope prof(profiler_, Profiler::kSimRun);
  std::uint64_t n = 0;
  while (fire_next()) ++n;
  return n;
}

std::uint64_t Simulator::run_until(TimeNs limit) {
  ProfileScope prof(profiler_, Profiler::kSimRun);
  std::uint64_t n = 0;
  while (position() && heap_.front().time <= limit) {
    fire_next();
    ++n;
  }
  if (now_ < limit) now_ = limit;
  return n;
}

std::uint64_t Simulator::run_steps(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && fire_next()) ++n;
  return n;
}

}  // namespace opus::sim
