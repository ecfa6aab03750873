// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at the same timestamp fire in the
// order they were scheduled (FIFO), so the total order is (time, schedule
// order) and nothing else.
//
// Two structures hold the pending events. A callback slab — a dense slot
// array with a LIFO free list — owns their closures; an EventId is the slot
// plus its generation (common/ids.h GenId, as FlowId). A binary min-heap of
// *runs* orders them: a run is (time, seq, head slot), and the later events
// of the run are linked through their slots' `next` index. Most instants
// carry bursts, so schedule_at(t) appends to the open run for t when there
// is one, and only a new run costs a heap push. The kOpenRuns most recently
// opened runs stay open while their tail slot is still live (so a tail that
// fires or is cancelled closes its run); runs at one time thus cover
// disjoint, increasing ranges of schedule order, and (time, seq) on runs is
// exactly (time, schedule order) on events. The front run fires head-first,
// and the heap is touched again only when the run empties.
//
// Cancel bumps the slot's generation in O(1) and drops the closure; the
// slot stays linked (so it can never be reused into another run) until it
// reaches the front of its run and is freed unfired. A fired or cancelled id
// never aliases the slot's next occupant, and a default or integer-cast id
// (generation 0) is never pending.
//
// End-of-instant hooks let a component batch work per simulated instant. A
// component registers a hook once and requests it whenever its state goes
// stale; every request made during an instant coalesces into one run, after
// the last event at now() has fired and before time advances (or, if no
// event is left, before the drain loop returns). Events a hook schedules at
// now() still fire within the same instant. Hooks requested outside any
// event (between run calls, e.g. after a run_until peek) run on the next
// run call, once no event at now() is left and before any later one fires.
// Hooks are not events: they neither count in events_fired() nor join a
// run. The fluid network uses one to re-solve rates once per
// instant instead of once per flow start.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/profile.h"
#include "common/units.h"

namespace opus::sim {

/// The event-driven simulation kernel. All model components hold a reference
/// to one Simulator and schedule callbacks on it.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// The latest representable instant. schedule_after clamps here instead
  /// of overflowing when now() + delay exceeds the TimeNs range (the fluid
  /// solver's near-stalled completion projections produce such horizons).
  static constexpr TimeNs kMaxTime = std::numeric_limits<TimeNs>::max();

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimeNs now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (must be >= now()).
  EventId schedule_at(TimeNs t, Callback cb);

  /// Schedules `cb` to run `delay` after now() (delay must be >= 0). A
  /// delay that would overflow past kMaxTime is clamped to kMaxTime.
  EventId schedule_after(TimeNs delay, Callback cb) {
    ensure(delay >= 0, "Simulator::schedule_after: negative delay");
    const TimeNs t = delay > kMaxTime - now_ ? kMaxTime : now_ + delay;
    return schedule_at(t, std::move(cb));
  }

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired; false otherwise (already fired, already cancelled, invalid).
  bool cancel(EventId id);

  /// Returns true if `id` is scheduled and not yet fired or cancelled.
  bool pending(EventId id) const {
    // Issued generations are odd; a fired, cancelled or free slot's is even.
    return (id.generation() & 1u) != 0u && id.slot() < slots_.size() &&
           slots_[id.slot()].generation == id.generation();
  }

  /// Runs until the event queue is empty and no hook is pending. Returns the
  /// number of events fired.
  std::uint64_t run();

  /// Runs events with time <= `limit`, then advances now() to `limit`. The
  /// instant of the last fired event is closed (its hooks have run); hooks
  /// requested after the call returns run on the next run call.
  std::uint64_t run_until(TimeNs limit);

  /// Executes at most `max_events` events. Returns the number fired.
  /// Stopping mid-instant leaves requested hooks pending for the next run.
  std::uint64_t run_steps(std::uint64_t max_events);

  /// Handle of a registered end-of-instant hook.
  using HookId = std::uint32_t;

  /// Registers `cb` as an end-of-instant hook. It runs only when requested.
  HookId add_instant_hook(Callback cb);

  /// Unregisters a hook, dropping any pending request. Its owner must call
  /// this before it is destroyed if the simulator may run again.
  void remove_instant_hook(HookId hook);

  /// Requests one run of `hook` at the end of the current instant. Repeated
  /// requests before that run coalesce; a hook may re-request itself.
  void request_instant_hook(HookId hook) {
    InstantHook& h = hooks_[hook];
    if (h.requested || !h.cb) return;
    h.requested = true;
    hook_queue_.push_back(hook);
  }

  /// Number of pending (non-cancelled) events.
  std::size_t pending_events() const { return live_; }

  /// Total events fired since construction.
  std::uint64_t events_fired() const { return fired_; }

  /// Opt-in wall-clock sink timing the run()/run_until drain loops (obs
  /// self-profiling). Null (the default) costs one branch per drain.
  void set_profile_sink(ProfileSink* sink);

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// Heap entry: the events of one run, head first. `seq` numbers runs in
  /// opening order.
  struct Run {
    TimeNs time;
    std::uint64_t seq;
    std::uint32_t head;
    /// Min-heap on (time, seq): same-instant runs fire in opening order.
    friend bool operator>(const Run& a, const Run& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Callback slab slot: generation is odd while an event holds the slot,
  /// even once it fired, was cancelled or waits on the free list. `next`
  /// links the slot to the next event of its run.
  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    std::uint32_t next = kNoSlot;
  };

  /// An open run at `time`: appendable while slot `tail` still carries
  /// `generation`.
  struct OpenRun {
    TimeNs time = std::numeric_limits<TimeNs>::min();
    std::uint32_t tail = 0;
    std::uint32_t generation = 0;
  };
  static constexpr std::size_t kOpenRuns = 4;

  struct InstantHook {
    Callback cb;  ///< null once removed
    bool requested = false;
  };

  /// Frees the front run's head slot and advances the run past it,
  /// popping the run once it is empty.
  void pop_head();
  /// Runs requested hooks in request order until none is pending.
  void run_instant_hooks();
  /// Drops cancelled events until the front run's head is the next live one,
  /// running pending hooks first once no event at now_ is left. Returns
  /// false if the queue is empty and no hook is pending.
  bool position();
  /// Fires the next live event, if any. Returns false if the queue is empty.
  bool fire_next();

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  /// Scheduled events neither fired nor cancelled.
  std::size_t live_ = 0;
  /// Runs holding at least one linked slot (live or cancelled).
  std::vector<Run> heap_;
  /// The most recently opened runs, replaced round-robin; at most one entry
  /// per time, always the newest run at that time.
  std::array<OpenRun, kOpenRuns> open_{};
  std::size_t open_victim_ = 0;
  /// The callback slab; slots are never removed, so peak concurrency bounds
  /// the vector.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Registered hooks (a deque: registering one never moves the callback
  /// of a hook that is running) and the pending requests in request order.
  std::deque<InstantHook> hooks_;
  std::vector<HookId> hook_queue_;
  ProfileSink* profile_sink_ = nullptr;
  int profile_phase_run_ = -1;
};

}  // namespace opus::sim
