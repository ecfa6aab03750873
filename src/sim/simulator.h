// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at the same timestamp fire in the
// order they were scheduled (FIFO tie-break on a monotonically increasing
// sequence number). Events are cancellable; cancellation is O(1) via a
// tombstone, and tombstoned entries are skipped lazily.
//
// The pending-event set is a hierarchical calendar (bucket) queue rather
// than a binary heap: eleven 64-bucket wheels of geometrically increasing
// width (level k buckets span 64^k ns), with a per-wheel occupancy bitmask.
// Insertion is O(1) — the level is the highest bit where the event time
// differs from the queue's base time — and an event cascades to a lower
// wheel at most once per level as the base advances. The workload this is
// keyed for is the simulator's actual event pattern: dense, periodic
// batches (rotor rotations, fleet arrivals, fluid completions) landing a
// few microseconds-to-milliseconds ahead of now, where a comparison heap
// pays log(n) per event and the calendar pays amortized O(1) regardless of
// how many rotations are pending. Determinism is structural: every fired
// bucket holds exactly one timestamp, and its entries are sorted by
// sequence number before delivery, so the total order is (time, seq) —
// bit-identical to the binary heap it replaced.
//
// End-of-instant hooks let a component batch work per simulated instant. A
// component registers a hook once and requests it whenever its state goes
// stale; every request made during an instant coalesces into one run, after
// the last event at now() has fired and before time advances (or, if no
// event is left, before the drain loop returns). Events a hook schedules at
// now() still fire within the same instant. Hooks requested outside any
// event (between run calls, e.g. after a run_until peek) run on the next
// run call, once no event at now() is left and before any later one fires.
// Hooks are not events: they neither count in events_fired() nor carry a
// sequence number. The fluid network uses one to re-solve rates once per
// instant instead of once per flow start.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <unordered_map>
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
  bool pending(EventId id) const { return callbacks_.contains(id); }

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
  std::size_t pending_events() const { return callbacks_.size(); }

  /// Total events fired since construction.
  std::uint64_t events_fired() const { return fired_; }

  /// Opt-in wall-clock sink timing the run()/run_until drain loops (obs
  /// self-profiling). Null (the default) costs one branch per drain.
  void set_profile_sink(ProfileSink* sink);

 private:
  struct Entry {
    TimeNs time;
    std::uint64_t seq;
    EventId id;
  };

  /// 64^11 = 2^66 exceeds the TimeNs (int64) range, so every valid
  /// timestamp maps to some wheel and no overflow list is needed.
  static constexpr int kLevels = 11;

  struct InstantHook {
    Callback cb;  ///< null once removed
    bool requested = false;
  };

  struct Wheel {
    std::array<std::vector<Entry>, 64> bucket;
    std::uint64_t occupied = 0;  ///< bit i set iff bucket[i] is non-empty
  };

  /// Files an entry into the wheel its time belongs to relative to base_.
  void place(Entry e);
  /// Moves the calendar origin back to `t` (an insert landed before base_)
  /// and re-files every live entry relative to the new origin.
  void rebase(TimeNs t);
  /// Drops dead (tombstoned, time < base_) buckets below a wheel's cursor.
  void sweep_stale(int level);
  /// Positions the wheels so the earliest live entry sits in a level-0
  /// bucket, cascading higher wheels as needed. Returns the bucket index,
  /// or -1 if no live entries remain (all-tombstone state is purged).
  int settle();
  /// Runs requested hooks in request order until none is pending.
  void run_instant_hooks();
  /// Parks the drain cursor (drain_idx_/drain_pos_/drain_time_) on the next
  /// live entry without firing it, running pending hooks first once no
  /// entry at now_ is left. Returns false if the queue is empty and no hook
  /// is pending.
  bool position();
  /// Fires the next live event, if any. Returns false if the queue is empty.
  bool fire_next();

  TimeNs now_ = 0;
  /// All live entries have time >= base_ (the calendar's origin; advances
  /// monotonically toward the earliest pending event, never past it).
  TimeNs base_ = 0;
  std::uint64_t next_seq_ = 0;
  std::int32_t next_id_ = 0;
  std::uint64_t fired_ = 0;
  /// Drain cursor: the level-0 bucket currently being fired (-1 when none),
  /// the next position within it, and the single live timestamp it holds.
  int drain_idx_ = -1;
  std::size_t drain_pos_ = 0;
  TimeNs drain_time_ = 0;
  std::array<Wheel, kLevels> wheels_;
  std::vector<Entry> cascade_scratch_;
  std::unordered_map<EventId, Callback> callbacks_;
  /// Registered hooks (a deque: registering one never moves the callback
  /// of a hook that is running) and the pending requests in request order.
  std::deque<InstantHook> hooks_;
  std::vector<HookId> hook_queue_;
  ProfileSink* profile_sink_ = nullptr;
  int profile_phase_run_ = -1;
};

}  // namespace opus::sim
