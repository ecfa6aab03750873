// Unit tests for the discrete-event engine: ordering, determinism,
// cancellation, the run_until / run_steps contracts, and end-of-instant
// hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace opus::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTimestampFiresInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  TimeNs inner_fired = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { inner_fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_fired, 150);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(50, [] {}), InvariantError);
}

TEST(Simulator, EmptyCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1, Simulator::Callback{}), InvariantError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
  // A second event may reuse the fired event's slot: the old id must still
  // read as fired and must not cancel the new occupant.
  bool second_fired = false;
  const EventId second = sim.schedule_at(20, [&] { second_fired = true; });
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_TRUE(sim.pending(second));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(second_fired);
}

TEST(Simulator, CancelledEventDoesNotBlockQueue) {
  Simulator sim;
  std::vector<int> order;
  sim.cancel(sim.schedule_at(5, [&] { order.push_back(0); }));
  sim.schedule_at(10, [&] { order.push_back(1); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator sim;
  std::vector<TimeNs> fired;
  for (TimeNs t : {10, 20, 30, 40}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.run_until(25), 2u);
  EXPECT_EQ(fired, (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(sim.now(), 25);  // clock advanced to the limit
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilIncludesEventsAtLimit) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(25, [&] { fired = true; });
  sim.run_until(25);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunStepsExecutesBoundedCount) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(i + 1, [&] { ++count; });
  }
  EXPECT_EQ(sim.run_steps(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(count, 5);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
  EXPECT_EQ(sim.events_fired(), 100u);
}

// ---- Ordering and id edge cases --------------------------------------------
// The pending set is a (time, seq) min-heap with lazily dropped cancelled
// entries; the tests below pin what it must preserve: same-instant FIFO
// whatever the horizon an event was scheduled from, overflow clamping at
// kMaxTime, scheduling between now() and an event a run_until peek stopped
// short of, and skipping an event cancelled within the firing instant.

TEST(Simulator, SameInstantFifoAcrossScheduleHorizons) {
  Simulator sim;
  std::vector<int> order;
  // Scheduled far ahead of now()...
  sim.schedule_at(1'000'000, [&] { order.push_back(0); });
  sim.schedule_at(1'000'000, [&] { order.push_back(1); });
  // ...then fire an intermediate event so later same-instant schedules are
  // made one nanosecond ahead: they still fire after the earlier ones.
  sim.schedule_at(999'999, [&] {
    sim.schedule_at(1'000'000, [&] { order.push_back(2); });
    sim.schedule_at(1'000'000, [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, ScheduleAfterClampsOverflowToMaxTime) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 10);
  TimeNs fired_at = -1;
  // now() + kMaxTime overflows TimeNs; the event must land exactly at the
  // clamp and still fire.
  const EventId id = sim.schedule_after(Simulator::kMaxTime,
                                        [&] { fired_at = sim.now(); });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired_at, Simulator::kMaxTime);
  EXPECT_EQ(sim.now(), Simulator::kMaxTime);
}

TEST(Simulator, ScheduleAfterExactHorizonDoesNotClamp) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  TimeNs fired_at = -1;
  sim.schedule_after(Simulator::kMaxTime - sim.now(),
                     [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, Simulator::kMaxTime);
}

TEST(Simulator, EventIdsAreDistinctAndUnknownIdsAreNotPending) {
  Simulator sim;
  EXPECT_FALSE(sim.pending(EventId{}));        // invalid id
  EXPECT_FALSE(sim.pending(EventId{12345}));   // never issued
  EXPECT_FALSE(sim.cancel(EventId{12345}));
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(sim.schedule_at(i, [] {}));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(ids[i].valid());
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_NE(ids[i], ids[j]);
    }
  }
  sim.run();
  // Ids issued after a drain do not collide with already-fired ones.
  const EventId later = sim.schedule_at(1000, [] {});
  for (const EventId id : ids) EXPECT_NE(later, id);
}

TEST(Simulator, ScheduleBetweenNowAndAPeekedEvent) {
  Simulator sim;
  std::vector<TimeNs> fired;
  // Park a far-future event, then peek with run_until: it stops short of
  // the pending event and advances now() to 50.
  sim.schedule_at(1'000'000, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.run_until(50), 0u);
  EXPECT_EQ(sim.now(), 50);
  // Now schedule between now() and the peeked event: the new event fires
  // first, and a later one at the peeked instant fires after it.
  sim.schedule_at(100, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(1'000'000, [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<TimeNs>{100, 1'000'000, 1'000'000}));
}

TEST(Simulator, SameInstantFifoAfterRunUntilPeek) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1'000'000, [&] { order.push_back(0); });
  sim.run_until(50);  // peek: stops short of the pending event
  sim.schedule_at(100, [&] { order.push_back(-1); });  // before the peeked one
  sim.schedule_at(1'000'000, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
}

TEST(Simulator, CancelWithinTheFiringInstantSkipsTheEvent) {
  Simulator sim;
  std::vector<int> order;
  EventId victim{};
  sim.schedule_at(5, [&] {
    order.push_back(0);
    sim.cancel(victim);  // a later event of the instant being fired
  });
  victim = sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Simulator, MidDrainSameInstantAppendFiresLast) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.run_steps(1), 1u);
  EXPECT_EQ(sim.now(), 5);
  // Appending at the instant currently being drained: FIFO puts it after the
  // instant's remaining events.
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------------
// End-of-instant hooks.
// ---------------------------------------------------------------------------

TEST(Simulator, ManyRequestsInOneInstantRunTheHookOnce) {
  Simulator sim;
  int runs = 0;
  const Simulator::HookId hook = sim.add_instant_hook([&] { ++runs; });
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(10, [&] {
      sim.request_instant_hook(hook);
      sim.request_instant_hook(hook);
    });
  }
  sim.schedule_at(20, [&] { sim.request_instant_hook(hook); });
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(runs, 2) << "one run per requesting instant";
  EXPECT_EQ(sim.events_fired(), 6u) << "hooks are not events";
}

TEST(Simulator, HookRunsBeforeTimeAdvancesAndWhenTheQueueDrains) {
  Simulator sim;
  std::vector<std::pair<int, TimeNs>> log;  // (0 = event, 1 = hook, now)
  const Simulator::HookId hook =
      sim.add_instant_hook([&] { log.emplace_back(1, sim.now()); });
  auto event = [&] {
    log.emplace_back(0, sim.now());
    sim.request_instant_hook(hook);
  };
  sim.schedule_at(5, event);
  sim.schedule_at(5, event);
  sim.schedule_at(9, event);
  sim.run();
  EXPECT_EQ(log, (std::vector<std::pair<int, TimeNs>>{
                     {0, 5}, {0, 5}, {1, 5}, {0, 9}, {1, 9}}));
}

TEST(Simulator, EventsAHookSchedulesAtNowFireWithinTheInstant) {
  Simulator sim;
  std::vector<std::pair<int, TimeNs>> log;
  bool rescheduled = false;
  Simulator::HookId hook{};
  hook = sim.add_instant_hook([&] {
    log.emplace_back(1, sim.now());
    if (rescheduled) return;
    rescheduled = true;
    sim.schedule_at(sim.now(), [&] {
      log.emplace_back(2, sim.now());
      sim.request_instant_hook(hook);  // closes the instant once more
    });
  });
  sim.schedule_at(5, [&] {
    log.emplace_back(0, sim.now());
    sim.request_instant_hook(hook);
  });
  sim.schedule_at(6, [&] { log.emplace_back(0, sim.now()); });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::pair<int, TimeNs>>{
                     {0, 5}, {1, 5}, {2, 5}, {1, 5}, {0, 6}}));
}

TEST(Simulator, RequestAfterRunUntilPeekFlushesBeforeTheLaterEvent) {
  Simulator sim;
  std::vector<std::pair<int, TimeNs>> log;
  const Simulator::HookId hook = sim.add_instant_hook([&] {
    log.emplace_back(1, sim.now());
    sim.schedule_at(sim.now() + 10, [&] { log.emplace_back(2, sim.now()); });
  });
  sim.schedule_at(1'000'000, [&] { log.emplace_back(0, sim.now()); });
  // The peek stops short of the far event, which stays pending past now().
  EXPECT_EQ(sim.run_until(50), 0u);
  sim.request_instant_hook(hook);  // a mutation between run calls
  sim.run();
  EXPECT_EQ(log, (std::vector<std::pair<int, TimeNs>>{
                     {1, 50}, {2, 60}, {0, 1'000'000}}));
}

TEST(Simulator, RunUntilNowFlushesARequestMadeBetweenRuns) {
  Simulator sim;
  int runs = 0;
  const Simulator::HookId hook = sim.add_instant_hook([&] { ++runs; });
  sim.request_instant_hook(hook);  // empty queue, nothing to peek at
  EXPECT_EQ(sim.run_until(sim.now()), 0u);
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, RunStepsStoppingMidInstantKeepsTheHookPending) {
  Simulator sim;
  std::vector<std::pair<int, TimeNs>> log;
  const Simulator::HookId hook =
      sim.add_instant_hook([&] { log.emplace_back(1, sim.now()); });
  for (int i = 0; i < 3; ++i) {
    sim.schedule_at(5, [&] {
      log.emplace_back(0, sim.now());
      sim.request_instant_hook(hook);
    });
  }
  sim.schedule_at(8, [&] { log.emplace_back(0, sim.now()); });
  EXPECT_EQ(sim.run_steps(2), 2u);
  EXPECT_EQ(log.size(), 2u) << "the instant at 5 is not over yet";
  sim.run();
  EXPECT_EQ(log, (std::vector<std::pair<int, TimeNs>>{
                     {0, 5}, {0, 5}, {0, 5}, {1, 5}, {0, 8}}));
}

TEST(Simulator, RemovedHookNeverRuns) {
  Simulator sim;
  int runs = 0;
  const Simulator::HookId hook = sim.add_instant_hook([&] { ++runs; });
  sim.request_instant_hook(hook);
  sim.remove_instant_hook(hook);
  sim.request_instant_hook(hook);  // ignored once removed
  sim.schedule_at(3, [] {});
  sim.run();
  EXPECT_EQ(runs, 0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(i % 7, [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Ordering property: seeded random scripts against a reference model.
// ---------------------------------------------------------------------------

/// The contract in its plainest form: pending events in a std::map keyed on
/// (time, schedule order), hooks as the kernel documents them.
class ReferenceSim {
 public:
  using Id = std::uint64_t;  ///< schedule order

  TimeNs now() const { return now_; }
  Id schedule_at(TimeNs t, std::function<void()> cb) {
    events_.emplace(std::pair{t, next_}, std::move(cb));
    time_of_.emplace(next_, t);
    return next_++;
  }
  bool pending(Id id) const { return time_of_.contains(id); }
  bool cancel(Id id) {
    const auto it = time_of_.find(id);
    if (it == time_of_.end()) return false;
    events_.erase(std::pair{it->second, id});
    time_of_.erase(it);
    return true;
  }
  std::size_t pending_events() const { return events_.size(); }
  std::uint64_t run() {
    std::uint64_t n = 0;
    while (fire_next()) ++n;
    return n;
  }
  std::uint64_t run_until(TimeNs limit) {
    std::uint64_t n = 0;
    while (position() && events_.begin()->first.first <= limit) {
      fire_next();
      ++n;
    }
    now_ = std::max(now_, limit);
    return n;
  }
  std::uint64_t run_steps(std::uint64_t max_events) {
    std::uint64_t n = 0;
    while (n < max_events && fire_next()) ++n;
    return n;
  }
  int add_instant_hook(std::function<void()> cb) {
    hooks_.push_back(std::move(cb));
    requested_.push_back(false);
    return static_cast<int>(hooks_.size()) - 1;
  }
  void request_instant_hook(int hook) {
    const auto h = static_cast<std::size_t>(hook);
    if (requested_[h]) return;
    requested_[h] = true;
    queue_.push_back(hook);
  }

 private:
  bool position() {
    while (!queue_.empty() &&
           (events_.empty() || events_.begin()->first.first > now_)) {
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const auto h = static_cast<std::size_t>(queue_[i]);
        requested_[h] = false;
        hooks_[h]();
      }
      queue_.clear();
    }
    return !events_.empty();
  }
  bool fire_next() {
    if (!position()) return false;
    const auto it = events_.begin();
    now_ = it->first.first;
    auto cb = std::move(it->second);
    time_of_.erase(it->first.second);
    events_.erase(it);
    cb();
    return true;
  }

  TimeNs now_ = 0;
  Id next_ = 0;
  std::map<std::pair<TimeNs, Id>, std::function<void()>> events_;
  std::map<Id, TimeNs> time_of_;
  std::vector<std::function<void()>> hooks_;
  std::vector<bool> requested_;
  std::vector<int> queue_;
};

/// What a script observed: an event or hook firing, a cancel, or a run call
/// returning, each with now() and the pending count at that moment.
struct Record {
  enum Kind { kFire, kHook, kCancel, kRunReturn } kind;
  int label;
  TimeNs at;
  std::size_t pending;
  friend bool operator==(const Record&, const Record&) = default;
};

/// One seeded script played on `Sim`. Every random choice is drawn in
/// firing order, so two kernels that fire in the same order replay the same
/// script and any divergence shows as the first differing record. Covered:
/// same-instant bursts interleaved across several times, cancels of the
/// head, middle and tail of an instant, cancel-then-reschedule at the same
/// time, schedule_at(now()) from events and hooks, run_until / run_steps
/// stopping mid-instant, and hook requests inside and between runs.
template <class Sim>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {}

  std::vector<Record> play() {
    for (int h = 0; h < 2; ++h) {
      hooks_.push_back(sim_.add_instant_hook([this, h] { on_hook(h); }));
    }
    for (int round = 0; round < 40; ++round) {
      switch (rng_.below(6)) {
        case 0: {  // a burst over a few nearby times
          const TimeNs base = sim_.now() + static_cast<TimeNs>(rng_.below(20));
          const auto k = 1 + rng_.below(12);
          for (std::uint64_t i = 0; i < k; ++i) {
            schedule(base + static_cast<TimeNs>(rng_.below(3)));
          }
          break;
        }
        case 1:
          cancel_one();
          break;
        case 2:
          sim_.run_until(sim_.now() + static_cast<TimeNs>(rng_.below(15)));
          note(Record::kRunReturn, -1);
          break;
        case 3:
          sim_.run_steps(1 + rng_.below(8));
          note(Record::kRunReturn, -1);
          break;
        case 4:
          sim_.request_instant_hook(hooks_[rng_.below(2)]);
          break;
        default:
          schedule(sim_.now());
          break;
      }
    }
    sim_.run();
    note(Record::kRunReturn, -1);
    EXPECT_EQ(sim_.pending_events(), 0u);
    return log_;
  }

 private:
  using Id = decltype(std::declval<Sim&>().schedule_at(0, [] {}));

  void note(Record::Kind kind, int label) {
    log_.push_back(Record{kind, label, sim_.now(), sim_.pending_events()});
    // Exact whatever cancelled events are still parked in the kernel.
    EXPECT_EQ(sim_.pending_events(), outstanding_.size());
  }

  void schedule(TimeNs t) {
    if (budget_ == 0) return;
    --budget_;
    const int label = static_cast<int>(ids_.size());
    ids_.push_back(sim_.schedule_at(t, [this, label] { on_fire(label); }));
    times_.push_back(t);
    outstanding_.push_back(label);
  }

  void forget(int label) {
    outstanding_.erase(
        std::find(outstanding_.begin(), outstanding_.end(), label));
  }

  void on_fire(int label) {
    forget(label);
    note(Record::kFire, label);
    EXPECT_FALSE(sim_.pending(ids_[static_cast<std::size_t>(label)]));
    const auto same_instant = rng_.below(4);  // appends to the open instant
    for (std::uint64_t i = 0; i < same_instant; ++i) schedule(sim_.now());
    if (rng_.below(3) == 0) {
      schedule(sim_.now() + 1 + static_cast<TimeNs>(rng_.below(6)));
    }
    if (rng_.below(3) == 0) cancel_one();
    if (rng_.below(4) == 0) sim_.request_instant_hook(hooks_[rng_.below(2)]);
  }

  void on_hook(int h) {
    note(Record::kHook, h);
    if (rng_.below(3) == 0) schedule(sim_.now());
  }

  /// Cancels the head, a middle event or the tail of one pending instant
  /// (or, with nothing pending, re-cancels a fired label), then sometimes
  /// reschedules at the same time.
  void cancel_one() {
    if (outstanding_.empty()) {
      if (!ids_.empty()) {
        EXPECT_FALSE(sim_.cancel(ids_[rng_.below(ids_.size())]));
      }
      return;
    }
    const TimeNs t = times_[static_cast<std::size_t>(
        outstanding_[rng_.below(outstanding_.size())])];
    std::vector<int> instant;
    for (int label : outstanding_) {
      if (times_[static_cast<std::size_t>(label)] == t) instant.push_back(label);
    }
    std::size_t pick = 0;
    switch (rng_.below(3)) {
      case 0: pick = 0; break;
      case 1: pick = instant.size() / 2; break;
      default: pick = instant.size() - 1; break;
    }
    const int victim = instant[pick];
    EXPECT_TRUE(sim_.cancel(ids_[static_cast<std::size_t>(victim)]));
    forget(victim);
    note(Record::kCancel, victim);
    if (rng_.below(2) == 0) schedule(t);
  }

  Sim sim_;
  Xoshiro256 rng_;
  std::vector<decltype(std::declval<Sim&>().add_instant_hook([] {}))> hooks_;
  std::vector<Id> ids_;
  std::vector<TimeNs> times_;
  std::vector<int> outstanding_;  ///< pending labels in schedule order
  std::vector<Record> log_;
  int budget_ = 400;
};

TEST(SimulatorProperty, RandomScriptsMatchTheReferenceOrder) {
  std::size_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const auto got = Script<Simulator>(seed).play();
    const auto want = Script<ReferenceSim>(seed).play();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    ASSERT_TRUE(diff.first == got.end())
        << "seed " << seed << ": record " << (diff.first - got.begin())
        << " differs (label " << diff.first->label << " at "
        << diff.first->at << " vs label " << diff.second->label << " at "
        << diff.second->at << ")";
    fired += static_cast<std::size_t>(std::count_if(
        got.begin(), got.end(),
        [](const Record& r) { return r.kind == Record::kFire; }));
  }
  EXPECT_GT(fired, 300u * 100u) << "scripts should exercise the kernel";
}

}  // namespace
}  // namespace opus::sim
