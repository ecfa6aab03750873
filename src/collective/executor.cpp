#include "collective/executor.h"

#include <utility>
#include <vector>

#include "common/error.h"

namespace opus::collective {

struct CollectiveExecutor::RunState {
  CommGroup group;
  CollectiveSchedule sched;
  std::function<void(const Result&)> on_complete;
  Result result;

  // Pipelined mode: per-transfer dependency bookkeeping.
  std::vector<int> deps_remaining;
  std::vector<std::vector<int>> dependents;

  // Step-synchronous mode: per-step countdown.
  int step_transfers_remaining = 0;

  int transfers_remaining = 0;
};

void CollectiveExecutor::run(const CommGroup& group,
                             const CollectiveSchedule& sched,
                             std::function<void(const Result&)> on_complete) {
  ensure(group.size() == sched.n_ranks,
         "executor: schedule rank count does not match group size");
  const bool step_sync = !sched.transfers.empty() &&
                         transport_.needs_per_step_preparation(group, sched);
  if (step_sync && step_sync_busy_.contains(group.id)) {
    // Same-communicator step-synchronous collectives must not interleave
    // their per-step reconfigurations; queue behind the active one.
    step_sync_queue_[group.id].push_back(
        PendingRun{group, sched, std::move(on_complete)});
    return;
  }
  start_run(group, sched, std::move(on_complete), step_sync);
}

void CollectiveExecutor::start_run(
    const CommGroup& group, const CollectiveSchedule& sched,
    std::function<void(const Result&)> on_complete, bool step_sync) {
  auto rs = std::make_shared<RunState>();
  rs->group = group;
  rs->sched = sched;
  rs->on_complete = std::move(on_complete);
  rs->result.start = sim_.now();
  rs->result.transfers = static_cast<int>(sched.transfers.size());
  rs->transfers_remaining = static_cast<int>(sched.transfers.size());

  if (sched.transfers.empty()) {
    // Single-rank group or empty schedule: completes immediately.
    sim_.schedule_after(0, [this, rs] { finish(rs); });
    return;
  }

  rs->result.step_synchronous = step_sync;
  if (step_sync) step_sync_busy_.insert(group.id);
  transport_.prepare_collective(
      rs->group, rs->sched, [this, rs, step_sync] {
        if (step_sync) {
          run_step_synchronous(rs, 0);
        } else {
          launch_pipelined(rs);
        }
      });
}

void CollectiveExecutor::launch_pipelined(std::shared_ptr<RunState> rs) {
  const auto& transfers = rs->sched.transfers;
  const std::size_t n = transfers.size();
  rs->deps_remaining.assign(n, 0);
  rs->dependents.assign(n, {});

  // Group transfers by step and test every pair of transfers in adjacent
  // steps: O(sum over s of |step s-1| x |step s|) pair checks.
  const auto by_step = rs->sched.transfers_by_step();
  for (int s = 1; s < rs->sched.n_steps; ++s) {
    const auto& prev = by_step[static_cast<std::size_t>(s - 1)];
    for (int ti : by_step[static_cast<std::size_t>(s)]) {
      const Transfer& t = transfers[static_cast<std::size_t>(ti)];
      for (int pi : prev) {
        const Transfer& p = transfers[static_cast<std::size_t>(pi)];
        // (a) port serialization: my previous send must have left;
        // (b) data dependency: the data I forward must have arrived.
        if (p.src == t.src || p.dst == t.src) {
          rs->dependents[static_cast<std::size_t>(pi)].push_back(ti);
          ++rs->deps_remaining[static_cast<std::size_t>(ti)];
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (rs->deps_remaining[i] == 0) launch_transfer(rs, static_cast<int>(i));
  }
}

void CollectiveExecutor::launch_transfer(const std::shared_ptr<RunState>& rs,
                                         int index) {
  const Transfer& t = rs->sched.transfers[static_cast<std::size_t>(index)];
  const GpuId src = rs->group.ranks[static_cast<std::size_t>(t.src)];
  const GpuId dst = rs->group.ranks[static_cast<std::size_t>(t.dst)];
  transport_.send(rs->group, src, dst, t.bytes,
                  [this, rs, index] { on_transfer_done(rs, index); });
}

void CollectiveExecutor::on_transfer_done(const std::shared_ptr<RunState>& rs,
                                          int index) {
  --rs->transfers_remaining;
  if (!rs->result.step_synchronous) {
    for (int d : rs->dependents[static_cast<std::size_t>(index)]) {
      if (--rs->deps_remaining[static_cast<std::size_t>(d)] == 0) {
        launch_transfer(rs, d);
      }
    }
  } else {
    if (--rs->step_transfers_remaining == 0 && rs->transfers_remaining > 0) {
      const int next_step =
          rs->sched.transfers[static_cast<std::size_t>(index)].step + 1;
      run_step_synchronous(rs, next_step);
    }
  }
  if (rs->transfers_remaining == 0) finish(rs);
}

void CollectiveExecutor::run_step_synchronous(std::shared_ptr<RunState> rs,
                                              int step) {
  // Skip (theoretically) empty steps.
  const auto by_step = rs->sched.transfers_by_step();
  while (step < rs->sched.n_steps &&
         by_step[static_cast<std::size_t>(step)].empty()) {
    ++step;
  }
  if (step >= rs->sched.n_steps) return;
  const auto& indices = by_step[static_cast<std::size_t>(step)];
  rs->step_transfers_remaining = static_cast<int>(indices.size());
  transport_.prepare_step(rs->group, rs->sched, step, [this, rs, indices] {
    for (int ti : indices) launch_transfer(rs, ti);
  });
}

void CollectiveExecutor::finish(const std::shared_ptr<RunState>& rs) {
  rs->result.end = sim_.now();
  ++completed_;
  transport_.collective_finished(rs->group, rs->sched);
  if (rs->result.step_synchronous) {
    step_sync_busy_.erase(rs->group.id);
    auto it = step_sync_queue_.find(rs->group.id);
    if (it != step_sync_queue_.end() && !it->second.empty()) {
      PendingRun next = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) step_sync_queue_.erase(it);
      step_sync_busy_.insert(next.group.id);
      // Decouple from the finishing run's stack.
      auto pending = std::make_shared<PendingRun>(std::move(next));
      sim_.schedule_after(0, [this, pending] {
        start_run(pending->group, pending->sched,
                  std::move(pending->on_complete), true);
      });
    }
  }
  if (rs->on_complete) rs->on_complete(rs->result);
}

}  // namespace opus::collective
