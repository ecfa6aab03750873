#include "collective/executor.h"

#include <utility>
#include <vector>

#include "common/error.h"

namespace opus::collective {

struct CollectiveExecutor::RunState {
  CommGroup group;
  std::shared_ptr<const CompiledCollective> cc;
  std::function<void(const Result&)> on_complete;
  Result result;

  // Pipelined mode: per-transfer countdown, copied from cc->initial_deps.
  std::vector<int> deps_remaining;

  // Step-synchronous mode: per-step countdown.
  int step_transfers_remaining = 0;

  int transfers_remaining = 0;
};

void CollectiveExecutor::run(const CommGroup& group,
                             std::shared_ptr<const CompiledCollective> cc,
                             std::function<void(const Result&)> on_complete) {
  ensure(cc != nullptr, "executor: null compiled collective");
  ensure(group.size() == cc->sched.n_ranks,
         "executor: schedule rank count does not match group size");
  const bool step_sync = !cc->sched.transfers.empty() &&
                         transport_.needs_per_step_preparation(group, *cc);
  if (step_sync && step_sync_busy_.contains(group.id)) {
    // Same-communicator step-synchronous collectives must not interleave
    // their per-step reconfigurations; queue behind the active one.
    step_sync_queue_[group.id].push_back(
        PendingRun{group, std::move(cc), std::move(on_complete)});
    return;
  }
  start_run(group, std::move(cc), std::move(on_complete), step_sync);
}

void CollectiveExecutor::start_run(
    const CommGroup& group, std::shared_ptr<const CompiledCollective> cc,
    std::function<void(const Result&)> on_complete, bool step_sync) {
  auto rs = std::make_shared<RunState>();
  rs->group = group;
  rs->cc = std::move(cc);
  rs->on_complete = std::move(on_complete);
  rs->result.start = sim_.now();
  const int n_transfers = static_cast<int>(rs->cc->sched.transfers.size());
  rs->result.transfers = n_transfers;
  rs->transfers_remaining = n_transfers;

  if (n_transfers == 0) {
    // Single-rank group or empty schedule: completes immediately.
    sim_.schedule_after(0, [this, rs] { finish(rs); });
    return;
  }

  rs->result.step_synchronous = step_sync;
  if (step_sync) step_sync_busy_.insert(group.id);
  transport_.prepare_collective(rs->group, *rs->cc, [this, rs, step_sync] {
    if (step_sync) {
      run_step_synchronous(rs, 0);
    } else {
      launch_pipelined(rs);
    }
  });
}

void CollectiveExecutor::launch_pipelined(std::shared_ptr<RunState> rs) {
  rs->deps_remaining = rs->cc->initial_deps;
  const int n = static_cast<int>(rs->deps_remaining.size());
  for (int i = 0; i < n; ++i) {
    if (rs->deps_remaining[static_cast<std::size_t>(i)] == 0) {
      launch_transfer(rs, i);
    }
  }
}

void CollectiveExecutor::launch_transfer(const std::shared_ptr<RunState>& rs,
                                         int index) {
  const Transfer& t = rs->cc->sched.transfers[static_cast<std::size_t>(index)];
  const GpuId src = rs->group.ranks[static_cast<std::size_t>(t.src)];
  const GpuId dst = rs->group.ranks[static_cast<std::size_t>(t.dst)];
  transport_.send(rs->group, src, dst, t.bytes,
                  [this, rs, index] { on_transfer_done(rs, index); });
}

void CollectiveExecutor::on_transfer_done(const std::shared_ptr<RunState>& rs,
                                          int index) {
  --rs->transfers_remaining;
  if (!rs->result.step_synchronous) {
    for (int d : rs->cc->dependents(index)) {
      if (--rs->deps_remaining[static_cast<std::size_t>(d)] == 0) {
        launch_transfer(rs, d);
      }
    }
  } else {
    if (--rs->step_transfers_remaining == 0 && rs->transfers_remaining > 0) {
      const int next_step =
          rs->cc->sched.transfers[static_cast<std::size_t>(index)].step + 1;
      run_step_synchronous(rs, next_step);
    }
  }
  if (rs->transfers_remaining == 0) finish(rs);
}

void CollectiveExecutor::run_step_synchronous(std::shared_ptr<RunState> rs,
                                              int step) {
  // Skip (theoretically) empty steps.
  const CompiledCollective& cc = *rs->cc;
  while (step < cc.sched.n_steps && cc.step(step).empty()) ++step;
  if (step >= cc.sched.n_steps) return;
  rs->step_transfers_remaining = static_cast<int>(cc.step(step).size());
  transport_.prepare_step(rs->group, cc, step, [this, rs, step] {
    for (int ti : rs->cc->step(step)) launch_transfer(rs, ti);
  });
}

void CollectiveExecutor::finish(const std::shared_ptr<RunState>& rs) {
  rs->result.end = sim_.now();
  ++completed_;
  transport_.collective_finished(rs->group, *rs->cc);
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
        start_run(pending->group, std::move(pending->cc),
                  std::move(pending->on_complete), true);
      });
    }
  }
  if (rs->on_complete) rs->on_complete(rs->result);
}

}  // namespace opus::collective
