#include "collective/executor.h"

#include <utility>
#include <vector>

#include "common/error.h"

namespace opus::collective {

struct CollectiveExecutor::RunState {
  CollectiveExecutor* exec = nullptr;
  CommGroup group;
  std::shared_ptr<const CompiledCollective> cc;
  Bytes payload = 0;
  Bytes unit = 0;  ///< cc->unit_bytes(payload): a transfer sends units x unit
  std::function<void(const Result&)> on_complete;
  Result result;

  // Pipelined mode: per-transfer countdown, copied from cc->initial_deps.
  std::vector<int> deps_remaining;

  // Step-synchronous mode: per-step countdown.
  int step_transfers_remaining = 0;

  int transfers_remaining = 0;
};

CollectiveExecutor::CollectiveExecutor(sim::Simulator& sim,
                                       Transport& transport)
    : sim_(sim), transport_(transport) {}

CollectiveExecutor::~CollectiveExecutor() = default;

void CollectiveExecutor::run(const CommGroup& group,
                             std::shared_ptr<const CompiledCollective> cc,
                             Bytes payload,
                             std::function<void(const Result&)> on_complete) {
  ensure(cc != nullptr, "executor: null compiled collective");
  ensure(group.size() == cc->n_ranks,
         "executor: schedule rank count does not match group size");
  ensure(payload >= 0, "executor: payload must be non-negative");
  const bool step_sync =
      !cc->transfers.empty() &&
      transport_.needs_per_step_preparation(group, *cc, payload);
  if (step_sync && step_sync_busy_.contains(group.id)) {
    // Same-communicator step-synchronous collectives must not interleave
    // their per-step reconfigurations; queue behind the active one.
    step_sync_queue_[group.id].push_back(
        PendingRun{group, std::move(cc), payload, std::move(on_complete)});
    return;
  }
  start_run(group, std::move(cc), payload, std::move(on_complete), step_sync);
}

CollectiveExecutor::RunState* CollectiveExecutor::acquire_run(
    std::size_t n_transfers) {
  // Best fit on the kept countdown buffer: a large collective's buffer
  // goes back to large collectives, so small runs do not strand it while
  // a large one allocates another.
  auto best = free_runs_.end();
  std::size_t best_cap = 0;
  for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
    const std::size_t cap = (*it)->deps_remaining.capacity();
    if (cap >= n_transfers && (best == free_runs_.end() || cap < best_cap)) {
      best = it;
      best_cap = cap;
    }
  }
  if (best == free_runs_.end() && !free_runs_.empty()) {
    best = free_runs_.end() - 1;  // grows its buffer
  }
  if (best == free_runs_.end()) {
    runs_.push_back(std::make_unique<RunState>());
    runs_.back()->exec = this;
    return runs_.back().get();
  }
  RunState* rs = *best;
  *best = free_runs_.back();
  free_runs_.pop_back();
  return rs;
}

void CollectiveExecutor::start_run(
    const CommGroup& group, std::shared_ptr<const CompiledCollective> cc,
    Bytes payload, std::function<void(const Result&)> on_complete,
    bool step_sync) {
  RunState* rs = acquire_run(cc->initial_deps.size());
  rs->group = group;
  rs->cc = std::move(cc);
  rs->payload = payload;
  rs->unit = rs->cc->unit_bytes(payload);
  rs->on_complete = std::move(on_complete);
  rs->result = Result{};
  rs->result.start = sim_.now();
  const int n_transfers = static_cast<int>(rs->cc->transfers.size());
  rs->result.transfers = n_transfers;
  rs->transfers_remaining = n_transfers;
  rs->step_transfers_remaining = 0;

  if (n_transfers == 0) {
    // Single-rank group or empty schedule: completes immediately.
    sim_.schedule_after(0, [rs] { rs->exec->finish(rs); });
    return;
  }

  rs->result.step_synchronous = step_sync;
  if (step_sync) step_sync_busy_.insert(group.id);
  transport_.prepare_collective(rs->group, *rs->cc, payload, [rs] {
    if (rs->result.step_synchronous) {
      rs->exec->run_step_synchronous(rs, 0);
    } else {
      rs->exec->launch_pipelined(rs);
    }
  });
}

void CollectiveExecutor::launch_pipelined(RunState* rs) {
  rs->deps_remaining = rs->cc->initial_deps;  // reuses the kept buffer
  const int n = static_cast<int>(rs->deps_remaining.size());
  for (int i = 0; i < n; ++i) {
    if (rs->deps_remaining[static_cast<std::size_t>(i)] == 0) {
      launch_transfer(rs, i);
    }
  }
}

void CollectiveExecutor::launch_transfer(RunState* rs, int index) {
  const UnitTransfer& t = rs->cc->transfers[static_cast<std::size_t>(index)];
  const GpuId src = rs->group.ranks[static_cast<std::size_t>(t.src)];
  const GpuId dst = rs->group.ranks[static_cast<std::size_t>(t.dst)];
  transport_.send(rs->group, src, dst, t.units * rs->unit,
                  [rs, index] { rs->exec->on_transfer_done(rs, index); });
}

void CollectiveExecutor::on_transfer_done(RunState* rs, int index) {
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
          rs->cc->transfers[static_cast<std::size_t>(index)].step + 1;
      run_step_synchronous(rs, next_step);
    }
  }
  if (rs->transfers_remaining == 0) finish(rs);
}

void CollectiveExecutor::run_step_synchronous(RunState* rs, int step) {
  // Skip (theoretically) empty steps.
  const CompiledCollective& cc = *rs->cc;
  while (step < cc.n_steps && cc.step(step).empty()) ++step;
  if (step >= cc.n_steps) return;
  rs->step_transfers_remaining = static_cast<int>(cc.step(step).size());
  transport_.prepare_step(rs->group, cc, rs->payload, step, [rs, step] {
    for (int ti : rs->cc->step(step)) rs->exec->launch_transfer(rs, ti);
  });
}

void CollectiveExecutor::finish(RunState* rs) {
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
        start_run(pending->group, std::move(pending->cc), pending->payload,
                  std::move(pending->on_complete), true);
      });
    }
  }
  // Recycle the RunState before the callback, which may start the next run
  // on it; the callback gets its own copy of the result.
  const Result result = rs->result;
  const std::function<void(const Result&)> on_complete =
      std::move(rs->on_complete);
  rs->on_complete = nullptr;
  rs->cc.reset();
  free_runs_.push_back(rs);
  if (on_complete) on_complete(result);
}

}  // namespace opus::collective
