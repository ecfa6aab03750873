#include "collective/executor.h"

#include <utility>
#include <vector>

#include "common/error.h"

namespace opus::collective {

struct CollectiveExecutor::RunState {
  CollectiveExecutor* exec = nullptr;
  Run run;  ///< what every transport hook sees, at this fixed address
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

void CollectiveExecutor::run(const CommGroup& group,
                             std::shared_ptr<const CompiledCollective> cc,
                             Bytes payload,
                             std::function<void(const Result&)> on_complete) {
  ensure(cc != nullptr, "executor: null compiled collective");
  ensure(group.size() == cc->n_ranks,
         "executor: schedule rank count does not match group size");
  ensure(payload >= 0, "executor: payload must be non-negative");
  RunState* rs = acquire_run(cc->initial_deps.size());
  rs->run.group = group;
  rs->run.cc = std::move(cc);
  rs->run.payload = payload;
  rs->unit = rs->run.cc->unit_bytes(payload);
  rs->on_complete = std::move(on_complete);
  rs->result = Result{};
  rs->result.start = sim_.now();
  const int n_transfers = static_cast<int>(rs->run.cc->transfers.size());
  rs->result.transfers = n_transfers;
  rs->transfers_remaining = n_transfers;
  rs->step_transfers_remaining = 0;

  if (n_transfers == 0) {
    // Single-rank group or empty schedule: completes immediately.
    sim_.schedule_after(0, [rs] { rs->exec->finish(rs); });
    return;
  }

  transport_.prepare_collective(rs->run, [rs](bool step_synchronous) {
    rs->result.step_synchronous = step_synchronous;
    if (step_synchronous) {
      rs->exec->run_step_synchronous(rs, 0);
    } else {
      rs->exec->launch_pipelined(rs);
    }
  });
}

void CollectiveExecutor::launch_pipelined(RunState* rs) {
  rs->deps_remaining = rs->run.cc->initial_deps;  // reuses the kept buffer
  const int n = static_cast<int>(rs->deps_remaining.size());
  for (int i = 0; i < n; ++i) {
    if (rs->deps_remaining[static_cast<std::size_t>(i)] == 0) {
      launch_transfer(rs, i);
    }
  }
}

void CollectiveExecutor::launch_transfer(RunState* rs, int index) {
  const Run& run = rs->run;
  const UnitTransfer& t = run.cc->transfers[static_cast<std::size_t>(index)];
  const GpuId src = run.group.ranks[static_cast<std::size_t>(t.src)];
  const GpuId dst = run.group.ranks[static_cast<std::size_t>(t.dst)];
  transport_.send(run, src, dst, t.units * rs->unit,
                  [rs, index] { rs->exec->on_transfer_done(rs, index); });
}

void CollectiveExecutor::on_transfer_done(RunState* rs, int index) {
  --rs->transfers_remaining;
  if (!rs->result.step_synchronous) {
    for (int d : rs->run.cc->dependents(index)) {
      if (--rs->deps_remaining[static_cast<std::size_t>(d)] == 0) {
        launch_transfer(rs, d);
      }
    }
  } else {
    if (--rs->step_transfers_remaining == 0 && rs->transfers_remaining > 0) {
      const int next_step =
          rs->run.cc->transfers[static_cast<std::size_t>(index)].step + 1;
      run_step_synchronous(rs, next_step);
    }
  }
  if (rs->transfers_remaining == 0) finish(rs);
}

void CollectiveExecutor::run_step_synchronous(RunState* rs, int step) {
  // Skip (theoretically) empty steps.
  const CompiledCollective& cc = *rs->run.cc;
  while (step < cc.n_steps && cc.step(step).empty()) ++step;
  if (step >= cc.n_steps) return;
  rs->step_transfers_remaining = static_cast<int>(cc.step(step).size());
  transport_.prepare_step(rs->run, step, [rs, step] {
    for (int ti : rs->run.cc->step(step)) rs->exec->launch_transfer(rs, ti);
  });
}

void CollectiveExecutor::finish(RunState* rs) {
  rs->result.end = sim_.now();
  ++completed_;
  transport_.collective_finished(rs->run);
  // Recycle the RunState before the callback, which may start the next run
  // on it; the callback gets its own copy of the result.
  const Result result = rs->result;
  const std::function<void(const Result&)> on_complete =
      std::move(rs->on_complete);
  rs->on_complete = nullptr;
  rs->run.cc.reset();
  free_runs_.push_back(rs);
  if (on_complete) on_complete(result);
}

}  // namespace opus::collective
