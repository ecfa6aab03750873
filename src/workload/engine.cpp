#include "workload/engine.h"

#include "common/error.h"
#include "common/rng.h"

namespace opus::workload {

IterationEngine::IterationEngine(sim::Simulator& sim, net::Cluster& cluster,
                                 collective::Transport& transport,
                                 trace::TraceRecorder* recorder,
                                 Options options)
    : sim_(sim),
      cluster_(cluster),
      transport_(transport),
      recorder_(recorder),
      options_(options),
      executor_(sim, transport) {
  ensure(options_.dispatch_min >= 0 &&
             options_.dispatch_max >= options_.dispatch_min,
         "engine: invalid dispatch latency range");
}

TimeNs IterationEngine::dispatch_latency(OpId id) const {
  if (options_.dispatch_max == 0) return 0;
  // Deterministic per (op, iteration): same seeds give identical runs.
  SplitMix64 mix(options_.seed ^
                 (static_cast<std::uint64_t>(iteration_index_) << 32) ^
                 static_cast<std::uint64_t>(id.value()));
  Xoshiro256 rng(mix.next());
  return options_.dispatch_min +
         static_cast<TimeNs>(rng.uniform() *
                             static_cast<double>(options_.dispatch_max -
                                                 options_.dispatch_min));
}

void IterationEngine::run(const IterationDag& dag, int iterations,
                          std::function<void()> on_done) {
  ensure(iterations >= 1, "engine: need at least one iteration");
  ensure(dag_ == nullptr, "engine: a run is already in progress");
  dag.validate();
  dag_ = &dag;
  iterations_left_ = iterations;
  on_done_ = std::move(on_done);

  // Build the dependents index once per run.
  dependents_.assign(dag.size(), {});
  for (const Op& op : dag.ops) {
    for (OpId d : op.deps) {
      dependents_[static_cast<std::size_t>(d.value())].push_back(
          op.id.value());
    }
  }
  gpu_queue_.assign(static_cast<std::size_t>(cluster_.n_gpus()), {});
  gpu_busy_.assign(static_cast<std::size_t>(cluster_.n_gpus()), false);

  start_iteration();
}

std::vector<TimeNs> IterationEngine::run_to_completion(const IterationDag& dag,
                                                       int iterations) {
  bool done = false;
  run(dag, iterations, [&done] { done = true; });
  sim_.run();
  ensure(done, "engine: simulation ended before the workload completed "
               "(dependency deadlock?)");
  return iter_times_;
}

void IterationEngine::abort() {
  aborted_ = true;
  dag_ = nullptr;
  on_done_ = {};
}

void IterationEngine::start_iteration() {
  if (aborted_) return;
  ++iteration_index_;
  iteration_start_ = sim_.now();
  if (recorder_) recorder_->begin_iteration(sim_.now());
  transport_.iteration_started(iteration_index_);

  deps_remaining_.assign(dag_->size(), 0);
  parts_remaining_.assign(dag_->size(), 0);
  ops_remaining_ = dag_->size();
  for (const Op& op : dag_->ops) {
    deps_remaining_[static_cast<std::size_t>(op.id.value())] =
        static_cast<int>(op.deps.size());
  }
  // Seed the roots.
  for (const Op& op : dag_->ops) {
    if (op.deps.empty()) op_ready(op.id);
  }
}

void IterationEngine::finish_iteration() {
  iter_times_.push_back(sim_.now() - iteration_start_);
  if (recorder_) recorder_->end_iteration(sim_.now());
  if (--iterations_left_ > 0) {
    // Decouple from the completing iteration's call stack.
    sim_.schedule_after(0, [this] { start_iteration(); });
    return;
  }
  dag_ = nullptr;
  if (on_done_) {
    auto cb = std::move(on_done_);
    on_done_ = {};
    cb();
  }
}

void IterationEngine::op_ready(OpId id) {
  const Op& op = dag_->op(id);
  switch (op.kind) {
    case OpKind::kJoin:
      complete_op(id);
      return;
    case OpKind::kCompute:
      start_compute(op);
      return;
    case OpKind::kCollective: {
      const TimeNs dispatch = dispatch_latency(id);
      if (dispatch > 0) {
        sim_.schedule_after(dispatch, [this, id] {
          if (aborted_) return;
          start_collective(dag_->op(id));
        });
      } else {
        start_collective(op);
      }
      return;
    }
  }
}

void IterationEngine::start_compute(const Op& op) {
  parts_remaining_[static_cast<std::size_t>(op.id.value())] =
      static_cast<int>(op.gpus.size());
  // Parts whose GPU is idle start now and share ONE completion event (the
  // coalescing that keeps event count independent of how many GPUs a
  // data-parallel op spans); parts behind a busy GPU queue up and complete
  // on that GPU's own schedule.
  std::vector<int> cohort;
  cohort.reserve(op.gpus.size());
  for (GpuId g : op.gpus) {
    if (gpu_busy_[static_cast<std::size_t>(g.value())]) {
      gpu_queue_[static_cast<std::size_t>(g.value())].push_back(op.id);
    } else {
      gpu_busy_[static_cast<std::size_t>(g.value())] = true;
      cohort.push_back(g.value());
    }
  }
  if (cohort.empty()) return;
  const TimeNs start = sim_.now();
  sim_.schedule_after(
      op.duration, [this, id = op.id, start, cohort = std::move(cohort)] {
        finish_cohort(id, cohort, start);
      });
}

void IterationEngine::record_compute_span(int gpu, OpId id, TimeNs start) {
  if (!recorder_) return;
  const Op& op = dag_->op(id);
  trace::ComputeRecord rec;
  rec.gpu = GpuId{gpu};
  rec.t_start = start;
  rec.t_end = sim_.now();
  rec.label = op.label;
  rec.pp_stage = op.pp_stage;
  rec.microbatch = op.microbatch;
  recorder_->record_compute(std::move(rec));
}

void IterationEngine::finish_cohort(OpId id, const std::vector<int>& gpus,
                                    TimeNs start) {
  if (aborted_) return;
  for (int gpu : gpus) record_compute_span(gpu, id, start);
  auto& parts = parts_remaining_[static_cast<std::size_t>(id.value())];
  parts -= static_cast<int>(gpus.size());
  const bool completed = parts == 0;
  // Release the cohort's GPUs before completing the op: a dependent made
  // ready by this completion then sees them idle and starts as one cohort.
  for (int gpu : gpus) run_next_on_gpu(gpu);
  if (completed) complete_op(id);
}

void IterationEngine::run_next_on_gpu(int gpu) {
  auto& queue = gpu_queue_[static_cast<std::size_t>(gpu)];
  if (queue.empty()) {
    gpu_busy_[static_cast<std::size_t>(gpu)] = false;
    return;
  }
  gpu_busy_[static_cast<std::size_t>(gpu)] = true;
  const OpId id = queue.front();
  queue.pop_front();
  const Op& op = dag_->op(id);
  const TimeNs start = sim_.now();
  sim_.schedule_after(op.duration, [this, gpu, id, start] {
    if (aborted_) return;
    record_compute_span(gpu, id, start);
    gpu_finished_part(gpu, id);
  });
}

void IterationEngine::gpu_finished_part(int gpu, OpId id) {
  const bool completed =
      --parts_remaining_[static_cast<std::size_t>(id.value())] == 0;
  run_next_on_gpu(gpu);
  if (completed) complete_op(id);
}

int IterationEngine::degree_budget(const collective::CommGroup& group) const {
  if (!cluster_.photonic()) return 0;
  if (!cluster_.spans_nodes(group.ranks)) return 0;  // NVLink: full mesh
  return cluster_.config().nic_ports;
}

void IterationEngine::start_collective(const Op& op) {
  parts_remaining_[static_cast<std::size_t>(op.id.value())] =
      static_cast<int>(op.group_indices.size());
  const TimeNs issue = sim_.now();
  for (int gi : op.group_indices) {
    const collective::CommGroup& group =
        dag_->groups[static_cast<std::size_t>(gi)];
    const auto algo = collective::choose_algorithm(
        op.ctype, group.size(), op.payload, degree_budget(group));
    const CollectiveKey key{op.ctype, algo, group.size()};
    auto it = compiled_.find(key);
    if (it == compiled_.end()) {
      // The shape is planned without bytes; every run prices it from its
      // own payload.
      it = compiled_
               .emplace(key,
                        collective::compile(op.ctype, algo, group.size()))
               .first;
    }
    executor_.run(group, it->second, op.payload,
                  [this, id = op.id, gi, issue,
                   payload = op.payload](const collective::CollectiveExecutor::
                                             Result& result) {
      if (aborted_) return;
      const Op& op = dag_->op(id);
      if (recorder_) {
        const collective::CommGroup& group =
            dag_->groups[static_cast<std::size_t>(gi)];
        trace::CommRecord rec;
        rec.group = group.id;
        rec.group_name = group.name;
        rec.dim = op.dim;
        rec.type = op.ctype;
        // Report per-rank input sizes, matching the profiler convention the
        // paper's Fig. 4(b) categories use: an AllGather's per-rank input is
        // its shard (total / group size); every other collective reports its
        // payload directly.
        rec.payload = op.ctype == collective::CollectiveType::kAllGather
                          ? payload / group.size()
                          : payload;
        rec.t_issue = issue;
        rec.t_end = result.end;
        rec.scale_out = cluster_.spans_nodes(group.ranks);
        if (rec.scale_out) {
          // Rail-local groups carry their traffic on the members' rail.
          const int local =
              group.ranks.front().value() % cluster_.gpus_per_node();
          bool rail_local = true;
          for (GpuId g : group.ranks) {
            if (g.value() % cluster_.gpus_per_node() != local) {
              rail_local = false;
              break;
            }
          }
          if (rail_local) rec.rail = RailId{local};
        }
        recorder_->record_comm(std::move(rec));
      }
      if (--parts_remaining_[static_cast<std::size_t>(id.value())] == 0) {
        complete_op(id);
      }
    });
  }
}

void IterationEngine::complete_op(OpId id) {
  ensure(ops_remaining_ > 0, "engine: op completed after iteration end");
  --ops_remaining_;
  // Only the frame that performed the final decrement may finish the
  // iteration; outer frames of a synchronous join cascade must not re-fire.
  const bool was_last = (ops_remaining_ == 0);
  for (int d : dependents_[static_cast<std::size_t>(id.value())]) {
    if (--deps_remaining_[static_cast<std::size_t>(d)] == 0) {
      op_ready(OpId{d});
    }
  }
  if (was_last) finish_iteration();
}

}  // namespace opus::workload
