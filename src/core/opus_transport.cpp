#include "core/opus_transport.h"

#include "common/error.h"

namespace opus::core {

OpusTransport::OpusTransport(sim::Simulator& sim, net::Cluster& cluster,
                             Options options)
    : sim_(sim),
      cluster_(cluster),
      options_(options),
      planner_(cluster, options.pipeline_stages),
      controller_(std::make_unique<OpusController>(sim, cluster,
                                                   options.controller)),
      shim_(std::make_unique<OpusShim>(options.provisioning)) {
  ensure(cluster_.photonic(), "OpusTransport requires photonic rails");
  shim_->set_speculate(
      [this](GroupId g, const std::vector<RailCircuits>& layout) {
        controller_->request(g, layout, {});  // speculative: nothing waits
      });
}

bool OpusTransport::offload_to_mgmt(const collective::Run& run) const {
  return options_.mgmt_offload_threshold > 0 &&
         run.payload <= options_.mgmt_offload_threshold &&
         cluster_.has_mgmt_network() && cluster_.spans_nodes(run.group.ranks);
}

void OpusTransport::prepare_collective(const collective::Run& run,
                                       std::function<void(bool)> ready) {
  if (!cluster_.spans_nodes(run.group.ranks) || offload_to_mgmt(run)) {
    ready(false);
    return;
  }
  const auto layout = planner_.plan_static(run.group, *run.cc);
  if (!layout.has_value()) {
    std::deque<StepSyncRun>& runs = step_sync_runs_[run.group.id];
    runs.push_back(StepSyncRun{&run, nullptr});
    if (runs.size() > 1) {  // waits for the group's active run
      runs.back().ready = std::move(ready);
      return;
    }
  }
  provision(run, layout, !layout.has_value(), std::move(ready));
}

void OpusTransport::provision(
    const collective::Run& run,
    const std::optional<std::vector<RailCircuits>>& layout,
    bool step_synchronous, std::function<void(bool)> ready) {
  if (!layout.has_value()) {
    // Peer-changing schedule: circuits are established per step via
    // prepare_step; the intent is still recorded for phase tracking.
    shim_->on_intent(run.group.dim, {});
    controller_->group_activity(run.group.id, +1);
    ready(true);
    return;
  }
  shim_->on_intent(run.group.dim, *layout);
  // The group becomes "active" (its circuits must not be preempted) only
  // once the controller grants them — marking it active while still queued
  // would let two queued groups deadlock on each other's ports.
  controller_->request(
      run.group.id, *layout,
      [this, id = run.group.id, step_synchronous, cb = std::move(ready)] {
        controller_->group_activity(id, +1);
        cb(step_synchronous);
      });
}

void OpusTransport::start_next_step_sync_run(GroupId group) {
  StepSyncRun& next = step_sync_runs_.at(group).front();
  const collective::Run& run = *next.run;
  std::function<void(bool)> ready = std::move(next.ready);
  // Planned again: a fault or repair while the run waited may have changed
  // the port budget. The run stays step-synchronous either way.
  provision(run, planner_.plan_static(run.group, *run.cc), true,
            std::move(ready));
}

void OpusTransport::prepare_step(const collective::Run& run, int step,
                                 std::function<void()> ready) {
  const auto layout = planner_.plan_step(run.group, *run.cc, step);
  controller_->request(run.group.id, layout, std::move(ready));
}

void OpusTransport::send(const collective::Run& run, GpuId src, GpuId dst,
                         Bytes bytes, std::function<void()> done) {
  if (src != dst && offload_to_mgmt(run)) {
    cluster_.transfer_mgmt(src, dst, bytes, std::move(done));
    return;
  }
  cluster_.transfer(src, dst, bytes, std::move(done));
}

void OpusTransport::collective_finished(const collective::Run& run) {
  if (!cluster_.spans_nodes(run.group.ranks) || offload_to_mgmt(run)) return;
  controller_->group_activity(run.group.id, -1);
  shim_->on_finished(run.group.dim);
  const auto it = step_sync_runs_.find(run.group.id);
  if (it == step_sync_runs_.end() || it->second.front().run != &run) return;
  it->second.pop_front();
  if (it->second.empty()) {
    step_sync_runs_.erase(it);
    return;
  }
  // The next run starts off this run's stack, but before the executor
  // fires this run's completion callback.
  sim_.schedule_after(
      0, [this, id = run.group.id] { start_next_step_sync_run(id); });
}

void OpusTransport::iteration_started(int index) {
  shim_->iteration_started(index);
}

bool OpusTransport::hint_collective(
    const collective::CommGroup& group,
    const collective::CompiledCollective& cc) {
  if (!cluster_.spans_nodes(group.ranks)) return true;  // nothing to provision
  const auto layout = planner_.plan_static(group, cc);
  if (!layout.has_value()) return false;
  controller_->request(group.id, *layout, {});  // ahead-of-demand, no waiter
  return true;
}

}  // namespace opus::core
