#include "core/opus_transport.h"

#include "common/error.h"

namespace opus::core {

OpusTransport::OpusTransport(sim::Simulator& sim, net::Cluster& cluster,
                             Options options)
    : sim_(sim),
      cluster_(cluster),
      options_(options),
      planner_(cluster),
      controller_(std::make_unique<OpusController>(sim, cluster,
                                                   options.controller)),
      shim_(std::make_unique<OpusShim>(options.provisioning)) {
  ensure(cluster_.photonic(), "OpusTransport requires photonic rails");
  if (options_.pipeline_stages > 2) {
    planner_.set_dim_stripe_limit(collective::ParallelismDim::kPP, 1);
  }
  shim_->set_speculate(
      [this](GroupId g, const std::vector<RailCircuits>& layout) {
        controller_->request(g, layout, {});  // speculative: nothing waits
      });
}

bool OpusTransport::offload_to_mgmt(const collective::CommGroup& group,
                                    Bytes payload) const {
  return options_.mgmt_offload_threshold > 0 && cluster_.has_mgmt_network() &&
         cluster_.spans_nodes(group.ranks) &&
         payload <= options_.mgmt_offload_threshold;
}

void OpusTransport::prepare_collective(
    const collective::CommGroup& group,
    const collective::CompiledCollective& cc, Bytes payload,
    std::function<void()> ready) {
  if (!cluster_.spans_nodes(group.ranks)) {
    ready();
    return;
  }
  if (offload_to_mgmt(group, payload)) {
    mgmt_mode_[group.id] = true;
    ready();
    return;
  }
  mgmt_mode_.erase(group.id);

  const auto layout = planner_.plan_static(group, cc);
  if (!layout.has_value()) {
    // Peer-changing schedule: circuits are established per step via
    // prepare_step; the intent is still recorded for phase tracking.
    shim_->on_intent(group.dim, {});
    controller_->group_activity(group.id, +1);
    ready();
    return;
  }
  shim_->on_intent(group.dim, *layout);
  // The group becomes "active" (its circuits must not be preempted) only
  // once the controller grants them — marking it active while still queued
  // would let two queued groups deadlock on each other's ports.
  controller_->request(group.id, *layout,
                       [this, id = group.id, cb = std::move(ready)] {
                         controller_->group_activity(id, +1);
                         cb();
                       });
}

bool OpusTransport::needs_per_step_preparation(
    const collective::CommGroup& group,
    const collective::CompiledCollective& cc, Bytes payload) const {
  if (!cluster_.spans_nodes(group.ranks)) return false;
  if (offload_to_mgmt(group, payload)) return false;
  return !planner_.plan_static(group, cc).has_value();
}

void OpusTransport::prepare_step(const collective::CommGroup& group,
                                 const collective::CompiledCollective& cc,
                                 Bytes payload, int step,
                                 std::function<void()> ready) {
  if (!cluster_.spans_nodes(group.ranks) || offload_to_mgmt(group, payload)) {
    ready();
    return;
  }
  const auto layout = planner_.plan_step(group, cc, step);
  controller_->request(group.id, layout, std::move(ready));
}

void OpusTransport::send(const collective::CommGroup& group, GpuId src,
                         GpuId dst, Bytes bytes, std::function<void()> done) {
  const auto it = mgmt_mode_.find(group.id);
  if (it != mgmt_mode_.end() && it->second && src != dst) {
    cluster_.transfer_mgmt(src, dst, bytes, std::move(done));
    return;
  }
  cluster_.transfer(src, dst, bytes, std::move(done));
}

void OpusTransport::collective_finished(
    const collective::CommGroup& group,
    const collective::CompiledCollective& cc) {
  (void)cc;
  if (!cluster_.spans_nodes(group.ranks)) return;
  if (mgmt_mode_.contains(group.id)) return;
  controller_->group_activity(group.id, -1);
  shim_->on_finished(group.dim);
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
