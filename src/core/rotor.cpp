#include "core/rotor.h"

#include "common/error.h"

namespace opus::core {

RotorTransport::RotorTransport(sim::Simulator& sim, net::Cluster& cluster,
                               Options options, net::NodeSpan span)
    : sim_(sim), cluster_(cluster), options_(options), span_(span) {
  ensure(cluster_.fabric() == net::FabricKind::kRotor,
         "RotorTransport requires a FabricKind::kRotor cluster");
  ensure(options_.slot_time > 0, "rotor slot time must be positive");
  ensure(span_.count >= 2, "a rotor span needs at least two nodes");
  n_rounds_ = net::rotor_rounds_for(span_.count);
  rails_.resize(static_cast<std::size_t>(cluster_.n_rails()));
  // The cluster performs no pre-job wiring: each rotor wires its own span's
  // round-0 matchings here, instantly — pre-job setup.
  const auto circuits = cluster_.rotor_matching_circuits(0, span_);
  for (int rail = 0; rail < cluster_.n_rails(); ++rail) {
    auto& sw = cluster_.ocs(RailId{rail});
    if (!sw.satisfied(circuits)) sw.force_circuits(circuits);
  }
  for (int rail = 0; rail < cluster_.n_rails(); ++rail) {
    start_round(rail);
  }
}

void RotorTransport::shutdown() { stopped_ = true; }

bool RotorTransport::drained(int rail) const {
  const RailState& state = rails_[static_cast<std::size_t>(rail)];
  if (state.in_flight == 0) return true;
  if (!cluster_.fault_tolerant()) return false;
  // Failure churn can park an in-flight transfer's bytes (its circuit died
  // and no surviving path exists yet). A parked transfer holds no fluid
  // flows, so waiting for its completion would deadlock against the very
  // rotation that could give it a path: when everything still in flight on
  // this rail is parked, the matching is drained for rotation purposes.
  return cluster_.parked_rail_transfers(rail, span_) > 0 &&
         cluster_.rail_span_active_flows(RailId{rail}, span_) == 0;
}

void RotorTransport::poke() {
  if (stopped_) return;
  for (int rail = 0; rail < cluster_.n_rails(); ++rail) {
    RailState& st = rails_[static_cast<std::size_t>(rail)];
    if (st.drain_pending && !st.rotating && drained(rail)) rotate(rail);
  }
}

void RotorTransport::start_round(int rail) {
  RailState& state = rails_[static_cast<std::size_t>(rail)];
  // Idempotent: both the rotation-completion chain and the send() wake-up
  // path call this, and two armed timers on one rail would double the
  // rotation cadence. (State-machine audit: today every caller checks
  // timer_armed first, so this is a guard against future call sites, not a
  // behavior change.)
  if (state.timer_armed) return;
  if (stopped_ || (state.in_flight == 0 && state.waiting.empty())) {
    return;  // idle or shut down: freeze
  }
  state.timer_armed = true;
  sim_.schedule_after(options_.slot_time, [this, rail] { on_slot_end(rail); });
}

void RotorTransport::on_slot_end(int rail) {
  RailState& state = rails_[static_cast<std::size_t>(rail)];
  state.timer_armed = false;
  if (stopped_) return;
  if (!drained(rail)) {
    state.drain_pending = true;  // guard band: rotate once flows drain
    return;
  }
  if (state.waiting.empty() && state.in_flight == 0) {
    return;  // idle: freeze on this matching
  }
  // Either sends are waiting for their matching, or parked (fault-churn)
  // transfers count as drained but still need a topology change — rotate.
  rotate(rail);
}

void RotorTransport::rotate(int rail) {
  RailState& state = rails_[static_cast<std::size_t>(rail)];
  state.drain_pending = false;
  if (stopped_) return;
  const int next = (state.round + 1) % n_rounds_;
  state.rotating = true;
  // A one-round span (2 nodes) re-requests its only matching: while it is
  // live the OCS acks at once and counts nothing, so only a real rotation
  // is tallied; after churn the request re-wires what a repair left down.
  if (n_rounds_ > 1) ++rotations_;
  // The matching is a closed-form function of (span, round): compute it and
  // move it into the OCS's one reconfiguration — one dark interval, one
  // completion event.
  auto& sw = cluster_.ocs(RailId{rail});
  sw.reconfigure(cluster_.rotor_matching_circuits(next, span_),
                 [this, rail, next] {
                   RailState& st = rails_[static_cast<std::size_t>(rail)];
                   st.rotating = false;
                   st.round = next;
                   flush_waiting(rail);
                   start_round(rail);
                 });
}

bool RotorTransport::pair_connected_now(GpuId src, GpuId dst) const {
  // Cross-rank sends ride the destination's rail from the PXN bridge GPU.
  const GpuId from =
      cluster_.local_rank(src) == cluster_.local_rank(dst)
          ? src
          : cluster_.gpu_at(cluster_.node_of(src), cluster_.local_rank(dst));
  return cluster_.rail_path_available(from, dst);
}

void RotorTransport::launch(int rail, PendingSend send) {
  ++rails_[static_cast<std::size_t>(rail)].in_flight;
  const std::uint32_t slot = launched_.put(Launched{rail, std::move(send.done)});
  cluster_.transfer(send.src, send.dst, send.bytes,
                    [this, slot] { on_launched_done(slot); });
}

void RotorTransport::on_launched_done(std::uint32_t slot) {
  const Launched l = launched_.take(slot);
  RailState& st = rails_[static_cast<std::size_t>(l.rail)];
  --st.in_flight;
  if (l.done) l.done();
  if (st.drain_pending && !st.rotating && drained(l.rail)) rotate(l.rail);
}

void RotorTransport::flush_waiting(int rail) {
  // Launch every send whose pair the new matching connects; the rest keep
  // their order at the front of the list (compacted in place).
  auto& waiting = rails_[static_cast<std::size_t>(rail)].waiting;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < waiting.size(); ++i) {
    if (pair_connected_now(waiting[i].src, waiting[i].dst)) {
      launch(rail, std::move(waiting[i]));
    } else {
      if (kept != i) waiting[kept] = std::move(waiting[i]);
      ++kept;
    }
  }
  waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(kept),
                waiting.end());
}

void RotorTransport::send(const collective::CommGroup& group, GpuId src,
                          GpuId dst, Bytes bytes,
                          std::function<void()> done) {
  (void)group;
  ensure(!stopped_, "RotorTransport::send after shutdown");
  if (src == dst || cluster_.same_node(src, dst)) {
    cluster_.transfer(src, dst, bytes, std::move(done));
    return;
  }
  // The rail that will carry the traffic (the destination's rail for PXN).
  const int rail = cluster_.local_rank(dst);
  RailState& state = rails_[static_cast<std::size_t>(rail)];
  PendingSend pending{src, dst, bytes, std::move(done)};
  if (!state.rotating && !state.drain_pending &&
      pair_connected_now(src, dst)) {
    launch(rail, std::move(pending));
    start_round(rail);  // wake the slot clock (idempotent)
    return;
  }
  ++deferred_;
  state.waiting.push_back(std::move(pending));
  if (!state.timer_armed && !state.rotating && !state.drain_pending) {
    start_round(rail);  // wake the rotor so the matching eventually arrives
  }
}

}  // namespace opus::core
