#include "net/fluid.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.h"

namespace opus::net {
namespace {
/// A flow is considered drained when fewer than this many bytes remain
/// (absorbs floating-point error from rate integration).
constexpr double kDrainEpsilonBytes = 1e-3;

/// Cap on how far ahead a completion event may be scheduled. A near-stalled
/// flow (huge remaining / tiny rate) would otherwise overflow the TimeNs
/// cast — remaining/rate can exceed 2^63 ns long before the rate underflows
/// to an exactly-zero "stalled" rate. ~29 simulated years: far beyond any
/// training job, and small enough that one hop past kMaxSchedulableNs below
/// cannot overflow.
constexpr double kMaxCompletionHorizonNs = 9.0e17;

/// Past this instant (~263 simulated years) no completion event is scheduled
/// at all — every per-flow delta is capped at the horizon above, so this
/// bound keeps now() + dt overflow-free even when a clamped event fires and
/// re-projects repeatedly; flows simply count as stalled from here on.
constexpr TimeNs kMaxSchedulableNs =
    std::numeric_limits<TimeNs>::max() -
    2 * static_cast<TimeNs>(kMaxCompletionHorizonNs);
}  // namespace

FluidNetwork::FluidNetwork(sim::Simulator& sim)
    : sim_(sim), flush_hook_(sim.add_instant_hook([this] { flush(); })) {}

FluidNetwork::~FluidNetwork() {
  sim_.remove_instant_hook(flush_hook_);
  if (completion_event_.valid()) sim_.cancel(completion_event_);
}

LinkId FluidNetwork::add_link(Bandwidth capacity) {
  ensure(capacity.bits_per_sec >= 0.0, "link capacity must be non-negative");
  links_.push_back(Link{capacity});
  cap_bytes_per_ns_.push_back(capacity.bytes_per_ns());
  link_state_.emplace_back();
  link_epoch_.push_back(0);
  cap_left_.push_back(0.0);
  unfrozen_on_.push_back(0);
  return LinkId{static_cast<std::int32_t>(links_.size() - 1)};
}

Bandwidth FluidNetwork::capacity(LinkId link) const {
  check_link(link);
  return links_[static_cast<std::size_t>(link.value())].capacity;
}

void FluidNetwork::set_capacity(LinkId link, Bandwidth capacity) {
  check_link(link);
  ensure(capacity.bits_per_sec >= 0.0, "link capacity must be non-negative");
  const auto li = static_cast<std::size_t>(link.value());
  links_[li].capacity = capacity;
  cap_bytes_per_ns_[li] = capacity.bytes_per_ns();
  dirty_links_.push_back(li);
  mark_dirty();
}

FluidNetwork::Flow* FluidNetwork::find_flow(FlowId flow) {
  // Issued generations are odd; even means default-constructed, integer-cast,
  // or a slot observed free — never a live flow.
  if ((flow.generation() & 1u) == 0u) return nullptr;
  const std::uint32_t slot = flow.slot();
  if (slot >= flows_.size()) return nullptr;
  Flow& f = flows_[slot];
  return f.generation == flow.generation() ? &f : nullptr;
}

const FluidNetwork::Flow* FluidNetwork::find_flow(FlowId flow) const {
  return const_cast<FluidNetwork*>(this)->find_flow(flow);
}

std::uint32_t FluidNetwork::alloc_slot() {
  std::uint32_t slot;
  if (!flow_free_.empty()) {
    slot = flow_free_.back();
    flow_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  }
  flows_[slot].generation += 1;  // even (free) -> odd (occupied)
  ++active_count_;
  return slot;
}

void FluidNetwork::release_slot(std::uint32_t slot) {
  Flow& f = flows_[slot];
  f.generation += 1;  // odd (occupied) -> even (free)
  f.path.clear();     // keeps the buffer for the slot's next occupant
  f.remaining_bytes = 0.0;
  f.rate_bytes_per_ns = 0.0;
  f.extra_latency = 0;
  f.on_complete = nullptr;
  f.frozen_epoch = 0;
  f.projected_done = kNever;
  f.latency_event = EventId{};
  flow_free_.push_back(slot);
  --active_count_;
}

FlowId FluidNetwork::start_flow(std::span<const LinkId> path, Bytes bytes,
                                TimeNs extra_latency,
                                std::function<void()> on_complete) {
  ensure(bytes >= 0, "flow size must be non-negative");
  ensure(extra_latency >= 0, "flow latency must be non-negative");
  // Duplicate-link check on the solver's epoch-stamped link scratch: a fresh
  // epoch makes every stamp stale, so there is nothing to clear and nothing
  // to allocate (the next solve bumps the epoch again for its own use).
  const std::uint64_t epoch = ++solve_epoch_;
  for (LinkId l : path) {
    check_link(l);
    const auto li = static_cast<std::size_t>(l.value());
    ensure(link_epoch_[li] != epoch, "flow path contains a duplicate link");
    link_epoch_[li] = epoch;
  }
  const std::uint32_t slot = alloc_slot();
  Flow& f = flows_[slot];
  const FlowId id = FlowId::from_parts(slot, f.generation);
  f.extra_latency = extra_latency;
  f.on_complete = std::move(on_complete);
  f.last_charged = sim_.now();
  if (bytes == 0) {
    // Pure-latency message (e.g. a control ack): no bandwidth consumed. The
    // completion is counted when it is *delivered*, not here — otherwise
    // completed_flow_count() reads ahead of the observable callbacks. The
    // delivery event is kept on the slot so abort_flow can cancel it; only
    // this callback or an abort ever release the slot, so the slot still
    // belongs to this flow whenever the event fires.
    f.latency_event = sim_.schedule_after(extra_latency, [this, slot] {
      auto cb = std::move(flows_[slot].on_complete);
      release_slot(slot);
      ++completed_;
      if (cb) cb();
    });
    return id;
  }
  ensure(!path.empty(), "non-empty flow requires a non-empty path");
  f.path.assign(path.begin(), path.end());  // into the slot's kept buffer
  f.remaining_bytes = static_cast<double>(bytes);
  attach_to_links(id, f);
  mark_dirty();
  return id;
}

bool FluidNetwork::abort_flow(FlowId flow) {
  Flow* f = find_flow(flow);
  if (f == nullptr) return false;
  if (f->latency_event.valid()) {
    // Pending zero-byte flow: cancel the delivery so the callback never
    // fires (and the completion is never counted).
    sim_.cancel(f->latency_event);
    release_slot(flow.slot());
    return true;
  }
  detach_from_links(flow, *f);
  release_slot(flow.slot());
  mark_dirty();
  return true;
}

int FluidNetwork::abort_flows_on(LinkId link) {
  check_link(link);
  const auto li = static_cast<std::size_t>(link.value());
  // abort_flow mutates the per-link index (swap-with-last), so iterate a
  // snapshot. Stale ids (a multi-link flow already aborted via an earlier
  // link in some caller's loop) are rejected by generation, so double
  // aborts are harmless here.
  const std::vector<FlowId> doomed = link_state_[li].flows;
  int aborted = 0;
  for (const FlowId f : doomed) {
    if (abort_flow(f)) ++aborted;
  }
  return aborted;
}

bool FluidNetwork::flow_active(FlowId flow) const {
  return find_flow(flow) != nullptr;
}

double FluidNetwork::flow_rate_bps(FlowId flow) {
  flush();
  const Flow* f = find_flow(flow);
  ensure(f != nullptr, "flow_rate_bps: flow not active");
  return f->rate_bytes_per_ns * 8e9;
}

Bytes FluidNetwork::flow_remaining(FlowId flow) const {
  const Flow* f = find_flow(flow);
  ensure(f != nullptr, "flow_remaining: flow not active");
  // Progress is charged lazily; account for time since the last charge. A
  // pending solve does not matter: it changes rates from now on, and no time
  // passes within an instant.
  const double elapsed = static_cast<double>(sim_.now() - f->last_charged);
  const double rem = f->remaining_bytes - f->rate_bytes_per_ns * elapsed;
  return static_cast<Bytes>(std::max(rem, 0.0));
}

double FluidNetwork::allocated_bps(LinkId link) {
  check_link(link);
  flush();
  const auto li = static_cast<std::size_t>(link.value());
  double bps = 0.0;
  for (FlowId id : link_state_[li].flows) {
    bps += flows_[id.slot()].rate_bytes_per_ns * 8e9;
  }
  // Bottleneck-set freezing recomputes each link's share independently, so
  // the sum can overshoot capacity by floating-point slack; the documented
  // invariant is "never exceeds capacity", so clamp.
  return std::min(bps, links_[li].capacity.bits_per_sec);
}

void FluidNetwork::attach_to_links(FlowId id, const Flow& f) {
  for (LinkId l : f.path) {
    const auto li = static_cast<std::size_t>(l.value());
    link_state_[li].flows.push_back(id);
    dirty_links_.push_back(li);
  }
}

void FluidNetwork::detach_from_links(FlowId id, const Flow& f) {
  for (LinkId l : f.path) {
    const auto li = static_cast<std::size_t>(l.value());
    auto& on_link = link_state_[li].flows;
    const auto it = std::find(on_link.begin(), on_link.end(), id);
    ensure(it != on_link.end(), "fluid: per-link flow index out of sync");
    *it = on_link.back();
    on_link.pop_back();
    dirty_links_.push_back(li);
  }
}

void FluidNetwork::charge_progress(Flow& f, TimeNs now) {
  const double elapsed = static_cast<double>(now - f.last_charged);
  if (elapsed > 0.0) {
    f.remaining_bytes =
        std::max(0.0, f.remaining_bytes - f.rate_bytes_per_ns * elapsed);
  }
  f.last_charged = now;
}

TimeNs FluidNetwork::project_completion(const Flow& f, TimeNs now) const {
  if (f.rate_bytes_per_ns <= 0.0) return kNever;  // stalled (dark link)
  if (now >= kMaxSchedulableNs) return kNever;    // beyond the modelled era
  const double ns = f.remaining_bytes / f.rate_bytes_per_ns;
  TimeNs dt;
  if (ns >= kMaxCompletionHorizonNs) {
    // Near-stalled: clamp instead of overflowing the cast. If the event
    // ever fires this far out, the flow is still undrained and simply
    // re-projects; in practice a capacity restore or abort re-solves first.
    dt = static_cast<TimeNs>(kMaxCompletionHorizonNs);
  } else {
    dt = static_cast<TimeNs>(ns);
    if (static_cast<double>(dt) < ns) ++dt;  // round up
  }
  return now + dt;
}

void FluidNetwork::push_completion(TimeNs time, std::uint32_t slot,
                                   std::uint32_t generation) {
  completion_heap_.push_back({time, slot, generation});
  std::push_heap(completion_heap_.begin(), completion_heap_.end(),
                 std::greater<>{});
}

void FluidNetwork::pop_completion_top() {
  std::pop_heap(completion_heap_.begin(), completion_heap_.end(),
                std::greater<>{});
  completion_heap_.pop_back();
}

void FluidNetwork::solve_max_min() {
  // Only the dirty component can change rate: the flows sharing a link with
  // this instant's changes, closed transitively over shared links. Flows
  // outside it keep the rates an earlier solve froze; their links, co-flows
  // and capacities are untouched, so re-solving them would reproduce those
  // rates bit for bit (the filling below is a function of the component
  // alone). Walk from the dirty links, stamping flows and links with a walk
  // epoch; touched_links_ is the walk queue and ends up holding exactly the
  // component's links. Everything else — including the idle transmit links
  // of every unused optical switch port — is never touched.
  const std::uint64_t walk = ++solve_epoch_;
  touched_links_.clear();
  auto touch = [&](std::size_t li) {
    link_epoch_[li] = walk;
    cap_left_[li] = cap_bytes_per_ns_[li];
    // Every flow on a component link is in the component.
    unfrozen_on_[li] = static_cast<int>(link_state_[li].flows.size());
    touched_links_.push_back(li);
  };
  for (const std::size_t li : dirty_links_) {
    if (link_epoch_[li] != walk && !link_state_[li].flows.empty()) touch(li);
  }
  dirty_links_.clear();
  std::size_t remaining = 0;
  for (std::size_t next = 0; next < touched_links_.size(); ++next) {
    for (FlowId fid : link_state_[touched_links_[next]].flows) {
      Flow& f = flows_[fid.slot()];
      if (f.frozen_epoch == walk) continue;
      f.frozen_epoch = walk;
      ++remaining;
      for (LinkId l : f.path) {
        const auto lj = static_cast<std::size_t>(l.value());
        if (link_epoch_[lj] != walk) touch(lj);
      }
    }
  }

  // Progressive filling: each round finds the minimum fair share over the
  // links with unfrozen flows and freezes the whole bottleneck set — every
  // link at that share, every unfrozen flow on them at exactly that share.
  // Freezing at a minimum share cannot lower another link's share, so no
  // link drops below it within the round. Independent circuits at one
  // identical share (a 512-node collective puts ~1000 links there) thus
  // cost one round, not one per link. The set is fixed before anything
  // freezes and every subtraction in a round takes the same value, so the
  // result does not depend on the order links or flows are visited in;
  // that is what lets a component no change reached keep its rates.
  const std::uint64_t epoch = ++solve_epoch_;
  const TimeNs now = sim_.now();
  while (remaining > 0) {
    ++solve_rounds_;
    double share = std::numeric_limits<double>::infinity();
    bottleneck_.clear();
    for (const std::size_t li : touched_links_) {
      if (unfrozen_on_[li] <= 0) continue;
      const double s = std::max(cap_left_[li], 0.0) / unfrozen_on_[li];
      if (s > share) continue;
      if (s < share) {
        share = s;
        bottleneck_.clear();
      }
      bottleneck_.push_back(li);
    }
    ensure(!bottleneck_.empty(),
           "max-min solve: unfrozen flow without a constraining link");
    for (const std::size_t li : bottleneck_) {
      if (unfrozen_on_[li] <= 0) continue;  // frozen by an earlier member
      ++frozen_bottleneck_links_;
      for (FlowId fid : link_state_[li].flows) {
        Flow& f = flows_[fid.slot()];
        if (f.frozen_epoch == epoch) continue;
        f.frozen_epoch = epoch;
        if (f.rate_bytes_per_ns != share) {
          // Integrate progress at the outgoing rate, then freeze the new one
          // and feed its projected drain instant to the completion heap. An
          // unchanged rate keeps an unchanged absolute projection, so a
          // steady flow is neither charged nor pushed: its integration and
          // its heap entry stay exactly as the last rate change left them,
          // however many solves pass over it.
          charge_progress(f, now);
          f.rate_bytes_per_ns = share;
          f.projected_done = project_completion(f, now);
          if (f.projected_done != kNever) {
            push_completion(f.projected_done, fid.slot(), f.generation);
          }
        }
        --remaining;
        for (LinkId l : f.path) {
          const auto lj = static_cast<std::size_t>(l.value());
          cap_left_[lj] -= share;
          --unfrozen_on_[lj];
        }
      }
    }
  }
}

void FluidNetwork::reschedule_completion_event() {
  // Lazy deletion: drop entries whose flow died (generation moved on) or
  // whose projection was superseded by a rate change.
  while (!completion_heap_.empty()) {
    const CompletionEntry& top = completion_heap_.front();
    const Flow& f = flows_[top.slot];
    if (f.generation == top.generation && f.projected_done == top.time) break;
    pop_completion_top();
  }
  // Churn bound: when stale entries dominate (rate flapping without event
  // firings), rebuild the heap from the valid survivors.
  if (completion_heap_.size() > 64 &&
      completion_heap_.size() > 4 * active_count_) {
    std::erase_if(completion_heap_, [this](const CompletionEntry& e) {
      const Flow& f = flows_[e.slot];
      return f.generation != e.generation || f.projected_done != e.time;
    });
    std::make_heap(completion_heap_.begin(), completion_heap_.end(),
                   std::greater<>{});
  }
  const TimeNs earliest =
      completion_heap_.empty() ? kNever : completion_heap_.front().time;
  if (earliest == completion_event_time_) return;  // already pinned there
  if (completion_event_.valid()) {
    sim_.cancel(completion_event_);
    completion_event_ = EventId{};
  }
  completion_event_time_ = earliest;
  if (earliest == kNever) return;
  completion_event_ =
      sim_.schedule_at(earliest, [this] { on_completion_event(); });
}

void FluidNetwork::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  sim_.request_instant_hook(flush_hook_);
}

void FluidNetwork::flush() {
  // An on-demand settle leaves the hook request queued; it finds the rates
  // clean and returns.
  if (!dirty_) return;
  dirty_ = false;
  ProfileScope prof(profile_sink_, profile_phase_recompute_);
  ++solve_count_;
  solve_max_min();
  reschedule_completion_event();
}

void FluidNetwork::set_profile_sink(ProfileSink* sink) {
  profile_sink_ = sink;
  if (sink != nullptr) {
    profile_phase_recompute_ = sink->phase("fluid.recompute");
  }
}

void FluidNetwork::on_completion_event() {
  completion_event_ = EventId{};
  completion_event_time_ = kNever;
  const TimeNs now = sim_.now();
  // Cleared here rather than after the walk: a callback that threw may
  // have left entries that must never be delivered.
  drained_.clear();
  // Pop every due entry; equal-instant completions leave the min-heap in
  // slot order, so callback delivery is deterministic.
  while (!completion_heap_.empty()) {
    const CompletionEntry top = completion_heap_.front();
    Flow& f = flows_[top.slot];
    if (f.generation != top.generation || f.projected_done != top.time) {
      pop_completion_top();  // stale (lazy deletion)
      continue;
    }
    if (top.time > now) break;
    pop_completion_top();
    charge_progress(f, now);
    if (f.remaining_bytes <= kDrainEpsilonBytes) {
      drained_.emplace_back(f.extra_latency, std::move(f.on_complete));
      detach_from_links(FlowId::from_parts(top.slot, f.generation), f);
      release_slot(top.slot);
    } else {
      // Horizon-clamped (near-stalled) or rounding-edge firing: not drained
      // yet. Re-project from the charged state so the flow keeps a live
      // completion entry (project_completion never returns `now` for an
      // undrained flow, so this cannot loop).
      f.projected_done = project_completion(f, now);
      if (f.projected_done != kNever) {
        push_completion(f.projected_done, top.slot, f.generation);
      }
    }
  }
  mark_dirty();
  // One delivery event per latency carries that latency's drained flows,
  // in drain order. A latency-0 callback runs inline and may itself
  // schedule at T + L, so it closes every open batch: later flows open new
  // ones behind what it scheduled. Each batch event thus sits where its
  // first flow's own event would, and the events of one instant fire in
  // schedule order, so callbacks run in exactly the per-flow order.
  // completed_flow_count() counts at delivery (drain + extra_latency), like
  // the zero-byte path — never ahead of the observable callbacks. A
  // callback never re-enters this handler (it runs only as the completion
  // event), so drained_ is stable while it is walked.
  open_batches_.clear();
  for (auto& [latency, cb] : drained_) {
    if (latency == 0) {
      open_batches_.clear();
      ++completed_;
      if (cb) cb();  // may start new flows; they join this instant's solve
      continue;
    }
    auto open = std::find_if(
        open_batches_.begin(), open_batches_.end(),
        [latency](const auto& b) { return b.first == latency; });
    if (open == open_batches_.end()) {
      const std::uint32_t batch = deliveries_.acquire();
      sim_.schedule_after(latency, [this, batch] { deliver(batch); });
      open = open_batches_.insert(open_batches_.end(), {latency, batch});
    }
    deliveries_[open->second].push_back(std::move(cb));
  }
}

void FluidNetwork::deliver(std::uint32_t batch) {
  // Walked in place: only the completion handler, a separate event, adds
  // to the slab, so the vector neither moves nor grows under a callback.
  std::vector<std::function<void()>>& cbs = deliveries_[batch];
  for (std::function<void()>& cb : cbs) {
    ++completed_;
    if (cb) cb();
  }
  cbs.clear();  // keeps the buffer for the slot's next batch
  deliveries_.release(batch);
}

}  // namespace opus::net
