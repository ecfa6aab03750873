// Flow-level ("fluid") network model.
//
// Long-lived transfers are modelled as fluid flows over paths of
// capacity-limited unidirectional links. Rates are solved with progressive
// filling (max-min fairness) and the single earliest-completion event is
// rescheduled once per simulated instant in which the set of flows (or a
// link capacity) changed. This is the standard first-order approximation
// used by flow-level datacenter simulators and is exact for the dedicated
// point-to-point circuits of a photonic rail.
//
// The solve is deferred to the end of the instant: start_flow, abort_flow,
// set_capacity and the completion handler only mark the network dirty, and
// a Simulator end-of-instant hook solves once after the instant's last
// event. A collective step that launches hundreds of flows at one timestamp
// thus pays for one solve, not one per flow. No simulated time passes inside
// an instant, so the answer equals the last of the per-call solves it
// replaces. flow_rate_bps and allocated_bps settle a pending solve on
// demand (they are non-const, so observers holding a const FluidNetwork&
// cannot perturb the solve count); flow_remaining needs no solve.
//
// The solve is component-local. Attaching or detaching a flow and changing
// a capacity record the links involved as dirty; the solve walks from them
// to every flow that shares a link with them, transitively, and re-fills
// only that component. On a photonic rail each transfer owns its circuit,
// so a starting flow usually re-fills only itself, and a flow that drains
// alone on its links leaves an empty component: that solve returns at once.
// A whole-network solve is simply the case where every link is dirty.
//
// Each progressive-filling round freezes the whole bottleneck set at the
// round's minimum fair share: every link at that share, and every unfrozen
// flow on them at exactly that share. N circuits at one identical share —
// the shape of a large collective on photonic rails — cost one round, not
// N. The set is chosen before anything freezes, so a component's rates
// depend on the component alone, not on the order its links or flows are
// visited in or on what else was dirty. Progress is
// charged only when a flow's rate changes (and at completion), so a flow's
// integration never depends on how many solves pass over it. Together these
// make simulated results independent of solve cadence: re-solving every
// link every instant changes no completion time.
//
// The solver scales with the dirty component, not lifetime state:
// epoch-stamped scratch arrays avoid per-solve clearing, and per-link flow
// indices make active_flows_on / allocated_bps O(1) / O(flows-on-link). The
// link table itself is bounded by hardware: an optical switch adds one link
// per port (its transmitter), whatever peers the port is later connected to,
// so links live as long as the network and are never removed.
//
// Flows live in a dense slot-indexed registry: a contiguous std::vector with
// a LIFO free list, addressed by generation-stamped FlowIds (slot index +
// reuse generation packed into 64 bits). Every hot-path lookup is an array
// index, and a stale id — held across the completion or abort of its flow —
// is detected by its generation instead of silently aliasing the slot's
// next occupant. The earliest completion is tracked by a lazy-deletion
// min-heap of projected drain instants: entries are invalidated by
// generation/projection mismatch and only flows whose rate actually changed
// push new entries, so rescheduling after churn never rescans the registry.
//
// Drained flows are delivered in batches. The flows that drain at one
// instant with one extra_latency share a single delivery event, which runs
// their callbacks in drain order: a collective step's hundreds of equal
// flows on dedicated circuits cost one event, not one each. The order is
// the one a per-flow event would give, because the handler closes its open
// batches whenever a latency-0 callback runs inline (it may schedule at the
// batches' instant itself).
//
// A flow's life allocates nothing once the network is warm. start_flow
// copies the path into its slot's retained buffer; the completion handler
// collects drained flows in a retained list; a batch's callbacks wait in a
// slab (common/slab.h) of callback vectors whose buffers are recycled, and
// the delivery event captures only the network and the slot index, small
// enough for std::function to hold inline. Callers keep the same property
// by passing callbacks that capture at most 16 trivially-copyable bytes (a
// pointer plus an index).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/profile.h"
#include "common/slab.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace opus::net {

/// A unidirectional capacity-limited link.
struct Link {
  Bandwidth capacity;
};

/// The fluid-flow engine. One instance models the whole cluster's data plane.
class FluidNetwork {
 public:
  explicit FluidNetwork(sim::Simulator& sim);
  /// Unregisters the flush hook and cancels the completion event, so the
  /// simulator may keep running after the network is gone.
  ~FluidNetwork();
  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// Adds a link with the given capacity; returns its id. Ids are dense
  /// (0, 1, 2, ...) and a link lives as long as the network.
  LinkId add_link(Bandwidth capacity);

  Bandwidth capacity(LinkId link) const;
  /// Number of links; every id below it is valid.
  std::size_t link_count() const { return links_.size(); }

  /// Changes a link's capacity (used for failure injection / degradation
  /// tests). Active flows re-share at the end of the current instant.
  void set_capacity(LinkId link, Bandwidth capacity);

  /// Starts a flow of `bytes` over `path` (ordered, duplicate-free link ids).
  /// The path is copied into the flow slot's retained buffer, so the caller
  /// keeps ownership of it and a warm network allocates nothing.
  /// `on_complete` fires once the flow has drained and `extra_latency` has
  /// elapsed (propagation + per-hop fixed latency, applied once); while that
  /// latency elapses the callback waits in the delivery slab, batched with
  /// the other flows that drained at the same instant with the same latency
  /// (they run in drain order, in one simulator event).
  /// A zero-byte flow completes after `extra_latency` alone; it stays
  /// flow_active (and abortable) until that delivery.
  FlowId start_flow(std::span<const LinkId> path, Bytes bytes,
                    TimeNs extra_latency, std::function<void()> on_complete);
  /// Braced-path convenience: start_flow({up, down}, ...).
  FlowId start_flow(std::initializer_list<LinkId> path, Bytes bytes,
                    TimeNs extra_latency, std::function<void()> on_complete) {
    return start_flow(std::span<const LinkId>(path.begin(), path.size()),
                      bytes, extra_latency, std::move(on_complete));
  }

  /// Aborts an in-flight flow; its completion callback never fires. Pending
  /// zero-byte (pure-latency) flows are in flight until delivery and abort
  /// like any other. Returns false if the flow already completed (a drained
  /// flow counts as completed even while its extra_latency delivery is
  /// pending), was already aborted, or never existed — stale ids whose slot
  /// was since reused are rejected by their generation stamp.
  bool abort_flow(FlowId flow);

  /// Aborts every active flow whose path crosses `link` (failure injection:
  /// a failed port kills the traffic on its circuit). Completion callbacks
  /// never fire. Returns the number of flows aborted.
  int abort_flows_on(LinkId link);

  /// Snapshot of the active flows whose path crosses `link` (failure
  /// injection enumerates a dying circuit's flows to rescue or abort them).
  /// Pending zero-byte flows hold no links and never appear here.
  std::vector<FlowId> flows_on(LinkId link) const {
    check_link(link);
    return link_state_[static_cast<std::size_t>(link.value())].flows;
  }

  /// Current rate of an active flow in bits/sec (0 for stalled flows and
  /// pending zero-byte flows). Settles a pending solve first.
  double flow_rate_bps(FlowId flow);
  /// Bytes not yet drained for an active flow.
  Bytes flow_remaining(FlowId flow) const;
  /// True while the flow occupies a registry slot: draining, or a zero-byte
  /// flow whose latency has not yet elapsed. Stale and foreign ids are false.
  bool flow_active(FlowId flow) const;

  /// Flows currently occupying registry slots (draining + pending zero-byte).
  std::size_t active_flow_count() const { return active_count_; }
  /// Number of active flows whose path crosses `link`. O(1). Inline: the
  /// OCS's pre-reconfiguration traffic checks call this once per touched
  /// port, which on a large rotor fabric is tens of millions of calls.
  int active_flows_on(LinkId link) const {
    check_link(link);
    return static_cast<int>(
        link_state_[static_cast<std::size_t>(link.value())].flows.size());
  }
  /// Sum of the current rates (bits/sec) of the flows crossing `link`.
  /// Never exceeds the link capacity (a max-min allocation invariant; the
  /// sum is clamped so bottleneck-set freezing cannot overshoot by
  /// floating-point slack). O(flows on the link). Settles a pending solve
  /// first.
  double allocated_bps(LinkId link);
  /// Flows whose drain completed *and* whose completion was delivered
  /// (zero-byte flows count when their latency elapses, not at start_flow).
  std::uint64_t completed_flow_count() const { return completed_; }

  /// Max-min solves performed (at most one per dirty instant, plus on-demand
  /// settles), counted even when the dirty component is empty. Telemetry
  /// gauge.
  std::int64_t solve_count() const { return solve_count_; }
  /// Progressive-filling rounds across all solves: each round freezes one
  /// bottleneck set of the dirty component. A solve whose component is
  /// empty (say, a flow drained alone on its links) adds none. Telemetry
  /// gauge of solver work.
  std::int64_t solve_rounds() const { return solve_rounds_; }
  /// Links frozen as bottleneck-set members across all solves; like
  /// solve_rounds(), only dirty-component links count.
  std::int64_t frozen_bottleneck_links() const {
    return frozen_bottleneck_links_;
  }

  /// Opt-in wall-clock sink timing each solve (obs self-profiling).
  /// Null (the default) costs one branch per solve.
  void set_profile_sink(ProfileSink* sink);

 private:
  /// Sentinel projection for flows with no completion in sight (stalled on a
  /// dark link, or beyond the schedulable era).
  static constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

  /// One registry slot. `generation` is odd while the slot is occupied and
  /// even while it sits on the free list; a FlowId is live iff it carries
  /// the slot's current (odd) generation.
  struct Flow {
    std::vector<LinkId> path;
    double remaining_bytes = 0.0;
    double rate_bytes_per_ns = 0.0;
    TimeNs extra_latency = 0;
    std::function<void()> on_complete;
    /// Solve epoch in which this flow joined the dirty component or had its
    /// rate frozen (solver scratch).
    std::uint64_t frozen_epoch = 0;
    std::uint32_t generation = 0;
    /// Instant up to which remaining_bytes is integrated (per-flow lazy
    /// progress: charged when the solve changes the rate, at completion
    /// processing, and — without mutation — on flow_remaining queries).
    TimeNs last_charged = 0;
    /// Projected drain instant at the current rate (kNever when stalled).
    /// The completion heap's validity check compares against this.
    TimeNs projected_done = kNever;
    /// Zero-byte flows: the scheduled delivery event, cancellable by abort.
    EventId latency_event{};
  };

  /// Lazy-deletion min-heap entry: valid iff the slot still holds generation
  /// `generation` and still projects completion at exactly `time`.
  struct CompletionEntry {
    TimeNs time;
    std::uint32_t slot;
    std::uint32_t generation;
    /// Min-heap on (time, slot): equal-instant completions pop in slot
    /// order, keeping callback delivery deterministic.
    friend bool operator>(const CompletionEntry& a, const CompletionEntry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.slot > b.slot;
    }
  };

  /// Per-link bookkeeping kept parallel to links_.
  struct LinkState {
    /// Ids of the active flows whose path crosses this link (unordered;
    /// removal is swap-with-last).
    std::vector<FlowId> flows;
  };

  /// Bounds-check a link id (inline: rides every hot-path link accessor).
  void check_link(LinkId link) const {
    ensure(link.valid() &&
               static_cast<std::size_t>(link.value()) < links_.size(),
           "invalid link id");
  }
  /// The slot behind a live id; nullptr for stale, foreign, or invalid ids.
  Flow* find_flow(FlowId flow);
  const Flow* find_flow(FlowId flow) const;
  /// Pops a slot off the free list (or grows the registry) and stamps its
  /// occupied generation. The returned slot's Flow is in released state.
  std::uint32_t alloc_slot();
  /// Stamps the slot free (generation becomes even) and drops its payload.
  void release_slot(std::uint32_t slot);
  /// Registers `id` on every link of its path and marks those links dirty.
  void attach_to_links(FlowId id, const Flow& f);
  /// Removes `id` from every link of its path and marks those links dirty.
  void detach_from_links(FlowId id, const Flow& f);
  /// Integrates progress at the current rate since last_charged.
  void charge_progress(Flow& f, TimeNs now);
  /// Absolute drain instant of `f` at its current rate, rounded up and
  /// clamped to the completion horizon; kNever when stalled.
  TimeNs project_completion(const Flow& f, TimeNs now) const;
  /// Pushes a completion-heap entry / pops the heap's top entry.
  void push_completion(TimeNs time, std::uint32_t slot,
                       std::uint32_t generation);
  void pop_completion_top();
  /// Marks the rates stale and requests the end-of-instant flush.
  void mark_dirty();
  /// If the rates are stale: re-solves max-min fair rates and reschedules
  /// the completion event (the end-of-instant hook, and on-demand reads).
  void flush();
  /// Re-fills the dirty component (see the file comment) and clears the
  /// dirty links.
  void solve_max_min();
  /// Drops stale heap entries, compacts a bloated heap, and (re)schedules
  /// the single completion event at the heap's earliest valid instant.
  void reschedule_completion_event();
  void on_completion_event();
  /// Runs, in drain order, the callbacks parked in delivery slot `batch`
  /// (counting each as it runs), then recycles the slot.
  void deliver(std::uint32_t batch);

  sim::Simulator& sim_;
  sim::Simulator::HookId flush_hook_;
  /// True while a flow-set or capacity change awaits its solve.
  bool dirty_ = false;
  std::vector<Link> links_;
  std::vector<LinkState> link_state_;
  /// links_[i].capacity.bytes_per_ns(), cached so the solve's per-touched-
  /// link reset skips the division.
  std::vector<double> cap_bytes_per_ns_;

  /// The flow registry: dense slot array + LIFO free list. Slots are never
  /// removed, so peak concurrency bounds the vector; holes wait on the free
  /// list with an even generation.
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> flow_free_;
  std::size_t active_count_ = 0;  ///< occupied slots

  /// Earliest-completion tracking: lazy-deletion min-heap over projected
  /// drain instants (see CompletionEntry).
  std::vector<CompletionEntry> completion_heap_;
  EventId completion_event_{};
  TimeNs completion_event_time_ = kNever;
  std::uint64_t completed_ = 0;
  /// The completion handler's list of drained flows (latency, callback),
  /// retained across events.
  std::vector<std::pair<TimeNs, std::function<void()>>> drained_;
  /// Delivery slab: per (completion instant, latency), the callbacks of
  /// drained flows waiting out extra_latency, in drain order. A freed
  /// slot keeps its emptied vector, so a warm network allocates nothing.
  Slab<std::vector<std::function<void()>>> deliveries_;
  /// The completion handler's batches still open to later drained flows:
  /// (latency, delivery slot). Retained across events.
  std::vector<std::pair<TimeNs, std::uint32_t>> open_batches_;

  // Solver scratch, persistent across solves so a re-solve costs O(dirty
  // component footprint), not O(lifetime links). A slot is valid only when
  // its epoch stamp matches the current walk's epoch. start_flow borrows the
  // same epoch counter + link stamps for its duplicate-link check.
  std::uint64_t solve_epoch_ = 0;
  std::vector<std::uint64_t> link_epoch_;
  std::vector<double> cap_left_;
  std::vector<int> unfrozen_on_;
  std::vector<std::size_t> touched_links_;
  /// Links whose flow set or capacity changed since the last solve (may
  /// repeat; the solve's walk dedups them).
  std::vector<std::size_t> dirty_links_;
  /// The current round's bottleneck set.
  std::vector<std::size_t> bottleneck_;

  // Solver telemetry counters: one add per solve / per freezing round on
  // already-cold bookkeeping, always on (cheaper than a guard).
  std::int64_t solve_count_ = 0;
  std::int64_t solve_rounds_ = 0;
  std::int64_t frozen_bottleneck_links_ = 0;

  // Opt-in wall-clock profiling of the solve (null = off).
  ProfileSink* profile_sink_ = nullptr;
  int profile_phase_recompute_ = -1;
};

}  // namespace opus::net
