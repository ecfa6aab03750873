#include "net/electrical.h"

#include "common/error.h"

namespace opus::net {

ElectricalSwitch::ElectricalSwitch(FluidNetwork& net, int n_endpoints,
                                   Bandwidth port_bw, TimeNs hop_latency)
    : net_(net),
      n_endpoints_(n_endpoints),
      port_bw_(port_bw),
      hop_latency_(hop_latency),
      uplinks_(static_cast<std::size_t>(n_endpoints > 0 ? n_endpoints : 0),
               LinkId{}),
      downlinks_(static_cast<std::size_t>(n_endpoints > 0 ? n_endpoints : 0),
                 LinkId{}) {
  ensure(n_endpoints > 0, "electrical switch requires endpoints");
  ensure(port_bw.positive(), "electrical switch port bandwidth must be > 0");
  ensure(hop_latency >= 0, "hop latency must be non-negative");
}

Bandwidth ElectricalSwitch::scaled_bw(int i) const {
  const auto it = capacity_scale_.find(i);
  return it == capacity_scale_.end() ? port_bw_ : port_bw_ * it->second;
}

LinkId ElectricalSwitch::uplink(int i) const {
  ensure(i >= 0 && i < n_endpoints(), "invalid switch endpoint");
  LinkId& id = uplinks_[static_cast<std::size_t>(i)];
  if (!id.valid()) {
    id = net_.add_link(scaled_bw(i));
  }
  return id;
}

LinkId ElectricalSwitch::downlink(int i) const {
  ensure(i >= 0 && i < n_endpoints(), "invalid switch endpoint");
  LinkId& id = downlinks_[static_cast<std::size_t>(i)];
  if (!id.valid()) {
    id = net_.add_link(scaled_bw(i));
  }
  return id;
}

void ElectricalSwitch::set_endpoint_capacity_scale(int i, double scale) {
  ensure(i >= 0 && i < n_endpoints(), "invalid switch endpoint");
  ensure(scale >= 0.0 && scale <= 1.0,
         "electrical capacity scale must lie in [0, 1]");
  if (scale == 1.0) {
    capacity_scale_.erase(i);
  } else {
    capacity_scale_[i] = scale;
  }
  // Apply to already-materialized links; untouched links pick up the scale
  // lazily at creation via scaled_bw.
  const LinkId up = uplinks_[static_cast<std::size_t>(i)];
  const LinkId down = downlinks_[static_cast<std::size_t>(i)];
  if (up.valid()) net_.set_capacity(up, scaled_bw(i));
  if (down.valid()) net_.set_capacity(down, scaled_bw(i));
}

double ElectricalSwitch::endpoint_capacity_scale(int i) const {
  ensure(i >= 0 && i < n_endpoints(), "invalid switch endpoint");
  const auto it = capacity_scale_.find(i);
  return it == capacity_scale_.end() ? 1.0 : it->second;
}

LinkId ElectricalSwitch::peek_uplink(int i) const {
  ensure(i >= 0 && i < n_endpoints(), "invalid switch endpoint");
  return uplinks_[static_cast<std::size_t>(i)];
}

LinkId ElectricalSwitch::peek_downlink(int i) const {
  ensure(i >= 0 && i < n_endpoints(), "invalid switch endpoint");
  return downlinks_[static_cast<std::size_t>(i)];
}

int ElectricalSwitch::touched_endpoints() const {
  int touched = 0;
  for (int i = 0; i < n_endpoints_; ++i) {
    if (uplinks_[static_cast<std::size_t>(i)].valid() ||
        downlinks_[static_cast<std::size_t>(i)].valid()) {
      ++touched;
    }
  }
  return touched;
}

}  // namespace opus::net
