// Electrical packet rail switch (the baseline the paper replaces).
//
// Modelled as a non-blocking crossbar: every attached endpoint owns an uplink
// (endpoint -> switch) and a downlink (switch -> endpoint), each at the full
// NIC bandwidth. Any-to-any connectivity is always available; contention
// appears on uplinks (fan-out) and downlinks (incast) through fluid sharing.
// Each traversal adds one switch hop latency (OEO conversion + ASIC
// processing), which an optical circuit does not pay.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "net/fluid.h"

namespace opus::net {

class ElectricalSwitch {
 public:
  ElectricalSwitch(FluidNetwork& net, int n_endpoints, Bandwidth port_bw,
                   TimeNs hop_latency);

  int n_endpoints() const { return n_endpoints_; }
  TimeNs hop_latency() const { return hop_latency_; }
  Bandwidth port_bandwidth() const { return port_bw_; }

  /// Link carrying traffic from endpoint `i` into the switch. Created on
  /// first use: an idle endpoint contributes no fluid-network state, so a
  /// 4096-node rail whose tenants touch 64 nodes materializes 64 nodes'
  /// worth of links (the memory-proportionality tests pin this).
  LinkId uplink(int i) const;
  /// Link carrying traffic from the switch to endpoint `i` (lazy, as above).
  LinkId downlink(int i) const;

  /// Endpoints whose uplink or downlink has been materialized so far.
  int touched_endpoints() const;

  /// The endpoint's uplink if it has been materialized, an invalid id
  /// otherwise. Failure teardown uses these: aborting traffic on a node that
  /// never touched the switch must not allocate links just to find nothing.
  LinkId peek_uplink(int i) const;
  LinkId peek_downlink(int i) const;

  /// Degrades (or restores) endpoint `i`'s up/down capacity to
  /// `scale` x port bandwidth — failure injection: a node that lost k of
  /// its n NIC-port lanes keeps (n-k)/n of its electrical bandwidth.
  /// Active flows immediately re-share; scale 1.0 restores full rate and
  /// drops the (sparse) override. Scale 0 leaves the links stalled rather
  /// than retiring them — the fabric stays wired, just dark.
  void set_endpoint_capacity_scale(int i, double scale);
  double endpoint_capacity_scale(int i) const;

 private:
  Bandwidth scaled_bw(int i) const;

  FluidNetwork& net_;
  int n_endpoints_;
  Bandwidth port_bw_;
  TimeNs hop_latency_;
  // Lazy link caches (4 bytes per endpoint until touched; the heavy
  // per-link state lives in the FluidNetwork and is allocated on demand).
  mutable std::vector<LinkId> uplinks_;
  mutable std::vector<LinkId> downlinks_;
  /// Sparse capacity overrides (endpoint -> scale in (0, 1]); absent = 1.0.
  /// Sparse so a 4096-node rail with three degraded nodes stays O(3).
  std::unordered_map<int, double> capacity_scale_;
};

}  // namespace opus::net
