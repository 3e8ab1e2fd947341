// Route computation: XY dimension-order and minimal adaptive routing.
//
// Adaptive routing is made deadlock-free with an escape virtual channel
// (Duato): VC 0 of every port is the escape lane and only ever follows the
// XY route; VCs 1..V-1 may take any minimal direction. Whole-packet
// forwarding (WPF, Ma et al. HPCA'12) is applied at VC allocation so the
// adaptive lanes can be reallocated non-atomically without deadlock.
#pragma once

#include <vector>

#include "common/config.hpp"
#include "topo/fabric.hpp"

namespace arinoc {

struct RouteCandidates {
  /// Minimal productive output ports, or the local (ejection) port when the
  /// packet has arrived. On meshes this is the 1-2 productive directions;
  /// on table-routed fabrics it is every minimal up*/down*-legal port.
  std::vector<int> minimal;
  /// The escape port (always a member of `minimal`): the XY dimension-order
  /// direction on meshes, the lowest-numbered minimal legal port on
  /// table-routed fabrics.
  int xy = -1;
};

/// Computes the candidate output ports for a packet at `here` going to
/// `dest`. `algo` selects whether the full minimal set or only the escape
/// port is productive for adaptive VCs. Meshes route by dimension order
/// (X first); every other fabric consults its up*/down* routing table.
/// `in_port` is the input port the packet occupies at `here` (injection
/// ports or -1 mean "freshly injected") — it determines the up*/down*
/// routing phase and is ignored on meshes.
RouteCandidates compute_route(const topo::Fabric& fabric, NodeId here,
                              int in_port, NodeId dest, RoutingAlgo algo);

}  // namespace arinoc
