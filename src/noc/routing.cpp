#include "noc/routing.hpp"

#include "topo/generators.hpp"

namespace arinoc {

RouteCandidates compute_route(const topo::Fabric& fabric, NodeId here,
                              int in_port, NodeId dest, RoutingAlgo algo) {
  RouteCandidates rc;
  const int local = fabric.local_port();
  if (here == dest) {
    rc.minimal.push_back(local);
    rc.xy = local;
    return rc;
  }
  if (fabric.is_mesh()) {
    const int hx = static_cast<int>(fabric.x_of(here));
    const int hy = static_cast<int>(fabric.y_of(here));
    const int dx = static_cast<int>(fabric.x_of(dest));
    const int dy = static_cast<int>(fabric.y_of(dest));
    const int x_dir = dx > hx ? topo::kEast : (dx < hx ? topo::kWest : -1);
    const int y_dir = dy > hy ? topo::kSouth : (dy < hy ? topo::kNorth : -1);
    // XY dimension order: exhaust X first.
    rc.xy = x_dir != -1 ? x_dir : y_dir;
    if (algo == RoutingAlgo::kXY) {
      rc.minimal.push_back(rc.xy);
    } else {
      if (x_dir != -1) rc.minimal.push_back(x_dir);
      if (y_dir != -1) rc.minimal.push_back(y_dir);
    }
    return rc;
  }
  const topo::RoutingTable& table = *fabric.table();
  const int phase = table.phase_of(here, in_port);
  const topo::RouteEntry& e = table.entry(dest, here, phase);
  // validate_graph + the table construction guarantee a legal port from any
  // state routing can reach (docs/fabrics.md, deadlock-freedom argument).
  rc.xy = e.escape;
  if (algo == RoutingAlgo::kXY) {
    // Deterministic: always the single escape port.
    rc.minimal.push_back(e.escape);
  } else {
    for (int port = 0; port < fabric.max_ports(); ++port) {
      if ((e.port_mask >> port) & 1u) rc.minimal.push_back(port);
    }
  }
  return rc;
}

}  // namespace arinoc
