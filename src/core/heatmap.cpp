#include "core/heatmap.hpp"

#include <algorithm>
#include <sstream>

namespace arinoc {

namespace detail {

char shade(double value, double max) {
  static const char kShades[] = " .:-=+*#%@";
  if (max <= 0.0) return kShades[0];
  const double frac = std::clamp(value / max, 0.0, 1.0);
  const int idx = static_cast<int>(frac * 9.0 + 0.5);
  return kShades[idx];
}

}  // namespace detail

namespace {

std::string render(const Network& net, Cycle elapsed,
                   double (*value_of)(const Router&, int ports, Cycle),
                   const char* title) {
  const topo::Fabric& fabric = net.fabric();
  if (!fabric.is_mesh()) {
    // ASCII heatmaps are 2D-grid renderings; non-mesh fabrics have no such
    // embedding, so degrade gracefully instead of guessing a layout.
    return std::string(title) + ": unavailable (fabric '" + fabric.kind() +
           "' has no mesh geometry)\n";
  }
  double max = 0.0;
  std::vector<double> values(static_cast<std::size_t>(fabric.nodes()));
  for (NodeId n = 0; n < fabric.nodes(); ++n) {
    values[static_cast<std::size_t>(n)] =
        value_of(net.router(n), fabric.max_ports(), elapsed);
    max = std::max(max, values[static_cast<std::size_t>(n)]);
  }
  std::ostringstream os;
  os << title << " (peak " << max << " flit/cycle; M = MC)\n";
  for (std::uint32_t y = 0; y < fabric.graph().mesh_height; ++y) {
    os << "  ";
    for (std::uint32_t x = 0; x < fabric.graph().mesh_width; ++x) {
      const NodeId n = fabric.node_at(x, y);
      os << (fabric.is_mc(n) ? 'M' : 'c')
         << detail::shade(values[static_cast<std::size_t>(n)], max) << ' ';
    }
    os << '\n';
  }
  return os.str();
}

double link_value(const Router& r, int ports, Cycle elapsed) {
  std::uint64_t flits = 0;
  for (int port = 0; port < ports; ++port) flits += r.flits_sent(port);
  return elapsed ? static_cast<double>(flits) / static_cast<double>(elapsed)
                 : 0.0;
}

double injection_value(const Router& r, int /*ports*/, Cycle elapsed) {
  return elapsed ? static_cast<double>(r.flits_injected()) /
                       static_cast<double>(elapsed)
                 : 0.0;
}

}  // namespace

std::string link_heatmap(const Network& net, Cycle elapsed) {
  return render(net, elapsed, link_value, "router link activity");
}

std::string injection_heatmap(const Network& net, Cycle elapsed) {
  return render(net, elapsed, injection_value, "injection activity");
}

}  // namespace arinoc
