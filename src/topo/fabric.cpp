#include "topo/fabric.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "topo/file.hpp"
#include "topo/generators.hpp"

namespace arinoc::topo {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument(msg);
}

McPlacement placement_from(const std::string& s) {
  if (s == "diamond") return McPlacement::kDiamond;
  if (s == "top-bottom") return McPlacement::kTopBottom;
  if (s == "column") return McPlacement::kColumn;
  fail("unknown MC placement '" + s +
       "' (expected diamond, top-bottom, or column)");
}

/// Verifies that a kind=="mesh" graph is exactly the mesh its geometry line
/// declares: regenerates that mesh and requires the same roles and the full
/// N/E/S/W adjacency, nothing more.
void cross_check_mesh(const FabricGraph& g) {
  const McPlacement placement = placement_from(g.mesh_placement);
  const std::uint32_t w = g.mesh_width;
  const std::uint32_t h = g.mesh_height;
  if (g.num_nodes() != static_cast<int>(w * h)) {
    fail("topology declares " + std::to_string(g.num_nodes()) +
         " nodes but geometry mesh " + std::to_string(w) + "x" +
         std::to_string(h) + " has " + std::to_string(w * h));
  }
  const FabricGraph want =
      make_mesh_graph(w, h, g.count_role(NodeRole::kMC), placement);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const NodeRole r = g.roles[static_cast<std::size_t>(n)];
    const bool want_mc =
        want.roles[static_cast<std::size_t>(n)] == NodeRole::kMC;
    if (r == NodeRole::kRouter) {
      fail("mesh geometry cannot contain rtr nodes (node " +
           std::to_string(n) + "); every mesh node is an endpoint");
    }
    if ((r == NodeRole::kMC) != want_mc) {
      fail("MC placement mismatch at node " + std::to_string(n) +
           ": the declared geometry places an " +
           (want_mc ? std::string("mc") : std::string("cc")) +
           " there but the file says " + role_name(r));
    }
  }
  // Declared links by (node, direction); links on other ports only show in
  // the link count below. The regenerated links come in the same
  // (node, direction) order, so one cursor walks them.
  std::vector<const GraphLink*> have(
      static_cast<std::size_t>(g.num_nodes()) * kNumDirections, nullptr);
  for (const GraphLink& l : g.links) {
    if (l.src < 0 || l.src >= g.num_nodes() || l.src_port < 0 ||
        l.src_port >= kNumDirections) {
      continue;
    }
    const GraphLink*& slot =
        have[static_cast<std::size_t>(l.src) * kNumDirections +
             static_cast<std::size_t>(l.src_port)];
    if (!slot) slot = &l;
  }
  auto port = [](NodeId n, int p) {
    return std::to_string(n) + "." + std::to_string(p);
  };
  auto next = want.links.begin();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (int dir = 0; dir < kNumDirections; ++dir) {
      const GraphLink* l = have[static_cast<std::size_t>(n) * kNumDirections +
                                static_cast<std::size_t>(dir)];
      if (next == want.links.end() || next->src != n ||
          next->src_port != dir) {
        if (l) {
          fail("link " + port(n, dir) +
               " points off the mesh edge declared by the geometry");
        }
        continue;
      }
      const GraphLink& e = *next++;
      if (!l) {
        fail("missing mesh link " + port(n, dir) + " -> " +
             port(e.dst, e.dst_port));
      }
      if (l->dst != e.dst || l->dst_port != e.dst_port) {
        fail("link " + port(n, dir) + " -> " + port(l->dst, l->dst_port) +
             " does not match the declared mesh geometry (expected " +
             port(e.dst, e.dst_port) + ")");
      }
      if (l->extra_latency != 0) {
        fail("mesh geometry links cannot carry extra latency (link " +
             port(n, dir) + "); use a non-mesh kind for serdes links");
      }
    }
  }
  if (g.links.size() != want.links.size()) {
    fail("topology declares " + std::to_string(g.links.size()) +
         " directed links but the mesh geometry has " +
         std::to_string(want.links.size()));
  }
}

}  // namespace

Fabric::Fabric(FabricGraph graph) : graph_(std::move(graph)) {
  const bool mesh = graph_.kind == "mesh";
  if (mesh) {
    if (graph_.mesh_width == 0 || graph_.mesh_height == 0 ||
        graph_.mesh_placement.empty()) {
      fail("mesh topology requires a 'geometry mesh <W> <H> <placement>' "
           "line so the native mesh routing can be used");
    }
    cross_check_mesh(graph_);
  }
  // A mesh router keeps all four directions even where the grid wires
  // fewer (a 1-wide mesh has no E/W link, so num_ports() would say 3).
  max_ports_ = mesh ? kNumDirections : graph_.num_ports();
  const std::size_t slots = static_cast<std::size_t>(nodes()) *
                            static_cast<std::size_t>(max_ports_);
  neighbor_.assign(slots, kInvalidNode);
  peer_port_.assign(slots, -1);
  extra_.assign(slots, 0);
  for (const GraphLink& l : graph_.links) {
    neighbor_[idx(l.src, l.src_port)] = l.dst;
    peer_port_[idx(l.src, l.src_port)] = l.dst_port;
    extra_[idx(l.src, l.src_port)] = l.extra_latency;
    max_extra_ = std::max(max_extra_, l.extra_latency);
  }
  for (NodeId n = 0; n < nodes(); ++n) {
    if (role(n) == NodeRole::kMC) {
      mc_nodes_.push_back(n);
    } else if (role(n) == NodeRole::kCC) {
      cc_nodes_.push_back(n);
    }
  }
  if (!mesh) table_ = std::make_unique<RoutingTable>(graph_);
}

std::uint32_t Fabric::hops(NodeId a, NodeId b) const {
  if (!is_mesh()) return table_->hops(a, b);
  const int dx = static_cast<int>(x_of(a)) - static_cast<int>(x_of(b));
  const int dy = static_cast<int>(y_of(a)) - static_cast<int>(y_of(b));
  return static_cast<std::uint32_t>(std::abs(dx) + std::abs(dy));
}

std::string Fabric::port_name(int port) const {
  if (port == max_ports_) return "L";
  if (is_mesh()) return std::string(1, "NESW"[port]);
  return "p" + std::to_string(port);
}

Fabric make_fabric(const Config& cfg) {
  auto build = [&]() -> Fabric {
    if (cfg.fabric == "mesh") {
      return Fabric(make_mesh_graph(cfg.mesh_width, cfg.mesh_height,
                                    cfg.num_mcs, cfg.mc_placement));
    }
    if (cfg.fabric == "torus") {
      return Fabric(make_torus_graph(cfg.mesh_width, cfg.mesh_height,
                                     cfg.num_mcs, cfg.mc_placement));
    }
    if (cfg.fabric == "cmesh") {
      return Fabric(make_cmesh_graph(cfg.mesh_width, cfg.mesh_height,
                                     cfg.cmesh_concentration, cfg.num_mcs,
                                     cfg.mc_placement));
    }
    if (cfg.fabric == "chiplet") {
      return Fabric(make_chiplet_graph(cfg.chiplets_x, cfg.chiplets_y,
                                       cfg.mesh_width, cfg.mesh_height,
                                       cfg.num_mcs, cfg.mc_placement,
                                       cfg.serdes_latency));
    }
    if (cfg.fabric == "file") {
      if (cfg.topology_file.empty()) {
        fail("fabric 'file' requires topology_file to be set");
      }
      return Fabric(parse_topology_file(cfg.topology_file));
    }
    fail("unknown fabric '" + cfg.fabric +
         "' (expected mesh, torus, cmesh, chiplet, or file)");
  };
  Fabric f = build();
  if (static_cast<std::uint32_t>(f.mc_nodes().size()) != cfg.num_mcs) {
    fail("topology provides " + std::to_string(f.mc_nodes().size()) +
         " MC nodes but the config expects num_mcs=" +
         std::to_string(cfg.num_mcs));
  }
  return f;
}

}  // namespace arinoc::topo
