#include "topo/generators.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace arinoc::topo {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("fabric generator: " + msg);
}

/// Appends both directions of the physical channel between (a, ap) and
/// (b, bp); `extra` is the serdes latency on top of the base link latency.
void add_channel(FabricGraph* g, NodeId a, int ap, NodeId b, int bp,
                 std::uint32_t extra = 0) {
  g->links.push_back(GraphLink{a, ap, b, bp, 0, extra});
  g->links.push_back(GraphLink{b, bp, a, ap, 0, extra});
}

int opposite(int dir) { return (dir + 2) % kNumDirections; }

/// Row-major id of grid node (x, y) on a grid `width` nodes wide.
NodeId node_at(std::uint32_t width, std::uint32_t x, std::uint32_t y) {
  return static_cast<NodeId>(y * width + x);
}

/// Neighbour of grid node n in direction dir on a width x height mesh, or
/// kInvalidNode at the mesh edge.
NodeId mesh_neighbor(std::uint32_t width, std::uint32_t height, NodeId n,
                     int dir) {
  const std::uint32_t x = static_cast<std::uint32_t>(n) % width;
  const std::uint32_t y = static_cast<std::uint32_t>(n) / width;
  switch (dir) {
    case kNorth: return y > 0 ? n - static_cast<NodeId>(width) : kInvalidNode;
    case kEast: return x + 1 < width ? n + 1 : kInvalidNode;
    case kSouth:
      return y + 1 < height ? n + static_cast<NodeId>(width) : kInvalidNode;
    case kWest: return x > 0 ? n - 1 : kInvalidNode;
  }
  return kInvalidNode;
}

/// Endpoint roles of a row-major width x height grid, MCs placed by
/// `placement`. Callers have checked 1 <= num_mcs < width*height; a
/// placement whose own capacity on this grid is smaller throws.
std::vector<NodeRole> place_mcs(std::uint32_t width, std::uint32_t height,
                                std::uint32_t num_mcs, McPlacement placement) {
  const std::uint32_t nodes = width * height;
  auto at = [width](std::uint32_t x, std::uint32_t y) {
    return static_cast<std::size_t>(node_at(width, x, y));
  };
  auto need = [&](std::uint32_t capacity, const char* slots) {
    if (num_mcs <= capacity) return;
    fail(std::string(placement_name(placement)) + " MC placement of " +
         std::to_string(num_mcs) + " MCs does not fit a " +
         std::to_string(width) + "x" + std::to_string(height) +
         " grid (capacity " + std::to_string(capacity) + ": " + slots + ")");
  };
  std::vector<NodeRole> roles(nodes, NodeRole::kCC);
  auto is_mc = [&](std::size_t n) { return roles[n] == NodeRole::kMC; };
  switch (placement) {
    case McPlacement::kDiamond: {
      // Deterministic farthest-point placement biased toward interior nodes
      // (the intent of the Abts et al. diamond): MCs spread apart so reply
      // traffic is not concentrated on one region, and kept off corners
      // (degree <= 2), which have fewer links to fan reply traffic out.
      auto degree = [&](std::uint32_t n) {
        std::uint32_t links = 0;
        for (int dir = 0; dir < kNumDirections; ++dir) {
          links += mesh_neighbor(width, height, static_cast<NodeId>(n), dir) !=
                   kInvalidNode;
        }
        return links;
      };
      auto hops = [w = static_cast<int>(width)](std::uint32_t a,
                                               std::uint32_t b) {
        const int ia = static_cast<int>(a);
        const int ib = static_cast<int>(b);
        return static_cast<std::uint32_t>(std::abs(ia % w - ib % w) +
                                          std::abs(ia / w - ib / w));
      };
      // Seed near the top-center: matches hand-drawn diamond layouts.
      roles[at(width / 2, height > 2 ? 1 : 0)] = NodeRole::kMC;
      // Corners rank below every other node while the grid has spare nodes
      // to avoid them; 1-wide and 1-high grids fall back to them.
      const bool avoid_corners = nodes > num_mcs + 4;
      for (std::uint32_t placed = 1; placed < num_mcs; ++placed) {
        std::size_t best = nodes;
        bool best_off_corner = false;
        std::uint32_t best_score = 0;
        for (std::uint32_t n = 0; n < nodes; ++n) {
          if (is_mc(n)) continue;
          const bool off_corner = !avoid_corners || degree(n) > 2;
          std::uint32_t min_dist = width + height;
          for (std::uint32_t m = 0; m < nodes; ++m) {
            if (is_mc(m) && hops(n, m) < min_dist) min_dist = hops(n, m);
          }
          const std::uint32_t score = 4 * min_dist + degree(n);
          if (best == nodes || off_corner > best_off_corner ||
              (off_corner == best_off_corner && score > best_score)) {
            best = n;
            best_off_corner = off_corner;
            best_score = score;
          }
        }
        roles[best] = NodeRole::kMC;
      }
      break;
    }
    case McPlacement::kTopBottom: {
      // Half the MCs spread along row 0, half along the bottom row: the
      // classic GPU floorplan the diamond placement improves upon.
      need(height > 1 ? 2 * width : width, "the top and bottom rows");
      const std::uint32_t top = (num_mcs + 1) / 2;
      const std::uint32_t rows[2][2] = {{top, 0}, {num_mcs - top, height - 1}};
      for (const auto& [count, y] : rows) {
        for (std::uint32_t k = 0; k < count; ++k) {
          std::uint32_t x = (k * width + width / 2) / count % width;
          while (is_mc(at(x, y))) x = (x + 1) % width;
          roles[at(x, y)] = NodeRole::kMC;
        }
      }
      break;
    }
    case McPlacement::kColumn: {
      // Stacked down the two center columns (clustered: worst-case reply
      // injection concentration, used as an ablation reference).
      need(width >= 2 ? 2 * height : 0,
           width >= 2 ? "the two center columns"
                      : "a 1-wide grid has no two center columns");
      for (std::uint32_t placed = 0; placed < num_mcs; ++placed) {
        roles[at(width / 2 - 1 + placed % 2, placed / 2)] = NodeRole::kMC;
      }
      break;
    }
  }
  return roles;
}

}  // namespace

FabricGraph make_mesh_graph(std::uint32_t width, std::uint32_t height,
                            std::uint32_t num_mcs, McPlacement placement) {
  if (width == 0 || height == 0) fail("mesh dimensions must be >= 1");
  if (num_mcs == 0 || num_mcs >= width * height) {
    fail("mesh needs 1 <= num_mcs < width*height (got " +
         std::to_string(num_mcs) + " of " +
         std::to_string(width * height) + ")");
  }
  FabricGraph g;
  g.kind = "mesh";
  g.mesh_width = width;
  g.mesh_height = height;
  g.mesh_placement = placement_name(placement);
  g.roles = place_mcs(width, height, num_mcs, placement);
  // One directed link per valid (node, dir); the reverse direction is
  // emitted when the neighbour's iteration reaches the opposite port.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (int dir = 0; dir < kNumDirections; ++dir) {
      const NodeId m = mesh_neighbor(width, height, n, dir);
      if (m != kInvalidNode) {
        g.links.push_back(GraphLink{n, dir, m, opposite(dir), 0, 0});
      }
    }
  }
  validate_graph(g);
  return g;
}

FabricGraph make_torus_graph(std::uint32_t width, std::uint32_t height,
                             std::uint32_t num_mcs, McPlacement placement) {
  if (width < 2 || height < 2) {
    fail("torus dimensions must be >= 2 (wraparound links would be "
         "self-links)");
  }
  if (num_mcs == 0 || num_mcs >= width * height) {
    fail("torus needs 1 <= num_mcs < width*height (got " +
         std::to_string(num_mcs) + " of " +
         std::to_string(width * height) + ")");
  }
  FabricGraph g;
  g.kind = "torus";
  // Grid-layout hint for rendering; Fabric ignores geometry for non-mesh
  // kinds (they always go through the routing-table path).
  g.mesh_width = width;
  g.mesh_height = height;
  // The mesh MC placement: a torus is the matching mesh plus wraparound
  // links.
  g.roles = place_mcs(width, height, num_mcs, placement);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const std::uint32_t x = static_cast<std::uint32_t>(n) % width;
    const std::uint32_t y = static_cast<std::uint32_t>(n) / width;
    const NodeId peer[kNumDirections] = {
        node_at(width, x, (y + height - 1) % height),
        node_at(width, (x + 1) % width, y),
        node_at(width, x, (y + 1) % height),
        node_at(width, (x + width - 1) % width, y)};
    for (int dir = 0; dir < kNumDirections; ++dir) {
      g.links.push_back(GraphLink{n, dir, peer[dir], opposite(dir), 0, 0});
    }
  }
  validate_graph(g);
  return g;
}

FabricGraph make_cmesh_graph(std::uint32_t width, std::uint32_t height,
                             std::uint32_t concentration,
                             std::uint32_t num_mcs, McPlacement placement) {
  if (width == 0 || height == 0) fail("cmesh dimensions must be >= 1");
  if (concentration < 1 ||
      concentration > static_cast<std::uint32_t>(kMaxPorts) - 4) {
    fail("cmesh concentration must be in [1, " +
         std::to_string(kMaxPorts - 4) + "] (got " +
         std::to_string(concentration) + ")");
  }
  const std::uint32_t hubs = width * height;
  if (num_mcs == 0 || num_mcs >= hubs) {
    fail("cmesh needs 1 <= num_mcs < width*height hub count (got " +
         std::to_string(num_mcs) + " of " + std::to_string(hubs) + ")");
  }
  // MC placement runs on the hub grid: an endpoint under an MC hub is close
  // to where the mesh placement would put that MC.
  const std::vector<NodeRole> hub_roles =
      place_mcs(width, height, num_mcs, placement);
  FabricGraph g;
  g.kind = "cmesh";
  // Hub-grid layout hint for rendering (leaves cluster around their hub).
  g.mesh_width = width;
  g.mesh_height = height;
  g.roles.assign(hubs + hubs * concentration, NodeRole::kCC);
  for (NodeId hub = 0; hub < static_cast<NodeId>(hubs); ++hub) {
    g.roles[static_cast<std::size_t>(hub)] = NodeRole::kRouter;
    // Hub mesh links on ports 0..3 (N/E/S/W, same convention as the mesh).
    for (int dir = 0; dir < kNumDirections; ++dir) {
      const NodeId m = mesh_neighbor(width, height, hub, dir);
      if (m != kInvalidNode) {
        g.links.push_back(GraphLink{hub, dir, m, opposite(dir), 0, 0});
      }
    }
    // Leaves hang off ports 4..4+concentration-1; each leaf reaches its hub
    // through its single port 0.
    for (std::uint32_t k = 0; k < concentration; ++k) {
      const NodeId leaf = static_cast<NodeId>(
          hubs + static_cast<std::uint32_t>(hub) * concentration + k);
      add_channel(&g, hub, kNumDirections + static_cast<int>(k), leaf, 0);
      if (k == 0 &&
          hub_roles[static_cast<std::size_t>(hub)] == NodeRole::kMC) {
        g.roles[static_cast<std::size_t>(leaf)] = NodeRole::kMC;
      }
    }
  }
  validate_graph(g);
  return g;
}

FabricGraph make_chiplet_graph(std::uint32_t chiplets_x,
                               std::uint32_t chiplets_y, std::uint32_t width,
                               std::uint32_t height, std::uint32_t num_mcs,
                               McPlacement placement,
                               std::uint32_t serdes_latency) {
  if (chiplets_x == 0 || chiplets_y == 0) {
    fail("chiplet grid dimensions must be >= 1");
  }
  if (chiplets_x * chiplets_y < 2) {
    fail("a chiplet fabric needs at least 2 chiplets (use the mesh fabric "
         "for a single die)");
  }
  if (width == 0 || height == 0) fail("chiplet mesh dimensions must be >= 1");
  const std::uint32_t gw = chiplets_x * width;
  const std::uint32_t gh = chiplets_y * height;
  if (num_mcs == 0 || num_mcs >= gw * gh) {
    fail("chiplet fabric needs 1 <= num_mcs < total node count (got " +
         std::to_string(num_mcs) + " of " + std::to_string(gw * gh) + ")");
  }
  FabricGraph g;
  g.kind = "chiplet";
  // Global-grid layout hint for rendering.
  g.mesh_width = gw;
  g.mesh_height = gh;
  // Roles come from the flattened global grid so MC placement behaves like
  // one big die; only link latencies know about the chiplet boundaries.
  g.roles = place_mcs(gw, gh, num_mcs, placement);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (int dir = 0; dir < kNumDirections; ++dir) {
      const NodeId m = mesh_neighbor(gw, gh, n, dir);
      if (m == kInvalidNode) continue;
      const auto un = static_cast<std::uint32_t>(n);
      const auto um = static_cast<std::uint32_t>(m);
      const bool crosses = un % gw / width != um % gw / width ||
                           un / gw / height != um / gw / height;
      g.links.push_back(GraphLink{n, dir, m, opposite(dir), 0,
                                  crosses ? serdes_latency : 0});
    }
  }
  validate_graph(g);
  return g;
}

}  // namespace arinoc::topo
