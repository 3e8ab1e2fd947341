// Built-in fabric generators. Each returns a validated FabricGraph; the
// runtime Fabric (fabric.hpp) compiles routing for it. Parameters and the
// resulting port conventions are documented in docs/fabrics.md. MC
// placement is one grid function shared by every generator; a placement
// that cannot hold num_mcs on its grid throws std::invalid_argument naming
// the placement, the grid and its capacity.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "topo/graph.hpp"

namespace arinoc::topo {

/// Port numbering of every grid generator (mesh, torus, the cmesh hub grid,
/// the chiplet global grid): ports 0..3 face N/E/S/W on a row-major grid,
/// node id y*width + x with y growing southward. A mesh fabric routes by
/// dimension order over these ports; its local port is kNumDirections.
enum Direction : int {
  kNorth = 0,
  kEast = 1,
  kSouth = 2,
  kWest = 3,
  kNumDirections = 4,
};

/// 2D mesh, ports 0..3 = N/E/S/W, declaring `geometry mesh` so the runtime
/// routes it by dimension order (XY / minimal adaptive). A topology file
/// holding this graph compiles to the identical fabric.
FabricGraph make_mesh_graph(std::uint32_t width, std::uint32_t height,
                            std::uint32_t num_mcs,
                            McPlacement placement = McPlacement::kDiamond);

/// 2D torus: the mesh plus wraparound links (every router has all four
/// neighbours). Requires width, height >= 2. XY would deadlock on the
/// wrap cycles, so tori always route via the up*/down* tables.
FabricGraph make_torus_graph(std::uint32_t width, std::uint32_t height,
                             std::uint32_t num_mcs, McPlacement placement);

/// Concentrated mesh: a width x height hub mesh of pure routers, each hub
/// concentrating `concentration` endpoint nodes on dedicated ports
/// (4..4+concentration-1). Endpoints are leaves with a single port-0 link
/// to their hub. MC hubs are chosen by the given placement on the hub mesh;
/// the first leaf of each MC hub is the MC endpoint. Requires
/// num_mcs <= width*height.
FabricGraph make_cmesh_graph(std::uint32_t width, std::uint32_t height,
                             std::uint32_t concentration,
                             std::uint32_t num_mcs, McPlacement placement);

/// Chiplet mesh-of-meshes: a chiplets_x x chiplets_y grid of width x height
/// sub-meshes. Node ids and ports follow the flattened
/// (chiplets_x*width) x (chiplets_y*height) global mesh; links crossing a
/// chiplet boundary carry `serdes_latency` extra cycles (die-to-die serdes).
FabricGraph make_chiplet_graph(std::uint32_t chiplets_x,
                               std::uint32_t chiplets_y, std::uint32_t width,
                               std::uint32_t height, std::uint32_t num_mcs,
                               McPlacement placement,
                               std::uint32_t serdes_latency);

}  // namespace arinoc::topo
