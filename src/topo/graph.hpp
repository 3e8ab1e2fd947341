// Generic directed-graph fabric description (topo subsystem).
//
// A FabricGraph is the declarative form of an interconnect: nodes with roles
// (compute cluster, memory controller, or pure router), and directed links
// between (node, port) endpoints with per-link width and extra latency.
// Graphs come from the built-in generators (generators.hpp) or from a
// topology file (file.hpp); either way validate_graph() runs before the
// runtime Fabric is built, so every structural error fails fast with a
// message naming the problem instead of corrupting a simulation.
//
// Link symmetry: the credit-based flow control pairs each physical channel
// with a reverse channel on the same port pair (flits downstream, credits
// upstream). The graph therefore declares *directed* links but requires
// every link (a.p -> b.q) to have a mirror (b.q -> a.p) with identical
// width/extra-latency attributes; a missing or mismatched mirror is the
// "asymmetric link" validation error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace arinoc::topo {

/// Role of a fabric node. CC and MC nodes are endpoints (they get NIs and
/// traffic sources/sinks); kRouter nodes carry only through-traffic
/// (concentration hubs in cmesh fabrics).
enum class NodeRole : std::uint8_t { kCC = 0, kMC = 1, kRouter = 2 };

const char* role_name(NodeRole r);
/// Parses "cc" / "mc" / "rtr". Throws std::invalid_argument on anything else.
NodeRole role_from(const std::string& s);

/// One directed link: flits leave `src` through output port `src_port` and
/// arrive at `dst` on input port `dst_port`.
struct GraphLink {
  NodeId src = kInvalidNode;
  int src_port = -1;
  NodeId dst = kInvalidNode;
  int dst_port = -1;
  std::uint32_t width_bits = 0;     ///< 0 = the network's default link width.
  std::uint32_t extra_latency = 0;  ///< Serdes cycles on top of the base
                                    ///< per-hop link latency (chiplet
                                    ///< boundary links).

  bool operator==(const GraphLink&) const = default;
};

/// Declarative fabric description. `kind` names the generator family; when
/// kind == "mesh" the mesh_* geometry fields give the grid the runtime
/// routes by dimension order (XY/adaptive), which keeps a
/// generated-then-reloaded mesh bit-identical to the generated one. All
/// other kinds route via the compiled up*/down* tables.
struct FabricGraph {
  std::string kind = "custom";  ///< mesh|torus|cmesh|chiplet|custom.
  // Geometry declaration for kind=="mesh" (torus/cmesh/chiplet set the
  // width/height as a rendering hint). The runtime regenerates
  // make_mesh_graph(mesh_width, mesh_height, #mc-roles, mesh_placement) and
  // compares it with roles/links, failing fast on any mismatch.
  std::uint32_t mesh_width = 0;
  std::uint32_t mesh_height = 0;
  std::string mesh_placement;

  std::vector<NodeRole> roles;  ///< Dense, indexed by NodeId.
  std::vector<GraphLink> links;

  int num_nodes() const { return static_cast<int>(roles.size()); }
  /// Highest port index used by any link, plus one (the fabric radix).
  int num_ports() const;
  std::uint32_t count_role(NodeRole r) const;
};

/// Maximum port index a node may use (+1); keeps routing-table candidate
/// sets in a 32-bit mask.
inline constexpr int kMaxPorts = 32;

/// Fail-fast structural validation. Throws std::invalid_argument describing
/// the first problem found: out-of-range or dangling link endpoint, port
/// conflict, self-link, asymmetric link, mixed explicit link widths,
/// missing CC/MC endpoints, or a disconnected graph.
void validate_graph(const FabricGraph& g);

}  // namespace arinoc::topo
