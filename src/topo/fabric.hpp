// Runtime fabric: the compiled, query-ready form of a FabricGraph.
//
// A Fabric answers everything the NoC layer needs about the interconnect
// shape — adjacency by (node, port), per-link extra latency, node roles,
// hop distances — behind one interface, so Router/Network/NI construction
// is topology-agnostic. Two routing backends hide behind it:
//
//   - is_mesh(): the graph declares `geometry mesh` (make_mesh_graph, or a
//     topology file carrying that line). Routing is dimension order (XY /
//     minimal adaptive) over the grid coordinates x_of()/y_of().
//   - table() != nullptr: anything else routes via the compiled up*/down*
//     tables (topo/table.hpp), deadlock-free on all VCs.
//
// Exactly one of the two holds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "topo/graph.hpp"
#include "topo/table.hpp"

namespace arinoc {
struct Config;
}  // namespace arinoc

namespace arinoc::topo {

class Fabric {
 public:
  /// Compiles a validated graph. Graphs with kind "mesh" must declare the
  /// `geometry mesh` line; the mesh it names is regenerated and compared
  /// with the declared roles and links (fail-fast on any mismatch), and the
  /// fabric routes by dimension order. All other kinds get up*/down*
  /// tables.
  explicit Fabric(FabricGraph graph);

  Fabric(Fabric&&) = default;
  Fabric& operator=(Fabric&&) = default;

  const std::string& kind() const { return graph_.kind; }
  const FabricGraph& graph() const { return graph_; }

  int nodes() const { return graph_.num_nodes(); }
  /// Router radix: 4 on meshes (even a 1-wide one), the highest wired port
  /// plus one elsewhere. Injection/ejection ("local") uses port index
  /// max_ports().
  int max_ports() const { return max_ports_; }
  int local_port() const { return max_ports_; }

  /// Downstream node of the link leaving (n, port), or kInvalidNode when
  /// the port is unwired.
  NodeId neighbor(NodeId n, int port) const {
    return neighbor_[idx(n, port)];
  }
  /// Port at the other end of the link attached to (n, port): flits sent
  /// out of (n, port) arrive there, and credits for our input (n, port)
  /// return to it (the opposite direction on meshes).
  int peer_port(NodeId n, int port) const { return peer_port_[idx(n, port)]; }
  /// Serdes cycles on top of the base per-hop latency for the link leaving
  /// (n, port) (chiplet boundary links; 0 elsewhere).
  std::uint32_t link_extra_latency(NodeId n, int port) const {
    return extra_[idx(n, port)];
  }
  std::uint32_t max_extra_latency() const { return max_extra_; }

  NodeRole role(NodeId n) const {
    return graph_.roles[static_cast<std::size_t>(n)];
  }
  bool is_mc(NodeId n) const { return role(n) == NodeRole::kMC; }
  /// Endpoints source/sink traffic; kRouter nodes (cmesh hubs) do not.
  bool is_endpoint(NodeId n) const { return role(n) != NodeRole::kRouter; }
  const std::vector<NodeId>& mc_nodes() const { return mc_nodes_; }
  const std::vector<NodeId>& cc_nodes() const { return cc_nodes_; }

  /// Minimal legal hop count (Manhattan on meshes, table distance
  /// elsewhere — both count router-to-router hops).
  std::uint32_t hops(NodeId a, NodeId b) const;

  /// True iff the fabric routes by dimension order (kind "mesh"); then
  /// nodes sit on a row-major grid of width graph().mesh_width.
  bool is_mesh() const { return !table_; }
  std::uint32_t x_of(NodeId n) const {
    return static_cast<std::uint32_t>(n) % graph_.mesh_width;
  }
  std::uint32_t y_of(NodeId n) const {
    return static_cast<std::uint32_t>(n) / graph_.mesh_width;
  }
  NodeId node_at(std::uint32_t x, std::uint32_t y) const {
    return static_cast<NodeId>(y * graph_.mesh_width + x);
  }
  /// The up*/down* routing table; null on meshes.
  const RoutingTable* table() const { return table_.get(); }

  /// Human-readable port label for diagnostics: N/E/S/W/L on meshes,
  /// p<k>/L elsewhere.
  std::string port_name(int port) const;

 private:
  std::size_t idx(NodeId n, int port) const {
    return static_cast<std::size_t>(n) * static_cast<std::size_t>(max_ports_) +
           static_cast<std::size_t>(port);
  }

  FabricGraph graph_;
  std::vector<NodeId> mc_nodes_;
  std::vector<NodeId> cc_nodes_;
  int max_ports_ = 0;
  std::uint32_t max_extra_ = 0;
  std::vector<NodeId> neighbor_;
  std::vector<int> peer_port_;
  std::vector<std::uint32_t> extra_;
  std::unique_ptr<RoutingTable> table_;  ///< Non-null iff table routing.
};

/// Builds the fabric selected by cfg.fabric: "mesh" (default), "torus",
/// "cmesh", "chiplet" from the built-in generators, or "file" loading
/// cfg.topology_file. Throws std::invalid_argument on any invalid
/// combination, before any simulation state exists.
Fabric make_fabric(const Config& cfg);

}  // namespace arinoc::topo
