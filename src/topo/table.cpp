#include "topo/table.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace arinoc::topo {

namespace {

/// Spanning-tree ordering key; links move strictly toward ("up") or away
/// from ("down") the root under this key, never sideways.
std::pair<int, NodeId> tree_key(const std::vector<int>& level, NodeId n) {
  return {level[static_cast<std::size_t>(n)], n};
}

}  // namespace

RoutingTable::RoutingTable(const FabricGraph& g) {
  nodes_ = static_cast<std::size_t>(g.num_nodes());
  max_ports_ = g.num_ports();

  // Adjacency by (node, out_port) for deterministic ascending-port
  // iteration when filling port masks. `down` is set once the BFS levels
  // are known.
  struct Out {
    int port;
    NodeId dst;
    int dst_port;
    bool down;
  };
  std::vector<std::vector<Out>> out(nodes_);
  for (const GraphLink& l : g.links) {
    out[static_cast<std::size_t>(l.src)].push_back(
        Out{l.src_port, l.dst, l.dst_port, false});
  }
  for (auto& v : out) {
    std::sort(v.begin(), v.end(),
              [](const Out& a, const Out& b) { return a.port < b.port; });
  }

  // BFS levels from node 0 (validate_graph guarantees connectivity).
  level_.assign(nodes_, -1);
  std::vector<NodeId> queue{0};
  level_[0] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const Out& o : out[static_cast<std::size_t>(u)]) {
      if (level_[static_cast<std::size_t>(o.dst)] < 0) {
        level_[static_cast<std::size_t>(o.dst)] =
            level_[static_cast<std::size_t>(u)] + 1;
        queue.push_back(o.dst);
      }
    }
  }

  // A link is down when it moves away from the root in the spanning-tree
  // order; the phase, reverse-graph and port-mask passes all read this flag.
  for (NodeId u = 0; u < static_cast<NodeId>(nodes_); ++u) {
    for (Out& o : out[static_cast<std::size_t>(u)]) {
      o.down = tree_key(level_, o.dst) > tree_key(level_, u);
    }
  }

  // Arrival phase per (node, in_port): arriving over a down link puts the
  // packet in the down phase. Ports without an incoming link stay kPhaseUp
  // (covers injection).
  phase_in_.assign(nodes_ * static_cast<std::size_t>(max_ports_), kPhaseUp);
  for (const auto& links : out) {
    for (const Out& o : links) {
      if (!o.down) continue;
      phase_in_[static_cast<std::size_t>(o.dst) *
                    static_cast<std::size_t>(max_ports_) +
                static_cast<std::size_t>(o.dst_port)] = kPhaseDown;
    }
  }

  // Reverse state-graph edges for the per-destination BFS. Forward
  // transitions: (u, up-phase) may take any link; (u, down-phase) only down
  // links; traversing a down link lands in the down phase, an up link stays
  // in the up phase.
  struct RevEdge {
    NodeId from_node;  // Predecessor state's node...
    std::int8_t from_phase;  // ...and phase.
  };
  std::vector<std::vector<RevEdge>> rev(nodes_ * 2);
  auto state = [](NodeId n, int phase) {
    return static_cast<std::size_t>(n) * 2 + static_cast<std::size_t>(phase);
  };
  for (NodeId u = 0; u < static_cast<NodeId>(nodes_); ++u) {
    for (const Out& o : out[static_cast<std::size_t>(u)]) {
      if (!o.down) {
        // Up link: only usable from the up phase, lands in the up phase.
        rev[state(o.dst, kPhaseUp)].push_back(
            RevEdge{u, static_cast<std::int8_t>(kPhaseUp)});
      } else {
        // Down link: usable from either phase, lands in the down phase.
        rev[state(o.dst, kPhaseDown)].push_back(
            RevEdge{u, static_cast<std::int8_t>(kPhaseUp)});
        rev[state(o.dst, kPhaseDown)].push_back(
            RevEdge{u, static_cast<std::int8_t>(kPhaseDown)});
      }
    }
  }

  entries_.assign(nodes_ * nodes_ * 2, RouteEntry{});
  std::vector<std::uint32_t> dist(nodes_ * 2);
  std::vector<std::size_t> bfs;
  bfs.reserve(nodes_ * 2);
  for (NodeId dest = 0; dest < static_cast<NodeId>(nodes_); ++dest) {
    dist.assign(nodes_ * 2, RouteEntry::kUnreachable);
    bfs.clear();
    dist[state(dest, kPhaseUp)] = 0;
    dist[state(dest, kPhaseDown)] = 0;
    bfs.push_back(state(dest, kPhaseUp));
    bfs.push_back(state(dest, kPhaseDown));
    for (std::size_t head = 0; head < bfs.size(); ++head) {
      const std::size_t s = bfs[head];
      for (const RevEdge& e : rev[s]) {
        const std::size_t p = state(e.from_node, e.from_phase);
        if (dist[p] == RouteEntry::kUnreachable) {
          dist[p] = dist[s] + 1;
          bfs.push_back(p);
        }
      }
    }

    for (NodeId u = 0; u < static_cast<NodeId>(nodes_); ++u) {
      for (int phase = 0; phase < 2; ++phase) {
        RouteEntry& e =
            entries_[(static_cast<std::size_t>(dest) * nodes_ +
                      static_cast<std::size_t>(u)) * 2 +
                     static_cast<std::size_t>(phase)];
        const std::uint32_t d = dist[state(u, phase)];
        e.dist = d;
        if (u == dest || d == RouteEntry::kUnreachable) continue;
        for (const Out& o : out[static_cast<std::size_t>(u)]) {
          if (phase == kPhaseDown && !o.down) continue;
          const std::uint32_t next =
              dist[state(o.dst, o.down ? kPhaseDown : kPhaseUp)];
          if (next != RouteEntry::kUnreachable && next + 1 == d) {
            e.port_mask |= 1u << o.port;
            if (e.escape < 0) e.escape = static_cast<std::int8_t>(o.port);
          }
        }
        assert(e.port_mask != 0 &&
               "finite distance implies a minimal legal port");
      }
    }
  }

  // Every phase-up state must reach every destination (climb the spanning
  // tree, then descend); compile-time sanity rather than a runtime check.
  for (NodeId dest = 0; dest < static_cast<NodeId>(nodes_); ++dest) {
    for (NodeId u = 0; u < static_cast<NodeId>(nodes_); ++u) {
      assert(entry(dest, u, kPhaseUp).dist != RouteEntry::kUnreachable);
      (void)dest;
      (void)u;
    }
  }
}

int RoutingTable::phase_of(NodeId node, int in_port) const {
  if (in_port < 0 || in_port >= max_ports_) return kPhaseUp;
  return phase_in_[static_cast<std::size_t>(node) *
                       static_cast<std::size_t>(max_ports_) +
                   static_cast<std::size_t>(in_port)];
}

}  // namespace arinoc::topo
