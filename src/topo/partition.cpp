#include "topo/partition.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace arinoc::topo {

namespace {

/// Labels every node with its connected component in the subgraph of
/// zero-extra-latency links. Components are numbered in order of their
/// smallest node id, so the labelling is deterministic. Returns the labels
/// and writes the component count to `count`.
std::vector<std::uint32_t> zero_latency_components(const Fabric& fabric,
                                                   std::uint32_t* count) {
  const int nodes = fabric.nodes();
  constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> comp(static_cast<std::size_t>(nodes), kUnvisited);
  std::uint32_t next = 0;
  std::vector<NodeId> stack;
  for (NodeId seed = 0; seed < nodes; ++seed) {
    if (comp[static_cast<std::size_t>(seed)] != kUnvisited) continue;
    comp[static_cast<std::size_t>(seed)] = next;
    stack.push_back(seed);
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (int port = 0; port < fabric.max_ports(); ++port) {
        const NodeId nb = fabric.neighbor(n, port);
        if (nb == kInvalidNode) continue;
        if (fabric.link_extra_latency(n, port) != 0) continue;
        auto& c = comp[static_cast<std::size_t>(nb)];
        if (c != kUnvisited) continue;
        c = next;
        stack.push_back(nb);
      }
    }
    ++next;
  }
  *count = next;
  return comp;
}

}  // namespace

DomainPartition partition_fabric(const Fabric& fabric, std::uint32_t k) {
  const int nodes = fabric.nodes();
  if (k == 0) {
    throw std::invalid_argument("domain partition: domain count must be >= 1");
  }
  if (k > static_cast<std::uint32_t>(nodes)) {
    throw std::invalid_argument(
        "domain partition: " + std::to_string(k) + " domains exceed the " +
        std::to_string(nodes) + "-node fabric");
  }

  DomainPartition part;
  part.num_domains = k;
  part.domain_of.assign(static_cast<std::size_t>(nodes), 0);

  std::uint32_t ncomp = 0;
  const std::vector<std::uint32_t> comp =
      zero_latency_components(fabric, &ncomp);
  if (k > 1 && ncomp > 1 && ncomp % k == 0) {
    // Multi-die fabric and k divides the die count: group whole dies so no
    // domain splits one and every boundary sits on a serdes link.
    const std::uint32_t per = ncomp / k;
    for (NodeId n = 0; n < nodes; ++n) {
      part.domain_of[static_cast<std::size_t>(n)] =
          comp[static_cast<std::size_t>(n)] / per;
    }
  } else {
    // Contiguous node-index ranges, sizes within one of each other: the
    // first (nodes % k) domains take the extra node.
    const std::uint32_t q = static_cast<std::uint32_t>(nodes) / k;
    const std::uint32_t r = static_cast<std::uint32_t>(nodes) % k;
    NodeId n = 0;
    for (std::uint32_t d = 0; d < k; ++d) {
      const std::uint32_t size = q + (d < r ? 1 : 0);
      for (std::uint32_t i = 0; i < size; ++i, ++n) {
        part.domain_of[static_cast<std::size_t>(n)] = d;
      }
    }
  }

  part.members.resize(k);
  part.local_of.assign(static_cast<std::size_t>(nodes), 0);
  for (NodeId n = 0; n < nodes; ++n) {
    auto& m = part.members[part.domain_of[static_cast<std::size_t>(n)]];
    part.local_of[static_cast<std::size_t>(n)] =
        static_cast<std::uint32_t>(m.size());
    m.push_back(n);
  }

  part.min_boundary_extra = std::numeric_limits<std::uint32_t>::max();
  for (NodeId n = 0; n < nodes; ++n) {
    for (int port = 0; port < fabric.max_ports(); ++port) {
      const NodeId nb = fabric.neighbor(n, port);
      if (nb == kInvalidNode) continue;
      if (part.domain_of[static_cast<std::size_t>(n)] ==
          part.domain_of[static_cast<std::size_t>(nb)]) {
        continue;
      }
      const std::uint32_t extra = fabric.link_extra_latency(n, port);
      part.boundary.push_back(BoundaryLink{n, port, nb, extra});
      part.min_boundary_extra = std::min(part.min_boundary_extra, extra);
    }
  }
  if (part.boundary.empty()) part.min_boundary_extra = 0;
  return part;
}

}  // namespace arinoc::topo
