// K-way spatial partitioning of a fabric for domain-parallel stepping.
//
// A DomainPartition assigns every node of a compiled Fabric to exactly one
// of `num_domains` domains. The simulator steps each domain's routers on its
// own worker thread; flits and credits that cross a domain boundary are
// staged into per-domain mailboxes and merged at a serial barrier, so the
// partition also enumerates the boundary links and their latencies.
//
// Partitioning rules (docs/performance.md "Domain decomposition"):
//
//  * Multi-die fabrics (the chiplet generator, or file topologies whose
//    serdes-latency links delimit dies): when the number of
//    zero-extra-latency connected components is a multiple of k, whole
//    components are grouped — every domain boundary then lies on a serdes
//    link, the cheapest possible cut, and no domain ever splits a die.
//  * Everything else (mesh, torus, cmesh, single-component files, or a k
//    that does not divide the die count): contiguous node-index ranges with
//    sizes balanced within one node.
//
// Domain membership is a pure function of (fabric, k): the same inputs
// always produce the same partition, which the bit-identity guarantee of
// domain-parallel stepping rests on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "topo/fabric.hpp"

namespace arinoc::topo {

/// One directed link whose endpoints live in different domains.
struct BoundaryLink {
  NodeId src = 0;
  int src_port = 0;
  NodeId dst = 0;
  std::uint32_t extra_latency = 0;  ///< Serdes cycles on top of the base hop.
};

struct DomainPartition {
  std::uint32_t num_domains = 1;
  std::vector<std::uint32_t> domain_of;      ///< [node] -> owning domain.
  /// Per-domain member nodes in ascending node order (the order a domain
  /// steps its routers in).
  std::vector<std::vector<NodeId>> members;
  std::vector<std::uint32_t> local_of;       ///< [node] -> index in members.
  /// Every directed link crossing a domain boundary.
  std::vector<BoundaryLink> boundary;
};

/// Partitions `fabric` into k domains per the rules above. Throws
/// std::invalid_argument when k == 0 or k exceeds the node count (callers
/// surface this as the exit-2 configuration-error path).
DomainPartition partition_fabric(const Fabric& fabric, std::uint32_t k);

}  // namespace arinoc::topo
