// K-way spatial domain partitioning (topo/partition.hpp): balance within
// one node, chiplet-boundary respect, complete boundary extraction, and
// fail-fast rejection of impossible domain counts.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/gpgpu_sim.hpp"
#include "topo/fabric.hpp"
#include "topo/file.hpp"
#include "topo/graph.hpp"
#include "topo/partition.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

Config fabric_config(const std::string& kind) {
  Config cfg;
  cfg.fabric = kind;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.cmesh_concentration = 2;
  cfg.chiplets_x = 2;
  cfg.chiplets_y = 2;
  return cfg;
}

topo::Fabric file_fabric(const char* rel) {
  Config cfg;
  cfg.fabric = "file";
  cfg.topology_file = std::string(ARINOC_SOURCE_DIR) + rel;
  const topo::FabricGraph g = topo::parse_topology_file(cfg.topology_file);
  cfg.num_mcs =
      static_cast<std::uint32_t>(g.count_role(topo::NodeRole::kMC));
  return topo::make_fabric(cfg);
}

/// Structural invariants every partition must satisfy, for any fabric and
/// any K: complete coverage, |size_i - size_j| <= 1, sorted members
/// consistent with domain_of/local_of, and a boundary list that contains
/// exactly the cross-domain directed links of the fabric.
void check_partition(const topo::Fabric& fab,
                     const topo::DomainPartition& part, std::uint32_t k,
                     bool require_balance = true) {
  const std::size_t n = fab.nodes();
  ASSERT_EQ(part.num_domains, k);
  ASSERT_EQ(part.domain_of.size(), n);
  ASSERT_EQ(part.members.size(), k);
  ASSERT_EQ(part.local_of.size(), n);

  std::size_t min_size = n, max_size = 0, total = 0;
  for (std::uint32_t d = 0; d < k; ++d) {
    const auto& m = part.members[d];
    min_size = std::min(min_size, m.size());
    max_size = std::max(max_size, m.size());
    total += m.size();
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(m[i - 1], m[i]) << "members not ascending";
      }
      EXPECT_EQ(part.domain_of[static_cast<std::size_t>(m[i])], d);
      EXPECT_EQ(part.local_of[static_cast<std::size_t>(m[i])], i);
    }
  }
  EXPECT_EQ(total, n) << "every node owned by exactly one domain";
  EXPECT_GT(min_size, 0u) << "no empty domains";
  // Asymmetric chiplet fabrics trade node balance for cutting only on
  // high-latency links (whole zero-latency components per domain), so the
  // +/-1 guarantee applies to the contiguous-range rule only.
  if (require_balance) {
    EXPECT_LE(max_size - min_size, 1u) << "balance within one node";
  }

  // Boundary completeness: every cross-domain directed link, nothing else.
  std::size_t cross = 0;
  for (NodeId src = 0; src < static_cast<NodeId>(n); ++src) {
    for (int p = 0; p < fab.max_ports(); ++p) {
      const NodeId dst = fab.neighbor(src, p);
      if (dst == kInvalidNode) continue;
      if (part.domain_of[static_cast<std::size_t>(src)] ==
          part.domain_of[static_cast<std::size_t>(dst)]) {
        continue;
      }
      ++cross;
    }
  }
  EXPECT_EQ(part.boundary.size(), cross);
  for (const auto& b : part.boundary) {
    EXPECT_NE(part.domain_of[static_cast<std::size_t>(b.src)],
              part.domain_of[static_cast<std::size_t>(b.dst)]);
    EXPECT_EQ(fab.neighbor(b.src, b.src_port), b.dst);
    EXPECT_EQ(b.extra_latency, fab.link_extra_latency(b.src, b.src_port));
  }
}

TEST(Partition, BalancedOnRegularFabrics) {
  for (const char* kind : {"mesh", "torus", "cmesh"}) {
    const topo::Fabric fab = topo::make_fabric(fabric_config(kind));
    for (const std::uint32_t k : {2u, 3u, 4u, 5u, 7u}) {
      if (k > static_cast<std::uint32_t>(fab.nodes())) continue;
      SCOPED_TRACE(std::string(kind) + " k=" + std::to_string(k));
      check_partition(fab, topo::partition_fabric(fab, k), k);
    }
  }
}

TEST(Partition, SingleDomainAndOnePerNode) {
  const topo::Fabric fab = topo::make_fabric(fabric_config("mesh"));
  const auto one = topo::partition_fabric(fab, 1);
  check_partition(fab, one, 1);
  EXPECT_TRUE(one.boundary.empty());
  const auto each =
      topo::partition_fabric(fab, static_cast<std::uint32_t>(fab.nodes()));
  check_partition(fab, each, static_cast<std::uint32_t>(fab.nodes()));
}

TEST(Partition, ChipletDomainsRespectChipletBoundaries) {
  // chiplet 2x2 over a 4x4 mesh: four 2x2 chiplets joined by serdes links
  // (the only links with extra latency). When K divides the chiplet count,
  // every domain is a union of whole chiplets, so every cut link is a
  // serdes link.
  Config cfg = fabric_config("chiplet");
  cfg.serdes_latency = 4;
  const topo::Fabric fab = topo::make_fabric(cfg);
  for (const std::uint32_t k : {2u, 4u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const auto part = topo::partition_fabric(fab, k);
    check_partition(fab, part, k);
    ASSERT_FALSE(part.boundary.empty());
    for (const auto& b : part.boundary) {
      EXPECT_GT(b.extra_latency, 0u)
          << "cut link " << b.src << "->" << b.dst << " is not serdes";
    }
  }
  // K=3 does not divide 4 chiplets: the contiguous fallback still balances.
  check_partition(fab, topo::partition_fabric(fab, 3), 3);
}

TEST(Partition, FileTopologies) {
  for (const char* rel : {"/examples/topologies/asym_chiplet.topo",
                          "/examples/topologies/express_mesh.topo"}) {
    SCOPED_TRACE(rel);
    const topo::Fabric fab = file_fabric(rel);
    for (const std::uint32_t k : {2u, 3u, 4u}) {
      if (k > static_cast<std::uint32_t>(fab.nodes())) continue;
      check_partition(fab, topo::partition_fabric(fab, k), k,
                      /*require_balance=*/false);
    }
  }
}

TEST(Partition, Deterministic) {
  const topo::Fabric fab = topo::make_fabric(fabric_config("cmesh"));
  const auto a = topo::partition_fabric(fab, 4);
  const auto b = topo::partition_fabric(fab, 4);
  EXPECT_EQ(a.domain_of, b.domain_of);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.boundary.size(), b.boundary.size());
}

TEST(Partition, RejectsImpossibleDomainCounts) {
  const topo::Fabric fab = topo::make_fabric(fabric_config("mesh"));
  EXPECT_THROW(topo::partition_fabric(fab, 0), std::invalid_argument);
  EXPECT_THROW(
      topo::partition_fabric(fab,
                             static_cast<std::uint32_t>(fab.nodes()) + 1),
      std::invalid_argument);
  // A count that reads negative as a signed int ("--threads -1" wrapped by
  // strtoul) is still far too many domains.
  EXPECT_THROW(topo::partition_fabric(fab, 0xFFFFFFFFu),
               std::invalid_argument);
}

TEST(Partition, SimRejectsMoreThreadsThanNodes) {
  // The CLI maps std::invalid_argument to exit code 2; at this layer the
  // throw itself is the fail-fast contract.
  Config cfg = fabric_config("mesh");
  cfg.num_mcs = 4;
  cfg.warmup_cycles = 10;
  cfg.run_cycles = 10;
  cfg.threads = 17;  // 4x4 mesh has 16 nodes.
  EXPECT_THROW(GpgpuSim(cfg, *find_benchmark("bfs")), std::invalid_argument);
}

}  // namespace
}  // namespace arinoc
