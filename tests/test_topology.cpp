// Mesh generator and the Fabric built from it: coordinates, neighbours,
// distances, MC placement (exact node lists and unsatisfiable requests),
// and the N/E/S/W port convention.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "topo/fabric.hpp"
#include "topo/generators.hpp"

namespace arinoc {
namespace {

using topo::kEast;
using topo::kNorth;
using topo::kNumDirections;
using topo::kSouth;
using topo::kWest;

topo::Fabric mesh(std::uint32_t w, std::uint32_t h, std::uint32_t mcs,
                  McPlacement p = McPlacement::kDiamond) {
  return topo::Fabric(topo::make_mesh_graph(w, h, mcs, p));
}

TEST(Mesh, CoordinateRoundTrip) {
  const topo::Fabric m = mesh(6, 6, 8);
  for (NodeId n = 0; n < 36; ++n) {
    EXPECT_EQ(m.node_at(m.x_of(n), m.y_of(n)), n);
  }
}

TEST(Mesh, NeighborSymmetry) {
  const topo::Fabric m = mesh(6, 6, 8);
  for (NodeId n = 0; n < 36; ++n) {
    for (int d = 0; d < kNumDirections; ++d) {
      const NodeId nb = m.neighbor(n, d);
      if (nb == kInvalidNode) continue;
      EXPECT_EQ(m.neighbor(nb, (d + 2) % kNumDirections), n);
    }
  }
}

TEST(Mesh, EdgeNodesHaveNoOutsideNeighbors) {
  const topo::Fabric m = mesh(4, 4, 4);
  EXPECT_EQ(m.neighbor(m.node_at(0, 0), kNorth), kInvalidNode);
  EXPECT_EQ(m.neighbor(m.node_at(0, 0), kWest), kInvalidNode);
  EXPECT_EQ(m.neighbor(m.node_at(3, 3), kSouth), kInvalidNode);
  EXPECT_EQ(m.neighbor(m.node_at(3, 3), kEast), kInvalidNode);
}

TEST(Mesh, HopsIsManhattanDistance) {
  const topo::Fabric m = mesh(6, 6, 8);
  EXPECT_EQ(m.hops(m.node_at(0, 0), m.node_at(5, 5)), 10u);
  EXPECT_EQ(m.hops(m.node_at(2, 3), m.node_at(2, 3)), 0u);
  EXPECT_EQ(m.hops(m.node_at(1, 1), m.node_at(4, 1)), 3u);
}

TEST(Mesh, McCountMatchesRequest) {
  const topo::Fabric m = mesh(6, 6, 8);
  EXPECT_EQ(m.mc_nodes().size(), 8u);
  EXPECT_EQ(m.cc_nodes().size(), 28u);
}

TEST(Mesh, McAndCcPartitionNodes) {
  const topo::Fabric m = mesh(6, 6, 8);
  std::set<NodeId> all;
  for (NodeId n : m.mc_nodes()) {
    EXPECT_TRUE(m.is_mc(n));
    all.insert(n);
  }
  for (NodeId n : m.cc_nodes()) {
    EXPECT_FALSE(m.is_mc(n));
    all.insert(n);
  }
  EXPECT_EQ(all.size(), 36u);
}

TEST(Mesh, DiamondPlacementSpreadsMcs) {
  // The diamond-style placement must not cluster MCs: minimum pairwise
  // distance of at least 2 hops in a 6x6/8-MC mesh.
  const topo::Fabric m = mesh(6, 6, 8);
  const auto& mcs = m.mc_nodes();
  for (std::size_t i = 0; i < mcs.size(); ++i) {
    for (std::size_t j = i + 1; j < mcs.size(); ++j) {
      EXPECT_GE(m.hops(mcs[i], mcs[j]), 2u)
          << "MCs " << mcs[i] << " and " << mcs[j] << " are adjacent";
    }
  }
}

TEST(Mesh, McsAvoidCorners) {
  const topo::Fabric m = mesh(6, 6, 8);
  for (NodeId corner : {m.node_at(0, 0), m.node_at(5, 0), m.node_at(0, 5),
                        m.node_at(5, 5)}) {
    EXPECT_FALSE(m.is_mc(corner)) << "corner node " << corner << " is an MC";
  }
}

TEST(Mesh, BisectionLinkCount) {
  // 6x6 mesh: 12 uni-directional links cross the vertical bisection —
  // exactly the paper's 192 GB/s bisection-bandwidth calculation (§3).
  const topo::FabricGraph g = topo::make_mesh_graph(6, 6, 8);
  int crossing = 0;
  for (const topo::GraphLink& l : g.links) {
    if ((l.src % 6 < 3) != (l.dst % 6 < 3)) ++crossing;
  }
  EXPECT_EQ(crossing, 12);
}

TEST(Mesh, PlacementIsDeterministic) {
  EXPECT_EQ(mesh(6, 6, 8).mc_nodes(), mesh(6, 6, 8).mc_nodes());
}

class MeshSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MeshSizes, PlacementWorksAcrossScalabilitySizes) {
  const std::uint32_t k = GetParam();
  const topo::Fabric m = mesh(k, k, 8);
  EXPECT_EQ(m.mc_nodes().size(), 8u);
  EXPECT_EQ(m.cc_nodes().size(), k * k - 8u);
  // Every MC has full mesh connectivity to at least 2 neighbours.
  for (NodeId mc : m.mc_nodes()) {
    int degree = 0;
    for (int d = 0; d < kNumDirections; ++d) {
      if (m.neighbor(mc, d) != kInvalidNode) ++degree;
    }
    EXPECT_GE(degree, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(ScalabilitySweep, MeshSizes,
                         ::testing::Values(4u, 6u, 8u));

TEST(McPlacement, TopBottomSitsOnEdgeRows) {
  const topo::Fabric m = mesh(6, 6, 8, McPlacement::kTopBottom);
  EXPECT_EQ(m.mc_nodes().size(), 8u);
  for (NodeId mc : m.mc_nodes()) {
    EXPECT_TRUE(m.y_of(mc) == 0 || m.y_of(mc) == 5) << "MC at row "
                                                    << m.y_of(mc);
  }
}

TEST(McPlacement, ColumnClustersInCenter) {
  const topo::Fabric m = mesh(6, 6, 8, McPlacement::kColumn);
  EXPECT_EQ(m.mc_nodes().size(), 8u);
  for (NodeId mc : m.mc_nodes()) {
    EXPECT_TRUE(m.x_of(mc) == 2 || m.x_of(mc) == 3);
  }
}

TEST(McPlacement, DiamondSpreadsFartherThanColumn) {
  auto mean_pairwise = [](const topo::Fabric& m) {
    double sum = 0;
    int n = 0;
    const auto& mcs = m.mc_nodes();
    for (std::size_t i = 0; i < mcs.size(); ++i) {
      for (std::size_t j = i + 1; j < mcs.size(); ++j) {
        sum += m.hops(mcs[i], mcs[j]);
        ++n;
      }
    }
    return sum / n;
  };
  EXPECT_GT(mean_pairwise(mesh(6, 6, 8, McPlacement::kDiamond)),
            mean_pairwise(mesh(6, 6, 8, McPlacement::kColumn)));
}

TEST(McPlacement, NamesStable) {
  EXPECT_STREQ(placement_name(McPlacement::kDiamond), "diamond");
  EXPECT_STREQ(placement_name(McPlacement::kTopBottom), "top-bottom");
  EXPECT_STREQ(placement_name(McPlacement::kColumn), "column");
}

TEST(Direction, OppositePairs) {
  // Mesh links pair each direction with its opposite at the peer.
  const topo::Fabric m = mesh(4, 4, 4);
  const NodeId n = m.node_at(1, 1);
  EXPECT_EQ(m.peer_port(n, kNorth), kSouth);
  EXPECT_EQ(m.peer_port(n, kSouth), kNorth);
  EXPECT_EQ(m.peer_port(n, kEast), kWest);
  EXPECT_EQ(m.peer_port(n, kWest), kEast);
}

TEST(Direction, NamesAreStable) {
  const topo::Fabric m = mesh(4, 4, 4);
  EXPECT_EQ(m.port_name(kNorth), "N");
  EXPECT_EQ(m.port_name(m.local_port()), "L");
}

// Exact MC node lists of every placement, recorded from the original
// placement code: Table I's 6x6/8 MCs plus the 4x4/4 and 8x8/16 scalability
// sizes, and diamond on the 1-wide and 1-high grids.
struct PlacementCase {
  const char* name;
  std::uint32_t width, height, num_mcs;
  McPlacement placement;
  std::vector<NodeId> mcs;
};

const PlacementCase kPlacementTable[] = {
    {"Diamond6x6", 6, 6, 8, McPlacement::kDiamond,
     {9, 13, 16, 20, 24, 27, 29, 32}},
    {"TopBottom6x6", 6, 6, 8, McPlacement::kTopBottom,
     {0, 2, 3, 5, 30, 32, 33, 35}},
    {"Column6x6", 6, 6, 8, McPlacement::kColumn,
     {2, 3, 8, 9, 14, 15, 20, 21}},
    {"Diamond4x4", 4, 4, 4, McPlacement::kDiamond, {1, 6, 8, 11}},
    {"TopBottom4x4", 4, 4, 4, McPlacement::kTopBottom, {1, 3, 13, 15}},
    {"Column4x4", 4, 4, 4, McPlacement::kColumn, {1, 2, 5, 6}},
    {"Diamond8x8", 8, 8, 16, McPlacement::kDiamond,
     {2, 12, 17, 19, 22, 26, 28, 33, 35, 37, 42, 44, 47, 48, 51, 60}},
    {"TopBottom8x8", 8, 8, 16, McPlacement::kTopBottom,
     {0, 1, 2, 3, 4, 5, 6, 7, 56, 57, 58, 59, 60, 61, 62, 63}},
    {"Column8x8", 8, 8, 16, McPlacement::kColumn,
     {3, 4, 11, 12, 19, 20, 27, 28, 35, 36, 43, 44, 51, 52, 59, 60}},
    {"Diamond1x8One", 1, 8, 1, McPlacement::kDiamond, {1}},
    {"Diamond8x1One", 8, 1, 1, McPlacement::kDiamond, {4}},
    {"Diamond1x8", 1, 8, 4, McPlacement::kDiamond, {1, 2, 4, 7}},
    {"Diamond8x1", 8, 1, 4, McPlacement::kDiamond, {0, 2, 4, 7}},
};

// Names the case in test listings (the default printer dumps raw bytes,
// pointers included).
void PrintTo(const PlacementCase& c, std::ostream* os) { *os << c.name; }

class MeshPlacementTable : public ::testing::TestWithParam<PlacementCase> {};

TEST_P(MeshPlacementTable, ExactMcNodes) {
  const PlacementCase& c = GetParam();
  const topo::Fabric f(
      topo::make_mesh_graph(c.width, c.height, c.num_mcs, c.placement));
  EXPECT_EQ(f.mc_nodes(), c.mcs);
  // A mesh keeps radix 4 even when a 1-wide or 1-high grid wires only two
  // of its four directions.
  EXPECT_EQ(f.max_ports(), 4);
  EXPECT_EQ(f.local_port(), 4);
}

INSTANTIATE_TEST_SUITE_P(Placements, MeshPlacementTable,
                         ::testing::ValuesIn(kPlacementTable),
                         [](const auto& info) { return info.param.name; });


// Diamond avoids corners only while the grid has spare nodes elsewhere; a
// 1-wide or 1-high grid has no node of degree > 2, so it places on them.
TEST(McPlacement, DiamondOnLineGridsFallsBackToCorners) {
  EXPECT_EQ(mesh(1, 8, 2).mc_nodes(), (std::vector<NodeId>{1, 7}));
  EXPECT_EQ(mesh(1, 8, 3).mc_nodes(), (std::vector<NodeId>{1, 4, 7}));
  EXPECT_EQ(mesh(8, 1, 2).mc_nodes(), (std::vector<NodeId>{0, 4}));
  EXPECT_EQ(mesh(8, 1, 3).mc_nodes(), (std::vector<NodeId>{0, 4, 7}));
}

// A placement that cannot hold the requested MCs on its grid throws a
// message naming the placement, the grid and its capacity, instead of
// hanging, reading out of bounds or placing fewer MCs.
struct UnsatisfiableCase {
  const char* name;
  std::uint32_t width, height, num_mcs;
  McPlacement placement;
  const char* message;
};

const UnsatisfiableCase kUnsatisfiable[] = {
    {"TopBottomBeyondEdgeRows", 4, 4, 10, McPlacement::kTopBottom,
     "top-bottom MC placement of 10 MCs does not fit a 4x4 grid "
     "(capacity 8"},
    {"ColumnOnOneWideGrid", 1, 8, 2, McPlacement::kColumn,
     "column MC placement of 2 MCs does not fit a 1x8 grid (capacity 0"},
    {"ColumnBeyondCenterColumns", 3, 3, 8, McPlacement::kColumn,
     "column MC placement of 8 MCs does not fit a 3x3 grid (capacity 6"},
};

void PrintTo(const UnsatisfiableCase& c, std::ostream* os) { *os << c.name; }

class UnsatisfiablePlacement
    : public ::testing::TestWithParam<UnsatisfiableCase> {};

TEST_P(UnsatisfiablePlacement, ThrowsNamingPlacementGridAndCapacity) {
  const UnsatisfiableCase& c = GetParam();
  try {
    topo::make_mesh_graph(c.width, c.height, c.num_mcs, c.placement);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Placements, UnsatisfiablePlacement,
                         ::testing::ValuesIn(kUnsatisfiable),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace arinoc
