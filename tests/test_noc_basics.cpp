// Packet arena, flit buffers, arbiters and route computation.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"
#include "topo/fabric.hpp"
#include "topo/generators.hpp"

namespace arinoc {
namespace {

// ---------------------------------------------------------------- Packets

TEST(PacketArena, CreateInitializesFields) {
  PacketArena arena;
  const PacketId id =
      arena.create(PacketType::kReadReply, 3, 7, 5, 1, 42, 100);
  const Packet& p = arena.at(id);
  EXPECT_EQ(p.type, PacketType::kReadReply);
  EXPECT_EQ(p.src, 3);
  EXPECT_EQ(p.dest, 7);
  EXPECT_EQ(p.num_flits, 5);
  EXPECT_EQ(p.priority, 1);
  EXPECT_EQ(p.txn, 42u);
  EXPECT_EQ(p.created, 100u);
}

TEST(PacketArena, RetireRecyclesSlots) {
  PacketArena arena;
  const PacketId a = arena.create(PacketType::kReadRequest, 0, 1, 1, 0, 0, 0);
  arena.retire(a);
  const PacketId b = arena.create(PacketType::kWriteReply, 1, 2, 1, 0, 0, 0);
  EXPECT_EQ(a, b);  // Slot reused.
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.capacity(), 1u);
}

TEST(PacketArena, LiveCountTracksCreateRetire) {
  PacketArena arena;
  std::vector<PacketId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(arena.create(PacketType::kReadRequest, 0, 1, 1, 0, 0, 0));
  }
  EXPECT_EQ(arena.live(), 10u);
  for (auto id : ids) arena.retire(id);
  EXPECT_EQ(arena.live(), 0u);
}

TEST(PacketArena, FlitSequenceHeadAndTail) {
  const Flit head = PacketArena::flit_of(9, 0, 5);
  const Flit body = PacketArena::flit_of(9, 2, 5);
  const Flit tail = PacketArena::flit_of(9, 4, 5);
  EXPECT_TRUE(head.head);
  EXPECT_FALSE(head.tail);
  EXPECT_FALSE(body.head);
  EXPECT_FALSE(body.tail);
  EXPECT_FALSE(tail.head);
  EXPECT_TRUE(tail.tail);
}

TEST(PacketArena, SingleFlitPacketIsHeadAndTail) {
  const Flit f = PacketArena::flit_of(1, 0, 1);
  EXPECT_TRUE(f.head);
  EXPECT_TRUE(f.tail);
}

TEST(PacketTypes, LongShortClassification) {
  EXPECT_FALSE(is_long_packet(PacketType::kReadRequest));
  EXPECT_TRUE(is_long_packet(PacketType::kWriteRequest));
  EXPECT_TRUE(is_long_packet(PacketType::kReadReply));
  EXPECT_FALSE(is_long_packet(PacketType::kWriteReply));
}

TEST(PacketTypes, ReplyClassification) {
  EXPECT_FALSE(is_reply(PacketType::kReadRequest));
  EXPECT_FALSE(is_reply(PacketType::kWriteRequest));
  EXPECT_TRUE(is_reply(PacketType::kReadReply));
  EXPECT_TRUE(is_reply(PacketType::kWriteReply));
}

// ---------------------------------------------------------------- Buffers

TEST(FlitBuffer, FifoOrder) {
  FlitBuffer buf(4);
  for (std::uint16_t s = 0; s < 3; ++s) {
    buf.push(PacketArena::flit_of(1, s, 3));
  }
  EXPECT_EQ(buf.pop().seq, 0);
  EXPECT_EQ(buf.pop().seq, 1);
  EXPECT_EQ(buf.pop().seq, 2);
  EXPECT_TRUE(buf.empty());
}

TEST(FlitBuffer, CapacityAccounting) {
  FlitBuffer buf(5);
  EXPECT_TRUE(buf.fits(5));
  buf.push(PacketArena::flit_of(1, 0, 1));
  EXPECT_EQ(buf.free_space(), 4u);
  EXPECT_TRUE(buf.fits(4));
  EXPECT_FALSE(buf.fits(5));
}

// The ring wraps: push and pop through three times the capacity, checking
// the occupancy accessors and the front flit at every step.
TEST(FlitBuffer, RingWrapsThroughManyCapacities) {
  FlitBuffer buf(4);
  std::uint16_t next_in = 0, next_out = 0;
  auto check = [&]() {
    const std::size_t size = next_in - next_out;
    EXPECT_EQ(buf.size(), size);
    EXPECT_EQ(buf.free_space(), 4u - size);
    EXPECT_EQ(buf.full(), size == 4);
    EXPECT_EQ(buf.empty(), size == 0);
    if (size > 0) {
      EXPECT_EQ(buf.front().seq, next_out);
    }
  };
  // Fill to 3, then push one and pop one per step, so the head and tail
  // cross the wrap point at every offset.
  for (int i = 0; i < 3; ++i) {
    buf.push(PacketArena::flit_of(1, next_in++, 1000));
    check();
  }
  while (next_out < 12) {
    if (!buf.full()) {
      buf.push(PacketArena::flit_of(1, next_in++, 1000));
      check();
    }
    EXPECT_EQ(buf.pop().seq, next_out++);
    check();
  }
  while (!buf.empty()) {
    EXPECT_EQ(buf.pop().seq, next_out++);
    check();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_GE(next_in, 12u);
}

// ---------------------------------------------------------------- Arbiters

TEST(RoundRobinArbiter, GrantsRotate) {
  RoundRobinArbiter arb(3);
  const std::uint64_t all = 0b111;
  EXPECT_EQ(arb.pick(all), 0);
  EXPECT_EQ(arb.pick(all), 1);
  EXPECT_EQ(arb.pick(all), 2);
  EXPECT_EQ(arb.pick(all), 0);
}

TEST(RoundRobinArbiter, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.pick(0b0100), 2);
  EXPECT_EQ(arb.pick(0b0101), 0);  // Pointer is past 2.
}

TEST(RoundRobinArbiter, NoRequestsReturnsMinusOne) {
  RoundRobinArbiter arb(2);
  EXPECT_EQ(arb.pick(0), -1);
}

TEST(RoundRobinArbiter, FairUnderSaturation) {
  RoundRobinArbiter arb(4);
  int grants[4] = {0, 0, 0, 0};
  for (int i = 0; i < 400; ++i) ++grants[arb.pick(0b1111)];
  for (int g : grants) EXPECT_EQ(g, 100);
}

/// Requests for PriorityArbiter::pick: slot i requests with key[i] when
/// key[i] >= 0.
std::vector<ArbRequest> requests(std::initializer_list<int> key) {
  std::vector<ArbRequest> r;
  std::uint32_t slot = 0;
  for (const int k : key) {
    if (k >= 0) r.push_back({slot, static_cast<std::uint32_t>(k)});
    ++slot;
  }
  return r;
}

TEST(PriorityArbiter, HighestKeyWins) {
  PriorityArbiter arb(3);
  EXPECT_EQ(arb.pick(requests({0, 2, 1})), 1);
}

TEST(PriorityArbiter, TieBrokenRoundRobin) {
  PriorityArbiter arb(3);
  const auto req = requests({1, 1, -1});
  const int first = arb.pick(req);
  const int second = arb.pick(req);
  EXPECT_NE(first, second);  // Rotates among equal-priority requesters.
}

TEST(PriorityArbiter, IgnoresKeysOfNonRequesters) {
  PriorityArbiter arb(3);
  // Only slot 0 requests; the keys the router never wrote do not exist.
  EXPECT_EQ(arb.pick(requests({0, -1, -1})), 0);
}

// Switch-allocation order the router relies on: among the highest key, the
// first requesting slot at or after the pointer wins, and the pointer moves
// to winner + 1 only on a grant.
TEST(PriorityArbiter, EqualKeysRotateThroughSlotsAndWrap) {
  PriorityArbiter arb(4);
  const auto req = requests({-1, 1, -1, 1});
  EXPECT_EQ(arb.pick(req), 1);
  EXPECT_EQ(arb.pick(req), 3);
  // The pointer wraps past the last slot back to slot 0.
  EXPECT_EQ(arb.pick(req), 1);
}

TEST(PriorityArbiter, HigherKeyBeatsRoundRobinPointer) {
  PriorityArbiter arb(3);
  EXPECT_EQ(arb.pick(requests({0, -1, -1})), 0);  // Pointer -> 1.
  EXPECT_EQ(arb.pick(requests({2, 1, 1})), 0);
}

TEST(PriorityArbiter, EmptyCycleLeavesPointerUnchanged) {
  PriorityArbiter arb(3);
  const auto all = requests({0, 0, 0});
  EXPECT_EQ(arb.pick(all), 0);  // Pointer -> 1.
  EXPECT_EQ(arb.pick({}), -1);
  EXPECT_EQ(arb.pick(all), 1);
}

TEST(PriorityArbiter, RequestOrderDoesNotMatter) {
  PriorityArbiter fwd(4), rev(4);
  const std::vector<ArbRequest> a = {{0, 1}, {2, 1}, {3, 1}};
  const std::vector<ArbRequest> b = {{3, 1}, {2, 1}, {0, 1}};
  for (int i = 0; i < 6; ++i) EXPECT_EQ(fwd.pick(a), rev.pick(b));
}

TEST(RoundRobinArbiter, EmptyCycleLeavesPointerUnchanged) {
  RoundRobinArbiter arb(3);
  EXPECT_EQ(arb.pick(0b111), 0);
  EXPECT_EQ(arb.pick(0), -1);
  EXPECT_EQ(arb.pick(0b111), 1);
}

// ---------------------------------------------------------------- Routing

using topo::kEast;
using topo::kSouth;
using topo::kWest;

/// Route from a freshly injected packet (in_port -1) on a mesh fabric.
RouteCandidates route(const topo::Fabric& m, NodeId here, NodeId dest,
                      RoutingAlgo algo) {
  return compute_route(m, here, -1, dest, algo);
}

TEST(Routing, XYGoesEastFirst) {
  const topo::Fabric m(topo::make_mesh_graph(6, 6, 8));
  const auto rc =
      route(m, m.node_at(0, 0), m.node_at(3, 3), RoutingAlgo::kXY);
  ASSERT_EQ(rc.minimal.size(), 1u);
  EXPECT_EQ(rc.minimal[0], kEast);
  EXPECT_EQ(rc.xy, kEast);
}

TEST(Routing, XYGoesVerticalWhenAligned) {
  const topo::Fabric m(topo::make_mesh_graph(6, 6, 8));
  const auto rc =
      route(m, m.node_at(3, 0), m.node_at(3, 4), RoutingAlgo::kXY);
  EXPECT_EQ(rc.xy, kSouth);
}

TEST(Routing, ArrivalIsLocal) {
  const topo::Fabric m(topo::make_mesh_graph(6, 6, 8));
  const auto rc =
      route(m, m.node_at(2, 2), m.node_at(2, 2), RoutingAlgo::kXY);
  ASSERT_EQ(rc.minimal.size(), 1u);
  EXPECT_EQ(rc.minimal[0], m.local_port());
}

TEST(Routing, AdaptiveOffersBothMinimalDirections) {
  const topo::Fabric m(topo::make_mesh_graph(6, 6, 8));
  const auto rc =
      route(m, m.node_at(0, 0), m.node_at(3, 3), RoutingAlgo::kMinAdaptive);
  ASSERT_EQ(rc.minimal.size(), 2u);
  EXPECT_EQ(rc.minimal[0], kEast);
  EXPECT_EQ(rc.minimal[1], kSouth);
  EXPECT_EQ(rc.xy, kEast);  // Escape direction stays dimension-ordered.
}

TEST(Routing, AdaptiveSingleDirectionWhenAligned) {
  const topo::Fabric m(topo::make_mesh_graph(6, 6, 8));
  const auto rc =
      route(m, m.node_at(5, 2), m.node_at(1, 2), RoutingAlgo::kMinAdaptive);
  ASSERT_EQ(rc.minimal.size(), 1u);
  EXPECT_EQ(rc.minimal[0], kWest);
}

// Property: for every (src, dst) pair, repeatedly following the XY
// direction reaches the destination in exactly hops(src, dst) steps.
TEST(Routing, XYAlwaysReachesDestination) {
  const topo::Fabric m(topo::make_mesh_graph(6, 6, 8));
  for (NodeId s = 0; s < 36; ++s) {
    for (NodeId d = 0; d < 36; ++d) {
      NodeId cur = s;
      std::uint32_t steps = 0;
      while (cur != d) {
        const auto rc = route(m, cur, d, RoutingAlgo::kXY);
        ASSERT_NE(rc.xy, m.local_port());
        cur = m.neighbor(cur, rc.xy);
        ASSERT_NE(cur, kInvalidNode);
        ASSERT_LE(++steps, 10u);
      }
      EXPECT_EQ(steps, m.hops(s, d));
    }
  }
}

// Table-routed fabrics list their minimal candidates in ascending port
// order; the first is not necessarily the escape port's position.
TEST(Routing, TableCandidatesAscendInPortOrder) {
  const topo::Fabric chip(
      topo::make_chiplet_graph(2, 2, 2, 2, 4, McPlacement::kDiamond, 4));
  ASSERT_NE(chip.table(), nullptr);
  std::size_t multi = 0;
  for (NodeId s = 0; s < static_cast<NodeId>(chip.nodes()); ++s) {
    for (NodeId d = 0; d < static_cast<NodeId>(chip.nodes()); ++d) {
      if (s == d) continue;
      const auto rc =
          compute_route(chip, s, -1, d, RoutingAlgo::kMinAdaptive);
      ASSERT_FALSE(rc.minimal.empty());
      for (std::size_t i = 1; i < rc.minimal.size(); ++i) {
        EXPECT_LT(rc.minimal[i - 1], rc.minimal[i]);
      }
      if (rc.minimal.size() > 1) ++multi;
    }
  }
  EXPECT_GT(multi, 0u);
}

// Property: every adaptive candidate strictly reduces distance (minimal).
TEST(Routing, AdaptiveCandidatesAreAllMinimal) {
  const topo::Fabric m(topo::make_mesh_graph(6, 6, 8));
  for (NodeId s = 0; s < 36; ++s) {
    for (NodeId d = 0; d < 36; ++d) {
      if (s == d) continue;
      const auto rc = route(m, s, d, RoutingAlgo::kMinAdaptive);
      for (int dir : rc.minimal) {
        const NodeId next = m.neighbor(s, dir);
        ASSERT_NE(next, kInvalidNode);
        EXPECT_EQ(m.hops(next, d) + 1, m.hops(s, d));
      }
    }
  }
}

}  // namespace
}  // namespace arinoc
