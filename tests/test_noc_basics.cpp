// Packet arena, flit buffers, arbiters and route computation.
#include <gtest/gtest.h>

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

TEST(FlitBuffer, OccupancySampling) {
  FlitBuffer buf(10);
  buf.push(PacketArena::flit_of(1, 0, 1));
  buf.sample();
  buf.push(PacketArena::flit_of(2, 0, 1));
  buf.push(PacketArena::flit_of(3, 0, 1));
  buf.sample();
  EXPECT_DOUBLE_EQ(buf.mean_occupancy(), 2.0);  // (1 + 3) / 2.
  EXPECT_EQ(buf.peak_occupancy(), 3u);
}

// ---------------------------------------------------------------- Arbiters

TEST(RoundRobinArbiter, GrantsRotate) {
  RoundRobinArbiter arb(3);
  const std::vector<bool> all = {true, true, true};
  EXPECT_EQ(arb.pick(all), 0);
  EXPECT_EQ(arb.pick(all), 1);
  EXPECT_EQ(arb.pick(all), 2);
  EXPECT_EQ(arb.pick(all), 0);
}

TEST(RoundRobinArbiter, SkipsNonRequesters) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.pick({false, false, true, false}), 2);
  EXPECT_EQ(arb.pick({true, false, true, false}), 0);  // Pointer is past 2.
}

TEST(RoundRobinArbiter, NoRequestsReturnsMinusOne) {
  RoundRobinArbiter arb(2);
  EXPECT_EQ(arb.pick({false, false}), -1);
}

TEST(RoundRobinArbiter, FairUnderSaturation) {
  RoundRobinArbiter arb(4);
  int grants[4] = {0, 0, 0, 0};
  const std::vector<bool> all = {true, true, true, true};
  for (int i = 0; i < 400; ++i) ++grants[arb.pick(all)];
  for (int g : grants) EXPECT_EQ(g, 100);
}

TEST(PriorityArbiter, HighestKeyWins) {
  PriorityArbiter arb(3);
  EXPECT_EQ(arb.pick({true, true, true}, {0, 2, 1}), 1);
}

TEST(PriorityArbiter, TieBrokenRoundRobin) {
  PriorityArbiter arb(3);
  const std::vector<bool> req = {true, true, false};
  const std::vector<std::uint32_t> key = {1, 1, 0};
  const int first = arb.pick(req, key);
  const int second = arb.pick(req, key);
  EXPECT_NE(first, second);  // Rotates among equal-priority requesters.
}

TEST(PriorityArbiter, IgnoresKeysOfNonRequesters) {
  PriorityArbiter arb(3);
  EXPECT_EQ(arb.pick({true, false, false}, {0, 9, 9}), 0);
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
