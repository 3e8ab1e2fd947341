// DA2mesh overlay reply fabric: serialization rates (plain vs ARI supply),
// delivery, occupancy and backpressure.
#include <gtest/gtest.h>

#include <vector>

#include "noc/overlay.hpp"
#include "topo/generators.hpp"

namespace arinoc {
namespace {

class VecSink : public PacketSink {
 public:
  void deliver(const Packet& pkt, Cycle now) override {
    arrivals.push_back({pkt.src, pkt.dest, now});
  }
  struct Arrival {
    NodeId src;
    NodeId dest;
    Cycle at;
  };
  std::vector<Arrival> arrivals;
};

OverlayParams params(bool ari) {
  OverlayParams p;
  p.lanes = 4;
  p.lane_rate = 1.0;
  p.base_wire_latency = 3;
  p.queue_flits = 36;
  p.ari = ari;
  return p;
}

struct OverlayHarness {
  explicit OverlayHarness(bool ari)
      : mesh(topo::make_mesh_graph(6, 6, 8)), overlay(params(ari), mesh) {
    for (NodeId cc : mesh.cc_nodes()) overlay.set_sink(cc, &sink);
    mc = mesh.mc_nodes()[0];
    cc = mesh.cc_nodes()[0];
  }
  bool offer(PacketType type, Cycle now) {
    const PacketId id = overlay.make_packet(type, mc, cc, 0, now);
    if (overlay.try_accept(mc, id, now)) return true;
    overlay.abandon_packet(id);
    return false;
  }
  topo::Fabric mesh;
  Da2MeshOverlay overlay;
  VecSink sink;
  NodeId mc = 0;
  NodeId cc = 0;
};

TEST(Overlay, DeliversPacketToSink) {
  OverlayHarness h(false);
  ASSERT_TRUE(h.offer(PacketType::kReadReply, 0));
  for (Cycle t = 0; t < 30 && h.sink.arrivals.empty(); ++t) {
    h.overlay.step(t);
  }
  ASSERT_EQ(h.sink.arrivals.size(), 1u);
  EXPECT_EQ(h.sink.arrivals[0].src, h.mc);
  EXPECT_EQ(h.sink.arrivals[0].dest, h.cc);
  // Serialization (5 flits) + wire latency 3.
  EXPECT_GE(h.sink.arrivals[0].at, 7u);
  EXPECT_LE(h.sink.arrivals[0].at, 12u);
}

TEST(Overlay, PlainModeSerializesOnePacketAtATime) {
  OverlayHarness h(false);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(h.offer(PacketType::kReadReply, 0));
  Cycle t = 0;
  while (h.sink.arrivals.size() < 4 && t < 200) h.overlay.step(t++);
  ASSERT_EQ(h.sink.arrivals.size(), 4u);
  // 4 long packets over a single effective lane: >= 20 serialization cycles.
  EXPECT_GE(h.sink.arrivals.back().at, 20u);
}

TEST(Overlay, AriModeUsesLanesConcurrently) {
  OverlayHarness plain(false);
  OverlayHarness ari(true);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(plain.offer(PacketType::kReadReply, 0));
    ASSERT_TRUE(ari.offer(PacketType::kReadReply, 0));
  }
  Cycle t_plain = 0, t_ari = 0;
  while (plain.sink.arrivals.size() < 4 && t_plain < 200) {
    plain.overlay.step(t_plain++);
  }
  while (ari.sink.arrivals.size() < 4 && t_ari < 200) {
    ari.overlay.step(t_ari++);
  }
  ASSERT_EQ(plain.sink.arrivals.size(), 4u);
  ASSERT_EQ(ari.sink.arrivals.size(), 4u);
  // Split supply feeds all 4 lanes at once: ~4x faster drain.
  EXPECT_LT(t_ari * 2, t_plain);
}

TEST(Overlay, QueueFullRefusesAndRecovers) {
  OverlayHarness h(false);
  int accepted = 0;
  while (h.offer(PacketType::kReadReply, 0)) ++accepted;
  EXPECT_EQ(accepted, 7);  // 36 flits / 5-flit packets.
  EXPECT_GT(h.overlay.occupancy_flits(h.mc), 0u);
  for (Cycle t = 0; t < 10; ++t) h.overlay.step(t);
  EXPECT_TRUE(h.offer(PacketType::kReadReply, 10));  // Space freed.
}

TEST(Overlay, StatsRecordInjectionsAndDeliveries) {
  OverlayHarness h(true);
  ASSERT_TRUE(h.offer(PacketType::kReadReply, 0));
  ASSERT_TRUE(h.offer(PacketType::kWriteReply, 0));
  for (Cycle t = 0; t < 40 && h.sink.arrivals.size() < 2; ++t) {
    h.overlay.step(t);
  }
  const NocStats& s = h.overlay.stats();
  EXPECT_EQ(s.packets_injected, 2u);
  EXPECT_EQ(s.total_packets(), 2u);
  EXPECT_EQ(s.flits_delivered[static_cast<int>(PacketType::kReadReply)], 5u);
  EXPECT_GT(s.mean_latency(PacketType::kWriteReply), 0.0);
}

TEST(Overlay, ShortPacketsFasterThanLong) {
  OverlayHarness h(false);
  ASSERT_TRUE(h.offer(PacketType::kWriteReply, 0));
  for (Cycle t = 0; t < 30 && h.sink.arrivals.empty(); ++t) h.overlay.step(t);
  ASSERT_EQ(h.sink.arrivals.size(), 1u);
  const Cycle short_at = h.sink.arrivals[0].at;
  OverlayHarness h2(false);
  ASSERT_TRUE(h2.offer(PacketType::kReadReply, 0));
  for (Cycle t = 0; t < 30 && h2.sink.arrivals.empty(); ++t) {
    h2.overlay.step(t);
  }
  ASSERT_EQ(h2.sink.arrivals.size(), 1u);
  EXPECT_LT(short_at, h2.sink.arrivals[0].at);
}

}  // namespace
}  // namespace arinoc
