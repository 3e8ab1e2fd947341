// Network-interface architectures (paper Fig. 7): acceptance semantics,
// supply rates into the router, occupancy accounting, and ejection-side
// reassembly with backpressure.
#include <gtest/gtest.h>

#include <memory>

#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "topo/generators.hpp"

namespace arinoc {
namespace {

struct NiHarness {
  NiHarness()
      : mesh(topo::make_mesh_graph(2, 2, 1)), net(params(), &mesh) {}

  static NetworkParams params() {
    NetworkParams p;
    p.num_vcs = 4;
    p.vc_depth_flits = 5;
    p.routing = RoutingAlgo::kXY;
    return p;
  }

  PacketId make(PacketType type, NodeId src, NodeId dst) {
    return net.make_packet(type, src, dst, 0, 0, now);
  }

  topo::Fabric mesh;
  Network net;
  Cycle now = 0;
};

Config ni_config() {
  Config cfg;
  cfg.ni_queue_flits = 20;  // 4 long packets.
  cfg.split_queues = 4;
  return cfg;
}

TEST(BaselineNi, SerializesAcceptOverNarrowLink) {
  NiHarness h;
  BaselineInjectNi ni(&h.net, 0, 20);
  const PacketId a = h.make(PacketType::kReadReply, 0, 3);
  EXPECT_TRUE(ni.try_accept(a, 0));
  // The narrow node->NI link is busy for num_flits cycles: a second packet
  // is refused until the transfer completes.
  const PacketId b = h.make(PacketType::kReadReply, 0, 3);
  EXPECT_FALSE(ni.try_accept(b, 0));
  for (Cycle t = 0; t < 5; ++t) ni.cycle(t);
  EXPECT_TRUE(ni.try_accept(b, 5));
}

TEST(EnhancedNi, AcceptsWholePacketPerCycle) {
  NiHarness h;
  EnhancedInjectNi ni(&h.net, 0, 20);
  // Wide link (Fig. 7a): back-to-back accepts in consecutive offers as long
  // as the queue has room — 4 long packets fill the 20-flit queue.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0))
        << "accept " << i;
  }
  EXPECT_FALSE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  EXPECT_EQ(ni.occupancy_flits(), 20u);
  EXPECT_EQ(ni.occupancy_packets(), 4u);
}

TEST(EnhancedNi, SuppliesOneFlitPerCycle) {
  NiHarness h;
  EnhancedInjectNi ni(&h.net, 0, 20);
  ASSERT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  ASSERT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  // The narrow AB link moves at most one flit per cycle into the router.
  for (Cycle t = 0; t < 6; ++t) ni.cycle(t);
  EXPECT_EQ(h.net.router(0).flits_injected(), 6u);
}

TEST(EnhancedNi, StampsCreatedAtAccept) {
  NiHarness h;
  EnhancedInjectNi ni(&h.net, 0, 20);
  const PacketId id = h.make(PacketType::kReadReply, 0, 3);
  ASSERT_TRUE(ni.try_accept(id, 123));
  EXPECT_EQ(h.net.arena().at(id).created, 123u);
}

TEST(SplitQueueNi, SuppliesUpToKFlitsPerCycle) {
  NiHarness h;
  SplitQueueInjectNi ni(&h.net, 0, 20, 4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  }
  // 4 queues, each wired to its own VC: 4 flits enter the router per cycle.
  ni.cycle(0);
  EXPECT_EQ(h.net.router(0).flits_injected(), 4u);
  ni.cycle(1);
  EXPECT_EQ(h.net.router(0).flits_injected(), 8u);
}

TEST(SplitQueueNi, EachQueueHoldsAtLeastOnePacket) {
  NiHarness h;
  // Total budget of 8 flits over 4 queues would give 2-flit queues; the
  // §4.1 minimum (one long packet each) must win.
  SplitQueueInjectNi ni(&h.net, 0, 8, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  }
  EXPECT_EQ(ni.occupancy_packets(), 4u);
}

TEST(SplitQueueNi, DistributesPacketsRoundRobin) {
  NiHarness h;
  SplitQueueInjectNi ni(&h.net, 0, 40, 4);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ni.try_accept(h.make(PacketType::kWriteReply, 0, 3), 0));
  }
  // 8 short packets over 4 queues: every queue drains one per cycle for
  // two cycles (perfect distribution).
  ni.cycle(0);
  EXPECT_EQ(h.net.router(0).flits_injected(), 4u);
  ni.cycle(1);
  EXPECT_EQ(h.net.router(0).flits_injected(), 8u);
}

TEST(SplitQueueNi, RefusesWhenAllQueuesFull) {
  NiHarness h;
  SplitQueueInjectNi ni(&h.net, 0, 20, 4);  // 5 flits per queue.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  }
  EXPECT_FALSE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  // But a short packet cannot fit either (each queue has 0 free).
  EXPECT_FALSE(ni.try_accept(h.make(PacketType::kWriteReply, 0, 3), 0));
}

TEST(MultiPortNi, SingleQueueSupplyOneFlitPerCycle) {
  NetworkParams p = NiHarness::params();
  p.treat_mcs_specially = true;
  p.mc_injection_ports = 2;
  const topo::Fabric mesh(topo::make_mesh_graph(2, 2, 1));
  Network net(p, &mesh);
  const NodeId mc = mesh.mc_nodes()[0];
  MultiPortInjectNi ni(&net, mc, 20);
  auto mk = [&](PacketType t) {
    return net.make_packet(t, mc, mc == 0 ? 3 : 0, 0, 0, 0);
  };
  ASSERT_TRUE(ni.try_accept(mk(PacketType::kReadReply), 0));
  ASSERT_TRUE(ni.try_accept(mk(PacketType::kReadReply), 0));
  for (Cycle t = 0; t < 7; ++t) ni.cycle(t);
  // Despite two injection ports, the single NI read port caps supply at
  // one flit per cycle — the limitation §2.2/[3] discussion points out.
  EXPECT_EQ(net.router(mc).flits_injected(), 7u);
}

TEST(MultiPortNi, AlternatesPortsBetweenPackets) {
  NetworkParams p = NiHarness::params();
  p.treat_mcs_specially = true;
  p.mc_injection_ports = 2;
  const topo::Fabric mesh(topo::make_mesh_graph(2, 2, 1));
  Network net(p, &mesh);
  const NodeId mc = mesh.mc_nodes()[0];
  const NodeId dst = mc == 0 ? 3 : 0;
  MultiPortInjectNi ni(&net, mc, 40);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        ni.try_accept(net.make_packet(PacketType::kWriteReply, mc, dst, 0, 0, 0), 0));
  }
  // 4 single-flit packets: after 4 cycles, both ports have seen flits
  // (alternation), visible via per-port buffered flits having moved.
  for (Cycle t = 0; t < 4; ++t) ni.cycle(t);
  EXPECT_EQ(net.router(mc).flits_injected(), 4u);
}

TEST(InjectNiFactory, BuildsRequestedArchitecture) {
  NiHarness h;
  Config cfg = ni_config();
  EXPECT_NE(dynamic_cast<BaselineInjectNi*>(
                make_inject_ni(NiArch::kBaseline, &h.net, 0, cfg).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<EnhancedInjectNi*>(
                make_inject_ni(NiArch::kEnhanced, &h.net, 0, cfg).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<SplitQueueInjectNi*>(
                make_inject_ni(NiArch::kSplitQueue, &h.net, 0, cfg).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<MultiPortInjectNi*>(
                make_inject_ni(NiArch::kMultiPort, &h.net, 0, cfg).get()),
            nullptr);
}

TEST(InjectNi, OccupancySamplingAverages) {
  NiHarness h;
  EnhancedInjectNi ni(&h.net, 0, 20);
  ni.sample();  // 0 packets.
  ASSERT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  ASSERT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  ni.sample();  // 2 packets.
  EXPECT_DOUBLE_EQ(ni.mean_occupancy_packets(), 1.0);
  ni.reset_stats();
  EXPECT_DOUBLE_EQ(ni.mean_occupancy_packets(), 0.0);
}

// ------------------------------------------------------------- Ejection

class CountingSink : public PacketSink {
 public:
  bool sink_ready() const override { return ready; }
  void deliver(const Packet& pkt, Cycle) override {
    delivered.push_back(pkt.type);
  }
  bool ready = true;
  std::vector<PacketType> delivered;
};

TEST(EjectNi, ReassemblesAndDelivers) {
  NiHarness h;
  CountingSink sink;
  EnhancedInjectNi inj(&h.net, 0, 20);
  EjectNi ej(&h.net, 3, &sink);
  ASSERT_TRUE(inj.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  for (Cycle t = 0; t < 40 && sink.delivered.empty(); ++t) {
    inj.cycle(t);
    h.net.step(t);
    ej.cycle(t);
  }
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_EQ(sink.delivered[0], PacketType::kReadReply);
  // Delivery also recorded in network stats and the packet retired.
  EXPECT_EQ(h.net.stats().packets_delivered[2], 1u);
  EXPECT_EQ(h.net.arena().live(), 0u);
}

TEST(EjectNi, BackpressuresWhenSinkNotReady) {
  NiHarness h;
  CountingSink sink;
  sink.ready = false;
  EnhancedInjectNi inj(&h.net, 0, 20);
  EjectNi ej(&h.net, 3, &sink);
  ASSERT_TRUE(inj.try_accept(h.make(PacketType::kWriteReply, 0, 3), 0));
  for (Cycle t = 0; t < 30; ++t) {
    inj.cycle(t);
    h.net.step(t);
    ej.cycle(t);
  }
  EXPECT_TRUE(sink.delivered.empty());
  EXPECT_GT(h.net.router(3).ejection_backlog(), 0u);
  // Release the backpressure: the packet flows.
  sink.ready = true;
  for (Cycle t = 30; t < 40; ++t) ej.cycle(t);
  EXPECT_EQ(sink.delivered.size(), 1u);
}

TEST(EjectNi, DrainRateLimitsThroughput) {
  // Two 1-flit packets ejected; a drain rate of 1 delivers one per cycle.
  NiHarness h;
  CountingSink sink;
  EnhancedInjectNi inj(&h.net, 0, 20);
  EjectNi ej(&h.net, 3, &sink, /*drain_flits_per_cycle=*/1);
  ASSERT_TRUE(inj.try_accept(h.make(PacketType::kWriteReply, 0, 3), 0));
  ASSERT_TRUE(inj.try_accept(h.make(PacketType::kWriteReply, 0, 3), 0));
  Cycle first = 0, second = 0;
  for (Cycle t = 0; t < 40 && sink.delivered.size() < 2; ++t) {
    inj.cycle(t);
    h.net.step(t);
    ej.cycle(t);
    if (sink.delivered.size() == 1 && first == 0) first = t;
    if (sink.delivered.size() == 2 && second == 0) second = t;
  }
  ASSERT_EQ(sink.delivered.size(), 2u);
  EXPECT_GT(second, first);  // Serialized by the narrow ejection link.
}

}  // namespace
}  // namespace arinoc
