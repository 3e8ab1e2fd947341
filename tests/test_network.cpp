// Network-level properties: delivery guarantees under random traffic for
// both routing algorithms, latency accounting, link-utilization probes, and
// conservation (no packet lost or duplicated).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "topo/generators.hpp"

namespace arinoc {
namespace {

class RecordingSink : public PacketSink {
 public:
  void deliver(const Packet& pkt, Cycle) override {
    ++delivered;
    flits += pkt.num_flits;
    last_src = pkt.src;
  }
  int delivered = 0;
  int flits = 0;
  NodeId last_src = kInvalidNode;
};

/// Random uniform traffic through a full mesh network with one enhanced NI
/// per node; checks conservation and delivery.
struct TrafficParams {
  RoutingAlgo routing;
  std::uint32_t mesh;
  std::uint32_t vcs;
  double load;  // Packet offer probability per node per cycle.
};

class NetworkTraffic : public ::testing::TestWithParam<TrafficParams> {};

TEST_P(NetworkTraffic, AllOfferedPacketsDelivered) {
  const TrafficParams tp = GetParam();
  const topo::Fabric mesh(topo::make_mesh_graph(tp.mesh, tp.mesh, 1));
  NetworkParams np;
  np.num_vcs = tp.vcs;
  np.vc_depth_flits = 5;
  np.routing = tp.routing;
  Network net(np, &mesh);

  RecordingSink sink;
  std::vector<std::unique_ptr<InjectNi>> nis;
  std::vector<std::unique_ptr<EjectNi>> ejs;
  for (NodeId n = 0; n < static_cast<NodeId>(mesh.nodes()); ++n) {
    nis.push_back(
        std::make_unique<InjectNi>(NiArch::kEnhanced, &net, n, 36));
    ejs.push_back(std::make_unique<EjectNi>(&net, n, &sink));
  }

  Xoshiro256 rng(99);
  int offered = 0;
  const Cycle inject_for = 600;
  const Cycle drain_until = 4000;
  for (Cycle t = 0; t < drain_until; ++t) {
    if (t < inject_for) {
      for (NodeId n = 0; n < static_cast<NodeId>(mesh.nodes()); ++n) {
        if (!rng.chance(tp.load)) continue;
        NodeId dst = static_cast<NodeId>(rng.next_below(mesh.nodes()));
        if (dst == n) continue;
        const PacketType type =
            rng.chance(0.5) ? PacketType::kReadReply : PacketType::kWriteReply;
        const PacketId id = net.make_packet(type, n, dst, 0, 0, t);
        if (nis[static_cast<std::size_t>(n)]->try_accept(id, t)) {
          ++offered;
        } else {
          net.abandon_packet(id);
        }
      }
    }
    for (auto& ni : nis) ni->cycle(t);
    net.step(t);
    for (auto& ej : ejs) ej->cycle(t);
    if (t > inject_for && net.arena().live() == 0) break;
  }
  EXPECT_GT(offered, 50);
  EXPECT_EQ(sink.delivered, offered);  // Nothing lost, nothing duplicated.
  EXPECT_EQ(net.arena().live(), 0u);   // Conservation: everything retired.
  EXPECT_EQ(static_cast<int>(net.stats().total_packets()), offered);
}

INSTANTIATE_TEST_SUITE_P(
    RoutingAndLoadSweep, NetworkTraffic,
    ::testing::Values(TrafficParams{RoutingAlgo::kXY, 4, 4, 0.05},
                      TrafficParams{RoutingAlgo::kXY, 4, 4, 0.3},
                      TrafficParams{RoutingAlgo::kXY, 6, 4, 0.15},
                      TrafficParams{RoutingAlgo::kMinAdaptive, 4, 4, 0.05},
                      TrafficParams{RoutingAlgo::kMinAdaptive, 4, 4, 0.3},
                      TrafficParams{RoutingAlgo::kMinAdaptive, 6, 4, 0.15},
                      TrafficParams{RoutingAlgo::kMinAdaptive, 6, 2, 0.15},
                      TrafficParams{RoutingAlgo::kXY, 8, 4, 0.1}));

TEST(Network, LatencyMatchesHopDistanceAtLowLoad) {
  const topo::Fabric mesh(topo::make_mesh_graph(6, 6, 1));
  NetworkParams np;
  np.routing = RoutingAlgo::kXY;
  Network net(np, &mesh);
  RecordingSink sink;
  InjectNi ni(NiArch::kEnhanced, &net, mesh.node_at(0, 0), 36);
  EjectNi ej(&net, mesh.node_at(5, 5), &sink);

  const PacketId id = net.make_packet(
      PacketType::kWriteReply, mesh.node_at(0, 0), mesh.node_at(5, 5), 0, 0, 0);
  ASSERT_TRUE(ni.try_accept(id, 0));
  for (Cycle t = 0; t < 100 && sink.delivered == 0; ++t) {
    ni.cycle(t);
    net.step(t);
    ej.cycle(t);
  }
  ASSERT_EQ(sink.delivered, 1);
  // 10 hops; each hop costs router pipeline + link. Sanity bounds: at
  // least one cycle per hop, at most 5x that without load.
  const double lat = net.stats().mean_latency(PacketType::kWriteReply);
  EXPECT_GE(lat, 10.0);
  EXPECT_LE(lat, 50.0);
}

TEST(Network, FlitWeightedStatsPerType) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 1));
  NetworkParams np;
  Network net(np, &mesh);
  RecordingSink sink;
  InjectNi ni(NiArch::kEnhanced, &net, 0, 36);
  EjectNi ej(&net, 5, &sink);
  ASSERT_TRUE(
      ni.try_accept(net.make_packet(PacketType::kReadReply, 0, 5, 0, 0, 0), 0));
  ASSERT_TRUE(
      ni.try_accept(net.make_packet(PacketType::kWriteReply, 0, 5, 0, 0, 0), 0));
  for (Cycle t = 0; t < 60 && sink.delivered < 2; ++t) {
    ni.cycle(t);
    net.step(t);
    ej.cycle(t);
  }
  ASSERT_EQ(sink.delivered, 2);
  const NocStats& s = net.stats();
  EXPECT_EQ(s.flits_delivered[static_cast<int>(PacketType::kReadReply)], 5u);
  EXPECT_EQ(s.flits_delivered[static_cast<int>(PacketType::kWriteReply)], 1u);
  EXPECT_EQ(s.total_flits(), 6u);
}

TEST(Network, InjectionUtilizationProbe) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 1));
  NetworkParams np;
  Network net(np, &mesh);
  RecordingSink sink;
  InjectNi ni(NiArch::kEnhanced, &net, 0, 36);
  EjectNi ej(&net, 15, &sink);
  // Saturate node 0's injection link for 50 cycles.
  for (Cycle t = 0; t < 50; ++t) {
    const PacketId id =
        net.make_packet(PacketType::kReadReply, 0, 15, 0, 0, t);
    if (!ni.try_accept(id, t)) net.abandon_packet(id);
    ni.cycle(t);
    net.step(t);
    ej.cycle(t);
  }
  const double inj = net.injection_link_utilization(50, {0});
  EXPECT_GT(inj, 0.8);  // Near 1 flit/cycle on the saturated link.
  const double internal = net.internal_link_utilization(50);
  EXPECT_GT(internal, 0.0);
  EXPECT_LT(internal, inj);  // One path among 48 links.
}

TEST(Network, WiderLinksShrinkLongPackets) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 1));
  NetworkParams np;
  np.link_width_bits = 256;
  Network net(np, &mesh);
  net.data_payload_bits = 512;
  EXPECT_EQ(net.flits_for(PacketType::kReadReply), 3);  // 1 + 512/256.
  EXPECT_EQ(net.flits_for(PacketType::kReadRequest), 1);
}

TEST(Network, ResetStatsClearsEverything) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 1));
  NetworkParams np;
  Network net(np, &mesh);
  RecordingSink sink;
  InjectNi ni(NiArch::kEnhanced, &net, 0, 36);
  EjectNi ej(&net, 3, &sink);
  ASSERT_TRUE(
      ni.try_accept(net.make_packet(PacketType::kReadReply, 0, 3, 0, 0, 0), 0));
  for (Cycle t = 0; t < 40 && sink.delivered == 0; ++t) {
    ni.cycle(t);
    net.step(t);
    ej.cycle(t);
  }
  ASSERT_EQ(sink.delivered, 1);
  net.reset_stats();
  EXPECT_EQ(net.stats().total_packets(), 0u);
  EXPECT_EQ(net.router(0).flits_injected(), 0u);
}

// Deadlock-freedom soak: adaptive routing with WPF under sustained high
// load in a mesh with hotspot destinations must keep making progress.
TEST(Network, AdaptiveHotspotTrafficMakesProgress) {
  const topo::Fabric mesh(topo::make_mesh_graph(6, 6, 8));
  NetworkParams np;
  np.routing = RoutingAlgo::kMinAdaptive;
  Network net(np, &mesh);
  RecordingSink sink;
  std::vector<std::unique_ptr<InjectNi>> nis;
  std::vector<std::unique_ptr<EjectNi>> ejs;
  for (NodeId n = 0; n < 36; ++n) {
    nis.push_back(
        std::make_unique<InjectNi>(NiArch::kEnhanced, &net, n, 36));
    ejs.push_back(std::make_unique<EjectNi>(&net, n, &sink));
  }
  Xoshiro256 rng(5);
  const auto& mcs = mesh.mc_nodes();
  for (Cycle t = 0; t < 3000; ++t) {
    // All CCs hammer the 8 MC nodes (few-to-many in reverse: many-to-few,
    // the worst congestion pattern for adaptive escape paths).
    for (NodeId n : mesh.cc_nodes()) {
      const NodeId dst = mcs[rng.next_below(mcs.size())];
      const PacketId id = net.make_packet(PacketType::kReadReply, n, dst, 0,
                                          0, t);
      if (!nis[static_cast<std::size_t>(n)]->try_accept(id, t)) {
        net.abandon_packet(id);
      }
    }
    for (auto& ni : nis) ni->cycle(t);
    net.step(t);
    for (auto& ej : ejs) ej->cycle(t);
  }
  EXPECT_GT(sink.delivered, 1000);  // Sustained forward progress.
}

}  // namespace
}  // namespace arinoc
