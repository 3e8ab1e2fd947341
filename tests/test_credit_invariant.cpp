// The credit-conservation invariant checker.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "noc/ni.hpp"
#include "topo/generators.hpp"

namespace arinoc {
namespace {

TEST(CreditInvariant, HoldsOnIdleNetwork) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 2));
  NetworkParams np;
  Network net(np, &mesh);
  EXPECT_EQ(net.validate_credit_invariants(), "");
}

TEST(CreditInvariant, HoldsDuringAndAfterTraffic) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 2));
  NetworkParams np;
  np.routing = RoutingAlgo::kMinAdaptive;
  np.priority_levels = 2;
  np.treat_mcs_specially = true;
  np.mc_injection_speedup = 4;
  Network net(np, &mesh);
  std::vector<std::unique_ptr<EnhancedInjectNi>> nis;
  std::vector<std::unique_ptr<EjectNi>> ejs;
  class Sink : public PacketSink {
   public:
    void deliver(const Packet&, Cycle) override {}
  } sink;
  for (NodeId n = 0; n < 16; ++n) {
    nis.push_back(std::make_unique<EnhancedInjectNi>(&net, n, 36));
    ejs.push_back(std::make_unique<EjectNi>(&net, n, &sink));
  }
  Xoshiro256 rng(5);
  for (Cycle t = 0; t < 600; ++t) {
    for (NodeId n = 0; n < 16; ++n) {
      if (!rng.chance(0.3)) continue;
      const NodeId dst = static_cast<NodeId>(rng.next_below(16));
      if (dst == n) continue;
      const PacketId id =
          net.make_packet(PacketType::kReadReply, n, dst, 1, 0, t);
      if (!nis[static_cast<std::size_t>(n)]->try_accept(id, t)) {
        net.abandon_packet(id);
      }
    }
    for (auto& ni : nis) ni->cycle(t);
    net.step(t);
    for (auto& ej : ejs) ej->cycle(t);
    // The invariant must hold at EVERY cycle boundary, not only at rest.
    ASSERT_EQ(net.validate_credit_invariants(), "") << "at cycle " << t;
  }
}

TEST(CreditInvariant, HoldsWithMultiCycleLinks) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 2));
  NetworkParams np;
  np.link_latency = 3;
  Network net(np, &mesh);
  EnhancedInjectNi ni(&net, 0, 36);
  class Sink : public PacketSink {
   public:
    void deliver(const Packet&, Cycle) override {}
  } sink;
  EjectNi ej(&net, 15, &sink);
  for (Cycle t = 0; t < 200; ++t) {
    const PacketId id = net.make_packet(PacketType::kReadReply, 0, 15, 0, 0, t);
    if (!ni.try_accept(id, t)) net.abandon_packet(id);
    ni.cycle(t);
    net.step(t);
    ej.cycle(t);
    ASSERT_EQ(net.validate_credit_invariants(), "") << "at cycle " << t;
  }
}

}  // namespace
}  // namespace arinoc
