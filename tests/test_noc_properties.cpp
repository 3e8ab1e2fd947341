// Property/fuzz tests for the NoC: randomized traffic across parameter
// combinations must never lose, duplicate, or corrupt packets, and must
// always make forward progress (deadlock freedom), including under the
// ARI features (speedup, priority, split supply) and adverse settings
// (atomic VC allocation, 2 VCs, multi-cycle links).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "topo/generators.hpp"

namespace arinoc {
namespace {

struct FuzzParams {
  RoutingAlgo routing;
  std::uint32_t vcs;
  bool non_atomic;
  std::uint32_t speedup;
  std::uint32_t link_latency;
  std::uint32_t priority_levels;
  std::uint64_t seed;
};

class SequenceSink : public PacketSink {
 public:
  void deliver(const Packet& pkt, Cycle) override {
    ++delivered;
    total_flits += pkt.num_flits;
  }
  std::uint64_t delivered = 0;
  std::uint64_t total_flits = 0;
};

class NocFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(NocFuzz, ConservationAndProgress) {
  const FuzzParams fp = GetParam();
  const topo::Fabric mesh(topo::make_mesh_graph(5, 5, 4));
  NetworkParams np;
  np.routing = fp.routing;
  np.num_vcs = fp.vcs;
  np.vc_depth_flits = 5;
  np.non_atomic_vc = fp.non_atomic;
  np.link_latency = fp.link_latency;
  np.priority_levels = fp.priority_levels;
  np.treat_mcs_specially = true;
  np.mc_injection_speedup = std::min(fp.speedup, fp.vcs);
  Network net(np, &mesh);

  SequenceSink sink;
  std::vector<std::unique_ptr<InjectNi>> nis;
  std::vector<std::unique_ptr<EjectNi>> ejs;
  Config cfg;
  cfg.num_vcs = fp.vcs;
  cfg.split_queues = std::min(4u, fp.vcs);
  for (NodeId n = 0; n < static_cast<NodeId>(mesh.nodes()); ++n) {
    // MCs get the ARI split-queue NI, CCs the enhanced NI.
    nis.push_back(make_inject_ni(
        mesh.is_mc(n) ? NiArch::kSplitQueue : NiArch::kEnhanced, &net, n,
        cfg));
    ejs.push_back(std::make_unique<EjectNi>(&net, n, &sink));
  }

  Xoshiro256 rng(fp.seed);
  std::uint64_t offered = 0;
  std::uint64_t offered_flits = 0;
  const Cycle inject_until = 800;
  for (Cycle t = 0; t < 6000; ++t) {
    if (t < inject_until) {
      for (NodeId n = 0; n < static_cast<NodeId>(mesh.nodes()); ++n) {
        if (!rng.chance(0.25)) continue;
        NodeId dst = static_cast<NodeId>(rng.next_below(mesh.nodes()));
        if (dst == n) continue;
        const PacketType type = static_cast<PacketType>(rng.next_below(4));
        const std::uint8_t prio = static_cast<std::uint8_t>(
            rng.next_below(fp.priority_levels));
        const PacketId id = net.make_packet(type, n, dst, prio, 0, t);
        if (nis[static_cast<std::size_t>(n)]->try_accept(id, t)) {
          ++offered;
          offered_flits += net.arena().at(id).num_flits;
        } else {
          net.abandon_packet(id);
        }
      }
    }
    for (auto& ni : nis) ni->cycle(t);
    net.step(t);
    for (auto& ej : ejs) ej->cycle(t);
    if (t > inject_until && net.arena().live() == 0) break;
  }
  EXPECT_GT(offered, 100u);
  EXPECT_EQ(sink.delivered, offered) << "lost or duplicated packets";
  EXPECT_EQ(sink.total_flits, offered_flits) << "flit corruption";
  EXPECT_EQ(net.arena().live(), 0u) << "stuck packets (deadlock?)";
}

std::vector<FuzzParams> fuzz_matrix() {
  std::vector<FuzzParams> out;
  std::uint64_t seed = 1;
  for (RoutingAlgo algo : {RoutingAlgo::kXY, RoutingAlgo::kMinAdaptive}) {
    for (std::uint32_t vcs : {2u, 4u}) {
      for (bool non_atomic : {false, true}) {
        for (std::uint32_t speedup : {1u, 4u}) {
          out.push_back({algo, vcs, non_atomic, speedup, 1, 2, seed++});
        }
      }
    }
  }
  // Multi-cycle links and deeper priority as extra corners.
  out.push_back({RoutingAlgo::kMinAdaptive, 4, true, 4, 3, 2, 99});
  out.push_back({RoutingAlgo::kXY, 4, true, 4, 2, 4, 100});
  out.push_back({RoutingAlgo::kMinAdaptive, 4, true, 4, 1, 6, 101});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, NocFuzz, ::testing::ValuesIn(fuzz_matrix()),
    [](const auto& info) {
      const FuzzParams& p = info.param;
      std::string n;
      n += p.routing == RoutingAlgo::kXY ? "XY" : "Ada";
      n += "_v" + std::to_string(p.vcs);
      n += p.non_atomic ? "_wpf" : "_atomic";
      n += "_s" + std::to_string(p.speedup);
      n += "_l" + std::to_string(p.link_latency);
      n += "_p" + std::to_string(p.priority_levels);
      n += "_seed" + std::to_string(p.seed);
      return n;
    });

// MultiPort routers (two injection input ports) under random traffic:
// conservation must hold with the extra ports too.
TEST(NocFuzzExtra, MultiPortInjectionConserves) {
  const topo::Fabric mesh(topo::make_mesh_graph(4, 4, 2));
  NetworkParams np;
  np.routing = RoutingAlgo::kMinAdaptive;
  np.treat_mcs_specially = true;
  np.mc_injection_ports = 2;
  Network net(np, &mesh);
  SequenceSink sink;
  Config cfg;
  std::vector<std::unique_ptr<InjectNi>> nis;
  std::vector<std::unique_ptr<EjectNi>> ejs;
  for (NodeId n = 0; n < 16; ++n) {
    nis.push_back(make_inject_ni(
        mesh.is_mc(n) ? NiArch::kMultiPort : NiArch::kEnhanced, &net, n,
        cfg));
    ejs.push_back(std::make_unique<EjectNi>(&net, n, &sink));
  }
  Xoshiro256 rng(31);
  std::uint64_t offered = 0;
  for (Cycle t = 0; t < 4000; ++t) {
    if (t < 600) {
      for (NodeId n = 0; n < 16; ++n) {
        if (!rng.chance(0.3)) continue;
        const NodeId dst = static_cast<NodeId>(rng.next_below(16));
        if (dst == n) continue;
        const PacketId id = net.make_packet(
            static_cast<PacketType>(rng.next_below(4)), n, dst, 0, 0, t);
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
    if (t > 600 && net.arena().live() == 0) break;
  }
  EXPECT_GT(offered, 100u);
  EXPECT_EQ(sink.delivered, offered);
  EXPECT_EQ(net.arena().live(), 0u);
}

// Stress: sustained saturation with ARI features on; throughput must stay
// near the ejection capacity and never collapse (livelock check).
TEST(NocStress, SaturationThroughputStable) {
  const topo::Fabric mesh(topo::make_mesh_graph(6, 6, 8));
  NetworkParams np;
  np.routing = RoutingAlgo::kMinAdaptive;
  np.priority_levels = 2;
  np.treat_mcs_specially = true;
  np.mc_injection_speedup = 4;
  Network net(np, &mesh);
  SequenceSink sink;
  Config cfg;
  std::vector<std::unique_ptr<InjectNi>> nis;
  std::vector<std::unique_ptr<EjectNi>> ejs;
  for (NodeId mc : mesh.mc_nodes()) {
    nis.push_back(make_inject_ni(NiArch::kSplitQueue, &net, mc, cfg));
  }
  for (NodeId cc : mesh.cc_nodes()) {
    ejs.push_back(std::make_unique<EjectNi>(&net, cc, &sink));
  }
  Xoshiro256 rng(7);
  std::uint64_t window_start = 0;
  double min_rate = 1e9, max_rate = 0.0;
  for (Cycle t = 0; t < 8000; ++t) {
    for (std::size_t i = 0; i < nis.size(); ++i) {
      const NodeId dst =
          mesh.cc_nodes()[rng.next_below(mesh.cc_nodes().size())];
      const PacketId id = net.make_packet(PacketType::kReadReply,
                                          mesh.mc_nodes()[i], dst, 1, 0, t);
      if (!nis[i]->try_accept(id, t)) net.abandon_packet(id);
    }
    for (auto& ni : nis) ni->cycle(t);
    net.step(t);
    for (auto& ej : ejs) ej->cycle(t);
    if ((t + 1) % 2000 == 0) {
      if (t > 2000) {  // Skip the warm-up window.
        const double rate =
            static_cast<double>(sink.delivered - window_start) / 2000.0;
        min_rate = std::min(min_rate, rate);
        max_rate = std::max(max_rate, rate);
      }
      window_start = sink.delivered;
    }
  }
  EXPECT_GT(min_rate, 1.0);              // Sustained high throughput.
  EXPECT_LT(max_rate / min_rate, 1.5);   // No collapse over time.
}

}  // namespace
}  // namespace arinoc
