// Network-interface architectures (paper Fig. 7): acceptance semantics,
// supply rates into the router, occupancy accounting, and ejection-side
// reassembly with backpressure.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/active_set.hpp"
#include "common/rng.hpp"
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

// Free slots of every injection (port, VC) of `r`, port-major.
std::vector<std::uint32_t> injection_free_slots(const Router& r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t p = 0; p < r.num_injection_ports(); ++p) {
    for (std::uint32_t vc = 0; vc < r.num_vcs(); ++vc) {
      out.push_back(r.injection_free(p, vc));
    }
  }
  return out;
}

/// One NI cycle, observed at the router: the (port, VC) slots that gained
/// a flit, and the router's running injected-flit count.
struct InjectStep {
  std::vector<std::size_t> slots;
  std::uint64_t injected;
  bool operator==(const InjectStep&) const = default;
};

InjectStep observed_cycle(InjectNi& ni, const Router& r, Cycle t) {
  const std::vector<std::uint32_t> before = injection_free_slots(r);
  ni.cycle(t);
  const std::vector<std::uint32_t> after = injection_free_slots(r);
  InjectStep s{{}, r.flits_injected()};
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (after[i] < before[i]) s.slots.push_back(i);
  }
  return s;
}

TEST(BaselineNi, SerializesAcceptOverNarrowLink) {
  NiHarness h;
  InjectNi ni(NiArch::kBaseline, &h.net, 0, 20);
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
  InjectNi ni(NiArch::kEnhanced, &h.net, 0, 20);
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
  InjectNi ni(NiArch::kEnhanced, &h.net, 0, 20);
  ASSERT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  ASSERT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  // The narrow AB link moves at most one flit per cycle into the router.
  for (Cycle t = 0; t < 6; ++t) ni.cycle(t);
  EXPECT_EQ(h.net.router(0).flits_injected(), 6u);
}

TEST(EnhancedNi, StampsCreatedAtAccept) {
  NiHarness h;
  InjectNi ni(NiArch::kEnhanced, &h.net, 0, 20);
  const PacketId id = h.make(PacketType::kReadReply, 0, 3);
  ASSERT_TRUE(ni.try_accept(id, 123));
  EXPECT_EQ(h.net.arena().at(id).created, 123u);
}

TEST(SplitQueueNi, SuppliesUpToKFlitsPerCycle) {
  NiHarness h;
  InjectNi ni(NiArch::kSplitQueue, &h.net, 0, 20, 4);
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
  InjectNi ni(NiArch::kSplitQueue, &h.net, 0, 8, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ni.try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  }
  EXPECT_EQ(ni.occupancy_packets(), 4u);
}

TEST(SplitQueueNi, DistributesPacketsRoundRobin) {
  NiHarness h;
  InjectNi ni(NiArch::kSplitQueue, &h.net, 0, 40, 4);
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
  InjectNi ni(NiArch::kSplitQueue, &h.net, 0, 20, 4);  // 5 flits per queue.
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
  InjectNi ni(NiArch::kMultiPort, &net, mc, 20);
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
  InjectNi ni(NiArch::kMultiPort, &net, mc, 40);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        ni.try_accept(net.make_packet(PacketType::kWriteReply, mc, dst, 0, 0, 0), 0));
  }
  // 4 single-flit packets enter VC 0 of port 0, port 1, port 0, port 1:
  // slot r.num_vcs() is (port 1, VC 0).
  const std::size_t port1 = net.router(mc).num_vcs();
  const std::vector<std::size_t> want[] = {{0}, {port1}, {0}, {port1}};
  for (Cycle t = 0; t < 4; ++t) {
    EXPECT_EQ(observed_cycle(ni, net.router(mc), t).slots, want[t])
        << "cycle " << t;
  }
  EXPECT_EQ(net.router(mc).flits_injected(), 4u);
}

/// Drives one NI on the MC of a 2x2 mesh whose MC router has
/// `injection_ports` injection ports, offering the same seeded mix of long
/// and short packets every run, and records what enters the router each
/// cycle.
std::vector<InjectStep> drive_mc_ni(NiArch arch, std::uint32_t injection_ports) {
  NetworkParams p = NiHarness::params();
  p.treat_mcs_specially = true;
  p.mc_injection_ports = injection_ports;
  const topo::Fabric mesh(topo::make_mesh_graph(2, 2, 1));
  Network net(p, &mesh);
  const NodeId mc = mesh.mc_nodes()[0];
  Config cfg = ni_config();
  std::unique_ptr<InjectNi> ni = make_inject_ni(arch, &net, mc, cfg);
  class Sink : public PacketSink {
   public:
    void deliver(const Packet&, Cycle) override {}
  } sink;
  std::vector<std::unique_ptr<EjectNi>> ejs;
  for (NodeId cc : mesh.cc_nodes()) {
    ejs.push_back(std::make_unique<EjectNi>(&net, cc, &sink));
  }
  Xoshiro256 rng(11);
  std::vector<InjectStep> trace;
  for (Cycle t = 0; t < 400; ++t) {
    if (rng.chance(0.5)) {
      const NodeId dst =
          mesh.cc_nodes()[rng.next_below(mesh.cc_nodes().size())];
      const PacketType type = rng.chance(0.7) ? PacketType::kReadReply
                                              : PacketType::kWriteReply;
      const PacketId id = net.make_packet(type, mc, dst, 0, 0, t);
      if (!ni->try_accept(id, t)) net.abandon_packet(id);
    }
    trace.push_back(observed_cycle(*ni, net.router(mc), t));
    net.step(t);
    for (auto& ej : ejs) ej->cycle(t);
  }
  return trace;
}

TEST(InjectNiEquivalence, EnhancedIsMultiPortOnOneInjectionPort) {
  const std::vector<InjectStep> enhanced = drive_mc_ni(NiArch::kEnhanced, 1);
  const std::vector<InjectStep> multiport = drive_mc_ni(NiArch::kMultiPort, 1);
  ASSERT_EQ(enhanced.size(), multiport.size());
  for (std::size_t t = 0; t < enhanced.size(); ++t) {
    ASSERT_EQ(enhanced[t], multiport[t]) << "cycle " << t;
  }
  // The run must actually exercise the NI: flits entered the router.
  EXPECT_GT(enhanced.back().injected, 100u);
}

TEST(MultiPortNi, MovesToOtherPortWhenPreferredHasNoReadyVc) {
  NetworkParams p = NiHarness::params();
  p.treat_mcs_specially = true;
  p.mc_injection_ports = 2;
  const topo::Fabric mesh(topo::make_mesh_graph(2, 2, 1));
  Network net(p, &mesh);
  const NodeId mc = mesh.mc_nodes()[0];
  const NodeId dst = mc == 0 ? 3 : 0;
  Router& r = net.router(mc);
  // Fill every VC of port 0, the port a fresh NI prefers.
  for (std::uint32_t vc = 0; vc < r.num_vcs(); ++vc) {
    const PacketId id =
        net.make_packet(PacketType::kReadReply, mc, dst, 0, 0, 0);
    for (std::uint16_t s = 0; s < 5; ++s) {
      r.inject_flit(0, vc, PacketArena::flit_of(id, s, 5), 0);
    }
  }
  Config cfg = ni_config();
  std::unique_ptr<InjectNi> ni = make_inject_ni(NiArch::kMultiPort, &net, mc, cfg);
  ASSERT_TRUE(ni->try_accept(
      net.make_packet(PacketType::kWriteReply, mc, dst, 0, 0, 0), 0));
  const InjectStep s = observed_cycle(*ni, r, 0);
  // Slot index r.num_vcs() is (port 1, VC 0): the first ready VC there.
  EXPECT_EQ(s.slots, std::vector<std::size_t>{r.num_vcs()});
  EXPECT_EQ(ni->occupancy_packets(), 0u);
}

TEST(SplitQueueNi, QueueIInjectsOnlyIntoVcI) {
  NiHarness h;
  Router& r = h.net.router(0);
  // Fill VC 1: queue 1's packet must wait for it, never take another VC.
  const PacketId filler = h.make(PacketType::kReadReply, 0, 3);
  for (std::uint16_t s = 0; s < 5; ++s) {
    r.inject_flit(0, 1, PacketArena::flit_of(filler, s, 5), 0);
  }
  Config cfg = ni_config();
  std::unique_ptr<InjectNi> ni =
      make_inject_ni(NiArch::kSplitQueue, &h.net, 0, cfg);
  // Round-robin accept: packet i lands in queue i.
  const PacketType types[] = {PacketType::kReadReply, PacketType::kWriteReply,
                              PacketType::kWriteReply, PacketType::kReadReply};
  for (PacketType t : types) ASSERT_TRUE(ni->try_accept(h.make(t, 0, 3), 0));
  for (Cycle t = 0; t < 8; ++t) {
    const InjectStep s = observed_cycle(*ni, r, t);
    for (std::size_t slot : s.slots) EXPECT_NE(slot, 1u) << "cycle " << t;
  }
  // Queue 0 and 3 sent 5 flits into VC 0 and VC 3, queue 2 one into VC 2;
  // queue 1 still holds its packet.
  EXPECT_EQ(r.injection_free(0, 0), 0u);
  EXPECT_EQ(r.injection_free(0, 1), 0u);
  EXPECT_EQ(r.injection_free(0, 2), 4u);
  EXPECT_EQ(r.injection_free(0, 3), 0u);
  EXPECT_EQ(ni->occupancy_packets(), 1u);
  EXPECT_EQ(ni->occupancy_flits(), 1u);
}

TEST(BaselineNi, NotIdleWhileSerializing) {
  NiHarness h;
  Config cfg = ni_config();
  std::unique_ptr<InjectNi> ni =
      make_inject_ni(NiArch::kBaseline, &h.net, 0, cfg);
  EXPECT_TRUE(ni->idle());
  ASSERT_TRUE(ni->try_accept(h.make(PacketType::kReadReply, 0, 3), 0));
  // The packet is on the narrow node->NI link: the queue is still empty,
  // but the NI has work for the next 5 cycles.
  for (Cycle t = 0; t < 4; ++t) {
    EXPECT_EQ(ni->occupancy_flits(), 0u);
    EXPECT_FALSE(ni->idle()) << "cycle " << t;
    ni->cycle(t);
  }
  EXPECT_FALSE(ni->idle());
  ni->cycle(4);  // Last flit arrives; the head enters the router.
  EXPECT_EQ(ni->occupancy_flits(), 4u);
  EXPECT_FALSE(ni->idle());
}

/// A head-blocked NI sleeps until its router moves a flit out of an
/// injection VC. The MC router of a 2x2 mesh (with `injection_ports` ports)
/// starts with the VCs the NI may use full; the network is not stepped, so
/// nothing frees them until the test steps it once.
void expect_sleeps_until_injection_vc_frees(NiArch arch,
                                            std::uint32_t injection_ports) {
  SCOPED_TRACE(static_cast<int>(arch));
  NetworkParams p = NiHarness::params();
  p.activity_driven = true;
  p.treat_mcs_specially = true;
  p.mc_injection_ports = injection_ports;
  const topo::Fabric mesh(topo::make_mesh_graph(2, 2, 1));
  Network net(p, &mesh);
  const NodeId mc = mesh.mc_nodes()[0];
  const NodeId dst = mc == 0 ? 3 : 0;
  Router& r = net.router(mc);
  // Split queue 0 may only enter VC 0; the other NIs may take any VC.
  const std::uint32_t vcs = arch == NiArch::kSplitQueue ? 1 : r.num_vcs();
  for (std::uint32_t port = 0; port < injection_ports; ++port) {
    for (std::uint32_t vc = 0; vc < vcs; ++vc) {
      const PacketId id =
          net.make_packet(PacketType::kReadReply, mc, dst, 0, 0, 0);
      for (std::uint16_t s = 0; s < 5; ++s) {
        r.inject_flit(port, vc, PacketArena::flit_of(id, s, 5), 0);
      }
    }
  }
  std::unique_ptr<InjectNi> ni = make_inject_ni(arch, &net, mc, ni_config());
  ActiveSet set;
  set.resize(1);
  ni->set_activity_hook(&set, 0);
  // A 1-flit packet: any single freed slot admits it.
  ASSERT_TRUE(ni->try_accept(
      net.make_packet(PacketType::kWriteReply, mc, dst, 0, 0, 0), 0));
  Cycle t = 0;
  const auto ni_cycle = [&] {
    set.drain_sorted([&](std::size_t) {
      ni->cycle(t);
      if (!ni->can_sleep()) set.wake(0);
    });
    ++t;
  };
  ni_cycle();
  EXPECT_EQ(ni->steps(), 1u);
  EXPECT_EQ(ni->occupancy_packets(), 1u);
  for (int k = 0; k < 10; ++k) ni_cycle();
  EXPECT_EQ(ni->steps(), 1u) << "a head-blocked NI kept stepping";
  // The router sends one injected flit on: the NI wakes for the next cycle
  // and its packet enters the freed slot.
  net.step(t);
  EXPECT_EQ(set.pending(), 1u);
  ni_cycle();
  EXPECT_EQ(ni->steps(), 2u);
  EXPECT_EQ(ni->occupancy_packets(), 0u);
}

TEST(InjectNiActivity, HeadBlockedNiSleepsUntilItsRouterFreesAVc) {
  expect_sleeps_until_injection_vc_frees(NiArch::kEnhanced, 1);
  expect_sleeps_until_injection_vc_frees(NiArch::kSplitQueue, 1);
  expect_sleeps_until_injection_vc_frees(NiArch::kMultiPort, 2);
}

TEST(InjectNiFactory, BuildsRequestedArchitecture) {
  NiHarness h;
  Config cfg = ni_config();
  for (NiArch arch : {NiArch::kBaseline, NiArch::kEnhanced,
                      NiArch::kSplitQueue, NiArch::kMultiPort}) {
    const std::unique_ptr<InjectNi> ni = make_inject_ni(arch, &h.net, 0, cfg);
    EXPECT_EQ(ni->arch(), arch);
    // Only the ARI NI splits its buffer (cfg.split_queues = 4).
    EXPECT_EQ(ni->num_queues(), arch == NiArch::kSplitQueue ? 4u : 1u);
  }
}

TEST(InjectNi, OccupancySamplingAverages) {
  NiHarness h;
  InjectNi ni(NiArch::kEnhanced, &h.net, 0, 20);
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
  InjectNi inj(NiArch::kEnhanced, &h.net, 0, 20);
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
  InjectNi inj(NiArch::kEnhanced, &h.net, 0, 20);
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
  InjectNi inj(NiArch::kEnhanced, &h.net, 0, 20);
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
