// Driving the NoC library standalone (no GPU cores, no DRAM): synthetic
// few-to-many traffic from 8 "MC" injectors into 28 sinks, the pattern
// that creates the reply-injection bottleneck. Compares the four NI
// architectures at increasing offered load and prints the accepted
// throughput and latency — a BookSim-style experiment using arinoc::noc
// directly.
//
//   ./noc_playground
#include <cstdio>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/report.hpp"
#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "topo/generators.hpp"

using namespace arinoc;

namespace {

class NullSink : public PacketSink {
 public:
  void deliver(const Packet&, Cycle) override { ++count; }
  std::uint64_t count = 0;
};

struct Result {
  double throughput;  // Delivered packets/cycle.
  double latency;
};

Result run(NiArch arch, double offered_load, std::uint32_t speedup) {
  const topo::Fabric mesh(topo::make_mesh_graph(6, 6, 8));
  NetworkParams np;
  np.routing = RoutingAlgo::kMinAdaptive;
  np.treat_mcs_specially = true;
  np.mc_injection_speedup = speedup;
  np.mc_injection_ports = arch == NiArch::kMultiPort ? 2 : 1;
  Network net(np, &mesh);

  Config cfg;  // For NI construction parameters only.
  NullSink sink;
  std::vector<std::unique_ptr<InjectNi>> nis;
  std::vector<std::unique_ptr<EjectNi>> ejs;
  for (NodeId mc : mesh.mc_nodes()) {
    nis.push_back(make_inject_ni(arch, &net, mc, cfg));
  }
  for (NodeId cc : mesh.cc_nodes()) {
    ejs.push_back(std::make_unique<EjectNi>(&net, cc, &sink));
  }

  Xoshiro256 rng(7);
  const Cycle cycles = 4000;
  for (Cycle t = 0; t < cycles; ++t) {
    for (std::size_t i = 0; i < nis.size(); ++i) {
      if (!rng.chance(offered_load)) continue;
      const NodeId dst =
          mesh.cc_nodes()[rng.next_below(mesh.cc_nodes().size())];
      const PacketType type = rng.chance(0.9) ? PacketType::kReadReply
                                              : PacketType::kWriteReply;
      const PacketId id =
          net.make_packet(type, mesh.mc_nodes()[i], dst, 0, 0, t);
      if (!nis[i]->try_accept(id, t)) net.abandon_packet(id);
    }
    for (auto& ni : nis) ni->cycle(t);
    net.step(t);
    for (auto& ej : ejs) ej->cycle(t);
  }
  return {static_cast<double>(sink.count) / cycles,
          net.stats().mean_latency_all()};
}

}  // namespace

int main() {
  std::printf("few-to-many reply traffic: 8 injectors -> 28 sinks, "
              "6x6 mesh, adaptive routing\n");
  std::printf("offered load = reply packets per MC per cycle "
              "(~0.2 pkt/cycle saturates one narrow injection link)\n\n");
  struct Setup {
    const char* name;
    NiArch arch;
    std::uint32_t speedup;
  };
  const Setup setups[] = {
      {"Baseline NI (narrow MC->NI)", NiArch::kBaseline, 1},
      {"Enhanced NI (wide MC->NI)", NiArch::kEnhanced, 1},
      {"MultiPort [3] (2 inj ports)", NiArch::kMultiPort, 1},
      {"ARI (split queues + S=4)", NiArch::kSplitQueue, 4},
  };
  for (double load : {0.1, 0.2, 0.4, 0.6}) {
    std::printf("--- offered load %.1f pkt/MC/cycle ---\n", load);
    TextTable t({"NI architecture", "delivered pkt/cycle", "mean latency"});
    for (const Setup& s : setups) {
      const Result r = run(s.arch, load, s.speedup);
      t.add_row({s.name, fmt(r.throughput, 3), fmt(r.latency, 1)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }
  std::printf("reading the tables: all four keep up at low load; as load\n"
              "crosses the narrow-injection capacity, only ARI keeps\n"
              "accepting traffic (supply AND consumption accelerated).\n");
  return 0;
}
