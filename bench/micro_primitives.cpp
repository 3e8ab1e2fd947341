// google-benchmark microbenchmarks of the simulator primitives: router
// step throughput, allocator arbitration, cache and DRAM models, and a
// full-system cycle. These guard the simulator's own performance (the
// figure benches run ~300 full simulations).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "noc/arbiter.hpp"
#include "noc/network.hpp"
#include "noc/ni.hpp"
#include "obs/trace.hpp"
#include "topo/generators.hpp"
#include "workloads/tracegen.hpp"

namespace {

using namespace arinoc;

void BM_RoundRobinArbiter(benchmark::State& state) {
  RoundRobinArbiter arb(16);
  std::uint64_t req = 0xffff;
  benchmark::DoNotOptimize(req);  // A run-time mask, not a folded constant.
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.pick(req));
  }
}
BENCHMARK(BM_RoundRobinArbiter);

/// Sixteen requesters, half of them at the higher key: the router's output
/// arbitration under ARI prioritization.
void BM_PriorityArbiter(benchmark::State& state) {
  PriorityArbiter arb(16);
  std::vector<ArbRequest> req(16);
  for (std::uint32_t i = 0; i < 16; ++i) req[i] = {i, i % 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.pick(req));
  }
}
BENCHMARK(BM_PriorityArbiter);

void BM_CacheAccess(benchmark::State& state) {
  Cache cache(128 * 1024, 8, 64);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.next_below(1 << 20) * 64));
  }
}
BENCHMARK(BM_CacheAccess);

void BM_DramTick(benchmark::State& state) {
  GddrDram dram(16, DramTimings{}, 64);
  Xoshiro256 rng(2);
  TxnId id = 0;
  for (auto _ : state) {
    if (dram.can_enqueue()) {
      dram.enqueue({id++, static_cast<std::uint32_t>(rng.next_below(16)),
                    rng.next_below(1000), false, 0});
    }
    dram.tick(false);
    benchmark::DoNotOptimize(dram.queue_depth());
    dram.clear_completed();
  }
}
BENCHMARK(BM_DramTick);

void BM_TraceGenNext(benchmark::State& state) {
  TraceGen gen(*find_benchmark("bfs"), 28, 24, 64, 1);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next(i % 28, i % 24));
    ++i;
  }
}
BENCHMARK(BM_TraceGenNext);

/// One saturated reply-network cycle (router pipeline + links) on `fabric`:
/// every MC offers a read reply to a random core each cycle.
void network_step(benchmark::State& state, const topo::Fabric& fabric) {
  NetworkParams np;
  np.routing = RoutingAlgo::kMinAdaptive;
  Network net(np, &fabric);
  std::vector<std::unique_ptr<InjectNi>> nis;
  for (NodeId mc : fabric.mc_nodes()) {
    nis.push_back(
        std::make_unique<InjectNi>(NiArch::kEnhanced, &net, mc, 36));
  }
  Xoshiro256 rng(3);
  Cycle t = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < nis.size(); ++i) {
      const NodeId dst =
          fabric.cc_nodes()[rng.next_below(fabric.cc_nodes().size())];
      const PacketId id = net.make_packet(PacketType::kReadReply,
                                          fabric.mc_nodes()[i], dst, 0, 0, t);
      if (!nis[i]->try_accept(id, t)) net.abandon_packet(id);
      nis[i]->cycle(t);
    }
    net.step(t);
    ++t;
    // Drain ejection buffers so the network stays live.
    for (NodeId n = 0; n < static_cast<NodeId>(fabric.nodes()); ++n) {
      Router& r = net.router(n);
      while (r.has_ejected_flit()) {
        const Flit f = r.pop_ejected_flit();
        if (f.tail) net.finish_packet(f.pkt, t);
      }
    }
  }
  state.counters["flits/cycle"] = benchmark::Counter(
      static_cast<double>(net.stats().total_flits()),
      benchmark::Counter::kIsRate);
}

/// 6x6 mesh: dimension-order candidates (X before Y).
void BM_NetworkStep(benchmark::State& state) {
  const topo::Fabric mesh(topo::make_mesh_graph(6, 6, 8));
  network_step(state, mesh);
}
BENCHMARK(BM_NetworkStep);

/// 2x2 chiplets of 3x3 dies (36 routers, serdes links): up*/down* table
/// routing, so adaptive VA ranks every minimal legal port.
void BM_NetworkStepChiplet(benchmark::State& state) {
  const topo::Fabric chip(topo::make_chiplet_graph(
      2, 2, 3, 3, 8, McPlacement::kDiamond, /*serdes_latency=*/4));
  network_step(state, chip);
}
BENCHMARK(BM_NetworkStepChiplet);

/// Raw cost of one trace-ring write (the per-event price every hook pays
/// when tracing is on).
void BM_TracerRecord(benchmark::State& state) {
  obs::PacketTracer tracer;
  Cycle t = 0;
  for (auto _ : state) {
    tracer.record(obs::TraceEventKind::kLinkHop, 0, t++, 42,
                  PacketType::kReadReply, 7, 1);
    benchmark::DoNotOptimize(tracer.size());
  }
}
BENCHMARK(BM_TracerRecord);

/// Full GPGPU system cycle (cores + both networks + MCs + DRAM).
void BM_FullSystemCycle(benchmark::State& state) {
  Config cfg = apply_scheme(Config{}, Scheme::kAdaARI);
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run(500);  // Warm structures.
  for (auto _ : state) {
    sim.step();
  }
}
BENCHMARK(BM_FullSystemCycle);

/// The same cycle with the lifecycle tracer attached — compare against
/// BM_FullSystemCycle to see the observability tax when tracing is ON
/// (the OFF path is a null-pointer check and shows up as zero here).
void BM_FullSystemCycleTraced(benchmark::State& state) {
  Config cfg = apply_scheme(Config{}, Scheme::kAdaARI);
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  obs::PacketTracer tracer;
  sim.attach_tracer(&tracer);
  sim.run(500);  // Warm structures.
  for (auto _ : state) {
    sim.step();
  }
}
BENCHMARK(BM_FullSystemCycleTraced);

}  // namespace

BENCHMARK_MAIN();
