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
  std::vector<bool> req(16, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.pick(req));
  }
}
BENCHMARK(BM_RoundRobinArbiter);

void BM_PriorityArbiter(benchmark::State& state) {
  PriorityArbiter arb(16);
  std::vector<bool> req(16, true);
  std::vector<std::uint32_t> key(16);
  for (std::size_t i = 0; i < 16; ++i) key[i] = i % 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.pick(req, key));
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
    dram.drain_completed();
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

/// A saturated 6x6 reply network cycle (router pipeline + links).
void BM_NetworkStep(benchmark::State& state) {
  const topo::Fabric mesh(topo::make_mesh_graph(6, 6, 8));
  NetworkParams np;
  np.routing = RoutingAlgo::kMinAdaptive;
  Network net(np, &mesh);
  std::vector<std::unique_ptr<EnhancedInjectNi>> nis;
  for (NodeId mc : mesh.mc_nodes()) {
    nis.push_back(std::make_unique<EnhancedInjectNi>(&net, mc, 36));
  }
  Xoshiro256 rng(3);
  Cycle t = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < nis.size(); ++i) {
      const NodeId dst =
          mesh.cc_nodes()[rng.next_below(mesh.cc_nodes().size())];
      const PacketId id = net.make_packet(PacketType::kReadReply,
                                          mesh.mc_nodes()[i], dst, 0, 0, t);
      if (!nis[i]->try_accept(id, t)) net.abandon_packet(id);
      nis[i]->cycle(t);
    }
    net.step(t);
    ++t;
    // Drain ejection buffers so the network stays live.
    for (NodeId n = 0; n < 36; ++n) {
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
BENCHMARK(BM_NetworkStep);

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
