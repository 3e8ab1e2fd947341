// Extension knobs: L1 bypass (cache-bypassing traffic increase) and
// cross-warp MSHR merge control (WarpPool-like coalescing).
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "exec/runner.hpp"

namespace arinoc {
namespace {

Config tiny_config() {
  Config cfg;
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 1500;
  return cfg;
}

// Runs `cells` over tiny_config() on the exec runner; every cell must
// succeed. Metrics come back in cell order.
std::vector<Metrics> run_cells(const std::vector<exec::CellSpec>& cells) {
  std::vector<Metrics> out;
  for (const auto& r : exec::ExperimentRunner(tiny_config()).run(cells)) {
    EXPECT_TRUE(r.ok()) << r.point << ": " << r.error;
    out.push_back(r.metrics);
  }
  return out;
}

std::uint64_t read_requests(const Metrics& m) {
  return m.packets_by_type[static_cast<int>(PacketType::kReadRequest)];
}

TEST(Extensions, L1BypassIncreasesTrafficPerInstruction) {
  // A dense high-locality workload so reuse (not compulsory misses)
  // dominates inside the short test window.
  BenchmarkTraits traits = *find_benchmark("matrixMul");
  traits.mem_ratio = 0.4;
  traits.locality = 0.8;
  auto run = [&](bool bypass) {
    Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
    cfg.l1_bypass = bypass;
    GpgpuSim sim(cfg, traits);
    sim.run_with_warmup();
    return sim.collect();
  };
  const Metrics with_l1 = run(false);
  const Metrics bypass = run(true);
  // Without an L1 every load travels the network: the *intensity*
  // (requests per issued warp instruction) must rise even when the system
  // is throughput-saturated.
  const double i0 = static_cast<double>(read_requests(with_l1)) /
                    static_cast<double>(with_l1.warp_instructions);
  const double i1 = static_cast<double>(read_requests(bypass)) /
                    static_cast<double>(bypass.warp_instructions);
  EXPECT_GT(i1, i0 * 1.1);
  EXPECT_DOUBLE_EQ(bypass.l1_hit_rate, 0.0);
  EXPECT_GT(with_l1.l1_hit_rate, 0.1);
}

TEST(Extensions, DisablingCrossWarpMergeIncreasesTraffic) {
  // bfs has a large shared region: many warps miss on the same lines. The
  // short window makes the raw counts sensitive to reply-priority timing
  // (switch arbitration reads the priority latched at VC allocation), so
  // allow 2% slack rather than a strict ordering of near-equal counts.
  const auto m = run_cells(
      {{"merged", Scheme::kAdaARI, "bfs", nullptr},
       {"split", Scheme::kAdaARI, "bfs",
        [](Config& c) { c.cross_warp_merge = false; }}});
  const Metrics& merged = m[0];
  const Metrics& split = m[1];
  EXPECT_GE(static_cast<double>(read_requests(split)),
            static_cast<double>(read_requests(merged)) * 0.98);
}

TEST(Extensions, BypassStillCorrectlyWakesWarps) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.l1_bypass = true;
  GpgpuSim sim(cfg, *find_benchmark("hotspot"));
  sim.run_with_warmup();
  // Forward progress (warps unblock) despite no L1 fills.
  EXPECT_GT(sim.collect().ipc, 0.05);
}

TEST(Extensions, NoMergeStillCorrectlyWakesWarps) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.cross_warp_merge = false;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run_with_warmup();
  EXPECT_GT(sim.collect().ipc, 0.05);
}

TEST(Extensions, RequestSideAriIsHarmlessNegativeControl) {
  const auto m = run_cells(
      {{"reply-only", Scheme::kAdaARI, "bfs", nullptr},
       {"both", Scheme::kAdaARI, "bfs",
        [](Config& c) { c.request_side_ari = true; }}});
  const Metrics& reply_only = m[0];
  const Metrics& both = m[1];
  // The request side is not the bottleneck: adding ARI there changes IPC
  // by only a few percent either way.
  EXPECT_NEAR(both.ipc / reply_only.ipc, 1.0, 0.10);
}

TEST(Extensions, DeeperRouterPipelineRaisesLatency) {
  const auto m = run_cells(
      {{"fast", Scheme::kAdaBaseline, "matrixMul", nullptr},
       {"slow", Scheme::kAdaBaseline, "matrixMul",
        [](Config& c) { c.router_pipeline_stages = 3; }}});
  const Metrics& fast = m[0];
  const Metrics& slow = m[1];
  // matrixMul is uncongested: latency reflects per-hop cost directly.
  EXPECT_GT(slow.reply_latency, fast.reply_latency * 1.3);
}

TEST(Extensions, PipelineStagesValidated) {
  Config cfg;
  cfg.router_pipeline_stages = 0;
  EXPECT_NE(cfg.validate(), "");
  cfg.router_pipeline_stages = 5;
  EXPECT_NE(cfg.validate(), "");
  cfg.router_pipeline_stages = 3;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Extensions, CtaBarriersKeepWarpsInLockstep) {
  // With barriers every 50 instructions, no warp of a CTA may get more
  // than one epoch ahead of its siblings.
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.barrier_interval = 50;
  cfg.warps_per_cta = 3;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run(2000);
  // Warps of CTA 0 on core 0: epochs within 1 of each other — verified
  // indirectly: the system still makes progress (no barrier deadlock)...
  EXPECT_GT(sim.collect().ipc, 0.05);
}

TEST(Extensions, CtaBarriersReduceIpcSlightly) {
  // Synchronization can only remove scheduling freedom.
  const auto m = run_cells({{"free", Scheme::kAdaARI, "bfs", nullptr},
                            {"barriered", Scheme::kAdaARI, "bfs",
                             [](Config& c) {
                               c.barrier_interval = 20;
                               c.warps_per_cta = 8;
                             }}});
  const Metrics& free_run = m[0];
  const Metrics& barriered = m[1];
  EXPECT_LE(barriered.ipc, free_run.ipc * 1.02);
  EXPECT_GT(barriered.ipc, 0.05);  // But never deadlocks.
}

TEST(Extensions, McPlacementChangesTopologyInsideSim) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaBaseline);
  cfg.mc_placement = McPlacement::kTopBottom;
  GpgpuSim sim(cfg, *find_benchmark("hotspot"));
  for (NodeId mc : sim.fabric().mc_nodes()) {
    EXPECT_TRUE(sim.fabric().y_of(mc) == 0 ||
                sim.fabric().y_of(mc) == cfg.mesh_height - 1);
  }
  sim.run_with_warmup();
  EXPECT_GT(sim.collect().ipc, 0.05);
}

}  // namespace
}  // namespace arinoc
