// Activity-driven simulation core: ActiveSet semantics and the sweep-level
// bit-identity contract — activity-gated stepping must produce byte-identical
// metrics, traces, telemetry, and counter dumps to always-on stepping for
// every scheme, with faults active, with observers attached, and across the
// warmup/measure reset boundary. A single diverging byte is a missed-wake or
// catch-up bug, never an acceptable approximation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/active_set.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "obs/trace.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

Config tiny_config() {
  Config cfg;
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 1500;
  return cfg;
}

// ---------------------------------------------------------------------------
// ActiveSet unit semantics.
// ---------------------------------------------------------------------------

TEST(ActiveSet, DuplicateWakesAbsorbed) {
  ActiveSet s;
  s.resize(8);
  s.wake(3);
  s.wake(3);
  s.wake(3);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(2));

  std::vector<std::size_t> drained;
  s.drain_sorted([&](std::size_t i) { drained.push_back(i); });
  EXPECT_EQ(drained, (std::vector<std::size_t>{3}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(ActiveSet, DrainVisitsAscendingRegardlessOfWakeOrder) {
  ActiveSet s;
  s.resize(10);
  for (std::size_t i : {7u, 2u, 9u, 0u, 5u}) s.wake(i);
  std::vector<std::size_t> drained;
  s.drain_sorted([&](std::size_t i) { drained.push_back(i); });
  EXPECT_EQ(drained, (std::vector<std::size_t>{0, 2, 5, 7, 9}));
}

TEST(ActiveSet, WakeDuringDrainLandsInNextDrain) {
  ActiveSet s;
  s.resize(4);
  s.wake(0);
  s.wake(1);
  std::vector<std::size_t> first;
  s.drain_sorted([&](std::size_t i) {
    first.push_back(i);
    s.wake(2);  // Peer wake mid-drain.
    s.wake(i);  // Self re-wake mid-drain.
  });
  // Neither the peer nor the self re-wakes may be re-entered this drain.
  EXPECT_EQ(first, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(s.pending(), 3u);  // {0, 1, 2} pending for the next drain.
  std::vector<std::size_t> second;
  s.drain_sorted([&](std::size_t i) { second.push_back(i); });
  EXPECT_EQ(second, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ActiveSet, ClearDropsPendingAndStampsStayConsistent) {
  ActiveSet s;
  s.resize(4);
  s.wake(1);
  s.clear();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.contains(1));
  s.wake(1);  // Must be wakeable again in the new epoch.
  EXPECT_EQ(s.pending(), 1u);
}

TEST(ActiveSet, ResizeResetsMembership) {
  ActiveSet s;
  s.resize(4);
  s.wake_all();
  EXPECT_EQ(s.pending(), 4u);
  s.resize(6);
  EXPECT_EQ(s.size(), 6u);
  EXPECT_EQ(s.pending(), 0u);
  s.wake_all();
  EXPECT_EQ(s.pending(), 6u);
}

// ---------------------------------------------------------------------------
// Bit-identity: activity-driven vs always-on stepping.
// ---------------------------------------------------------------------------

/// Every observable artefact of one instrumented run, byte-for-byte.
struct RunOutputs {
  std::string metrics;
  std::string trace;
  std::string samples;
  std::string counters;
};

RunOutputs run_instrumented(Config cfg, const std::string& bench,
                            bool activity, bool da2mesh = false) {
  cfg.activity_driven = activity;
  obs::PacketTracer tracer(1 << 15);
  GpgpuSim sim(cfg, *find_benchmark(bench), da2mesh);
  sim.attach_tracer(&tracer);
  sim.enable_sampling(250);
  sim.run_with_warmup();  // Crosses the stats-reset boundary.
  sim.flush_sampler();
  RunOutputs o;
  o.metrics = metrics_to_json(sim.collect());
  o.trace = tracer.to_chrome_json();
  o.samples = sim.sampler()->to_jsonl();
  o.counters = sim.counters().to_json();
  return o;
}

void expect_identical(const RunOutputs& on, const RunOutputs& off,
                      const std::string& what) {
  EXPECT_EQ(on.metrics, off.metrics) << what << ": metrics diverged";
  EXPECT_EQ(on.trace, off.trace) << what << ": trace diverged";
  EXPECT_EQ(on.samples, off.samples) << what << ": telemetry diverged";
  EXPECT_EQ(on.counters, off.counters) << what << ": counters diverged";
}

TEST(ActivityBitIdentity, AllSchemesWithObservers) {
  // Raw-Baseline is the one scheme whose reply NIs serialize packets over
  // the narrow node->NI link.
  for (Scheme s : {Scheme::kXYBaseline, Scheme::kAdaBaseline,
                   Scheme::kAdaMultiPort, Scheme::kAdaARI,
                   Scheme::kRawBaseline}) {
    const Config cfg = apply_scheme(tiny_config(), s);
    expect_identical(run_instrumented(cfg, "bfs", true),
                     run_instrumented(cfg, "bfs", false), scheme_name(s));
  }
}

TEST(ActivityBitIdentity, LowIntensityWorkload) {
  // A mostly-idle system is where activity gating skips the most work —
  // and where a missed wake or a broken catch-up replay shows up first.
  const Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  expect_identical(run_instrumented(cfg, "myocyte", true),
                   run_instrumented(cfg, "myocyte", false), "myocyte");
}

TEST(ActivityBitIdentity, FaultsAndRecoveryActive) {
  // Faults exercise the hardest wake edges: blocked links, corrupted-flit
  // drops, and retransmission timers re-injecting into sleeping NIs. The
  // fault RNG stream is drawn per cycle, so any stepping divergence also
  // desynchronizes the schedule and snowballs — a sharp detector.
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fault_corrupt_rate = 1e-3;
  cfg.fault_link_stall_rate = 1e-4;
  cfg.fault_credit_loss_rate = 1e-4;
  cfg.fault_port_fail_rate = 1e-5;
  expect_identical(run_instrumented(cfg, "bfs", true),
                   run_instrumented(cfg, "bfs", false), "fault campaign");
}

TEST(ActivityBitIdentity, Da2MeshOverlay) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  expect_identical(
      run_instrumented(cfg, "hotspot", true, /*da2mesh=*/true),
      run_instrumented(cfg, "hotspot", false, /*da2mesh=*/true), "da2mesh");
}

TEST(ActivityBitIdentity, SaturatedChipletTableRouted) {
  // 144 routers on up*/down* tables with serdes links, saturated by bfs:
  // most routers hold flits they cannot move, so blocked routers and
  // head-blocked NIs sleep and wake on credits, pops and freed VCs.
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fabric = "chiplet";
  cfg.chiplets_x = 2;
  cfg.chiplets_y = 2;
  cfg.serdes_latency = 4;
  expect_identical(run_instrumented(cfg, "bfs", true),
                   run_instrumented(cfg, "bfs", false), "chiplet 2x2");
}

TEST(ActivityBitIdentity, AtomicVcAllocation) {
  // Atomic VC allocation waits for an empty downstream VC, so a VA retry
  // depends on credits alone: the credit wake must not be missed.
  for (Scheme s : {Scheme::kAdaBaseline, Scheme::kAdaMultiPort,
                   Scheme::kAdaARI}) {
    Config cfg = apply_scheme(tiny_config(), s);
    cfg.non_atomic_vc = false;
    expect_identical(run_instrumented(cfg, "bfs", true),
                     run_instrumented(cfg, "bfs", false), scheme_name(s));
  }
}

TEST(ActivityBitIdentity, TwoPacketVcDepth) {
  // Two packets per VC: a VC holds a draining packet and a waiting one.
  for (Scheme s : {Scheme::kXYBaseline, Scheme::kAdaARI}) {
    Config cfg = apply_scheme(tiny_config(), s);
    cfg.vc_depth_pkts = 2;
    expect_identical(run_instrumented(cfg, "bfs", true),
                     run_instrumented(cfg, "bfs", false), scheme_name(s));
  }
}

TEST(ActivityBitIdentity, MidRunObserverReadsMatch) {
  // Deferred bookkeeping (issue stalls, MC queue occupancy of sleeping
  // components) must be flushed by run()'s sync point: a counter dump taken
  // between two run() calls reads the same values in both modes.
  auto dump_between_runs = [](bool activity) {
    Config cfg = apply_scheme(tiny_config(), Scheme::kAdaBaseline);
    cfg.activity_driven = activity;
    GpgpuSim sim(cfg, *find_benchmark("matrixMul"));
    sim.run(700);
    const std::string mid = sim.counters().to_json();
    sim.run(700);
    return mid + sim.counters().to_json();
  };
  EXPECT_EQ(dump_between_runs(true), dump_between_runs(false));
}

}  // namespace
}  // namespace arinoc
