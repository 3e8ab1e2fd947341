// Activity-driven simulation core: ActiveSet semantics and the sweep-level
// bit-identity contract — activity-gated stepping must produce byte-identical
// metrics, traces, telemetry, and counter dumps to always-on stepping for
// every scheme and generated fabric, with faults active, in open-loop
// serving, with observers attached (also mid-run), across the warmup/measure
// reset boundary, and in a watchdog trip dump. A single diverging byte is a
// missed-wake or catch-up bug, never an acceptable approximation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/active_set.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "core/watchdog.hpp"
#include "obs/attr.hpp"
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

/// tiny_config on a 4x4 fabric with 4 MCs (cmesh: 2 endpoints per hub).
Config small_config(const char* fabric = "mesh") {
  Config cfg = tiny_config();
  cfg.fabric = fabric;
  cfg.mesh_width = cfg.mesh_height = 4;
  cfg.num_mcs = 4;
  cfg.cmesh_concentration = 2;
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
  // The five Fig. 11 schemes on the mesh, torus and cmesh, plus
  // Raw-Baseline, the one scheme whose reply NIs serialize packets over the
  // narrow node->NI link. Every run also compares the telemetry series.
  const Scheme fig11[] = {Scheme::kXYBaseline, Scheme::kXYARI,
                          Scheme::kAdaBaseline, Scheme::kAdaMultiPort,
                          Scheme::kAdaARI};
  for (Scheme s : fig11) {
    const Config cfg = apply_scheme(tiny_config(), s);
    expect_identical(run_instrumented(cfg, "bfs", true),
                     run_instrumented(cfg, "bfs", false), scheme_name(s));
  }
  const Config raw = apply_scheme(tiny_config(), Scheme::kRawBaseline);
  expect_identical(run_instrumented(raw, "bfs", true),
                   run_instrumented(raw, "bfs", false), "Raw-Baseline");
  for (const char* fabric : {"torus", "cmesh"}) {
    for (Scheme s : fig11) {
      const Config cfg = apply_scheme(small_config(fabric), s);
      expect_identical(run_instrumented(cfg, "bfs", true),
                       run_instrumented(cfg, "bfs", false),
                       std::string(fabric) + "/" + scheme_name(s));
    }
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
  // hotspot concentrates the load on a few MCs, so the serdes links
  // between dies carry most of it.
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.fabric = "chiplet";
  cfg.chiplets_x = 2;
  cfg.chiplets_y = 2;
  cfg.serdes_latency = 4;
  for (const char* bench : {"bfs", "hotspot"}) {
    expect_identical(run_instrumented(cfg, bench, true),
                     run_instrumented(cfg, bench, false),
                     std::string("chiplet 2x2 ") + bench);
  }
}

TEST(ActivityBitIdentity, OpenLoopServingWithAdmission) {
  // Open-loop clients replace the cores, and a flash crowd makes the
  // admission gates defer requests: both sleep and wake on other edges than
  // a core does.
  Config cfg = apply_scheme(small_config(), Scheme::kAdaARI);
  cfg.open_loop = true;
  cfg.pace_spec = "flash:0.03,at=400,len=1000,mult=20";
  cfg.admission_enabled = true;
  expect_identical(run_instrumented(cfg, "bfs", true),
                   run_instrumented(cfg, "bfs", false), "open loop");
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

TEST(ActivityBitIdentity, ObserversAttachedAfterWarmupAndDetachedMidRun) {
  // Attaching the tracer and the attributor to a loaded network (flits and
  // credits on the links, routers asleep and awake) and detaching them
  // halfway through the measured run changes no byte of the metrics, the
  // trace or the attribution.
  struct Outputs {
    std::string metrics, trace, attr;
  };
  const auto observed = [](bool activity) {
    Config cfg = apply_scheme(small_config(), Scheme::kAdaARI);
    cfg.activity_driven = activity;
    GpgpuSim sim(cfg, *find_benchmark("bfs"));
    obs::PacketTracer tracer;
    obs::LatencyAttributor attr;
    sim.run(cfg.warmup_cycles);
    sim.reset_stats();
    EXPECT_GT(sim.reply_net().buffered_flits_total(), 0u);
    sim.attach_tracer(&tracer);
    sim.attach_attributor(&attr);
    sim.run(cfg.run_cycles / 2);
    sim.attach_tracer(nullptr);
    sim.attach_attributor(nullptr);
    sim.run(cfg.run_cycles - cfg.run_cycles / 2);
    return Outputs{metrics_to_json(sim.collect()), tracer.to_chrome_json(),
                   attr.to_json()};
  };
  const Outputs on = observed(true);
  const Outputs off = observed(false);
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.trace, off.trace);
  EXPECT_EQ(on.attr, off.attr);
}

TEST(ActivityBitIdentity, WatchdogTripDump) {
  // Permanent port failures without recovery wedge the reply network; the
  // deadlock trip (kind, message, diagnostic dump) reads the state of
  // sleeping components and must not depend on the stepping mode.
  const auto trip = [](bool activity) {
    Config cfg = small_config();
    cfg.activity_driven = activity;
    cfg.warmup_cycles = 0;
    cfg.run_cycles = 6000;
    cfg.fault_port_fail_rate = 0.002;
    cfg.fault_recovery = false;
    cfg.watchdog_deadlock_window = 400;
    const Config resolved = resolve_cell_config(cfg, Scheme::kAdaARI, "bfs");
    GpgpuSim sim(resolved, *find_benchmark("bfs"));
    std::string text;
    try {
      sim.run(cfg.run_cycles);
    } catch (const WatchdogTrip& t) {
      text = std::string(watchdog_trip_name(t.kind())) + "\n" + t.what() +
             "\n" + t.dump();
    }
    return text;
  };
  const std::string on = trip(true);
  ASSERT_FALSE(on.empty()) << "scenario no longer trips the watchdog";
  EXPECT_EQ(on, trip(false));
}

}  // namespace
}  // namespace arinoc
