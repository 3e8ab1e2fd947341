// Domain-parallel stepping is an implementation detail, not a model change:
// every metric, telemetry series, trace, and diagnostic artifact must be
// bit-identical across thread counts — including warmup reset mid-run
// (run_with_warmup), fault campaigns, epoch-slack synchronization, serving
// runs, observer-forced serial fallback, and watchdog trip dumps.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "core/watchdog.hpp"
#include "obs/attr.hpp"
#include "obs/regress/baseline.hpp"
#include "obs/regress/compare.hpp"
#include "obs/regress/provenance.hpp"
#include "obs/trace.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

using Snapshot = std::vector<std::pair<std::string, double>>;

Config small_config() {
  Config cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_mcs = 4;
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 1500;
  return cfg;
}

/// Warmup + mid-run stats reset + measured run, exactly like the exec path.
Snapshot run_snapshot(Config cfg, Scheme scheme, const std::string& bench,
                      std::uint32_t threads) {
  cfg.threads = threads;
  const Config resolved = resolve_cell_config(cfg, scheme, bench);
  GpgpuSim sim(resolved, *find_benchmark(bench));
  sim.run_with_warmup();
  return obs::regress::snapshot_metrics(sim.collect());
}

TEST(DomainSim, BitIdenticalAcrossSchemesAndFabrics) {
  const Scheme schemes[] = {Scheme::kXYBaseline, Scheme::kXYARI,
                            Scheme::kAdaBaseline, Scheme::kAdaMultiPort,
                            Scheme::kAdaARI};
  for (const char* fabric : {"mesh", "torus", "cmesh"}) {
    for (const Scheme s : schemes) {
      Config cfg = small_config();
      cfg.fabric = fabric;
      cfg.cmesh_concentration = 2;
      const Snapshot serial = run_snapshot(cfg, s, "bfs", 1);
      for (const std::uint32_t t : {2u, 4u}) {
        SCOPED_TRACE(std::string(fabric) + "/" + scheme_name(s) +
                     " threads=" + std::to_string(t));
        EXPECT_EQ(serial, run_snapshot(cfg, s, "bfs", t));
        // Always-on stepping across domains: every router of every domain
        // steps every cycle, and the bytes still match.
        Config always_on = cfg;
        always_on.activity_driven = false;
        EXPECT_EQ(serial, run_snapshot(always_on, s, "bfs", t));
      }
    }
  }
}

TEST(DomainSim, FaultCampaignBitIdentical) {
  Config cfg = small_config();
  cfg.run_cycles = 2000;
  cfg.fault_corrupt_rate = 1e-3;
  cfg.fault_credit_loss_rate = 5e-4;
  cfg.fault_link_stall_rate = 1e-4;
  const Snapshot serial = run_snapshot(cfg, Scheme::kAdaARI, "bfs", 1);
  EXPECT_EQ(serial, run_snapshot(cfg, Scheme::kAdaARI, "bfs", 2));
  EXPECT_EQ(serial, run_snapshot(cfg, Scheme::kAdaARI, "bfs", 4));
}

TEST(DomainSim, ChipletSerdesBitIdentical) {
  // Multi-cycle serdes links on the domain boundary: cross-domain events
  // sit in a ring slot several cycles ahead, and delivery times still match
  // the serial schedule exactly.
  Config cfg = small_config();
  cfg.fabric = "chiplet";
  cfg.chiplets_x = 2;
  cfg.chiplets_y = 2;
  cfg.serdes_latency = 4;
  cfg.run_cycles = 2000;
  const Snapshot serial = run_snapshot(cfg, Scheme::kAdaARI, "hotspot", 1);
  EXPECT_EQ(serial, run_snapshot(cfg, Scheme::kAdaARI, "hotspot", 2));
  EXPECT_EQ(serial, run_snapshot(cfg, Scheme::kAdaARI, "hotspot", 4));
}

TEST(DomainSim, OpenLoopServingBitIdentical) {
  Config cfg = small_config();
  cfg.open_loop = true;
  cfg.pace_spec = "constant:0.05";
  cfg.admission_enabled = true;
  cfg.run_cycles = 2000;
  const Snapshot serial = run_snapshot(cfg, Scheme::kAdaARI, "bfs", 1);
  EXPECT_EQ(serial, run_snapshot(cfg, Scheme::kAdaARI, "bfs", 2));
  EXPECT_EQ(serial, run_snapshot(cfg, Scheme::kAdaARI, "bfs", 4));
}

TEST(DomainSim, TelemetrySeriesBitIdentical) {
  const auto series = [](std::uint32_t threads) {
    Config cfg = small_config();
    cfg.threads = threads;
    const Config resolved = resolve_cell_config(cfg, Scheme::kAdaARI, "bfs");
    GpgpuSim sim(resolved, *find_benchmark("bfs"));
    sim.enable_sampling(256);
    sim.run_with_warmup();
    sim.flush_sampler();
    return sim.sampler()->to_jsonl();
  };
  const std::string serial = series(1);
  EXPECT_EQ(serial, series(2));
  EXPECT_EQ(serial, series(4));
}

TEST(DomainSim, TracerForcesIdenticalSerialFallback) {
  // A per-event observer needs the globally-ordered serial path; the
  // fallback must produce the same metrics AND the same event stream as a
  // 1-thread run, event for event.
  const auto traced = [](std::uint32_t threads, Snapshot* snap) {
    Config cfg = small_config();
    cfg.threads = threads;
    const Config resolved = resolve_cell_config(cfg, Scheme::kAdaARI, "bfs");
    GpgpuSim sim(resolved, *find_benchmark("bfs"));
    obs::PacketTracer tracer;
    sim.attach_tracer(&tracer);
    sim.run_with_warmup();
    *snap = obs::regress::snapshot_metrics(sim.collect());
    return tracer.to_chrome_json();
  };
  Snapshot s1, s4;
  const std::string t1 = traced(1, &s1);
  const std::string t4 = traced(4, &s4);
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(t1, t4);
}

TEST(DomainSim, ObserverAttachAndDetachMidRunWithFlitsInFlight) {
  // Attaching observers after warmup moves a loaded network (flits and
  // credits on the links, outboxes pending, routers awake) onto one domain;
  // detaching halfway through the measured run moves it back. Neither move
  // may change a byte of the metrics, the trace or the attribution.
  struct Outputs {
    std::string metrics, trace, attr;
  };
  const auto observed = [](std::uint32_t threads) {
    Config cfg = small_config();
    cfg.threads = threads;
    const Config resolved = resolve_cell_config(cfg, Scheme::kAdaARI, "bfs");
    GpgpuSim sim(resolved, *find_benchmark("bfs"));
    obs::PacketTracer tracer;
    obs::LatencyAttributor attr;
    sim.run(resolved.warmup_cycles);
    sim.reset_stats();
    EXPECT_GT(sim.reply_net().buffered_flits_total(), 0u);
    sim.attach_tracer(&tracer);
    sim.attach_attributor(&attr);
    sim.run(resolved.run_cycles / 2);
    sim.attach_tracer(nullptr);
    sim.attach_attributor(nullptr);
    sim.run(resolved.run_cycles - resolved.run_cycles / 2);
    return Outputs{metrics_to_json(sim.collect()), tracer.to_chrome_json(),
                   attr.to_json()};
  };
  const Outputs serial = observed(1);
  const Outputs parallel = observed(4);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.attr, parallel.attr);
}

TEST(DomainSim, WatchdogTripDumpBitIdentical) {
  // Permanent port failures without recovery wedge the reply network; the
  // deadlock trip (kind, message, diagnostic dump) must not depend on the
  // thread count.
  const auto trip = [](std::uint32_t threads) {
    Config cfg = small_config();
    cfg.threads = threads;
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
  const std::string serial = trip(1);
  ASSERT_FALSE(serial.empty()) << "scenario no longer trips the watchdog";
  EXPECT_EQ(serial, trip(2));
  EXPECT_EQ(serial, trip(4));
}

TEST(DomainSim, ThreadsExcludedFromCanonicalConfig) {
  // Cache keys and golden baselines are keyed by the canonical config
  // string: thread count must not change it (it does not change results
  // either — that is the whole point).
  Config a = small_config();
  Config b = small_config();
  b.threads = 4;
  EXPECT_EQ(a.canonical_string(), b.canonical_string());
  EXPECT_EQ(obs::regress::config_hash_hex(a),
            obs::regress::config_hash_hex(b));
}

TEST(DomainSim, FourThreadRunPassesBaselineCheckAgainstSerialAnchor) {
  // The regression-sentinel contract end to end: anchor with 1 thread,
  // check with 4 — same entry identity (config hash), zero metric drift.
  Config cfg = small_config();
  const Config resolved = resolve_cell_config(cfg, Scheme::kAdaARI, "bfs");

  const auto entry_for = [&](std::uint32_t threads) {
    Config run_cfg = resolved;
    run_cfg.threads = threads;
    GpgpuSim sim(run_cfg, *find_benchmark("bfs"));
    sim.run_with_warmup();
    obs::regress::BaselineEntry e;
    e.provenance = obs::regress::collect_provenance();
    e.provenance.config_hash = obs::regress::config_hash_hex(run_cfg);
    e.provenance.scheme = scheme_name(Scheme::kAdaARI);
    e.provenance.benchmark = "bfs";
    e.provenance.fabric = "mesh";
    e.provenance.seed = run_cfg.seed;
    e.metrics = obs::regress::snapshot_metrics(sim.collect());
    return e;
  };
  const obs::regress::BaselineEntry anchored = entry_for(1);
  const obs::regress::BaselineEntry candidate = entry_for(4);
  EXPECT_EQ(anchored.provenance.config_hash,
            candidate.provenance.config_hash);
  const obs::regress::CompareReport report =
      obs::regress::compare_entries(anchored, candidate, {});
  EXPECT_FALSE(report.failed) << report.text();
}

}  // namespace
}  // namespace arinoc
