// Domain-parallel stepping is deleted: each network steps in one serial
// loop. These cases used to run the same cells at 1, 2 and 4 threads and
// require bit-identical output. They now pin the FNV-1a-64 digests that the
// domain-stepped build produced for those cells (the same at every thread
// count), so the serial loop stays held to the bytes of the code it
// replaced: every metric, telemetry series, trace, attribution and watchdog
// dump, with warmup reset mid-run, fault campaigns, serdes links, serving
// runs and observers attached mid-run. A digest moves only with an intended
// model change; re-pin it then from the failure message.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "core/watchdog.hpp"
#include "exec/result_cache.hpp"
#include "obs/attr.hpp"
#include "obs/regress/baseline.hpp"
#include "obs/regress/provenance.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

Config small_config() {
  Config cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_mcs = 4;
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 1500;
  return cfg;
}

std::string digest(const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(exec::fnv1a64(bytes)));
  return hex;
}

/// The baseline snapshot, one `name=%.17g` line per metric.
std::string snapshot_digest(const Metrics& m) {
  std::string text;
  char value[32];
  for (const auto& [name, v] : obs::regress::snapshot_metrics(m)) {
    std::snprintf(value, sizeof value, "=%.17g\n", v);
    text += name + value;
  }
  return digest(text);
}

/// Warmup + mid-run stats reset + measured run, exactly like the exec path.
std::string run_digest(const Config& cfg, Scheme scheme,
                       const std::string& bench) {
  const Config resolved = resolve_cell_config(cfg, scheme, bench);
  GpgpuSim sim(resolved, *find_benchmark(bench));
  sim.run_with_warmup();
  return snapshot_digest(sim.collect());
}

TEST(DomainSim, BitIdenticalAcrossSchemesAndFabrics) {
  struct Cell {
    const char* fabric;
    Scheme scheme;
    const char* digest;
  };
  const Cell cells[] = {
      {"mesh", Scheme::kXYBaseline, "4a7e532079443198"},
      {"mesh", Scheme::kXYARI, "67d60a7dff282549"},
      {"mesh", Scheme::kAdaBaseline, "89beecd84844ce03"},
      {"mesh", Scheme::kAdaMultiPort, "c4f8a8349cad9031"},
      {"mesh", Scheme::kAdaARI, "fd3e05af46b5507b"},
      {"torus", Scheme::kXYBaseline, "ebaf9df31273a84e"},
      {"torus", Scheme::kXYARI, "1ae76d8f32e6fe08"},
      {"torus", Scheme::kAdaBaseline, "6a4eb4b1126520d4"},
      {"torus", Scheme::kAdaMultiPort, "b21afde1da23170f"},
      {"torus", Scheme::kAdaARI, "8ceb4f103b2564d2"},
      {"cmesh", Scheme::kXYBaseline, "a6632e6bcd3fdd63"},
      {"cmesh", Scheme::kXYARI, "78fc998fc9c41dc3"},
      {"cmesh", Scheme::kAdaBaseline, "a815066a4f4dd47e"},
      {"cmesh", Scheme::kAdaMultiPort, "6741da2781ef77e6"},
      {"cmesh", Scheme::kAdaARI, "b7b9084223cb5947"},
  };
  for (const Cell& c : cells) {
    SCOPED_TRACE(std::string(c.fabric) + "/" + scheme_name(c.scheme));
    Config cfg = small_config();
    cfg.fabric = c.fabric;
    cfg.cmesh_concentration = 2;
    EXPECT_EQ(run_digest(cfg, c.scheme, "bfs"), c.digest);
    // Always-on stepping: every router steps every cycle, and the bytes
    // still match.
    cfg.activity_driven = false;
    EXPECT_EQ(run_digest(cfg, c.scheme, "bfs"), c.digest);
  }
}

TEST(DomainSim, FaultCampaignBitIdentical) {
  Config cfg = small_config();
  cfg.run_cycles = 2000;
  cfg.fault_corrupt_rate = 1e-3;
  cfg.fault_credit_loss_rate = 5e-4;
  cfg.fault_link_stall_rate = 1e-4;
  EXPECT_EQ(run_digest(cfg, Scheme::kAdaARI, "bfs"), "4e36c232436bef8c");
}

TEST(DomainSim, ChipletSerdesBitIdentical) {
  // Multi-cycle serdes links: events sit in a ring slot several cycles
  // ahead, and delivery times match the old schedule exactly.
  Config cfg = small_config();
  cfg.fabric = "chiplet";
  cfg.chiplets_x = 2;
  cfg.chiplets_y = 2;
  cfg.serdes_latency = 4;
  cfg.run_cycles = 2000;
  EXPECT_EQ(run_digest(cfg, Scheme::kAdaARI, "hotspot"), "0eab91a2f49b8874");
}

TEST(DomainSim, SaturatedChipletTableRoutedBitIdentical) {
  // 144 routers on up*/down* tables, saturated by bfs: blocked routers
  // sleep, and head-blocked NIs are woken by the router that frees them.
  Config cfg;
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 1500;
  cfg.fabric = "chiplet";
  cfg.chiplets_x = 2;
  cfg.chiplets_y = 2;
  cfg.serdes_latency = 4;
  EXPECT_EQ(run_digest(cfg, Scheme::kAdaARI, "bfs"), "ecf1b21c60dcc3d2");
  cfg.activity_driven = false;
  EXPECT_EQ(run_digest(cfg, Scheme::kAdaARI, "bfs"), "ecf1b21c60dcc3d2");
}

TEST(DomainSim, OpenLoopServingBitIdentical) {
  Config cfg = small_config();
  cfg.open_loop = true;
  cfg.pace_spec = "constant:0.05";
  cfg.admission_enabled = true;
  cfg.run_cycles = 2000;
  EXPECT_EQ(run_digest(cfg, Scheme::kAdaARI, "bfs"), "9f256bf12261a94c");
}

TEST(DomainSim, TelemetrySeriesBitIdentical) {
  const Config resolved =
      resolve_cell_config(small_config(), Scheme::kAdaARI, "bfs");
  GpgpuSim sim(resolved, *find_benchmark("bfs"));
  sim.enable_sampling(256);
  sim.run_with_warmup();
  sim.flush_sampler();
  EXPECT_EQ(digest(sim.sampler()->to_jsonl()), "fc82c447b1384a0c");
}

TEST(DomainSim, TracerForcesIdenticalSerialFallback) {
  // A per-event observer once forced the run onto one domain; the traced
  // run still has the untraced metrics (the mesh Ada-ARI pin above) and
  // the same event stream, event for event.
  const Config resolved =
      resolve_cell_config(small_config(), Scheme::kAdaARI, "bfs");
  GpgpuSim sim(resolved, *find_benchmark("bfs"));
  obs::PacketTracer tracer;
  sim.attach_tracer(&tracer);
  sim.run_with_warmup();
  EXPECT_EQ(snapshot_digest(sim.collect()), "fd3e05af46b5507b");
  EXPECT_EQ(digest(tracer.to_chrome_json()), "db0b6c7203862ed2");
}

TEST(DomainSim, ObserverAttachAndDetachMidRunWithFlitsInFlight) {
  // Observers attached after warmup to a loaded network (flits and credits
  // on the links, routers awake) and detached halfway through the measured
  // run: the metrics, the trace and the attribution keep their bytes.
  const Config resolved =
      resolve_cell_config(small_config(), Scheme::kAdaARI, "bfs");
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
  EXPECT_EQ(digest(metrics_to_json(sim.collect())), "e05297c2a8c40968");
  EXPECT_EQ(digest(tracer.to_chrome_json()), "336a6e7c7436d07a");
  EXPECT_EQ(digest(attr.to_json()), "48b03cb41786812c");
}

TEST(DomainSim, WatchdogTripDumpBitIdentical) {
  // Permanent port failures without recovery wedge the reply network; the
  // deadlock trip (kind, message, diagnostic dump) keeps its bytes.
  Config cfg = small_config();
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
  ASSERT_FALSE(text.empty()) << "scenario no longer trips the watchdog";
  EXPECT_EQ(digest(text), "16e936a5f6df60b9");
}

TEST(DomainSim, ThreadsExcludedFromCanonicalConfig) {
  // Cache keys and golden baselines are keyed by the canonical config
  // string: the thread count is not part of it, so entries anchored while
  // it was a free knob keep their identity now that it is fixed at 1.
  Config a = small_config();
  Config b = small_config();
  b.threads = 4;
  EXPECT_EQ(a.canonical_string(), b.canonical_string());
  EXPECT_EQ(obs::regress::config_hash_hex(a),
            obs::regress::config_hash_hex(b));
}

}  // namespace
}  // namespace arinoc
