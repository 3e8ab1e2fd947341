// Observability subsystem: log-scale histograms, the packet-lifecycle
// tracer, the telemetry sampler, and the counter dump — plus the two
// system-level guarantees: determinism (same seed => byte-identical trace)
// and zero perturbation (observers never change the simulation's results).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "exec/result_cache.hpp"
#include "obs/attr.hpp"
#include "obs/registry.hpp"
#include "obs/regress/json.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

using obs::regress::json_parse;

Config tiny_config() {
  Config cfg;
  cfg.warmup_cycles = 100;
  cfg.run_cycles = 500;
  return cfg;
}

TEST(JsonChecker, SanityOnKnownGoodAndBadInputs) {
  EXPECT_TRUE(json_parse(R"({"a":1,"b":[1,2.5e-3,"x"],"c":{"d":true}})").ok);
  EXPECT_TRUE(json_parse("[]").ok);
  EXPECT_FALSE(json_parse(R"({"a":1,})").ok);
  EXPECT_FALSE(json_parse(R"({"a":})").ok);
  EXPECT_FALSE(json_parse(R"({"a":1)").ok);
  EXPECT_FALSE(json_parse("{'a':1}").ok);
}

// ---------------------------------------------------------------------------
// LogHistogram (common/stats).
// ---------------------------------------------------------------------------

TEST(LogHistogram, EmptyHistogramReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(LogHistogram, ExactForRepeatedSingleValue) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.add(42.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  // Interpolation clamps to [min, max], so a degenerate distribution is
  // reported exactly.
  EXPECT_DOUBLE_EQ(h.p50(), 42.0);
  EXPECT_DOUBLE_EQ(h.p95(), 42.0);
  EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(LogHistogram, PercentilesWithinBucketResolution) {
  LogHistogram h;
  for (int i = 1; i <= 1024; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1024u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1024.0);
  // 4 sub-buckets per octave => worst-case relative error 2^(1/4)-1 ~ 19%.
  EXPECT_NEAR(h.p50(), 512.0, 512.0 * 0.2);
  EXPECT_NEAR(h.p99(), 1014.0, 1014.0 * 0.2);
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_LE(h.p99(), h.max());
}

TEST(LogHistogram, MergeMatchesSingleCombinedHistogram) {
  LogHistogram a, b, combined;
  for (int i = 1; i <= 500; ++i) {
    a.add(static_cast<double>(i));
    combined.add(static_cast<double>(i));
  }
  for (int i = 501; i <= 1000; ++i) {
    b.add(static_cast<double>(i));
    combined.add(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  EXPECT_DOUBLE_EQ(a.p99(), combined.p99());
}

TEST(LogHistogram, SubUnitValuesLandInUnderflowBucket) {
  LogHistogram h;
  h.add(0.25);
  EXPECT_EQ(h.count(), 1u);
  // The underflow bucket's range is clamped to [min, max] = [0.25, 0.25].
  EXPECT_DOUBLE_EQ(h.p50(), 0.25);
}

// ---------------------------------------------------------------------------
// PacketTracer.
// ---------------------------------------------------------------------------

TEST(PacketTracer, RingOverwritesOldestWhenFull) {
  obs::PacketTracer tracer(16);
  EXPECT_EQ(tracer.capacity(), 16u);
  for (Cycle t = 0; t < 40; ++t) {
    tracer.record(obs::TraceEventKind::kLinkHop, 1, t, 7,
                  PacketType::kReadReply, 3, 0);
  }
  EXPECT_EQ(tracer.size(), 16u);
  EXPECT_EQ(tracer.recorded(), 40u);
  EXPECT_EQ(tracer.dropped(), 24u);
  const auto evs = tracer.events();
  ASSERT_EQ(evs.size(), 16u);
  EXPECT_EQ(evs.front().cycle, 24u);  // Oldest surviving event.
  EXPECT_EQ(evs.back().cycle, 39u);
}

TEST(PacketTracer, ChromeJsonIsValidAndCarriesSpansAndInstants) {
  obs::PacketTracer tracer(64);
  tracer.record(obs::TraceEventKind::kNiEnqueue, 1, 10, 5,
                PacketType::kReadReply, 2, -1);
  tracer.record(obs::TraceEventKind::kInject, 1, 15, 5,
                PacketType::kReadReply, 2, 0);
  tracer.record(obs::TraceEventKind::kLinkHop, 1, 20, 5,
                PacketType::kReadReply, 3, 1);
  tracer.record(obs::TraceEventKind::kDeliver, 1, 35, 5,
                PacketType::kReadReply, 9, -1);
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(json_parse(json).ok) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // Complete span.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // Instant (hop).
  EXPECT_NE(json.find("\"dur\":25"), std::string::npos);    // 35 - 10.
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
}

TEST(PacketTracer, TailTextNamesTheLastEvents) {
  obs::PacketTracer tracer(64);
  tracer.record(obs::TraceEventKind::kNiEnqueue, 0, 1, 2,
                PacketType::kWriteRequest, 0, -1);
  tracer.record(obs::TraceEventKind::kInject, 0, 3, 2,
                PacketType::kWriteRequest, 0, 1);
  const std::string tail = tracer.tail_text(8);
  EXPECT_NE(tail.find("NiEnqueue"), std::string::npos);
  EXPECT_NE(tail.find("Inject"), std::string::npos);
  EXPECT_NE(tail.find("write_request"), std::string::npos);
}

TEST(PacketTracer, NodeIdsBeyondInt16SurviveEveryExporter) {
  // A 182x182 mesh has 33124 nodes; ids past 32767 must not wrap.
  obs::PacketTracer tracer(64);
  tracer.record(obs::TraceEventKind::kNiEnqueue, 1, 10, 5,
                PacketType::kReadReply, 40000, -1);
  tracer.record(obs::TraceEventKind::kDeliver, 1, 30, 5,
                PacketType::kReadReply, 40001, -1);
  const auto evs = tracer.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].node, 40000);
  EXPECT_EQ(evs[1].node, 40001);
  EXPECT_NE(tracer.tail_text(2).find("NiEnqueue node 40000"),
            std::string::npos);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":1,\"tid\":40000,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dest\":40001"), std::string::npos);
}

// ---------------------------------------------------------------------------
// System-level guarantees: determinism and zero perturbation.
// ---------------------------------------------------------------------------

TEST(TracerSim, SameSeedProducesByteIdenticalTraces) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    GpgpuSim sim(cfg, *find_benchmark("bfs"));
    obs::PacketTracer tracer;
    sim.attach_tracer(&tracer);
    sim.run(400);
    *out = tracer.to_chrome_json();
  }
  EXPECT_GT(first.size(), 100u);  // Actually traced something.
  EXPECT_EQ(first, second);
}

TEST(TracerSim, ObserversDoNotPerturbSimulationResults) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  std::string plain, observed;
  {
    GpgpuSim sim(cfg, *find_benchmark("hotspot"));
    sim.run_with_warmup();
    plain = metrics_to_json(sim.collect());
  }
  {
    GpgpuSim sim(cfg, *find_benchmark("hotspot"));
    obs::PacketTracer tracer;
    sim.attach_tracer(&tracer);
    sim.enable_sampling(100);
    sim.run_with_warmup();
    sim.flush_sampler();
    observed = metrics_to_json(sim.collect());
    EXPECT_GT(tracer.recorded(), 0u);
    EXPECT_FALSE(sim.sampler()->samples().empty());
  }
  EXPECT_EQ(plain, observed);
}

TEST(TracerSim, MetricsJsonCarriesTailLatencyPercentiles) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.run_with_warmup();
  const Metrics m = sim.collect();
  EXPECT_GT(m.reply_latency_p50, 0.0);
  EXPECT_LE(m.reply_latency_p50, m.reply_latency_p95);
  EXPECT_LE(m.reply_latency_p95, m.reply_latency_p99);
  const std::string json = metrics_to_json(m);
  EXPECT_TRUE(json_parse(json).ok);
  EXPECT_NE(json.find("\"reply_latency_p99\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_p99_read_reply\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetrySampler: interval math and exporters.
// ---------------------------------------------------------------------------

TEST(TelemetrySampler, ExactDivisionYieldsFullWindowsOnly) {
  GpgpuSim sim(apply_scheme(tiny_config(), Scheme::kAdaARI),
               *find_benchmark("bfs"));
  sim.enable_sampling(250);
  sim.run(1000);
  sim.flush_sampler();
  const auto& samples = sim.sampler()->samples();
  ASSERT_EQ(samples.size(), 4u);
  for (const auto& s : samples) EXPECT_EQ(s.window, 250u);
  EXPECT_EQ(samples.back().cycle, 1000u);
}

TEST(TelemetrySampler, TrailingPartialWindowIsFlushed) {
  GpgpuSim sim(apply_scheme(tiny_config(), Scheme::kAdaARI),
               *find_benchmark("bfs"));
  sim.enable_sampling(300);
  sim.run(1000);
  sim.flush_sampler();
  const auto& samples = sim.sampler()->samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.back().window, 100u);  // 1000 = 3*300 + 100.
  Cycle covered = 0;
  for (const auto& s : samples) covered += s.window;
  EXPECT_EQ(covered, 1000u);
}

TEST(TelemetrySampler, WarmupResetKeepsOnlyMeasuredWindows) {
  Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  cfg.warmup_cycles = 200;
  cfg.run_cycles = 400;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  sim.enable_sampling(150);
  sim.run_with_warmup();
  sim.flush_sampler();
  const auto& samples = sim.sampler()->samples();
  ASSERT_FALSE(samples.empty());
  // reset_stats() at the warmup boundary cleared earlier samples and
  // re-anchored, so the series covers exactly the measured cycles.
  Cycle covered = 0;
  for (const auto& s : samples) {
    EXPECT_GT(s.cycle, cfg.warmup_cycles);
    covered += s.window;
  }
  EXPECT_EQ(covered, cfg.run_cycles);
}

TEST(TelemetrySampler, JsonlExporterIsWellFormed) {
  GpgpuSim sim(apply_scheme(tiny_config(), Scheme::kAdaARI),
               *find_benchmark("bfs"));
  sim.enable_sampling(100);
  sim.run(500);
  const std::string jsonl = sim.sampler()->to_jsonl();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    if (!line.empty()) {
      ++lines;
      EXPECT_TRUE(json_parse(line).ok) << line;
      EXPECT_NE(line.find("\"ipc\":"), std::string::npos);
    }
    start = end + 1;
  }
  EXPECT_EQ(lines, sim.sampler()->samples().size());
}

// ---------------------------------------------------------------------------
// CounterDump.
// ---------------------------------------------------------------------------

TEST(CounterDump, SortsKeysAcrossKindsAndFormatsEachKind) {
  obs::CounterDump dump;
  LogHistogram lat;
  lat.add(10.0);
  lat.add(20.0);
  dump.add("c.latency", lat);
  dump.add("b.hits", std::uint64_t{7});
  dump.add("a.depth", 1.0 / 3.0);
  const std::string json = dump.to_json();
  EXPECT_TRUE(json_parse(json).ok) << json;
  char hist[256];
  std::snprintf(hist, sizeof(hist),
                "{\"count\":2,\"mean\":15,\"p50\":%.6g,\"p95\":%.6g,"
                "\"p99\":%.6g,\"max\":20}",
                lat.p50(), lat.p95(), lat.p99());
  EXPECT_EQ(json, std::string("{\n  \"a.depth\": 0.333333,"
                              "\n  \"b.hits\": 7,"
                              "\n  \"c.latency\": ") +
                      hist + "\n}");
}

TEST(CounterDump, SimDumpsEveryComponent) {
  GpgpuSim sim(apply_scheme(tiny_config(), Scheme::kAdaARI),
               *find_benchmark("bfs"));
  sim.run(300);
  const auto doc = json_parse(sim.counters().to_json());
  ASSERT_TRUE(doc.ok) << doc.error;
  EXPECT_GT(doc.value.members().size(), 20u);
  const auto* cycles = doc.value.find("sim.cycles");
  const auto* delivered = doc.value.find("reply.packets_delivered");
  ASSERT_NE(cycles, nullptr);
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(cycles->as_number(), 300.0);
  EXPECT_GT(delivered->as_number(), 0.0);
}

// ---------------------------------------------------------------------------
// Watchdog integration: trip dumps carry the trace tail + last sample.
// ---------------------------------------------------------------------------

TEST(WatchdogObs, DiagnosticDumpIncludesTraceTailAndLastSample) {
  GpgpuSim sim(apply_scheme(tiny_config(), Scheme::kAdaARI),
               *find_benchmark("bfs"));
  obs::PacketTracer tracer;
  sim.attach_tracer(&tracer);
  sim.enable_sampling(100);
  sim.run(500);
  const std::string dump = sim.diagnostic_dump("obs probe");
  EXPECT_NE(dump.find("last trace events:"), std::string::npos);
  EXPECT_NE(dump.find("last telemetry sample:"), std::string::npos);
  EXPECT_NE(dump.find("  cycle "), std::string::npos);  // Tail line format.
}

TEST(WatchdogObs, TripDumpCarriesTraceTailFromWedgedNetwork) {
  // Same wedge recipe as the resilience suite: permanent port failures
  // with recovery off deadlock the reply network.
  Config cfg = apply_scheme(tiny_config(), Scheme::kXYBaseline);
  cfg.fault_port_fail_rate = 2e-5;
  cfg.fault_recovery = false;
  cfg.watchdog_deadlock_window = 600;
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  obs::PacketTracer tracer;
  sim.attach_tracer(&tracer);
  bool tripped = false;
  try {
    sim.run(30000);
  } catch (const WatchdogTrip& trip) {
    tripped = true;
    EXPECT_NE(trip.dump().find("last trace events:"), std::string::npos);
  }
  EXPECT_TRUE(tripped);
}

// ---------------------------------------------------------------------------
// ObsHooks: the per-packet event stream the tracer and the attributor both
// consume, pinned on a fault campaign so every hook point fires.
// ---------------------------------------------------------------------------

struct CampaignArtifacts {
  std::string trace;  ///< to_chrome_json(), empty when not traced.
  std::string attr;   ///< LatencyAttributor::to_json(), empty when off.
  std::array<std::uint64_t, obs::kNumTraceEventKinds> kinds{};
};

/// 4x4 mesh, 4 MCs, bfs under Ada-ARI with 1% link corruption (the same
/// cell as `arinoc_sim --mesh 4 --mcs 4 --cycles 2000 --warmup 500
/// --fault-corrupt 0.01`).
CampaignArtifacts run_fault_campaign(bool trace, bool attribute) {
  Config base;
  base.mesh_width = base.mesh_height = 4;
  base.num_mcs = 4;
  base.warmup_cycles = 500;
  base.run_cycles = 2000;
  base.fault_corrupt_rate = 0.01;
  GpgpuSim sim(resolve_cell_config(base, Scheme::kAdaARI, "bfs"),
               *find_benchmark("bfs"));
  obs::PacketTracer tracer(1u << 21);
  obs::LatencyAttributor attr;
  if (trace) sim.attach_tracer(&tracer);
  if (attribute) sim.attach_attributor(&attr);
  sim.run_with_warmup();
  CampaignArtifacts out;
  if (trace) {
    EXPECT_EQ(tracer.dropped(), 0u);
    out.trace = tracer.to_chrome_json();
    for (const obs::TraceEvent& e : tracer.events()) {
      ++out.kinds[static_cast<std::size_t>(e.kind)];
    }
  }
  if (attribute) out.attr = attr.to_json();
  return out;
}

TEST(ObsHooks, FaultCampaignEventStreamIsPinned) {
  const CampaignArtifacts both = run_fault_campaign(true, true);
  for (std::size_t k = 0; k < obs::kNumTraceEventKinds; ++k) {
    EXPECT_GT(both.kinds[k], 0u)
        << obs::trace_event_kind_name(static_cast<obs::TraceEventKind>(k));
  }
  const auto count = [&](obs::TraceEventKind k) {
    return both.kinds[static_cast<std::size_t>(k)];
  };
  EXPECT_EQ(count(obs::TraceEventKind::kCorrupt), 419u);
  EXPECT_EQ(count(obs::TraceEventKind::kRetransmit), 389u);
  EXPECT_EQ(count(obs::TraceEventKind::kDrop), 390u);
  // The digests pin every hook's order and arguments: any moved, doubled or
  // dropped hook call changes one of them.
  EXPECT_EQ(exec::fnv1a64(both.trace), 0x36bb66215648adc9ull);
  EXPECT_EQ(exec::fnv1a64(both.attr), 0x8c6f488a6667cbb0ull);
  // Each observer sees the same stream whether or not the other is on.
  EXPECT_EQ(run_fault_campaign(true, false).trace, both.trace);
  EXPECT_EQ(run_fault_campaign(false, true).attr, both.attr);
}

/// FNV-1a-64 of the counter-dump JSON and of the telemetry JSONL (interval
/// 200) of one 4x4, 4-MC Ada-ARI cell, as `arinoc_sim --counters-out` and
/// `--sample-out` write them.
std::pair<std::uint64_t, std::uint64_t> counter_and_telemetry_digests(
    Config base, const std::string& bench, bool da2mesh) {
  base.mesh_width = base.mesh_height = 4;
  base.num_mcs = 4;
  base.warmup_cycles = 500;
  base.run_cycles = 2000;
  GpgpuSim sim(resolve_cell_config(base, Scheme::kAdaARI, bench),
               *find_benchmark(bench), da2mesh);
  sim.enable_sampling(200);
  sim.run_with_warmup();
  sim.flush_sampler();
  return {exec::fnv1a64(sim.counters().to_json() + "\n"),
          exec::fnv1a64(sim.sampler()->to_jsonl())};
}

TEST(ObsHooks, CounterDumpAndTelemetryArePinned) {
  // Closed loop under 1% corruption: retransmit counters, every histogram.
  Config faulty;
  faulty.fault_corrupt_rate = 0.01;
  const auto fault = counter_and_telemetry_digests(faulty, "bfs", false);
  EXPECT_EQ(fault.first, 0x9941e7ae2a3c33d3ull);
  EXPECT_EQ(fault.second, 0xe534594ec8ef65cdull);
  // Open loop with admission: client, adm.*, degrade.* and e2e histograms.
  Config serving;
  serving.open_loop = true;
  serving.pace_spec = "flash:0.03,at=500,len=3000,mult=20";
  serving.pace_scale = 1.5;
  serving.admission_enabled = true;
  const auto open = counter_and_telemetry_digests(serving, "bfs", false);
  EXPECT_EQ(open.first, 0xac95f9b1eec58586ull);
  EXPECT_EQ(open.second, 0x790ccd579e628facull);
  // DA2mesh overlay: the dump has no reply.* entries.
  const auto overlay = counter_and_telemetry_digests(Config{}, "hotspot", true);
  EXPECT_EQ(overlay.first, 0xd8cfd29d6318841eull);
  EXPECT_EQ(overlay.second, 0x3f3ac9174a46dfcbull);
}

// ---------------------------------------------------------------------------
// Result cache: the new percentile fields survive a round-trip.
// ---------------------------------------------------------------------------

TEST(ResultCacheObs, PercentileFieldsRoundTripLosslessly) {
  Metrics m;
  m.ipc = 1.25;
  m.request_latency_p50 = 10.125;
  m.request_latency_p95 = 20.25;
  m.request_latency_p99 = 30.5;
  m.reply_latency_p50 = 11.0625;
  m.reply_latency_p95 = 22.125;
  m.reply_latency_p99 = 33.25;
  for (std::size_t i = 0; i < m.latency_p99_by_type.size(); ++i) {
    m.latency_p99_by_type[i] = 100.5 + static_cast<double>(i);
  }
  const auto back = exec::deserialize_metrics(exec::serialize_metrics(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->request_latency_p50, m.request_latency_p50);
  EXPECT_EQ(back->request_latency_p95, m.request_latency_p95);
  EXPECT_EQ(back->request_latency_p99, m.request_latency_p99);
  EXPECT_EQ(back->reply_latency_p50, m.reply_latency_p50);
  EXPECT_EQ(back->reply_latency_p95, m.reply_latency_p95);
  EXPECT_EQ(back->reply_latency_p99, m.reply_latency_p99);
  for (std::size_t i = 0; i < m.latency_p99_by_type.size(); ++i) {
    EXPECT_EQ(back->latency_p99_by_type[i], m.latency_p99_by_type[i]);
  }
}

}  // namespace
}  // namespace arinoc
