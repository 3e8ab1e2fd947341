// Latency-attribution engine (obs/attr) and simulator self-profiler
// (obs/selfprof): exact additive decomposition of every traced packet's
// end-to-end latency, the top-k bottleneck report, the windowed congestion
// series + HTML dashboard, per-cell attribution artifacts from the exec
// runner, and the paper's headline observation — at saturation the MC
// reply-NI injection stage dominates reply latency under the baseline and
// is demoted once ARI widens the injection path.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "obs/attr.hpp"
#include "obs/regress/json.hpp"
#include "obs/selfprof.hpp"
#include "topo/graph.hpp"
#include "topo/layout.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

using obs::AttrStage;
using obs::LatencyAttributor;
using obs::regress::json_parse;

Config tiny_config() {
  Config cfg;
  cfg.warmup_cycles = 100;
  cfg.run_cycles = 600;
  return cfg;
}

/// The same normalized small-fabric shapes the benches sweep over
/// (bench::fabric_axis_points), inlined so the tests stay bench-free.
Config fabric_config(const std::string& fabric) {
  Config cfg = tiny_config();
  if (fabric == "mesh" || fabric == "torus") {
    cfg.fabric = fabric;
    cfg.mesh_width = cfg.mesh_height = 4;
    cfg.num_mcs = 4;
  } else if (fabric == "cmesh") {
    cfg.fabric = "cmesh";
    cfg.mesh_width = cfg.mesh_height = 2;
    cfg.cmesh_concentration = 4;
    cfg.num_mcs = 2;
  } else {
    ADD_FAILURE() << "unknown test fabric " << fabric;
  }
  return cfg;
}

/// Runs one attributed simulation and returns the attributor for checks.
/// The sim dies with this scope while the attributor lives on — report
/// generation afterwards exercises set_topology()'s copy semantics (a
/// borrowed graph pointer would dangle here).
void run_attributed(const Config& cfg, const std::string& benchmark,
                    LatencyAttributor& attr) {
  const BenchmarkTraits* traits = find_benchmark(benchmark);
  ASSERT_NE(traits, nullptr);
  GpgpuSim sim(cfg, *traits);
  sim.attach_attributor(&attr);
  sim.run_with_warmup();
}

// ---------------------------------------------------------------------------
// Conservation: the stage decomposition sums exactly to the measured e2e
// latency — for every scheme, on every fabric family the attributor covers.
// ---------------------------------------------------------------------------

TEST(AttrConservation, EverySchemeOnMeshTorusAndCmesh) {
  const std::vector<Scheme> schemes = {
      Scheme::kXYBaseline,   Scheme::kXYARI,       Scheme::kAdaBaseline,
      Scheme::kAdaMultiPort, Scheme::kAdaARI,      Scheme::kAccSupply,
      Scheme::kAccConsume,   Scheme::kAccBothNoPrio, Scheme::kRawBaseline,
  };
  for (const std::string fabric : {"mesh", "torus", "cmesh"}) {
    for (const Scheme s : schemes) {
      SCOPED_TRACE(std::string(scheme_name(s)) + " on " + fabric);
      const Config cfg = apply_scheme(fabric_config(fabric), s);
      LatencyAttributor attr;
      run_attributed(cfg, "hotspot", attr);

      EXPECT_GT(attr.delivered(), 0u);
      EXPECT_EQ(attr.conservation_violations(), 0u);
      // Per packet: the telescoped stages sum to delivered - origin.
      for (const obs::PacketAttr& p : attr.packets()) {
        ASSERT_EQ(p.stage_sum(), p.e2e()) << "packet " << p.pkt;
      }
      // Per network: stage totals sum to the e2e total.
      for (std::uint8_t net = 0; net < 2; ++net) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < obs::kNumAttrStages; ++i) {
          sum += attr.stage_total(net, static_cast<AttrStage>(i));
        }
        EXPECT_EQ(sum, attr.e2e_total(net)) << "net " << int(net);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Zero perturbation: attaching the attributor never changes simulation
// results, so an attribution-off run is byte-identical to one that never
// heard of the feature (only the report fields differ, and they are empty
// when attribution is off).
// ---------------------------------------------------------------------------

/// Clears the attribution summary fields so a with-attribution Metrics can
/// be byte-compared against a plain run.
Metrics scrub_attr(Metrics m) {
  m.attr_enabled = false;
  m.request_stage_share = {};
  m.reply_stage_share = {};
  m.attr_violations = 0;
  m.bottleneck.clear();
  return m;
}

TEST(Attr, AttributorDoesNotPerturbSimulationResults) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  const BenchmarkTraits* traits = find_benchmark("hotspot");
  ASSERT_NE(traits, nullptr);

  GpgpuSim plain(cfg, *traits);
  plain.run_with_warmup();
  const std::string plain_json = metrics_to_json(plain.collect());
  // Attribution off => no attr block in the report at all.
  EXPECT_EQ(plain_json.find("stage_share"), std::string::npos);
  EXPECT_EQ(plain_json.find("\"bottleneck\""), std::string::npos);

  GpgpuSim observed(cfg, *traits);
  LatencyAttributor attr;
  observed.attach_attributor(&attr);
  observed.run_with_warmup();
  const Metrics with_attr = observed.collect();
  EXPECT_TRUE(with_attr.attr_enabled);
  EXPECT_FALSE(with_attr.bottleneck.empty());
  EXPECT_EQ(metrics_to_json(scrub_attr(with_attr)), plain_json);
}

// ---------------------------------------------------------------------------
// The acceptance check from the paper: at saturation, the baseline's reply
// latency is dominated by source-NI queueing at the MCs (the narrow MC
// reply-NI injection path), and ARI demotes that stage.
// ---------------------------------------------------------------------------

TEST(Attr, BaselineBottleneckIsMcReplyNiQueueAndAriDemotesIt) {
  Config base;
  base.warmup_cycles = 2000;
  base.run_cycles = 8000;

  const auto reply_ni_share = [](const LatencyAttributor& attr) {
    const std::uint64_t e2e = attr.e2e_total(1);
    return e2e == 0 ? 0.0
                    : static_cast<double>(
                          attr.stage_total(1, AttrStage::kNiQueue)) /
                          static_cast<double>(e2e);
  };
  const auto reply_argmax = [](const LatencyAttributor& attr) {
    AttrStage best = AttrStage::kNiQueue;
    std::uint64_t best_cycles = 0;
    for (std::size_t i = 0; i < obs::kNumAttrStages; ++i) {
      const auto s = static_cast<AttrStage>(i);
      if (attr.stage_total(1, s) > best_cycles) {
        best_cycles = attr.stage_total(1, s);
        best = s;
      }
    }
    return best;
  };

  // Baseline at saturation (bfs is the memory-bound saturating workload).
  const Config base_cfg = apply_scheme(base, Scheme::kXYBaseline);
  const BenchmarkTraits* traits = find_benchmark("bfs");
  ASSERT_NE(traits, nullptr);
  GpgpuSim base_sim(base_cfg, *traits);
  LatencyAttributor base_attr;
  base_sim.attach_attributor(&base_attr);
  base_sim.run_with_warmup();

  // Reply-network latency is dominated by the MC-side NI injection queue.
  EXPECT_EQ(reply_argmax(base_attr), AttrStage::kNiQueue);
  const double base_share = reply_ni_share(base_attr);
  EXPECT_GT(base_share, 0.35);

  // And the top reply-network *location* is the NI queue at an MC node.
  const auto entries = base_attr.bottlenecks(64);
  const auto top_reply = std::find_if(
      entries.begin(), entries.end(),
      [](const obs::BottleneckEntry& e) { return e.net == 1; });
  ASSERT_NE(top_reply, entries.end());
  EXPECT_EQ(top_reply->stage, AttrStage::kNiQueue);
  EXPECT_TRUE(base_sim.fabric().is_mc(top_reply->node))
      << "top reply bottleneck at node " << top_reply->node;

  // Under ARI the same workload no longer queues at the MC reply NI.
  const Config ari_cfg = apply_scheme(base, Scheme::kAdaARI);
  GpgpuSim ari_sim(ari_cfg, *traits);
  LatencyAttributor ari_attr;
  ari_sim.attach_attributor(&ari_attr);
  ari_sim.run_with_warmup();

  const double ari_share = reply_ni_share(ari_attr);
  EXPECT_LT(ari_share, base_share * 0.5);
  EXPECT_NE(reply_argmax(ari_attr), AttrStage::kNiQueue);
}

// ---------------------------------------------------------------------------
// Fault interaction: retransmitted packets book their recovery time into the
// distinct retx stage, and conservation still holds under packet loss.
// ---------------------------------------------------------------------------

TEST(Attr, RetransmissionTimeLandsInRetxStageWithConservation) {
  Config cfg = tiny_config();
  cfg.run_cycles = 3000;
  cfg.fault_corrupt_rate = 1e-2;
  const Config run_cfg = apply_scheme(cfg, Scheme::kXYBaseline);
  LatencyAttributor attr;
  run_attributed(run_cfg, "bfs", attr);

  EXPECT_EQ(attr.conservation_violations(), 0u);
  const std::uint64_t retx = attr.stage_total(0, AttrStage::kRetx) +
                             attr.stage_total(1, AttrStage::kRetx);
  EXPECT_GT(retx, 0u);
  // At least one delivered packet carries a non-zero retx component that
  // still telescopes to its e2e.
  bool saw_retx_packet = false;
  for (const obs::PacketAttr& p : attr.packets()) {
    if (p.stage[static_cast<std::size_t>(AttrStage::kRetx)] > 0) {
      saw_retx_packet = true;
      EXPECT_EQ(p.stage_sum(), p.e2e());
    }
  }
  EXPECT_TRUE(saw_retx_packet);
}

// ---------------------------------------------------------------------------
// Report surfaces: JSON schema, windowed congestion series, bottleneck
// labels, HTML dashboard, node layout.
// ---------------------------------------------------------------------------

TEST(Attr, ToJsonIsValidAndCarriesSchema) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kXYBaseline);
  LatencyAttributor attr(128);
  run_attributed(cfg, "hotspot", attr);

  const std::string json = attr.to_json();
  EXPECT_TRUE(json_parse(json).ok) << json.substr(0, 200);
  EXPECT_NE(json.find("\"arinoc-attr-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"conservation\""), std::string::npos);
  EXPECT_NE(json.find("\"bottlenecks\""), std::string::npos);
  EXPECT_NE(json.find("\"ni_queue\""), std::string::npos);
}

TEST(Attr, WindowSeriesIsSortedAndWindowed) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kXYBaseline);
  LatencyAttributor attr(128);
  run_attributed(cfg, "hotspot", attr);
  EXPECT_EQ(attr.window_cycles(), 128u);

  const auto series = attr.window_series();
  ASSERT_FALSE(series.empty());
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i - 1].window, series[i].window);
  }
  for (const auto& cell : series) EXPECT_GT(cell.count, 0u);
}

TEST(Attr, HtmlDashboardEmbedsFabricAndSeries) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kXYBaseline);
  LatencyAttributor attr;
  run_attributed(cfg, "hotspot", attr);

  const BenchmarkTraits* traits = find_benchmark("hotspot");
  ASSERT_NE(traits, nullptr);
  GpgpuSim sim(cfg, *traits);
  const std::string html =
      obs::attr_html_document(attr, &sim.fabric().graph());
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("const SERIES"), std::string::npos);
  EXPECT_NE(html.find("arinoc"), std::string::npos);
}

TEST(Attr, NodeLayoutCoversEveryNode) {
  const Config cfg = fabric_config("cmesh");
  const BenchmarkTraits* traits = find_benchmark("hotspot");
  ASSERT_NE(traits, nullptr);
  GpgpuSim sim(cfg, *traits);
  const topo::FabricGraph& g = sim.fabric().graph();
  const auto pts = topo::node_layout(g);
  EXPECT_EQ(pts.size(), static_cast<std::size_t>(g.num_nodes()));
}

// ---------------------------------------------------------------------------
// Self-profiler: epochs tile the run, wake counts never exceed capacity
// (and reach it in every group under always-on stepping), and the JSONL
// stream is schema-tagged valid JSON per line.
// ---------------------------------------------------------------------------

TEST(SelfProfiler, EpochsTileRunAndJsonlIsValid) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kXYBaseline);
  const BenchmarkTraits* traits = find_benchmark("hotspot");
  ASSERT_NE(traits, nullptr);
  GpgpuSim sim(cfg, *traits);
  obs::SelfProfiler prof(256);
  sim.attach_self_profiler(&prof);
  sim.run_with_warmup();
  prof.finish(sim.now());

  const auto& epochs = prof.epochs();
  ASSERT_GE(epochs.size(), 2u);
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const auto& e = epochs[i];
    EXPECT_EQ(e.index, i);
    EXPECT_LT(e.start_cycle, e.end_cycle);
    if (i > 0) {
      EXPECT_EQ(e.start_cycle, epochs[i - 1].end_cycle);
    }
    for (std::size_t g = 0; g < obs::kNumProfGroups; ++g) {
      EXPECT_LE(e.awake[g], e.capacity[g]);
    }
  }
  // Activity-driven sleeping must be visible: router wakes below capacity.
  const std::size_t routers =
      static_cast<std::size_t>(obs::ProfGroup::kRouters);
  std::uint64_t awake = 0, capacity = 0;
  for (const auto& e : epochs) {
    awake += e.awake[routers];
    capacity += e.capacity[routers];
  }
  EXPECT_GT(capacity, 0u);
  EXPECT_LE(awake, capacity);

  // Always-on stepping wakes every member of every active set each cycle,
  // so the reference mode really steps every component.
  Config always_on = cfg;
  always_on.activity_driven = false;
  GpgpuSim full(always_on, *traits);
  obs::SelfProfiler full_prof(256);
  full.attach_self_profiler(&full_prof);
  full.run(600);
  full_prof.finish(full.now());
  for (const auto& e : full_prof.epochs()) {
    for (std::size_t g = 0; g < obs::kNumProfGroups; ++g) {
      EXPECT_GT(e.capacity[g], 0u) << "group " << g;
      EXPECT_EQ(e.awake[g], e.capacity[g]) << "group " << g;
    }
  }

  const std::string jsonl = prof.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(json_parse(line).ok) << line.substr(0, 200);
    EXPECT_NE(line.find("\"arinoc-selfprof-v1\""), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, epochs.size());
}

TEST(SelfProfiler, DoesNotPerturbSimulationResults) {
  const Config cfg = apply_scheme(tiny_config(), Scheme::kAdaARI);
  const BenchmarkTraits* traits = find_benchmark("hotspot");
  ASSERT_NE(traits, nullptr);

  GpgpuSim plain(cfg, *traits);
  plain.run_with_warmup();

  GpgpuSim profiled(cfg, *traits);
  obs::SelfProfiler prof(256);
  profiled.attach_self_profiler(&prof);
  profiled.run_with_warmup();
  prof.finish(profiled.now());

  EXPECT_EQ(metrics_to_json(profiled.collect()),
            metrics_to_json(plain.collect()));
}

// ---------------------------------------------------------------------------
// Exec integration: attribution cells write one report per cell, fill the
// CSV bottleneck column, and bypass the result cache.
// ---------------------------------------------------------------------------

TEST(SweepAttribution, WritesPerCellReportsAndBypassesCache) {
  const std::string root = testing::TempDir() + "/arinoc_attr_sweep";
  const std::string attr_dir = root + "/attr";
  const std::string cache_dir = root + "/cache";
  std::filesystem::remove_all(root);

  const auto run_once = [&] {
    exec::ExecOptions opts;
    opts.jobs = 1;
    opts.cache_enabled = true;
    opts.cache_dir = cache_dir;
    opts.attr_dir = attr_dir;
    return exec::ExperimentRunner(tiny_config(), opts)
        .run(grid({}, {Scheme::kXYBaseline}, {"hotspot"}));
  };

  const auto first = run_once();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].ok()) << first[0].error;
  EXPECT_FALSE(first[0].from_cache);
  ASSERT_FALSE(first[0].attr_path.empty());

  std::ifstream in(first[0].attr_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << first[0].attr_path;
  std::ostringstream body;
  body << in.rdbuf();
  EXPECT_TRUE(json_parse(body.str()).ok);
  EXPECT_NE(body.str().find("\"arinoc-attr-v1\""), std::string::npos);

  // The Metrics summary feeds the CSV bottleneck column.
  EXPECT_TRUE(first[0].metrics.attr_enabled);
  EXPECT_FALSE(first[0].metrics.bottleneck.empty());
  const std::string csv = to_csv(first);
  EXPECT_NE(csv.find(",bottleneck,"), std::string::npos);
  EXPECT_NE(csv.find(csv_escape(first[0].metrics.bottleneck)),
            std::string::npos);

  // Attribution cells must re-simulate: a cache hit would skip the report.
  const auto second = run_once();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_FALSE(second[0].from_cache);
  EXPECT_FALSE(second[0].attr_path.empty());

  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace arinoc
