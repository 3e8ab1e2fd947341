// Regression sentinel (obs/regress): the strict JSON parser, run
// provenance, the golden baseline store's byte-for-byte round trip, the
// noise-aware/direction-aware comparator's edge cases, trend ingestion of
// stamped bench artifacts, the selfprof JSONL schema, and the output-path
// fail-fast helpers shared by the CLI drivers.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/version.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "obs/regress/baseline.hpp"
#include "obs/regress/compare.hpp"
#include "obs/regress/json.hpp"
#include "obs/regress/provenance.hpp"
#include "obs/regress/trend.hpp"
#include "obs/selfprof.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

using namespace obs::regress;

// ---------------------------------------------------------------------------
// JSON parser: strict acceptance, source-text number preservation, and
// located errors.

TEST(RegressJson, ParsesNestedDocument) {
  const JsonParseResult r = json_parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": true, "e": null})");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.value.is_object());
  const JsonValue* a = r.value.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[1].as_number(), 2.5);
  const JsonValue* b = r.value.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string_or("c"), "x\"y");
  EXPECT_TRUE(r.value.find("d")->as_bool());
  EXPECT_TRUE(r.value.find("e")->is_null());
}

TEST(RegressJson, PreservesNumberSourceText) {
  // The golden store's byte-for-byte contract needs the parser to hand back
  // exactly the %.17g spelling the emitter wrote.
  const JsonParseResult r =
      json_parse(R"({"v": 1.2050000000000001, "i": 42})");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.find("v")->raw_number(), "1.2050000000000001");
  EXPECT_EQ(r.value.find("i")->raw_number(), "42");
}

TEST(RegressJson, RejectsMalformedWithLocation) {
  for (const char* bad :
       {"{", "{\"a\" 1}", "[1,]", "{\"a\": 1,}", "tru", "\"open",
        "{\"a\": 01}", "{} trailing", "{\"a\":}", "{'a':1}"}) {
    const JsonParseResult r = json_parse(bad);
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
    EXPECT_NE(r.error.find("line "), std::string::npos) << r.error;
  }
}

TEST(RegressJson, MembersPreserveOrder) {
  const JsonParseResult r = json_parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(r.ok);
  const auto& m = r.value.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "z");
  EXPECT_EQ(m[1].first, "a");
  EXPECT_EQ(m[2].first, "m");
}

// ---------------------------------------------------------------------------
// Provenance: deterministic identity half, volatile environment half.

TEST(RegressProvenance, ConfigHashIsStableAndConfigSensitive) {
  Config a = make_base_config();
  EXPECT_EQ(config_hash_hex(a), config_hash_hex(a));
  EXPECT_EQ(config_hash_hex(a).size(), 16u);
  Config b = a;
  b.seed += 1;
  EXPECT_NE(config_hash_hex(a), config_hash_hex(b));
  Config c = a;
  c.run_cycles += 1;
  EXPECT_NE(config_hash_hex(a), config_hash_hex(c));
}

TEST(RegressProvenance, DeterministicRenderingDropsEnvironment) {
  Provenance p = collect_provenance();
  p.config_hash = "0123456789abcdef";
  p.scheme = "Ada-ARI";
  p.benchmark = "bfs";
  p.fabric = "mesh";
  p.seed = 7;
  p.wall_s = 1.25;

  const std::string det = provenance_json(p, /*deterministic=*/true);
  EXPECT_EQ(det.find("host"), std::string::npos);
  EXPECT_EQ(det.find("unix_time_s"), std::string::npos);
  EXPECT_EQ(det.find("wall_s"), std::string::npos);
  // Two collections render identically in deterministic mode.
  Provenance q = collect_provenance();
  q.config_hash = p.config_hash;
  q.scheme = p.scheme;
  q.benchmark = p.benchmark;
  q.fabric = p.fabric;
  q.seed = p.seed;
  EXPECT_EQ(det, provenance_json(q, /*deterministic=*/true));

  const std::string full = provenance_json(p);
  EXPECT_NE(full.find("\"host\""), std::string::npos);
  EXPECT_NE(full.find("\"wall_s\""), std::string::npos);
  EXPECT_NE(full.find(kProvenanceSchema), std::string::npos);
  EXPECT_NE(full.find(kArinocVersion), std::string::npos);
  ASSERT_TRUE(json_parse(full).ok);
  ASSERT_TRUE(json_parse(det).ok);
}

// ---------------------------------------------------------------------------
// Baseline store: snapshot extraction, byte-exact round trip, error paths.

BaselineEntry sample_entry() {
  BaselineEntry e;
  e.provenance = collect_provenance();
  e.provenance.config_hash = "00000000deadbeef";
  e.provenance.scheme = "Ada-ARI";
  e.provenance.benchmark = "bfs";
  e.provenance.fabric = "mesh";
  e.provenance.seed = 42;
  e.metrics = {{"cycles", 2000.0},
               {"ipc", 1.2050000000000001},
               {"reply_latency_p99", 61.375},
               {"packets_lost", 0.0}};
  return e;
}

TEST(RegressBaseline, SnapshotTracksCanonicalMetricSet) {
  Metrics m;
  m.cycles = 1000;
  m.ipc = 1.5;
  m.packets_retransmitted = 8;
  m.packets_recovered = 6;
  const auto snap = snapshot_metrics(m);
  std::map<std::string, double> by_name(snap.begin(), snap.end());
  EXPECT_EQ(by_name.size(), snap.size()) << "duplicate metric names";
  EXPECT_DOUBLE_EQ(by_name.at("cycles"), 1000.0);
  EXPECT_DOUBLE_EQ(by_name.at("ipc"), 1.5);
  EXPECT_DOUBLE_EQ(by_name.at("recovery_rate"), 0.75);
  EXPECT_TRUE(by_name.count("reply_latency_p999"));
  EXPECT_TRUE(by_name.count("energy_total_nj"));
  EXPECT_TRUE(by_name.count("goodput"));
  // No attribution ran: the stage shares stay out of the snapshot.
  EXPECT_FALSE(by_name.count("attr_reply_ni_queue"));

  Metrics attr = m;
  attr.attr_enabled = true;
  const auto asnap = snapshot_metrics(attr);
  std::map<std::string, double> aby(asnap.begin(), asnap.end());
  EXPECT_TRUE(aby.count("attr_reply_ni_queue"));
  EXPECT_TRUE(aby.count("attr_request_retx"));
}

TEST(RegressBaseline, RecoveryRateIsPerfectWhenNothingRetransmitted) {
  Metrics m;
  const auto snap = snapshot_metrics(m);
  for (const auto& [name, v] : snap) {
    if (name == "recovery_rate") EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

TEST(RegressBaseline, JsonRoundTripIsByteExact) {
  const BaselineEntry e = sample_entry();
  const std::string once = baseline_entry_json(e);
  const BaselineEntry back = parse_baseline_entry(once, "test");
  EXPECT_EQ(back.provenance.config_hash, e.provenance.config_hash);
  EXPECT_EQ(back.provenance.scheme, e.provenance.scheme);
  EXPECT_EQ(back.provenance.seed, e.provenance.seed);
  ASSERT_EQ(back.metrics.size(), e.metrics.size());
  // Render the reparsed entry again: byte-identical (the golden contract).
  EXPECT_EQ(baseline_entry_json(back), once);
}

TEST(RegressBaseline, WriteLoadRoundTripOnDisk) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "arinoc_regress_store_test")
          .string();
  std::filesystem::remove_all(dir);
  const BaselineEntry e = sample_entry();
  const std::string path = write_baseline_entry(dir, e);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::path(path).filename().string(), e.file_name());
  const BaselineEntry loaded = load_baseline_entry(dir, e);
  EXPECT_EQ(baseline_entry_json(loaded), baseline_entry_json(e));
  std::filesystem::remove_all(dir);
}

TEST(RegressBaseline, MissingEntrySuggestsAnchoring) {
  const BaselineEntry e = sample_entry();
  try {
    load_baseline_entry("/nonexistent-store-dir", e);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("--baseline-write"),
              std::string::npos);
  }
}

TEST(RegressBaseline, ParseRejectsForeignAndMalformedNamingOrigin) {
  try {
    parse_baseline_entry("{\"schema\": \"other-v9\"}", "origin.json");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("origin.json"), std::string::npos);
    EXPECT_NE(std::string(err.what()).find(kBaselineSchema),
              std::string::npos);
  }
  EXPECT_THROW(parse_baseline_entry("{nope", "x"), std::invalid_argument);
  EXPECT_THROW(
      parse_baseline_entry("{\"schema\": \"arinoc-baseline-v1\"}", "x"),
      std::invalid_argument);
}

TEST(RegressBaseline, FileNameEmbedsIdentityAndSanitizes) {
  BaselineEntry e = sample_entry();
  e.provenance.benchmark = "traces/evil name";
  const std::string name = e.file_name();
  EXPECT_EQ(name.find('/'), std::string::npos);
  EXPECT_EQ(name.find(' '), std::string::npos);
  EXPECT_NE(name.find("00000000deadbeef"), std::string::npos);
  EXPECT_NE(name.find("Ada-ARI"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Comparator: tolerance boundary, directions, zero baselines, missing/new
// metrics, overrides.

using MetricVec = std::vector<std::pair<std::string, double>>;

TEST(RegressCompare, ExactlyAtToleranceBoundaryPasses) {
  // ipc tolerance is 1%: a 1.0% move is within, 1.0001x is out.
  const MetricVec base = {{"ipc", 1.0}};
  CompareReport at = compare_metrics(base, {{"ipc", 1.01}});
  EXPECT_FALSE(at.failed);
  EXPECT_EQ(at.deltas[0].verdict, Verdict::kOk);
  CompareReport past = compare_metrics(base, {{"ipc", 1.0101}});
  EXPECT_TRUE(past.failed);
}

TEST(RegressCompare, DirectionDistinguishesRegressionFromImprovement) {
  const MetricVec base = {{"ipc", 1.0}, {"reply_latency_p99", 100.0}};
  // IPC down + latency up: both regressions.
  CompareReport worse =
      compare_metrics(base, {{"ipc", 0.9}, {"reply_latency_p99", 120.0}});
  EXPECT_TRUE(worse.failed);
  EXPECT_EQ(worse.count(Verdict::kRegressed), 2u);
  // IPC up + latency down: improvements — still fail by default...
  CompareReport better =
      compare_metrics(base, {{"ipc", 1.1}, {"reply_latency_p99", 80.0}});
  EXPECT_TRUE(better.failed);
  EXPECT_EQ(better.count(Verdict::kImproved), 2u);
  EXPECT_EQ(better.count(Verdict::kRegressed), 0u);
  // ...and pass with --ignore-improvements.
  CompareOptions relaxed;
  relaxed.ignore_improvements = true;
  CompareReport ok = compare_metrics(
      base, {{"ipc", 1.1}, {"reply_latency_p99", 80.0}}, relaxed);
  EXPECT_FALSE(ok.failed);
  // A regression still fails even with improvements ignored.
  CompareReport mixed = compare_metrics(
      base, {{"ipc", 0.9}, {"reply_latency_p99", 80.0}}, relaxed);
  EXPECT_TRUE(mixed.failed);
}

TEST(RegressCompare, NeutralDirectionFailsEitherWay) {
  const MetricVec base = {{"offered_rate", 0.5}};
  EXPECT_TRUE(compare_metrics(base, {{"offered_rate", 0.55}}).failed);
  EXPECT_TRUE(compare_metrics(base, {{"offered_rate", 0.45}}).failed);
  EXPECT_FALSE(compare_metrics(base, {{"offered_rate", 0.502}}).failed);
}

TEST(RegressCompare, ZeroBaselineComparesAbsolutely) {
  // packets_lost anchored at 0 must stay ~0: the relative delta would be
  // undefined, so the comparison degrades to |candidate| <= tol.
  const MetricVec base = {{"packets_lost", 0.0}};
  EXPECT_FALSE(compare_metrics(base, {{"packets_lost", 0.0}}).failed);
  CompareReport lost = compare_metrics(base, {{"packets_lost", 3.0}});
  EXPECT_TRUE(lost.failed);
  EXPECT_DOUBLE_EQ(lost.deltas[0].rel, 3.0);
}

TEST(RegressCompare, MissingMetricAlwaysFailsNewNeverDoes) {
  const MetricVec base = {{"ipc", 1.0}, {"goodput", 0.4}};
  const MetricVec cand = {{"ipc", 1.0}, {"shiny_new_metric", 9.0}};
  const CompareReport r = compare_metrics(base, cand);
  EXPECT_TRUE(r.failed);  // goodput vanished.
  EXPECT_EQ(r.count(Verdict::kMissing), 1u);
  EXPECT_EQ(r.count(Verdict::kNew), 1u);
  // Only the new metric: never a failure.
  const CompareReport rn =
      compare_metrics({{"ipc", 1.0}}, {{"ipc", 1.0}, {"extra", 1.0}});
  EXPECT_FALSE(rn.failed);
}

TEST(RegressCompare, ToleranceOverridesApply) {
  const MetricVec base = {{"ipc", 1.0}, {"goodput", 1.0}};
  const MetricVec cand = {{"ipc", 1.05}, {"goodput", 1.05}};
  CompareOptions opts;
  opts.default_tol = 0.10;  // Everything within 10%.
  EXPECT_FALSE(compare_metrics(base, cand, opts).failed);
  opts.tol_override["ipc"] = 0.01;  // ...except ipc, pinned tight again.
  const CompareReport r = compare_metrics(base, cand, opts);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.count(Verdict::kImproved), 1u);
}

TEST(RegressCompare, EntryIdentityGateRejectsForeignAnchors) {
  BaselineEntry anchor = sample_entry();
  BaselineEntry cand = sample_entry();
  cand.provenance.config_hash = "ffffffffffffffff";
  const CompareReport r = compare_entries(anchor, cand);
  EXPECT_TRUE(r.failed);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_NE(r.deltas[0].name.find("config_hash"), std::string::npos);
  EXPECT_NE(r.deltas[0].name.find("re-anchor"), std::string::npos);

  BaselineEntry stale = sample_entry();
  stale.provenance.version = "0.0.1-ancient";
  EXPECT_TRUE(compare_entries(stale, sample_entry()).failed);
  EXPECT_FALSE(compare_entries(anchor, sample_entry()).failed);
}

TEST(RegressCompare, ReportTextNamesOffendingMetrics) {
  const CompareReport r =
      compare_metrics({{"ipc", 1.0}}, {{"ipc", 0.5}});
  const std::string text = r.text();
  EXPECT_NE(text.find("ipc"), std::string::npos);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("RESULT: REGRESSION"), std::string::npos);
  EXPECT_EQ(compare_exit_status(r), 7);
  const CompareReport ok = compare_metrics({{"ipc", 1.0}}, {{"ipc", 1.0}});
  EXPECT_EQ(compare_exit_status(ok), 0);
  EXPECT_NE(ok.text().find("RESULT: ok"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trend ingestion: stamped snapshots in, per-(cell, metric) series out.

std::string stamped_snapshot(const char* kind, double cps, bool quick) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"arinoc-bench-v1\",\n  \"kind\": \"" << kind
     << "\",\n  \"provenance\": {\"schema\": \"arinoc-provenance-v1\", "
        "\"version\": \""
     << kArinocVersion
     << "\", \"config_hash\": \"abcdef0123456789\", \"seed\": 1},\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"cells\": [\n"
     << "    {\"name\": \"saturated\", \"workload\": \"bfs\", \"scheme\": "
        "\"Ada-ARI\", \"activity_cps\": "
     << cps << ", \"bit_identical\": true},\n"
     << "    {\"name\": \"low-inj\", \"workload\": \"matrixMul\", "
        "\"scheme\": \"XY-Baseline\", \"activity_cps\": "
     << cps * 2 << ", \"bit_identical\": true}\n"
     << "  ],\n  \"geomean_speedup\": 3.5\n}\n";
  return os.str();
}

TEST(RegressTrend, BuildsSeriesAcrossSnapshots) {
  TrendBuilder trend;
  trend.add_snapshot_text("day1", stamped_snapshot("throughput", 100e3, false));
  trend.add_snapshot_text("day2", stamped_snapshot("throughput", 120e3, false));
  ASSERT_EQ(trend.snapshots().size(), 2u);

  const auto series = trend.series();
  ASSERT_FALSE(series.empty());
  // Find the saturated/Ada-ARI activity_cps series and check both points.
  bool found = false;
  for (const TrendSeries& s : series) {
    if (s.metric != "activity_cps") continue;
    if (s.cell.find("saturated") == std::string::npos) continue;
    found = true;
    ASSERT_EQ(s.points.size(), 2u);
    EXPECT_EQ(s.points[0].snapshot, 0u);
    EXPECT_DOUBLE_EQ(s.points[0].value, 100e3);
    EXPECT_DOUBLE_EQ(s.points[1].value, 120e3);
    // Identity fields shape the cell key, not the metric set.
    EXPECT_NE(s.cell.find("Ada-ARI"), std::string::npos);
  }
  EXPECT_TRUE(found);
  // Booleans trend as 0/1; top-level scalars trend under the bench kind.
  bool saw_bool = false, saw_top = false;
  for (const TrendSeries& s : series) {
    if (s.metric == "bit_identical") {
      saw_bool = true;
      EXPECT_DOUBLE_EQ(s.points[0].value, 1.0);
    }
    if (s.metric == "geomean_speedup") saw_top = true;
  }
  EXPECT_TRUE(saw_bool);
  EXPECT_TRUE(saw_top);
}

TEST(RegressTrend, QuickRunsTrendSeparatelyFromFullRuns) {
  TrendBuilder trend;
  trend.add_snapshot_text("full", stamped_snapshot("throughput", 100e3, false));
  trend.add_snapshot_text("quick", stamped_snapshot("throughput", 90e3, true));
  // The quick snapshot's rows land in "throughput[quick]" cells, so the two
  // run lengths never share a series (their numbers are incomparable).
  bool full_cell = false, quick_cell = false;
  for (const TrendSeries& s : trend.series()) {
    if (s.metric != "activity_cps") continue;
    if (s.cell.rfind("throughput[quick]", 0) == 0) {
      quick_cell = true;
      EXPECT_EQ(s.points.size(), 1u);
    } else if (s.cell.rfind("throughput", 0) == 0) {
      full_cell = true;
      EXPECT_EQ(s.points.size(), 1u);
    }
  }
  EXPECT_TRUE(full_cell);
  EXPECT_TRUE(quick_cell);
}

TEST(RegressTrend, RejectsUnstampedAndEmptyDocuments) {
  TrendBuilder trend;
  try {
    trend.add_snapshot_text("foreign", "{\"cells\": [{\"x\": 1}]}");
    FAIL() << "expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(kBenchSchema), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("foreign"), std::string::npos);
  }
  EXPECT_THROW(trend.add_snapshot_text("bad", "{not json"),
               std::invalid_argument);
  EXPECT_EQ(trend.snapshots().size(), 0u);
}

TEST(RegressTrend, JsonAndHtmlRender) {
  TrendBuilder trend;
  trend.add_snapshot_text("a", stamped_snapshot("throughput", 100e3, false));
  trend.add_snapshot_text("b", stamped_snapshot("throughput", 110e3, false));
  const std::string js = trend.to_json();
  const JsonParseResult parsed = json_parse(js);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("schema"), kTrendSchema);
  ASSERT_NE(parsed.value.find("snapshots"), nullptr);
  EXPECT_EQ(parsed.value.find("snapshots")->items().size(), 2u);

  const std::string html = trend_html_document(trend, "test trend");
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("polyline"), std::string::npos);
  EXPECT_NE(html.find("test trend"), std::string::npos);
  EXPECT_NE(html.find("activity_cps"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Self-profiler JSONL schema: every line the simulator emits must parse and
// carry the documented "arinoc-selfprof-v1" fields (CI validates the same
// schema on real artifacts; this pins it at the unit level).

TEST(RegressSchemas, SelfProfilerJsonlMatchesSchema) {
  Config cfg;
  cfg.warmup_cycles = 100;
  cfg.run_cycles = 600;
  const Config resolved = resolve_cell_config(cfg, Scheme::kAdaARI, "bfs");
  const BenchmarkTraits* traits = find_benchmark("bfs");
  ASSERT_NE(traits, nullptr);
  GpgpuSim sim(resolved, *traits);
  obs::SelfProfiler prof(256);
  sim.attach_self_profiler(&prof);
  sim.run_with_warmup();
  prof.finish(sim.now());

  const std::string jsonl = prof.to_jsonl();
  ASSERT_FALSE(jsonl.empty());
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n;
    const JsonParseResult r = json_parse(line);
    ASSERT_TRUE(r.ok) << "line " << n << ": " << r.error;
    EXPECT_EQ(r.value.string_or("schema"), "arinoc-selfprof-v1");
    for (const char* key :
         {"epoch", "start_cycle", "end_cycle", "cycles", "wall_ns_total"}) {
      const JsonValue* v = r.value.find(key);
      ASSERT_NE(v, nullptr) << "missing " << key;
      EXPECT_TRUE(v->is_number()) << key;
    }
    for (const char* obj : {"wall_ns", "awake", "capacity"}) {
      const JsonValue* v = r.value.find(obj);
      ASSERT_NE(v, nullptr) << "missing " << obj;
      ASSERT_TRUE(v->is_object()) << obj;
      EXPECT_FALSE(v->members().empty()) << obj;
      for (const auto& [name, field] : v->members()) {
        EXPECT_TRUE(field.is_number()) << obj << "." << name;
      }
    }
  }
  EXPECT_GT(n, 0u);
}

// ---------------------------------------------------------------------------
// metrics_to_json provenance embedding: absent by default (byte-identity
// with pre-sentinel output), leading member when supplied.

TEST(RegressSchemas, MetricsJsonProvenanceIsOptIn) {
  Metrics m;
  m.cycles = 10;
  m.ipc = 1.0;
  const std::string plain = metrics_to_json(m);
  EXPECT_EQ(plain, metrics_to_json(m, 2, ""));
  EXPECT_EQ(plain.find("provenance"), std::string::npos);

  Provenance p = collect_provenance();
  p.config_hash = "0123456789abcdef";
  const std::string stamped = metrics_to_json(m, 2, provenance_json(p));
  EXPECT_EQ(stamped.find("  \"provenance\": {"), 2u)
      << "provenance must be the leading member";
  ASSERT_TRUE(json_parse(stamped).ok);
  // Everything after the provenance member is unchanged.
  EXPECT_NE(stamped.find("\"cycles\": 10"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Output-path fail-fast helpers.

TEST(RegressPaths, ParentDirHelpers) {
  EXPECT_EQ(parent_dir_of("plain.json"), "");
  EXPECT_EQ(parent_dir_of("a/b/c.json"), "a/b");
  EXPECT_TRUE(parent_dir_exists("plain.json"));  // CWD always exists.
  EXPECT_TRUE(parent_dir_exists(
      (std::filesystem::temp_directory_path() / "x.json").string()));
  EXPECT_FALSE(parent_dir_exists("/no/such/dir/anywhere/x.json"));
}

// ---------------------------------------------------------------------------
// End-to-end: a real simulated cell anchors, re-anchors byte-identically,
// and a perturbed candidate regresses with the documented exit status.

TEST(RegressEndToEnd, AnchorCheckAndPerturbationDetection) {
  Config cfg;
  cfg.warmup_cycles = 100;
  cfg.run_cycles = 600;
  const Config resolved = resolve_cell_config(cfg, Scheme::kAdaARI, "bfs");
  const BenchmarkTraits* traits = find_benchmark("bfs");
  ASSERT_NE(traits, nullptr);

  auto run_cell = [&]() {
    GpgpuSim sim(resolved, *traits);
    sim.run_with_warmup();
    return sim.collect();
  };
  BaselineEntry entry;
  entry.provenance = collect_provenance();
  entry.provenance.config_hash = config_hash_hex(resolved);
  entry.provenance.scheme = scheme_name(Scheme::kAdaARI);
  entry.provenance.benchmark = "bfs";
  entry.provenance.fabric = "mesh";
  entry.provenance.seed = resolved.seed;
  entry.metrics = snapshot_metrics(run_cell());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "arinoc_regress_e2e_test")
          .string();
  std::filesystem::remove_all(dir);
  const std::string path = write_baseline_entry(dir, entry);

  // Re-run: the simulator is deterministic, so the rewritten entry is
  // byte-identical and the comparison is all-ok.
  BaselineEntry rerun = entry;
  rerun.metrics = snapshot_metrics(run_cell());
  EXPECT_EQ(baseline_entry_json(rerun), baseline_entry_json(entry));
  const BaselineEntry anchored = load_baseline_entry(dir, rerun);
  EXPECT_FALSE(compare_entries(anchored, rerun).failed);

  // Perturb one metric past tolerance: regression, exit status 7.
  BaselineEntry perturbed = rerun;
  for (auto& [name, v] : perturbed.metrics) {
    if (name == "ipc") v *= 0.7;
  }
  const CompareReport r = compare_entries(anchored, perturbed);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(compare_exit_status(r), 7);
  EXPECT_NE(r.text().find("ipc"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace arinoc
