// Execution engine: parallel_for, deterministic parallel sweeps, the on-disk
// result cache, and per-cell crash isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "core/metric_fields.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "exec/options.hpp"
#include "exec/result_cache.hpp"
#include "exec/runner.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

// Small grid cells: 4x4 mesh keeps each simulation to a few milliseconds.
Config tiny() {
  Config cfg;
  cfg.mesh_width = cfg.mesh_height = 4;
  cfg.num_mcs = 4;
  cfg.warmup_cycles = 100;
  cfg.run_cycles = 400;
  return cfg;
}

// A fresh, empty per-test cache directory under the gtest temp dir.
std::filesystem::path fresh_cache_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  EXPECT_GE(exec::hardware_threads(), 1u);
  for (const unsigned jobs : {0u, 1u, 4u}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{200}}) {
      std::vector<std::atomic<int>> hits(n);
      exec::parallel_for(jobs, n, [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "jobs=" << jobs << " n=" << n << " index " << i;
      }
    }
  }
}

TEST(ParallelFor, RunsTasksConcurrently) {
  // All four tasks must be in flight at once to release each other; a serial
  // loop would leave `started` stuck below 4 until the deadline.
  std::atomic<int> started{0};
  std::atomic<bool> all_running{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  exec::parallel_for(4, 4, [&](std::size_t) {
    started.fetch_add(1);
    while (started.load() < 4 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == 4) all_running.store(true);
  });
  EXPECT_TRUE(all_running.load());
}

TEST(ExecOptions, CountsAreStrictNonNegativeIntegers) {
  // Flags: a sign, trailing text, leading blanks and overflow are all
  // rejected instead of wrapping or truncating.
  const auto parse = [](std::vector<std::string> args, exec::ExecOptions* o) {
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    int argc = static_cast<int>(argv.size());
    return exec::parse_exec_flags(argc, argv.data(), *o);
  };
  exec::ExecOptions o;
  EXPECT_TRUE(parse({"--jobs", "0", "--sample-interval", "250"}, &o));
  EXPECT_EQ(o.jobs, 0u);
  EXPECT_EQ(o.sample_interval, 250u);
  for (const char* bad : {"-1", "4x", "abc", "", " 4", "+4", "4294967296"}) {
    SCOPED_TRACE(std::string("value '") + bad + "'");
    EXPECT_FALSE(parse({"--jobs", bad}, &o));
  }
  EXPECT_FALSE(parse({"--sample-interval", "-5"}, &o));

  // Environment: the same check, and a bad value exits 2 naming the
  // variable.
  EXPECT_EXIT(
      {
        ::setenv("ARINOC_JOBS", "4x", 1);
        exec::options_from_env(false);
      },
      ::testing::ExitedWithCode(2), "ARINOC_JOBS");
  EXPECT_EXIT(
      {
        ::setenv("ARINOC_SAMPLE_INTERVAL", "-5", 1);
        exec::options_from_env(false);
      },
      ::testing::ExitedWithCode(2), "ARINOC_SAMPLE_INTERVAL");
}

TEST(ExecOptions, ThreadsIsAnUnknownOption) {
  // One simulation steps serially: --threads is not an exec flag, so
  // parse_exec_flags leaves it for the caller, and every binary rejects it
  // through unknown_option (exit 2).
  std::vector<std::string> args = {"prog", "--threads", "4", "--jobs", "2"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  exec::ExecOptions o;
  ASSERT_TRUE(exec::parse_exec_flags(argc, argv.data(), o));
  EXPECT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--threads");
  EXPECT_EQ(o.jobs, 2u);
  EXPECT_EQ(o.threads, 1u);

  // The exec-flags-only binaries (sweep_csv).
  EXPECT_EXIT(exec::require_exec_flags(argc, argv.data()),
              ::testing::ExitedWithCode(2),
              "unknown option '--threads' \\(supported: --jobs N, ");
  // The binaries with flags of their own (arinoc_sim, arinoc_paper, the
  // ext_* benches) name those first.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(exec::unknown_option("--threads", "--figure <id>|all"), 2);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "unknown option '--threads' (supported: --figure <id>|all, "
            "--jobs N, --no-cache, --cache-dir D, --sample-interval N, "
            "--telemetry-dir D, --attr-dir D)\n");
}

TEST(ExecOptions, ConfigRejectsThreadsOtherThanOne) {
  // `threads` stays a Config/ExecOptions field with 1 as its only value;
  // anything else is a located configuration error, never ignored.
  for (const std::uint32_t t : {0u, 4u}) {
    Config cfg = tiny();
    cfg.threads = t;
    const std::string err = cfg.validate();
    EXPECT_NE(err.find("threads must be 1 (got " + std::to_string(t) + ")"),
              std::string::npos)
        << err;
    EXPECT_THROW({ GpgpuSim sim(cfg, *find_benchmark("bfs")); },
                 std::invalid_argument);
  }
  EXPECT_EQ(tiny().validate(), "");

  // Through the runner every cell is a config error with exit status 2.
  exec::ExecOptions opts;
  opts.jobs = 1;
  opts.threads = 4;
  const auto cells = exec::ExperimentRunner(tiny(), opts)
                         .run(grid({}, {Scheme::kAdaARI}, {"bfs"}));
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].error_kind, "config");
  EXPECT_EQ(cells[0].exit_status, 2);
  EXPECT_NE(cells[0].error.find("threads must be 1"), std::string::npos);
}

TEST(Partition, SimRejectsMoreThreadsThanNodes) {
  // More threads than the 16 nodes of a 4x4 mesh was the old fail-fast
  // case; it stays a throw (the CLI maps it to exit code 2).
  Config cfg = tiny();
  cfg.threads = 17;
  EXPECT_THROW(GpgpuSim(cfg, *find_benchmark("bfs")), std::invalid_argument);
}

TEST(ExecSeed, DerivationIsDeterministicAndBenchmarkSensitive) {
  const auto s1 = derive_cell_seed(1, "bfs");
  EXPECT_EQ(s1, derive_cell_seed(1, "bfs"));
  EXPECT_NE(s1, derive_cell_seed(1, "kmeans"));
  EXPECT_NE(s1, derive_cell_seed(2, "bfs"));
}

TEST(ExecRunner, ResolveAppliesSchemeTweakAndDerivedSeed) {
  Config base = tiny();
  base.routing = RoutingAlgo::kMinAdaptive;
  exec::ExperimentRunner runner(base);
  const Config cfg = runner.resolve({"p", Scheme::kAdaARI, "bfs",
                                     [](Config& c) {
                                       // Tweaks run after the scheme preset:
                                       // keep the ARI knobs within Eq.(2).
                                       c.num_vcs = 2;
                                       c.injection_speedup = 2;
                                       c.split_queues = 2;
                                     }});
  EXPECT_EQ(cfg.num_vcs, 2u);
  EXPECT_EQ(cfg.seed, derive_cell_seed(base.seed, "bfs"));
  // Same benchmark => same seed across schemes: comparisons stay seed-paired.
  // The tweak sees the scheme preset already applied (XY routing).
  bool tweaked = false;
  const Config other =
      runner.resolve({"p", Scheme::kXYBaseline, "bfs", [&](Config& c) {
                        tweaked = true;
                        EXPECT_EQ(c.routing, RoutingAlgo::kXY);
                      }});
  EXPECT_TRUE(tweaked);
  EXPECT_EQ(cfg.seed, other.seed);
}

TEST(ExecDeterminism, CsvByteIdenticalAcrossJobCounts) {
  const std::vector<SweepPoint> points = {
      {"S=1", [](Config& c) { c.injection_speedup = 1; }},
      {"S=2", [](Config& c) { c.injection_speedup = 2; }}};
  const std::vector<Scheme> schemes = {Scheme::kAdaBaseline,
                                       Scheme::kAdaARI};
  const std::vector<std::string> benches = {"bfs", "kmeans", "hotspot",
                                            "nn"};
  auto sweep_with = [&](unsigned jobs) {
    exec::ExecOptions opts;
    opts.jobs = jobs;
    return exec::ExperimentRunner(tiny(), opts)
        .run(grid(points, schemes, benches));
  };
  const auto serial = sweep_with(1);
  const auto parallel = sweep_with(8);
  ASSERT_EQ(serial.size(), 16u);  // >= 16-cell grid, per the acceptance bar.
  for (const auto& c : serial) EXPECT_TRUE(c.ok()) << c.error;
  EXPECT_EQ(to_csv(serial), to_csv(parallel));
}

TEST(ExecCache, HitMissAndInvalidateOnConfigChange) {
  const auto dir = fresh_cache_dir("arinoc_exec_cache");
  exec::ExecOptions opts;
  opts.jobs = 2;
  opts.cache_enabled = true;
  opts.cache_dir = dir.string();

  const std::vector<exec::CellSpec> cells = {
      {"base", Scheme::kAdaBaseline, "bfs", nullptr},
      {"base", Scheme::kAdaBaseline, "kmeans", nullptr},
      {"base", Scheme::kAdaARI, "bfs", nullptr},
      {"base", Scheme::kAdaARI, "kmeans", nullptr}};

  exec::ExperimentRunner cold(tiny(), opts);
  const auto first = cold.run(cells);
  EXPECT_EQ(cold.stats().simulated, 4u);
  EXPECT_EQ(cold.stats().cache_hits, 0u);

  exec::ExperimentRunner warm(tiny(), opts);
  const auto second = warm.run(cells);
  EXPECT_EQ(warm.stats().simulated, 0u);
  EXPECT_EQ(warm.stats().cache_hits, 4u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(second[i].from_cache);
    // Hexfloat serialization makes hits lossless: bit-identical metrics.
    EXPECT_EQ(exec::serialize_metrics(second[i].metrics),
              exec::serialize_metrics(first[i].metrics));
  }

  // Any key-material change (here: run_cycles) must miss.
  Config longer = tiny();
  longer.run_cycles += 100;
  exec::ExperimentRunner invalidated(longer, opts);
  invalidated.run(cells);
  EXPECT_EQ(invalidated.stats().simulated, 4u);
  EXPECT_EQ(invalidated.stats().cache_hits, 0u);

  std::filesystem::remove_all(dir);
}

TEST(ExecCache, DuplicateCellRunsOnceUnderItsOwnLabel) {
  const auto dir = fresh_cache_dir("arinoc_exec_dedup");
  // The same cell twice under different point labels, around a distinct one.
  const std::vector<exec::CellSpec> cells = {
      {"first", Scheme::kAdaARI, "bfs", nullptr},
      {"other", Scheme::kAdaBaseline, "bfs", nullptr},
      {"again", Scheme::kAdaARI, "bfs", nullptr}};
  // Cache off, then on (cold, then warm): the duplicate never simulates.
  struct Pass {
    bool cache;
    std::size_t simulated, cache_hits;
  };
  for (const Pass& pass : {Pass{false, 2, 0}, Pass{true, 2, 0},
                           Pass{true, 0, 2}}) {
    SCOPED_TRACE(pass.cache ? "cache on" : "cache off");
    exec::ExecOptions opts;
    opts.jobs = 2;
    opts.cache_enabled = pass.cache;
    opts.cache_dir = dir.string();
    exec::ExperimentRunner runner(tiny(), opts);
    const auto results = runner.run(cells);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(runner.stats().simulated, pass.simulated);
    EXPECT_EQ(runner.stats().cache_hits, pass.cache_hits);
    for (const auto& r : results) EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(exec::serialize_metrics(results[2].metrics),
              exec::serialize_metrics(results[0].metrics));
    EXPECT_NE(exec::serialize_metrics(results[1].metrics),
              exec::serialize_metrics(results[0].metrics));
    EXPECT_EQ(results[0].point, "first");
    EXPECT_EQ(results[1].point, "other");
    EXPECT_EQ(results[2].point, "again");
    EXPECT_EQ(results[2].scheme, "Ada-ARI");
    EXPECT_EQ(results[2].benchmark, "bfs");
  }

  // Sampling cells each write their own series, so each one simulates.
  exec::ExecOptions sampled;
  sampled.sample_interval = 100;
  sampled.telemetry_dir = (dir / "telemetry").string();
  exec::ExperimentRunner runner(tiny(), sampled);
  const auto results = runner.run(cells);
  EXPECT_EQ(runner.stats().simulated, 3u);
  EXPECT_NE(results[0].telemetry_path, results[2].telemetry_path);
  EXPECT_EQ(exec::serialize_metrics(results[2].metrics),
            exec::serialize_metrics(results[0].metrics));

  std::filesystem::remove_all(dir);
}

TEST(ExecIsolation, WatchdogTripIsStructuredPerCellError) {
  // watchdog_livelock_age = 1 trips at the first poll with any packet in
  // flight — a deterministic stand-in for a real livelock.
  const std::vector<exec::CellSpec> cells = {
      {"healthy", Scheme::kAdaARI, "bfs", nullptr},
      {"tripped", Scheme::kAdaARI, "bfs",
       [](Config& c) { c.watchdog_livelock_age = 1; }},
      {"healthy", Scheme::kAdaBaseline, "bfs", nullptr}};
  exec::ExecOptions opts;
  opts.jobs = 2;
  exec::ExperimentRunner runner(tiny(), opts);
  const auto results = runner.run(cells);
  ASSERT_EQ(results.size(), 3u);

  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error_kind, "livelock");
  EXPECT_EQ(results[1].exit_status, 4);
  EXPECT_FALSE(results[1].error_detail.empty());  // Watchdog dump.
  EXPECT_EQ(runner.stats().errors, 1u);

  // The siblings were not taken down with it.
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_TRUE(results[2].ok()) << results[2].error;
  EXPECT_GT(results[0].metrics.ipc, 0.0);
}

TEST(ExecIsolation, InvalidConfigIsACellErrorNotAnAbort) {
  const std::vector<exec::CellSpec> cells = {
      {"bad", Scheme::kAdaARI, "bfs", [](Config& c) { c.num_vcs = 0; }},
      {"good", Scheme::kAdaARI, "bfs", nullptr}};
  exec::ExperimentRunner runner(tiny());
  const auto results = runner.run(cells);
  EXPECT_EQ(results[0].error_kind, "config");
  EXPECT_EQ(results[0].exit_status, 2);
  EXPECT_TRUE(results[1].ok()) << results[1].error;
}

TEST(ExecIsolation, TooManyVcsIsAConfigErrorExitTwo) {
  exec::ExperimentRunner runner(tiny());
  const auto results = runner.run(
      {{"wide", Scheme::kAdaARI, "bfs", [](Config& c) { c.num_vcs = 65; }}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].error_kind, "config");
  EXPECT_EQ(results[0].exit_status, 2);
  EXPECT_NE(results[0].error.find("num_vcs=65"), std::string::npos)
      << results[0].error;
}

TEST(ExecIsolation, SweepRendersCellErrorsInCsv) {
  exec::ExecOptions opts;
  opts.jobs = 2;
  const auto cells =
      exec::ExperimentRunner(tiny(), opts)
          .run(grid({{"ok", nullptr},
                     {"trip", [](Config& c) { c.watchdog_livelock_age = 1; }}},
                    {Scheme::kAdaARI}, {"bfs"}));
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells[0].ok());
  EXPECT_EQ(cells[1].error_kind, "livelock");
  const std::string csv = to_csv(cells);
  EXPECT_NE(csv.find("livelock"), std::string::npos);
}

TEST(ResultCache, MetricsSerializationRoundTripsLosslessly) {
  // Every stored row of the field table gets a distinct value: doubles not
  // exact in binary, counts past 2^53, attribution on and a label with a
  // space and a quote.
  Metrics m;
  std::uint64_t k = 0;
  for_each_metric(m, [&k](std::string_view, auto&& field, unsigned flags) {
    if (!(flags & kMetricStored)) return;
    using T = std::remove_cvref_t<decltype(field)>;
    ++k;
    if constexpr (std::is_same_v<T, double>) {
      field = static_cast<double>(k) + 0.1;
    } else if constexpr (std::is_same_v<T, bool>) {
      field = true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      field = "reply \"ni_queue\" at mc21 61.0%";
    } else {
      field = (std::uint64_t{1} << 60) + k;
    }
  });
  const std::string text = exec::serialize_metrics(m);
  const auto back = exec::deserialize_metrics(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(exec::serialize_metrics(*back), text);
  EXPECT_EQ(metrics_to_json(*back), metrics_to_json(m));

  // Malformed records miss instead of loading with a wrong value.
  const auto line = [&text](const std::string& name) {
    const std::size_t at = ("\n" + text).find("\n" + name + ' ');
    return text.substr(at, text.find('\n', at) + 1 - at);
  };
  const auto with_line = [&](const std::string& name, const std::string& l) {
    std::string out = text;
    return out.replace(out.find(line(name)), line(name).size(), l);
  };
  for (const std::string& bad : {
           std::string("not a metrics record"),
           std::string(),
           with_line("ipc", line("cycles")),  // Repeated field, ipc missing.
           with_line("ipc", ""),              // Missing field.
           with_line("cycles", "cycles 1x9\n"),
           with_line("cycles", "cycles -5\n"),
           with_line("attr_enabled", "attr_enabled 2\n"),
           text + line("bottleneck"),
       }) {
    EXPECT_FALSE(exec::deserialize_metrics(bad).has_value()) << bad;
  }
}

TEST(ResultCache, KeyStringCoversSchemeBenchmarkFabricAndConfig) {
  const Config a = tiny();
  Config b = tiny();
  b.run_cycles += 1;
  const auto key = [](const Config& c, const char* s, const char* bench,
                      const char* fab) {
    return exec::cache_key_string(c, s, bench, fab);
  };
  EXPECT_EQ(key(a, "Ada-ARI", "bfs", "mesh"), key(a, "Ada-ARI", "bfs", "mesh"));
  EXPECT_NE(key(a, "Ada-ARI", "bfs", "mesh"), key(b, "Ada-ARI", "bfs", "mesh"));
  EXPECT_NE(key(a, "Ada-ARI", "bfs", "mesh"),
            key(a, "Ada-Baseline", "bfs", "mesh"));
  EXPECT_NE(key(a, "Ada-ARI", "bfs", "mesh"), key(a, "Ada-ARI", "nn", "mesh"));
  EXPECT_NE(key(a, "Ada-ARI", "bfs", "mesh"),
            key(a, "Ada-ARI", "bfs", "da2mesh"));
}

TEST(SweepCsv, EscapesDelimitersQuotesAndNewlines) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(SweepCsv, QuotedPointLabelKeepsRowParseable) {
  exec::ExecOptions opts;
  opts.jobs = 1;
  const auto cells = exec::ExperimentRunner(tiny(), opts)
                         .run(grid({{"vc=2, fast", nullptr}},
                                   {Scheme::kXYBaseline}, {"hotspot"}));
  const std::string csv = to_csv(cells);
  EXPECT_NE(csv.find("\"vc=2, fast\""), std::string::npos);
}

}  // namespace
}  // namespace arinoc
