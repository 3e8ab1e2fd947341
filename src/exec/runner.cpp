#include "exec/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "core/experiment.hpp"
#include "core/watchdog.hpp"
#include "exec/result_cache.hpp"
#include "exec/thread_team.hpp"
#include "obs/attr.hpp"
#include "obs/regress/baseline.hpp"
#include "obs/regress/provenance.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc::exec {

namespace {

/// Serialized stderr progress line: [done/total] + elapsed + ETA.
class Progress {
 public:
  Progress(bool enabled, std::size_t total)
      : enabled_(enabled && total > 0),
        total_(total),
        start_(std::chrono::steady_clock::now()) {}

  void tick(const CellResult& r) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double eta =
        elapsed / static_cast<double>(done_) *
        static_cast<double>(total_ - done_);
    std::fprintf(stderr,
                 "\r[%3zu/%3zu] %3.0f%% elapsed %5.1fs eta %5.1fs  %s%s/%s "
                 "%-12s\x1b[K",
                 done_, total_, 100.0 * static_cast<double>(done_) /
                                    static_cast<double>(total_),
                 elapsed, eta, r.from_cache ? "(cached) " : "",
                 r.scheme.c_str(), r.benchmark.c_str(),
                 r.ok() ? "" : "[error]");
    if (done_ == total_) std::fputc('\n', stderr);
    std::fflush(stderr);
  }

 private:
  bool enabled_;
  std::size_t total_;
  std::size_t done_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
};

void record_error(CellResult& r, std::string kind, const char* what,
                  int exit_status, std::string detail = {}) {
  r.error = what;
  r.error_kind = std::move(kind);
  r.error_detail = std::move(detail);
  r.exit_status = exit_status;
  r.metrics = Metrics{};
}

/// Writes one per-cell artifact (telemetry series, attribution report) under
/// `dir` with the cell-identity file name; returns the path, "" on failure.
std::string write_cell_artifact(const std::string& dir, const CellResult& r,
                                const char* ext, const std::string& body) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  using obs::regress::file_slug;
  const std::string path = dir + "/" + file_slug(r.point) + "_" +
                           file_slug(r.scheme) + "_" + file_slug(r.benchmark) +
                           ext;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return {};
  out << body;
  return out ? path : std::string{};
}

}  // namespace

ExperimentRunner::ExperimentRunner(Config base, ExecOptions opts)
    : base_(std::move(base)), opts_(std::move(opts)) {
  // A threads value other than 1 reaches every cell's Config::validate and
  // fails it as a configuration error.
  if (opts_.threads != 1) base_.threads = opts_.threads;
}

Config ExperimentRunner::resolve(const CellSpec& cell) const {
  return resolve_cell_config(base_, cell.scheme, cell.benchmark, cell.tweak);
}

std::vector<CellResult> ExperimentRunner::run(
    const std::vector<CellSpec>& cells) {
  stats_ = Stats{};
  stats_.total = cells.size();

  const ResultCache cache(
      opts_.cache_enabled
          ? (opts_.cache_dir.empty() ? ResultCache::default_dir()
                                     : opts_.cache_dir)
          : std::string{});

  // Phase 1 (serial): identity + full config resolution, so every cell's
  // seed and cache key are fixed before any worker touches anything.
  std::vector<CellResult> results(cells.size());
  std::vector<Config> configs(cells.size());
  std::vector<std::string> keys(cells.size());
  std::vector<bool> runnable(cells.size(), false);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    results[i].point = cells[i].point;
    results[i].scheme = scheme_name(cells[i].scheme);
    results[i].benchmark = cells[i].benchmark;
    try {
      configs[i] = resolve(cells[i]);
      runnable[i] = true;
      results[i].fabric =
          cells[i].da2mesh ? "da2mesh" : fabric_cache_tag(configs[i]);
      results[i].config_hash = obs::regress::config_hash_hex(configs[i]);
      keys[i] = cache_key_string(configs[i], results[i].scheme,
                                 results[i].benchmark, results[i].fabric);
    } catch (const std::invalid_argument& e) {
      record_error(results[i], "config", e.what(), 2);
    }
  }

  // A cell whose key already appeared earlier in this call does not run: it
  // copies the result of that first occurrence. Sampling and attribution
  // cells each write their own artifact, so they all run, as they all miss
  // the cache.
  const bool sampling = opts_.sample_interval > 0;
  const bool attributing = !opts_.attr_dir.empty();
  std::vector<std::size_t> first(cells.size());  // == i: cell i runs.
  std::vector<std::size_t> tasks;
  std::unordered_map<std::string_view, std::size_t> seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    first[i] = i;
    if (runnable[i] && !sampling && !attributing) {
      first[i] = seen.emplace(keys[i], i).first->second;
    }
    if (first[i] == i) tasks.push_back(i);
  }

  const unsigned jobs = opts_.jobs == 0 ? hardware_threads() : opts_.jobs;

  // Phase 2 (parallel): each task owns exactly one result slot, and no
  // exception leaves a task (ThreadTeam has no exception channel).
  Progress progress(opts_.progress, tasks.size());
  // Sampling and attribution cells always simulate: a cache hit would
  // return the aggregate Metrics but skip producing the per-cell telemetry
  // series / attribution report.
  const auto run_cell = [&](std::size_t i) {
    CellResult& r = results[i];
    if (!runnable[i]) {
      progress.tick(r);
      return;
    }
    try {
      const std::string& key = keys[i];
      std::optional<Metrics> cached;
      if (!sampling && !attributing) cached = cache.load(key);
      if (cached) {
        r.metrics = *cached;
        r.from_cache = true;
      } else {
        const BenchmarkTraits* traits = find_benchmark(r.benchmark);
        if (traits == nullptr) {
          throw std::invalid_argument("unknown benchmark '" + r.benchmark +
                                      "'");
        }
        GpgpuSim sim(configs[i], *traits, cells[i].da2mesh);
        if (sampling) sim.enable_sampling(opts_.sample_interval);
        obs::LatencyAttributor attr(
            opts_.attr_window > 0 ? opts_.attr_window
                                  : obs::LatencyAttributor::kDefaultWindow);
        if (attributing) sim.attach_attributor(&attr);
        sim.run_with_warmup();
        if (sampling) sim.flush_sampler();
        r.metrics = sim.collect();
        if (sampling) {
          const std::string dir = opts_.telemetry_dir.empty()
                                      ? std::string("arinoc-telemetry")
                                      : opts_.telemetry_dir;
          r.telemetry_path = write_cell_artifact(dir, r, ".jsonl",
                                                 sim.sampler()->to_jsonl());
        }
        if (attributing) {
          r.attr_path = write_cell_artifact(opts_.attr_dir, r, ".json",
                                            attr.to_json() + "\n");
        }
        if (!sampling && !attributing) cache.store(key, r.metrics);
      }
    } catch (const WatchdogTrip& trip) {
      record_error(r, watchdog_trip_name(trip.kind()), trip.what(),
                   trip.exit_status(), trip.dump());
    } catch (const std::invalid_argument& e) {
      record_error(r, "config", e.what(), 2);
    } catch (const std::exception& e) {
      record_error(r, "runtime", e.what(), 1);
    } catch (...) {
      record_error(r, "runtime", "unknown exception", 1);
    }
    progress.tick(r);
  };
  ThreadTeam team(static_cast<unsigned>(
      std::min<std::size_t>(jobs, tasks.size())));
  team.run(tasks.size(), [&](std::size_t t) { run_cell(tasks[t]); });

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (first[i] != i) {
      // Scheme, benchmark, fabric and config are all in the key: a
      // duplicate differs from its first occurrence only by its point label.
      std::string point = std::move(results[i].point);
      results[i] = results[first[i]];
      results[i].point = std::move(point);
    } else if (results[i].from_cache) {
      ++stats_.cache_hits;
    } else if (runnable[i]) {
      ++stats_.simulated;
    }
    if (!results[i].ok()) ++stats_.errors;
  }
  return results;
}

}  // namespace arinoc::exec
