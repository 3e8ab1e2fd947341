// ExperimentRunner: runs a grid of simulation cells on a ThreadTeam.
//
// Guarantees:
//  * Deterministic output. Every cell's full Config (including its derived
//    RNG seed) is resolved serially, before any worker runs; results land
//    in a pre-sized vector slot per cell. Byte-identical output for any
//    jobs count and any scheduling order.
//  * Seeding discipline. Each cell simulates with
//    derive_cell_seed(cfg.seed, benchmark) (see core/experiment.hpp) — the
//    base seed decorrelates the RNG streams of different workloads while
//    every (point, scheme) comparison on the same benchmark stays
//    seed-paired, which is what the paper-shape checks rely on.
//  * Crash isolation. A cell that trips the watchdog (or throws anything
//    else) records a structured error in its CellResult; the remaining
//    cells keep running.
//  * Optional on-disk result caching (see result_cache.hpp): re-running a
//    sweep only simulates cells whose key material changed.
//  * Duplicate cells run once. Cells of one run() call with the same cache
//    key (the same resolved config, scheme, benchmark and fabric, under any
//    point label) simulate once and share that result, cache on or off.
//    Sampling and attribution cells are exempt, as they are from the cache.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "core/gpgpu_sim.hpp"

namespace arinoc::exec {

struct ExecOptions {
  unsigned jobs = 0;          ///< Worker threads; 0 = hardware concurrency.
  /// Only 1 is valid (Config::validate); goes with the next benchmark change.
  unsigned threads = 1;
  bool cache_enabled = false;
  std::string cache_dir;      ///< Empty = ResultCache::default_dir().
  bool progress = false;      ///< Live [done/total] + ETA lines on stderr.
  /// Telemetry: sample every N cycles and write each cell's series as JSONL
  /// into `telemetry_dir`. 0 (default) = no sampling. Sampling cells bypass
  /// the result cache — a cache hit would skip producing the series.
  Cycle sample_interval = 0;
  std::string telemetry_dir;  ///< Empty = "arinoc-telemetry".
  /// Latency attribution: non-empty attaches a LatencyAttributor to every
  /// cell and writes each cell's report JSON into this directory. Like
  /// sampling, attribution cells bypass the result cache — a cache hit
  /// would return the aggregate Metrics but skip producing the report.
  std::string attr_dir;
  Cycle attr_window = 0;  ///< 0 = LatencyAttributor::kDefaultWindow.
};

/// One grid cell: (point label, scheme, benchmark) plus an optional config
/// mutation applied after the scheme preset (see resolve_cell_config).
struct CellSpec {
  std::string point;
  Scheme scheme = Scheme::kXYBaseline;
  std::string benchmark;
  std::function<void(Config&)> tweak;
  bool da2mesh = false;
};

struct CellResult {
  std::string point;
  std::string scheme;
  std::string benchmark;
  /// Reply-fabric tag the cell ran on: "da2mesh" for the overlay, otherwise
  /// fabric_cache_tag(resolved config) — e.g. "mesh", "torus",
  /// "file:<content-hash>".
  std::string fabric;
  /// 16-hex FNV-1a-64 of the resolved config's canonical string — the same
  /// canonical-config hash every "arinoc-provenance-v1" block carries.
  /// Filled for every runnable cell, cache hits included (the hash keys the
  /// cache, so a hit is by definition the same hash).
  std::string config_hash;
  Metrics metrics;

  // Structured per-cell error. ok() == false leaves `metrics` zeroed.
  std::string error;       ///< Human-readable message; empty = success.
  std::string error_kind;  ///< "config" | "deadlock" | "livelock" |
                           ///< "invariant-violation" | "runtime".
  std::string error_detail;  ///< Watchdog diagnostic dump, when available.
  int exit_status = 0;       ///< Matches the arinoc_sim exit-code contract.
  bool from_cache = false;
  /// Telemetry JSONL written for this cell (sampling enabled, run ok).
  std::string telemetry_path;
  /// Attribution report JSON written for this cell (attr_dir set, run ok).
  std::string attr_path;

  bool ok() const { return error.empty(); }
};

class ExperimentRunner {
 public:
  struct Stats {
    std::size_t total = 0;
    /// Cells actually run this call. A cell whose cache key appeared earlier
    /// in the same call copies that result and counts in neither this nor
    /// cache_hits.
    std::size_t simulated = 0;
    std::size_t cache_hits = 0;
    std::size_t errors = 0;  ///< Failed results, duplicates included.
  };

  explicit ExperimentRunner(Config base, ExecOptions opts = {});

  /// Runs the grid; results are in cell-submission order.
  std::vector<CellResult> run(const std::vector<CellSpec>& cells);

  /// Stats for the most recent run() call.
  const Stats& stats() const { return stats_; }
  const ExecOptions& options() const { return opts_; }

  /// The fully resolved per-cell config (scheme preset, tweak, derived
  /// seed) — exposed so tests can audit the seeding/caching discipline.
  Config resolve(const CellSpec& cell) const;

 private:
  Config base_;
  ExecOptions opts_;
  Stats stats_;
};

}  // namespace arinoc::exec
