// Golden baseline store: anchored per-cell metric snapshots on disk.
//
// One entry = one simulation cell (benchmark, scheme, fabric) anchored at a
// specific canonical configuration. The entry's file name embeds the
// canonical-config hash, so editing the configuration (cycle counts, mesh
// size, VC depth, ...) makes the old anchor unreachable instead of silently
// comparable — re-anchoring is always an explicit act (see
// docs/observability.md).
//
// Entry files are fully deterministic: identity-half provenance only,
// doubles printed with %.17g (exact round trip). Re-running an unchanged
// cell and re-writing its entry must reproduce the committed file
// byte-for-byte — CI enforces this, which is what makes the store "golden".
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/gpgpu_sim.hpp"
#include "obs/regress/provenance.hpp"

namespace arinoc::obs::regress {

inline constexpr const char kBaselineSchema[] = "arinoc-baseline-v1";

/// Which direction of change is a regression for a metric.
enum class MetricDirection {
  kHigherBetter,  ///< Regression = value fell (IPC, goodput, recovery rate).
  kLowerBetter,   ///< Regression = value rose (latency, energy, stalls).
  kNeutral,       ///< Any out-of-tolerance change is suspect (counts, shares).
};

/// Static comparison policy for one tracked metric.
struct MetricPolicy {
  const char* name;
  MetricDirection direction;
  double rel_tol;  ///< Default relative tolerance (0 = exact match).
};

/// Filesystem-safe slug: every character outside [A-Za-z0-9._-] becomes
/// '-', and an empty string becomes "cell". Names baseline entries and the
/// exec runner's per-cell artifacts.
std::string file_slug(const std::string& s);

/// Policy for `name`; unknown metrics get {kNeutral, 0.02}.
MetricPolicy metric_policy(const std::string& name);

/// One anchored snapshot: ordered (metric, value) pairs plus identity.
struct BaselineEntry {
  Provenance provenance;  ///< Identity half only (deterministic fields).
  std::vector<std::pair<std::string, double>> metrics;

  /// File name this entry lives under: <benchmark>_<scheme>_<fabric>_<hash>
  /// .json, filesystem-sanitized.
  std::string file_name() const;
};

/// Extracts the tracked metric set from a Metrics record, in canonical
/// order: IPC, request/reply/e2e percentiles, energy, goodput, recovery
/// rate, MC stalls, instruction/cycle counts, and (when attribution ran)
/// the per-stage latency shares.
std::vector<std::pair<std::string, double>> snapshot_metrics(const Metrics& m);

/// Renders the entry as its canonical on-disk JSON document (deterministic;
/// trailing newline included).
std::string baseline_entry_json(const BaselineEntry& e);

/// Parses an entry document. Throws std::invalid_argument (message names
/// `origin`) on malformed JSON, a foreign schema, or missing fields.
BaselineEntry parse_baseline_entry(const std::string& text,
                                   const std::string& origin);

/// Writes the entry under `dir` (created if missing) as e.file_name().
/// Returns the path; throws std::runtime_error on I/O failure.
std::string write_baseline_entry(const std::string& dir,
                                 const BaselineEntry& e);

/// Loads the entry for this identity from `dir`; empty-metrics entry with
/// ok=false semantics is not used — throws std::runtime_error when the file
/// is absent (message suggests --baseline-write) and std::invalid_argument
/// when present but malformed.
BaselineEntry load_baseline_entry(const std::string& dir,
                                  const BaselineEntry& identity);

// ---- Output-path fail-fast helpers (shared by the CLI drivers) ----

/// The directory component of `path` ("" when the path has none).
std::string parent_dir_of(const std::string& path);

/// True when the directory that would hold `path` exists (a bare file name
/// counts: the current directory always exists).
bool parent_dir_exists(const std::string& path);

/// Fail-fast check for an output path named by a command-line flag: true
/// when `path` is empty or its parent directory exists; otherwise prints
/// "error: <flag> '<path>': parent directory '<dir>' does not exist" and
/// returns false, so the binary exits 2 before simulating anything.
bool require_parent_dir(const std::string& path, const char* flag);

}  // namespace arinoc::obs::regress
