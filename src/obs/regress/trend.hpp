// Perf-trend layer: folds a history of stamped BENCH_*.json snapshots
// (ext_fabric_sweep, ext_fault_resilience, ext_serving_tail — anything
// carrying the "arinoc-bench-v1" stamp) into per-(cell, metric)
// time series, emitted as "arinoc-trend-v1" JSON and as a self-contained
// HTML sparkline dashboard.
//
// Ingestion is schema-driven, not bench-specific: within a snapshot, every
// array of objects contributes rows; a row's *identity* fields (name,
// workload, scheme, benchmark, fabric, admission, load, corrupt_rate — the
// axes benches sweep over) form the cell key, every other numeric or boolean
// field becomes a metric point. Unstamped or foreign documents are rejected
// with a clear error — trending a stale artifact against a fresh one is how
// silent regressions hide.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/regress/json.hpp"

namespace arinoc::obs::regress {

inline constexpr const char kBenchSchema[] = "arinoc-bench-v1";
inline constexpr const char kTrendSchema[] = "arinoc-trend-v1";

struct TrendPoint {
  std::size_t snapshot = 0;  ///< Index into TrendBuilder::snapshots().
  double value = 0.0;
};

struct TrendSeries {
  std::string cell;    ///< "throughput/saturated-bfs scheme=Ada-ARI ...".
  std::string metric;  ///< "activity_cps", "ipc", "e2e_latency_p99", ...
  std::vector<TrendPoint> points;
};

class TrendBuilder {
 public:
  /// Ingests one parsed snapshot. `label` names it in the output (file
  /// name or date). Snapshots are ordered by call sequence — oldest first.
  /// Throws std::invalid_argument on a document without the
  /// "arinoc-bench-v1" stamp or without any ingestible rows.
  void add_snapshot(const std::string& label, const JsonValue& doc);

  /// Parses `text` and ingests it (convenience over json_parse +
  /// add_snapshot; parse errors are rethrown as std::invalid_argument
  /// naming `label`).
  void add_snapshot_text(const std::string& label, const std::string& text);

  const std::vector<std::string>& snapshots() const { return labels_; }
  /// Series sorted by (cell, metric); points in snapshot order.
  std::vector<TrendSeries> series() const;

  /// The full history as an "arinoc-trend-v1" JSON document.
  std::string to_json() const;

 private:
  std::vector<std::string> labels_;
  std::vector<TrendSeries> series_;  ///< Unsorted accumulation order.

  TrendSeries& series_for(const std::string& cell, const std::string& metric);
};

/// Self-contained HTML dashboard: one sparkline row per (cell, metric)
/// series, grouped by cell, with first/last values and relative drift.
std::string trend_html_document(const TrendBuilder& trend,
                                const std::string& title = "arinoc perf trend");

}  // namespace arinoc::obs::regress
