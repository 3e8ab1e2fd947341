// Parameter-sweep helpers: lay out a (config variant x scheme x benchmark)
// grid of exec cells and render the runner's results as CSV — the plumbing
// behind "make the plot for figure X" scripts.
//
// A grid runs through exec::ExperimentRunner (src/exec/runner.hpp): results
// come back in grid order and are byte-identical for any `jobs` count, a
// cell that trips the watchdog records a per-cell error instead of killing
// the sweep, and an optional on-disk cache skips cells whose (config,
// scheme, benchmark) already ran.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "exec/runner.hpp"

namespace arinoc {

/// One axis point: a label plus a config mutation.
struct SweepPoint {
  std::string label;
  std::function<void(Config&)> tweak;
};

/// The cells of points x schemes x benchmarks: point-major, then scheme,
/// then benchmark. An empty `points` means one point, "base", that runs the
/// base config unchanged.
std::vector<exec::CellSpec> grid(const std::vector<SweepPoint>& points,
                                 const std::vector<Scheme>& schemes,
                                 const std::vector<std::string>& benchmarks);

/// CSV with one row per cell: point,scheme,benchmark,<metric columns>,
/// error. Fields are RFC-4180 quoted when they contain commas, quotes,
/// or newlines (sweep-point labels are free-form strings).
std::string to_csv(const std::vector<exec::CellResult>& cells);

/// RFC-4180 field quoting helper (exposed for tests and other emitters).
std::string csv_escape(const std::string& field);

}  // namespace arinoc
