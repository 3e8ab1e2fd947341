// Shared helpers for the figure-reproduction bench binaries.
//
// Thread-safety: every helper here is reentrant — all state is local, the
// grid execution goes through exec::ExperimentRunner (which owns its pool),
// and stdio calls are the C library's locked ones. Calling these from exec
// pool workers is safe.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "exec/options.hpp"

namespace arinoc::bench {

/// Prints the standard figure banner: what the paper reports, what this
/// binary regenerates.
inline void banner(const char* figure, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

/// One metric extracted per (scheme, benchmark) run.
using MetricFn = double (*)(const Metrics&);

inline double ipc_of(const Metrics& m) { return m.ipc; }
inline double mc_stall_of(const Metrics& m) {
  return static_cast<double>(m.mc_stall_cycles);
}

/// Runs `cells` on the exec pool (optionally cached) and returns their
/// results in cell order. Failed cells are reported on stderr and come back
/// with zeroed metrics.
std::vector<exec::CellResult> run_grid(const Config& base,
                                       const std::vector<exec::CellSpec>& cells,
                                       const exec::ExecOptions& opts);

/// A bench's exit status once it has printed its results: 0 when every
/// cell ran, else the first failed cell's exit_status (the arinoc_sim
/// contract: 2 config, 3/4/5 watchdog, 1 runtime).
int exit_status(const std::vector<exec::CellResult>& results);

/// Position of cell (point p, scheme s, benchmark b) in a result vector
/// holding grid(points, schemes, benchmarks) from index `offset` on.
struct GridIndex {
  std::size_t schemes;
  std::size_t benchmarks;
  std::size_t offset = 0;
  std::size_t operator()(std::size_t p, std::size_t s, std::size_t b) const {
    return offset + (p * schemes + s) * benchmarks + b;
  }
};

struct Normalized {
  std::vector<double> geomeans;  ///< Per scheme, in `schemes` order.
  int exit_status = 0;           ///< bench::exit_status of the grid.
};

/// Runs `schemes` x `benchmarks` through run_grid and prints a table of
/// `fn` normalized to the first scheme, with a geomean row. A cell that
/// fails contributes a guarded (floor-clamped) ratio instead of aborting
/// the bench.
Normalized run_and_print_normalized(const Config& base,
                                    const std::vector<Scheme>& schemes,
                                    const std::vector<std::string>& benchmarks,
                                    MetricFn fn, const char* metric_name,
                                    bool higher_is_better,
                                    const exec::ExecOptions& opts);

/// The shared fabric axis (mesh / torus / cmesh / chiplet): every point
/// keeps 16 routers / 4 MCs so cross-fabric comparisons are about topology,
/// not scale. cmesh concentrates the same endpoint count onto a 2x2 hub
/// mesh; chiplet splits the 4x4 grid into four 2x2 dies with serdes on the
/// die boundaries. Used by ext_fabric_sweep and the --fabric flag of
/// ext_fault_resilience / ext_serving_tail, so all three benches run the
/// identical fabric configurations.
std::vector<SweepPoint> fabric_axis_points();

/// Applies one named fabric-axis point to `c`. Returns false (after
/// printing the known names to stderr) on an unknown fabric name.
bool apply_fabric(const std::string& fabric, Config& c);

/// Leading members for a stamped BENCH_*.json document — schema
/// ("arinoc-bench-v1"), bench kind, and a full provenance block hashed over
/// `base` — indented two spaces and ending with ",\n", ready to emit
/// directly after the opening "{\n". Every bench JSON artifact carries this
/// stamp so the trend ingester (tools/arinoc_regress) can reject foreign or
/// stale files instead of silently trending them.
std::string bench_json_stamp(const char* kind, const Config& base);

}  // namespace arinoc::bench
