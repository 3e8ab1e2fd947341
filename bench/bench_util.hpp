// Shared helpers for the bench binaries: the arinoc_paper figures and the
// ext_* extension benches.
//
// Thread-safety: every helper here is reentrant — all state is local and
// stdio calls are the C library's locked ones.
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
/// run regenerates.
inline void banner(const char* figure, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

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

/// Fail-fast check for a bench's `--out` path: false (after printing an
/// error naming the path) when its parent directory does not exist, so the
/// bench exits 2 before simulating anything.
bool out_dir_exists(const std::string& path);

/// Writes a BENCH_*.json document and prints "wrote <path>". Returns false
/// (after printing an error naming the path) when the file cannot be
/// opened or the write fails.
bool write_bench_json(const std::string& path, const std::string& body);

}  // namespace arinoc::bench
