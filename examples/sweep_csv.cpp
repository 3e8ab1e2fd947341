// Parameter sweeps to CSV: the plot-making workflow. Sweeps the injection
// crossbar speedup and emits one CSV row per (point, scheme, benchmark) —
// pipe into your plotting tool of choice.
//
//   ./sweep_csv [exec flags] > speedup_sweep.csv
//
// Takes the shared exec flags (src/exec/options.hpp): --jobs, --no-cache,
// --cache-dir, --sample-interval, --telemetry-dir, --attr-dir
// (the last fills the CSV `bottleneck` column).
//
// The grid runs in parallel on the exec pool (deterministic: the CSV is
// byte-identical for any --jobs value) and caches results on disk, so a
// re-run only simulates cells whose configuration changed.
#include <algorithm>
#include <cstdio>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "exec/options.hpp"

using namespace arinoc;

int main(int argc, char** argv) {
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  const Config base = make_base_config();
  const std::string err = base.validate();
  if (!err.empty()) {
    std::fprintf(stderr, "invalid base configuration: %s\n", err.c_str());
    return 2;
  }
  std::vector<SweepPoint> points;
  for (std::uint32_t s = 1; s <= 4; ++s) {
    points.push_back({"S=" + std::to_string(s), [s](Config& c) {
                        c.injection_speedup = std::min(s, c.num_vcs);
                      }});
  }
  const auto cells = exec::ExperimentRunner(base, opts).run(
      grid(points, {Scheme::kAdaARI}, {"bfs", "kmeans", "hotspot"}));
  std::fputs(to_csv(cells).c_str(), stdout);
  for (const auto& c : cells) {
    if (!c.ok()) return 1;  // Per-cell errors are in the CSV's error column.
  }
  return 0;
}
