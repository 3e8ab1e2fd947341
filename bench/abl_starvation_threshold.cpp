// Ablation: starvation threshold sensitivity (§5).
// Paper: "starvation of this kind is rare, and the overall performance is
// very insensitive to the threshold value" (1k cycles used).
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Ablation — starvation threshold sensitivity (§5)",
                "performance insensitive to the threshold (1k default)");
  const Config base = make_base_config();
  const std::vector<std::string> benches = {"bfs", "mummergpu", "kmeans"};
  const std::vector<Cycle> thresholds = {100, 500, 1000, 4000, 16000};

  // Reference: the untweaked default (1000 cycles), then each threshold.
  std::vector<SweepPoint> points = {{"default", nullptr}};
  for (Cycle th : thresholds) {
    points.push_back({"threshold=" + std::to_string(th),
                      [th](Config& c) { c.starvation_threshold = th; }});
  }
  const auto results =
      bench::run_grid(base, grid(points, {Scheme::kAdaARI}, benches), opts);
  const bench::GridIndex at{1, benches.size()};

  std::vector<std::string> headers = {"threshold"};
  for (const auto& b : benches) headers.push_back(b);
  TextTable t(headers);
  for (std::size_t p = 0; p < thresholds.size(); ++p) {
    std::vector<std::string> row = {std::to_string(thresholds[p])};
    for (std::size_t b = 0; b < benches.size(); ++b) {
      const double ref = results[at(0, 0, b)].metrics.ipc;
      row.push_back(fmt(results[at(p + 1, 0, b)].metrics.ipc / ref, 3));
    }
    t.add_row(row);
  }
  std::printf("IPC normalized to the 1k-cycle default\n%s\n",
              t.to_string().c_str());
  std::printf("shape check: all entries ~1.00 (insensitive).\n");
  return bench::exit_status(results);
}
