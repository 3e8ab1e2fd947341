// Ablation: per-hop router pipeline depth (1..3 extra stages).
// ARI attacks a *throughput* bottleneck at the injection point, so its
// benefit should survive deeper (slower) router pipelines — per-hop
// latency and injection contention are orthogonal.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Ablation — router pipeline depth (per-hop latency)",
                "ARI's gain persists across 1/2/3-stage router pipelines");
  const Config base = make_base_config();
  const std::vector<std::string> benches = {"bfs", "mummergpu", "srad"};

  std::vector<SweepPoint> points;
  for (std::uint32_t stages = 1; stages <= 3; ++stages) {
    points.push_back({"stages=" + std::to_string(stages),
                      [stages](Config& c) {
                        c.router_pipeline_stages = stages;
                      }});
  }
  const auto results = bench::run_grid(
      base, grid(points, {Scheme::kAdaBaseline, Scheme::kAdaARI}, benches),
      opts);

  const bench::GridIndex at{2, benches.size()};

  TextTable t({"stages", "bfs gain", "mummergpu gain", "srad gain"});
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row = {std::to_string(p + 1)};
    for (std::size_t b = 0; b < benches.size(); ++b) {
      const double v0 = results[at(p, 0, b)].metrics.ipc;
      const double v1 = results[at(p, 1, b)].metrics.ipc;
      row.push_back(fmt(v1 / v0, 3) + "x");
    }
    t.add_row(row);
  }
  std::printf("Ada-ARI IPC / Ada-Baseline IPC at equal pipeline depth\n%s\n",
              t.to_string().c_str());
  return bench::exit_status(results);
}
