// Figure 9: IPC improvement vs number of priority levels (bfs, mummergpu).
// Paper: two levels capture most of the benefit; more levels do not help
// (far from the injection point, differentiating in-network packets is
// useless).
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 9 — IPC improvement vs # of priority levels",
                "2 levels reap most of the benefit (bfs, mummerGPU)");
  const Config base = make_base_config();
  const std::vector<std::string> benches = fig9_benchmarks();

  // Reference: full ARI minus prioritization (Acc-Both-NoPriority), then
  // Ada-ARI at 1..6 priority levels.
  std::vector<exec::CellSpec> cells =
      grid({}, {Scheme::kAccBothNoPrio}, benches);
  std::vector<SweepPoint> points;
  for (std::uint32_t levels = 1; levels <= 6; ++levels) {
    points.push_back({"levels=" + std::to_string(levels),
                      [levels](Config& c) { c.priority_levels = levels; }});
  }
  const auto sweep = grid(points, {Scheme::kAdaARI}, benches);
  cells.insert(cells.end(), sweep.begin(), sweep.end());
  const auto results = bench::run_grid(base, cells, opts);
  const bench::GridIndex at{1, benches.size(), benches.size()};

  std::vector<std::string> headers = {"levels"};
  for (const auto& b : benches) headers.push_back(b);
  TextTable t(headers);
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row = {std::to_string(p + 1)};
    for (std::size_t b = 0; b < benches.size(); ++b) {
      const double ref = results[b].metrics.ipc;
      const Metrics& m = results[at(p, 0, b)].metrics;
      row.push_back(fmt_pct(m.ipc / ref - 1.0));
    }
    t.add_row(row);
  }
  std::printf("IPC improvement over Acc-Both-NoPriority\n%s\n",
              t.to_string().c_str());
  return bench::exit_status(results);
}
