// Ablation (beyond the paper's figures): number of split NI queues under a
// fixed total buffer budget (§4.1 says ⌈W/N⌉ queues suffice; fewer may do
// when the MC does not produce data every cycle).
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Ablation — split NI queue count (k = 1..4, fixed budget)",
                "k=1 degenerates to the enhanced baseline supply; gains "
                "saturate once supply matches MC output rate");
  const Config base = make_base_config();
  const std::vector<std::string> benches = {"bfs", "kmeans", "srad",
                                            "blackscholes"};

  // Reference: Ada-Baseline, then Ada-ARI at k = 1..4.
  std::vector<exec::CellSpec> cells = grid({}, {Scheme::kAdaBaseline}, benches);
  std::vector<SweepPoint> points;
  for (std::uint32_t k = 1; k <= 4; ++k) {
    points.push_back(
        {"k=" + std::to_string(k), [k](Config& c) { c.split_queues = k; }});
  }
  const auto sweep = grid(points, {Scheme::kAdaARI}, benches);
  cells.insert(cells.end(), sweep.begin(), sweep.end());
  const auto results = bench::run_grid(base, cells, opts);
  const bench::GridIndex at{1, benches.size(), benches.size()};

  std::vector<std::string> headers = {"k"};
  for (const auto& b : benches) headers.push_back(b);
  TextTable t(headers);
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<std::string> row = {std::to_string(p + 1)};
    for (std::size_t b = 0; b < benches.size(); ++b) {
      const double ref = results[b].metrics.ipc;
      row.push_back(fmt(results[at(p, 0, b)].metrics.ipc / ref, 3));
    }
    t.add_row(row);
  }
  std::printf("IPC normalized to Ada-Baseline (consumption fixed at S=4)\n%s\n",
              t.to_string().c_str());
  return bench::exit_status(results);
}
