// Figure 16: ARI applied on top of DA2mesh.
// Paper: DA2mesh leaves the reply injection process untouched, so ARI
// composes with it for an additional ~16.4% IPC.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 16 — ARI on top of DA2mesh",
                "DA2mesh+ARI ~ +16.4% over plain DA2mesh");
  const Config base = make_base_config();
  const std::vector<std::string> benches = all_benchmark_names();
  std::vector<exec::CellSpec> cells =
      grid({}, {Scheme::kAdaBaseline, Scheme::kAdaARI}, benches);
  for (auto& cell : cells) cell.da2mesh = true;
  const auto results = bench::run_grid(base, cells, opts);
  const bench::GridIndex at{2, benches.size()};

  TextTable t({"benchmark", "DA2Mesh", "DA2Mesh+ARI"});
  std::vector<double> gains;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const Metrics& plain = results[at(0, 0, i)].metrics;
    const Metrics& ari = results[at(0, 1, i)].metrics;
    gains.push_back(ari.ipc / plain.ipc);
    t.add_row({b, "1.000", fmt(ari.ipc / plain.ipc, 3)});
  }
  t.add_row({"GEOMEAN", "1.000", fmt(geomean(gains), 3)});
  std::printf("IPC normalized to plain DA2mesh\n%s\n", t.to_string().c_str());
  std::printf("paper: +16.4%% on average\n");
  return bench::exit_status(results);
}
