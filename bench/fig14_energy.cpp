// Figure 14: energy consumption, ARI vs baseline.
// Paper: dynamic energy ~unchanged; static energy falls with the shorter
// execution time; total ~-4% on average.
//
// Because our simulator measures fixed-cycle windows (not fixed work), the
// energy comparison is done per unit of work: energy / warp instruction.
// A fixed program would finish in time inversely proportional to IPC, so
// static-energy-per-instruction = static_power * cycles / instructions.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 14 — Normalized energy (per unit of work)",
                "dynamic ~equal, static falls with runtime, total ~-4%");
  const Config base = make_base_config();
  const std::vector<std::string> benches = all_benchmark_names();
  const auto results = bench::run_grid(
      base, grid({}, {Scheme::kAdaBaseline, Scheme::kAdaARI}, benches), opts);
  const bench::GridIndex at{2, benches.size()};

  TextTable t({"benchmark", "dyn ratio", "static ratio", "total ratio"});
  std::vector<double> totals;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const Metrics& m0 = results[at(0, 0, i)].metrics;
    const Metrics& m1 = results[at(0, 1, i)].metrics;
    const double w0 = static_cast<double>(m0.warp_instructions);
    const double w1 = static_cast<double>(m1.warp_instructions);
    const double dyn = (m1.energy.dynamic_nj() / w1) /
                       (m0.energy.dynamic_nj() / w0);
    const double stat = (m1.energy.static_nj / w1) /
                        (m0.energy.static_nj / w0);
    const double total = (m1.energy.total_nj() / w1) /
                         (m0.energy.total_nj() / w0);
    totals.push_back(total);
    t.add_row({b, fmt(dyn, 3), fmt(stat, 3), fmt(total, 3)});
  }
  t.add_row({"GEOMEAN", "", "", fmt(geomean(totals), 3)});
  std::printf("energy per warp instruction, Ada-ARI / Ada-Baseline "
              "(lower is better)\n%s\n",
              t.to_string().c_str());
  std::printf("paper: total ~0.96x; static ratio ~ 1/IPC-speedup\n");
  return bench::exit_status(results);
}
