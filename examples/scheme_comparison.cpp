// Scheme comparison on a user-selected benchmark mix: runs all five
// evaluated schemes (paper §6.2) plus the Fig.-10 ablations and prints a
// compact report — the programmatic equivalent of skimming Figs. 10-13.
//
//   ./scheme_comparison [bench1 bench2 ...]
//
// Default mix: one benchmark per NoC-sensitivity class.
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "exec/options.hpp"
#include "workloads/benchmark.hpp"
#include "workloads/suite.hpp"

using namespace arinoc;

int main(int argc, char** argv) {
  std::vector<std::string> benches;
  for (int i = 1; i < argc; ++i) {
    if (find_benchmark(argv[i]) == nullptr) {
      std::fprintf(stderr, "unknown benchmark '%s'\n", argv[i]);
      return 1;
    }
    benches.push_back(argv[i]);
  }
  if (benches.empty()) benches = quick_benchmarks();

  const Config base = make_base_config();
  const std::vector<Scheme> schemes = {
      Scheme::kXYBaseline,   Scheme::kXYARI,      Scheme::kAdaBaseline,
      Scheme::kAdaMultiPort, Scheme::kAccSupply,  Scheme::kAccConsume,
      Scheme::kAccBothNoPrio, Scheme::kAdaARI};
  const auto results =
      exec::ExperimentRunner(base, exec::default_exec_options(false))
          .run(grid({}, schemes, benches));
  for (const auto& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s/%s failed (%s): %s\n", r.scheme.c_str(),
                   r.benchmark.c_str(), r.error_kind.c_str(), r.error.c_str());
      return r.exit_status;
    }
  }

  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const BenchmarkTraits* traits = find_benchmark(b);
    std::printf("=== %s (%s NoC sensitivity, mem ratio %.2f) ===\n",
                b.c_str(), sensitivity_name(traits->sensitivity),
                traits->mem_ratio);
    TextTable t({"scheme", "IPC", "vs XY-Base", "MC stall", "req lat",
                 "reply lat"});
    double ref_ipc = 0.0;
    for (std::size_t k = 0; k < schemes.size(); ++k) {
      const Scheme s = schemes[k];
      const Metrics& m = results[k * benches.size() + i].metrics;
      if (s == Scheme::kXYBaseline) ref_ipc = m.ipc;
      t.add_row({scheme_name(s), fmt(m.ipc, 3),
                 fmt(ref_ipc > 0 ? m.ipc / ref_ipc : 1.0, 3) + "x",
                 std::to_string(m.mc_stall_cycles),
                 fmt(m.request_latency, 1), fmt(m.reply_latency, 1)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }
  return 0;
}
