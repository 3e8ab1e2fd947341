// Figure 15: 2 vs 4 virtual channels, with and without ARI (injection
// speedup = VC count).
// Paper: (1) ARI beats the baseline at equal VC count; (2) going 2->4 VCs
// helps ARI much more than the baseline — with the injection bottleneck
// removed, ARI can actually fill the extra VCs.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 15 — ARI with different VC counts",
                "ARI gains more from 2->4 VCs than the baseline does");
  const Config base = make_base_config();

  auto with_vcs = [](std::uint32_t vcs) {
    return [vcs](Config& c) {
      c.num_vcs = vcs;
      c.injection_speedup = std::min(c.injection_speedup, vcs);
      c.split_queues = std::min(c.split_queues, vcs);
    };
  };
  const std::vector<std::string> benches = fig15_benchmarks();
  const auto results = bench::run_grid(
      base,
      grid({{"2VC", with_vcs(2)}, {"4VC", with_vcs(4)}},
           {Scheme::kAdaBaseline, Scheme::kAdaARI}, benches),
      opts);
  const bench::GridIndex at{2, benches.size()};

  TextTable t({"benchmark", "2VC-Base", "4VC-Base", "2VC-ARI", "4VC-ARI",
               "base 2->4", "ARI 2->4"});
  std::vector<double> base_gain, ari_gain;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const double b2 = results[at(0, 0, i)].metrics.ipc;
    const double b4 = results[at(1, 0, i)].metrics.ipc;
    const double a2 = results[at(0, 1, i)].metrics.ipc;
    const double a4 = results[at(1, 1, i)].metrics.ipc;
    base_gain.push_back(b4 / b2);
    ari_gain.push_back(a4 / a2);
    t.add_row({b, fmt(b2 / b2, 3), fmt(b4 / b2, 3), fmt(a2 / b2, 3),
               fmt(a4 / b2, 3), fmt(b4 / b2, 3), fmt(a4 / a2, 3)});
  }
  t.add_row({"GEOMEAN", "", "", "", "", fmt(geomean(base_gain), 3),
             fmt(geomean(ari_gain), 3)});
  std::printf("IPC normalized to 2VC-Baseline per benchmark\n%s\n",
              t.to_string().c_str());
  std::printf("shape check: 'ARI 2->4' column > 'base 2->4' column.\n");
  return bench::exit_status(results);
}
