// Figure 11: IPC of the five evaluated schemes, normalized to XY-Baseline.
// Paper: XY-ARI ~+8% over XY-Baseline; Ada-Baseline slightly *below*
// XY-Baseline; Ada-MultiPort ~+2% over Ada-Baseline; Ada-ARI ~+15.4% over
// Ada-Baseline, with ~1/3 of benchmarks near 1.4x.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 11 — IPC by scheme (normalized to XY-Baseline)",
                "XY-ARI ~1.08x; Ada-Baseline <= 1.0x; Ada-MultiPort ~1.02x "
                "of Ada-Baseline; Ada-ARI ~1.154x of Ada-Baseline");
  const Config base = make_base_config();
  const std::vector<Scheme> schemes = {
      Scheme::kXYBaseline, Scheme::kXYARI, Scheme::kAdaBaseline,
      Scheme::kAdaMultiPort, Scheme::kAdaARI};
  const auto norm = bench::run_and_print_normalized(
      base, schemes, all_benchmark_names(), bench::ipc_of, "IPC", true, opts);
  const std::vector<double>& geos = norm.geomeans;
  std::printf("Ada-ARI vs Ada-Baseline: %.3fx (paper: ~1.154x)\n",
              geos[4] / geos[2]);
  std::printf("Ada-MultiPort vs Ada-Baseline: %.3fx (paper: ~1.02x)\n",
              geos[3] / geos[2]);
  std::printf("XY-ARI vs XY-Baseline: %.3fx (paper: ~1.08x)\n", geos[1]);
  return norm.exit_status;
}
