// Figure 10: accelerating injection supply and consumption separately and
// combined (all with adaptive routing).
// Paper: Acc-Supply alone is ~neutral and *hurts* 12/30 benchmarks;
// Acc-Consume alone is minimal; both together +13.5% (geomean); adding
// the binary priority yields further gains (ARI).
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner(
      "Figure 10 — Acc-Supply / Acc-Consume ablation (adaptive routing)",
      "supply-only ~1.0x (hurts some), consume-only ~1.0x, both ~1.135x, "
      "both+priority higher still");
  const Config base = make_base_config();
  const std::vector<Scheme> schemes = {
      Scheme::kAdaBaseline, Scheme::kAccSupply, Scheme::kAccConsume,
      Scheme::kAccBothNoPrio, Scheme::kAdaARI};
  const auto norm = bench::run_and_print_normalized(
      base, schemes, all_benchmark_names(), bench::ipc_of, "IPC", true, opts);
  const std::vector<double>& geos = norm.geomeans;
  std::printf("geomeans: supply-only %.3f, consume-only %.3f, both %.3f, "
              "ARI %.3f\n",
              geos[1], geos[2], geos[3], geos[4]);
  return norm.exit_status;
}
