// Section 3 measurement: reply-network injection-link utilization vs
// in-network link utilization.
// Paper: injection links ~0.39 flit/cycle vs ~0.084 in-network (~4.5x) —
// the injection points, not the network core, are the bottleneck.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Section 3 — Reply injection vs in-network link utilization",
                "injection links ~4.5x hotter than in-network links "
                "(0.39 vs 0.084 flit/cycle)");
  const Config base = make_base_config();
  const auto results = bench::run_grid(
      base, grid({}, {Scheme::kXYBaseline}, all_benchmark_names()), opts);

  TextTable t({"benchmark", "inj_util", "internal_util", "ratio"});
  double inj_sum = 0, int_sum = 0;
  int n = 0;
  for (const auto& r : results) {
    const std::string& b = r.benchmark;
    const Metrics& m = r.metrics;
    const double ratio = m.reply_internal_util > 0.0
                             ? m.reply_injection_util / m.reply_internal_util
                             : 0.0;
    inj_sum += m.reply_injection_util;
    int_sum += m.reply_internal_util;
    ++n;
    t.add_row({b, fmt(m.reply_injection_util, 3),
               fmt(m.reply_internal_util, 3), fmt(ratio, 1)});
  }
  t.add_row({"MEAN", fmt(inj_sum / n, 3), fmt(int_sum / n, 3),
             fmt(int_sum > 0 ? inj_sum / int_sum : 0.0, 1)});
  std::printf("%s\n", t.to_string().c_str());
  return bench::exit_status(results);
}
