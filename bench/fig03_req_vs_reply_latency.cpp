// Figure 3: average request vs reply packet latency under the baseline.
// Paper: request latency ~5.6x reply latency on average although the
// congestion actually sits on the reply side (backpressure effect).
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 3 — Request vs. reply packet latency (XY-Baseline)",
                "request/reply latency ratio ~5.6x on average");
  const Config base = make_base_config();
  const auto results = bench::run_grid(
      base, grid({}, {Scheme::kXYBaseline}, all_benchmark_names()), opts);

  TextTable t({"benchmark", "req_lat", "reply_lat", "ratio"});
  std::vector<double> ratios;
  for (const auto& r : results) {
    const std::string& b = r.benchmark;
    const Metrics& m = r.metrics;
    const double ratio =
        m.reply_latency > 0.0 ? m.request_latency / m.reply_latency : 0.0;
    if (ratio > 0.0) ratios.push_back(ratio);
    t.add_row({b, fmt(m.request_latency, 1), fmt(m.reply_latency, 1),
               fmt(ratio, 2)});
  }
  t.add_row({"GEOMEAN", "", "", fmt(geomean(ratios), 2)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("paper reports the ratio ~5.6x; the shape claim is that the\n"
              "request network *looks* slower although the reply network is\n"
              "the congested one (verified by Fig. 4 and Fig. 13).\n");
  return bench::exit_status(results);
}
