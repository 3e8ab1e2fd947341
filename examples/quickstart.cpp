// Quickstart: build a Table-I GPGPU system, run one benchmark under the
// enhanced baseline and under full ARI, and print the headline metrics.
//
//   ./quickstart [benchmark] [run_cycles]
//
// Default: bfs, 15000 measured cycles after a 2000-cycle warmup.
#include <cstdio>
#include <string>

#include "common/parse_count.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "exec/options.hpp"
#include "workloads/benchmark.hpp"

using namespace arinoc;

int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "bfs";
  if (find_benchmark(bench) == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s'; available:\n",
                 bench.c_str());
    for (const auto& b : benchmark_suite()) {
      std::fprintf(stderr, "  %s (%s NoC sensitivity)\n", b.name.c_str(),
                   sensitivity_name(b.sensitivity));
    }
    return 1;
  }

  Config base = make_base_config();
  if (argc > 2 && !parse_count("run_cycles", argv[2], &base.run_cycles)) {
    return 2;
  }

  std::printf("%s\n", base.table1().c_str());
  std::printf("benchmark: %s\n\n", bench.c_str());

  const auto results =
      exec::ExperimentRunner(base, exec::default_exec_options(false))
          .run(grid({}, {Scheme::kAdaBaseline, Scheme::kAdaARI}, {bench}));
  for (const auto& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed (%s): %s\n", r.scheme.c_str(),
                   r.error_kind.c_str(), r.error.c_str());
      return r.exit_status;
    }
  }
  const Metrics& baseline = results[0].metrics;
  const Metrics& ari = results[1].metrics;

  TextTable t({"metric", "Ada-Baseline", "Ada-ARI", "ARI vs baseline"});
  auto rel = [](double a, double b) {
    return b != 0.0 ? fmt(a / b, 3) + "x" : std::string("-");
  };
  t.add_row({"IPC (warp instr/cycle)", fmt(baseline.ipc), fmt(ari.ipc),
             rel(ari.ipc, baseline.ipc)});
  t.add_row({"MC stall cycles", std::to_string(baseline.mc_stall_cycles),
             std::to_string(ari.mc_stall_cycles),
             rel(double(ari.mc_stall_cycles),
                 double(baseline.mc_stall_cycles))});
  t.add_row({"request pkt latency", fmt(baseline.request_latency, 1),
             fmt(ari.request_latency, 1),
             rel(ari.request_latency, baseline.request_latency)});
  t.add_row({"reply pkt latency", fmt(baseline.reply_latency, 1),
             fmt(ari.reply_latency, 1),
             rel(ari.reply_latency, baseline.reply_latency)});
  t.add_row({"reply injection link util", fmt(baseline.reply_injection_util),
             fmt(ari.reply_injection_util), ""});
  t.add_row({"reply in-network link util", fmt(baseline.reply_internal_util),
             fmt(ari.reply_internal_util), ""});
  t.add_row({"L1 hit rate", fmt_pct(baseline.l1_hit_rate),
             fmt_pct(ari.l1_hit_rate), ""});
  t.add_row({"L2 hit rate", fmt_pct(baseline.l2_hit_rate),
             fmt_pct(ari.l2_hit_rate), ""});
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
