// Figure 5: relative percentage of the four packet types, flit-weighted.
// Paper: the reply network carries ~72.7% of all NoC traffic (vs 27.3%),
// dominated by long read-reply packets.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 5 — Flit-weighted packet-type mix (XY-Baseline)",
                "reply network ~72.7% of traffic; read_reply dominates");
  const Config base = make_base_config();
  const auto results = bench::run_grid(
      base, grid({}, {Scheme::kXYBaseline}, all_benchmark_names()), opts);

  TextTable t({"benchmark", "read_req", "write_req", "read_reply",
               "write_reply", "reply_share"});
  double reply_share_sum = 0.0;
  int n = 0;
  for (const auto& r : results) {
    const std::string& b = r.benchmark;
    const Metrics& m = r.metrics;
    const double total = static_cast<double>(
        m.flits_by_type[0] + m.flits_by_type[1] + m.flits_by_type[2] +
        m.flits_by_type[3]);
    if (total == 0.0) continue;
    auto pct = [&](int i) {
      return static_cast<double>(m.flits_by_type[static_cast<std::size_t>(i)]) / total;
    };
    const double reply_share = pct(2) + pct(3);
    reply_share_sum += reply_share;
    ++n;
    t.add_row({b, fmt_pct(pct(0)), fmt_pct(pct(1)), fmt_pct(pct(2)),
               fmt_pct(pct(3)), fmt_pct(reply_share)});
  }
  t.add_row({"MEAN", "", "", "", "", fmt_pct(reply_share_sum / n)});
  std::printf("%s\n", t.to_string().c_str());
  return bench::exit_status(results);
}
