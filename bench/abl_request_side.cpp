// Negative control: apply ARI's mechanisms to the *request* side as well
// (split CC NIs + CC-router injection speedup). The paper's diagnosis says
// the bottleneck is the reply injection point, so request-side ARI should
// buy ~nothing on top of (a) the baseline and (b) reply-side ARI — the
// same logic as Fig. 4's request-link-widening result, applied to the
// mechanism itself.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Negative control — ARI applied to the request side",
                "request-side ARI alone ~1.0x; adds ~nothing on top of "
                "reply-side ARI");
  const Config base = make_base_config();
  const std::vector<std::string> benches = {"bfs", "mummergpu", "srad",
                                            "kmeans", "hotspot", "nn"};

  const auto results = bench::run_grid(
      base,
      grid({{"reply-side", nullptr},
            {"request-side", [](Config& c) { c.request_side_ari = true; }}},
           {Scheme::kAdaBaseline, Scheme::kAdaARI}, benches),
      opts);
  const bench::GridIndex at{2, benches.size()};

  TextTable t({"benchmark", "Ada-Baseline", "+req-side ARI only",
               "Ada-ARI (reply)", "Ada-ARI + req-side"});
  std::vector<double> req_only, reply_only, both;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const double v0 = results[at(0, 0, i)].metrics.ipc;
    const double v1 = results[at(1, 0, i)].metrics.ipc;
    const double v2 = results[at(0, 1, i)].metrics.ipc;
    const double v3 = results[at(1, 1, i)].metrics.ipc;
    req_only.push_back(v1 / v0);
    reply_only.push_back(v2 / v0);
    both.push_back(v3 / v0);
    t.add_row({b, "1.000", fmt(v1 / v0, 3), fmt(v2 / v0, 3),
               fmt(v3 / v0, 3)});
  }
  t.add_row({"GEOMEAN", "1.000", fmt(geomean(req_only), 3),
             fmt(geomean(reply_only), 3), fmt(geomean(both), 3)});
  std::printf("IPC normalized to Ada-Baseline\n%s\n", t.to_string().c_str());
  std::printf("shape check: column 2 ~ 1.0 and column 4 ~ column 3 — only\n"
              "the reply side matters, confirming the paper's diagnosis.\n");
  return bench::exit_status(results);
}
