// Figure 13: average packet latency decomposed into request and reply
// parts, per scheme (reply latency includes the NI injection wait).
// Paper: ARI reduces reply latency as designed, and request latency drops
// too although ARI never touches the request network — confirming the
// bottleneck was on the reply side.
#include <map>

#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 13 — Packet latency split (request + reply)",
                "ARI cuts reply latency AND request latency (untouched "
                "request network) — backpressure removed at the source");
  const Config base = make_base_config();
  const std::vector<Scheme> schemes = {
      Scheme::kXYBaseline, Scheme::kXYARI, Scheme::kAdaBaseline,
      Scheme::kAdaMultiPort, Scheme::kAdaARI};
  const std::vector<std::string> benches = all_benchmark_names();
  const auto results = bench::run_grid(base, grid({}, schemes, benches), opts);
  const bench::GridIndex at{schemes.size(), benches.size()};

  std::vector<std::string> headers = {"benchmark"};
  for (Scheme s : schemes) {
    headers.push_back(std::string(scheme_name(s)) + " req+rep");
  }
  TextTable t(headers);

  std::map<int, std::vector<double>> totals;
  std::map<int, double> req_sums, rep_sums, rep_p99_sums;
  for (std::size_t b = 0; b < benches.size(); ++b) {
    std::vector<std::string> row = {benches[b]};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const Metrics& m = results[at(0, s, b)].metrics;
      totals[static_cast<int>(s)].push_back(m.request_latency +
                                            m.reply_latency);
      req_sums[static_cast<int>(s)] += m.request_latency;
      rep_sums[static_cast<int>(s)] += m.reply_latency;
      rep_p99_sums[static_cast<int>(s)] += m.reply_latency_p99;
      row.push_back(fmt(m.request_latency, 0) + "+" +
                    fmt(m.reply_latency, 0));
    }
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());

  // ARI's tail-latency claim: the p99 column shows the backpressure fix
  // compresses the distribution, not just its mean.
  TextTable sum({"scheme", "mean req lat", "mean reply lat",
                 "mean reply p99", "total"});
  const double n = static_cast<double>(benches.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    sum.add_row({scheme_name(schemes[s]),
                 fmt(req_sums[static_cast<int>(s)] / n, 1),
                 fmt(rep_sums[static_cast<int>(s)] / n, 1),
                 fmt(rep_p99_sums[static_cast<int>(s)] / n, 1),
                 fmt((req_sums[static_cast<int>(s)] +
                      rep_sums[static_cast<int>(s)]) / n, 1)});
  }
  std::printf("%s\n", sum.to_string().c_str());
  return bench::exit_status(results);
}
