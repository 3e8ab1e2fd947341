// Ablation: VC buffer depth (packets per VC). Deeper buffers add storage,
// not injection throughput — the same lesson as Fig. 6's queue-capacity
// sweep: the baseline's bottleneck is the injection *rate*, so extra VC
// depth barely helps it, while ARI converts the same buffers into
// throughput.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Ablation — VC depth (packets per VC)",
                "buffering is not bandwidth: deeper VCs barely help the "
                "baseline");
  const Config base = make_base_config();
  const std::vector<std::string> benches = {"bfs", "mummergpu", "srad"};
  const std::vector<Scheme> schemes = {Scheme::kAdaBaseline,
                                       Scheme::kAdaARI};

  // Depth 1 is Table I's default, so Ada-Baseline at depth=1 is the
  // reference every row is normalized to.
  std::vector<SweepPoint> points;
  for (std::uint32_t depth = 1; depth <= 3; ++depth) {
    points.push_back({"depth=" + std::to_string(depth),
                      [depth](Config& c) { c.vc_depth_pkts = depth; }});
  }
  const auto results =
      bench::run_grid(base, grid(points, schemes, benches), opts);
  const bench::GridIndex at{schemes.size(), benches.size()};

  TextTable t({"depth(pkts)", "scheme", "bfs", "mummergpu", "srad"});
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      std::vector<std::string> row = {std::to_string(p + 1),
                                      scheme_name(schemes[s])};
      for (std::size_t b = 0; b < benches.size(); ++b) {
        const double ref = results[at(0, 0, b)].metrics.ipc;
        row.push_back(fmt(results[at(p, s, b)].metrics.ipc / ref, 3));
      }
      t.add_row(row);
    }
  }
  std::printf("IPC normalized to Ada-Baseline at depth 1\n%s\n",
              t.to_string().c_str());
  return bench::exit_status(results);
}
