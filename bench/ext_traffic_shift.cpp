// Extension experiment (paper §2.2 future work): techniques outside the
// NoC shift the traffic the NoC sees — cache bypassing (MRPB-like)
// increases it, inter-warp request coalescing (WarpPool-like) reduces it.
// The paper approximates this with its high/medium/low sensitivity mix;
// here we apply the shifts directly and measure how ARI's benefit moves.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Extension — ARI under shifted NoC traffic intensity",
                "more traffic (L1 bypass / no inter-warp merge) => larger "
                "ARI benefit; less traffic => smaller");
  const Config base = make_base_config();
  const std::vector<std::string> benches = {"bfs", "srad", "hotspot", "nn"};

  struct Mode {
    const char* name;
    bool bypass;
    bool merge;
  };
  const Mode modes[] = {
      {"default (L1 + merge)", false, true},
      {"no inter-warp merge", false, false},
      {"L1 bypass", true, true},
      {"L1 bypass + no merge", true, false},
  };

  std::vector<SweepPoint> points;
  for (const Mode& mode : modes) {
    points.push_back({mode.name, [mode](Config& c) {
                        c.l1_bypass = mode.bypass;
                        c.cross_warp_merge = mode.merge;
                      }});
  }
  const auto results = bench::run_grid(
      base, grid(points, {Scheme::kAdaBaseline, Scheme::kAdaARI}, benches),
      opts);
  const bench::GridIndex at{2, benches.size()};

  for (std::size_t b = 0; b < benches.size(); ++b) {
    TextTable t({"traffic mode", "Ada-Baseline IPC", "Ada-ARI IPC",
                 "ARI gain", "reply inj util (base)"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      const Metrics& m0 = results[at(p, 0, b)].metrics;
      const Metrics& m1 = results[at(p, 1, b)].metrics;
      t.add_row({points[p].label, fmt(m0.ipc, 3), fmt(m1.ipc, 3),
                 fmt(m1.ipc / m0.ipc, 3) + "x",
                 fmt(m0.reply_injection_util, 3)});
    }
    std::printf("%s\n%s\n", benches[b].c_str(), t.to_string().c_str());
  }
  return bench::exit_status(results);
}
