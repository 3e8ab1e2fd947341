// Section 7.5(2): scalability over mesh sizes, extended with a fabric axis.
// Paper: ARI's IPC improvement grows with network size — +3.7% (4x4),
// +15.4% (6x6), +24.7% (8x8) — NoC latency/throughput matter more in
// bigger chips. The extension runs the same size ladder on the torus and
// chiplet fabrics (docs/fabrics.md): the scaling trend is topological, so
// it should survive wraparound links and die-boundary serdes.
#include "bench_util.hpp"
#include "core/sweep.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Section 7.5(2) — Scalability (4x4 / 6x6 / 8x8, by fabric)",
                "ARI improvement grows with mesh size: +3.7% / +15.4% / "
                "+24.7%");
  const Config base = make_base_config();
  // The high+medium sensitivity mix drives the comparison; low-sensitivity
  // benchmarks dilute all sizes equally.
  std::vector<std::string> mix = benchmarks_with(Sensitivity::kHigh);
  for (const auto& b : benchmarks_with(Sensitivity::kMedium)) {
    mix.push_back(b);
  }

  // One (grid size x fabric x scheme x benchmark) sweep on the exec pool.
  // MC count scales with the grid so the CC:MC ratio (the few-to-many
  // pattern driving the bottleneck) stays ~3.5:1. The chiplet point splits
  // the same grid into 2x2 dies (keeping node count and MC placement), so
  // within a column size is the only variable.
  const std::vector<std::uint32_t> sizes = {4u, 6u, 8u};
  const std::vector<std::string> fabrics = {"mesh", "torus", "chiplet"};
  std::vector<SweepPoint> points;
  for (std::uint32_t k : sizes) {
    const std::uint32_t mcs = static_cast<std::uint32_t>(k * k / 4.5 + 0.5);
    for (const std::string& f : fabrics) {
      points.push_back({std::to_string(k) + "x" + std::to_string(k) + "-" + f,
                        [k, mcs, f](Config& c) {
                          c.fabric = f;
                          c.num_mcs = mcs;
                          if (f == "chiplet") {
                            c.chiplets_x = c.chiplets_y = 2;
                            c.mesh_width = c.mesh_height = k / 2;
                          } else {
                            c.mesh_width = c.mesh_height = k;
                          }
                        }});
    }
  }
  const auto cells = bench::run_grid(
      base, grid(points, {Scheme::kAdaBaseline, Scheme::kAdaARI}, mix), opts);
  const bench::GridIndex at{2, mix.size()};

  TextTable t({"grid", "fabric", "ccs", "mcs", "Ada-Baseline geo-IPC",
               "Ada-ARI geo-IPC", "ARI gain"});
  std::size_t p = 0;
  for (std::uint32_t k : sizes) {
    const std::uint32_t mcs = static_cast<std::uint32_t>(k * k / 4.5 + 0.5);
    for (const std::string& f : fabrics) {
      std::vector<double> b_ipc, a_ipc;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        b_ipc.push_back(cells[at(p, 0, i)].metrics.ipc);
        a_ipc.push_back(cells[at(p, 1, i)].metrics.ipc);
      }
      ++p;
      const double gb = geomean_guarded(b_ipc), ga = geomean_guarded(a_ipc);
      t.add_row({std::to_string(k) + "x" + std::to_string(k), f,
                 std::to_string(k * k - mcs), std::to_string(mcs),
                 fmt(gb, 3), fmt(ga, 3), fmt_pct(ga / gb - 1.0)});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("shape check: within each fabric, the 'ARI gain' column "
              "increases with grid size.\n");
  return bench::exit_status(cells);
}
