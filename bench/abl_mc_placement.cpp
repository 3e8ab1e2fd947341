// Ablation: memory-controller placement (diamond vs top/bottom edge vs
// clustered column). Table I uses the diamond placement "to make a
// competitive baseline" (Abts et al. ISCA'09); this ablation shows why —
// and that ARI helps on top of any placement.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Ablation — MC placement (diamond / top-bottom / column)",
                "diamond is the competitive baseline; ARI composes with "
                "every placement");
  const Config base = make_base_config();
  const std::vector<std::string> benches = {"bfs", "mummergpu", "srad",
                                            "hotspot"};
  const McPlacement placements[] = {
      McPlacement::kDiamond, McPlacement::kTopBottom, McPlacement::kColumn};
  std::vector<SweepPoint> points;
  for (McPlacement p : placements) {
    points.push_back(
        {placement_name(p), [p](Config& c) { c.mc_placement = p; }});
  }
  const auto results = bench::run_grid(
      base, grid(points, {Scheme::kAdaBaseline, Scheme::kAdaARI}, benches),
      opts);
  const bench::GridIndex at{2, benches.size()};

  for (std::size_t b = 0; b < benches.size(); ++b) {
    TextTable t({"placement", "Ada-Baseline IPC", "Ada-ARI IPC", "ARI gain"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      const double base_ipc = results[at(p, 0, b)].metrics.ipc;
      const double ari_ipc = results[at(p, 1, b)].metrics.ipc;
      t.add_row({points[p].label, fmt(base_ipc, 3), fmt(ari_ipc, 3),
                 fmt(ari_ipc / base_ipc, 3) + "x"});
    }
    std::printf("%s\n%s\n", benches[b].c_str(), t.to_string().c_str());
  }
  return bench::exit_status(results);
}
