// Extension: the ARI schemes on arbitrary fabrics.
// Sweeps fabric (mesh / torus / cmesh / chiplet) x scheme x load (the
// low/mid/high-intensity workload mix) on the exec pool, prints the
// per-fabric ARI gain, and writes BENCH_fabric_sweep.json for CI schema
// validation and plotting.
//
// Flags: the shared exec flags (see src/exec/options.hpp) plus
//   --out PATH   output JSON path (default: BENCH_fabric_sweep.json)
//   --quick      short runs (CI smoke; marked "quick": true in the JSON)
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sweep.hpp"
#include "exec/options.hpp"
#include "obs/regress/baseline.hpp"
#include "obs/regress/json.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  using obs::regress::json_escape;

  exec::ExecOptions opts = exec::default_exec_options(true);
  if (!exec::parse_exec_flags(argc, argv, opts)) return 2;
  std::string out_path = "BENCH_fabric_sweep.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      return exec::unknown_option(argv[i], "--out F, --quick");
    }
  }
  if (!obs::regress::require_parent_dir(out_path, "--out")) return 2;

  bench::banner("Extension — ARI across fabrics (mesh/torus/cmesh/chiplet)",
                "the reply bottleneck is topological, not mesh-specific: "
                "ARI should help wherever few MCs feed many CCs");

  Config base = make_base_config();
  if (quick) {
    base.warmup_cycles = 500;
    base.run_cycles = 4000;
  }

  // Load axis: the workload mix spans injection intensity (matrixMul low,
  // hotspot mid, bfs saturating), so each fabric is seen under light and
  // congested reply traffic.
  const std::vector<std::string> loads = {"matrixMul", "hotspot", "bfs"};
  const std::vector<Scheme> schemes = {Scheme::kXYBaseline, Scheme::kXYARI,
                                       Scheme::kAdaBaseline, Scheme::kAdaARI};

  // Fabric axis shared with ext_fault_resilience / ext_serving_tail
  // (their --fabric flag), so the three benches run identical fabrics.
  const std::vector<SweepPoint> points = bench::fabric_axis_points();
  const auto cells =
      exec::ExperimentRunner(base, opts).run(grid(points, schemes, loads));

  // Per-fabric geomean IPC per scheme + the Ada-ARI / Ada-Baseline gain.
  TextTable t({"fabric", "XY-Base geo-IPC", "XY-ARI geo-IPC",
               "Ada-Base geo-IPC", "Ada-ARI geo-IPC", "ARI gain"});
  std::ostringstream json;
  json << "{\n" << bench::bench_json_stamp("fabric_sweep", base)
       << "  \"quick\": " << (quick ? "true" : "false")
       << ",\n  \"cells\": [\n";
  bool first_cell = true;
  std::ostringstream summary;
  const bench::GridIndex at{schemes.size(), loads.size()};
  int failures = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<double> geo;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      std::vector<double> ipc;
      for (std::size_t b = 0; b < loads.size(); ++b) {
        const exec::CellResult& c = cells[at(p, s, b)];
        ipc.push_back(c.metrics.ipc);
        if (!c.ok()) {
          ++failures;
          std::fprintf(stderr, "FAILED cell %s/%s/%s: %s: %s\n",
                       c.point.c_str(), c.scheme.c_str(),
                       c.benchmark.c_str(), c.error_kind.c_str(),
                       c.error.c_str());
        }
        if (!first_cell) json << ",\n";
        first_cell = false;
        json << "    {\"fabric\": \"" << json_escape(c.point)
             << "\", \"scheme\": \"" << json_escape(c.scheme)
             << "\", \"benchmark\": \"" << json_escape(c.benchmark)
             << "\", \"ipc\": " << c.metrics.ipc
             << ", \"reply_latency\": " << c.metrics.reply_latency
             << ", \"reply_latency_p99\": " << c.metrics.reply_latency_p99
             << ", \"mc_stall_cycles\": " << c.metrics.mc_stall_cycles
             << ", \"error\": \"" << json_escape(c.error) << "\"}";
      }
      geo.push_back(geomean_guarded(ipc));
    }
    const double gain = geo[3] / geo[2] - 1.0;
    t.add_row({points[p].label, fmt(geo[0], 3), fmt(geo[1], 3),
               fmt(geo[2], 3), fmt(geo[3], 3), fmt_pct(gain)});
    summary << (p == 0 ? "" : ",\n") << "    {\"fabric\": \""
            << json_escape(points[p].label)
            << "\", \"ada_baseline_geo_ipc\": " << geo[2]
            << ", \"ada_ari_geo_ipc\": " << geo[3]
            << ", \"ari_gain\": " << gain << "}";
  }
  json << "\n  ],\n  \"summary\": [\n" << summary.str() << "\n  ],\n"
       << "  \"failures\": " << failures << "\n}\n";

  std::printf("%s\n", t.to_string().c_str());
  std::printf("shape check: ARI gain is positive on every fabric; the\n"
              "concentrated fabrics (cmesh, chiplet) funnel replies through\n"
              "fewer links, so their baselines sit deeper in saturation.\n");

  if (!bench::write_bench_json(out_path, json.str())) return 1;
  return failures == 0 ? 0 : 1;
}
