#include "bench_util.hpp"

#include <sstream>

#include "exec/runner.hpp"
#include "obs/regress/provenance.hpp"
#include "obs/regress/trend.hpp"

namespace arinoc::bench {

std::vector<exec::CellResult> run_grid(const Config& base,
                                       const std::vector<exec::CellSpec>& cells,
                                       const exec::ExecOptions& opts) {
  std::vector<exec::CellResult> results =
      exec::ExperimentRunner(base, opts).run(cells);
  for (const auto& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "!! %s/%s failed (%s): %s\n", r.scheme.c_str(),
                   r.benchmark.c_str(), r.error_kind.c_str(),
                   r.error.c_str());
    }
  }
  return results;
}

int exit_status(const std::vector<exec::CellResult>& results) {
  for (const auto& r : results) {
    if (!r.ok()) return r.exit_status;
  }
  return 0;
}

Normalized run_and_print_normalized(const Config& base,
                                    const std::vector<Scheme>& schemes,
                                    const std::vector<std::string>& benchmarks,
                                    MetricFn fn, const char* metric_name,
                                    bool higher_is_better,
                                    const exec::ExecOptions& opts) {
  // Run the whole grid up front (parallel, cache-aware), then render.
  const auto results = run_grid(base, grid({}, schemes, benchmarks), opts);
  const GridIndex at{schemes.size(), benchmarks.size()};
  auto value_of = [&](std::size_t s, std::size_t b) {
    return fn(results[at(0, s, b)].metrics);
  };

  std::vector<std::string> headers = {"benchmark"};
  for (Scheme s : schemes) headers.push_back(scheme_name(s));
  TextTable table(headers);

  std::vector<std::vector<double>> ratios(schemes.size());
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    std::vector<std::string> row = {benchmarks[b]};
    const double baseline = value_of(0, b);
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const double r = baseline != 0.0 ? value_of(s, b) / baseline : 0.0;
      ratios[s].push_back(r);
      row.push_back(fmt(r, 3));
    }
    table.add_row(row);
  }
  std::vector<std::string> geo_row = {"GEOMEAN"};
  Normalized out{{}, exit_status(results)};
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const double g = geomean_guarded(ratios[s]);  // Guards zeroed cells.
    out.geomeans.push_back(g);
    geo_row.push_back(fmt(g, 3));
  }
  table.add_row(geo_row);

  std::printf("%s (normalized to %s, %s)\n", metric_name,
              scheme_name(schemes[0]),
              higher_is_better ? "higher is better" : "lower is better");
  std::printf("%s\n", table.to_string().c_str());
  return out;
}

std::vector<SweepPoint> fabric_axis_points() {
  const auto grid_4x4 = [](Config& c) {
    c.mesh_width = c.mesh_height = 4;
    c.num_mcs = 4;
  };
  return {
      {"mesh", [grid_4x4](Config& c) {
         grid_4x4(c);
         c.fabric = "mesh";
       }},
      {"torus", [grid_4x4](Config& c) {
         grid_4x4(c);
         c.fabric = "torus";
       }},
      {"cmesh", [](Config& c) {
         c.fabric = "cmesh";
         c.mesh_width = c.mesh_height = 2;
         c.cmesh_concentration = 4;
         c.num_mcs = 2;
       }},
      {"chiplet", [](Config& c) {
         c.fabric = "chiplet";
         c.mesh_width = c.mesh_height = 2;
         c.chiplets_x = c.chiplets_y = 2;
         c.num_mcs = 4;
       }},
  };
}

std::string bench_json_stamp(const char* kind, const Config& base) {
  obs::regress::Provenance p = obs::regress::collect_provenance();
  p.config_hash = obs::regress::config_hash_hex(base);
  p.seed = base.seed;
  std::ostringstream os;
  os << "  \"schema\": \"" << obs::regress::kBenchSchema << "\",\n"
     << "  \"kind\": \"" << kind << "\",\n"
     << "  \"provenance\": " << obs::regress::provenance_json(p) << ",\n";
  return os.str();
}

bool apply_fabric(const std::string& fabric, Config& c) {
  for (const SweepPoint& p : fabric_axis_points()) {
    if (p.label == fabric) {
      p.tweak(c);
      return true;
    }
  }
  std::fprintf(stderr, "unknown fabric '%s' (want mesh|torus|cmesh|chiplet)\n",
               fabric.c_str());
  return false;
}

}  // namespace arinoc::bench
