#include "bench_util.hpp"

#include <fstream>
#include <sstream>

#include "obs/regress/baseline.hpp"
#include "obs/regress/provenance.hpp"
#include "obs/regress/trend.hpp"

namespace arinoc::bench {

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

bool out_dir_exists(const std::string& path) {
  if (obs::regress::parent_dir_exists(path)) return true;
  std::fprintf(stderr,
               "error: --out '%s': parent directory '%s' does not exist\n",
               path.c_str(), obs::regress::parent_dir_of(path).c_str());
  return false;
}

bool write_bench_json(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::trunc);
  if (out) out << body;
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace arinoc::bench
