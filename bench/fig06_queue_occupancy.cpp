// Figure 6: NI injection-queue occupancy vs queue capacity.
// Paper: occupancy closely tracks capacity from 4 to 80 long packets —
// proof that the injection point is the bottleneck (any extra buffering
// immediately fills with waiting reply packets).
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 6 — NI injection queue occupancy vs capacity",
                "occupancy tracks capacity from 4 to 80 packets "
                "(pathfinder, hotspot, srad, bfs)");
  const Config base = make_base_config();
  const std::vector<std::uint32_t> capacities = {4, 8, 16, 32, 48, 64, 80};
  const std::vector<std::string> benches = fig6_benchmarks();
  std::vector<SweepPoint> points;
  for (std::uint32_t cap : capacities) {
    points.push_back({"cap=" + std::to_string(cap), [cap](Config& c) {
                        c.ni_queue_flits = cap * c.reply_long_flits();
                      }});
  }
  const auto results = bench::run_grid(
      base, grid(points, {Scheme::kXYBaseline}, benches), opts);
  const bench::GridIndex at{1, benches.size()};

  std::vector<std::string> headers = {"capacity(pkts)"};
  for (const auto& b : benches) headers.push_back(b);
  TextTable t(headers);

  for (std::size_t p = 0; p < capacities.size(); ++p) {
    std::vector<std::string> row = {std::to_string(capacities[p])};
    for (std::size_t b = 0; b < benches.size(); ++b) {
      const Metrics& m = results[at(p, 0, b)].metrics;
      row.push_back(fmt(m.ni_occupancy_pkts, 1));
    }
    t.add_row(row);
  }
  std::printf("mean reply-NI occupancy in packets\n%s\n",
              t.to_string().c_str());
  std::printf("shape check: for NoC-bound benchmarks the occupancy column\n"
              "rises with capacity (queues fill no matter how large).\n");
  return bench::exit_status(results);
}
