// Figure 4: impact of widening request vs reply network links.
// Paper: 256-bit request links buy +0.8% IPC; 256-bit reply links +25.6%.
#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 4 — Impact of link widths (128-128 / 256-128 / 128-256)",
                "widening the request net: +0.8% IPC; widening the reply "
                "net: +25.6% IPC");
  const Config base = make_base_config();
  const std::vector<std::string> benches = all_benchmark_names();
  const auto results = bench::run_grid(
      base,
      grid({{"128-128", nullptr},
            {"256-128", [](Config& c) { c.link_width_bits_request = 256; }},
            {"128-256", [](Config& c) { c.link_width_bits_reply = 256; }}},
           {Scheme::kXYBaseline}, benches),
      opts);
  const bench::GridIndex at{1, benches.size()};

  TextTable t({"benchmark", "128-128", "256-128", "128-256"});
  std::vector<double> g256req, g128rep;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const Metrics& m0 = results[at(0, 0, i)].metrics;
    const Metrics& mr = results[at(1, 0, i)].metrics;
    const Metrics& mp = results[at(2, 0, i)].metrics;
    g256req.push_back(mr.ipc / m0.ipc);
    g128rep.push_back(mp.ipc / m0.ipc);
    t.add_row({b, "1.000", fmt(mr.ipc / m0.ipc, 3), fmt(mp.ipc / m0.ipc, 3)});
  }
  t.add_row({"GEOMEAN", "1.000", fmt(geomean(g256req), 3),
             fmt(geomean(g128rep), 3)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("shape check: 256-128 ~ 1.0x (useless), 128-256 >> 256-128 —\n"
              "the reply network is the limiting factor.\n");
  return bench::exit_status(results);
}
