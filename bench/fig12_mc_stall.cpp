// Figure 12: data stall time in the memory controllers (reply data blocked
// from entering the NI because the injection queues are full).
// Paper: XY-ARI cuts MC stall time by ~47.5% vs XY-Baseline; Ada-ARI by
// ~67.8% vs Ada-Baseline; MultiPort helps only a little.
#include <map>

#include "bench_util.hpp"
#include "workloads/suite.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  const exec::ExecOptions opts = exec::require_exec_flags(argc, argv);
  bench::banner("Figure 12 — Normalized MC data stall time",
                "XY-ARI -47.5%, Ada-ARI -67.8%, MultiPort small reduction");
  const Config base = make_base_config();
  const std::vector<Scheme> schemes = {
      Scheme::kXYBaseline, Scheme::kXYARI, Scheme::kAdaBaseline,
      Scheme::kAdaMultiPort, Scheme::kAdaARI};

  const std::vector<std::string> all = all_benchmark_names();
  const auto results = bench::run_grid(base, grid({}, schemes, all), opts);
  const bench::GridIndex at{schemes.size(), all.size()};
  const auto stall_of = [&](std::size_t s, std::size_t b) {
    return bench::mc_stall_of(results[at(0, s, b)].metrics);
  };

  // Normalize each benchmark to its XY-Baseline stall time; arithmetic
  // mean of the ratios (the paper's bars are per-benchmark normalized).
  std::map<int, std::vector<double>> stalls;
  std::vector<std::string> benches;
  for (std::size_t b = 0; b < all.size(); ++b) {
    const double base_stall = stall_of(0, b);
    if (base_stall < 1.0) continue;  // No stall to normalize against.
    benches.push_back(all[b]);
    stalls[0].push_back(1.0);
    for (std::size_t s = 1; s < schemes.size(); ++s) {
      stalls[static_cast<int>(s)].push_back(stall_of(s, b) / base_stall);
    }
  }

  std::vector<std::string> headers = {"benchmark"};
  for (Scheme s : schemes) headers.push_back(scheme_name(s));
  TextTable t(headers);
  for (std::size_t b = 0; b < benches.size(); ++b) {
    std::vector<std::string> row = {benches[b]};
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      row.push_back(fmt(stalls[static_cast<int>(s)][b], 3));
    }
    t.add_row(row);
  }
  std::vector<std::string> mean_row = {"MEAN"};
  std::vector<double> means;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    means.push_back(mean(stalls[static_cast<int>(s)]));
    mean_row.push_back(fmt(means.back(), 3));
  }
  t.add_row(mean_row);
  std::printf("MC stall time (normalized to XY-Baseline, lower is better)\n%s\n",
              t.to_string().c_str());
  std::printf("XY-ARI reduction: %.1f%% (paper: 47.5%%)\n",
              (1.0 - means[1]) * 100.0);
  std::printf("Ada-ARI reduction vs Ada-Baseline: %.1f%% (paper: 67.8%%)\n",
              means[2] > 0 ? (1.0 - means[4] / means[2]) * 100.0 : 0.0);
  return bench::exit_status(results);
}
