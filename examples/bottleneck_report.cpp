// Bottleneck analysis: reproduce the paper's Section-3 diagnosis on any
// benchmark, show the verdict moving after ARI is applied, and name where
// the baseline's NoC latency accumulates.
//
//   ./bottleneck_report [benchmark]
#include <cstdio>
#include <string>

#include "core/analyzer.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "obs/attr.hpp"

using namespace arinoc;

int main(int argc, char** argv) {
  const std::string bench = argc > 1 ? argv[1] : "bfs";
  const BenchmarkTraits* traits = find_benchmark(bench);
  if (traits == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
    return 1;
  }
  const Config base = make_base_config();
  const BottleneckAnalyzer analyzer(/*saturation_threshold=*/0.8);

  std::printf("=== %s under Ada-Baseline (paper Section 3) ===\n",
              bench.c_str());
  // Attribution never perturbs the simulation, so the same run feeds both
  // the utilization verdict and the latency breakdown below.
  GpgpuSim sim(apply_scheme(base, Scheme::kAdaBaseline), *traits);
  obs::LatencyAttributor attr;
  sim.attach_attributor(&attr);
  sim.run_with_warmup();
  const BottleneckReport before = analyzer.diagnose(sim);
  std::printf("%s\n", before.to_string().c_str());

  std::printf("=== %s under Ada-ARI ===\n", bench.c_str());
  const BottleneckReport after =
      analyzer.analyze(apply_scheme(base, Scheme::kAdaARI), *traits);
  std::printf("%s\n", after.to_string().c_str());

  std::printf("before: %-38s  IPC %.3f\n", before.verdict.c_str(),
              before.metrics.ipc);
  std::printf("after:  %-38s  IPC %.3f\n\n", after.verdict.c_str(),
              after.metrics.ipc);

  // Where the baseline's packets wait (the §4.1 "hot regions" around
  // memory controllers), on any fabric.
  std::printf("top NoC latency bottlenecks under Ada-Baseline "
              "(%% of that network's waiting):\n");
  for (const obs::BottleneckEntry& e : attr.bottlenecks(3)) {
    std::printf("  %5.1f%%  %s\n", e.share * 100.0,
                attr.entry_label(e).c_str());
  }
  return 0;
}
