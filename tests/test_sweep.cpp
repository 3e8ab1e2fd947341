// Sweep helpers: grid() layout, its execution order through the runner
// and CSV rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/sweep.hpp"

namespace arinoc {
namespace {

Config tiny() {
  Config cfg;
  cfg.warmup_cycles = 100;
  cfg.run_cycles = 500;
  return cfg;
}

std::vector<exec::CellResult> run(const std::vector<exec::CellSpec>& cells) {
  return exec::ExperimentRunner(tiny()).run(cells);
}

TEST(Sweep, RunsFullGridInOrder) {
  const auto cells = run(grid(
      {{"vc2",
        [](Config& c) {
          c.num_vcs = 2;
          // Tweaks run after the scheme preset: keep the ARI
          // knobs within the Eq.(2) bound.
          c.injection_speedup = std::min(c.injection_speedup, 2u);
          c.split_queues = std::min(c.split_queues, 2u);
        }},
       {"vc4", [](Config& c) { c.num_vcs = 4; }}},
      {Scheme::kXYBaseline, Scheme::kXYARI}, {"hotspot"}));
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].point, "vc2");
  EXPECT_EQ(cells[0].scheme, "XY-Baseline");
  EXPECT_EQ(cells[1].scheme, "XY-ARI");
  EXPECT_EQ(cells[2].point, "vc4");
  for (const auto& c : cells) {
    EXPECT_EQ(c.benchmark, "hotspot");
    EXPECT_GT(c.metrics.ipc, 0.0);
  }
}

TEST(Sweep, DefaultAxisIsBaseConfig) {
  const auto specs = grid({}, {Scheme::kXYBaseline}, {"matrixMul"});
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_FALSE(specs[0].tweak);
  const auto cells = run(specs);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].point, "base");
}

TEST(Sweep, CsvHasHeaderAndOneRowPerCell) {
  const auto cells =
      run(grid({}, {Scheme::kXYBaseline, Scheme::kAdaARI}, {"nn"}));
  const std::string csv = to_csv(cells);
  std::istringstream is(csv);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line.rfind("point,scheme,benchmark", 0), 0u);
  // Header columns match every row's field count.
  const auto cols = std::count(line.begin(), line.end(), ',');
  int rows = 0;
  while (std::getline(is, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), cols);
    ++rows;
  }
  EXPECT_EQ(rows, 2);
  EXPECT_NE(csv.find("Ada-ARI,nn"), std::string::npos);
}

}  // namespace
}  // namespace arinoc
