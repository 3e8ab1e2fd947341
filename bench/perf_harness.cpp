// Cycles/sec and observer-cost harness.
//
// perfbench (perfbench/run.py) is the speed benchmark. This harness holds
// what perfbench does not: a byte gate over a wider cell grid and the cost
// of latency attribution.
//
// The first section times latency attribution (src/obs/attr): the same cell
// with and without an attached LatencyAttributor. Attribution must not
// perturb the simulation — the metrics byte-compare once the attr summary
// fields are scrubbed — and its wall-clock overhead is reported against the
// < 5% budget (a warning, not a gate: shared CI machines are too noisy for
// a hard wall-clock threshold).
//
// The second section times every cell, plus a 144-node 2x2 chiplet cell,
// with activity-driven stepping. Each cell's metrics JSON is byte-compared
// against one untimed always-on run of the same cell (a hard gate: a
// divergence is a missed-wake bug and fails the harness with exit 1). The
// report carries cycles/sec per cell plus the host's hardware concurrency.
//
// Usage:
//   perf_harness [--quick] [--out <file>]
//
//   --quick   shorter runs (CI smoke); full runs give steadier numbers
//   --out     output JSON path (default: BENCH_throughput.json)
//
// See docs/performance.md for how to read the output JSON.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "exec/thread_team.hpp"
#include "obs/attr.hpp"
#include "workloads/benchmark.hpp"

using namespace arinoc;

namespace {

struct Cell {
  std::string name;       ///< Short label ("low-inj", "saturated", ...).
  std::string workload;
  Scheme scheme;
  bool da2mesh = false;
  bool fault = false;
  bool chiplet = false;  ///< 2x2 chiplet of 6x6 meshes (144 nodes).
};

Config cell_config(const Cell& cell, bool quick) {
  Config cfg = apply_scheme(make_base_config(), cell.scheme);
  cfg.warmup_cycles = quick ? 500 : 2000;
  cfg.run_cycles = quick ? 8000 : 40000;
  cfg.seed = derive_cell_seed(cfg.seed, cell.workload);
  if (cell.fault) {
    // Corruption only — the campaign ext_fault_resilience certifies
    // deadlock-free. Stall/credit-loss rates that look mild on short runs
    // genuinely deadlock a saturated reply network at this length (also in
    // always-on mode); that is the watchdog's test to own, not a
    // throughput cell.
    cfg.fault_corrupt_rate = 1e-3;
  }
  if (cell.chiplet) {
    cfg.fabric = "chiplet";
    cfg.chiplets_x = cfg.chiplets_y = 2;
  }
  return cfg;
}

/// One timed simulation, with `attr` attached when non-null; returns
/// (metrics, cycles/sec).
std::pair<Metrics, double> timed_run(const Cell& cell, Config cfg,
                                     bool activity,
                                     obs::LatencyAttributor* attr = nullptr) {
  cfg.activity_driven = activity;
  GpgpuSim sim(cfg, *find_benchmark(cell.workload), cell.da2mesh);
  if (attr != nullptr) sim.attach_attributor(attr);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_with_warmup();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double total =
      static_cast<double>(cfg.warmup_cycles + cfg.run_cycles);
  return {sim.collect(), total / std::max(secs, 1e-9)};
}

std::string fabric_label(const Cell& c) {
  std::string fabric = c.da2mesh   ? "da2mesh"
                       : c.chiplet ? "chiplet2x2"
                                   : "mesh";
  if (c.fault) fabric += "+fault";
  return fabric;
}

/// One cell of the activity-driven cycles/sec table.
struct CellResult {
  Cell cell;
  double cps = 0.0;
  /// Metrics JSON byte-equal to the always-on reference run.
  bool identical = false;
};

struct AttrResult {
  Cell cell;
  double off_cps = 0.0;  ///< Cycles/sec without an attributor attached.
  double on_cps = 0.0;   ///< Cycles/sec with attribution recording.
  double overhead = 0.0; ///< off/on - 1 (fraction of wall-clock added).
  bool identical = false;  ///< Scrubbed attr-on metrics == attr-off metrics.
  std::uint64_t violations = 0;  ///< Conservation-check failures (want 0).
};

/// Times one cell with and without latency attribution (activity-driven
/// stepping both times). Attribution is host-side observation only, so the
/// attr-on metrics — with the attr summary fields scrubbed back out — must
/// byte-match the attr-off run; any difference means a hook perturbed the
/// simulation.
AttrResult run_attr_cell(const Cell& cell, bool quick) {
  const Config cfg = cell_config(cell, quick);
  AttrResult r;
  r.cell = cell;
  const auto off = timed_run(cell, cfg, /*activity=*/true);
  obs::LatencyAttributor attr;
  auto on = timed_run(cell, cfg, /*activity=*/true, &attr);
  r.off_cps = off.second;
  r.on_cps = on.second;
  r.overhead = r.off_cps / std::max(r.on_cps, 1e-9) - 1.0;

  Metrics& scrubbed = on.first;
  r.violations = scrubbed.attr_violations;
  scrubbed.attr_enabled = false;
  scrubbed.request_stage_share = {};
  scrubbed.reply_stage_share = {};
  scrubbed.attr_violations = 0;
  scrubbed.bottleneck.clear();
  r.identical = metrics_to_json(scrubbed) == metrics_to_json(off.first);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_harness [--quick] [--out <file>]\n");
      return 2;
    }
  }

  // Grid: injection rate is the lever activity gating responds to, so the
  // cells span near-idle through saturated, plus the fault and overlay
  // configurations whose wake edges are easiest to get wrong.
  const std::vector<Cell> cells = {
      {"low-inj-myocyte", "myocyte", Scheme::kAdaARI},
      {"low-inj-matrixMul", "matrixMul", Scheme::kAdaBaseline},
      {"mid-inj-hotspot", "hotspot", Scheme::kAdaMultiPort},
      {"saturated-bfs", "bfs", Scheme::kAdaARI},
      {"fault-bfs", "bfs", Scheme::kAdaARI, /*da2mesh=*/false, /*fault=*/true},
      {"overlay-hotspot", "hotspot", Scheme::kAdaARI, /*da2mesh=*/true},
  };

  // Attribution overhead: one light and one saturated cell cover the
  // per-packet hook cost at both ends of the injection range.
  std::printf("latency attribution overhead (budget: <5%% wall-clock):\n");
  std::vector<AttrResult> attr_results;
  bool attr_ok = true;
  for (const Cell& cell : {cells[1], cells[3]}) {
    const AttrResult a = run_attr_cell(cell, quick);
    std::printf("%-20s %9.0f -> %9.0f cyc/s  (+%.1f%%)%s%s\n",
                a.cell.name.c_str(), a.off_cps, a.on_cps, a.overhead * 100.0,
                a.identical ? "" : "  ** METRICS PERTURBED **",
                a.violations == 0 ? "" : "  ** CONSERVATION VIOLATED **");
    if (a.overhead > 0.05) {
      std::printf("  (warning: overhead %.1f%% above the 5%% budget — rerun "
                  "on a quiet machine before acting on it)\n",
                  a.overhead * 100.0);
    }
    attr_ok = attr_ok && a.identical && a.violations == 0;
    attr_results.push_back(a);
  }

  // Cells: activity-driven stepping, the production mode, timed once per
  // cell. Byte-identity against the cell's untimed always-on run is the
  // gate: activity gating may not change the model. The 144-node chiplet
  // cell is the largest fabric; the overlay cell steps the DA2mesh reply
  // side.
  std::vector<Cell> timed_cells = cells;
  timed_cells.push_back({"saturated-bfs-chiplet", "bfs", Scheme::kAdaARI,
                         false, false, /*chiplet=*/true});
  const unsigned hw = exec::hardware_threads();
  std::printf("\ncells (activity-driven, hw_concurrency=%u):\n", hw);
  std::vector<CellResult> cell_results;
  bool cells_identical = true;
  for (const Cell& cell : timed_cells) {
    const Config cfg = cell_config(cell, quick);
    const std::string reference =
        metrics_to_json(timed_run(cell, cfg, /*activity=*/false).first);
    const auto run = timed_run(cell, cfg, /*activity=*/true);
    CellResult r;
    r.cell = cell;
    r.cps = run.second;
    r.identical = metrics_to_json(run.first) == reference;
    cells_identical = cells_identical && r.identical;
    std::printf("%-28s %9.0f cyc/s%s\n", cell.name.c_str(), r.cps,
                r.identical ? "" : "  ** METRICS DIVERGED **");
    cell_results.push_back(r);
  }

  std::ostringstream js;
  js << "{\n" << bench::bench_json_stamp("throughput", make_base_config())
     << "  \"quick\": " << (quick ? "true" : "false")
     << ",\n  \"attr_overhead\": [\n";
  for (std::size_t i = 0; i < attr_results.size(); ++i) {
    const AttrResult& a = attr_results[i];
    js << "    {\"name\": \"" << a.cell.name << "\", \"workload\": \""
       << a.cell.workload << "\", \"scheme\": \""
       << scheme_name(a.cell.scheme)
       << "\", \"off_cps\": " << std::llround(a.off_cps)
       << ", \"on_cps\": " << std::llround(a.on_cps)
       << ", \"overhead\": " << a.overhead << ", \"non_perturbing\": "
       << (a.identical ? "true" : "false")
       << ", \"attr_violations\": " << a.violations << "}"
       << (i + 1 < attr_results.size() ? "," : "") << "\n";
  }
  js << "  ],\n  \"hw_concurrency\": " << hw << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cell_results.size(); ++i) {
    const CellResult& r = cell_results[i];
    js << "    {\"name\": \"" << r.cell.name << "\", \"workload\": \""
       << r.cell.workload << "\", \"scheme\": \""
       << scheme_name(r.cell.scheme) << "\", \"fabric\": \""
       << fabric_label(r.cell) << "\", \"cps\": " << std::llround(r.cps)
       << ", \"bit_identical\": " << (r.identical ? "true" : "false") << "}"
       << (i + 1 < cell_results.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::ofstream(out) << js.str();
  std::printf("wrote %s\n", out.c_str());

  if (!attr_ok) {
    std::fprintf(stderr,
                 "FAIL: latency attribution perturbed the simulation or "
                 "broke latency conservation\n");
    return 1;
  }
  if (!cells_identical) {
    std::fprintf(stderr,
                 "FAIL: activity-driven metrics diverged from the always-on "
                 "run\n");
    return 1;
  }
  return 0;
}
