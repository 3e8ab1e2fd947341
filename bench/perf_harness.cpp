// Host-parallelism and observer-cost harness.
//
// perfbench (perfbench/run.py) times the simulator's activity-driven cells
// at one network thread. This harness holds what perfbench cannot: the
// domain-decomposition thread matrix and the cost of latency attribution.
//
// The first section times latency attribution (src/obs/attr): the same cell
// with and without an attached LatencyAttributor. Attribution must not
// perturb the simulation — the metrics byte-compare once the attr summary
// fields are scrubbed — and its wall-clock overhead is reported against the
// < 5% budget (a warning, not a gate: shared CI machines are too noisy for
// a hard wall-clock threshold).
//
// The second section sweeps the thread matrix: every cell, plus a 144-node
// 2x2 chiplet cell, at 1/2/4/8 network threads with activity-driven
// stepping. Each point's metrics JSON is byte-compared against one untimed
// always-on, 1-thread run of the same cell (a hard gate: a divergence is a
// missed-wake or domain-merge bug and fails the harness with exit 1). The
// report carries cycles/sec per point plus the host's hardware concurrency;
// speedup is reported, not gated — a 1-core CI runner cannot scale
// wall-clock no matter how correct the decomposition is.
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

/// One (cell, thread-count) point of the domain-decomposition matrix.
struct ThreadResult {
  Cell cell;
  unsigned threads = 0;
  double cps = 0.0;
  double speedup = 0.0;    ///< vs the same cell at threads == 1.
  /// Metrics JSON byte-equal to the always-on 1-thread reference run.
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

  // Thread matrix: every cell at 1/2/4/8 network threads (activity-driven
  // stepping, the production mode). Byte-identity against the cell's
  // untimed always-on 1-thread run is the gate — neither activity gating
  // nor parallelism may change the model. The speedups are reported, not
  // gated: wall-clock scaling needs real cores, so hw_concurrency rides
  // along and numbers from a 1-core CI runner honestly show ~1.0x (barrier
  // overhead included). The overlay cell always steps serially (its
  // endpoint coupling is not decomposable), so its rows are a serial
  // control. The 144-node chiplet cell is where splitting should pay: four
  // dies, one per domain at 4 threads, joined only by serdes links.
  std::vector<Cell> matrix_cells = cells;
  matrix_cells.push_back({"saturated-bfs-chiplet", "bfs", Scheme::kAdaARI,
                          false, false, /*chiplet=*/true});
  const unsigned hw = exec::hardware_threads();
  std::printf("\ndomain decomposition (threads x cells, hw_concurrency=%u):\n",
              hw);
  std::vector<ThreadResult> thread_results;
  bool threads_identical = true;
  for (const Cell& cell : matrix_cells) {
    const std::string reference = metrics_to_json(
        timed_run(cell, cell_config(cell, quick), /*activity=*/false).first);
    double base_cps = 0.0;
    for (const unsigned t : {1u, 2u, 4u, 8u}) {
      Config cfg = cell_config(cell, quick);
      cfg.threads = t;
      const auto run = timed_run(cell, cfg, /*activity=*/true);
      ThreadResult r;
      r.cell = cell;
      r.threads = t;
      r.cps = run.second;
      if (t == 1) base_cps = run.second;
      r.speedup = run.second / std::max(base_cps, 1e-9);
      r.identical = metrics_to_json(run.first) == reference;
      threads_identical = threads_identical && r.identical;
      std::printf("%-28s threads=%u %9.0f cyc/s  (%.2fx)%s\n",
                  cell.name.c_str(), t, r.cps, r.speedup,
                  r.identical ? "" : "  ** METRICS DIVERGED **");
      thread_results.push_back(r);
    }
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
  js << "  ],\n  \"hw_concurrency\": " << hw
     << ",\n  \"thread_matrix\": [\n";
  for (std::size_t i = 0; i < thread_results.size(); ++i) {
    const ThreadResult& r = thread_results[i];
    js << "    {\"name\": \"" << r.cell.name << "\", \"workload\": \""
       << r.cell.workload << "\", \"scheme\": \""
       << scheme_name(r.cell.scheme) << "\", \"fabric\": \""
       << fabric_label(r.cell) << "\", \"threads\": " << r.threads
       << ", \"cps\": " << std::llround(r.cps)
       << ", \"speedup_vs_1t\": " << r.speedup << ", \"bit_identical\": "
       << (r.identical ? "true" : "false") << "}"
       << (i + 1 < thread_results.size() ? "," : "") << "\n";
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
  if (!threads_identical) {
    std::fprintf(stderr,
                 "FAIL: thread-matrix metrics diverged from the always-on "
                 "1-thread run\n");
    return 1;
  }
  return 0;
}
