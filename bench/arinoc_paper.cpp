// arinoc_paper: the paper's evaluation — Table I, Figs. 3-16, §3, §6.1,
// §7.5 and the ablations — run as one grid.
//
//   arinoc_paper --figure <id>|all [exec flags]
//
// <id> names an entry of kFigures; `all` runs them all, in list order. The
// exec flags are those of exec/options.hpp; the result cache is on by
// default. The cells of the selected figures run in one
// ExperimentRunner::run call, which simulates each distinct cell once, and
// each figure prints from its own slice of the results, so its stdout does
// not depend on --jobs or on the figures run with it. A failed cell is
// reported on stderr and renders with zeroed metrics; the exit status is
// then the first failed cell's (2 config, 3/4/5 watchdog, 1 runtime). A
// usage error exits 2.
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/area_model.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/scheme.hpp"
#include "exec/runner.hpp"
#include "workloads/suite.hpp"

namespace arinoc::bench {
namespace {

/// One figure's slice of the grid's results, in the order of its cells().
using Results = std::span<const exec::CellResult>;

/// One entry of the paper suite. The driver prints the banner, reports the
/// figure's failed cells, then calls `render`.
struct Figure {
  const char* id;           ///< The `--figure` name.
  const char* title;        ///< Banner: what this figure regenerates.
  const char* paper_claim;  ///< Banner: what the paper reports.
  /// The cells the figure reads, on make_base_config(); nullptr for a figure
  /// that simulates no grid cells.
  std::vector<exec::CellSpec> (*cells)();
  void (*render)(Results);  ///< Prints the figure's tables to stdout.
};

/// Prints a table of IPC normalized to the first scheme, with a geomean
/// row, over `results` holding grid({}, schemes, benchmarks); returns the
/// per-scheme geomeans. A failed cell contributes a guarded (floor-clamped)
/// ratio instead of aborting the figure.
std::vector<double> print_normalized_ipc(
    Results results, const std::vector<Scheme>& schemes,
    const std::vector<std::string>& benchmarks) {
  const GridIndex at{schemes.size(), benchmarks.size()};

  std::vector<std::string> headers = {"benchmark"};
  for (Scheme s : schemes) headers.push_back(scheme_name(s));
  TextTable table(headers);

  std::vector<std::vector<double>> ratios(schemes.size());
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    std::vector<std::string> row = {benchmarks[b]};
    const double baseline = results[at(0, 0, b)].metrics.ipc;
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const double ipc = results[at(0, s, b)].metrics.ipc;
      const double r = baseline != 0.0 ? ipc / baseline : 0.0;
      ratios[s].push_back(r);
      row.push_back(fmt(r, 3));
    }
    table.add_row(row);
  }
  std::vector<std::string> geo_row = {"GEOMEAN"};
  std::vector<double> geomeans;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const double g = geomean_guarded(ratios[s]);  // Guards zeroed cells.
    geomeans.push_back(g);
    geo_row.push_back(fmt(g, 3));
  }
  table.add_row(geo_row);

  std::printf("IPC (normalized to %s, higher is better)\n",
              scheme_name(schemes[0]));
  std::printf("%s\n", table.to_string().c_str());
  return geomeans;
}

/// Prints `title` over a table with one row per entry of `rows` (its
/// label) and one column per benchmark; `cell(p, b)` formats the entry of
/// row p for benchmark b.
void print_sweep_table(
    const char* title, const char* row_header, const auto& rows,
    const std::vector<std::string>& benches,
    const std::function<std::string(std::size_t, std::size_t)>& cell) {
  std::vector<std::string> headers = {row_header};
  headers.insert(headers.end(), benches.begin(), benches.end());
  TextTable t(headers);
  for (std::size_t p = 0; p < rows.size(); ++p) {
    std::vector<std::string> row = {std::to_string(rows[p])};
    for (std::size_t b = 0; b < benches.size(); ++b) row.push_back(cell(p, b));
    t.add_row(row);
  }
  std::printf("%s\n%s\n", title, t.to_string().c_str());
}

// Table I: the evaluation configuration (printed from the live Config so
// any drift between code and documentation is visible).
void table1_render(Results) {
  const Config cfg = make_base_config();
  std::printf("%s\n", cfg.table1().c_str());
  std::printf("derived: long reply packet = %u flits, VC depth = %u flits, "
              "bisection links = %u\n",
              cfg.reply_long_flits(), cfg.vc_depth_flits_reply(),
              2 * cfg.mesh_height);
}

// Figure 3: average request vs reply packet latency under the baseline.
// Paper: request latency ~5.6x reply latency on average although the
// congestion actually sits on the reply side (backpressure effect).
//
// Its cells, every benchmark under XY-Baseline, also feed Fig. 5 and §3.
std::vector<exec::CellSpec> xy_baseline_cells() {
  return grid({}, {Scheme::kXYBaseline}, all_benchmark_names());
}

void fig03_render(Results results) {
  TextTable t({"benchmark", "req_lat", "reply_lat", "ratio"});
  std::vector<double> ratios;
  for (const auto& r : results) {
    const std::string& b = r.benchmark;
    const Metrics& m = r.metrics;
    const double ratio =
        m.reply_latency > 0.0 ? m.request_latency / m.reply_latency : 0.0;
    if (ratio > 0.0) ratios.push_back(ratio);
    t.add_row({b, fmt(m.request_latency, 1), fmt(m.reply_latency, 1),
               fmt(ratio, 2)});
  }
  t.add_row({"GEOMEAN", "", "", fmt(geomean(ratios), 2)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("paper reports the ratio ~5.6x; the shape claim is that the\n"
              "request network *looks* slower although the reply network is\n"
              "the congested one (verified by Fig. 4 and Fig. 13).\n");
}

// Figure 4: impact of widening request vs reply network links.
// Paper: 256-bit request links buy +0.8% IPC; 256-bit reply links +25.6%.
std::vector<exec::CellSpec> fig04_cells() {
  return grid({{"128-128", nullptr},
               {"256-128", [](Config& c) { c.link_width_bits_request = 256; }},
               {"128-256", [](Config& c) { c.link_width_bits_reply = 256; }}},
              {Scheme::kXYBaseline}, all_benchmark_names());
}

void fig04_render(Results results) {
  const std::vector<std::string> benches = all_benchmark_names();
  const GridIndex at{1, benches.size()};

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
}

// Figure 5: relative percentage of the four packet types, flit-weighted.
// Paper: the reply network carries ~72.7% of all NoC traffic (vs 27.3%),
// dominated by long read-reply packets. The cells are Fig. 3's.
void fig05_render(Results results) {
  TextTable t({"benchmark", "read_req", "write_req", "read_reply",
               "write_reply", "reply_share"});
  double reply_share_sum = 0.0;
  int n = 0;
  for (const auto& r : results) {
    const std::string& b = r.benchmark;
    const Metrics& m = r.metrics;
    const double total = static_cast<double>(
        m.flits_by_type[0] + m.flits_by_type[1] + m.flits_by_type[2] +
        m.flits_by_type[3]);
    if (total == 0.0) continue;
    auto pct = [&](int i) {
      return static_cast<double>(m.flits_by_type[static_cast<std::size_t>(i)]) / total;
    };
    const double reply_share = pct(2) + pct(3);
    reply_share_sum += reply_share;
    ++n;
    t.add_row({b, fmt_pct(pct(0)), fmt_pct(pct(1)), fmt_pct(pct(2)),
               fmt_pct(pct(3)), fmt_pct(reply_share)});
  }
  t.add_row({"MEAN", "", "", "", "", fmt_pct(reply_share_sum / n)});
  std::printf("%s\n", t.to_string().c_str());
}

// Section 3 measurement: reply-network injection-link utilization vs
// in-network link utilization.
// Paper: injection links ~0.39 flit/cycle vs ~0.084 in-network (~4.5x) —
// the injection points, not the network core, are the bottleneck. The cells
// are Fig. 3's.
void sec3_render(Results results) {
  TextTable t({"benchmark", "inj_util", "internal_util", "ratio"});
  double inj_sum = 0, int_sum = 0;
  int n = 0;
  for (const auto& r : results) {
    const std::string& b = r.benchmark;
    const Metrics& m = r.metrics;
    const double ratio = m.reply_internal_util > 0.0
                             ? m.reply_injection_util / m.reply_internal_util
                             : 0.0;
    inj_sum += m.reply_injection_util;
    int_sum += m.reply_internal_util;
    ++n;
    t.add_row({b, fmt(m.reply_injection_util, 3),
               fmt(m.reply_internal_util, 3), fmt(ratio, 1)});
  }
  t.add_row({"MEAN", fmt(inj_sum / n, 3), fmt(int_sum / n, 3),
             fmt(int_sum > 0 ? inj_sum / int_sum : 0.0, 1)});
  std::printf("%s\n", t.to_string().c_str());
}

// Figure 6: NI injection-queue occupancy vs queue capacity.
// Paper: occupancy closely tracks capacity from 4 to 80 long packets —
// proof that the injection point is the bottleneck (any extra buffering
// immediately fills with waiting reply packets).
const std::vector<std::uint32_t> kCapacities = {4, 8, 16, 32, 48, 64, 80};

std::vector<exec::CellSpec> fig06_cells() {
  std::vector<SweepPoint> points;
  for (std::uint32_t cap : kCapacities) {
    points.push_back({"cap=" + std::to_string(cap), [cap](Config& c) {
                        c.ni_queue_flits = cap * c.reply_long_flits();
                      }});
  }
  return grid(points, {Scheme::kXYBaseline}, fig6_benchmarks());
}

void fig06_render(Results results) {
  const std::vector<std::string> benches = fig6_benchmarks();
  const GridIndex at{1, benches.size()};
  print_sweep_table("mean reply-NI occupancy in packets", "capacity(pkts)",
                    kCapacities, benches, [&](std::size_t p, std::size_t b) {
                      return fmt(
                          results[at(p, 0, b)].metrics.ni_occupancy_pkts, 1);
                    });
  std::printf("shape check: for NoC-bound benchmarks the occupancy column\n"
              "rises with capacity (queues fill no matter how large).\n");
}

// Figure 9: IPC improvement vs number of priority levels (bfs, mummergpu).
// Paper: two levels capture most of the benefit; more levels do not help
// (far from the injection point, differentiating in-network packets is
// useless).
const std::vector<std::uint32_t> kLevels = {1, 2, 3, 4, 5, 6};

// Reference: full ARI minus prioritization (Acc-Both-NoPriority), then
// Ada-ARI at 1..6 priority levels.
std::vector<exec::CellSpec> fig09_cells() {
  const std::vector<std::string> benches = fig9_benchmarks();
  std::vector<exec::CellSpec> cells =
      grid({}, {Scheme::kAccBothNoPrio}, benches);
  std::vector<SweepPoint> points;
  for (std::uint32_t levels : kLevels) {
    points.push_back({"levels=" + std::to_string(levels),
                      [levels](Config& c) { c.priority_levels = levels; }});
  }
  const auto sweep = grid(points, {Scheme::kAdaARI}, benches);
  cells.insert(cells.end(), sweep.begin(), sweep.end());
  return cells;
}

void fig09_render(Results results) {
  const std::vector<std::string> benches = fig9_benchmarks();
  const GridIndex at{1, benches.size(), benches.size()};
  print_sweep_table("IPC improvement over Acc-Both-NoPriority", "levels",
                    kLevels, benches, [&](std::size_t p, std::size_t b) {
                      return fmt_pct(results[at(p, 0, b)].metrics.ipc /
                                         results[b].metrics.ipc -
                                     1.0);
                    });
}

// Figure 10: accelerating injection supply and consumption separately and
// combined (all with adaptive routing).
// Paper: Acc-Supply alone is ~neutral and *hurts* 12/30 benchmarks;
// Acc-Consume alone is minimal; both together +13.5% (geomean); adding
// the binary priority yields further gains (ARI).
const std::vector<Scheme> kFig10Schemes = {
    Scheme::kAdaBaseline, Scheme::kAccSupply, Scheme::kAccConsume,
    Scheme::kAccBothNoPrio, Scheme::kAdaARI};

std::vector<exec::CellSpec> fig10_cells() {
  return grid({}, kFig10Schemes, all_benchmark_names());
}

void fig10_render(Results results) {
  const std::vector<double> geos =
      print_normalized_ipc(results, kFig10Schemes, all_benchmark_names());
  std::printf("geomeans: supply-only %.3f, consume-only %.3f, both %.3f, "
              "ARI %.3f\n",
              geos[1], geos[2], geos[3], geos[4]);
}

// Figure 11: IPC of the five evaluated schemes, normalized to XY-Baseline.
// Paper: XY-ARI ~+8% over XY-Baseline; Ada-Baseline slightly *below*
// XY-Baseline; Ada-MultiPort ~+2% over Ada-Baseline; Ada-ARI ~+15.4% over
// Ada-Baseline, with ~1/3 of benchmarks near 1.4x.
const std::vector<Scheme> kFig11Schemes = {
    Scheme::kXYBaseline, Scheme::kXYARI, Scheme::kAdaBaseline,
    Scheme::kAdaMultiPort, Scheme::kAdaARI};

std::vector<exec::CellSpec> fig11_cells() {
  return grid({}, kFig11Schemes, all_benchmark_names());
}

void fig11_render(Results results) {
  const std::vector<double> geos =
      print_normalized_ipc(results, kFig11Schemes, all_benchmark_names());
  std::printf("Ada-ARI vs Ada-Baseline: %.3fx (paper: ~1.154x)\n",
              geos[4] / geos[2]);
  std::printf("Ada-MultiPort vs Ada-Baseline: %.3fx (paper: ~1.02x)\n",
              geos[3] / geos[2]);
  std::printf("XY-ARI vs XY-Baseline: %.3fx (paper: ~1.08x)\n", geos[1]);
}

// Figure 12: data stall time in the memory controllers (reply data blocked
// from entering the NI because the injection queues are full).
// Paper: XY-ARI cuts MC stall time by ~47.5% vs XY-Baseline; Ada-ARI by
// ~67.8% vs Ada-Baseline; MultiPort helps only a little. The cells are
// Fig. 11's.
void fig12_render(Results results) {
  const std::vector<std::string> all = all_benchmark_names();
  const GridIndex at{kFig11Schemes.size(), all.size()};
  const auto stall_of = [&](std::size_t s, std::size_t b) {
    return static_cast<double>(results[at(0, s, b)].metrics.mc_stall_cycles);
  };

  // Normalize each benchmark to its XY-Baseline stall time; arithmetic
  // mean of the ratios (the paper's bars are per-benchmark normalized).
  std::vector<std::vector<double>> stalls(kFig11Schemes.size());
  std::vector<std::string> benches;
  for (std::size_t b = 0; b < all.size(); ++b) {
    const double base_stall = stall_of(0, b);
    if (base_stall < 1.0) continue;  // No stall to normalize against.
    benches.push_back(all[b]);
    stalls[0].push_back(1.0);
    for (std::size_t s = 1; s < kFig11Schemes.size(); ++s) {
      stalls[s].push_back(stall_of(s, b) / base_stall);
    }
  }

  std::vector<std::string> headers = {"benchmark"};
  for (Scheme s : kFig11Schemes) headers.push_back(scheme_name(s));
  TextTable t(headers);
  for (std::size_t b = 0; b < benches.size(); ++b) {
    std::vector<std::string> row = {benches[b]};
    for (std::size_t s = 0; s < kFig11Schemes.size(); ++s) {
      row.push_back(fmt(stalls[s][b], 3));
    }
    t.add_row(row);
  }
  std::vector<std::string> mean_row = {"MEAN"};
  std::vector<double> means;
  for (std::size_t s = 0; s < kFig11Schemes.size(); ++s) {
    means.push_back(mean(stalls[s]));
    mean_row.push_back(fmt(means.back(), 3));
  }
  t.add_row(mean_row);
  std::printf("MC stall time (normalized to XY-Baseline, lower is better)\n%s\n",
              t.to_string().c_str());
  std::printf("XY-ARI reduction: %.1f%% (paper: 47.5%%)\n",
              (1.0 - means[1]) * 100.0);
  std::printf("Ada-ARI reduction vs Ada-Baseline: %.1f%% (paper: 67.8%%)\n",
              means[2] > 0 ? (1.0 - means[4] / means[2]) * 100.0 : 0.0);
}

// Figure 13: average packet latency decomposed into request and reply
// parts, per scheme (reply latency includes the NI injection wait).
// Paper: ARI reduces reply latency as designed, and request latency drops
// too although ARI never touches the request network — confirming the
// bottleneck was on the reply side. The cells are Fig. 11's.
void fig13_render(Results results) {
  const std::vector<std::string> benches = all_benchmark_names();
  const GridIndex at{kFig11Schemes.size(), benches.size()};

  std::vector<std::string> headers = {"benchmark"};
  for (Scheme s : kFig11Schemes) {
    headers.push_back(std::string(scheme_name(s)) + " req+rep");
  }
  TextTable t(headers);

  std::vector<double> req_sums(kFig11Schemes.size()),
      rep_sums(kFig11Schemes.size()), rep_p99_sums(kFig11Schemes.size());
  for (std::size_t b = 0; b < benches.size(); ++b) {
    std::vector<std::string> row = {benches[b]};
    for (std::size_t s = 0; s < kFig11Schemes.size(); ++s) {
      const Metrics& m = results[at(0, s, b)].metrics;
      req_sums[s] += m.request_latency;
      rep_sums[s] += m.reply_latency;
      rep_p99_sums[s] += m.reply_latency_p99;
      row.push_back(fmt(m.request_latency, 0) + "+" +
                    fmt(m.reply_latency, 0));
    }
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());

  // ARI's tail-latency claim: the p99 column shows the backpressure fix
  // compresses the distribution, not just its mean.
  TextTable sum({"scheme", "mean req lat", "mean reply lat",
                 "mean reply p99", "total"});
  const double n = static_cast<double>(benches.size());
  for (std::size_t s = 0; s < kFig11Schemes.size(); ++s) {
    sum.add_row({scheme_name(kFig11Schemes[s]), fmt(req_sums[s] / n, 1),
                 fmt(rep_sums[s] / n, 1), fmt(rep_p99_sums[s] / n, 1),
                 fmt((req_sums[s] + rep_sums[s]) / n, 1)});
  }
  std::printf("%s\n", sum.to_string().c_str());
}

// Figure 14: energy consumption, ARI vs baseline.
// Paper: dynamic energy ~unchanged; static energy falls with the shorter
// execution time; total ~-4% on average.
//
// Because our simulator measures fixed-cycle windows (not fixed work), the
// energy comparison is done per unit of work: energy / warp instruction.
// A fixed program would finish in time inversely proportional to IPC, so
// static-energy-per-instruction = static_power * cycles / instructions.
std::vector<exec::CellSpec> fig14_cells() {
  return grid({}, {Scheme::kAdaBaseline, Scheme::kAdaARI},
              all_benchmark_names());
}

void fig14_render(Results results) {
  const std::vector<std::string> benches = all_benchmark_names();
  const GridIndex at{2, benches.size()};

  TextTable t({"benchmark", "dyn ratio", "static ratio", "total ratio"});
  std::vector<double> totals;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const Metrics& m0 = results[at(0, 0, i)].metrics;
    const Metrics& m1 = results[at(0, 1, i)].metrics;
    const double w0 = static_cast<double>(m0.warp_instructions);
    const double w1 = static_cast<double>(m1.warp_instructions);
    const double dyn = (m1.energy.dynamic_nj() / w1) /
                       (m0.energy.dynamic_nj() / w0);
    const double stat = (m1.energy.static_nj / w1) /
                        (m0.energy.static_nj / w0);
    const double total = (m1.energy.total_nj() / w1) /
                         (m0.energy.total_nj() / w0);
    totals.push_back(total);
    t.add_row({b, fmt(dyn, 3), fmt(stat, 3), fmt(total, 3)});
  }
  t.add_row({"GEOMEAN", "", "", fmt(geomean(totals), 3)});
  std::printf("energy per warp instruction, Ada-ARI / Ada-Baseline "
              "(lower is better)\n%s\n",
              t.to_string().c_str());
  std::printf("paper: total ~0.96x; static ratio ~ 1/IPC-speedup\n");
}

// Figure 15: 2 vs 4 virtual channels, with and without ARI (injection
// speedup = VC count).
// Paper: (1) ARI beats the baseline at equal VC count; (2) going 2->4 VCs
// helps ARI much more than the baseline — with the injection bottleneck
// removed, ARI can actually fill the extra VCs.
std::vector<exec::CellSpec> fig15_cells() {
  auto with_vcs = [](std::uint32_t vcs) {
    return [vcs](Config& c) {
      c.num_vcs = vcs;
      c.injection_speedup = std::min(c.injection_speedup, vcs);
      c.split_queues = std::min(c.split_queues, vcs);
    };
  };
  return grid({{"2VC", with_vcs(2)}, {"4VC", with_vcs(4)}},
              {Scheme::kAdaBaseline, Scheme::kAdaARI}, fig15_benchmarks());
}

void fig15_render(Results results) {
  const std::vector<std::string> benches = fig15_benchmarks();
  const GridIndex at{2, benches.size()};

  TextTable t({"benchmark", "2VC-Base", "4VC-Base", "2VC-ARI", "4VC-ARI",
               "base 2->4", "ARI 2->4"});
  std::vector<double> base_gain, ari_gain;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const double b2 = results[at(0, 0, i)].metrics.ipc;
    const double b4 = results[at(1, 0, i)].metrics.ipc;
    const double a2 = results[at(0, 1, i)].metrics.ipc;
    const double a4 = results[at(1, 1, i)].metrics.ipc;
    base_gain.push_back(b4 / b2);
    ari_gain.push_back(a4 / a2);
    t.add_row({b, fmt(b2 / b2, 3), fmt(b4 / b2, 3), fmt(a2 / b2, 3),
               fmt(a4 / b2, 3), fmt(b4 / b2, 3), fmt(a4 / a2, 3)});
  }
  t.add_row({"GEOMEAN", "", "", "", "", fmt(geomean(base_gain), 3),
             fmt(geomean(ari_gain), 3)});
  std::printf("IPC normalized to 2VC-Baseline per benchmark\n%s\n",
              t.to_string().c_str());
  std::printf("shape check: 'ARI 2->4' column > 'base 2->4' column.\n");
}

// Figure 16: ARI applied on top of DA2mesh.
// Paper: DA2mesh leaves the reply injection process untouched, so ARI
// composes with it for an additional ~16.4% IPC.
std::vector<exec::CellSpec> fig16_cells() {
  std::vector<exec::CellSpec> cells = grid(
      {}, {Scheme::kAdaBaseline, Scheme::kAdaARI}, all_benchmark_names());
  for (auto& cell : cells) cell.da2mesh = true;
  return cells;
}

void fig16_render(Results results) {
  const std::vector<std::string> benches = all_benchmark_names();
  const GridIndex at{2, benches.size()};

  TextTable t({"benchmark", "DA2Mesh", "DA2Mesh+ARI"});
  std::vector<double> gains;
  for (std::size_t i = 0; i < benches.size(); ++i) {
    const std::string& b = benches[i];
    const Metrics& plain = results[at(0, 0, i)].metrics;
    const Metrics& ari = results[at(0, 1, i)].metrics;
    gains.push_back(ari.ipc / plain.ipc);
    t.add_row({b, "1.000", fmt(ari.ipc / plain.ipc, 3)});
  }
  t.add_row({"GEOMEAN", "1.000", fmt(geomean(gains), 3)});
  std::printf("IPC normalized to plain DA2mesh\n%s\n", t.to_string().c_str());
  std::printf("paper: +16.4%% on average\n");
}

// Section 7.5(2): scalability over mesh sizes, extended with a fabric axis.
// Paper: ARI's IPC improvement grows with network size — +3.7% (4x4),
// +15.4% (6x6), +24.7% (8x8) — NoC latency/throughput matter more in
// bigger chips. The extension runs the same size ladder on the torus and
// chiplet fabrics (docs/fabrics.md): the scaling trend is topological, so
// it should survive wraparound links and die-boundary serdes.
const std::vector<std::uint32_t> kSizes = {4u, 6u, 8u};
const std::vector<std::string> kFabrics = {"mesh", "torus", "chiplet"};

// The high+medium sensitivity mix drives the comparison; low-sensitivity
// benchmarks dilute all sizes equally.
std::vector<std::string> mix() {
  std::vector<std::string> mix = benchmarks_with(Sensitivity::kHigh);
  const std::vector<std::string> medium = benchmarks_with(Sensitivity::kMedium);
  mix.insert(mix.end(), medium.begin(), medium.end());
  return mix;
}

// MC count scales with the grid so the CC:MC ratio (the few-to-many
// pattern driving the bottleneck) stays ~3.5:1.
std::uint32_t mcs_for(std::uint32_t k) {
  return static_cast<std::uint32_t>(k * k / 4.5 + 0.5);
}

// One (grid size x fabric x scheme x benchmark) sweep. The chiplet point
// splits the same grid into 2x2 dies (keeping node count and MC placement),
// so within a column size is the only variable.
std::vector<exec::CellSpec> sec7_cells() {
  std::vector<SweepPoint> points;
  for (std::uint32_t k : kSizes) {
    const std::uint32_t mcs = mcs_for(k);
    for (const std::string& f : kFabrics) {
      points.push_back({std::to_string(k) + "x" + std::to_string(k) + "-" + f,
                        [k, mcs, f](Config& c) {
                          c.fabric = f;
                          c.num_mcs = mcs;
                          if (f == "chiplet") {
                            c.chiplets_x = c.chiplets_y = 2;
                            c.mesh_width = c.mesh_height = k / 2;
                          } else {
                            c.mesh_width = c.mesh_height = k;
                          }
                        }});
    }
  }
  return grid(points, {Scheme::kAdaBaseline, Scheme::kAdaARI}, mix());
}

void sec7_render(Results results) {
  const std::size_t benches = mix().size();
  const GridIndex at{2, benches};

  TextTable t({"grid", "fabric", "ccs", "mcs", "Ada-Baseline geo-IPC",
               "Ada-ARI geo-IPC", "ARI gain"});
  std::size_t p = 0;
  for (std::uint32_t k : kSizes) {
    const std::uint32_t mcs = mcs_for(k);
    for (const std::string& f : kFabrics) {
      std::vector<double> b_ipc, a_ipc;
      for (std::size_t i = 0; i < benches; ++i) {
        b_ipc.push_back(results[at(p, 0, i)].metrics.ipc);
        a_ipc.push_back(results[at(p, 1, i)].metrics.ipc);
      }
      ++p;
      const double gb = geomean_guarded(b_ipc), ga = geomean_guarded(a_ipc);
      t.add_row({std::to_string(k) + "x" + std::to_string(k), f,
                 std::to_string(k * k - mcs), std::to_string(mcs),
                 fmt(gb, 3), fmt(ga, 3), fmt_pct(ga / gb - 1.0)});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("shape check: within each fabric, the 'ARI gain' column "
              "increases with grid size.\n");
}

// Section 6.1: ARI area overhead from the analytical model (substitute for
// the paper's Synopsys DC / NanGate 45nm / Cadence Encounter flow).
// Paper: ~5.4% per modified NI + MC-router pair; ~0.7% amortized over the
// whole network.
void sec6_render(Results) {
  const Config cfg = apply_scheme(make_base_config(), Scheme::kAdaARI);
  const AreaModel model;
  const AreaReport r = model.evaluate(cfg);

  TextTable t({"component", "baseline (um^2)", "ARI (um^2)", "delta"});
  t.add_row({"MC-router", fmt(r.baseline_router_um2, 0),
             fmt(r.ari_router_um2, 0),
             fmt_pct(r.ari_router_um2 / r.baseline_router_um2 - 1.0)});
  t.add_row({"MC reply NI", fmt(r.baseline_ni_um2, 0), fmt(r.ari_ni_um2, 0),
             fmt_pct(r.ari_ni_um2 / r.baseline_ni_um2 - 1.0)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("NI + MC-router pair overhead : %.1f%%  (paper: 5.4%%)\n",
              r.pair_overhead_pct);
  std::printf("amortized network overhead   : %.2f%% (paper: 0.7%%)\n",
              r.network_overhead_pct);
  std::printf("\nstructural deltas modeled: +%u crossbar input columns, "
              "split NI queues (+muxes), wide intra-tile links, %u narrow "
              "injection links\n",
              cfg.injection_speedup - 1, cfg.split_queues);
}

// Ablation (beyond the paper's figures): injection-port crossbar speedup
// sweep S = 1..4, validating the Eq. (1)/(2) sizing guideline of §4.2 —
// gains should saturate at the recommended S.
const std::vector<std::string> kSpeedupBenches = {"bfs", "kmeans",
                                                  "mummergpu", "hotspot"};
const std::vector<std::uint32_t> kSpeedups = {1, 2, 3, 4};

// The Ada-Baseline reference row, then Ada-ARI at S = 1..4.
std::vector<exec::CellSpec> speedup_cells() {
  std::vector<exec::CellSpec> cells =
      grid({{"ref", nullptr}}, {Scheme::kAdaBaseline}, kSpeedupBenches);
  std::vector<SweepPoint> points;
  for (std::uint32_t s : kSpeedups) {
    points.push_back({"S=" + std::to_string(s),
                      [s](Config& c) { c.injection_speedup = s; }});
  }
  const auto sweep = grid(points, {Scheme::kAdaARI}, kSpeedupBenches);
  cells.insert(cells.end(), sweep.begin(), sweep.end());
  return cells;
}

void speedup_render(Results results) {
  const GridIndex at{1, kSpeedupBenches.size(), kSpeedupBenches.size()};
  print_sweep_table("IPC normalized to Ada-Baseline", "S", kSpeedups,
                    kSpeedupBenches, [&](std::size_t p, std::size_t b) {
                      const double ref = results[b].metrics.ipc;
                      const double ipc = results[at(p, 0, b)].metrics.ipc;
                      return fmt(ref > 0.0 ? ipc / ref : 0.0, 3);
                    });

  // The guideline itself, evaluated for the Table-I reply mix.
  const double mean_flits = mean_reply_flits(0.9, 5);
  std::printf("guideline: mean reply flits = %.2f; for InjRate 0.8 pkt/cyc "
              "Eq.(1) wants S >= %u; Eq.(2) caps at %u; recommended %u\n",
              mean_flits, min_speedup_eq1(0.8, mean_flits),
              max_speedup_eq2(4, 4),
              recommended_speedup(0.8, mean_flits, 4, 4));
}

// Ablation (beyond the paper's figures): number of split NI queues under a
// fixed total buffer budget (§4.1 says ⌈W/N⌉ queues suffice; fewer may do
// when the MC does not produce data every cycle).
const std::vector<std::string> kSplitBenches = {"bfs", "kmeans", "srad",
                                                "blackscholes"};
const std::vector<std::uint32_t> kQueueCounts = {1, 2, 3, 4};

// Reference: Ada-Baseline, then Ada-ARI at k = 1..4.
std::vector<exec::CellSpec> split_cells() {
  std::vector<exec::CellSpec> cells =
      grid({}, {Scheme::kAdaBaseline}, kSplitBenches);
  std::vector<SweepPoint> points;
  for (std::uint32_t k : kQueueCounts) {
    points.push_back(
        {"k=" + std::to_string(k), [k](Config& c) { c.split_queues = k; }});
  }
  const auto sweep = grid(points, {Scheme::kAdaARI}, kSplitBenches);
  cells.insert(cells.end(), sweep.begin(), sweep.end());
  return cells;
}

void split_render(Results results) {
  const GridIndex at{1, kSplitBenches.size(), kSplitBenches.size()};
  print_sweep_table(
      "IPC normalized to Ada-Baseline (consumption fixed at S=4)", "k",
      kQueueCounts, kSplitBenches, [&](std::size_t p, std::size_t b) {
        return fmt(results[at(p, 0, b)].metrics.ipc / results[b].metrics.ipc,
                   3);
      });
}

// Ablation: starvation threshold sensitivity (§5).
// Paper: "starvation of this kind is rare, and the overall performance is
// very insensitive to the threshold value" (1k cycles used).
const std::vector<std::string> kStarvationBenches = {"bfs", "mummergpu",
                                                     "kmeans"};
const std::vector<Cycle> kThresholds = {100, 500, 1000, 4000, 16000};

// Reference: the untweaked default (1000 cycles), then each threshold.
std::vector<exec::CellSpec> starvation_cells() {
  std::vector<SweepPoint> points = {{"default", nullptr}};
  for (Cycle th : kThresholds) {
    points.push_back({"threshold=" + std::to_string(th),
                      [th](Config& c) { c.starvation_threshold = th; }});
  }
  return grid(points, {Scheme::kAdaARI}, kStarvationBenches);
}

void starvation_render(Results results) {
  const GridIndex at{1, kStarvationBenches.size()};
  print_sweep_table("IPC normalized to the 1k-cycle default", "threshold",
                    kThresholds, kStarvationBenches,
                    [&](std::size_t p, std::size_t b) {
                      return fmt(results[at(p + 1, 0, b)].metrics.ipc /
                                     results[at(0, 0, b)].metrics.ipc,
                                 3);
                    });
  std::printf("shape check: all entries ~1.00 (insensitive).\n");
}

// Ablation: memory-controller placement (diamond vs top/bottom edge vs
// clustered column). Table I uses the diamond placement "to make a
// competitive baseline" (Abts et al. ISCA'09); this ablation shows why —
// and that ARI helps on top of any placement.
const std::vector<std::string> kPlacementBenches = {"bfs", "mummergpu",
                                                    "srad", "hotspot"};
const std::vector<McPlacement> kPlacements = {
    McPlacement::kDiamond, McPlacement::kTopBottom, McPlacement::kColumn};

std::vector<exec::CellSpec> placement_cells() {
  std::vector<SweepPoint> points;
  for (McPlacement p : kPlacements) {
    points.push_back(
        {placement_name(p), [p](Config& c) { c.mc_placement = p; }});
  }
  return grid(points, {Scheme::kAdaBaseline, Scheme::kAdaARI},
              kPlacementBenches);
}

void placement_render(Results results) {
  const GridIndex at{2, kPlacementBenches.size()};

  for (std::size_t b = 0; b < kPlacementBenches.size(); ++b) {
    TextTable t({"placement", "Ada-Baseline IPC", "Ada-ARI IPC", "ARI gain"});
    for (std::size_t p = 0; p < kPlacements.size(); ++p) {
      const double base_ipc = results[at(p, 0, b)].metrics.ipc;
      const double ari_ipc = results[at(p, 1, b)].metrics.ipc;
      t.add_row({placement_name(kPlacements[p]), fmt(base_ipc, 3),
                 fmt(ari_ipc, 3), fmt(ari_ipc / base_ipc, 3) + "x"});
    }
    std::printf("%s\n%s\n", kPlacementBenches[b].c_str(),
                t.to_string().c_str());
  }
}

// Extension experiment (paper §2.2 future work): techniques outside the
// NoC shift the traffic the NoC sees — cache bypassing (MRPB-like)
// increases it, inter-warp request coalescing (WarpPool-like) reduces it.
// The paper approximates this with its high/medium/low sensitivity mix;
// here we apply the shifts directly and measure how ARI's benefit moves.
const std::vector<std::string> kTrafficBenches = {"bfs", "srad", "hotspot",
                                                  "nn"};

struct Mode {
  const char* name;
  bool bypass;
  bool merge;
};
constexpr Mode kModes[] = {
    {"default (L1 + merge)", false, true},
    {"no inter-warp merge", false, false},
    {"L1 bypass", true, true},
    {"L1 bypass + no merge", true, false},
};

std::vector<exec::CellSpec> traffic_cells() {
  std::vector<SweepPoint> points;
  for (const Mode& mode : kModes) {
    points.push_back({mode.name, [mode](Config& c) {
                        c.l1_bypass = mode.bypass;
                        c.cross_warp_merge = mode.merge;
                      }});
  }
  return grid(points, {Scheme::kAdaBaseline, Scheme::kAdaARI}, kTrafficBenches);
}

void traffic_render(Results results) {
  const GridIndex at{2, kTrafficBenches.size()};

  for (std::size_t b = 0; b < kTrafficBenches.size(); ++b) {
    TextTable t({"traffic mode", "Ada-Baseline IPC", "Ada-ARI IPC",
                 "ARI gain", "reply inj util (base)"});
    for (std::size_t p = 0; p < std::size(kModes); ++p) {
      const Metrics& m0 = results[at(p, 0, b)].metrics;
      const Metrics& m1 = results[at(p, 1, b)].metrics;
      t.add_row({kModes[p].name, fmt(m0.ipc, 3), fmt(m1.ipc, 3),
                 fmt(m1.ipc / m0.ipc, 3) + "x",
                 fmt(m0.reply_injection_util, 3)});
    }
    std::printf("%s\n%s\n", kTrafficBenches[b].c_str(), t.to_string().c_str());
  }
}

// Negative control: apply ARI's mechanisms to the *request* side as well
// (split CC NIs + CC-router injection speedup). The paper's diagnosis says
// the bottleneck is the reply injection point, so request-side ARI should
// buy ~nothing on top of (a) the baseline and (b) reply-side ARI — the
// same logic as Fig. 4's request-link-widening result, applied to the
// mechanism itself.
const std::vector<std::string> kRequestSideBenches = {
    "bfs", "mummergpu", "srad", "kmeans", "hotspot", "nn"};

std::vector<exec::CellSpec> request_side_cells() {
  return grid({{"reply-side", nullptr},
               {"request-side", [](Config& c) { c.request_side_ari = true; }}},
              {Scheme::kAdaBaseline, Scheme::kAdaARI}, kRequestSideBenches);
}

void request_side_render(Results results) {
  const GridIndex at{2, kRequestSideBenches.size()};

  TextTable t({"benchmark", "Ada-Baseline", "+req-side ARI only",
               "Ada-ARI (reply)", "Ada-ARI + req-side"});
  std::vector<double> req_only, reply_only, both;
  for (std::size_t i = 0; i < kRequestSideBenches.size(); ++i) {
    const std::string& b = kRequestSideBenches[i];
    const double v0 = results[at(0, 0, i)].metrics.ipc;
    const double v1 = results[at(1, 0, i)].metrics.ipc;
    const double v2 = results[at(0, 1, i)].metrics.ipc;
    const double v3 = results[at(1, 1, i)].metrics.ipc;
    req_only.push_back(v1 / v0);
    reply_only.push_back(v2 / v0);
    both.push_back(v3 / v0);
    t.add_row({b, "1.000", fmt(v1 / v0, 3), fmt(v2 / v0, 3),
               fmt(v3 / v0, 3)});
  }
  t.add_row({"GEOMEAN", "1.000", fmt(geomean(req_only), 3),
             fmt(geomean(reply_only), 3), fmt(geomean(both), 3)});
  std::printf("IPC normalized to Ada-Baseline\n%s\n", t.to_string().c_str());
  std::printf("shape check: column 2 ~ 1.0 and column 4 ~ column 3 — only\n"
              "the reply side matters, confirming the paper's diagnosis.\n");
}

// Ablation: per-hop router pipeline depth (1..3 extra stages).
// ARI attacks a *throughput* bottleneck at the injection point, so its
// benefit should survive deeper (slower) router pipelines — per-hop
// latency and injection contention are orthogonal.
const std::vector<std::string> kHopBenches = {"bfs", "mummergpu", "srad"};
constexpr std::uint32_t kMaxStages = 3;

std::vector<exec::CellSpec> hop_cells() {
  std::vector<SweepPoint> points;
  for (std::uint32_t stages = 1; stages <= kMaxStages; ++stages) {
    points.push_back({"stages=" + std::to_string(stages),
                      [stages](Config& c) {
                        c.router_pipeline_stages = stages;
                      }});
  }
  return grid(points, {Scheme::kAdaBaseline, Scheme::kAdaARI}, kHopBenches);
}

void hop_render(Results results) {
  const GridIndex at{2, kHopBenches.size()};

  TextTable t({"stages", "bfs gain", "mummergpu gain", "srad gain"});
  for (std::size_t p = 0; p < kMaxStages; ++p) {
    std::vector<std::string> row = {std::to_string(p + 1)};
    for (std::size_t b = 0; b < kHopBenches.size(); ++b) {
      const double v0 = results[at(p, 0, b)].metrics.ipc;
      const double v1 = results[at(p, 1, b)].metrics.ipc;
      row.push_back(fmt(v1 / v0, 3) + "x");
    }
    t.add_row(row);
  }
  std::printf("Ada-ARI IPC / Ada-Baseline IPC at equal pipeline depth\n%s\n",
              t.to_string().c_str());
}

// Ablation: VC buffer depth (packets per VC). Deeper buffers add storage,
// not injection throughput — the same lesson as Fig. 6's queue-capacity
// sweep: the baseline's bottleneck is the injection *rate*, so extra VC
// depth barely helps it, while ARI converts the same buffers into
// throughput.
const std::vector<std::string> kVcDepthBenches = {"bfs", "mummergpu", "srad"};
const std::vector<Scheme> kVcDepthSchemes = {Scheme::kAdaBaseline,
                                             Scheme::kAdaARI};
constexpr std::uint32_t kMaxDepth = 3;

// Depth 1 is Table I's default, so Ada-Baseline at depth=1 is the
// reference every row is normalized to.
std::vector<exec::CellSpec> vc_depth_cells() {
  std::vector<SweepPoint> points;
  for (std::uint32_t depth = 1; depth <= kMaxDepth; ++depth) {
    points.push_back({"depth=" + std::to_string(depth),
                      [depth](Config& c) { c.vc_depth_pkts = depth; }});
  }
  return grid(points, kVcDepthSchemes, kVcDepthBenches);
}

void vc_depth_render(Results results) {
  const GridIndex at{kVcDepthSchemes.size(), kVcDepthBenches.size()};

  TextTable t({"depth(pkts)", "scheme", "bfs", "mummergpu", "srad"});
  for (std::size_t p = 0; p < kMaxDepth; ++p) {
    for (std::size_t s = 0; s < kVcDepthSchemes.size(); ++s) {
      std::vector<std::string> row = {std::to_string(p + 1),
                                      scheme_name(kVcDepthSchemes[s])};
      for (std::size_t b = 0; b < kVcDepthBenches.size(); ++b) {
        const double ref = results[at(0, 0, b)].metrics.ipc;
        row.push_back(fmt(results[at(p, s, b)].metrics.ipc / ref, 3));
      }
      t.add_row(row);
    }
  }
  std::printf("IPC normalized to Ada-Baseline at depth 1\n%s\n",
              t.to_string().c_str());
}

// Ablation: traffic burstiness (kernel phases). §4.1 motivates the wide
// MC->NI link with "multiple back-to-back ready data in consecutive
// cycles"; bursty workloads concentrate reply production into phases, so
// the baseline's 1-flit/cycle injection hurts more and ARI recovers more.
//
// The one figure outside the shared grid: it varies BenchmarkTraits, which
// an exec::CellSpec cannot carry, so it simulates inside its render.
void burstiness_render(Results) {
  const Config base = make_base_config();
  BenchmarkTraits traits = *find_benchmark("srad");
  TextTable t({"burstiness", "Ada-Baseline IPC", "Ada-ARI IPC", "ARI gain",
               "base MC stall"});
  for (double b : {0.0, 0.3, 0.6, 0.9}) {
    traits.burstiness = b;
    auto run = [&](Scheme s) {
      GpgpuSim sim(apply_scheme(base, s), traits);
      sim.run_with_warmup();
      return sim.collect();
    };
    const Metrics m0 = run(Scheme::kAdaBaseline);
    const Metrics m1 = run(Scheme::kAdaARI);
    t.add_row({fmt(b, 1), fmt(m0.ipc, 3), fmt(m1.ipc, 3),
               fmt(m1.ipc / m0.ipc, 3) + "x",
               std::to_string(m0.mc_stall_cycles)});
  }
  std::printf("srad with phase-modulated memory intensity\n%s\n",
              t.to_string().c_str());
}


const Figure kFigures[] = {
    {"table1_config", "Table I — Key Parameters for Evaluation",
     "28 CCs, 8 MCs (FR-FCFS, diamond), 6x6 mesh, 4 VCs x 1 pkt, "
     "128-bit links, 36-flit NI queue, GTX980 GDDR5 timings",
     nullptr, table1_render},
    {"fig03_req_vs_reply_latency",
     "Figure 3 — Request vs. reply packet latency (XY-Baseline)",
     "request/reply latency ratio ~5.6x on average",
     xy_baseline_cells, fig03_render},
    {"fig04_link_width",
     "Figure 4 — Impact of link widths (128-128 / 256-128 / 128-256)",
     "widening the request net: +0.8% IPC; widening the reply net: "
     "+25.6% IPC",
     fig04_cells, fig04_render},
    {"fig05_packet_mix",
     "Figure 5 — Flit-weighted packet-type mix (XY-Baseline)",
     "reply network ~72.7% of traffic; read_reply dominates",
     xy_baseline_cells, fig05_render},
    {"sec3_link_utilization",
     "Section 3 — Reply injection vs in-network link utilization",
     "injection links ~4.5x hotter than in-network links "
     "(0.39 vs 0.084 flit/cycle)",
     xy_baseline_cells, sec3_render},
    {"fig06_queue_occupancy",
     "Figure 6 — NI injection queue occupancy vs capacity",
     "occupancy tracks capacity from 4 to 80 packets "
     "(pathfinder, hotspot, srad, bfs)",
     fig06_cells, fig06_render},
    {"fig09_priority_levels",
     "Figure 9 — IPC improvement vs # of priority levels",
     "2 levels reap most of the benefit (bfs, mummerGPU)", fig09_cells,
     fig09_render},
    {"fig10_supply_consume",
     "Figure 10 — Acc-Supply / Acc-Consume ablation (adaptive routing)",
     "supply-only ~1.0x (hurts some), consume-only ~1.0x, both ~1.135x, "
     "both+priority higher still",
     fig10_cells, fig10_render},
    {"fig11_scheme_ipc",
     "Figure 11 — IPC by scheme (normalized to XY-Baseline)",
     "XY-ARI ~1.08x; Ada-Baseline <= 1.0x; Ada-MultiPort ~1.02x "
     "of Ada-Baseline; Ada-ARI ~1.154x of Ada-Baseline",
     fig11_cells, fig11_render},
    {"fig12_mc_stall", "Figure 12 — Normalized MC data stall time",
     "XY-ARI -47.5%, Ada-ARI -67.8%, MultiPort small reduction",
     fig11_cells, fig12_render},
    {"fig13_packet_latency",
     "Figure 13 — Packet latency split (request + reply)",
     "ARI cuts reply latency AND request latency (untouched "
     "request network) — backpressure removed at the source",
     fig11_cells, fig13_render},
    {"fig14_energy", "Figure 14 — Normalized energy (per unit of work)",
     "dynamic ~equal, static falls with runtime, total ~-4%", fig14_cells,
     fig14_render},
    {"fig15_virtual_channels", "Figure 15 — ARI with different VC counts",
     "ARI gains more from 2->4 VCs than the baseline does", fig15_cells,
     fig15_render},
    {"fig16_da2mesh", "Figure 16 — ARI on top of DA2mesh",
     "DA2mesh+ARI ~ +16.4% over plain DA2mesh", fig16_cells, fig16_render},
    {"sec7_scalability",
     "Section 7.5(2) — Scalability (4x4 / 6x6 / 8x8, by fabric)",
     "ARI improvement grows with mesh size: +3.7% / +15.4% / +24.7%",
     sec7_cells, sec7_render},
    {"sec6_area", "Section 6.1 — ARI area overhead (analytical model)",
     "+5.4% per NI+MC-router pair, +0.7% amortized network-wide", nullptr,
     sec6_render},
    {"abl_speedup_sweep", "Ablation — injection speedup sweep (S = 1..4)",
     "Eq.(1)/(2): gains saturate near S = min(N_out, N_vc) = 4",
     speedup_cells, speedup_render},
    {"abl_split_queues",
     "Ablation — split NI queue count (k = 1..4, fixed budget)",
     "k=1 degenerates to the enhanced baseline supply; gains "
     "saturate once supply matches MC output rate",
     split_cells, split_render},
    {"abl_starvation_threshold",
     "Ablation — starvation threshold sensitivity (§5)",
     "performance insensitive to the threshold (1k default)",
     starvation_cells, starvation_render},
    {"abl_mc_placement",
     "Ablation — MC placement (diamond / top-bottom / column)",
     "diamond is the competitive baseline; ARI composes with "
     "every placement",
     placement_cells, placement_render},
    {"ext_traffic_shift",
     "Extension — ARI under shifted NoC traffic intensity",
     "more traffic (L1 bypass / no inter-warp merge) => larger "
     "ARI benefit; less traffic => smaller",
     traffic_cells, traffic_render},
    {"abl_request_side",
     "Negative control — ARI applied to the request side",
     "request-side ARI alone ~1.0x; adds ~nothing on top of "
     "reply-side ARI",
     request_side_cells, request_side_render},
    {"abl_hop_latency", "Ablation — router pipeline depth (per-hop latency)",
     "ARI's gain persists across 1/2/3-stage router pipelines", hop_cells,
     hop_render},
    {"abl_vc_depth", "Ablation — VC depth (packets per VC)",
     "buffering is not bandwidth: deeper VCs barely help the baseline",
     vc_depth_cells, vc_depth_render},
    {"abl_burstiness", "Ablation — workload burstiness (kernel phases)",
     "burstier reply production => deeper injection bottleneck "
     "=> larger ARI gain",
     nullptr, burstiness_render},
};

int usage_error(const std::string& message) {
  std::fprintf(stderr,
               "%s\nusage: arinoc_paper --figure <id>|all [--jobs N] "
               "[--no-cache] [--cache-dir D] "
               "[--sample-interval N] [--telemetry-dir D] [--attr-dir D]\n"
               "figures:",
               message.c_str());
  for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.id);
  std::fputc('\n', stderr);
  return 2;
}

}  // namespace
}  // namespace arinoc::bench

int main(int argc, char** argv) {
  using namespace arinoc;
  using bench::Figure;
  exec::ExecOptions opts = exec::options_from_env(/*default_cache=*/true);
  if (!exec::parse_exec_flags(argc, argv, opts)) return 2;
  std::string id;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--figure") == 0 && i + 1 < argc) {
      id = argv[++i];
    } else {
      return exec::unknown_option(argv[i], "--figure <id>|all");
    }
  }
  if (id.empty()) return bench::usage_error("missing --figure");

  std::vector<const Figure*> figures;
  for (const Figure& f : bench::kFigures) {
    if (id == "all" || id == f.id) figures.push_back(&f);
  }
  if (figures.empty()) {
    return bench::usage_error("unknown figure '" + id + "'");
  }

  // One grid; figure k owns cells [offsets[k], offsets[k + 1]).
  std::vector<exec::CellSpec> cells;
  std::vector<std::size_t> offsets = {0};
  for (const Figure* f : figures) {
    if (f->cells != nullptr) {
      for (exec::CellSpec& c : f->cells()) cells.push_back(std::move(c));
    }
    offsets.push_back(cells.size());
  }
  const std::vector<exec::CellResult> results =
      exec::ExperimentRunner(make_base_config(), opts).run(cells);

  int status = 0;
  for (std::size_t k = 0; k < figures.size(); ++k) {
    const bench::Results slice(results.data() + offsets[k],
                               offsets[k + 1] - offsets[k]);
    bench::banner(figures[k]->title, figures[k]->paper_claim);
    for (const exec::CellResult& r : slice) {
      if (r.ok()) continue;
      std::fprintf(stderr, "!! %s/%s failed (%s): %s\n", r.scheme.c_str(),
                   r.benchmark.c_str(), r.error_kind.c_str(),
                   r.error.c_str());
      if (status == 0) status = r.exit_status;
    }
    figures[k]->render(slice);
  }
  return status;
}
