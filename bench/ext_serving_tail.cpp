// Extension experiment (robustness): open-loop load factor x scheme.
//
// Closed-loop workloads self-throttle at capacity, so the saturation cliff
// the paper argues about never shows in their numbers. This bench drives
// the fabric open-loop — a constant pace profile scaled by a load factor —
// and locates each scheme's cliff: the first load where goodput falls
// measurably below the offered rate. Each (scheme, load) cell also runs
// with admission control enabled to show graceful degradation: under
// overload the admission variant sheds request-side traffic instead of
// letting the reply path collapse.
//
// Healthy shape: goodput tracks offered load below the cliff, the cliff
// exists (top load is past every scheme's capacity), goodput never exceeds
// offered load, and admission sheds under overload.
//
//   ext_serving_tail [--quick] [--fabric <f>] [--out <file>] [exec flags]
//     --quick   smaller grid + shorter runs (CI smoke)
//     --fabric  mesh | torus | cmesh | chiplet — run the grid on one of the
//               shared fabric-axis configurations (see ext_fabric_sweep;
//               default: the base 6x6 mesh)
//     --out     output JSON path (default: BENCH_serving_tail.json)
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "exec/runner.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  exec::ExecOptions opts = exec::options_from_env(true);
  if (!exec::parse_exec_flags(argc, argv, opts)) return 2;
  bool quick = false;
  std::string fabric = "mesh";
  bool fabric_flag = false;
  std::string out = "BENCH_serving_tail.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--fabric" && i + 1 < argc) {
      fabric = argv[++i];
      fabric_flag = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      return exec::unknown_option(argv[i], "--quick, --fabric F, --out F");
    }
  }
  if (!bench::out_dir_exists(out)) return 2;

  bench::banner(
      "Extension — serving tail latency (load factor x scheme, open loop)",
      "open-loop load exposes the reply-side saturation cliff; admission "
      "control degrades gracefully (sheds requests, protects replies)");

  Config base = make_base_config();
  // --fabric maps onto the shared fabric-axis configs so results line up
  // with ext_fabric_sweep cells. Without the flag the base 6x6 mesh runs
  // unchanged (the cliff thresholds below were calibrated on it).
  if (fabric_flag && !bench::apply_fabric(fabric, base)) return 2;
  const std::string benchmark = "bfs";  // Names the cell; clients ignore it.
  const std::vector<Scheme> schemes =
      quick ? std::vector<Scheme>{Scheme::kXYBaseline, Scheme::kAdaARI}
            : std::vector<Scheme>{Scheme::kXYBaseline, Scheme::kAdaBaseline,
                                  Scheme::kAdaARI};
  // The top load must sit past every scheme's capacity — ARI absorbs ~2x
  // more offered load than the baseline before its cliff.
  const std::vector<double> loads =
      quick ? std::vector<double>{0.5, 1.0, 4.0}
            : std::vector<double>{0.4, 0.7, 1.0, 1.5, 2.2, 4.0};
  const Cycle run_cycles = quick ? 5000 : 16000;
  const Cycle warmup = quick ? 500 : 2000;

  // Grid: (scheme x load x admission) in one exec-pool run. The pace base
  // rate is chosen so the top load factor sits past every scheme's
  // capacity on this mesh.
  std::vector<exec::CellSpec> cells;
  for (const Scheme scheme : schemes) {
    for (const double load : loads) {
      for (const bool admission : {false, true}) {
        char label[48];
        std::snprintf(label, sizeof(label), "load=%g,adm=%s", load,
                      admission ? "on" : "off");
        cells.push_back({label, scheme, benchmark,
                         [load, admission, run_cycles, warmup](Config& c) {
                           c.open_loop = true;
                           c.pace_spec = "constant:0.04";
                           c.pace_scale = load;
                           c.admission_enabled = admission;
                           c.run_cycles = run_cycles;
                           c.warmup_cycles = warmup;
                         }});
      }
    }
  }
  exec::ExperimentRunner runner(base, opts);
  const auto results = runner.run(cells);

  bool shape_ok = true;
  std::ostringstream js;
  js << "{\n" << bench::bench_json_stamp("serving_tail", base)
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n  \"fabric\": \""
     << fabric << "\",\n  \"pace\": \"constant:0.04\",\n  \"cells\": [\n";
  bool first_cell = true;

  std::size_t cell = 0;
  for (const Scheme scheme : schemes) {
    TextTable t({"load", "admission", "offered", "goodput", "e2e p99",
                 "e2e p99.9", "shed", "degraded cyc"});
    double cliff_load = 0.0;  // First load where goodput < 90% of offered.
    for (const double load : loads) {
      Metrics no_adm;  // Admission-off cell of this (scheme, load) pair.
      for (const bool admission : {false, true}) {
        const auto& r = results[cell++];
        if (!r.ok()) {
          std::printf("  !! %s load %g adm=%d failed (%s): %s\n",
                      scheme_name(scheme), load, admission ? 1 : 0,
                      r.error_kind.c_str(), r.error.c_str());
          shape_ok = false;
          continue;
        }
        const Metrics& m = r.metrics;
        char load_s[16];
        std::snprintf(load_s, sizeof(load_s), "%g", load);
        t.add_row({load_s, admission ? "on" : "off", fmt(m.offered_rate, 4),
                   fmt(m.goodput, 4), fmt(m.e2e_latency_p99, 1),
                   fmt(m.e2e_latency_p999, 1), std::to_string(m.requests_shed),
                   std::to_string(m.cycles_throttled + m.cycles_shedding)});

        js << (first_cell ? "" : ",\n");
        first_cell = false;
        js << "    {\"fabric\": \"" << fabric << "\", \"scheme\": \""
           << scheme_name(scheme)
           << "\", \"load\": " << load << ", \"admission\": "
           << (admission ? "true" : "false")
           << ", \"offered_rate\": " << m.offered_rate
           << ", \"goodput\": " << m.goodput
           << ", \"e2e_latency_p99\": " << m.e2e_latency_p99
           << ", \"e2e_latency_p999\": " << m.e2e_latency_p999
           << ", \"reply_latency_p99\": " << m.reply_latency_p99
           << ", \"reply_latency_p999\": " << m.reply_latency_p999
           << ", \"requests_shed\": " << m.requests_shed
           << ", \"requests_deferred\": " << m.requests_deferred
           << ", \"degrade_transitions\": " << m.degrade_transitions
           << ", \"cycles_degraded\": "
           << (m.cycles_throttled + m.cycles_shedding) << "}";

        // Shape checks (admission-off cells carry the pure cliff shape).
        if (!admission) {
          no_adm = m;
          if (load == loads.front() && m.goodput < 0.85 * m.offered_rate) {
            std::printf("  !! %s: goodput %.4f well below offered %.4f at "
                        "the lowest load\n",
                        scheme_name(scheme), m.goodput, m.offered_rate);
            shape_ok = false;
          }
          if (cliff_load == 0.0 && m.goodput < 0.90 * m.offered_rate) {
            cliff_load = load;
          }
          if (load == loads.back() && m.goodput > 0.97 * m.offered_rate) {
            std::printf("  !! %s: top load %g did not saturate (goodput "
                        "%.4f of offered %.4f)\n",
                        scheme_name(scheme), load, m.goodput, m.offered_rate);
            shape_ok = false;
          }
        } else {
          // Admission must not tank a healthy system: goodput stays within
          // 15% of the ungated run at every load.
          if (no_adm.goodput > 0.0 && m.goodput < 0.85 * no_adm.goodput) {
            std::printf("  !! %s: admission cut goodput %.4f -> %.4f at "
                        "load %g\n",
                        scheme_name(scheme), no_adm.goodput, m.goodput, load);
            shape_ok = false;
          }
          // Graceful degradation on the scheme whose reply path collapses:
          // the baseline must shed at top load and land a better tail than
          // the ungated run. ARI keeps its reply NIs drained even when
          // saturated (the paper's claim), so its occupancy-driven FSM
          // rightly stays in NORMAL there.
          if (scheme == Scheme::kXYBaseline && load == loads.back()) {
            if (m.requests_shed == 0) {
              std::printf("  !! %s: admission shed nothing at top load %g\n",
                          scheme_name(scheme), load);
              shape_ok = false;
            }
            if (m.e2e_latency_p99 >= no_adm.e2e_latency_p99) {
              std::printf("  !! %s: admission did not improve e2e p99 "
                          "(%.1f vs %.1f) at top load\n",
                          scheme_name(scheme), m.e2e_latency_p99,
                          no_adm.e2e_latency_p99);
              shape_ok = false;
            }
          }
        }
        // Tolerance: completions of requests issued during warmup can
        // drain into the measured window, nudging goodput past offered.
        if (m.goodput > m.offered_rate * 1.05) {
          std::printf("  !! %s: goodput %.4f exceeds offered %.4f\n",
                      scheme_name(scheme), m.goodput, m.offered_rate);
          shape_ok = false;
        }
      }
    }
    std::printf("%s (open loop, pace constant:0.04)\n%s", scheme_name(scheme),
                t.to_string().c_str());
    if (cliff_load > 0.0) {
      std::printf("saturation cliff at load factor %g\n\n", cliff_load);
    } else {
      std::printf("no cliff inside the swept range\n\n");
    }
  }

  js << "\n  ]\n}\n";
  if (!bench::write_bench_json(out, js.str())) return 1;
  std::printf("shape check: %s\n", shape_ok ? "ok" : "FAILED");
  return shape_ok ? 0 : 1;
}
