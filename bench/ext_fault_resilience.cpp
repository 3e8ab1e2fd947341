// Extension experiment (robustness): fault rate x scheme. Sweeps the
// transient-corruption rate on the reply network and reports how each
// scheme's IPC degrades, how many corrupted reply packets the NI-level
// retransmission recovers, and what the retransmission overhead costs.
// Healthy shape: IPC degrades monotonically (and gracefully) with the fault
// rate, recovery stays >= 99%, and no scheme deadlocks.
//
//   ext_fault_resilience [--fabric <f>] [--out <file>] [exec flags]
//     --fabric  mesh | torus | cmesh | chiplet — run the grid on one of the
//               shared fabric-axis configurations (see ext_fabric_sweep;
//               default: the base 6x6 mesh)
//     --out     cell-grid JSON path (default: BENCH_fault_resilience.json)
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench_util.hpp"
#include "exec/runner.hpp"

int main(int argc, char** argv) {
  using namespace arinoc;
  exec::ExecOptions opts = exec::options_from_env(true);
  if (!exec::parse_exec_flags(argc, argv, opts)) return 2;
  std::string fabric = "mesh";
  bool fabric_flag = false;
  std::string out_path = "BENCH_fault_resilience.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fabric" && i + 1 < argc) {
      fabric = argv[++i];
      fabric_flag = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return exec::unknown_option(argv[i], "--fabric F, --out F");
    }
  }
  if (!bench::out_dir_exists(out_path)) return 2;
  bench::banner("Extension — fault resilience (corruption rate x scheme)",
                "reply-side CRC + retransmission recovers >=99% of corrupted "
                "packets; IPC degrades gracefully and monotonically");
  Config base = make_base_config();
  // --fabric maps onto the shared fabric-axis configs so results line up
  // with ext_fabric_sweep cells. Without the flag the base 6x6 mesh runs
  // unchanged (the shape thresholds below were calibrated on it).
  if (fabric_flag && !bench::apply_fabric(fabric, base)) return 2;
  const std::string benchmark = "bfs";
  const double rates[] = {0.0, 1e-4, 5e-4, 2e-3};
  const Scheme schemes[] = {Scheme::kXYBaseline, Scheme::kAdaBaseline,
                            Scheme::kAdaARI};

  // The full (scheme x rate) grid runs at once on the exec pool; the
  // sequential shape checks below only look at the collected results.
  std::vector<exec::CellSpec> cells;
  for (const Scheme scheme : schemes) {
    for (const double rate : rates) {
      char label[32];
      std::snprintf(label, sizeof(label), "rate=%g", rate);
      cells.push_back({label, scheme, benchmark, [rate](Config& c) {
                         c.fault_corrupt_rate = rate;
                         // Longer measurement window: at the smallest rates
                         // the IPC delta is comparable to scheduling noise
                         // over the default 8k cycles.
                         c.run_cycles = std::max<Cycle>(c.run_cycles, 24000);
                       }});
    }
  }
  exec::ExperimentRunner runner(base, opts);
  const auto results = runner.run(cells);

  bool shape_ok = true;
  std::ostringstream js;
  js << "{\n" << bench::bench_json_stamp("fault_resilience", base)
     << "  \"fabric\": \"" << fabric << "\",\n  \"cells\": [\n";
  bool first_cell = true;
  std::size_t cell = 0;
  for (const Scheme scheme : schemes) {
    TextTable t({"corrupt rate", "IPC", "IPC vs fault-free", "corrupted",
                 "retransmitted", "recovered", "lost", "retx flit overhead"});
    double base_ipc = 0.0;
    double prev_ipc = 0.0;
    for (std::size_t i = 0; i < std::size(rates); ++i, ++cell) {
      const double rate = rates[i];
      const auto& r = results[cell];
      if (!r.ok()) {
        std::printf("  !! %s at rate %g failed (%s): %s\n",
                    scheme_name(scheme), rate, r.error_kind.c_str(),
                    r.error.c_str());
        shape_ok = false;
        continue;
      }
      const Metrics& m = r.metrics;
      if (i == 0) base_ipc = m.ipc;
      const std::uint64_t total_flits =
          m.flits_by_type[0] + m.flits_by_type[1] + m.flits_by_type[2] +
          m.flits_by_type[3];
      const double overhead =
          total_flits ? static_cast<double>(m.activity.noc_retx_flits) /
                            static_cast<double>(total_flits)
                      : 0.0;
      char rate_s[32];
      std::snprintf(rate_s, sizeof(rate_s), "%g", rate);
      t.add_row({rate_s, fmt(m.ipc, 3),
                 fmt(base_ipc > 0.0 ? m.ipc / base_ipc : 0.0, 3),
                 std::to_string(m.packets_corrupted),
                 std::to_string(m.packets_retransmitted),
                 std::to_string(m.packets_recovered),
                 std::to_string(m.packets_lost), fmt_pct(overhead, 2)});

      js << (first_cell ? "" : ",\n") << "    {\"fabric\": \"" << fabric
         << "\", \"scheme\": \"" << scheme_name(scheme)
         << "\", \"corrupt_rate\": " << rate << ", \"ipc\": " << m.ipc
         << ", \"packets_corrupted\": " << m.packets_corrupted
         << ", \"packets_retransmitted\": " << m.packets_retransmitted
         << ", \"packets_recovered\": " << m.packets_recovered
         << ", \"packets_lost\": " << m.packets_lost
         << ", \"retx_flits\": " << m.activity.noc_retx_flits
         << ", \"retx_flit_overhead\": " << overhead << "}";
      first_cell = false;

      // Shape checks: recovery >= 99% of corrupted packets; IPC must not
      // *improve* materially as the fault rate rises. The tolerance covers
      // scheduling noise: at the smallest rates a congested baseline can
      // swing a few percent either way depending on the RNG stream.
      if (m.packets_corrupted > 0) {
        const double recovery =
            1.0 - static_cast<double>(m.packets_lost) /
                      static_cast<double>(m.packets_corrupted);
        if (recovery < 0.99) {
          std::printf("  !! recovery %.4f < 0.99 at rate %g (%s)\n", recovery,
                      rate, scheme_name(scheme));
          shape_ok = false;
        }
      }
      if (i > 0 && prev_ipc > 0.0 && m.ipc > prev_ipc * 1.05) {
        std::printf("  !! IPC rose from %.3f to %.3f at rate %g (%s)\n",
                    prev_ipc, m.ipc, rate, scheme_name(scheme));
        shape_ok = false;
      }
      prev_ipc = m.ipc;
    }
    std::printf("%s on %s\n%s\n", scheme_name(scheme), benchmark.c_str(),
                t.to_string().c_str());
  }
  js << "\n  ]\n}\n";
  if (!bench::write_bench_json(out_path, js.str())) return 1;
  std::printf("shape check: %s\n", shape_ok ? "ok" : "FAILED");
  return shape_ok ? 0 : 1;
}
