// arinoc_sim — the command-line simulator driver.
//
//   arinoc_sim [options]
//     --benchmark <name>      synthetic workload (default: bfs)
//     --replay <file>         trace-file workload (overrides --benchmark)
//     --scheme <name>         XY-Baseline | XY-ARI | Ada-Baseline |
//                             Ada-MultiPort | Ada-ARI | Acc-Supply |
//                             Acc-Consume | Acc-Both-NoPriority |
//                             Raw-Baseline          (default: Ada-ARI)
//     --mesh <k>              k x k mesh             (default: 6)
//     --topology <spec>       fabric: mesh | torus | cmesh[:c] |
//                             chiplet[:CXxCY] | <topology file path>
//                             (default: mesh; cmesh concentration c
//                             defaults to 4, chiplet grid to 2x2 of
//                             --mesh-sized meshes; a path loads a
//                             file-driven fabric and sets --mcs from it)
//     --serdes <n>            chiplet-boundary extra link latency (default 4)
//     --emit-topology <path>  write the configured fabric as a topology
//                             file and exit (no simulation)
//     --mcs <n>               memory controllers     (default: 8)
//     --vcs <n>               virtual channels       (default: 4)
//     --cycles <n>            measured cycles        (default: 8000)
//     --warmup <n>            warmup cycles          (default: 2000)
//     --seed <n>              RNG seed               (default: 1)
//     --da2mesh               use the DA2mesh overlay reply fabric
//     --placement <p>         diamond | top-bottom | column
//     --json                  machine-readable metrics on stdout
//     --list-benchmarks       print the 30-benchmark suite and exit
//
//   Execution engine (synthetic benchmarks run through arinoc::exec):
//     --jobs <n>              exec pool size (single runs need just 1)
//     --no-cache              disable the on-disk result cache
//     --cache-dir <dir>       result-cache directory (default:
//                             $ARINOC_CACHE_DIR or .arinoc-cache)
//   A cache hit replays the stored metrics byte-identically instead of
//   re-simulating. Replay runs bypass the cache (the cache key covers
//   named benchmarks, not trace file contents).
//
//   Observability (see docs/observability.md; all off by default):
//     --trace                 record the packet-lifecycle event trace
//     --trace-out <file>      Chrome trace-event JSON path (implies
//                             --trace; default: arinoc-trace.json)
//     --trace-capacity <n>    trace ring size in events (default: 65536)
//     --sample-interval <n>   telemetry sample every n cycles (0 = off)
//     --sample-out <file>     telemetry JSONL path (needs --sample-interval)
//     --counters-out <file>   dump every component counter as JSON after
//                             the run
//     --attr-out <file>       latency-attribution report JSON (per-stage
//                             breakdown, top-k bottlenecks, congestion
//                             series; see docs/observability.md)
//     --attr-html <file>      self-contained HTML dashboard: fabric heatmap
//                             with a time-window slider over the congestion
//                             series (implies attribution)
//     --attr-window <n>       congestion-series window in cycles (512)
//     --self-profile <file>   per-epoch simulator self-profile JSONL:
//                             subsystem wall-clock + activity wake rates
//   Environment fallbacks: ARINOC_TRACE (any value), ARINOC_TRACE_OUT,
//   ARINOC_SAMPLE_INTERVAL, ARINOC_SAMPLE_OUT. Observed runs execute the
//   simulator directly (same per-cell seed derivation as the execution
//   engine, so metrics match the unobserved path bit-for-bit) and bypass
//   the result cache. Trace/telemetry files are written even when the
//   watchdog trips — the cycles leading up to a deadlock are exactly the
//   ones worth looking at.
//
//   Fault injection (reply network; all rates default to 0 = off):
//     --fault-corrupt <p>     per-link/cycle transient corruption prob.
//     --fault-stall <p>       per-link/cycle stall-window probability
//     --fault-stall-len <n>   stall window length in cycles (default: 20)
//     --fault-port-fail <p>   per-link/cycle permanent failure probability
//     --fault-credit-loss <p> per-link/cycle credit-loss probability
//     --fault-seed <n>        fault RNG stream seed    (default: 12345)
//     --no-recovery           disable CRC drop + ACK/NACK retransmission
//
//   Simulation core:
//     --no-activity           step every component every cycle instead of
//                             only active ones (bit-identical results,
//                             slower; see docs/performance.md)
//
//   Watchdog (on by default):
//     --no-watchdog           disable deadlock/livelock detection
//     --watchdog-deadlock <K> no-movement window        (default: 5000)
//     --watchdog-livelock <n> per-packet age ceiling    (default: 50000)
//     --audit-interval <n>    credit-invariant audit period (default: off)
//
//   Open-loop serving + admission control (see docs/workloads.md,
//   docs/noc.md; all off by default — off means bit-identical to previous
//   releases):
//     --pace <spec>           open-loop front end: pace spec or pace-file
//                             path replaces the closed-loop cores
//                             (constant:0.05, diurnal:..., burst:...,
//                             flash:..., or a *.pace file)
//     --load <x>              load factor scaling the pace profile (1.0)
//     --admission             enable NI admission control + the
//                             NORMAL/THROTTLED/SHEDDING degradation FSM
//     --slo <cycles>          end-to-end p99 latency objective; a run that
//                             finishes above it exits 6 (open-loop runs
//                             check client e2e p99, closed-loop runs check
//                             reply-network p99)
//   Missing/unreadable trace or pace files are rejected up front with exit
//   code 2, before any simulation state is built. File-paced open-loop runs
//   bypass the result cache (the cache key covers the pace spec string, not
//   pace-file contents).
//
//   Regression sentinel (see docs/observability.md):
//     --baseline-write <dir>  anchor this cell: write its golden baseline
//                             entry (deterministic JSON keyed by benchmark/
//                             scheme/fabric/config-hash) under <dir>
//     --baseline-check <dir>  compare this run against the anchored entry;
//                             out-of-tolerance metric movement exits 7 with
//                             a per-metric delta report on stderr
//     --ignore-improvements   with --baseline-check: out-of-tolerance moves
//                             in the good direction (IPC up, latency down)
//                             do not fail
//   Replay runs reject both baseline flags (exit 2): the canonical-config
//   hash keying the store covers named benchmarks, not trace-file contents.
//   --json output carries an "arinoc-provenance-v1" block (version, config
//   hash, cell coordinates, host, wall time) alongside the metrics.
//
//   Every output path (--trace-out, --sample-out, --counters-out,
//   --attr-out, --attr-html, --self-profile, --baseline-*) is checked up
//   front: a parent directory that does not exist is a usage error (exit 2,
//   clear message) before any simulation state is built.
//
//   Exit codes: 0 ok, 1 runtime error, 2 usage/config error,
//               3 deadlock detected, 4 livelock detected,
//               5 invariant violation detected, 6 SLO violated,
//               7 regression detected (--baseline-check).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/parse_count.hpp"
#include "core/experiment.hpp"
#include "core/watchdog.hpp"
#include "core/report.hpp"
#include "exec/options.hpp"
#include "exec/result_cache.hpp"
#include "exec/runner.hpp"
#include "obs/attr.hpp"
#include "obs/regress/baseline.hpp"
#include "obs/regress/compare.hpp"
#include "obs/regress/provenance.hpp"
#include "obs/selfprof.hpp"
#include "obs/trace.hpp"
#include "topo/fabric.hpp"
#include "topo/file.hpp"
#include "workloads/suite.hpp"
#include "workloads/tracefile.hpp"

using namespace arinoc;

namespace {

std::optional<Scheme> parse_scheme(const std::string& name) {
  for (Scheme s :
       {Scheme::kXYBaseline, Scheme::kXYARI, Scheme::kAdaBaseline,
        Scheme::kAdaMultiPort, Scheme::kAdaARI, Scheme::kAccSupply,
        Scheme::kAccConsume, Scheme::kAccBothNoPrio, Scheme::kRawBaseline}) {
    if (name == scheme_name(s)) return s;
  }
  return std::nullopt;
}

void print_human(const Metrics& m, bool faults, bool serving) {
  TextTable t({"metric", "value"});
  t.add_row({"cycles", std::to_string(m.cycles)});
  t.add_row({"IPC (warp instr/cycle)", fmt(m.ipc)});
  t.add_row({"request packet latency", fmt(m.request_latency, 1)});
  t.add_row({"reply packet latency", fmt(m.reply_latency, 1)});
  t.add_row({"reply latency p50/p95/p99",
             fmt(m.reply_latency_p50, 1) + " / " +
                 fmt(m.reply_latency_p95, 1) + " / " +
                 fmt(m.reply_latency_p99, 1)});
  t.add_row({"MC stall cycles", std::to_string(m.mc_stall_cycles)});
  t.add_row({"reply injection link util", fmt(m.reply_injection_util)});
  t.add_row({"reply in-network link util", fmt(m.reply_internal_util)});
  t.add_row({"NI occupancy (pkts)", fmt(m.ni_occupancy_pkts, 1)});
  t.add_row({"L1 / L2 hit rate", fmt_pct(m.l1_hit_rate) + " / " +
                                     fmt_pct(m.l2_hit_rate)});
  t.add_row({"DRAM row hit rate", fmt_pct(m.dram_row_hit_rate)});
  t.add_row({"energy (nJ)", fmt(m.energy.total_nj(), 0)});
  if (faults) {
    t.add_row({"flits corrupted", std::to_string(m.flits_corrupted)});
    t.add_row({"packets corrupted", std::to_string(m.packets_corrupted)});
    t.add_row({"packets retransmitted",
               std::to_string(m.packets_retransmitted)});
    t.add_row({"packets recovered", std::to_string(m.packets_recovered)});
    t.add_row({"packets lost", std::to_string(m.packets_lost)});
    t.add_row({"duplicates dropped", std::to_string(m.duplicates_dropped)});
    t.add_row({"credits lost", std::to_string(m.credits_lost)});
    t.add_row({"link stall events", std::to_string(m.link_stall_events)});
    t.add_row({"port failures", std::to_string(m.port_failures)});
    t.add_row({"retransmitted flits",
               std::to_string(m.activity.noc_retx_flits)});
  }
  if (serving) {
    t.add_row({"requests offered/completed",
               std::to_string(m.requests_offered) + " / " +
                   std::to_string(m.requests_completed)});
    t.add_row({"offered rate / goodput",
               fmt(m.offered_rate, 4) + " / " + fmt(m.goodput, 4)});
    t.add_row({"requests shed/deferred",
               std::to_string(m.requests_shed) + " / " +
                   std::to_string(m.requests_deferred)});
    t.add_row({"e2e latency p50/p99/p99.9",
               fmt(m.e2e_latency_p50, 1) + " / " + fmt(m.e2e_latency_p99, 1) +
                   " / " + fmt(m.e2e_latency_p999, 1)});
    t.add_row({"cycles throttled/shedding",
               std::to_string(m.cycles_throttled) + " / " +
                   std::to_string(m.cycles_shedding)});
    t.add_row({"degrade transitions", std::to_string(m.degrade_transitions)});
    t.add_row({"watchdog pre-trips", std::to_string(m.watchdog_pre_trips)});
  }
  std::printf("%s", t.to_string().c_str());
}

struct ObsOptions {
  bool trace = false;
  std::string trace_out;     ///< Defaults to "arinoc-trace.json" if tracing.
  std::size_t trace_capacity = obs::PacketTracer::kDefaultCapacity;
  std::string sample_out;    ///< Telemetry JSONL (needs --sample-interval).
  std::string counters_out;  ///< Counter-dump JSON.
  std::string attr_out;      ///< Latency-attribution report JSON.
  std::string attr_html;     ///< Attribution dashboard (self-contained HTML).
  Cycle attr_window = 0;     ///< Congestion-series window (0 = default).
  std::string self_profile;  ///< Simulator self-profile JSONL.

  /// Any observer active means the run executes the simulator directly
  /// instead of going through the exec engine (whose workers own their
  /// simulators, so there is nothing to attach a tracer to).
  bool any() const {
    return trace || !sample_out.empty() || !counters_out.empty() ||
           !attr_out.empty() || !attr_html.empty() || !self_profile.empty();
  }
  bool attr() const { return !attr_out.empty() || !attr_html.empty(); }
};

ObsOptions obs_from_env() {
  ObsOptions obs;
  if (std::getenv("ARINOC_TRACE") != nullptr) obs.trace = true;
  if (const char* out = std::getenv("ARINOC_TRACE_OUT")) {
    obs.trace = true;
    obs.trace_out = out;
  }
  if (const char* out = std::getenv("ARINOC_SAMPLE_OUT")) obs.sample_out = out;
  return obs;
}

/// Reads one count of a --topology generator spec: a plain positive
/// decimal that fits the field (parse_count names a malformed one).
bool spec_count(const std::string& text, std::uint32_t* out) {
  return parse_count("--topology", text.c_str(), out) && *out > 0;
}

/// Prints the usage error for a malformed generator spec; returns false.
bool malformed_spec(const std::string& spec, const char* want) {
  std::fprintf(stderr, "malformed %s spec '%s' (want %s)\n",
               spec.substr(0, spec.find(':')).c_str(), spec.c_str(), want);
  return false;
}

/// Applies a --topology spec to the config: a generator keyword (with
/// optional parameters) or a topology file path. Returns false (after
/// printing a usage error) on a malformed generator spec.
bool apply_topology_spec(const std::string& spec, Config& cfg) {
  if (spec == "mesh" || spec == "torus") {
    cfg.fabric = spec;
    return true;
  }
  if (spec == "cmesh" || spec.rfind("cmesh:", 0) == 0) {
    cfg.fabric = "cmesh";
    if (spec.size() > 6 &&
        !spec_count(spec.substr(6), &cfg.cmesh_concentration)) {
      return malformed_spec(spec, "cmesh[:c]");
    }
    return true;
  }
  if (spec == "chiplet" || spec.rfind("chiplet:", 0) == 0) {
    cfg.fabric = "chiplet";
    if (spec.size() > 8) {
      const std::size_t x = spec.find('x', 8);
      if (x == std::string::npos ||
          !spec_count(spec.substr(8, x - 8), &cfg.chiplets_x) ||
          !spec_count(spec.substr(x + 1), &cfg.chiplets_y)) {
        return malformed_spec(spec, "chiplet[:CXxCY]");
      }
    }
    return true;
  }
  // Anything else is a topology file path; existence is checked after
  // argument parsing, alongside the other input files.
  cfg.fabric = "file";
  cfg.topology_file = spec;
  return true;
}

/// True when the pace spec names a file rather than a built-in generator
/// (mirrors PaceProfile::parse_spec's dispatch rule).
bool pace_spec_is_file(const std::string& spec) {
  return spec.find('/') != std::string::npos ||
         (spec.size() >= 5 && spec.compare(spec.size() - 5, 5, ".pace") == 0);
}

/// Fail-fast existence/readability check for input files named on the
/// command line: a typo'd path must die with a clear usage error before
/// any simulation state is built, not as a mid-run exception.
bool require_readable(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (in.good()) return true;
  std::fprintf(stderr, "error: %s '%s' is missing or unreadable\n", what,
               path.c_str());
  return false;
}

/// Fail-fast parent-directory check for output files named on the command
/// line: writing into a directory that does not exist must die with a clear
/// usage error before any simulation state is built, not as a mid-run
/// "cannot write" after minutes of simulation.
bool require_parent_dir(const std::string& path, const char* flag) {
  if (path.empty() || obs::regress::parent_dir_exists(path)) return true;
  std::fprintf(stderr,
               "error: %s '%s': parent directory '%s' does not exist\n", flag,
               path.c_str(), obs::regress::parent_dir_of(path).c_str());
  return false;
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) out << body;
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

/// Runs an observed simulation: attaches the requested observers, runs, and
/// writes every requested artifact — including after a watchdog trip.
/// Returns the process exit status; fills `m` on success.
int run_observed(GpgpuSim& sim, const ObsOptions& obs, Cycle sample_interval,
                 Metrics& m) {
  obs::PacketTracer tracer(obs.trace_capacity);
  if (obs.trace) sim.attach_tracer(&tracer);
  if (sample_interval > 0) sim.enable_sampling(sample_interval);
  obs::LatencyAttributor attr(
      obs.attr_window > 0 ? obs.attr_window
                          : obs::LatencyAttributor::kDefaultWindow);
  if (obs.attr()) sim.attach_attributor(&attr);
  obs::SelfProfiler prof;
  if (!obs.self_profile.empty()) sim.attach_self_profiler(&prof);

  int status = 0;
  std::string trip_text;
  try {
    sim.run_with_warmup();
  } catch (const WatchdogTrip& trip) {
    status = trip.exit_status();
    trip_text = std::string(trip.what()) + "\n" + trip.dump();
  }
  if (sample_interval > 0) sim.flush_sampler();
  if (!obs.self_profile.empty()) prof.finish(sim.now());
  if (status == 0) m = sim.collect();

  if (obs.trace) {
    const std::string path = obs.trace_out.empty()
                                 ? std::string("arinoc-trace.json")
                                 : obs.trace_out;
    if (!write_file(path, tracer.to_chrome_json()) && status == 0) status = 1;
  }
  if (!obs.sample_out.empty() && sim.sampler() != nullptr) {
    if (!write_file(obs.sample_out, sim.sampler()->to_jsonl()) && status == 0)
      status = 1;
  }
  if (!obs.counters_out.empty()) {
    if (!write_file(obs.counters_out, sim.counters().to_json() + "\n") &&
        status == 0)
      status = 1;
  }
  if (!obs.attr_out.empty()) {
    if (!write_file(obs.attr_out, attr.to_json() + "\n") && status == 0)
      status = 1;
  }
  if (!obs.attr_html.empty()) {
    const std::string html =
        obs::attr_html_document(attr, &sim.fabric().graph());
    if (!write_file(obs.attr_html, html) && status == 0) status = 1;
  }
  if (!obs.self_profile.empty()) {
    if (!write_file(obs.self_profile, prof.to_jsonl()) && status == 0)
      status = 1;
  }
  if (!trip_text.empty()) std::fprintf(stderr, "%s", trip_text.c_str());
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  std::string benchmark = "bfs";
  std::string replay_path;
  Scheme scheme = Scheme::kAdaARI;
  Config cfg = make_base_config();
  bool da2mesh = false;
  bool json = false;
  std::string emit_topology_path;
  std::string baseline_write;  ///< --baseline-write dir ("" = off).
  std::string baseline_check;  ///< --baseline-check dir ("" = off).
  bool ignore_improvements = false;
  double slo_cycles = 0.0;  ///< 0 = no SLO check.
  ObsOptions obs = obs_from_env();

  exec::ExecOptions exec_opts = exec::options_from_env(true);
  exec_opts.jobs = 1;        // One cell; a wide pool buys nothing here.
  exec_opts.progress = false;
  if (!exec::parse_exec_flags(argc, argv, exec_opts)) return 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Numeric values parse strictly: a malformed one exits 2 naming the flag.
    auto count = [&](auto* out) {
      const char* text = value();
      if (!parse_count(arg.c_str(), text, out)) std::exit(2);
    };
    auto real = [&](double* out) {
      const char* text = value();
      if (!parse_real(arg.c_str(), text, out)) std::exit(2);
    };
    if (arg == "--benchmark") {
      benchmark = value();
    } else if (arg == "--replay") {
      replay_path = value();
    } else if (arg == "--trace") {
      obs.trace = true;
    } else if (arg == "--trace-out") {
      obs.trace = true;
      obs.trace_out = value();
    } else if (arg == "--trace-capacity") {
      count(&obs.trace_capacity);
    } else if (arg == "--sample-out") {
      obs.sample_out = value();
    } else if (arg == "--counters-out") {
      obs.counters_out = value();
    } else if (arg == "--attr-out") {
      obs.attr_out = value();
    } else if (arg == "--attr-html") {
      obs.attr_html = value();
    } else if (arg == "--attr-window") {
      count(&obs.attr_window);
      if (obs.attr_window == 0) {
        std::fprintf(stderr, "--attr-window requires a positive cycle count\n");
        return 2;
      }
    } else if (arg == "--self-profile") {
      obs.self_profile = value();
    } else if (arg == "--scheme") {
      const std::string name = value();
      const auto s = parse_scheme(name);
      if (!s) {
        std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
        return 2;
      }
      scheme = *s;
    } else if (arg == "--mesh") {
      count(&cfg.mesh_width);
      cfg.mesh_height = cfg.mesh_width;
    } else if (arg == "--topology") {
      if (!apply_topology_spec(value(), cfg)) return 2;
    } else if (arg == "--serdes") {
      count(&cfg.serdes_latency);
    } else if (arg == "--emit-topology") {
      emit_topology_path = value();
    } else if (arg == "--mcs") {
      count(&cfg.num_mcs);
    } else if (arg == "--vcs") {
      count(&cfg.num_vcs);
    } else if (arg == "--cycles") {
      count(&cfg.run_cycles);
    } else if (arg == "--warmup") {
      count(&cfg.warmup_cycles);
    } else if (arg == "--seed") {
      count(&cfg.seed);
    } else if (arg == "--fault-corrupt") {
      real(&cfg.fault_corrupt_rate);
    } else if (arg == "--fault-stall") {
      real(&cfg.fault_link_stall_rate);
    } else if (arg == "--fault-stall-len") {
      count(&cfg.fault_link_stall_len);
    } else if (arg == "--fault-port-fail") {
      real(&cfg.fault_port_fail_rate);
    } else if (arg == "--fault-credit-loss") {
      real(&cfg.fault_credit_loss_rate);
    } else if (arg == "--fault-seed") {
      count(&cfg.fault_seed);
    } else if (arg == "--no-recovery") {
      cfg.fault_recovery = false;
    } else if (arg == "--pace") {
      cfg.open_loop = true;
      cfg.pace_spec = value();
    } else if (arg == "--load") {
      real(&cfg.pace_scale);
    } else if (arg == "--admission") {
      cfg.admission_enabled = true;
    } else if (arg == "--slo") {
      real(&slo_cycles);
      if (slo_cycles <= 0.0) {
        std::fprintf(stderr, "--slo requires a positive cycle count\n");
        return 2;
      }
    } else if (arg == "--no-activity") {
      cfg.activity_driven = false;
    } else if (arg == "--no-watchdog") {
      cfg.watchdog_enabled = false;
    } else if (arg == "--watchdog-deadlock") {
      count(&cfg.watchdog_deadlock_window);
    } else if (arg == "--watchdog-livelock") {
      count(&cfg.watchdog_livelock_age);
    } else if (arg == "--audit-interval") {
      count(&cfg.watchdog_audit_interval);
    } else if (arg == "--da2mesh") {
      da2mesh = true;
    } else if (arg == "--placement") {
      const std::string p = value();
      if (p == "diamond") {
        cfg.mc_placement = McPlacement::kDiamond;
      } else if (p == "top-bottom") {
        cfg.mc_placement = McPlacement::kTopBottom;
      } else if (p == "column") {
        cfg.mc_placement = McPlacement::kColumn;
      } else {
        std::fprintf(stderr, "unknown placement '%s'\n", p.c_str());
        return 2;
      }
    } else if (arg == "--baseline-write") {
      baseline_write = value();
    } else if (arg == "--baseline-check") {
      baseline_check = value();
    } else if (arg == "--ignore-improvements") {
      ignore_improvements = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--list-benchmarks") {
      for (const auto& b : benchmark_suite()) {
        std::printf("%-16s %s\n", b.name.c_str(),
                    sensitivity_name(b.sensitivity));
      }
      return 0;
    } else {
      return exec::unknown_option(
          arg.c_str(), "the run flags listed atop examples/arinoc_sim.cpp");
    }
  }

  if (!obs.sample_out.empty() && exec_opts.sample_interval == 0) {
    std::fprintf(stderr, "--sample-out requires --sample-interval <n>\n");
    return 2;
  }
  if (!baseline_write.empty() && !baseline_check.empty()) {
    std::fprintf(stderr,
                 "--baseline-write and --baseline-check are mutually "
                 "exclusive (anchor first, then check)\n");
    return 2;
  }
  if ((!baseline_write.empty() || !baseline_check.empty()) &&
      !replay_path.empty()) {
    std::fprintf(stderr,
                 "--baseline-write/--baseline-check do not support --replay: "
                 "the canonical-config hash keying the golden store covers "
                 "named benchmarks, not trace-file contents\n");
    return 2;
  }

  // Fail fast on output paths: a parent directory that does not exist is a
  // usage error (exit 2) caught before any simulation state is built.
  if (!require_parent_dir(obs.trace_out, "--trace-out") ||
      !require_parent_dir(obs.sample_out, "--sample-out") ||
      !require_parent_dir(obs.counters_out, "--counters-out") ||
      !require_parent_dir(obs.attr_out, "--attr-out") ||
      !require_parent_dir(obs.attr_html, "--attr-html") ||
      !require_parent_dir(obs.self_profile, "--self-profile") ||
      !require_parent_dir(emit_topology_path, "--emit-topology")) {
    return 2;
  }
  // --baseline-write creates its store directory (one level); its parent
  // must exist. --baseline-check reads an existing store.
  if (!baseline_write.empty() &&
      !require_parent_dir(baseline_write, "--baseline-write")) {
    return 2;
  }
  if (!baseline_check.empty()) {
    if (!obs::regress::parent_dir_exists(baseline_check + "/x")) {
      std::fprintf(stderr,
                   "error: --baseline-check '%s': directory does not exist "
                   "(anchor it first with --baseline-write)\n",
                   baseline_check.c_str());
      return 2;
    }
  }

  // Fail fast on input files: a missing/unreadable trace or pace file is a
  // usage error (exit 2) caught before any simulation state exists.
  if (!replay_path.empty() &&
      !require_readable(replay_path, "trace file")) {
    return 2;
  }
  if (cfg.open_loop && pace_spec_is_file(cfg.pace_spec)) {
    if (!require_readable(cfg.pace_spec, "pace file")) return 2;
    // Pace-file contents are not part of the exec cache key (only the path
    // string is), so a cached result could silently go stale if the file
    // changed. Never cache file-paced cells.
    exec_opts.cache_enabled = false;
  }
  if (cfg.fabric == "file") {
    // Fail fast on the topology file: parse it up front so a malformed
    // fabric dies with a clear location-tagged message (exit 2) before any
    // simulation state exists. Its MC count defines the system's MCs.
    // (Caching stays safe: the cache key hashes the file contents.)
    if (!require_readable(cfg.topology_file, "topology file")) return 2;
    try {
      const topo::FabricGraph g = topo::parse_topology_file(cfg.topology_file);
      cfg.num_mcs = static_cast<std::uint32_t>(
          g.count_role(topo::NodeRole::kMC));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  // Reject an invalid configuration (an oversized fabric among them)
  // before any fabric or simulator state is built.
  try {
    resolve_cell_config(cfg, scheme, benchmark);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (!emit_topology_path.empty()) {
    // Emit the configured fabric as a topology file and exit: the written
    // file reloads via --topology <path> as the identical graph.
    try {
      const topo::Fabric fab = topo::make_fabric(cfg);
      topo::write_topology_file(fab.graph(), emit_topology_path);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    return 0;
  }

  Metrics m;
  // Identity of the cell that actually ran — filled by every branch below,
  // consumed by the provenance block (--json) and the baseline store.
  Config resolved_cfg = cfg;
  std::string fabric_tag;
  const auto wall_start = std::chrono::steady_clock::now();
  if (!replay_path.empty() || obs.any()) {
    // Direct runs. Replays bypass the exec cache: its key covers named
    // benchmarks, not trace file contents. Observed runs need a simulator
    // to attach to, and the exec workers own theirs; their config goes
    // through the same resolve_cell_config() as the exec path, so seed
    // derivation (and therefore every metric) matches bit-for-bit.
    const bool replay = !replay_path.empty();
    const BenchmarkTraits* traits = find_benchmark(benchmark);
    if (!replay && traits == nullptr) {
      std::fprintf(stderr, "unknown benchmark '%s' (see --list-benchmarks)\n",
                   benchmark.c_str());
      return 2;
    }
    try {
      resolved_cfg = replay ? apply_scheme(cfg, scheme)
                            : resolve_cell_config(cfg, scheme, benchmark);
      fabric_tag = da2mesh ? "da2mesh" : exec::fabric_cache_tag(resolved_cfg);
      std::optional<TraceFileSource> source;
      if (replay) {
        source.emplace(Trace::load(replay_path), resolved_cfg.num_ccs(),
                       resolved_cfg.warps_per_core, resolved_cfg.line_bytes);
      }
      GpgpuSim sim = source ? GpgpuSim(resolved_cfg, &*source, da2mesh)
                            : GpgpuSim(resolved_cfg, *traits, da2mesh);
      const int status = run_observed(sim, obs, exec_opts.sample_interval, m);
      if (status != 0) return status;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  } else {
    if (find_benchmark(benchmark) == nullptr) {
      std::fprintf(stderr, "unknown benchmark '%s' (see --list-benchmarks)\n",
                   benchmark.c_str());
      return 2;
    }
    // One-cell grid on the execution engine: crash isolation surfaces any
    // watchdog trip as a structured per-cell error, and the result cache
    // replays unchanged configurations without re-simulating.
    exec::ExperimentRunner runner(cfg, exec_opts);
    const exec::CellSpec spec{"cli", scheme, benchmark, nullptr, da2mesh};
    const auto results = runner.run({spec});
    const exec::CellResult& r = results.at(0);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n%s", r.error.c_str(),
                   r.error_detail.c_str());
      return r.exit_status;
    }
    m = r.metrics;
    resolved_cfg = runner.resolve(spec);  // Cannot throw: the cell ran.
    fabric_tag = r.fabric;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Cell provenance: shared by the --json block and the baseline store.
  obs::regress::Provenance prov = obs::regress::collect_provenance();
  prov.config_hash = obs::regress::config_hash_hex(resolved_cfg);
  prov.scheme = scheme_name(scheme);
  prov.benchmark = replay_path.empty() ? benchmark : replay_path;
  prov.fabric = fabric_tag;
  prov.seed = resolved_cfg.seed;
  prov.wall_s = wall_s;

  if (!baseline_write.empty() || !baseline_check.empty()) {
    obs::regress::BaselineEntry entry;
    entry.provenance = prov;
    entry.metrics = obs::regress::snapshot_metrics(m);
    try {
      if (!baseline_write.empty()) {
        const std::string path =
            obs::regress::write_baseline_entry(baseline_write, entry);
        std::fprintf(stderr, "baseline anchored: %s\n", path.c_str());
      } else {
        const obs::regress::BaselineEntry anchored =
            obs::regress::load_baseline_entry(baseline_check, entry);
        obs::regress::CompareOptions copts;
        copts.ignore_improvements = ignore_improvements;
        const obs::regress::CompareReport report =
            obs::regress::compare_entries(anchored, entry, copts);
        if (report.failed) {
          std::fprintf(stderr, "REGRESSION vs %s/%s:\n%s",
                       baseline_check.c_str(), entry.file_name().c_str(),
                       report.text().c_str());
          return 7;
        }
        std::fprintf(stderr, "baseline check ok: %zu metrics within "
                             "tolerance (%zu improved, %zu new)\n",
                     entry.metrics.size(),
                     report.count(obs::regress::Verdict::kImproved),
                     report.count(obs::regress::Verdict::kNew));
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      // A missing anchor is a configuration error (the store does not
      // cover this cell); write-side I/O failures are runtime errors.
      return baseline_check.empty() ? 1 : 2;
    }
  }

  if (json) {
    std::printf("%s\n",
                metrics_to_json(m, 2, obs::regress::provenance_json(prov))
                    .c_str());
  } else {
    std::printf("scheme: %s   workload: %s\n", scheme_name(scheme),
                replay_path.empty() ? benchmark.c_str() : replay_path.c_str());
    if (cfg.open_loop) {
      std::printf("pace: %s   load: %.3g   admission: %s\n",
                  cfg.pace_spec.c_str(), cfg.pace_scale,
                  cfg.admission_enabled ? "on" : "off");
    }
    print_human(m, cfg.fault_enabled(),
                cfg.open_loop || cfg.admission_enabled);
  }

  // SLO gate: open-loop runs are judged on client end-to-end p99 (queueing
  // included); closed-loop runs on reply-network p99.
  if (slo_cycles > 0.0) {
    const double p99 =
        cfg.open_loop ? m.e2e_latency_p99 : m.reply_latency_p99;
    if (p99 > slo_cycles) {
      std::fprintf(stderr, "SLO violated: p99 latency %.1f > objective %.1f\n",
                   p99, slo_cycles);
      return 6;
    }
  }
  return 0;
}
