// perfbench_run: runs one benchmark workload for one seed against the arinoc
// library, through its public calls only, and writes the raw measurements as
// one JSON document. perfbench/run.py builds this program, runs it, checks
// its outputs against the reference digests and reports the metrics.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --out <file> --scratch <dir>
//
// A run repeats its workload until --seconds have passed (at least once).
// With --trace 0 each repetition is timed exactly as a user would run it.
// With --trace 1 each repetition runs the workload twice: once untimed-by-
// tracing (the same timing as --trace 0) and once with the benchmark's own
// spans plus an obs::SelfProfiler attached, which gives the per-layer split.
// The difference between the two is the tracing overhead.
//
// Workloads (all on the default Config: threads = 1, activity-driven):
//   fig11-sweep         30 benchmarks x {Ada-Baseline, Ada-ARI}, Table-I 6x6
//                       mesh, make_base_config() length, ExperimentRunner
//                       with 2 jobs; a cold pass into a fresh result cache,
//                       then a warm pass that replays every cell from it.
//   bfs-chiplet         bfs on Ada-ARI, 2x2 chiplet of 6x6 meshes (144 nodes,
//                       serdes links, up*/down* table routing).
//   matrixMul-observed  matrixMul on Ada-Baseline, 6x6 mesh, with a
//                       LatencyAttributor and telemetry sampling attached;
//                       both artifacts are written inside the timed region.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/version.hpp"
#include "core/experiment.hpp"
#include "core/gpgpu_sim.hpp"
#include "core/report.hpp"
#include "exec/result_cache.hpp"
#include "exec/runner.hpp"
#include "obs/attr.hpp"
#include "obs/selfprof.hpp"
#include "topo/fabric.hpp"
#include "workloads/benchmark.hpp"
#include "workloads/suite.hpp"

using namespace arinoc;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Run lengths and workload constants (part of the benchmark) ----------

constexpr Cycle kWarmupCycles = 2000;        // make_base_config() warmup.
constexpr Cycle kSweepRunCycles = 8000;      // make_base_config() length.
constexpr Cycle kChipletRunCycles = 20000;
constexpr Cycle kObservedRunCycles = 40000;
constexpr Cycle kSampleInterval = 1000;      // Telemetry window (cycles).
constexpr Cycle kProfEpochCycles = 200;      // Divides kWarmupCycles.
constexpr unsigned kSweepJobs = 2;
constexpr int kSetupSamplesPerRep = 9;       // Single-cell constructions.
constexpr int kSweepSetupSamplesPerPoint = 5; // Whole-sweep set-ups.

// Environment overrides the library honours; the benchmark pins every one
// of these values itself, so none may leak in from the caller.
const char* const kIgnoredEnv[] = {
    "ARINOC_RUN_CYCLES", "ARINOC_WARMUP_CYCLES", "ARINOC_THREADS",
    "ARINOC_JOBS",       "ARINOC_CACHE_DIR",     "ARINOC_NO_CACHE",
    "ARINOC_SAMPLE_INTERVAL", "ARINOC_TELEMETRY_DIR", "ARINOC_ATTR_DIR"};

Config base_config(std::uint64_t seed) {
  Config cfg = make_base_config();
  cfg.warmup_cycles = kWarmupCycles;
  cfg.run_cycles = kSweepRunCycles;
  cfg.threads = 1;
  cfg.activity_driven = true;
  cfg.seed = seed;
  return cfg;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---- Spans ----------------------------------------------------------------

/// In-memory span log: one record per call the benchmark makes into a layer
/// (name, start, end, parent span, run id), written out when the run ends.
/// Disabled logs record nothing, so untraced passes pay one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int open(const char* name, int parent, const std::string& run) {
    if (!enabled_) return -1;
    const double t = now_us();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, run, t, -1.0});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id < 0) return;
    const double t = now_us();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = t;
  }

  std::string to_jsonl() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& s = spans_[i];
      os << "{\"id\": " << i << ", \"name\": " << json_str(s.name)
         << ", \"parent\": " << s.parent << ", \"run_id\": "
         << json_str(s.run) << ", \"start_us\": " << json_num(s.start_us)
         << ", \"end_us\": " << json_num(s.end_us) << "}\n";
    }
    return os.str();
  }

 private:
  struct Record {
    std::string name;
    int parent;
    std::string run;
    double start_us;
    double end_us;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Record> spans_;
};

class Span {
 public:
  Span(SpanLog& log, const char* name, int parent, const std::string& run)
      : log_(log), id_(log.open(name, parent, run)) {}
  ~Span() { log_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- Self-profiler totals --------------------------------------------------

/// Phase wall time and wake counts summed over the measured epochs (those
/// starting at or after the warmup), so ratios share their base with the
/// Metrics counters, which reset_stats() restarts at the same cycle.
struct ProfTotals {
  double ns[obs::kNumProfPhases] = {};
  double awake[obs::kNumProfGroups] = {};
  double capacity[obs::kNumProfGroups] = {};
  double cycles = 0;
  std::vector<double> epoch_us;  ///< Step wall time of each epoch.

  void add(const obs::SelfProfiler& p, Cycle from) {
    for (const auto& e : p.epochs()) {
      if (e.start_cycle < from) continue;
      double total = 0;
      for (std::size_t i = 0; i < obs::kNumProfPhases; ++i) {
        ns[i] += static_cast<double>(e.wall_ns[i]);
        total += static_cast<double>(e.wall_ns[i]);
      }
      for (std::size_t i = 0; i < obs::kNumProfGroups; ++i) {
        awake[i] += static_cast<double>(e.awake[i]);
        capacity[i] += static_cast<double>(e.capacity[i]);
      }
      cycles += static_cast<double>(e.end_cycle - e.start_cycle);
      epoch_us.push_back(total / 1000.0);
    }
  }
  double phase_per_cycle(obs::ProfPhase ph) const {
    return cycles > 0 ? ns[static_cast<std::size_t>(ph)] / cycles : 0.0;
  }
  double frac(obs::ProfGroup g) const {
    const std::size_t i = static_cast<std::size_t>(g);
    return capacity[i] > 0 ? awake[i] / capacity[i] : 0.0;
  }
};

// ---- One simulated cell ----------------------------------------------------

struct CellRun {
  Cycle cycles = 0;        ///< Warmup + measured cycles simulated.
  double build_ms = 0;     ///< make_fabric alone (traced passes only).
  int nodes = 0;
  double setup_s = 0;      ///< GpgpuSim construction (fabric included).
  double run_s = 0;        ///< run_with_warmup (+ artifact writes).
  double artifact_ms = 0;  ///< Attribution JSON + telemetry JSONL writes.
  double collect_ms = 0;   ///< collect() + metrics_to_json().
  Metrics metrics;
  std::string json;        ///< metrics_to_json(metrics), no provenance.
  std::string error;

  bool ok() const { return error.empty(); }
  double total_s() const {
    return setup_s + run_s + collect_ms / 1000.0;
  }
};

struct CellOptions {
  bool observe = false;              ///< Attributor + sampling + artifacts.
  obs::SelfProfiler* prof = nullptr; ///< Attached for the traced passes.
  bool time_fabric = false;          ///< Time make_fabric on its own.
  std::string artifact_dir;          ///< Where observed cells write.
};

CellRun run_cell(const Config& cfg, const BenchmarkTraits& traits,
                 const CellOptions& opt, SpanLog& spans, int parent,
                 const std::string& run) {
  CellRun r;
  r.cycles = cfg.warmup_cycles + cfg.run_cycles;
  try {
    if (opt.time_fabric) {
      Span s(spans, "topo.make_fabric", parent, run);
      const auto t0 = Clock::now();
      const topo::Fabric fabric = topo::make_fabric(cfg);
      r.build_ms = seconds_between(t0, Clock::now()) * 1000.0;
      r.nodes = fabric.nodes();
    }
    std::unique_ptr<GpgpuSim> sim;
    {
      Span s(spans, "core.construct", parent, run);
      const auto t0 = Clock::now();
      sim = std::make_unique<GpgpuSim>(cfg, traits);
      r.setup_s = seconds_between(t0, Clock::now());
    }
    std::optional<obs::LatencyAttributor> attr;
    if (opt.observe) {
      attr.emplace();
      sim->attach_attributor(&*attr);
      sim->enable_sampling(kSampleInterval);
    }
    if (opt.prof != nullptr) sim->attach_self_profiler(opt.prof);

    const auto t0 = Clock::now();
    {
      Span s(spans, "core.run_with_warmup", parent, run);
      sim->run_with_warmup();
    }
    if (opt.observe) {
      Span s(spans, "obs.artifact_write", parent, run);
      const auto ta = Clock::now();
      sim->flush_sampler();
      write_file(opt.artifact_dir + "/attr.json", attr->to_json() + "\n");
      write_file(opt.artifact_dir + "/telemetry.jsonl",
                 sim->sampler()->to_jsonl());
      r.artifact_ms = seconds_between(ta, Clock::now()) * 1000.0;
    }
    r.run_s = seconds_between(t0, Clock::now());
    if (opt.prof != nullptr) opt.prof->finish(sim->now());

    Span s(spans, "core.collect", parent, run);
    const auto tc = Clock::now();
    r.metrics = sim->collect();
    r.json = metrics_to_json(r.metrics);
    r.collect_ms = seconds_between(tc, Clock::now()) * 1000.0;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

// ---- Outputs and their checks ----------------------------------------------

/// One checked batch of outputs: its cells are compared, as one digest,
/// against the reference by run.py. `digest` is empty for a pass whose
/// check was done here instead (see `errors`).
struct Pass {
  std::string kind;
  std::size_t cells = 0;
  std::size_t errors = 0;      ///< Cells that failed to produce output.
  std::uint64_t violations = 0;  ///< Attribution conservation failures.
  std::string digest;
  std::string first_error;
};

std::string pass_json(const Pass& p) {
  std::ostringstream os;
  os << "{\"kind\": " << json_str(p.kind) << ", \"cells\": " << p.cells
     << ", \"errors\": " << p.errors << ", \"violations\": " << p.violations
     << ", \"digest\": " << (p.digest.empty() ? "null" : json_str(p.digest))
     << ", \"first_error\": " << json_str(p.first_error) << "}";
  return os.str();
}

/// Digest of a batch of cells: FNV-1a-64 over each cell's identity and its
/// provenance-free metrics JSON, in submission order.
struct Digester {
  std::string text;
  void add(const std::string& id, const std::string& json) {
    text += id;
    text += '\n';
    text += json;
    text += '\n';
  }
  std::string hex() const { return hex64(exec::fnv1a64(text)); }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  return (v[mid] + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += std::log(std::max(x, 1e-300));
  return std::exp(s / static_cast<double>(v.size()));
}

/// Flat per-layer record of one traced repetition; every workload reports
/// every name (0 where the layer does no work on that workload).
using Layers = std::map<std::string, double>;

Layers empty_layers() {
  Layers l;
  for (const char* k :
       {"topo.build_ms", "topo.nodes", "core.construct_ms",
        "core.step_ns_per_cycle", "core.collect_ms",
        "core.watchdog_ns_per_cycle", "gpu.cores_ns_per_cycle",
        "gpu.core_awake_frac", "gpu.ns_per_warp_inst", "mem.mcs_ns_per_cycle",
        "mem.mc_awake_frac", "mem.l2_hit_rate", "mem.dram_row_hit_rate",
        "noc.networks_ns_per_cycle", "noc.router_awake_frac",
        "noc.ns_per_awake_router", "noc.inject_ni_ns_per_cycle",
        "noc.eject_ni_ns_per_cycle", "noc.flits", "noc.ns_per_flit",
        "noc.reply_inj_util", "noc.ni_occupancy_pkts", "noc.reply_p99_cyc",
        "obs.sampling_ns_per_cycle", "obs.artifact_write_ms",
        "obs.attr_violations", "exec.pool_efficiency", "exec.tail_cell_s",
        "exec.cache_write_ms_per_cell", "exec.cache_read_ms_per_cell",
        "exec.cache_hit_ratio", "workloads.warp_instructions",
        "workloads.fig11_gain"}) {
    l[k] = 0.0;
  }
  return l;
}

/// Fills the profiler-derived layer values; `warp_insts` and `link_flits`
/// are summed over the same cells as `p`.
void fill_prof_layers(Layers& l, const ProfTotals& p, double warp_insts,
                      double link_flits) {
  using obs::ProfGroup;
  using obs::ProfPhase;
  double step_ns = 0;
  for (const double v : p.ns) step_ns += v;
  l["core.step_ns_per_cycle"] = p.cycles > 0 ? step_ns / p.cycles : 0.0;
  l["core.watchdog_ns_per_cycle"] = p.phase_per_cycle(ProfPhase::kWatchdog);
  l["gpu.cores_ns_per_cycle"] = p.phase_per_cycle(ProfPhase::kCores);
  l["gpu.core_awake_frac"] = p.frac(ProfGroup::kCores);
  const double cores_ns = p.ns[static_cast<std::size_t>(ProfPhase::kCores)];
  l["gpu.ns_per_warp_inst"] = warp_insts > 0 ? cores_ns / warp_insts : 0.0;
  l["mem.mcs_ns_per_cycle"] = p.phase_per_cycle(ProfPhase::kMcs);
  l["mem.mc_awake_frac"] = p.frac(ProfGroup::kMcs);
  const double net_ns = p.ns[static_cast<std::size_t>(ProfPhase::kNetworks)];
  l["noc.networks_ns_per_cycle"] = p.phase_per_cycle(ProfPhase::kNetworks);
  l["noc.router_awake_frac"] = p.frac(ProfGroup::kRouters);
  const double awake_routers =
      p.awake[static_cast<std::size_t>(ProfGroup::kRouters)];
  l["noc.ns_per_awake_router"] =
      awake_routers > 0 ? net_ns / awake_routers : 0.0;
  l["noc.inject_ni_ns_per_cycle"] = p.phase_per_cycle(ProfPhase::kInjectNi);
  l["noc.eject_ni_ns_per_cycle"] = p.phase_per_cycle(ProfPhase::kEjectNi);
  l["noc.flits"] = link_flits;
  l["noc.ns_per_flit"] = link_flits > 0 ? net_ns / link_flits : 0.0;
  l["obs.sampling_ns_per_cycle"] = p.phase_per_cycle(ProfPhase::kSampling);
  l["workloads.warp_instructions"] = warp_insts;
}

void fill_sim_layers(Layers& l, const std::vector<const Metrics*>& ms) {
  const double n = static_cast<double>(std::max<std::size_t>(ms.size(), 1));
  double l2 = 0, row = 0, util = 0, occ = 0, viol = 0;
  std::vector<double> p99;
  for (const Metrics* m : ms) {
    p99.push_back(m->reply_latency_p99);
    l2 += m->l2_hit_rate;
    row += m->dram_row_hit_rate;
    util += m->reply_injection_util;
    occ += m->ni_occupancy_pkts;
    viol += static_cast<double>(m->attr_violations);
  }
  l["mem.l2_hit_rate"] = l2 / n;
  l["mem.dram_row_hit_rate"] = row / n;
  l["noc.reply_inj_util"] = util / n;
  l["noc.ni_occupancy_pkts"] = occ / n;
  l["noc.reply_p99_cyc"] = geomean(p99);
  l["obs.attr_violations"] = viol;
}

// ---- Repetitions -------------------------------------------------------------

struct Rep {
  std::vector<double> setup_s;
  double kcps = 0;          ///< Untraced timed pass.
  double traced_kcps = 0;   ///< Traced pass (trace mode only).
  double plain_kcps = 0;    ///< Same cell without observers (observed only).
  std::vector<Pass> passes;
  double ipc = 0;
  double reply_p99 = 0;
  double fig11_gain = 0;
  Layers layers;
  std::vector<double> epoch_us;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string scratch;
};

class SweepWorkload {
 public:
  explicit SweepWorkload(const Args& a) : args_(a), base_(base_config(a.seed)) {
    for (const std::string& b : all_benchmark_names()) {
      for (const Scheme s : {Scheme::kAdaBaseline, Scheme::kAdaARI}) {
        cells_.push_back({"fig11", s, b, nullptr, false});
      }
    }
  }

  Rep rep(int index, SpanLog& spans) {
    Rep r;
    const std::string run = "rep" + std::to_string(index);
    // Set-up is sampled before, between and after the two passes, so one
    // short burst of interference on the host cannot hold every sample.
    // Each part (runner, then each cell's construction) takes its median
    // over the samples; the sweep's set-up time is their sum.
    std::vector<std::vector<double>> parts(cells_.size() + 1);
    const auto sample_setup = [&] {
      for (int i = 0; i < kSweepSetupSamplesPerPoint; ++i) setup_once(parts);
    };
    sample_setup();

    const std::string cache_dir = fresh_dir("cache", index);
    exec::ExecOptions opts;
    opts.jobs = kSweepJobs;
    opts.threads = 1;
    opts.cache_enabled = true;
    opts.cache_dir = cache_dir;
    exec::ExperimentRunner runner(base_, opts);

    auto t0 = Clock::now();
    const std::vector<exec::CellResult> cold = runner.run(cells_);
    const double cold_s = seconds_between(t0, Clock::now());
    r.passes.push_back(check("cold", cold, runner.stats().simulated));
    r.kcps = total_cycles() / cold_s / 1000.0;
    sample_setup();

    const std::vector<exec::CellResult> warm = runner.run(cells_);
    const auto warm_stats = runner.stats();
    r.passes.push_back(check("replay", warm, warm_stats.cache_hits));
    model(cold, r);
    sample_setup();
    double setup = 0;
    for (const std::vector<double>& p : parts) setup += median(p);
    r.setup_s.push_back(setup);

    if (args_.trace) traced(r, runner, cold, warm_stats, spans, run);
    std::error_code ec;
    fs::remove_all(cache_dir, ec);
    return r;
  }

 private:
  /// Host seconds the sweep spends before any cell simulates: cache-dir and
  /// runner set-up (parts[0]) plus every cell's GpgpuSim construction.
  void setup_once(std::vector<std::vector<double>>& parts) {
    const auto t0 = Clock::now();
    const std::string dir = fresh_dir("setup", 0);
    exec::ExecOptions opts;
    opts.jobs = kSweepJobs;
    opts.cache_enabled = true;
    opts.cache_dir = dir;
    const exec::ExperimentRunner runner(base_, opts);
    parts[0].push_back(seconds_between(t0, Clock::now()));
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Config cfg = runner.resolve(cells_[i]);
      const auto tc = Clock::now();
      const GpgpuSim sim(cfg, *find_benchmark(cells_[i].benchmark));
      parts[i + 1].push_back(seconds_between(tc, Clock::now()));
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  std::string fresh_dir(const char* what, int index) const {
    const std::string dir = args_.scratch + "/" + what + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(index);
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    return dir;
  }

  double total_cycles() const {
    return static_cast<double>(cells_.size()) *
           static_cast<double>(base_.warmup_cycles + base_.run_cycles);
  }

  static std::string cell_id(const exec::CellResult& c) {
    return c.point + "/" + c.scheme + "/" + c.benchmark;
  }

  /// `expected` is how many cells the runner reports it simulated (cold)
  /// or replayed (warm); every cell must be accounted for.
  Pass check(const char* kind, const std::vector<exec::CellResult>& res,
             std::size_t expected) const {
    Pass p;
    p.kind = kind;
    p.cells = res.size();
    Digester d;
    for (const exec::CellResult& c : res) {
      if (!c.ok()) {
        ++p.errors;
        if (p.first_error.empty()) p.first_error = cell_id(c) + ": " + c.error;
      }
      p.violations += c.metrics.attr_violations;
      d.add(cell_id(c), metrics_to_json(c.metrics));
    }
    if (expected != res.size() && p.first_error.empty()) {
      p.first_error = std::string(kind) + " pass handled " +
                      std::to_string(expected) + " of " +
                      std::to_string(res.size()) + " cells as expected";
      p.errors = res.size() - std::min(expected, res.size());
    }
    p.digest = d.hex();
    return p;
  }

  static void model(const std::vector<exec::CellResult>& res, Rep& r) {
    std::vector<double> ipc, p99, gain;
    for (std::size_t i = 0; i < res.size(); ++i) {
      ipc.push_back(res[i].metrics.ipc);
      p99.push_back(res[i].metrics.reply_latency_p99);
      // Cells alternate Ada-Baseline, Ada-ARI per benchmark.
      if (i % 2 == 1) {
        gain.push_back(res[i].metrics.ipc /
                       std::max(res[i - 1].metrics.ipc, 1e-300));
      }
    }
    r.ipc = geomean(ipc);
    r.reply_p99 = geomean(p99);
    r.fig11_gain = geomean(gain);
  }

  /// Per-layer split of the same sweep: every cell again, on kSweepJobs
  /// threads like the runner, with spans around each call and a
  /// self-profiler per cell; then the cache layer's write and read cost.
  void traced(Rep& r, const exec::ExperimentRunner& runner,
              const std::vector<exec::CellResult>& cold,
              const exec::ExperimentRunner::Stats& warm_stats,
              SpanLog& spans, const std::string& run) {
    const std::size_t n = cells_.size();
    std::vector<CellRun> runs(n);
    std::vector<obs::SelfProfiler> profs(n,
                                         obs::SelfProfiler(kProfEpochCycles));
    std::atomic<std::size_t> next{0};
    const Span sweep_span(spans, "exec.traced_sweep", -1, run);
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> workers;
      for (unsigned w = 0; w < kSweepJobs; ++w) {
        workers.emplace_back([&] {
          for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            const exec::CellSpec& c = cells_[i];
            const Span cell(spans, "exec.cell", sweep_span.id(), run);
            CellOptions opt;
            opt.prof = &profs[i];
            opt.time_fabric = true;
            runs[i] = run_cell(runner.resolve(c), *find_benchmark(c.benchmark),
                               opt, spans, cell.id(), run);
          }
        });
      }
    }
    const double traced_s = seconds_between(t0, Clock::now());
    r.traced_kcps = total_cycles() / traced_s / 1000.0;

    Pass p;
    p.kind = "traced";
    p.cells = n;
    Digester d;
    ProfTotals all;
    double warp = 0, flits = 0, build = 0, construct = 0, collect = 0;
    double serial_s = 0, tail = 0;
    std::vector<const Metrics*> ms;
    for (std::size_t i = 0; i < n; ++i) {
      const CellRun& c = runs[i];
      if (!c.ok()) {
        ++p.errors;
        if (p.first_error.empty()) p.first_error = c.error;
      }
      d.add(cell_id(cold[i]), c.json);
      ms.push_back(&c.metrics);
      all.add(profs[i], base_.warmup_cycles);
      warp += static_cast<double>(c.metrics.warp_instructions);
      flits += static_cast<double>(c.metrics.activity.noc_link_flits);
      build += c.build_ms;
      construct += c.setup_s * 1000.0;
      collect += c.collect_ms;
      serial_s += c.total_s();
      tail = std::max(tail, c.total_s());
    }
    p.digest = d.hex();
    r.passes.push_back(p);

    Layers& l = r.layers;
    l = empty_layers();
    fill_prof_layers(l, all, warp, flits);
    fill_sim_layers(l, ms);
    const double dn = static_cast<double>(n);
    l["topo.build_ms"] = build / dn;
    l["topo.nodes"] = runs.empty() ? 0 : runs.front().nodes;
    l["core.construct_ms"] = construct / dn;
    l["core.collect_ms"] = collect / dn;
    l["exec.pool_efficiency"] = serial_s / (kSweepJobs * traced_s);
    l["exec.tail_cell_s"] = tail;
    l["exec.cache_hit_ratio"] =
        static_cast<double>(warm_stats.cache_hits) / dn;
    l["workloads.fig11_gain"] = r.fig11_gain;
    r.epoch_us = std::move(all.epoch_us);

    cache_layer(r, runner, cold, spans, run);
  }

  /// Times the cache layer directly: store every cold result into a fresh
  /// directory, load each back, and check both the load and the
  /// serialize/deserialize round trip reproduce the metrics byte for byte.
  void cache_layer(Rep& r, const exec::ExperimentRunner& runner,
                   const std::vector<exec::CellResult>& cold, SpanLog& spans,
                   const std::string& run) {
    const std::string dir = fresh_dir("cachelayer", 0);
    const exec::ResultCache cache(dir);
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Config cfg = runner.resolve(cells_[i]);
      keys.push_back(exec::cache_key_string(cfg, cold[i].scheme,
                                            cold[i].benchmark,
                                            exec::fabric_cache_tag(cfg)));
    }
    Pass p;
    p.kind = "cache-layer";
    p.cells = cells_.size();
    auto t0 = Clock::now();
    {
      const Span s(spans, "exec.cache_store", -1, run);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        cache.store(keys[i], cold[i].metrics);
      }
    }
    const double write_s = seconds_between(t0, Clock::now());
    t0 = Clock::now();
    std::vector<std::optional<Metrics>> loaded;
    {
      const Span s(spans, "exec.cache_load", -1, run);
      for (const std::string& k : keys) loaded.push_back(cache.load(k));
    }
    const double read_s = seconds_between(t0, Clock::now());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::string want = metrics_to_json(cold[i].metrics);
      const auto round =
          exec::deserialize_metrics(exec::serialize_metrics(cold[i].metrics));
      if (!loaded[i] || metrics_to_json(*loaded[i]) != want || !round ||
          metrics_to_json(*round) != want) {
        ++p.errors;
        if (p.first_error.empty()) {
          p.first_error = cell_id(cold[i]) + ": cache round trip differs";
        }
      }
    }
    r.passes.push_back(p);
    const double dn = static_cast<double>(keys.size());
    r.layers["exec.cache_write_ms_per_cell"] = write_s * 1000.0 / dn;
    r.layers["exec.cache_read_ms_per_cell"] = read_s * 1000.0 / dn;
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  const Args& args_;
  Config base_;
  std::vector<exec::CellSpec> cells_;
};

class SingleCellWorkload {
 public:
  SingleCellWorkload(const Args& a, Scheme scheme, std::string benchmark,
                     std::function<void(Config&)> tweak, bool observe)
      : args_(a),
        benchmark_(std::move(benchmark)),
        traits_(*find_benchmark(benchmark_)),
        cfg_(resolve_cell_config(base_config(a.seed), scheme, benchmark_,
                                 std::move(tweak))),
        observe_(observe) {
    artifact_dir_ = args_.scratch + "/artifacts-" + std::to_string(::getpid());
    fs::create_directories(artifact_dir_);
  }
  ~SingleCellWorkload() {
    std::error_code ec;
    fs::remove_all(artifact_dir_, ec);
  }
  SingleCellWorkload(const SingleCellWorkload&) = delete;
  SingleCellWorkload& operator=(const SingleCellWorkload&) = delete;

  Rep rep(int index, SpanLog& spans) {
    Rep r;
    const std::string run = "rep" + std::to_string(index);
    // Extra constructions give set-up its own median; only the timed
    // pass's simulator below runs.
    for (int i = 1; i < kSetupSamplesPerRep; ++i) {
      const auto t0 = Clock::now();
      const GpgpuSim sim(cfg_, traits_);
      r.setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    SpanLog off(false);
    CellOptions opt;
    opt.observe = observe_;
    opt.artifact_dir = artifact_dir_;
    const CellRun timed = run_cell(cfg_, traits_, opt, off, -1, run);
    r.setup_s.push_back(timed.setup_s);
    r.kcps = static_cast<double>(timed.cycles) / timed.run_s / 1000.0;
    r.passes.push_back(check("timed", timed));
    r.ipc = timed.metrics.ipc;
    r.reply_p99 = timed.metrics.reply_latency_p99;

    if (args_.trace) traced(r, timed, spans, run);
    return r;
  }

 private:
  Pass check(const char* kind, const CellRun& c) const {
    Pass p;
    p.kind = kind;
    p.cells = 1;
    p.errors = c.ok() ? 0 : 1;
    p.first_error = c.error;
    p.violations = c.metrics.attr_violations;
    Digester d;
    d.add(benchmark_, c.json);
    p.digest = d.hex();
    return p;
  }

  void traced(Rep& r, const CellRun& timed, SpanLog& spans,
              const std::string& run) {
    obs::SelfProfiler prof(kProfEpochCycles);
    CellOptions opt;
    opt.observe = observe_;
    opt.artifact_dir = artifact_dir_;
    opt.prof = &prof;
    opt.time_fabric = true;
    const Span root(spans, "cell", -1, run);
    const CellRun c = run_cell(cfg_, traits_, opt, spans, root.id(), run);
    r.traced_kcps = static_cast<double>(c.cycles) / c.run_s / 1000.0;
    r.passes.push_back(check("traced", c));

    ProfTotals p;
    p.add(prof, cfg_.warmup_cycles);
    Layers& l = r.layers;
    l = empty_layers();
    fill_prof_layers(l, p, static_cast<double>(c.metrics.warp_instructions),
                     static_cast<double>(c.metrics.activity.noc_link_flits));
    fill_sim_layers(l, {&c.metrics});
    l["topo.build_ms"] = c.build_ms;
    l["topo.nodes"] = c.nodes;
    l["core.construct_ms"] = c.setup_s * 1000.0;
    l["core.collect_ms"] = c.collect_ms;
    l["obs.artifact_write_ms"] = c.artifact_ms;
    r.epoch_us = std::move(p.epoch_us);

    if (!observe_) return;
    // The same cell with no observer attached: its cost difference is the
    // attribution overhead, and its metrics must equal the observed run's
    // once the attribution summary is scrubbed (observers never perturb).
    SpanLog off(false);
    const CellRun plain = run_cell(cfg_, traits_, CellOptions{}, off, -1, run);
    r.plain_kcps = static_cast<double>(plain.cycles) / plain.run_s / 1000.0;
    Metrics scrubbed = timed.metrics;
    scrubbed.attr_enabled = false;
    scrubbed.request_stage_share = {};
    scrubbed.reply_stage_share = {};
    scrubbed.attr_violations = 0;
    scrubbed.bottleneck.clear();
    Pass pp = check("unobserved", plain);
    pp.digest.clear();
    if (plain.ok() && plain.json != metrics_to_json(scrubbed)) {
      pp.errors = 1;
      pp.first_error = "observers changed the simulated metrics";
    }
    r.passes.push_back(pp);
  }

  const Args& args_;
  std::string benchmark_;
  const BenchmarkTraits& traits_;
  Config cfg_;
  bool observe_;
  std::string artifact_dir_;
};

// ---- Output -------------------------------------------------------------------

std::string nums(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? ", " : "") + json_num(v[i]);
  }
  return s + "]";
}

std::string rep_json(const Rep& r) {
  std::ostringstream os;
  os << "{\"setup_s\": " << nums(r.setup_s)
     << ", \"kcps\": " << json_num(r.kcps)
     << ", \"traced_kcps\": " << json_num(r.traced_kcps)
     << ", \"plain_kcps\": " << json_num(r.plain_kcps)
     << ", \"ipc\": " << json_num(r.ipc)
     << ", \"reply_p99_cyc\": " << json_num(r.reply_p99)
     << ", \"fig11_gain\": " << json_num(r.fig11_gain) << ", \"passes\": [";
  for (std::size_t i = 0; i < r.passes.size(); ++i) {
    os << (i ? ", " : "") << pass_json(r.passes[i]);
  }
  os << "], \"layers\": {";
  bool first = true;
  for (const auto& [k, v] : r.layers) {
    os << (first ? "" : ", ") << json_str(k) << ": " << json_num(v);
    first = false;
  }
  os << "}, \"epoch_us\": " << nums(r.epoch_us) << "}";
  return os.str();
}

std::string provenance_json(std::uint64_t seed, Cycle run_cycles) {
  std::ostringstream os;
  os << "{\"library_version\": " << json_str(kArinocVersion)
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
     << ", \"compiler_version\": " << json_str(PERFBENCH_COMPILER_VERSION)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"library_flags\": " << json_str(PERFBENCH_LIB_FLAGS)
     << ", \"arinoc_native\": " << json_str(PERFBENCH_NATIVE)
     << ", \"seed\": " << seed << ", \"warmup_cycles\": " << kWarmupCycles
     << ", \"run_cycles\": " << run_cycles << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload <fig11-sweep|bfs-chiplet|"
               "matrixMul-observed> --seed <n> --seconds <s> --trace <0|1> "
               "--out <file> --scratch <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kIgnoredEnv) ::unsetenv(name);

  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out") a.out = v;
      else if (k == "--scratch") a.scratch = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || a.out.empty() || a.scratch.empty()) return usage();
  fs::create_directories(a.scratch);

  std::function<Rep(int, SpanLog&)> rep;
  std::unique_ptr<SweepWorkload> sweep;
  std::unique_ptr<SingleCellWorkload> single;
  Cycle run_cycles = kSweepRunCycles;
  if (a.workload == "fig11-sweep") {
    sweep = std::make_unique<SweepWorkload>(a);
    rep = [&](int i, SpanLog& s) { return sweep->rep(i, s); };
  } else if (a.workload == "bfs-chiplet") {
    run_cycles = kChipletRunCycles;
    single = std::make_unique<SingleCellWorkload>(
        a, Scheme::kAdaARI, "bfs",
        [](Config& c) {
          c.fabric = "chiplet";
          c.chiplets_x = c.chiplets_y = 2;
          c.run_cycles = kChipletRunCycles;
        },
        false);
  } else if (a.workload == "matrixMul-observed") {
    run_cycles = kObservedRunCycles;
    single = std::make_unique<SingleCellWorkload>(
        a, Scheme::kAdaBaseline, "matrixMul",
        [](Config& c) { c.run_cycles = kObservedRunCycles; }, true);
  } else {
    return usage();
  }
  if (single) rep = [&](int i, SpanLog& s) { return single->rep(i, s); };

  SpanLog spans(a.trace);
  std::vector<Rep> reps;
  const auto start = Clock::now();
  // Peak memory of running the workload once: later repetitions only add
  // whatever the allocator keeps from the ones before.
  double rss_mb = 0;
  do {
    reps.push_back(rep(static_cast<int>(reps.size()), spans));
    if (reps.size() == 1) rss_mb = peak_rss_mb();
  } while (seconds_between(start, Clock::now()) < a.seconds);

  std::string spans_path;
  if (a.trace) {
    spans_path = a.out + ".spans.jsonl";
    write_file(spans_path, spans.to_jsonl());
  }
  std::ostringstream os;
  os << "{\"workload\": " << json_str(a.workload)
     << ", \"provenance\": " << provenance_json(a.seed, run_cycles)
     << ", \"peak_rss_mb\": " << json_num(rss_mb)
     << ", \"spans_file\": " << json_str(spans_path) << ", \"reps\": [\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    os << (i ? ",\n" : "") << rep_json(reps[i]);
  }
  os << "\n]}\n";
  write_file(a.out, os.str());
  return 0;
}
