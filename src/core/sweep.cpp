#include "core/sweep.hpp"

#include <sstream>
#include <string_view>
#include <type_traits>

#include "core/metric_fields.hpp"
#include "exec/runner.hpp"

namespace arinoc {

std::vector<SweepCell> Sweep::run() const {
  // A sweep without an explicit axis still runs the base config once per
  // (scheme, benchmark) pair.
  const std::vector<SweepPoint> points =
      points_.empty() ? std::vector<SweepPoint>{{"base", nullptr}} : points_;

  std::vector<exec::CellSpec> specs;
  specs.reserve(points.size() * schemes_.size() * benchmarks_.size());
  for (const SweepPoint& p : points) {
    for (Scheme s : schemes_) {
      for (const std::string& b : benchmarks_) {
        specs.push_back({p.label, s, b, p.tweak, false});
      }
    }
  }

  exec::ExecOptions opts;
  opts.jobs = jobs_;
  opts.cache_enabled = cache_enabled_;
  opts.cache_dir = cache_dir_;
  opts.progress = progress_;
  opts.sample_interval = sample_interval_;
  opts.telemetry_dir = telemetry_dir_;
  opts.attr_dir = attr_dir_;
  opts.attr_window = attr_window_;
  exec::ExperimentRunner runner(base_, std::move(opts));
  const auto ran = runner.run(specs);

  std::vector<SweepCell> cells;
  cells.reserve(ran.size());
  for (const auto& r : ran) {
    cells.push_back({r.point, r.scheme, r.benchmark, r.fabric, r.metrics,
                     r.error, r.error_kind, r.from_cache, r.telemetry_path,
                     r.attr_path});
  }
  return cells;
}

std::string Sweep::csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string Sweep::to_csv(const std::vector<SweepCell>& cells) {
  // Columns after benchmark, resolved through the Metrics field table except
  // `fabric`, the cell's own. New columns append before the trailing `error`
  // column so positional consumers of the original prefix keep working.
  static constexpr std::string_view kColumns[] = {
      "cycles", "ipc", "request_latency", "reply_latency", "mc_stall_cycles",
      "reply_injection_util", "reply_internal_util", "l1_hit_rate",
      "l2_hit_rate", "dram_row_hit_rate", "energy_total_nj",
      "reply_latency_p50", "reply_latency_p95", "reply_latency_p99",
      "reply_latency_p999", "offered_rate", "goodput", "requests_shed",
      "e2e_latency_p99", "cycles_degraded", "fabric", "bottleneck"};
  std::ostringstream os;
  os << "point,scheme,benchmark,";
  for (const std::string_view col : kColumns) os << col << ',';
  os << "error\n";
  for (const SweepCell& c : cells) {
    os << csv_escape(c.point) << ',' << csv_escape(c.scheme) << ','
       << csv_escape(c.benchmark) << ',';
    for (const std::string_view col : kColumns) {
      if (col == "fabric") os << csv_escape(c.fabric);
      visit_metric(c.metrics, col, [&os](const auto& value, unsigned) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(value)>,
                                     std::string>) {
          os << csv_escape(value);
        } else {
          os << value;
        }
      });
      os << ',';
    }
    os << csv_escape(c.ok() ? std::string{} : c.error_kind + ": " + c.error)
       << '\n';
  }
  return os.str();
}

}  // namespace arinoc
