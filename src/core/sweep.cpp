#include "core/sweep.hpp"

#include <sstream>
#include <string_view>
#include <type_traits>

#include "core/metric_fields.hpp"

namespace arinoc {

std::vector<exec::CellSpec> grid(const std::vector<SweepPoint>& points,
                                 const std::vector<Scheme>& schemes,
                                 const std::vector<std::string>& benchmarks) {
  const std::vector<SweepPoint> axis =
      points.empty() ? std::vector<SweepPoint>{{"base", nullptr}} : points;
  std::vector<exec::CellSpec> cells;
  cells.reserve(axis.size() * schemes.size() * benchmarks.size());
  for (const SweepPoint& p : axis) {
    for (const Scheme s : schemes) {
      for (const std::string& b : benchmarks) {
        cells.push_back({p.label, s, b, p.tweak, false});
      }
    }
  }
  return cells;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string to_csv(const std::vector<exec::CellResult>& cells) {
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
  for (const exec::CellResult& c : cells) {
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
