#include "obs/regress/baseline.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/metric_fields.hpp"
#include "obs/regress/json.hpp"

namespace arinoc::obs::regress {

namespace {

/// Attribution stage shares are fractions of a whole: any drift beyond
/// tolerance (either direction) means the latency structure moved.
constexpr double kAttrShareTol = 0.10;

/// The tracked metrics, in snapshot order, with their comparison policies;
/// values are read through the Metrics field table (core/metric_fields).
/// Tolerances are "noise-aware": exact for integer-derived counts (the
/// simulator is deterministic), tight for means, and progressively looser
/// toward the tail percentiles — a p99.9 moves on far fewer samples than a
/// p50, so an equal tolerance would either mask mean regressions or cry wolf
/// on tails.
constexpr MetricPolicy kPolicies[] = {
    {"cycles", MetricDirection::kNeutral, 0.0},
    {"warp_instructions", MetricDirection::kHigherBetter, 0.0},
    {"ipc", MetricDirection::kHigherBetter, 0.01},
    {"request_latency", MetricDirection::kLowerBetter, 0.02},
    {"reply_latency", MetricDirection::kLowerBetter, 0.02},
    {"request_latency_p50", MetricDirection::kLowerBetter, 0.02},
    {"request_latency_p95", MetricDirection::kLowerBetter, 0.03},
    {"request_latency_p99", MetricDirection::kLowerBetter, 0.05},
    {"request_latency_p999", MetricDirection::kLowerBetter, 0.08},
    {"reply_latency_p50", MetricDirection::kLowerBetter, 0.02},
    {"reply_latency_p95", MetricDirection::kLowerBetter, 0.03},
    {"reply_latency_p99", MetricDirection::kLowerBetter, 0.05},
    {"reply_latency_p999", MetricDirection::kLowerBetter, 0.08},
    {"e2e_latency_p50", MetricDirection::kLowerBetter, 0.02},
    {"e2e_latency_p99", MetricDirection::kLowerBetter, 0.05},
    {"e2e_latency_p999", MetricDirection::kLowerBetter, 0.08},
    {"mc_stall_cycles", MetricDirection::kLowerBetter, 0.05},
    {"energy_total_nj", MetricDirection::kLowerBetter, 0.01},
    {"goodput", MetricDirection::kHigherBetter, 0.01},
    {"offered_rate", MetricDirection::kNeutral, 0.01},
    {"recovery_rate", MetricDirection::kHigherBetter, 0.005},
    // Attribution stage shares, present only when attribution ran.
    {"attr_request_ni_queue", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_request_vc_wait", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_request_sw_wait", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_request_link", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_request_eject", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_request_retx", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_reply_ni_queue", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_reply_vc_wait", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_reply_sw_wait", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_reply_link", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_reply_eject", MetricDirection::kNeutral, kAttrShareTol},
    {"attr_reply_retx", MetricDirection::kNeutral, kAttrShareTol},
};

std::string fmt_metric(double v) {
  // %.17g: shortest spelling is irrelevant, exact round trip is not — the
  // golden store's byte-for-byte contract rides on this.
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string file_slug(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    out += ok ? c : '-';
  }
  return out.empty() ? std::string("cell") : out;
}

MetricPolicy metric_policy(const std::string& name) {
  for (const MetricPolicy& p : kPolicies) {
    if (name == p.name) return p;
  }
  return {"unknown", MetricDirection::kNeutral, 0.02};
}

std::vector<std::pair<std::string, double>> snapshot_metrics(
    const Metrics& m) {
  std::vector<std::pair<std::string, double>> out;
  for (const MetricPolicy& p : kPolicies) {
    visit_metric(m, p.name, [&](const auto& value, unsigned flags) {
      using T = std::remove_cvref_t<decltype(value)>;
      if constexpr (std::is_arithmetic_v<T>) {
        if (!(flags & kMetricAttr) || m.attr_enabled) {
          out.emplace_back(p.name, static_cast<double>(value));
        }
      }
    });
  }
  return out;
}

std::string BaselineEntry::file_name() const {
  return file_slug(provenance.benchmark) + "_" +
         file_slug(provenance.scheme) + "_" + file_slug(provenance.fabric) +
         "_" + file_slug(provenance.config_hash) + ".json";
}

std::string baseline_entry_json(const BaselineEntry& e) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kBaselineSchema << "\",\n"
     << "  \"provenance\": "
     << provenance_json(e.provenance, /*deterministic=*/true) << ",\n"
     << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < e.metrics.size(); ++i) {
    os << "    \"" << json_escape(e.metrics[i].first)
       << "\": " << fmt_metric(e.metrics[i].second)
       << (i + 1 < e.metrics.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  return os.str();
}

BaselineEntry parse_baseline_entry(const std::string& text,
                                   const std::string& origin) {
  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok) {
    throw std::invalid_argument(origin + ": malformed JSON (" + parsed.error +
                                ")");
  }
  const JsonValue& doc = parsed.value;
  if (doc.string_or("schema") != kBaselineSchema) {
    throw std::invalid_argument(
        origin + ": not a baseline entry (schema '" + doc.string_or("schema") +
        "', want '" + kBaselineSchema + "')");
  }
  const JsonValue* prov = doc.find("provenance");
  const JsonValue* metrics = doc.find("metrics");
  if (prov == nullptr || !prov->is_object() || metrics == nullptr ||
      !metrics->is_object()) {
    throw std::invalid_argument(origin +
                                ": missing provenance or metrics block");
  }
  BaselineEntry e;
  e.provenance.version = prov->string_or("version");
  e.provenance.config_hash = prov->string_or("config_hash");
  e.provenance.scheme = prov->string_or("scheme");
  e.provenance.benchmark = prov->string_or("benchmark");
  e.provenance.fabric = prov->string_or("fabric");
  if (const JsonValue* seed = prov->find("seed"); seed && seed->is_number()) {
    e.provenance.seed = static_cast<std::uint64_t>(seed->as_number());
  }
  for (const auto& [name, v] : metrics->members()) {
    if (!v.is_number()) {
      throw std::invalid_argument(origin + ": metric '" + name +
                                  "' is not a number");
    }
    e.metrics.emplace_back(name, v.as_number());
  }
  return e;
}

std::string write_baseline_entry(const std::string& dir,
                                 const BaselineEntry& e) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create baseline directory '" + dir +
                             "': " + ec.message());
  }
  const std::string path = dir + "/" + e.file_name();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) out << baseline_entry_json(e);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  return path;
}

BaselineEntry load_baseline_entry(const std::string& dir,
                                  const BaselineEntry& identity) {
  const std::string path = dir + "/" + identity.file_name();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(
        "no baseline entry '" + path +
        "' for this cell/configuration (anchor it with --baseline-write, or "
        "the configuration changed and the store needs re-anchoring)");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_baseline_entry(text.str(), path);
}

std::string parent_dir_of(const std::string& path) {
  return std::filesystem::path(path).parent_path().string();
}

bool parent_dir_exists(const std::string& path) {
  const std::string parent = parent_dir_of(path);
  if (parent.empty()) return true;  // Bare file name: CWD always exists.
  std::error_code ec;
  return std::filesystem::is_directory(parent, ec);
}

}  // namespace arinoc::obs::regress
