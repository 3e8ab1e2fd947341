#include "obs/regress/trend.hpp"

#include <algorithm>
#include <stdexcept>

namespace arinoc::obs::regress {

namespace {

/// Row fields that identify a cell (the axes the benches sweep over) rather
/// than measure it. Numeric identity fields (load, corrupt_rate) matter:
/// treating them as metrics would merge every load point of a sweep into
/// one colliding series.
bool is_identity_field(const std::string& key) {
  static const char* kIdentity[] = {"name",      "workload", "scheme",
                                    "benchmark", "fabric",   "admission",
                                    "load",      "corrupt_rate"};
  for (const char* k : kIdentity) {
    if (key == k) return true;
  }
  return false;
}

/// Compact identity string for one row: "scheme=Ada-ARI load=4 ...", in
/// the row's own field order so it reads like the source document.
std::string row_identity(const JsonValue& row) {
  std::string id;
  for (const auto& [key, v] : row.members()) {
    if (!is_identity_field(key)) continue;
    if (!id.empty()) id += ' ';
    if (v.is_string()) {
      id += key + "=" + v.as_string();
    } else if (v.is_bool()) {
      id += key + "=" + (v.as_bool() ? "on" : "off");
    } else if (v.is_number()) {
      id += key + "=" + format_number(v.as_number(), NumFormat::kG6);
    }
  }
  return id;
}

}  // namespace

TrendSeries& TrendBuilder::series_for(const std::string& cell,
                                      const std::string& metric) {
  for (TrendSeries& s : series_) {
    if (s.cell == cell && s.metric == metric) return s;
  }
  series_.push_back(TrendSeries{cell, metric, {}});
  return series_.back();
}

void TrendBuilder::add_snapshot(const std::string& label,
                                const JsonValue& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument(label + ": not a JSON object");
  }
  const std::string schema = doc.string_or("schema");
  if (schema != kBenchSchema) {
    throw std::invalid_argument(
        label + ": not a stamped bench artifact (schema '" + schema +
        "', want '" + kBenchSchema +
        "') — regenerate it with a current bench binary");
  }
  std::string kind = doc.string_or("kind", "bench");
  // Quick and full runs of the same bench measure different grids; folding
  // them into one series would fake a cliff at every quick/full boundary.
  if (const JsonValue* quick = doc.find("quick");
      quick != nullptr && quick->is_bool() && quick->as_bool()) {
    kind += "[quick]";
  }

  const std::size_t snapshot = labels_.size();
  std::size_t rows = 0;

  for (const auto& [key, v] : doc.members()) {
    if (v.is_number()) {
      // Top-level scalars (geomean_speedup, ...) trend under the kind.
      series_for(kind, key).points.push_back({snapshot, v.as_number()});
      ++rows;
      continue;
    }
    if (!v.is_array()) continue;
    const std::string prefix =
        kind + (key == "cells" ? "" : "/" + key) + "/";
    std::size_t unkeyed = 0;
    for (const JsonValue& row : v.items()) {
      if (!row.is_object()) continue;
      std::string id = row_identity(row);
      if (id.empty()) id = "row" + std::to_string(unkeyed++);
      const std::string cell = prefix + id;
      for (const auto& [field, fv] : row.members()) {
        if (is_identity_field(field)) continue;
        if (fv.is_number()) {
          series_for(cell, field).points.push_back({snapshot, fv.as_number()});
        } else if (fv.is_bool()) {
          // bit_identical / non_perturbing: trend as 0/1 so a flip to
          // false is visible as a cliff.
          series_for(cell, field).points.push_back(
              {snapshot, fv.as_bool() ? 1.0 : 0.0});
        }
      }
      ++rows;
    }
  }

  if (rows == 0) {
    throw std::invalid_argument(label +
                                ": stamped but contains no ingestible rows");
  }
  labels_.push_back(label);
}

void TrendBuilder::add_snapshot_text(const std::string& label,
                                     const std::string& text) {
  const JsonParseResult parsed = json_parse(text);
  if (!parsed.ok) {
    throw std::invalid_argument(label + ": malformed JSON (" + parsed.error +
                                ")");
  }
  add_snapshot(label, parsed.value);
}

std::vector<TrendSeries> TrendBuilder::series() const {
  std::vector<TrendSeries> out = series_;
  std::sort(out.begin(), out.end(),
            [](const TrendSeries& a, const TrendSeries& b) {
              return a.cell != b.cell ? a.cell < b.cell : a.metric < b.metric;
            });
  return out;
}

std::string TrendBuilder::to_json() const {
  std::string out;
  JsonWriter w(out);
  w.raw("{\n  \"schema\": ").str(kTrendSchema);
  w.raw(",\n  \"snapshots\": [");
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    w.raw(i == 0 ? "" : ", ").str(labels_[i]);
  }
  w.raw("],\n  \"series\": [\n");
  const std::vector<TrendSeries> sorted = series();
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const TrendSeries& s = sorted[i];
    w.raw("    {\"cell\": ").str(s.cell).raw(", \"metric\": ");
    w.str(s.metric).raw(", \"points\": [");
    for (std::size_t p = 0; p < s.points.size(); ++p) {
      w.raw(p == 0 ? "{\"snapshot\": " : ", {\"snapshot\": ");
      w.num(s.points[p].snapshot).raw(", \"value\": ");
      w.num(s.points[p].value, NumFormat::kG6).raw("}");
    }
    w.raw("]}").raw(i + 1 < sorted.size() ? ",\n" : "\n");
  }
  w.raw("  ]\n}\n");
  return out;
}

}  // namespace arinoc::obs::regress
