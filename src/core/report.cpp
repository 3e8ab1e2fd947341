#include "core/report.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "core/metric_fields.hpp"
#include "obs/regress/json.hpp"

namespace arinoc {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) width[c] = std::max(width[c], row[c].size());
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      for (std::size_t p = row[c].size(); p < width[c]; ++p) os << ' ';
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string metrics_to_json(const Metrics& m, int indent,
                            const std::string& provenance_json) {
  using obs::regress::NumFormat;
  std::string out;
  obs::regress::JsonWriter w(out);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const char* sep = "";
  w.raw("{\n");
  if (!provenance_json.empty()) {
    w.raw(pad).raw("\"provenance\": ").raw(provenance_json);
    sep = ",\n";
  }
  for_each_metric(m, [&](std::string_view name, const auto& value,
                         unsigned flags) {
    if (!(flags & kMetricReport) ||
        ((flags & kMetricAttr) && !m.attr_enabled)) {
      return;
    }
    w.raw(sep).raw(pad).str(name).raw(": ");
    sep = ",\n";
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(value)>,
                                 std::string>) {
      w.str(value);
    } else {
      w.num(static_cast<double>(value), NumFormat::kIntOrG6);
    }
  });
  w.raw("\n}");
  return out;
}

}  // namespace arinoc
