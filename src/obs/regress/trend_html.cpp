// Self-contained HTML sparkline dashboard for a metric-trend history: one
// row per (cell, metric) series with an inline SVG sparkline, first/last
// values, and relative drift. Same contract as the attribution dashboard
// (obs/attr_html.cpp): everything inlined, opens from disk, no network.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/regress/trend.hpp"

namespace arinoc::obs::regress {

namespace {

std::string html_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Inline sparkline: a polyline over the series, min/max normalized to the
/// box, last point marked. Flat series draw as a centered line.
std::string sparkline_svg(const TrendSeries& s, std::size_t snapshots) {
  constexpr double kW = 160.0, kH = 28.0, kPad = 3.0;
  double lo = s.points.front().value, hi = lo;
  for (const TrendPoint& p : s.points) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  const double span = hi - lo;
  const double xstep =
      snapshots > 1 ? (kW - 2 * kPad) / static_cast<double>(snapshots - 1)
                    : 0.0;
  auto px = [&](const TrendPoint& p) {
    return kPad + xstep * static_cast<double>(p.snapshot);
  };
  auto py = [&](const TrendPoint& p) {
    if (span <= 0.0) return kH / 2.0;
    return kH - kPad - (p.value - lo) / span * (kH - 2 * kPad);
  };
  std::ostringstream os;
  os << "<svg class=\"spark\" width=\"" << static_cast<int>(kW)
     << "\" height=\"" << static_cast<int>(kH) << "\"><polyline points=\"";
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    char pt[48];
    std::snprintf(pt, sizeof(pt), "%s%.1f,%.1f", i == 0 ? "" : " ",
                  px(s.points[i]), py(s.points[i]));
    os << pt;
  }
  const TrendPoint& last = s.points.back();
  char dot[96];
  std::snprintf(dot, sizeof(dot),
                "\" fill=\"none\" stroke=\"#36c\" stroke-width=\"1.5\"/>"
                "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"#36c\"/>",
                px(last), py(last));
  os << dot << "</svg>";
  return os.str();
}

}  // namespace

std::string trend_html_document(const TrendBuilder& trend,
                                const std::string& title) {
  const std::vector<TrendSeries> series = trend.series();
  const std::vector<std::string>& snaps = trend.snapshots();

  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>"
     << html_escape(title)
     << "</title>\n<style>\n"
        "body{font-family:system-ui,sans-serif;margin:16px;background:#fafafa}"
        "\nh1{font-size:18px}h2{font-size:15px;margin:18px 0 6px}\n"
        "table{border-collapse:collapse;font-size:13px}\n"
        "td,th{border:1px solid #ccc;padding:3px 8px;text-align:left}\n"
        "th{background:#eee}\n"
        ".spark{background:#fff;border:1px solid #ddd;vertical-align:middle}\n"
        ".up{color:#1a7}.down{color:#c33}.flat{color:#888}\n"
        "#meta{color:#555;font-size:13px}\n"
        "</style>\n</head>\n<body>\n<h1>"
     << html_escape(title) << "</h1>\n";

  os << "<p id=\"meta\">" << snaps.size() << " snapshot"
     << (snaps.size() == 1 ? "" : "s") << ": ";
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    os << (i == 0 ? "" : " &rarr; ") << html_escape(snaps[i]);
  }
  os << "</p>\n";

  std::string cell;
  bool table_open = false;
  for (const TrendSeries& s : series) {
    if (s.points.empty()) continue;
    if (s.cell != cell) {
      if (table_open) os << "</table>\n";
      cell = s.cell;
      os << "<h2>" << html_escape(cell) << "</h2>\n<table>\n"
         << "<tr><th>metric</th><th>trend</th><th>first</th><th>last</th>"
            "<th>drift</th></tr>\n";
      table_open = true;
    }
    const double first = s.points.front().value;
    const double last = s.points.back().value;
    const double drift = first != 0.0 ? (last - first) / std::abs(first)
                                      : (last == 0.0 ? 0.0 : 1.0);
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%+.2f%%", drift * 100.0);
    const char* cls = drift > 1e-12 ? "up" : (drift < -1e-12 ? "down" : "flat");
    os << "<tr><td>" << html_escape(s.metric) << "</td><td>"
       << sparkline_svg(s, snaps.size()) << "</td><td>"
       << format_number(first, NumFormat::kG6) << "</td><td>"
       << format_number(last, NumFormat::kG6) << "</td><td class=\"" << cls
       << "\">"
       << (s.points.size() > 1 ? pct : "-") << "</td></tr>\n";
  }
  if (table_open) os << "</table>\n";
  if (series.empty()) os << "<p>No series ingested.</p>\n";
  os << "</body>\n</html>\n";
  return os.str();
}

}  // namespace arinoc::obs::regress
