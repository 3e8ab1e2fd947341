#include "obs/registry.hpp"

#include "obs/regress/json.hpp"

namespace arinoc::obs {

using regress::JsonWriter;
using regress::NumFormat;

void CounterDump::add(const std::string& name, std::uint64_t value) {
  entries_.emplace(name, std::to_string(value));
}

void CounterDump::add(const std::string& name, double value) {
  entries_.emplace(name, regress::format_number(value, NumFormat::kG6));
}

void CounterDump::add(const std::string& name, const LogHistogram& h) {
  std::string text;
  JsonWriter w(text);
  w.raw("{\"count\":").num(h.count());
  w.raw(",\"mean\":").num(h.mean(), NumFormat::kG6);
  w.raw(",\"p50\":").num(h.p50(), NumFormat::kG6);
  w.raw(",\"p95\":").num(h.p95(), NumFormat::kG6);
  w.raw(",\"p99\":").num(h.p99(), NumFormat::kG6);
  w.raw(",\"max\":").num(h.max(), NumFormat::kG6).raw("}");
  entries_.emplace(name, std::move(text));
}

std::string CounterDump::to_json() const {
  std::string out;
  JsonWriter w(out);
  w.raw("{");
  const char* sep = "";
  for (const auto& [name, value] : entries_) {
    w.raw(sep).raw("\n  ").str(name).raw(": ").raw(value);
    sep = ",";
  }
  w.raw("\n}");
  return out;
}

}  // namespace arinoc::obs
