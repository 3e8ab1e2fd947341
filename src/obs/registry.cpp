#include "obs/registry.hpp"

#include <cstdio>
#include <sstream>

namespace arinoc::obs {

void CounterDump::add(const std::string& name, std::uint64_t value) {
  entries_.emplace(name, std::to_string(value));
}

void CounterDump::add(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  entries_.emplace(name, buf);
}

void CounterDump::add(const std::string& name, const LogHistogram& h) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"mean\":%.6g,\"p50\":%.6g,"
                "\"p95\":%.6g,\"p99\":%.6g,\"max\":%.6g}",
                static_cast<unsigned long long>(h.count()), h.mean(), h.p50(),
                h.p95(), h.p99(), h.max());
  entries_.emplace(name, buf);
}

std::string CounterDump::to_json() const {
  // Names are generated internally (no quoting hazards) and values are
  // numbers, so the JSON can be assembled directly.
  std::ostringstream os;
  os << "{";
  const char* sep = "";
  for (const auto& [name, value] : entries_) {
    os << sep << "\n  \"" << name << "\": " << value;
    sep = ",";
  }
  os << "\n}";
  return os.str();
}

}  // namespace arinoc::obs
