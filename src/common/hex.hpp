// Hex spellings of on-disk formats (cache keys and records, canonical
// configs, config hashes). Changing either moves every cache key and
// baseline file name.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace arinoc {

/// 16 lower-case hex digits, zero-padded ("%016llx").
inline std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// C99 hexfloat ("%a"): exact, and strtod reads it back bit for bit.
inline std::string hex_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace arinoc
