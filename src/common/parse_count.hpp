// Strict parsing of numeric flags and environment variables: counts (run
// lengths, job and thread counts, sampling intervals) and real-valued rates.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace arinoc {

/// Stores `text` in `*out` when it is a plain non-negative decimal integer
/// that fits the field: a sign, leading blanks, trailing text or overflow
/// print a message naming `what` and return false instead.
template <typename T>
bool parse_count(const char* what, const char* text, T* out) {
  unsigned long long n = 0;
  char* end = nullptr;
  errno = 0;
  if (std::isdigit(static_cast<unsigned char>(text[0]))) {
    n = std::strtoull(text, &end, 10);
  }
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      n > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n",
                 what, text);
    return false;
  }
  *out = static_cast<T>(n);
  return true;
}

/// Stores `text` in `*out` when the whole string is one finite number
/// (strtod syntax, no leading blanks): trailing text, inf, nan or overflow
/// print a message naming `what` and return false instead.
inline bool parse_real(const char* what, const char* text, double* out) {
  double v = 0.0;
  char* end = nullptr;
  if (text[0] != '\0' && !std::isspace(static_cast<unsigned char>(text[0]))) {
    v = std::strtod(text, &end);
  }
  if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
    std::fprintf(stderr, "%s expects a finite number, got '%s'\n", what,
                 text);
    return false;
  }
  *out = v;
  return true;
}

/// Reads count variable `name` into `*out` when set; a malformed value
/// exits 2.
template <typename T>
void count_from_env(const char* name, T* out) {
  const char* text = std::getenv(name);
  if (text != nullptr && !parse_count(name, text, out)) std::exit(2);
}

}  // namespace arinoc
