#include "exec/options.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#ifdef _WIN32
#include <io.h>
#define ARINOC_ISATTY_STDERR() (_isatty(2) != 0)
#else
#include <unistd.h>
#define ARINOC_ISATTY_STDERR() (isatty(2) != 0)
#endif

namespace arinoc::exec {

namespace {

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

/// Reads count variable `name` into `*out` when set; a malformed value
/// exits 2.
template <typename T>
void count_from_env(const char* name, T* out) {
  const char* text = std::getenv(name);
  if (text != nullptr && !parse_count(name, text, out)) std::exit(2);
}

}  // namespace

ExecOptions options_from_env(bool default_cache) {
  ExecOptions opts;
  count_from_env("ARINOC_JOBS", &opts.jobs);
  count_from_env("ARINOC_THREADS", &opts.threads);
  opts.cache_enabled = default_cache;
  if (std::getenv("ARINOC_NO_CACHE") != nullptr) opts.cache_enabled = false;
  if (const char* dir = std::getenv("ARINOC_CACHE_DIR")) opts.cache_dir = dir;
  count_from_env("ARINOC_SAMPLE_INTERVAL", &opts.sample_interval);
  if (const char* dir = std::getenv("ARINOC_TELEMETRY_DIR")) {
    opts.telemetry_dir = dir;
  }
  if (const char* dir = std::getenv("ARINOC_ATTR_DIR")) opts.attr_dir = dir;
  opts.progress = ARINOC_ISATTY_STDERR();
  return opts;
}

bool parse_exec_flags(int& argc, char** argv, ExecOptions& opts) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto count = [&](const char* flag, auto* dst) {
      const char* v = value(flag);
      return v != nullptr && parse_count(flag, v, dst);
    };
    if (std::strcmp(arg, "--jobs") == 0) {
      if (!count("--jobs", &opts.jobs)) return false;
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!count("--threads", &opts.threads)) return false;
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      opts.cache_enabled = false;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      const char* v = value("--cache-dir");
      if (v == nullptr) return false;
      opts.cache_dir = v;
      opts.cache_enabled = true;
    } else if (std::strcmp(arg, "--sample-interval") == 0) {
      if (!count("--sample-interval", &opts.sample_interval)) return false;
    } else if (std::strcmp(arg, "--telemetry-dir") == 0) {
      const char* v = value("--telemetry-dir");
      if (v == nullptr) return false;
      opts.telemetry_dir = v;
    } else if (std::strcmp(arg, "--attr-dir") == 0) {
      const char* v = value("--attr-dir");
      if (v == nullptr) return false;
      opts.attr_dir = v;
    } else {
      argv[out++] = argv[i];  // Not ours: keep for the caller.
    }
  }
  argc = out;
  return true;
}

ExecOptions require_exec_flags(int argc, char** argv, bool default_cache) {
  ExecOptions opts = options_from_env(default_cache);
  if (!parse_exec_flags(argc, argv, opts)) std::exit(2);
  if (argc > 1) {
    std::fprintf(stderr,
                 "unknown option '%s' (supported: --jobs N, --threads N, "
                 "--no-cache, --cache-dir D, --sample-interval N, "
                 "--telemetry-dir D, --attr-dir D)\n",
                 argv[1]);
    std::exit(2);
  }
  return opts;
}

}  // namespace arinoc::exec
