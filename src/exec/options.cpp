#include "exec/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parse_count.hpp"

#ifdef _WIN32
#include <io.h>
#define ARINOC_ISATTY_STDERR() (_isatty(2) != 0)
#else
#include <unistd.h>
#define ARINOC_ISATTY_STDERR() (isatty(2) != 0)
#endif

namespace arinoc::exec {

ExecOptions default_exec_options(bool cache) {
  ExecOptions opts;
  opts.cache_enabled = cache;
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

int unknown_option(const char* arg, const char* own_flags) {
  std::fprintf(stderr,
               "unknown option '%s' (supported: %s%s--jobs N, --no-cache, "
               "--cache-dir D, --sample-interval N, --telemetry-dir D, "
               "--attr-dir D)\n",
               arg, own_flags, *own_flags != '\0' ? ", " : "");
  return 2;
}

ExecOptions require_exec_flags(int argc, char** argv, bool default_cache) {
  ExecOptions opts = default_exec_options(default_cache);
  if (!parse_exec_flags(argc, argv, opts)) std::exit(2);
  if (argc > 1) std::exit(unknown_option(argv[1], ""));
  return opts;
}

}  // namespace arinoc::exec
