// Shared command-line / environment plumbing for ExecOptions, used by the
// bench binaries and example drivers so every one of them speaks the same
// dialect:
//
//   --jobs N             worker threads (0 = hardware concurrency)
//   --no-cache           disable the on-disk result cache
//   --cache-dir D        result-cache directory
//   --sample-interval N  telemetry sample every N cycles (0 = off)
//   --telemetry-dir D    per-cell telemetry JSONL directory
//   --attr-dir D         per-cell latency-attribution report directory
//                        (setting it turns attribution on for every cell)
//
// Environment fallbacks (read first, flags override): ARINOC_JOBS,
// ARINOC_NO_CACHE (any value), ARINOC_CACHE_DIR, ARINOC_SAMPLE_INTERVAL,
// ARINOC_TELEMETRY_DIR, ARINOC_ATTR_DIR. Progress/ETA reporting defaults to
// on when stderr is a terminal.
#pragma once

#include "exec/runner.hpp"

namespace arinoc::exec {

/// Baseline options from the environment. `default_cache` is what the
/// binary wants when neither ARINOC_NO_CACHE nor --no-cache is present
/// (benches default to caching ON so re-runs only simulate changed cells).
ExecOptions options_from_env(bool default_cache);

/// Consumes the exec flags from argv (compacting it in place and updating
/// argc) on top of env defaults; leaves unrelated flags for the caller.
/// Returns false (after printing to stderr) on a malformed exec flag.
bool parse_exec_flags(int& argc, char** argv, ExecOptions& opts);

/// Reports an argument no parser consumed: prints "unknown option '<arg>'
/// (supported: <own_flags>, <the exec flags>)" on stderr and returns 2, the
/// usage-error exit status. `own_flags` lists the caller's flags (may be
/// empty).
int unknown_option(const char* arg, const char* own_flags);

/// One-call convenience for binaries whose only flags are the exec flags:
/// env + argv, exits(2) on malformed or leftover unknown arguments.
ExecOptions require_exec_flags(int argc, char** argv,
                               bool default_cache = true);

}  // namespace arinoc::exec
