// Shared command-line plumbing for ExecOptions, used by the grid drivers
// (the bench binaries, sweep_csv) so every one of them speaks the same
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
// Progress/ETA reporting defaults to on when stderr is a terminal.
#pragma once

#include "exec/runner.hpp"

namespace arinoc::exec {

/// A binary's options before its flags are parsed. `cache` is what the
/// binary wants when --no-cache is absent (benches default to caching ON so
/// re-runs only simulate changed cells).
ExecOptions default_exec_options(bool cache);

/// Consumes the exec flags from argv (compacting it in place and updating
/// argc); leaves unrelated flags for the caller.
/// Returns false (after printing to stderr) on a malformed exec flag.
bool parse_exec_flags(int& argc, char** argv, ExecOptions& opts);

/// Reports an argument no parser consumed: prints "unknown option '<arg>'
/// (supported: <own_flags>, <the exec flags>)" on stderr and returns 2, the
/// usage-error exit status. `own_flags` lists the caller's flags (may be
/// empty).
int unknown_option(const char* arg, const char* own_flags);

/// One-call convenience for binaries whose only flags are the exec flags:
/// defaults + argv, exits(2) on malformed or leftover unknown arguments.
ExecOptions require_exec_flags(int argc, char** argv,
                               bool default_cache = true);

}  // namespace arinoc::exec
