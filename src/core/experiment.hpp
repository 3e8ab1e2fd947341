// Experiment helpers shared by the exec runner, the bench binaries and the
// examples: building the Table-I base configuration and resolving one
// simulation cell's full config (scheme preset, tweak, derived seed).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/config.hpp"
#include "core/gpgpu_sim.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {

/// The paper's Table-I configuration. `run_cycles`/`warmup_cycles` default
/// to values that keep the full-suite benches minutes-fast; individual
/// benches may lengthen them.
Config make_base_config();

/// Simulation length override honoured by every bench binary:
/// ARINOC_RUN_CYCLES / ARINOC_WARMUP_CYCLES environment variables. A value
/// that is not a plain non-negative integer exits 2 naming the variable.
Config apply_env_overrides(Config cfg);

/// Deterministic per-cell RNG seed: SplitMix64 over seed ^ FNV-1a(benchmark).
/// Different workloads get decorrelated streams; every scheme/point
/// comparison on the same benchmark stays seed-paired. This is the single
/// seeding discipline of every simulation cell (exec::ExperimentRunner
/// resolves each cell through resolve_cell_config) — results depend only on
/// (config, workload), never on thread count or scheduling.
std::uint64_t derive_cell_seed(std::uint64_t seed, std::string_view benchmark);

/// Resolves the full config for one simulation cell: scheme preset, then
/// the optional tweak, then per-cell seed derivation. Throws
/// std::invalid_argument when the result fails Config::validate().
Config resolve_cell_config(const Config& base, Scheme scheme,
                           const std::string& benchmark,
                           const std::function<void(Config&)>& tweak =
                               nullptr);

}  // namespace arinoc
