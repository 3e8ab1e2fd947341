#include "core/experiment.hpp"

#include <stdexcept>

#include "common/parse_count.hpp"

namespace arinoc {

Config make_base_config() {
  Config cfg;  // Defaults already encode Table I.
  cfg.warmup_cycles = 2000;
  cfg.run_cycles = 8000;  // Keeps full-suite benches minutes-fast; export
                          // ARINOC_RUN_CYCLES for higher-fidelity runs.
  return apply_env_overrides(cfg);
}

Config apply_env_overrides(Config cfg) {
  count_from_env("ARINOC_RUN_CYCLES", &cfg.run_cycles);
  count_from_env("ARINOC_WARMUP_CYCLES", &cfg.warmup_cycles);
  return cfg;
}

std::uint64_t derive_cell_seed(std::uint64_t seed,
                               std::string_view benchmark) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the workload name.
  for (const unsigned char c : benchmark) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  std::uint64_t z = (seed ^ h) + 0x9e3779b97f4a7c15ull;  // SplitMix64 mix.
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Config resolve_cell_config(const Config& base, Scheme scheme,
                           const std::string& benchmark,
                           const std::function<void(Config&)>& tweak) {
  Config cfg = apply_scheme(base, scheme);
  if (tweak) tweak(cfg);
  cfg.seed = derive_cell_seed(cfg.seed, benchmark);
  const std::string err = cfg.validate();
  if (!err.empty()) {
    throw std::invalid_argument("invalid configuration for scheme " +
                                std::string(scheme_name(scheme)) + ": " + err);
  }
  return cfg;
}

}  // namespace arinoc
