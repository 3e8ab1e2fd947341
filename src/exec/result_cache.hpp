// On-disk result cache for simulation cells.
//
// A cell is keyed by FNV-1a-64 over (canonicalized Config, scheme name,
// benchmark name, reply-fabric variant, library version); the value is the
// cell's full Metrics record, serialized losslessly (integers in decimal,
// doubles in hexfloat), so a cache hit reproduces byte-identical CSV/JSON
// output. Entries carry the full key material and are verified on load, so
// a 64-bit hash collision degrades to a miss, never a wrong result.
//
// Writes go through a temp file + rename: concurrent writers (pool workers,
// or two sweeps sharing a directory) can only ever publish complete entries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/config.hpp"
#include "core/gpgpu_sim.hpp"

namespace arinoc::exec {

/// FNV-1a 64-bit — stable across platforms, good enough for file naming
/// (correctness never depends on it: entries verify their key material).
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// The full key material for one cell. `fabric` distinguishes the reply
/// fabric variant: "da2mesh" for the overlay, otherwise fabric_cache_tag().
std::string cache_key_string(const Config& cfg, std::string_view scheme,
                             std::string_view benchmark,
                             std::string_view fabric);

/// Cache-key fragment naming the fabric a cell runs on. Generated fabrics
/// are identified by their kind (the generator parameters are already in
/// the canonical config); file-driven fabrics append an FNV-1a-64 hash of
/// the topology file *contents*, so editing the file invalidates cached
/// results even when its path is unchanged. An unreadable file hashes as
/// "file:unreadable" (the simulation itself will fail the cell).
std::string fabric_cache_tag(const Config& cfg);

/// Lossless flat-text Metrics serialization (the cache value format).
std::string serialize_metrics(const Metrics& m);
/// Inverse of serialize_metrics; nullopt on malformed/unknown-layout input.
std::optional<Metrics> deserialize_metrics(const std::string& text);

class ResultCache {
 public:
  /// `dir` is created on first store. An empty dir disables the cache
  /// (every lookup misses, stores are dropped).
  explicit ResultCache(std::string dir) : dir_(std::move(dir)) {}

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Returns the cached Metrics for this key material, or nullopt.
  std::optional<Metrics> load(const std::string& key_material) const;

  /// Publishes a result. Failures (unwritable dir, full disk) are silently
  /// ignored — the cache is an accelerator, never a correctness dependency.
  void store(const std::string& key_material, const Metrics& m) const;

  /// Default directory: ".arinoc-cache" (relative to the working directory).
  static std::string default_dir();

 private:
  std::string entry_path(const std::string& key_material) const;

  std::string dir_;
};

}  // namespace arinoc::exec
