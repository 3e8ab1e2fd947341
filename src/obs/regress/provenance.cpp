#include "obs/regress/provenance.hpp"

#include <chrono>

#include "common/hex.hpp"
#include "common/version.hpp"
#include "exec/result_cache.hpp"
#include "obs/regress/json.hpp"

#ifdef _WIN32
#include <winsock.h>
#else
#include <unistd.h>
#endif

namespace arinoc::obs::regress {

std::string config_hash_hex(const Config& cfg) {
  return hex_u64(exec::fnv1a64(cfg.canonical_string()));
}

Provenance collect_provenance() {
  Provenance p;
  p.version = kArinocVersion;
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) == 0) p.host = host;
#if defined(__linux__)
  p.platform = "linux";
#elif defined(__APPLE__)
  p.platform = "darwin";
#elif defined(_WIN32)
  p.platform = "windows";
#else
  p.platform = "unknown";
#endif
  p.unix_time_s = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  p.wall_s = -1.0;
  return p;
}

std::string provenance_json(const Provenance& p, bool deterministic) {
  std::string out;
  JsonWriter w(out);
  const auto field = [&w](std::string_view key, const std::string& value) {
    if (!value.empty()) w.raw(", ").str(key).raw(": ").str(value);
  };
  w.raw("{\"schema\": ").str(kProvenanceSchema).raw(", \"version\": ")
      .str(p.version);
  field("config_hash", p.config_hash);
  field("scheme", p.scheme);
  field("benchmark", p.benchmark);
  field("fabric", p.fabric);
  w.raw(", \"seed\": ").num(p.seed);
  if (!deterministic) {
    field("host", p.host);
    field("platform", p.platform);
    w.raw(", \"unix_time_s\": ").num(p.unix_time_s);
    if (p.wall_s >= 0.0) {
      w.raw(", \"wall_s\": ").num(p.wall_s, NumFormat::kFixed3);
    }
  }
  w.raw("}");
  return out;
}

}  // namespace arinoc::obs::regress
